"""Text input formats: polynomial expressions and instance description files.

Polynomial grammar (whitespace is insignificant everywhere)::

    expression := term (('+' | '-') term)*
    term       := factor ('*' factor)*
    factor     := rational | variable ('^' natural)? | '(' expression ')'
    rational   := integer ('/' natural)?

Multiplication is always explicit: ``2x0`` and ``x0 x1`` are syntax errors,
not products.  Parentheses nest at most ``MAX_NESTING`` levels deep; deeper
nesting is a syntax error rather than a recursion overflow.  Variables must
be declared by the surrounding ring; an undeclared name is rejected with its
position.  Parsing collects terms into the canonical sparse form, so
``x0 + x0`` parses to the polynomial printed as ``2*x0`` and
parse/print/parse is the identity on canonical text.

Instance files are line-oriented ``key = value`` bindings.  Recognized keys:

    M, m, l, K        family parameters (all required)
    prime             optional: work over GF(prime) instead of the rationals
    seed              optional: default sampling seed carried with the file
    vars              optional: ambient variable names (default x0, x1, ...)
    f                 the base form (required)
    g                 the branch form of a plain cover, or
    g1 .. gK          coefficient forms of a generalized cover equation

``#`` starts a comment anywhere on a line.  A polynomial value continues
over following lines until the next ``key =`` line, so large forms can be
wrapped freely.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .cover import CoverInstance, require_invertible_cover_degree
from .family import CoverFamily, validate_family
from .poly import QQ, Polynomial, PolyRing, PrimeField, mul_terms, ring_over

__all__ = [
    "ParseError",
    "InstanceFileError",
    "InstanceDocument",
    "parse_polynomial",
    "parse_instance_file",
    "read_instance_path",
]


class ParseError(ValueError):
    """A syntax, lookup or value error in a polynomial expression, with
    position.  ``kind`` leads the message: a well-formed number without a
    value in the domain is a "value error", anything else a "syntax error"."""

    def __init__(
        self, reason: str, line: int, column: int, kind: str = "syntax error"
    ):
        super().__init__(f"{kind} at line {line}, column {column}: {reason}")
        self.reason = reason
        self.line = line
        self.column = column


class InstanceFileError(ValueError):
    """A malformed instance file, with the offending line number."""

    def __init__(self, reason: str, line: int):
        super().__init__(f"instance file error at line {line}: {reason}")
        self.reason = reason
        self.line = line


# -- tokenizer ----------------------------------------------------------------

_NUMBER = "number"
_NAME = "name"
_END = "end"
_SYMBOLS = frozenset("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # _NUMBER, _NAME, _END, or the symbol character itself
    text: str
    line: int
    column: int

    def describe(self) -> str:
        if self.kind == _END:
            return "end of input"
        return f"{self.text!r}"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, column = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        start_col = column
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token(_NUMBER, text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token(_NAME, text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, start_col))
            column += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token(_END, "", line, column))
    return tokens


# -- recursive-descent parser --------------------------------------------------

_ATOM_STARTERS = (_NUMBER, _NAME, "(")
_VALUE_ERROR = "value error"
# Each level of parentheses costs the parser three stack frames.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: List[_Token], ring: PolyRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.variable_index = {name: i for i, name in enumerate(ring.variables)}
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, reason: str, token: _Token, kind: str = "syntax error"):
        raise ParseError(reason, token.line, token.column, kind)

    def fail_unexpected(self, token: _Token, wanted: str):
        if token.kind in _ATOM_STARTERS:
            self.fail(
                f"unexpected {token.describe()}; multiplication must be "
                f"written explicitly with '*'",
                token,
            )
        self.fail(f"expected {wanted}, found {token.describe()}", token)

    # Sub-expressions are plain {exponents: coefficient} dicts, so a form
    # builds one polynomial, in ``parse_polynomial``, whatever its shape.

    def expression(self) -> dict:
        domain = self.ring.domain
        total = self.term()
        while self.peek().kind in ("+", "-"):
            combine = domain.add if self.advance().kind == "+" else domain.sub
            for exps, coeff in self.term().items():
                total[exps] = combine(total.get(exps, domain.zero), coeff)
        return total

    def term(self) -> dict:
        value = self.factor()
        while self.peek().kind == "*":
            self.advance()
            value = mul_terms(value, self.factor(), self.ring.domain)
        return value

    def factor(self) -> dict:
        token = self.peek()
        if token.kind in ("-", _NUMBER):
            return self.rational()
        if token.kind == _NAME:
            self.advance()
            index = self.variable_index.get(token.text)
            if index is None:
                self.fail(f"unknown variable {token.text!r}", token)
            power = 1
            if self.peek().kind == "^":
                self.advance()
                exponent = self.peek()
                if exponent.kind != _NUMBER:
                    self.fail(
                        f"expected an exponent after '^', found "
                        f"{exponent.describe()}",
                        exponent,
                    )
                self.advance()
                power = int(exponent.text)
            exps = [0] * self.ring.nvars
            exps[index] = power
            return {tuple(exps): self.ring.domain.one}
        if token.kind == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested more than {MAX_NESTING} deep", token)
            self.advance()
            self.depth += 1
            value = self.expression()
            self.depth -= 1
            closing = self.peek()
            if closing.kind != ")":
                self.fail_unexpected(closing, "')'")
            self.advance()
            return value
        self.fail_unexpected(token, "a rational, a variable, or '('")
        raise AssertionError("unreachable")

    def rational(self) -> dict:
        sign = 1
        token = self.peek()
        if token.kind == "-":
            self.advance()
            sign = -1
            token = self.peek()
            if token.kind != _NUMBER:
                self.fail(
                    f"expected a number after '-', found {token.describe()}",
                    token,
                )
        numerator_token = self.advance()
        numerator = sign * int(numerator_token.text)
        denominator = 1
        if self.peek().kind == "/":
            self.advance()
            denominator_token = self.peek()
            if denominator_token.kind != _NUMBER:
                self.fail(
                    f"expected a denominator after '/', found "
                    f"{denominator_token.describe()}",
                    denominator_token,
                )
            self.advance()
            denominator = int(denominator_token.text)
            if denominator == 0:
                self.fail(
                    "zero denominator in rational", denominator_token, _VALUE_ERROR
                )
        try:
            value = self.ring.domain.of(Fraction(numerator, denominator))
        except ValueError as error:  # the denominator vanishes mod p
            self.fail(str(error), token, _VALUE_ERROR)
        return {(0,) * self.ring.nvars: value}


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse ``text`` into a canonical polynomial of ``ring``.

    Raises :class:`ParseError` with line/column on malformed input, unknown
    variables, and zero denominators.  Multiplication is never implicit.
    """
    parser = _Parser(_tokenize(text), ring)
    terms = parser.expression()
    trailing = parser.peek()
    if trailing.kind != _END:
        parser.fail_unexpected(trailing, "'+', '-', '*', or end of input")
    return Polynomial(ring, terms)


# -- instance files ------------------------------------------------------------

_KEY_LINE = re.compile(r"^\s*([A-Za-z][A-Za-z0-9_]*)\s*=(.*)$")
_NAME_TOKEN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_SCALAR_KEYS = ("M", "m", "l", "K", "prime", "seed", "vars")
_GENERALIZED_KEY = re.compile(r"^g([0-9]+)$")


@dataclass(frozen=True)
class InstanceDocument:
    """A fully validated instance file: family, forms, and file metadata."""

    family: CoverFamily
    instance: CoverInstance
    prime: Optional[int]
    seed: Optional[int]
    variables: Tuple[str, ...]
    source_text: str


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _collect_bindings(text: str) -> Dict[str, Tuple[str, int]]:
    """Raw key -> (value text, first line number), honoring continuations."""
    bindings: Dict[str, Tuple[List[str], int]] = {}
    current: Optional[str] = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        match = _KEY_LINE.match(line)
        if match:
            key, value = match.group(1), match.group(2)
            if key not in _SCALAR_KEYS and key != "f" and key != "g" and not _GENERALIZED_KEY.match(key):
                raise InstanceFileError(f"unknown key {key!r}", number)
            if key in bindings:
                raise InstanceFileError(f"duplicate key {key!r}", number)
            bindings[key] = ([value.strip()], number)
            current = key
        else:
            if current is None:
                raise InstanceFileError(
                    "content before the first 'key = value' line", number
                )
            bindings[current][0].append(line.strip())
    return {
        key: (" ".join(piece for piece in pieces if piece), line)
        for key, (pieces, line) in bindings.items()
    }


def _require_int(bindings, key: str) -> Tuple[int, int]:
    if key not in bindings:
        raise InstanceFileError(f"missing required key {key!r}", 1)
    value, line = bindings[key]
    try:
        return int(value), line
    except ValueError:
        raise InstanceFileError(
            f"key {key!r} needs an integer, got {value!r}", line
        ) from None


def _optional_int(bindings, key: str) -> Optional[int]:
    if key not in bindings:
        return None
    value, line = bindings[key]
    try:
        return int(value)
    except ValueError:
        raise InstanceFileError(
            f"key {key!r} needs an integer, got {value!r}", line
        ) from None


def _variable_names(bindings, family: CoverFamily) -> Tuple[str, ...]:
    count = family.ambient_variable_count
    if "vars" not in bindings:
        return tuple(f"x{i}" for i in range(count))
    value, line = bindings["vars"]
    names = tuple(value.replace(",", " ").split())
    for name in names:
        if not _NAME_TOKEN.match(name):
            raise InstanceFileError(f"invalid variable name {name!r}", line)
    if len(set(names)) != len(names):
        raise InstanceFileError("variable names must be distinct", line)
    if len(names) != count:
        raise InstanceFileError(
            f"expected {count} variable names for this family, got "
            f"{len(names)}",
            line,
        )
    return names


def _parse_form(bindings, key: str, ring: PolyRing) -> Polynomial:
    value, line = bindings[key]
    try:
        return parse_polynomial(value, ring)
    except ParseError as error:
        raise InstanceFileError(
            f"in the value of {key!r}: {error.reason} "
            f"(expression column {error.column})",
            line,
        ) from error


def parse_instance_file(text: str) -> InstanceDocument:
    """Validate an instance file and build the cover it describes."""
    bindings = _collect_bindings(text)
    dimension, dim_line = _require_int(bindings, "M")
    base_degree, _ = _require_int(bindings, "m")
    branch_weight, _ = _require_int(bindings, "l")
    cover_degree, _ = _require_int(bindings, "K")
    try:
        family = validate_family(dimension, base_degree, branch_weight, cover_degree)
    except ValueError as error:
        raise InstanceFileError(str(error), dim_line) from error

    prime = _optional_int(bindings, "prime")
    seed = _optional_int(bindings, "seed")
    if prime is not None:
        try:
            domain = PrimeField(prime)
            require_invertible_cover_degree(family.cover_degree, prime)
        except ValueError as error:
            raise InstanceFileError(str(error), bindings["prime"][1]) from error
    else:
        domain = QQ

    variables = _variable_names(bindings, family)
    ring = ring_over(variables, domain)

    if "f" not in bindings:
        raise InstanceFileError("missing required key 'f' (the base form)", 1)
    base_form = _parse_form(bindings, "f", ring)

    generalized_keys = sorted(
        (int(_GENERALIZED_KEY.match(key).group(1)), key)
        for key in bindings
        if _GENERALIZED_KEY.match(key)
    )
    if "g" in bindings and generalized_keys:
        raise InstanceFileError(
            "give either 'g' or 'g1'..'gK' coefficient forms, not both",
            bindings["g"][1],
        )
    if "g" not in bindings and not generalized_keys:
        raise InstanceFileError("missing key 'g' (the branch form)", 1)

    try:
        if "g" in bindings:
            branch_form = _parse_form(bindings, "g", ring)
            instance = CoverInstance(family, base_form, branch_form=branch_form)
        else:
            for index, key in generalized_keys:
                if index < 1 or index > family.cover_degree:
                    raise InstanceFileError(
                        f"coefficient form key {key!r} is out of range "
                        f"1..{family.cover_degree}",
                        bindings[key][1],
                    )
            forms = [ring.const(0) for _ in range(family.cover_degree)]
            for index, key in generalized_keys:
                forms[index - 1] = _parse_form(bindings, key, ring)
            instance = CoverInstance(
                family, base_form, generalized_forms=tuple(forms)
            )
    except ValueError as error:
        if isinstance(error, InstanceFileError):
            raise
        raise InstanceFileError(str(error), bindings.get("f", ("", 1))[1]) from error

    return InstanceDocument(
        family=family,
        instance=instance,
        prime=prime,
        seed=seed,
        variables=variables,
        source_text=text,
    )


def read_instance_path(path: str) -> InstanceDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance_file(handle.read())
