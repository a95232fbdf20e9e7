"""Text input formats: polynomial expressions and instance description files.

Polynomial grammar (whitespace is insignificant everywhere)::

    expression := term (('+' | '-') term)*
    term       := factor ('*' factor)*
    factor     := rational | variable ('^' natural)? | '(' expression ')'
    rational   := integer ('/' natural)?

Numbers (``integer``, ``natural``) are runs of the ASCII digits 0-9; any
other digit, such as '²' or '٣', is an unexpected character.  A variable
name is a run of letters, digits and '_' (``str.isalnum``) that starts with
a letter or '_'.  Multiplication is always explicit: ``2x0`` and ``x0 x1``
are syntax errors, not products.  Parentheses nest at most ``MAX_NESTING``
levels deep; deeper nesting is a syntax error rather than a recursion
overflow.  Variables must be declared by the surrounding ring; an
undeclared name is rejected with its position.  Parsing collects terms into
the canonical sparse form, so ``x0 + x0`` parses to the polynomial printed
as ``2*x0`` and parse/print/parse is the identity on canonical text.

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
import string
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Dict, List, Optional, Tuple

from .cover import CoverInstance, require_invertible_cover_degree
from .family import CoverFamily, validate_family
from .poly import QQ, Polynomial, PolyRing, PrimeField, mul_terms, ring_over

__all__ = [
    "ParseError",
    "InstanceFileError",
    "InstanceDocument",
    "is_variable_name",
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
_DIGITS = frozenset("0123456789")
# Characters that start a token; other letters pass ``str.isalpha``.
_STARTERS = _SYMBOLS | _DIGITS | frozenset(string.ascii_letters + "_")
# One scan: whitespace (``str.isspace``) is skipped; a number is a run of
# ASCII digits; a name is a run of \w (``str.isalnum`` or '_'); any other
# character is a token of its own, which ``_tokenize`` rejects, as it does
# a \w run that starts with neither a letter nor '_'.
_TOKEN = re.compile(r"\s*([0-9]+|\w+|[-+*/^()]|\S)")


def _tokenize(text: str) -> List[str]:
    """The tokens of ``text``, then "" for the end of input.  A character
    that starts no token is a syntax error at its line and column."""
    tokens = _TOKEN.findall(text)
    for index, token in enumerate(tokens):
        first = token[0]
        if first not in _STARTERS and not first.isalpha():
            line, column = _position(text, index)
            raise ParseError(f"unexpected character {first!r}", line, column)
    tokens.append("")
    return tokens


def _kind(token: str) -> str:
    """``_NUMBER``, ``_NAME``, ``_END``, or the symbol itself."""
    if not token:
        return _END
    if token in _SYMBOLS:
        return token
    return _NUMBER if token[0] in _DIGITS else _NAME


def _position(text: str, index: int) -> Tuple[int, int]:
    """(line, column), both from 1, of token ``index`` of ``text``; past the
    last token, of the end of input.  Rescans the text, so it serves
    messages only."""
    match = next(islice(_TOKEN.finditer(text), index, None), None)
    offset = len(text) if match is None else match.start(1)
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


# -- recursive-descent parser --------------------------------------------------

_ATOM_STARTERS = (_NUMBER, _NAME, "(")
_VALUE_ERROR = "value error"
# Each level of parentheses costs the parser three stack frames.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, ring: PolyRing):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring = ring
        self.domain = ring.domain
        self.modulus = ring.domain.characteristic
        # Only a name token is looked up, so a declared "2" or "+" stays a
        # number or a symbol.
        self.variable_index = {
            name: i for i, name in enumerate(ring.variables) if _kind(name) == _NAME
        }
        self.depth = 0

    def describe(self, pos: int) -> str:
        token = self.tokens[pos]
        return f"{token!r}" if token else "end of input"

    def fail(self, reason: str, pos: int, kind: str = "syntax error"):
        line, column = _position(self.text, pos)
        raise ParseError(reason, line, column, kind)

    def fail_unexpected(self, pos: int, wanted: str):
        if _kind(self.tokens[pos]) in _ATOM_STARTERS:
            self.fail(
                f"unexpected {self.describe(pos)}; multiplication must be "
                f"written explicitly with '*'",
                pos,
            )
        self.fail(f"expected {wanted}, found {self.describe(pos)}", pos)

    def expect_number(self, what: str) -> int:
        """The number at the current token, which is consumed."""
        if _kind(self.tokens[self.pos]) != _NUMBER:
            self.fail(f"expected {what}, found {self.describe(self.pos)}", self.pos)
        self.pos += 1
        return int(self.tokens[self.pos - 1])

    # Sub-expressions are plain {exponents: coefficient} dicts, so a form
    # builds one polynomial, in ``parse_polynomial``, whatever its shape.

    def expression(self) -> dict:
        total: dict = {}
        sign = 1
        while True:
            self.term(total, sign)
            token = self.tokens[self.pos]
            if token == "+":
                sign = 1
            elif token == "-":
                sign = -1
            else:
                return total
            self.pos += 1

    def term(self, total: dict, sign: int) -> None:
        """Add sign times the next term into ``total``.  Its numbers and
        variable powers collect into one integer fraction and one exponent
        list, so the term makes one field element; only parenthesised
        factors are multiplied as term dicts."""
        domain = self.domain
        tokens = self.tokens
        exps = [0] * self.ring.nvars
        numerator, denominator = sign, 1
        product = None
        while True:
            index = self.variable_index.get(tokens[self.pos])
            if index is not None:
                self.pos += 1
                if tokens[self.pos] == "^":
                    self.pos += 1
                    exps[index] += self.expect_number("an exponent after '^'")
                else:
                    exps[index] += 1
            else:
                kind = _kind(tokens[self.pos])
                if kind == _NUMBER or kind == "-":
                    n, d = self.rational()
                    numerator *= n
                    denominator *= d
                elif kind == "(":
                    value = self.parenthesised()
                    product = value if product is None else mul_terms(product, value, domain)
                elif kind == _NAME:
                    self.fail(f"unknown variable {tokens[self.pos]!r}", self.pos)
                else:
                    self.fail_unexpected(self.pos, "a rational, a variable, or '('")
            if tokens[self.pos] != "*":
                break
            self.pos += 1
        if denominator == 1:
            coefficient = domain.of(numerator)
        else:
            coefficient = domain.of(Fraction(numerator, denominator))
        monomial = {tuple(exps): coefficient}
        if product is not None:
            monomial = mul_terms(monomial, product, domain)
        for key, value in monomial.items():
            total[key] = domain.add(total[key], value) if key in total else value

    def parenthesised(self) -> dict:
        if self.depth == MAX_NESTING:
            self.fail(f"parentheses nested more than {MAX_NESTING} deep", self.pos)
        self.pos += 1
        self.depth += 1
        value = self.expression()
        self.depth -= 1
        if self.tokens[self.pos] != ")":
            self.fail_unexpected(self.pos, "')'")
        self.pos += 1
        return value

    def rational(self) -> Tuple[int, int]:
        """(numerator, denominator) of a signed rational whose denominator
        is nonzero in the field."""
        sign = 1
        if self.tokens[self.pos] == "-":
            self.pos += 1
            sign = -1
        start = self.pos
        numerator = sign * self.expect_number("a number after '-'")
        if self.tokens[self.pos] != "/":
            return numerator, 1
        self.pos += 1
        denominator = self.expect_number("a denominator after '/'")
        if denominator == 0:
            self.fail("zero denominator in rational", self.pos - 1, _VALUE_ERROR)
        if self.modulus and denominator % self.modulus == 0:
            value = Fraction(numerator, denominator)
            try:
                self.domain.of(value)
            except ValueError as error:  # the denominator vanishes mod p
                self.fail(str(error), start, _VALUE_ERROR)
            return value.numerator, value.denominator
        return numerator, denominator


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse ``text`` into a canonical polynomial of ``ring``.

    Raises :class:`ParseError` with line/column on malformed input, unknown
    variables, and zero denominators.  Multiplication is never implicit.
    """
    parser = _Parser(text, ring)
    terms = parser.expression()
    if parser.tokens[parser.pos]:
        parser.fail_unexpected(parser.pos, "'+', '-', '*', or end of input")
    return Polynomial(ring, terms)


# -- instance files ------------------------------------------------------------

_KEY_LINE = re.compile(r"^\s*([A-Za-z][A-Za-z0-9_]*)\s*=(.*)$")
_NAME_TOKEN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_SCALAR_KEYS = ("M", "m", "l", "K", "prime", "seed", "vars")
_GENERALIZED_KEY = re.compile(r"^g([0-9]+)$")


def is_variable_name(name: str) -> bool:
    """Whether ``name`` may name a variable: an ASCII letter or underscore,
    then ASCII letters, digits and underscores."""
    return _NAME_TOKEN.match(name) is not None


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
        if not is_variable_name(name):
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
