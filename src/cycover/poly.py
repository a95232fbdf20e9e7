"""Exact sparse multivariate polynomial arithmetic.

Coefficients live in an exact domain: the rationals (``fractions.Fraction``,
always lowest terms with positive denominator) or a prime field F_p whose
elements are plain ints reduced to [0, p).  A polynomial belongs to a
:class:`PolyRing`, which fixes an ordered variable tuple; "degree" always
means the total degree, read through ``PolyRing.monomial_degree``.

Terms are stored sparsely, keyed by exponent tuple, in no particular order.
Equality and hashing ignore the order; ``leading()`` and ``text()`` use
descending graded reverse lexicographic order, so ``text()`` is canonical.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .modular import is_prime as _is_prime
from .seeds import Rng

Coeff = Union[int, Fraction]
Exponents = tuple  # tuple[int, ...]


class DomainMismatchError(ValueError):
    pass


class RingMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Rationals:
    """The field Q with Fraction arithmetic."""

    characteristic = 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def of(self, value) -> Fraction:
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / Fraction(b)

    def pow(self, a, e: int):
        return Fraction(a) ** e

    def is_zero(self, a) -> bool:
        return a == 0

    def random(self, rng: Rng) -> Fraction:
        # Fixed integer range keeps hand-auditable coefficients.
        return Fraction(rng.int_range(-99, 99))

    def random_nonzero(self, rng: Rng) -> Fraction:
        while True:
            value = self.random(rng)
            if value:
                return value

    def to_str(self, a) -> str:
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def __repr__(self) -> str:
        return "QQ"


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime p; elements are ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    characteristic = property(lambda self: self.p)

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def of(self, value) -> int:
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ValueError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(den, self.p - 2, self.p) % self.p
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def pow(self, a, e: int):
        return pow(a, e, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def random(self, rng: Rng) -> int:
        return rng.below(self.p)

    def random_nonzero(self, rng: Rng) -> int:
        return 1 + rng.below(self.p - 1)

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __repr__(self) -> str:
        return f"GF({self.p})"


Domain = Union[Rationals, PrimeField]

QQ = Rationals()


@dataclass(frozen=True)
class PolyRing:
    """Ordered variables over a domain."""

    variables: tuple
    domain: Domain

    def __post_init__(self):
        names = tuple(self.variables)
        object.__setattr__(self, "variables", names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def monomial_degree(self, exps: Exponents) -> int:
        """The degree of a monomial: the one degree that ``term_key``,
        ``Polynomial.degree``, ``homogeneous_components`` and
        ``regseq.normal_form`` read."""
        return sum(exps)

    def term_key(self, exps: Exponents):
        """Sort key realizing graded reverse lexicographic order.

        Larger key = larger monomial: compare degree first, then prefer the
        monomial whose last differing exponent is smaller.
        """
        return (self.monomial_degree(exps), tuple(-e for e in reversed(exps)))

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(self.domain.one)

    def const(self, value) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: self.domain.of(value)})

    def gen(self, i: int) -> "Polynomial":
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): self.domain.one})

    def gens(self) -> list:
        return [self.gen(i) for i in range(self.nvars)]

    def monomial(self, exps: Sequence[int], coeff=None) -> "Polynomial":
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent tuple has wrong arity")
        coeff = self.domain.one if coeff is None else self.domain.of(coeff)
        return Polynomial(self, {exps: coeff})


def ring_over(variables: Iterable[str], domain: Domain = QQ) -> PolyRing:
    return PolyRing(tuple(variables), domain)


class Polynomial:
    """Immutable sparse polynomial; do not mutate ``terms`` after creation.

    Coefficients are canonical domain elements and the constructor only
    drops zero terms: outside values go through ``domain.of`` first.
    """

    __slots__ = ("ring", "terms", "_hash", "_degrees")

    def __init__(self, ring: PolyRing, terms: Mapping):
        is_zero = ring.domain.is_zero
        object.__setattr__(self, "ring", ring)
        object.__setattr__(
            self, "terms", {e: c for e, c in terms.items() if not is_zero(c)}
        )
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_degrees", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _degree_range(self) -> tuple:
        """(least, largest) degree of a term, computed once; (inf, -inf)
        for the zero polynomial."""
        cached = self._degrees
        if cached is None:
            degrees = [self.ring.monomial_degree(e) for e in self.terms]
            cached = (min(degrees), max(degrees)) if degrees else (math.inf, -math.inf)
            object.__setattr__(self, "_degrees", cached)
        return cached

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        return self._degree_range()[1]

    def is_homogeneous(self) -> bool:
        low, high = self._degree_range()
        return low >= high

    def constant_coefficient(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.domain.zero)

    def leading(self):
        """(exponents, coefficient) of the grevlex-largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=self.ring.term_key)
        return exps, self.terms[exps]

    def coefficient(self, exps: Sequence[int]):
        return self.terms.get(tuple(exps), self.ring.domain.zero)

    def __len__(self) -> int:
        return len(self.terms)

    # -- ring operations ---------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("polynomials belong to different rings")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        cached = self._hash
        if cached is None:
            cached = hash((self.ring, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        domain = self.ring.domain
        result = dict(self.terms)
        for exps, coeff in other.terms.items():
            if exps in result:
                result[exps] = domain.add(result[exps], coeff)
            else:
                result[exps] = coeff
        return Polynomial(self.ring, result)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        domain = self.ring.domain
        result = dict(self.terms)
        for exps, coeff in other.terms.items():
            if exps in result:
                result[exps] = domain.sub(result[exps], coeff)
            else:
                result[exps] = domain.neg(coeff)
        return Polynomial(self.ring, result)

    def __neg__(self) -> "Polynomial":
        domain = self.ring.domain
        return Polynomial(self.ring, {e: domain.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return poly_mul(self, other)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = poly_mul(result, base)
            e >>= 1
            if e:
                base = poly_mul(base, base)
        return result

    def scale(self, scalar) -> "Polynomial":
        domain = self.ring.domain
        scalar = domain.of(scalar)
        return Polynomial(self.ring, {e: domain.mul(c, scalar) for e, c in self.terms.items()})

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        _, lead = self.leading()
        return self.scale(self.ring.domain.inv(lead))

    # -- evaluation and substitution ----------------------------------------

    def __call__(self, point: Sequence):
        return poly_eval(self, point)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Evaluate at polynomial arguments (one image per variable)."""
        if len(images) != self.ring.nvars:
            raise ValueError("one image per variable required")
        if not images:
            raise ValueError("substitution needs at least one variable")
        target = images[0].ring
        for image in images:
            if image.ring != target:
                raise RingMismatchError("substitution images in different rings")
        if target.domain != self.ring.domain:
            raise DomainMismatchError("substitution across coefficient domains")
        return compose(self, images, target.one())

    def map_domain(self, new_ring: PolyRing) -> "Polynomial":
        """Reinterpret coefficients in ``new_ring``'s domain (same variables)."""
        if new_ring.nvars != self.ring.nvars:
            raise ValueError("variable count mismatch")
        return Polynomial(new_ring, {e: new_ring.domain.of(c) for e, c in self.terms.items()})

    # -- canonical text -----------------------------------------------------

    def text(self) -> str:
        """Canonical rendering, parseable by the toolkit's grammar."""
        if not self.terms:
            return "0"
        domain = self.ring.domain
        names = self.ring.variables
        rational = isinstance(domain, Rationals)
        ordered = sorted(
            self.terms.items(), key=lambda kv: self.ring.term_key(kv[0]), reverse=True
        )
        pieces = []
        for index, (exps, coeff) in enumerate(ordered):
            if rational and coeff < 0:
                sign, magnitude = "-", -coeff
            else:
                sign, magnitude = "+", coeff
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps)
                if e
            )
            mag = domain.to_str(magnitude)
            if not mono:
                body = mag
            elif magnitude == domain.one:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if index == 0:
                if sign == "-":
                    # A bare leading "-x" is not grammatical; fold the sign
                    # into the rational coefficient instead.
                    body = f"{domain.to_str(coeff)}*{mono}" if mono else domain.to_str(coeff)
                pieces.append(body)
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self.text()!r})"

    def __iter__(self) -> Iterator:
        return iter(self.terms.items())


# -- module-level operations ------------------------------------------------


def poly_mul(F: Polynomial, G: Polynomial) -> Polynomial:
    """Exact product; raises RingMismatchError across rings."""
    if F.ring != G.ring:
        raise RingMismatchError("polynomials belong to different rings")
    return Polynomial(F.ring, mul_terms(F.terms, G.terms, F.ring.domain))


def mul_terms(f: Mapping, g: Mapping, domain: Domain) -> dict:
    """The product of two {exponents: coefficient} maps, zeros kept."""
    if len(f) > len(g):
        f, g = g, f
    result: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            value = domain.mul(c1, c2)
            if key in result:
                result[key] = domain.add(result[key], value)
            else:
                result[key] = value
    return result


def poly_eval(F: Polynomial, point: Sequence):
    """Evaluate at a point with coordinates in the coefficient domain."""
    domain = F.ring.domain
    if len(point) != F.ring.nvars:
        raise ValueError("point has wrong arity")
    coords = [domain.of(c) for c in point]
    total = domain.zero
    for exps, coeff in F.terms.items():
        value = coeff
        for i, e in enumerate(exps):
            if e:
                value = domain.mul(value, domain.pow(coords[i], e))
        total = domain.add(total, value)
    return total


def homogeneous_components(F: Polynomial) -> dict:
    """Map degree -> homogeneous part; degrees with zero part absent."""
    ring = F.ring
    buckets: dict = {}
    for exps, coeff in F.terms.items():
        buckets.setdefault(ring.monomial_degree(exps), {})[exps] = coeff
    return {d: Polynomial(ring, terms) for d, terms in sorted(buckets.items())}


def compose(F: Polynomial, images: Sequence, one):
    """F at one image per variable, in any algebra whose elements support
    ``+``, ``*`` and ``scale``; ``one`` is that algebra's unit.  It serves
    ``Polynomial.substitute``; series have their own packed kernel,
    ``series.compose_series``.

    Each image's powers are built once, one product per exponent, up to the
    largest exponent F has in that variable.  A term is the product of its
    cached powers, the first of them scaled by its coefficient.
    """
    powers = [[one, image] for image in images]
    total = one.scale(0)
    for exps, coeff in F.terms.items():
        term = None
        for chain, e in zip(powers, exps):
            while len(chain) <= e:
                chain.append(chain[-1] * chain[1])
            if e:
                term = chain[e].scale(coeff) if term is None else term * chain[e]
        total = total + (one.scale(coeff) if term is None else term)
    return total


def integer_numerators(terms: Mapping, den: int) -> dict:
    """The integers den·c of coefficients c whose denominators divide
    ``den``: over Q the cleared numerators, over GF(p) (den = 1) the
    canonical residues themselves."""
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


def over_denominator(values: Mapping, den: int, domain: Domain) -> dict:
    """The field elements v/den of integer numerators v, canonical: one
    ``Fraction`` per value over Q, one inverse of den over GF(p).  Where p
    divides den, each v/den goes through ``Fraction`` in lowest terms, and
    ``PrimeField.of`` raises if its denominator still vanishes mod p."""
    if isinstance(domain, PrimeField):
        p = domain.p
        if den % p == 0:
            return {e: domain.of(Fraction(v, den)) for e, v in values.items()}
        scale = domain.inv(den)
        return {e: v * scale % p for e, v in values.items()}
    return {e: Fraction(v, den) for e, v in values.items()}


def translate_origin(F: Polynomial, point: Sequence) -> Polynomial:
    """F(z + point): move ``point`` to the origin of the coordinates.

    One Taylor shift per variable with a nonzero shift c (von zur Gathen &
    Gerhard 1997, "Fast algorithms for Taylor shifts and certain difference
    equations"): every term's power z_i^e expands as
    (z_i + c)^e = Σ_k C(e,k)·c^(e−k)·z_i^k into one dict, and no generic
    product is formed.

    The shifts run on integers over one common denominator ``den``, for
    both fields.  Over Q, F starts as its numerators over the lcm of its
    coefficients' denominators.  A shift c = a/b, with E the largest
    exponent of z_i, multiplies ``den`` by b^E and expands z_i^e by the
    integer row C(e,k)·a^(e−k)·b^(E−e+k), k = 0..e; so the invariant
    F(z + shifts so far) = (values)/den holds after every shift.  Over
    GF(p), a = c, b = 1 and den = 1; rows are reduced mod p, and values
    once per shift.  The values become field elements once, at the end.
    """
    ring = F.ring
    if len(point) != ring.nvars:
        raise ValueError("point has wrong arity")
    domain = ring.domain
    p = domain.characteristic
    den = math.lcm(*(c.denominator for c in F.terms.values()))
    values = integer_numerators(F.terms, den)
    for i, c in enumerate(point):
        c = domain.of(c)
        if domain.is_zero(c) or not values:
            continue
        a, b = c.numerator, c.denominator
        E = max(exps[i] for exps in values)
        a_powers, b_powers = [1], [1]
        for _ in range(E):
            a_powers.append(a_powers[-1] * a)
            b_powers.append(b_powers[-1] * b)
        rows: dict = {}  # e -> [C(e,k)·a^(e−k)·b^(E−e+k) for k = 0..e]
        shifted: dict = {}
        for exps, value in values.items():
            e = exps[i]
            row = rows.get(e)
            if row is None:
                row = rows[e] = [
                    math.comb(e, k) * a_powers[e - k] * b_powers[E - e + k]
                    for k in range(e + 1)
                ]
                if p:
                    row = rows[e] = [x % p for x in row]
            head, tail = exps[:i], exps[i + 1 :]
            for k, factor in enumerate(row):
                key = head + (k,) + tail
                shifted[key] = shifted.get(key, 0) + value * factor
        values = {exps: v % p for exps, v in shifted.items()} if p else shifted
        den *= b_powers[E]
    return Polynomial(ring, over_denominator(values, den, domain))


def _exponents_of_degree(nvars: int, degree: int):
    if not nvars:
        if degree == 0:
            yield ()
        return
    for e in range(degree + 1):
        for rest in _exponents_of_degree(nvars - 1, degree - e):
            yield (e,) + rest


@functools.lru_cache(maxsize=256)
def _monomials(nvars: int, degree: int) -> tuple:
    # All tuples share the degree, so ``PolyRing.term_key`` orders them by
    # its tie-break alone: the last differing exponent, smaller first.
    return tuple(
        sorted(
            _exponents_of_degree(nvars, degree),
            key=lambda exps: tuple(-e for e in reversed(exps)),
            reverse=True,
        )
    )


def monomials_of_degree(ring: PolyRing, degree: int) -> list:
    """All exponent tuples of the given degree, grevlex-descending.

    The order depends only on the number of variables, so the sorted tuples
    are cached on (nvars, degree); each call returns a fresh list.
    """
    return list(_monomials(ring.nvars, degree))


def random_homogeneous(ring: PolyRing, degree: int, seed: int) -> Polynomial:
    """Deterministic random homogeneous polynomial of the given degree.

    Coefficients are uniform over F_p, or uniform over a fixed integer range
    for Q.  Degree 0 always yields a nonzero constant.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    rng = Rng(seed)
    domain = ring.domain
    if degree == 0:
        return ring.const(domain.random_nonzero(rng))
    return Polynomial(
        ring, {exps: domain.random(rng) for exps in monomials_of_degree(ring, degree)}
    )
