"""Independent routes that the tests check the library against.

Nothing in ``cycover`` calls these.  They reach the same answers as the
library by other means, so a test can compare the two:

* saturation at the origin by iterated ideal quotient, entirely through
  Buchberger completion — decides whether the origin is an isolated point
  of a zero set, as the Macaulay rank certificate in ``cycover.regseq``
  does for homogeneous ideals;
* polynomials composed with series term by term, each exponent powered on
  its own, or through the generic power-caching ``cycover.poly.compose`` on
  ``TruncatedSeries``, as against the packed, order-aware kernel of
  ``cycover.series.compose_series``;
* the Newton lift that composes F and ∂F/∂s on every step and divides by
  the slope through its Newton inverse, as against
  ``cycover.series.arc_lift``, which composes F once and divides by the
  division recurrence;
* K-th roots of series solved degree by degree, re-powering the partial
  root each time, as against the Newton lift of ``series_kth_root``;
* the root pieces Φ_i of (1 + Σ w_j)^(1/K) solved the same way, degree by
  degree on truncated polynomial powers, as against the integer Euler
  recurrence of ``cycover.series.phi_polynomials``;
* Macaulay matrices built row by row as Python lists, one dict lookup per
  entry, as against the array scatter of ``cycover.regseq``;
* polynomial text tokenized one character at a time, counting lines and
  columns as it goes, as against the one regex scan of
  ``cycover.parsing._tokenize``;
* the order of vanishing at a point, read off the Taylor shift, as against
  the orders along arcs and the K-th root pieces that ``cycover`` measures.

``ideal`` builds the presentations these tests feed to the Groebner engine.
"""

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from cycover.parsing import ParseError
from cycover.poly import (
    Polynomial,
    PolyRing,
    PrimeField,
    RingMismatchError,
    compose,
    monomials_of_degree,
    poly_mul,
    translate_origin,
)
from cycover.regseq import (
    DEFAULT_PAIR_BUDGET,
    GroebnerBasis,
    IdealPresentation,
    _s_polynomial,
    groebner_basis,
    normal_form,
)
from cycover.series import (
    SingularDirectionError,
    TruncatedSeries,
    series_constant,
    series_zero,
)

_ELIMINATION_WEIGHT = 1 << 30


# -- Groebner bases, intersections, quotients, saturation ----------------------


def ideal(ring: PolyRing, generators: Sequence[Polynomial]) -> IdealPresentation:
    """The ideal that ``generators`` span in ``ring``."""
    return IdealPresentation(ring, tuple(generators))


class _TaggedRing(PolyRing):
    """A ring whose first variable, the tag t, adds _ELIMINATION_WEIGHT to
    a monomial's degree per power: grevlex then ranks any monomial with t
    above every monomial without it, an elimination order for t."""

    def monomial_degree(self, exps) -> int:
        return sum(exps) + _ELIMINATION_WEIGHT * exps[0]


def is_groebner_basis(gb: GroebnerBasis) -> bool:
    """Every S-polynomial of basis pairs reduces to zero."""
    basis = list(gb.basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not normal_form(_s_polynomial(basis[i], basis[j]), basis).is_zero():
                return False
    return True


def _exact_divide(h: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient h / f when f divides h exactly."""
    ring = h.ring
    domain = ring.domain
    quotient: dict = {}
    work = h
    fe, fc = f.leading()
    while not work.is_zero():
        he, hc = work.leading()
        shift = tuple(b - a for a, b in zip(fe, he))
        if any(s < 0 for s in shift):
            raise ArithmeticError("exact division failed: not a multiple")
        q = domain.div(hc, fc)
        quotient[shift] = q
        work = work - poly_mul(Polynomial(ring, {shift: q}), f)
    return Polynomial(ring, quotient)


def ideal_intersection(
    I: IdealPresentation, J: IdealPresentation, budget: int = DEFAULT_PAIR_BUDGET
) -> IdealPresentation:
    """I ∩ J by the tag-variable trick with an elimination order.

    In k[t, z..] with t heaviest (so any monomial containing t beats any
    monomial without), I ∩ J = (t·I + (1−t)·J) ∩ k[z..], read off from the
    members of the reduced basis free of t.
    """
    ring = I.ring
    if J.ring != ring:
        raise ValueError("intersection across rings")
    tagged = _TaggedRing(("@t",) + ring.variables, ring.domain)

    def lift(p: Polynomial) -> Polynomial:
        return Polynomial(tagged, {(0,) + e: c for e, c in p.terms.items()})

    t = tagged.gen(0)
    one = tagged.one()
    gens = [poly_mul(t, lift(g)) for g in I.generators]
    gens += [poly_mul(one - t, lift(g)) for g in J.generators]
    gb = groebner_basis(IdealPresentation(tagged, tuple(gens)), budget, "intersection")
    kept = []
    for p in gb.basis:
        if p.leading()[0][0] == 0:  # elimination order: no t anywhere in p
            kept.append(Polynomial(ring, {e[1:]: c for e, c in p.terms.items()}))
    return IdealPresentation(ring, tuple(kept))


def ideal_quotient_by(
    J: IdealPresentation, f: Polynomial, budget: int = DEFAULT_PAIR_BUDGET
) -> IdealPresentation:
    """(J : f) = (J ∩ (f)) / f for a single nonzero f."""
    if f.is_zero():
        raise ValueError("quotient by zero")
    meet = ideal_intersection(J, IdealPresentation(J.ring, (f,)), budget)
    return IdealPresentation(J.ring, tuple(_exact_divide(h, f) for h in meet.generators))


def _quotient_by_origin_ideal(J: IdealPresentation, budget: int) -> IdealPresentation:
    """(J : m) for the maximal ideal m of the origin: meet of (J : z_i)."""
    ring = J.ring
    result: Optional[IdealPresentation] = None
    for i in range(ring.nvars):
        partial = ideal_quotient_by(J, ring.gen(i), budget)
        result = partial if result is None else ideal_intersection(result, partial, budget)
    assert result is not None
    return result


def saturate_at_origin(
    J: IdealPresentation, budget: int = DEFAULT_PAIR_BUDGET
) -> IdealPresentation:
    """(J : m^∞): strips the primary components supported at the origin.

    Iterates the single quotient until it stabilizes; stabilization is
    detected on canonical reduced bases.  Requires every generator to
    vanish at the origin (the ideal cuts a set through it).
    """
    ring = J.ring
    for g in J.generators:
        if not ring.domain.is_zero(g.constant_coefficient()):
            raise ValueError("saturation expects generators vanishing at the origin")
    current = IdealPresentation(ring, groebner_basis(J, budget, "saturation").basis)
    while True:
        step = _quotient_by_origin_ideal(current, budget)
        canonical = IdealPresentation(
            ring, groebner_basis(step, budget, "saturation").basis
        )
        if canonical.generators == current.generators:
            return current
        current = canonical


def origin_isolated_by_saturation(
    gens: Sequence[Polynomial], ring: PolyRing, budget: int = DEFAULT_PAIR_BUDGET
) -> bool:
    """Whether the origin is an isolated point of V(gens): saturating away
    the origin leaves the unit ideal exactly when nothing else passes
    through it."""
    saturated = saturate_at_origin(IdealPresentation(ring, tuple(gens)), budget)
    domain = ring.domain
    return any(
        not domain.is_zero(g.constant_coefficient()) for g in saturated.generators
    )


# -- composition with series and Newton lifting, term by term ------------------


def derivative(F: Polynomial, var_index: int) -> Polynomial:
    """∂F/∂z for the variable at ``var_index``."""
    domain = F.ring.domain
    result: dict = {}
    for exps, coeff in F.terms.items():
        e = exps[var_index]
        if e == 0:
            continue
        new = list(exps)
        new[var_index] = e - 1
        key = tuple(new)
        value = domain.mul(coeff, domain.of(e))
        result[key] = domain.add(result[key], value) if key in result else value
    return Polynomial(F.ring, result)


def truncate_series(s: TruncatedSeries, n: int) -> TruncatedSeries:
    """s with every coefficient above t^n dropped."""
    return TruncatedSeries(s.domain, s.coeffs[: n + 1])


def poly_on_series_by_terms(
    F: Polynomial, assignment: Mapping[str, TruncatedSeries]
) -> TruncatedSeries:
    """F composed with one series per variable name: each term starts from
    its constant series and is multiplied by ``pow_int`` powers."""
    domain = F.ring.domain
    series = [assignment[name] for name in F.ring.variables]
    n = min(s.order_bound for s in series)
    total = series_zero(domain, n)
    for exps, coeff in F.terms.items():
        term = series_constant(domain, coeff, n)
        for s, e in zip(series, exps):
            if e:
                term = term * truncate_series(s, n).pow_int(e)
        total = total + term
    return total


def compose_by_power_caching(
    F: Polynomial, series: Sequence[TruncatedSeries], N: int
) -> TruncatedSeries:
    """F at one series per variable, truncated at t^N, by the generic
    ``cycover.poly.compose`` on ``TruncatedSeries``: every power and every
    term at full precision, whatever the series' t-orders."""
    domain = F.ring.domain
    one = series_constant(domain, domain.one, N)
    return compose(F, [truncate_series(s, N) for s in series], one)


def series_inverse(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a series with c_0 invertible, by Newton:
    v <- v(2 - a v) doubles the number of correct coefficients."""
    domain = a.domain
    if domain.is_zero(a[0]):
        raise ZeroDivisionError("series with c_0 = 0 has no inverse")
    n = a.order_bound
    v = series_constant(domain, domain.inv(a[0]), n)
    two = series_constant(domain, domain.add(domain.one, domain.one), n)
    correct = 1
    while correct <= n:
        v = v * (two - a * v)
        correct *= 2
    return v


def arc_lift_by_recomposition(
    F: Polynomial,
    solved_var: int,
    free_values: Mapping[int, TruncatedSeries],
    N: int,
) -> TruncatedSeries:
    """The Newton lift of ``cycover.series.arc_lift``, composing F and
    ∂F/∂s with every variable on every step."""
    ring = F.ring
    domain = ring.domain
    origin = [domain.zero] * ring.nvars
    if F(origin) != domain.zero:
        raise ValueError("the origin does not lie on the hypersurface")
    partial = derivative(F, solved_var)
    if domain.is_zero(partial(origin)):
        raise SingularDirectionError("the solved direction is not transverse")
    assignment = {
        name: truncate_series(free_values[i], N)
        for i, name in enumerate(ring.variables)
        if i != solved_var
    }
    solved_name = ring.variables[solved_var]
    current = series_zero(domain, N)
    for _ in range(N.bit_length() + 4):
        assignment[solved_name] = current
        residual = poly_on_series_by_terms(F, assignment)
        if residual.order() is None:
            return current
        slope = poly_on_series_by_terms(partial, assignment)
        current = current - residual * series_inverse(slope)
    raise ArithmeticError("Newton iteration failed to converge")


def kth_root_degree_by_degree(c: TruncatedSeries, K: int) -> TruncatedSeries:
    """r with r^K = c and r_0 = 1, for c_0 = 1 and K invertible: writing
    r = R + r_d t^d with R known below degree d, the t^d coefficient of r^K
    is [R^K]_d + K r_d."""
    domain = c.domain
    inv_K = domain.inv(domain.of(K))
    n = c.order_bound
    coeffs = [domain.one] + [domain.zero] * n
    for d in range(1, n + 1):
        power = TruncatedSeries(domain, tuple(coeffs[: d + 1])).pow_int(K)
        coeffs[d] = domain.mul(domain.sub(c[d], power[d]), inv_K)
    return TruncatedSeries(domain, tuple(coeffs))


# -- multivariate K-th roots, degree by degree ---------------------------------


def vanishing_order(F: Polynomial, point: Sequence):
    """Order of vanishing at ``point``: the least degree of a term after
    translating the point to the origin.  0 when F does not vanish there;
    ``math.inf`` for the zero polynomial."""
    shifted = translate_origin(F, point)
    return min((sum(exps) for exps in shifted.terms), default=math.inf)


def truncate_degree(F: Polynomial, max_degree: int) -> Polynomial:
    """F with every term of degree above ``max_degree`` dropped."""
    return Polynomial(F.ring, {e: c for e, c in F.terms.items() if sum(e) <= max_degree})


def homogeneous_component(F: Polynomial, degree: int) -> Polynomial:
    """The terms of F of degree exactly ``degree``."""
    return Polynomial(F.ring, {e: c for e, c in F.terms.items() if sum(e) == degree})


def poly_mul_truncated(F: Polynomial, G: Polynomial, max_degree: int) -> Polynomial:
    """Product with all terms of degree > max_degree dropped."""
    if F.ring != G.ring:
        raise RingMismatchError("polynomials belong to different rings")
    ring = F.ring
    domain = ring.domain
    f_terms = [(e, c, sum(e)) for e, c in F.terms.items()]
    g_terms = [(e, c, sum(e)) for e, c in G.terms.items()]
    result: dict = {}
    for e1, c1, d1 in f_terms:
        if d1 > max_degree:
            continue
        allowance = max_degree - d1
        for e2, c2, d2 in g_terms:
            if d2 > allowance:
                continue
            key = tuple(a + b for a, b in zip(e1, e2))
            value = domain.mul(c1, c2)
            if key in result:
                result[key] = domain.add(result[key], value)
            else:
                result[key] = value
    return Polynomial(ring, result)


def pow_truncated(F: Polynomial, e: int, bound: int) -> Polynomial:
    """F^e through degree ``bound``, by repeated squaring with
    every product clipped; degree truncation is a ring quotient map."""
    result = F.ring.one()
    base = truncate_degree(F, bound)
    while e:
        if e & 1:
            result = poly_mul_truncated(result, base, bound)
        e >>= 1
        if e:
            base = poly_mul_truncated(base, base, bound)
    return result


def phi_by_powering(g: Polynomial, K: int, N: int) -> list:
    """Φ_1..Φ_N for g = 1 + Σ w_j, degree by degree: with
    R_i = 1 + Φ_1 + ... + Φ_i, the degree-i piece of R_i^K must match that
    of g, which forces Φ_i = [g − R_{i−1}^K]_i / K.  Needs only K
    invertible."""
    ring = g.ring
    domain = ring.domain
    inv_K = domain.inv(domain.of(K))
    partial = ring.one()
    phis = []
    for i in range(1, N + 1):
        mismatch = g - pow_truncated(partial, K, i)
        phi = homogeneous_component(mismatch, i).scale(inv_K)
        phis.append(phi)
        partial = partial + phi
    return phis


# -- Macaulay matrices, one entry at a time ------------------------------------


def macaulay_assignment(alpha: tuple, degrees: Sequence[int]) -> tuple:
    """Macaulay's row for the column x^alpha: the first form i with
    alpha_i >= d_i, shifted by x^(alpha - d_i e_i)."""
    i = next(i for i, d in enumerate(degrees) if alpha[i] >= d)
    return i, alpha[:i] + (alpha[i] - degrees[i],) + alpha[i + 1 :]


def macaulay_rows_by_lists(
    forms: Sequence[Polynomial], p: int, square: bool
) -> list:
    """The rows mod p of the Macaulay matrices ``cycover.regseq`` builds, as
    int lists: Macaulay's square rows in column order (``_macaulay_envelope``
    stores them), or every multiple of every form of degree cap = sum(d_i -
    1) + 1, form by form (``_macaulay_matrix``)."""
    ring = forms[0].ring
    field = PrimeField(p)
    degrees = [g.degree() for g in forms]
    cap = sum(d - 1 for d in degrees) + 1
    columns = monomials_of_degree(ring, cap)
    column_index = {exps: k for k, exps in enumerate(columns)}
    reduced = [
        {exps: field.of(coeff) for exps, coeff in g.terms.items()} for g in forms
    ]

    def row(k: int, shift: tuple) -> list:
        entries = [0] * len(columns)
        for exps, coeff in reduced[k].items():
            entries[column_index[tuple(a + b for a, b in zip(exps, shift))]] = coeff
        return entries

    if square:
        return [row(*macaulay_assignment(alpha, degrees)) for alpha in columns]
    return [
        row(k, shift)
        for k, degree in enumerate(degrees)
        for shift in monomials_of_degree(ring, cap - degree)
    ]


# -- tokens, one character at a time -------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # "number", "name", "end", or the symbol character itself
    text: str
    line: int
    column: int


def tokenize_by_characters(text: str) -> List[Token]:
    """The tokens of a polynomial expression, ending with an "end" token:
    a loop over characters that counts lines and columns as it goes.  A
    number is a run of ``str.isdigit`` characters and a name starts with
    ``str.isalpha`` or '_' and goes on with ``str.isalnum`` or '_'; any
    other character raises the parser's ``ParseError``."""
    tokens: List[Token] = []
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
            tokens.append(Token("number", text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(Token(ch, ch, line, start_col))
            column += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("end", "", line, column))
    return tokens
