"""Formal K-th roots and truncated series: frozen examples and identities.

Worked values were derived by hand with the stated oracle (raise the
candidate to the K-th power and match) before implementation.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycover.poly import (
    Polynomial,
    PrimeField,
    QQ,
    monomials_of_degree,
    random_homogeneous,
    ring_over,
)
from cycover.seeds import Rng
import cycover.series as series_module
from cycover.series import (
    Arc,
    GammaTable,
    MonomialTable,
    OrderResult,
    SingularDirectionError,
    TruncatedSeries,
    arc_lift,
    compose_series,
    gamma_coefficients,
    ord_along_arc,
    phi_polynomials,
    poly_on_series,
    series_constant,
    series_kth_root,
    series_zero,
    truncate_f,
)
from cycover.series import (
    _balanced,
    _combine_bytes,
    _horner_chains,
    _newton_bytes,
    _pack_signed,
    _PackedMonomials,
    _slot_bytes,
    _unpack_signed,
)
from helpers import series_parameter, truncated_kth_root
from oracles import (
    arc_lift_by_recomposition,
    compose_by_power_caching,
    kth_root_degree_by_degree,
    phi_by_powering,
    poly_on_series_by_terms,
    pow_truncated,
    series_inverse,
    truncate_degree,
    vanishing_order,
)

R2 = ring_over(("z1", "z2"))
F = Fraction
GF101 = PrimeField(101)


def QS(*coeffs):
    return TruncatedSeries(QQ, tuple(F(c) for c in coeffs))


# -- gamma coefficients --------------------------------------------------------


class TestGamma:
    def test_first_coefficient_is_one_over_k(self):
        for K in range(2, 8):
            assert gamma_coefficients(K, 1).coefficients == (F(1, K),)

    def test_square_root_values(self):
        assert gamma_coefficients(2, 3).coefficients == (F(1, 2), F(-1, 8), F(1, 16))

    def test_cube_root_values(self):
        assert gamma_coefficients(3, 2).coefficients == (F(1, 3), F(-1, 9))

    def test_closed_product_formula(self):
        import math

        for K in range(2, 8):
            table = gamma_coefficients(K, 50)
            for i in range(1, 51):
                numerator = F(1)
                for j in range(i):
                    numerator *= F(1, K) - j
                assert table[i] == numerator / math.factorial(i)

    def test_exponentiation_oracle(self):
        # (1 + sum gamma_i s^i)^K == 1 + s through the truncation order.
        for K in (2, 3, 5):
            table = gamma_coefficients(K, 10)
            s = series_parameter(QQ, 10)
            root = series_constant(QQ, 1, 10)
            power = s
            for i in range(1, 11):
                root = root + power.scale(table[i])
                power = power * s
            back = root.pow_int(K)
            expected = series_constant(QQ, 1, 10) + series_parameter(QQ, 10)
            assert (back - expected).is_zero()

    def test_recurrence_enforced_by_table(self):
        with pytest.raises(ValueError):
            GammaTable(2, (F(1, 2), F(1, 8)))  # wrong sign at index 2


# -- multivariate root pieces ---------------------------------------------------


class TestPhi:
    def test_all_zero_input(self):
        zero = R2.zero()
        assert all(p.is_zero() for p in phi_polynomials([zero, zero], 2, 4))

    def test_square_root_single_piece(self):
        z1, _ = R2.gens()
        phis = phi_polynomials([z1], 2, 2)
        assert phis[0] == z1.scale(F(1, 2))
        assert phis[1] == (z1**2).scale(F(-1, 8))

    def test_square_root_two_pieces(self):
        z1, z2 = R2.gens()
        phis = phi_polynomials([z1, z2**2], 2, 2)
        assert phis[0] == z1.scale(F(1, 2))
        assert phis[1] == (z2**2).scale(F(1, 2)) + (z1**2).scale(F(-1, 8))

    def test_each_piece_homogeneous(self):
        z1, z2 = R2.gens()
        phis = phi_polynomials([z1 + z2, z1 * z2, z2**3], 3, 6)
        for i, phi in enumerate(phis, start=1):
            assert phi.is_zero() or (phi.is_homogeneous() and phi.degree() == i)

    def test_rejects_inhomogeneous_piece(self):
        z1, _ = R2.gens()
        with pytest.raises(ValueError):
            phi_polynomials([z1 + z1**2], 2, 3)
        with pytest.raises(ValueError):
            phi_polynomials([z1**2], 2, 3)  # degree 2 in slot 1

    def test_truncated_root_examples(self):
        z1, _ = R2.gens()
        assert truncated_kth_root([R2.zero()], 2, 3) == R2.one()
        root1 = truncated_kth_root([z1], 2, 1)
        assert root1 == R2.one() + z1.scale(F(1, 2))
        defect = root1 * root1 - (R2.one() + z1)
        assert vanishing_order(defect, (0, 0)) == 2
        root2 = truncated_kth_root([z1], 3, 2)
        assert root2 == R2.one() + z1.scale(F(1, 3)) + (z1**2).scale(F(-1, 9))

    def test_defining_identity_sample(self):
        z1, z2 = R2.gens()
        w = [z1 + z2, z1 * z2, R2.zero(), z2**4]
        g = R2.one() + w[0] + w[1] + w[3]
        for K in (2, 3, 4):
            for k in (1, 3, 5, 7):
                root = truncated_kth_root(w, K, k)
                assert vanishing_order(root**K - g, (0, 0)) >= k + 1

    def test_prime_field_pieces(self):
        ring = ring_over(("z1", "z2"), PrimeField(101))
        z1, z2 = ring.gens()
        w = [z1, z2**2]
        g = ring.one() + z1 + z2**2
        root = truncated_kth_root(w, 2, 4)
        assert vanishing_order(root**2 - g, (0, 0)) >= 5


def _integral(j):
    return 1


def _denominator_per_piece(j):
    # Piece j over 3j + 2, and the last piece over the prime 2^61 − 1, so
    # the recurrence's common denominator D is neither 1 nor any one
    # piece's denominator.
    return F(1, 2**61 - 1) if j == 4 else F(1, 3 * j + 2)


@pytest.mark.parametrize(
    "domain, scale",
    [
        (QQ, _integral),
        (QQ, _denominator_per_piece),
        (PrimeField(2), _integral),
        (PrimeField(3), _integral),
        (PrimeField(5), _integral),
        (PrimeField(7), _integral),
        (GF101, _denominator_per_piece),
    ],
    ids=["QQ", "QQ-denominators", "GF2", "GF3", "GF5", "GF7", "GF101"],
)
def test_phi_routes_match_the_defining_identity(domain, scale):
    # The partial root's K-th power must match 1 + Σ w_j through degree N,
    # and the Euler-operator recurrence must agree with the powering
    # oracle.  Over GF(p) it reduces mod p while p > N; from N = p on, p
    # divides d_i for i ≥ p, and it runs on unreduced integers and reduces
    # each piece through Fractions.
    ring = ring_over(("z1", "z2", "z3"), domain)
    p = domain.characteristic
    for K in range(2, 6):
        if p and K % p == 0:
            continue
        for seed in range(2):
            w = [
                random_homogeneous(ring, j, 97 * K + j + 1000 * seed).scale(scale(j))
                for j in range(1, 5)
            ]
            g = ring.one()
            for piece in w:
                g = g + piece
            expected = phi_by_powering(g, K, 8)
            for N in range(1, 9):
                phis = phi_polynomials(w, K, N)
                assert phis == expected[:N], (K, seed, N)
                root = ring.one()
                for i, phi in enumerate(phis, start=1):
                    assert phi.is_zero() or (phi.is_homogeneous() and phi.degree() == i)
                    root = root + phi
                assert pow_truncated(root, K, N) == truncate_degree(g, N)


class TestTruncateF:
    def test_partial_sums(self):
        ring = ring_over(("z1", "z2", "z3"))
        z1, z2, z3 = ring.gens()
        q = [z1, z2**2, z3**3]
        assert truncate_f(q, 1) == z1
        assert truncate_f(q, 2) == z1 + z2**2
        assert truncate_f(q, 3) == z1 + z2**2 + z3**3

    def test_rejects_out_of_range(self):
        ring = ring_over(("z1",))
        with pytest.raises(ValueError):
            truncate_f([ring.gen(0)], 2)
        with pytest.raises(ValueError):
            truncate_f([ring.gen(0)], 0)


# -- univariate series ----------------------------------------------------------


class TestTruncatedSeries:
    def test_arithmetic(self):
        a = QS(1, 2, 3)
        b = QS(0, 1, 0)
        assert (a + b).coeffs == (F(1), F(3), F(3))
        assert (a * b).coeffs == (F(0), F(1), F(2))
        assert (-a).coeffs == (F(-1), F(-2), F(-3))

    def test_mixed_bounds_use_smaller(self):
        a = QS(1, 1, 1, 1, 1)
        b = QS(1, 1)
        assert (a * b).order_bound == 1

    def test_order(self):
        assert QS(0, 0, 5, 1).order() == 2
        assert QS(0, 0, 0).order() is None
        assert QS(7).order() == 0

    def test_inverse(self):
        a = QS(1, 1, 0, 0, 0)  # 1 + t
        inv = series_inverse(a)
        assert inv.coeffs == (F(1), F(-1), F(1), F(-1), F(1))
        assert (a * inv).coeffs == (F(1), F(0), F(0), F(0), F(0))

    def test_inverse_requires_unit(self):
        with pytest.raises(ZeroDivisionError):
            series_inverse(QS(0, 1))

    def test_square_root_of_one_plus_t(self):
        c = series_constant(QQ, 1, 3) + series_parameter(QQ, 3)
        r = series_kth_root(c, 2)
        assert r.coeffs == (F(1), F(1, 2), F(-1, 8), F(1, 16))

    def test_cube_root_sparse(self):
        c = series_constant(QQ, 1, 5) + series_parameter(QQ, 5).pow_int(3)
        r = series_kth_root(c, 3)
        assert r.coeffs == (F(1), F(0), F(0), F(1, 3), F(0), F(0))

    def test_root_of_constant_one(self):
        c = series_constant(QQ, 1, 4)
        assert series_kth_root(c, 5) == c

    def test_root_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            series_kth_root(QS(2, 1), 2)

    def test_root_over_prime_field(self):
        GF = PrimeField(1_000_003)
        c = series_constant(GF, 1, 6) + series_parameter(GF, 6)
        r = series_kth_root(c, 2)
        assert (r * r - c).is_zero()


# -- arcs ------------------------------------------------------------------------


class TestArcLift:
    def test_parabola(self):
        z1, z2 = R2.gens()
        t = series_parameter(QQ, 6)
        s = arc_lift(z1 + z2**2, 0, {1: t}, 6)
        assert s.coeffs == (F(0), F(0), F(-1), F(0), F(0), F(0), F(0))

    def test_linear(self):
        z1, z2 = R2.gens()
        t = series_parameter(QQ, 4)
        s = arc_lift(z1, 0, {1: t}, 4)
        assert s.is_zero()

    def test_quadratic_correction(self):
        # z1 - z1^2 + z2^2 = 0 along z2 = t:
        # the branch through 0 is z1 = -t^2 + t^4 - 2 t^6 + ...
        # (check: substituting back must vanish through the bound).
        z1, z2 = R2.gens()
        Fpoly = z1 - z1**2 + z2**2
        t = series_parameter(QQ, 7)
        s = arc_lift(Fpoly, 0, {1: t}, 7)
        assert s.coeffs[:7] == (F(0), F(0), F(-1), F(0), F(1), F(0), F(-2))
        residual = poly_on_series(Fpoly, {"z1": s, "z2": t})
        assert residual.order() is None  # vanishes through t^7

    def test_residual_vanishes_through_bound(self):
        z1, z2 = R2.gens()
        Fpoly = z1 + z1 * z2 + z2**3
        for N in (3, 5, 9, 16):
            t = series_parameter(QQ, N)
            s = arc_lift(Fpoly, 0, {1: t}, N)
            residual = poly_on_series(Fpoly, {"z1": s, "z2": t})
            assert residual.order() is None

    def test_singular_direction_rejected(self):
        z1, z2 = R2.gens()
        with pytest.raises(SingularDirectionError):
            arc_lift(z1**2 + z2**2, 0, {1: series_parameter(QQ, 4)}, 4)

    def test_origin_must_lie_on_hypersurface(self):
        z1, z2 = R2.gens()
        with pytest.raises(ValueError):
            arc_lift(z1 + R2.one(), 0, {1: series_parameter(QQ, 4)}, 4)

    def test_free_series_must_vanish_at_zero(self):
        z1, z2 = R2.gens()
        with pytest.raises(ValueError):
            arc_lift(z1 + z2, 0, {1: series_constant(QQ, 1, 4)}, 4)

    def test_prime_field_lift(self):
        GF = PrimeField(1_000_003)
        ring = ring_over(("z1", "z2"), GF)
        z1, z2 = ring.gens()
        Fpoly = z1 + z2**2 + z1 * z2
        t = series_parameter(GF, 8)
        s = arc_lift(Fpoly, 0, {1: t}, 8)
        assert poly_on_series(Fpoly, {"z1": s, "z2": t}).order() is None


class TestOrdAlongArc:
    def test_monomial_composition(self):
        z1, z2 = R2.gens()
        arc = Arc({"z1": series_parameter(QQ, 5).pow_int(2), "z2": series_zero(QQ, 5)})
        result = ord_along_arc(z1, arc)
        assert result.exact and result.value == 2

    def test_constant(self):
        arc = Arc({"z1": series_parameter(QQ, 5), "z2": series_zero(QQ, 5)})
        result = ord_along_arc(R2.one(), arc)
        assert result.exact and result.value == 0

    def test_root_defect_order_two(self):
        ring = ring_over(("z1", "y"))
        z1, y = ring.gens()
        t = series_parameter(QQ, 6)
        c = series_constant(QQ, 1, 6) + t
        arc = Arc({"z1": t, "y": series_kth_root(c, 2)})
        D = y - (ring.one() + z1.scale(F(1, 2)))
        result = ord_along_arc(D, arc)
        assert result.exact and result.value == 2

    def test_zero_polynomial_has_infinite_order(self):
        arc = Arc({"z1": series_parameter(QQ, 5), "z2": series_zero(QQ, 5)})
        result = ord_along_arc(R2.zero(), arc)
        assert result.infinite

    def test_bound_hit_is_not_exact(self):
        z1, z2 = R2.gens()
        # z1 composed with t^8 truncated at order 5: vanishes through bound.
        arc = Arc({"z1": series_zero(QQ, 5), "z2": series_zero(QQ, 5)})
        result = ord_along_arc(z1, arc)
        assert not result.exact and not result.infinite
        assert result.lower == 6
        assert result.describe() == ">= 6"

    def test_arc_requires_matching_bounds(self):
        with pytest.raises(ValueError):
            Arc({"z1": series_zero(QQ, 3), "z2": series_zero(QQ, 4)})


# -- property-based checks -------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=4, max_size=8),
    st.sampled_from([2, 3, 4, 5]),
)
def test_series_root_round_trip(tail, K):
    r = TruncatedSeries(QQ, tuple([F(1)] + tail))
    c = r.pow_int(K)
    assert series_kth_root(c, K) == r


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=3, max_size=7)
)
def test_series_inverse_round_trip(tail):
    a = TruncatedSeries(QQ, tuple([F(1)] + tail))
    product = a * series_inverse(a)
    expected = series_constant(QQ, 1, a.order_bound)
    assert product == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 4, 5]), st.integers(1, 10))
def test_root_identity_random_collections(seed, K, k):
    # vanishing_order(root^K - g, 0) >= k+1 holds iff every component of
    # degree <= k cancels, which only involves the truncated power; the
    # truncation keeps dense high-degree products out of the hot path.
    ring = ring_over(("z1", "z2", "z3"))
    w = [random_homogeneous(ring, j, seed + 31 * j) for j in range(1, 4)]
    g = ring.one() + w[0] + w[1] + w[2]
    root = truncated_kth_root(w, K, k)
    defect_low = pow_truncated(root, K, k) - truncate_degree(g, k)
    assert defect_low.is_zero()


# -- the composition kernel and the Newton lift against term-by-term oracles ----

NAMES3 = ("a", "b", "c")
SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=5)
# GF(2) and GF(3) give the narrowest slots of the packed kernel, the
# Mersenne primes the widest; GF(101) is the reference small field.
KERNEL_DOMAINS = [
    QQ,
    PrimeField(2),
    PrimeField(3),
    GF101,
    PrimeField(2**31 - 1),
    PrimeField(2**61 - 1),
]


def _elements(domain):
    """Field elements: small fractions over Q, any residue (and the largest,
    p − 1, often) over GF(p)."""
    if domain == QQ:
        return SMALL
    return st.integers(0, domain.p - 1) | st.just(domain.p - 1)


def _series(domain, values):
    return TruncatedSeries(domain, tuple(domain.of(v) for v in values))


@st.composite
def _polynomial(draw, ring, max_exp=4, max_terms=6):
    exps = st.tuples(*(st.integers(0, max_exp) for _ in range(ring.nvars)))
    terms = draw(st.dictionaries(exps, _elements(ring.domain), max_size=max_terms))
    return Polynomial(ring, {e: ring.domain.of(c) for e, c in terms.items()})


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_composition_matches_term_by_term_oracle(data):
    domain = data.draw(st.sampled_from(KERNEL_DOMAINS))
    ring = ring_over(NAMES3, domain)
    Fpoly = data.draw(_polynomial(ring))
    elements = _elements(domain)
    assignment = {
        name: _series(domain, data.draw(st.lists(elements, min_size=1, max_size=7)))
        for name in NAMES3
    }
    assert poly_on_series(Fpoly, assignment) == poly_on_series_by_terms(Fpoly, assignment)


@pytest.mark.parametrize("domain", [QQ, GF101], ids=["QQ", "GF101"])
def test_composition_edge_cases_match_oracle(domain):
    ring = ring_over(NAMES3, domain)
    a, b, c = ring.gens()
    assignment = {
        "a": _series(domain, [2, 1, -1, 3, 0, 1]),
        "b": _series(domain, [0, 5, 0, -2, 1, 0, 4]),
        "c": _series(domain, [F(1, 3), 0, 1, 1, 2, -1]),
    }
    cases = [
        ring.zero(),
        ring.const(7),
        a**3 * c**4 + ring.const(2),  # b absent
        b**5 + (a * b**3).scale(F(-1, 2)) + c,
    ]
    for Fpoly in cases:
        composed = poly_on_series(Fpoly, assignment)
        assert composed == poly_on_series_by_terms(Fpoly, assignment)
        assert composed.order_bound == 5
    assert poly_on_series(ring.zero(), assignment).is_zero()
    assert poly_on_series(ring.const(7), assignment) == series_constant(domain, 7, 5)


@pytest.mark.parametrize(
    "p", [2, 3, 101, 2**31 - 1, 2**61 - 1], ids=["2", "3", "101", "2^31-1", "2^61-1"]
)
def test_packed_composition_worst_case(p):
    # Every coefficient of F and of the series is p − 1 and F has every
    # monomial of exponent sum at most 3: the slots come within a byte of
    # the width bound, so a slot one byte narrower carries and this fails.
    field = PrimeField(p)
    ring = ring_over(NAMES3, field)
    exps = [e for d in range(4) for e in monomials_of_degree(ring, d)]
    Fpoly = Polynomial(ring, {e: p - 1 for e in exps})
    assignment = {name: _series(field, [p - 1] * 9) for name in NAMES3}
    assert len(Fpoly) == 20
    assert poly_on_series(Fpoly, assignment) == poly_on_series_by_terms(Fpoly, assignment)


def _exact_composition(terms, images, N):
    """Σ c·Π z_i^(α_i) through t^N on plain integer lists."""

    def times(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(N + 1)]

    total = [0] * (N + 1)
    for exps, c in terms:
        term = [c] + [0] * N
        for z, e in zip(images, exps):
            for _ in range(e):
                term = times(term, z)
        total = [x + y for x, y in zip(total, term)]
    return total


def _orders(images, N):
    return [next((k for k, x in enumerate(z) if x), N + 1) for z in images]


def _kernel(terms, images, N):
    """The packed kernel on (α, c) terms over the integers, at the width
    ``_slot_bytes`` states for their count, largest coefficient and degree
    and the images' largest slot."""
    table = _PackedMonomials(images, _orders(images, N), N, max(abs(x) for z in images for x in z))
    C = max(abs(c) for _, c in terms)
    table.reserve(_slot_bytes(len(terms), C, table.top, max(sum(e) for e, _ in terms), N))
    return table.compose(terms, N)


def _tight_order(T, C, A, d):
    """The least N whose width bound B = T·C·A^d·(N + 1)^(d−1) has a bit
    length divisible by 8, so B fills its bytes and the sign bit alone
    takes the next byte."""
    return next(
        N for N in range(1, 600) if (T * C * A**d * (N + 1) ** (d - 1)).bit_length() % 8 == 0
    )


@pytest.mark.parametrize("p", [2, 3, 5, 2**61 - 1], ids=["2", "3", "5", "2^61-1"])
def test_composition_width_worst_case(p):
    # Every slot of every image is p − 1 and F is every quadratic monomial
    # with coefficient p − 1, so slot N of the unreduced result is exactly
    # the width bound B; N is chosen so that B fills its bytes.  The packed
    # kernel's unreduced slots equal the exact integer sums, so a width
    # without the sign bit, or a byte narrower, fails here.
    field = PrimeField(p)
    ring = ring_over(NAMES3, field)
    quadrics = monomials_of_degree(ring, 2)
    N = _tight_order(len(quadrics), p - 1, p - 1, 2)
    bound = len(quadrics) * (p - 1) ** 3 * (N + 1)
    terms = [(e, p - 1) for e in quadrics]
    images = [[p - 1] * (N + 1)] * 3
    slots = _kernel(terms, images, N)
    assert slots == _exact_composition(terms, images, N)
    assert slots[N] == bound
    assert _slot_bytes(len(quadrics), p - 1, p - 1, 2, N) == (bound.bit_length() + 8) // 8
    Fpoly = Polynomial(ring, dict(terms))
    series = [_series(field, z) for z in images]
    assert compose_series(Fpoly, series, N).coeffs == tuple(x % p for x in slots)


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_composition_width_signed_extremes(sign):
    # Images at ±A with alternating signs and coefficients ±C: slot N is
    # ±B with every product of one sign, and the other slots mix signs.
    A, C = 10**9 + 7, 3**20
    ring = ring_over(NAMES3, QQ)
    quadrics = monomials_of_degree(ring, 2)
    N = _tight_order(len(quadrics), C, A, 2)
    images = [[A * (-1) ** k for k in range(N + 1)] for _ in range(3)]
    terms = [(e, sign * C) for e in quadrics]
    slots = _kernel(terms, images, N)
    assert slots == _exact_composition(terms, images, N)
    assert slots[N] == sign * (-1) ** N * len(quadrics) * C * A**2 * (N + 1)
    mixed = [(e, C * (-1) ** k) for k, e in enumerate(quadrics)]
    mixed += [(e, -C) for e in monomials_of_degree(ring, 1)] + [((0, 0, 0), C)]
    assert _kernel(mixed, images, N) == _exact_composition(mixed, images, N)


def test_rational_composition_extremes_and_mixed_denominators():
    # Denominators from 1 to 2^61 − 1 in one image set, numerators at
    # ±(10^12 − 1), and images of orders 0, 1 and 3.
    ring = ring_over(NAMES3, QQ)
    N = 7
    big = 10**12 - 1
    dens = [1, 2, 3, 7, 2**61 - 1, 10**9 + 9, 4, 27]
    images = [
        QS(*[F(big * (-1) ** k, dens[k]) for k in range(N + 1)]),
        QS(0, *[F(-big if k % 3 else big, dens[-1 - k]) for k in range(N)]),
        QS(0, 0, 0, *[F(big, dens[(2 * k) % 8]) for k in range(N - 2)]),
    ]
    terms = {
        e: F(big * (-1) ** sum(e), dens[sum(e) % 8])
        for d in range(5)
        for e in monomials_of_degree(ring, d)
    }
    Fpoly = Polynomial(ring, terms)
    assert compose_series(Fpoly, images, N) == compose_by_power_caching(Fpoly, images, N)


ORDER_DOMAINS = [QQ, PrimeField(2), PrimeField(5), GF101, PrimeField(2**61 - 1)]


@pytest.mark.parametrize("domain", ORDER_DOMAINS, ids=str)
def test_composition_images_of_every_order(domain):
    # One image of each t-order 0..N + 1 (the last one zero, as the solved
    # variable is in ``arc_lift``), and F with every monomial of degree at
    # most 3: terms of order above N vanish, the others are shifted up by
    # their order.
    N = 5
    names = tuple(f"z{v}" for v in range(N + 2))
    ring = ring_over(names, domain)
    rng = Rng(7)
    images = [
        _series(domain, [0] * v + [1 + rng.below(9) for _ in range(N + 1 - v)])
        for v in range(N + 2)
    ]
    terms = {
        e: domain.of(1 + rng.below(9)) for d in range(4) for e in monomials_of_degree(ring, d)
    }
    Fpoly = Polynomial(ring, terms)
    composed = compose_series(Fpoly, images, N)
    assert composed == compose_by_power_caching(Fpoly, images, N)
    assert composed == poly_on_series_by_terms(Fpoly, dict(zip(names, images)))
    solved = Polynomial(ring, {e: c for e, c in terms.items() if e[-1]})
    assert compose_series(solved, images, N).is_zero()


ORACLE_DOMAINS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7), GF101, PrimeField(2**61 - 1)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_composition_matches_power_caching_oracle(data):
    # Random F of degree 0–6 at images of random t-orders, some of them
    # zero through t^N.
    domain = data.draw(st.sampled_from(ORACLE_DOMAINS))
    ring = ring_over(NAMES3, domain)
    N = data.draw(st.integers(0, 9))
    degree = data.draw(st.integers(0, 6))
    exps = st.sampled_from([e for d in range(degree + 1) for e in monomials_of_degree(ring, d)])
    terms = data.draw(st.dictionaries(exps, _elements(domain), max_size=12))
    Fpoly = Polynomial(ring, {e: domain.of(c) for e, c in terms.items()})
    images = []
    for _ in NAMES3:
        v = data.draw(st.integers(0, N + 1))
        tail = data.draw(st.lists(_elements(domain), min_size=N + 1 - v, max_size=N + 1 - v))
        images.append(_series(domain, [0] * v + tail))
    assert compose_series(Fpoly, images, N) == compose_by_power_caching(Fpoly, images, N)


# Integral images as the arc samplers draw them, and the denominators of
# fractional ones, from 2 up to a lifted arc's 40 bits and more.
INTEGRAL = st.integers(-99, 99).map(F)
DENOMINATORS = st.sampled_from([2, 3, 4, 9, 2**40 + 15, 3**30, 2**61 - 1])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mixed_images_match_power_caching_oracle(data):
    # Four images, 0 to 4 of them fractional on purpose, the others
    # integral; each image has a random t-order up to N + 1 (zero through
    # t^N).  Over GF(p) every image is integral, so this is the Q-only case.
    names = ("a", "b", "c", "d")
    ring = ring_over(names, QQ)
    N = data.draw(st.integers(0, 8))
    degree = data.draw(st.integers(0, 6))
    exps = st.sampled_from([e for d in range(degree + 1) for e in monomials_of_degree(ring, d)])
    terms = data.draw(st.dictionaries(exps, SMALL, max_size=12))
    Fpoly = Polynomial(ring, {e: F(c) for e, c in terms.items()})
    fractional = data.draw(st.sets(st.sampled_from(range(4)), max_size=4))
    images = []
    for i in range(4):
        v = data.draw(st.integers(0, N + 1))
        if i in fractional:
            den = data.draw(DENOMINATORS)
            tail = [F(a, den) for a in data.draw(
                st.lists(st.integers(-10**6, 10**6), min_size=N + 1 - v, max_size=N + 1 - v)
            )]
        else:
            tail = data.draw(st.lists(INTEGRAL, min_size=N + 1 - v, max_size=N + 1 - v))
        images.append(_series(QQ, [0] * v + tail))
    assert compose_series(Fpoly, images, N) == compose_by_power_caching(Fpoly, images, N)


def test_combination_width_worst_case():
    # F = C·x·s with x = a + a·t + ⋯ integral and s = (A + A·t + ⋯)/D, A > D:
    # one group, G = C·a·(1 + t + ⋯), whose product with D·s has slot N
    # equal to the ``_combine_bytes`` bound B = (N + 1)·C·a·A; N is chosen
    # so that B fills its bytes, so a width without the sign bit fails.
    a, C, A, D = 97, 3**20, 2**40 + 15, 2**40
    N = next(N for N in range(1, 600) if ((N + 1) * C * a * A).bit_length() % 8 == 0)
    bound = (N + 1) * C * a * A
    assert _combine_bytes(1, C * a, A, 1, N) == (bound.bit_length() + 8) // 8
    ring = ring_over(("x", "s"), QQ)
    x, s = ring.gens()
    images = [_series(QQ, [a] * (N + 1)), _series(QQ, [F(A, D)] * (N + 1))]
    composed = compose_series((x * s).scale(C), images, N)
    assert composed.coeffs == tuple(F((k + 1) * C * a * A, D) for k in range(N + 1))


def test_fractional_groups_that_vanish():
    # a·c − b·c at a = b: the group of c^1 vanishes, and with it the whole
    # composition; a·c − b·c + c^2 keeps only the group of c^2.
    ring = ring_over(NAMES3, QQ)
    a, b, c = ring.gens()
    z = _series(QQ, [0, 3, -5, 7])
    s = _series(QQ, [0, F(1, 2**41), F(-3, 7), 0])
    assert compose_series(a * c - b * c, [z, z, s], 3).is_zero()
    F2 = a * c - b * c + c**2
    assert compose_series(F2, [z, z, s], 3) == compose_by_power_caching(F2, [z, z, s], 3)


def test_off_branch_composition_stays_as_narrow_as_its_integral_images(monkeypatch):
    # The shape of an off-branch arc over Q: five integral chart images
    # drawn from -99..99 and one lifted image whose denominators exceed
    # 2^40, under a form of degree 6 with every monomial and
    # denominators in its coefficients (as a localized branch form has).
    # Clearing one common denominator would scale every slot by it; each
    # image's own denominator keeps the many products over the integral
    # images at the width those images alone need.
    N = 6
    names = tuple(f"z{i}" for i in range(6))
    ring = ring_over(names, QQ)
    rng = Rng(17)
    images = [_series(QQ, [0] + [rng.int_range(-99, 99) for _ in range(N)]) for _ in range(5)]
    dens = [2**40 + 15, 3 * 2**41 + 1, 2**44 - 87]
    images.append(
        _series(QQ, [0] + [F(rng.int_range(-10**9, 10**9), dens[k % 3]) for k in range(N)])
    )
    monomials = [e for d in range(7) for e in monomials_of_degree(ring, d)]
    Fpoly = Polynomial(
        ring, {e: F((-1) ** rng.below(2) * (1 + rng.below(99)), 1 + rng.below(6)) for e in monomials}
    )
    assert len(Fpoly) == 924 and min(z.order() for z in images) == 1
    widths = []

    def spy(*args):
        widths.append(_slot_bytes(*args))
        return widths[-1]

    monkeypatch.setattr(series_module, "_slot_bytes", spy)
    composed = compose_series(Fpoly, images, N)
    L = 60  # lcm of the coefficients' denominators 1..6
    integral_only = _slot_bytes(
        len(Fpoly),
        max(abs(c.numerator) * (L // c.denominator) for c in Fpoly.terms.values()),
        max(abs(x.numerator) for z in images[:5] for x in z.coeffs),
        6,
        N,
    )
    assert widths and max(widths) <= integral_only
    assert composed == compose_by_power_caching(Fpoly, images, N)


SHARED_DOMAINS = [PrimeField(2), PrimeField(1_000_003), PrimeField(2**61 - 1), QQ]
NAMES4 = ("a", "b", "c", "d")


def _shared_images(data, domain, N):
    """a of t-order 0, as in the samplers' line and plane restrictions; b
    zero, as ``arc_lift``'s solved slot; c of order 1 and d of a random
    order up to N.  Over Q, a is integral and c and d are fractional."""
    fractional = domain == QQ
    plain = INTEGRAL if fractional else _elements(domain)

    def tail(count, fractional):
        if fractional:
            den = data.draw(DENOMINATORS)
            numerators = st.lists(st.integers(-10**6, 10**6), min_size=count, max_size=count)
            return [F(x, den) for x in data.draw(numerators)]
        return data.draw(st.lists(plain, min_size=count, max_size=count))

    v = data.draw(st.integers(1, N))
    nonzero = plain.filter(lambda x: not domain.is_zero(domain.of(x)))
    return [
        _series(domain, [data.draw(nonzero)] + tail(N, False)),
        series_zero(domain, N),
        _series(domain, [0] + tail(N, fractional)),
        _series(domain, [0] * v + tail(N + 1 - v, fractional)),
    ]


def _dense_and_sparse(data, ring):
    """Every monomial of degree at most 3, among them terms past N and on
    the zero image; and a few terms of degree at most 2."""
    domain = ring.domain
    coefficient = _elements(domain).map(domain.of)
    dense = Polynomial(
        ring,
        {e: data.draw(coefficient) for d in range(4) for e in monomials_of_degree(ring, d)},
    )
    exps = st.sampled_from([e for d in range(3) for e in monomials_of_degree(ring, d)])
    sparse = Polynomial(
        ring, {e: domain.of(c) for e, c in data.draw(
            st.dictionaries(exps, _elements(domain), min_size=1, max_size=3)
        ).items()}
    )
    return dense, sparse


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shared_table_matches_power_caching_oracle(data):
    # Several polynomials on one table, in both orders: dense then sparse,
    # and sparse then dense, which widens and repacks the table.  The zero
    # polynomial is composed between them.
    domain = data.draw(st.sampled_from(SHARED_DOMAINS))
    ring = ring_over(NAMES4, domain)
    N = data.draw(st.integers(1, 6))
    images = _shared_images(data, domain, N)
    dense, sparse = _dense_and_sparse(data, ring)
    for order in ([dense, ring.zero(), sparse], [sparse, ring.zero(), dense, sparse]):
        table = MonomialTable(domain, images, N)
        for Fpoly in order:
            assert table.compose(Fpoly) == compose_by_power_caching(Fpoly, images, N)


@pytest.mark.parametrize("domain", SHARED_DOMAINS, ids=str)
def test_shared_table_repacks_for_a_wider_polynomial(domain):
    # A sparse polynomial sets a narrow width; the dense one after it needs
    # a wider one, so the table is repacked, and the sparse one composes
    # again on the wider table.
    N = 5
    ring = ring_over(NAMES4, domain)
    a, b, c, d = ring.gens()
    half = F(1, 2) if domain == QQ else 1
    images = [
        _series(domain, [3, 1, 4, 1, 5, 9]),
        series_zero(domain, N),
        _series(domain, [0, half, -2, 7, 1, 8]),
        _series(domain, [0, 0, 2, -1, half, 3]),
    ]
    sparse = a * c + ring.const(5)
    dense = Polynomial(
        ring,
        {e: domain.of(1 + sum(e)) for k in range(5) for e in monomials_of_degree(ring, k)},
    )
    table = MonomialTable(domain, images, N)
    assert table.compose(sparse) == compose_by_power_caching(sparse, images, N)
    narrow = table.packed.width
    assert table.compose(dense) == compose_by_power_caching(dense, images, N)
    assert table.packed.width > narrow
    assert table.compose(sparse) == compose_by_power_caching(sparse, images, N)
    assert table.compose(b * dense).is_zero()


def test_arc_composes_every_order_on_one_table(monkeypatch):
    # Every polynomial composed along one arc shares one table; a plain
    # mapping composes on a fresh one.
    built = []
    init = MonomialTable.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(MonomialTable, "__init__", counting)
    ring = ring_over(NAMES3, GF101)
    a, b, c = ring.gens()
    components = {
        "a": _series(GF101, [0, 1, 2, 3, 4]),
        "b": _series(GF101, [0, 5, 0, 6, 1]),
        "c": _series(GF101, [1, 7, 1, 0, 2]),
    }
    arc = Arc(components)
    members = [a + b, a * b - c * a, a**2 * b + b**3 * c]
    orders = [ord_along_arc(member, arc) for member in members]
    assert len(built) == 1
    for member, order in zip(members, orders):
        expected = poly_on_series_by_terms(member, components)
        assert order == OrderResult.exactly(expected.order())
    poly_on_series(members[0], components)
    assert len(built) == 2


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_arc_lift_matches_recomposing_newton(data):
    domain = data.draw(st.sampled_from(KERNEL_DOMAINS))
    ring = ring_over(NAMES3, domain)
    elements = _elements(domain)
    solved = data.draw(st.integers(0, 2))
    N = data.draw(st.integers(1, 10))
    Fpoly = data.draw(_polynomial(ring, max_exp=3))
    Fpoly = Fpoly - ring.const(Fpoly.constant_coefficient())
    slope = domain.of(
        data.draw(elements.filter(lambda v: not domain.is_zero(domain.of(v))))
    )
    exps = [0, 0, 0]
    exps[solved] = 1
    Fpoly = Fpoly + ring.monomial(exps, domain.sub(slope, Fpoly.coefficient(exps)))
    free = {
        i: _series(domain, [0] + data.draw(st.lists(elements, min_size=N, max_size=N)))
        for i in range(3)
        if i != solved
    }
    lifted = arc_lift(Fpoly, solved, free, N)
    assert lifted == arc_lift_by_recomposition(Fpoly, solved, free, N)


ROOT_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5), GF101, PrimeField(2**61 - 1)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kth_root_matches_degree_by_degree(data):
    # GF(2) through GF(5) lie below the order bound, where Φ_i need their
    # own fork; the Newton root has none.
    domain = data.draw(st.sampled_from(ROOT_FIELDS))
    K = data.draw(
        st.sampled_from([2, 3, 4, 5]).filter(
            lambda k: not domain.characteristic or k % domain.characteristic
        )
    )
    tail = data.draw(st.lists(_elements(domain), max_size=10))
    c = _series(domain, [1] + tail)
    assert series_kth_root(c, K) == kth_root_degree_by_degree(c, K)


def test_rational_newton_forms_no_series_product(monkeypatch):
    # Over Q, arc_lift and series_kth_root run the packed Horner chains as
    # GF(p) does: no generic TruncatedSeries product is formed.
    ring = ring_over(NAMES3, QQ)
    base = Polynomial(
        ring, {(1, 0, 0): F(2, 3), (0, 2, 0): F(-5, 7), (1, 1, 1): F(1), (2, 0, 1): F(-1, 2)}
    )
    free = {1: QS(0, F(1, 3), -2, 5, F(7, 11)), 2: QS(0, 4, F(-3, 5), 1, 0)}
    branch = QS(1, F(1, 2), -3, F(2, 9), 7)
    expected = (
        arc_lift_by_recomposition(base, 0, free, 4),
        kth_root_degree_by_degree(branch, 3),
    )
    calls = []
    product = TruncatedSeries.__mul__

    def counting(self, other):
        calls.append(self)
        return product(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    lifted = arc_lift(base, 0, free, 4)
    root = series_kth_root(branch, 3)
    assert calls == []
    assert (lifted, root) == expected


def _mod_p(x: Fraction, p: int) -> int:
    return x.numerator * pow(x.denominator, -1, p) % p


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_lift_equals_rational_lift_mod_p(data):
    # Over Q the lift only divides by powers of c_1(0), so reducing it mod
    # a prime that does not divide c_1(0) gives the lift over GF(p).
    p = data.draw(st.sampled_from([2, 3, 5, 101, 2**61 - 1]))
    ints = st.integers(-9, 9)
    ring = ring_over(NAMES3, QQ)
    solved = data.draw(st.integers(0, 2))
    N = data.draw(st.integers(1, 10))
    terms = data.draw(
        st.dictionaries(st.tuples(*(st.integers(0, 3) for _ in NAMES3)), ints, max_size=6)
    )
    terms.pop((0, 0, 0), None)
    exps = [0, 0, 0]
    exps[solved] = 1
    terms[tuple(exps)] = data.draw(ints.filter(lambda v: v % p))
    free = {
        i: [0] + data.draw(st.lists(ints, min_size=N, max_size=N))
        for i in range(3)
        if i != solved
    }
    field = PrimeField(p)
    field_ring = ring_over(NAMES3, field)
    rational = arc_lift(
        Polynomial(ring, {e: F(v) for e, v in terms.items()}),
        solved,
        {i: _series(QQ, v) for i, v in free.items()},
        N,
    )
    packed = arc_lift(
        Polynomial(field_ring, {e: field.of(v) for e, v in terms.items()}),
        solved,
        {i: _series(field, v) for i, v in free.items()},
        N,
    )
    assert packed.coeffs == tuple(_mod_p(x, p) for x in rational.coeffs)


def _chains_at_bound(C, S, delta, B, N):
    """The Horner chains at width ``_newton_bytes(B, m, N)`` through t^N,
    packed and read back as balanced residues, next to the same chains on
    exact integers: residual_(j+1) = residual_j·S + C·δ^(j+1) and
    slope_(j+1) = slope_j·S + δ·residual_j."""
    m = len(C) - 1
    width = _newton_bytes(B, m, N)
    mask = (1 << (8 * width * (N + 1))) - 1
    packed = [_pack_signed(z, width) for z in C]
    residual, slope = _horner_chains(packed, _pack_signed(S, width) & mask, delta, mask)

    def slots(value):
        return _unpack_signed(_balanced(value, mask), width, N + 1)

    def times(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(N + 1)]

    exact_residual, exact_slope, scale = C[-1], [0] * (N + 1), 1
    for z in reversed(C[:-1]):
        scale *= delta
        exact_slope = [x + delta * y for x, y in zip(times(exact_slope, S), exact_residual)]
        exact_residual = [x + scale * y for x, y in zip(times(exact_residual, S), z)]
    return (slots(residual), slots(slope)), (exact_residual, exact_slope)


@pytest.mark.parametrize("p", [5, 2**61 - 1], ids=["5", "2^61-1"])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_newton_width_worst_case(p, m):
    # Over GF(p), δ = 1 and B = p − 1.  Every slot of c_0..c_m and of the
    # approximation is p − 1: the packed Horner chains, unpacked without
    # reduction, equal the same chains run on exact integers, so no slot
    # carried into its neighbour.
    N = 8
    top = [p - 1] * (N + 1)
    packed, exact = _chains_at_bound([top] * (m + 1), top, 1, p - 1, N)
    assert packed == exact


@pytest.mark.parametrize("delta", [2, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_newton_width_worst_case_over_q(m, delta):
    # Over Q the parts C_k and the approximation S over δ carry signed
    # slots.  With C_k = (−1)^k·c and every slot of S equal to −c·δ^m = −B,
    # every term of the residual has one sign and every term of the slope
    # the other, so both chains reach their largest magnitudes; read back
    # as balanced residues they equal the exact integer chains.
    N, c = 8, 5
    B = c * delta**m
    C = [[(-1) ** k * c] * (N + 1) for k in range(m + 1)]
    packed, exact = _chains_at_bound(C, [-B] * (N + 1), delta, B, N)
    assert packed == exact
    assert min(exact[1]) < 0 < min(exact[0])
