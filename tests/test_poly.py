"""Exact polynomial arithmetic: frozen worked examples and algebraic laws.

The worked-example values in this file were fixed by hand (or by an
independent one-line computation) before the implementation existed; they
are the contract, not a regression snapshot.
"""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycover.poly import (
    DomainMismatchError,
    Polynomial,
    PolyRing,
    PrimeField,
    QQ,
    RingMismatchError,
    homogeneous_components,
    monomials_of_degree,
    poly_eval,
    poly_mul,
    random_homogeneous,
    ring_over,
    translate_origin,
)
from oracles import derivative, poly_mul_truncated, truncate_degree, vanishing_order

R2 = ring_over(("z1", "z2"))
R1 = ring_over(("z1",))


def P(ring, terms):
    return Polynomial(ring, terms)


# -- frozen worked examples ---------------------------------------------------


class TestWorkedExamples:
    def test_product_difference_of_squares(self):
        z1, z2 = R2.gens()
        assert (z1 + z2) * (z1 - z2) == z1**2 - z2**2

    def test_one_is_multiplicative_identity(self):
        z1, z2 = R2.gens()
        F = 3 * [z1]  # noqa: F841 - keep flake quiet about the comprehension
        F = z1**2 + z2 - R2.const(7)
        assert F * R2.one() == F
        assert R2.one() * F == F

    def test_square_in_characteristic_two(self):
        ring = ring_over(("z1",), PrimeField(2))
        z1 = ring.gen(0)
        assert (z1 + ring.one()) ** 2 == z1**2 + ring.one()

    def test_eval_simple(self):
        z1, z2 = R2.gens()
        assert poly_eval(z1**2 + z2, (2, 3)) == 7

    def test_eval_fermat_mod_five(self):
        ring = ring_over(("z1",), PrimeField(5))
        z1 = ring.gen(0)
        assert poly_eval(z1**4, (2,)) == 1

    def test_homogeneous_components(self):
        z1, z2 = R2.gens()
        F = z1 + z1 * z2 + R2.const(5)
        parts = homogeneous_components(F)
        assert list(parts) == [0, 1, 2]
        assert parts[0] == R2.const(5)
        assert parts[1] == z1
        assert parts[2] == z1 * z2
        assert 3 not in parts

    def test_degree_queries_pass_over_the_terms_once(self):
        # degree() and is_homogeneous() share one cached pass, one
        # monomial_degree call per term, however often they are asked.
        ring = ring_over(("z", "y"), QQ)
        z, y = ring.gens()
        F = y**3 * z + z**2 + ring.const(2)
        with mock.patch.object(
            PolyRing, "monomial_degree", autospec=True, side_effect=PolyRing.monomial_degree
        ) as monomial_degree:
            for _ in range(3):
                assert F.degree() == 4
                assert not F.is_homogeneous()
        assert monomial_degree.call_count == len(F) == 3
        zero = ring.zero()
        assert zero.degree() == -math.inf
        assert zero.is_homogeneous()
        with pytest.raises(AttributeError):
            F._degrees = None

    def test_translate_univariate_square(self):
        z1 = R1.gen(0)
        assert translate_origin(z1**2, (1,)) == z1**2 + z1.scale(2) + R1.one()

    def test_translate_bivariate(self):
        z1, z2 = R2.gens()
        expected = z1 * z2 - z1 + z2 - R2.one()
        assert translate_origin(z1 * z2, (1, -1)) == expected

    def test_vanishing_order_at_origin(self):
        z1, z2 = R2.gens()
        F = z1**2 * z2 + z2**4
        assert vanishing_order(F, (0, 0)) == 3

    def test_vanishing_order_at_other_point(self):
        z1, z2 = R2.gens()
        F = z1**2 * z2 + z2**4
        assert vanishing_order(F, (1, 0)) == 1

    def test_vanishing_order_edge_cases(self):
        z1, z2 = R2.gens()
        assert vanishing_order(R2.one(), (0, 0)) == 0
        assert vanishing_order(R2.zero(), (0, 0)) == math.inf
        # Nonvanishing point => order 0.
        assert vanishing_order(z1 + R2.one(), (0, 0)) == 0

    def test_random_homogeneous_degree_zero_is_nonzero_constant(self):
        for seed in range(10):
            F = random_homogeneous(R2, 0, seed)
            assert len(F) == 1 and F.degree() == 0
            assert not F.is_zero()

    def test_random_homogeneous_full_support_quadratic(self):
        F = random_homogeneous(R2, 2, seed=7)
        assert F.is_homogeneous() and F.degree() == 2
        assert len(F) == 3  # all three quadratic monomials present

    def test_random_homogeneous_deterministic(self):
        a = random_homogeneous(R2, 3, seed=123)
        b = random_homogeneous(R2, 3, seed=123)
        c = random_homogeneous(R2, 3, seed=124)
        assert a == b
        assert a != c


# -- ordering, text, and structural behavior ----------------------------------


class TestCanonicalForm:
    def test_leading_term_graded_reverse_lex(self):
        z1, z2 = R2.gens()
        F = z1**2 + z1 * z2 + z2**2 + z1 + R2.one()
        exps, coeff = F.leading()
        assert exps == (2, 0) and coeff == 1
        assert F.text() == "z1^2 + z1*z2 + z2^2 + z1 + 1"

    def test_grevlex_tie_break_prefers_small_last_exponent(self):
        ring = ring_over(("a", "b", "c"))
        a, b, c = ring.gens()
        # Among degree-2 monomials: a*b > c^2 in grevlex.
        F = c**2 + a * b
        assert F.leading()[0] == (1, 1, 0)

    def test_text_examples(self):
        z1, z2 = R2.gens()
        assert R2.zero().text() == "0"
        assert (z1**2 - z2**2).text() == "z1^2 - z2^2"
        assert (-z1).text() == "-1*z1"
        F = z1.scale(Fraction(-3, 2))
        assert F.text() == "-3/2*z1"
        assert (R2.const(-5)).text() == "-5"
        assert (z1 * z2 + z1.scale(2)).text() == "z1*z2 + 2*z1"

    def test_text_prime_field_never_negative(self):
        ring = ring_over(("z1",), PrimeField(7))
        z1 = ring.gen(0)
        assert (z1.scale(6) + ring.const(3)).text() == "6*z1 + 3"

    def test_zero_coefficients_dropped(self):
        z1, z2 = R2.gens()
        F = z1 - z1 + z2
        assert F == z2 and len(F) == 1

    def test_immutability(self):
        z1 = R2.gen(0)
        with pytest.raises(AttributeError):
            z1.terms = {}

    def test_ring_mismatch_raises(self):
        other = ring_over(("z1", "z2"), PrimeField(5))
        with pytest.raises(RingMismatchError):
            poly_mul(R2.gen(0), other.gen(0))

    def test_substitute_across_domains_rejected(self):
        other = ring_over(("z1", "z2"), PrimeField(5))
        with pytest.raises(DomainMismatchError):
            R2.gen(0).substitute([other.gen(0), other.gen(1)])

    def test_monomials_of_degree_counts(self):
        # C(d + n - 1, n - 1) monomials of degree d in n variables.
        assert len(monomials_of_degree(R2, 4)) == 5
        ring3 = ring_over(("a", "b", "c"))
        assert len(monomials_of_degree(ring3, 3)) == 10

    @pytest.mark.parametrize("nvars", [1, 3, 4])
    def test_monomials_of_degree_sorted_by_term_key(self, nvars):
        # The cached order must be the ring's own grevlex order.
        ring = ring_over(tuple(f"v{i}" for i in range(nvars)), QQ)
        for degree in range(7):
            expected = sorted(
                (
                    e
                    for e in itertools.product(range(degree + 1), repeat=nvars)
                    if sum(e) == degree
                ),
                key=ring.term_key,
                reverse=True,
            )
            assert monomials_of_degree(ring, degree) == expected

    def test_monomials_of_degree_cache_cannot_be_mutated(self):
        ring = ring_over(("a", "b", "c"), PrimeField(101))
        first = monomials_of_degree(ring, 3)
        expected = list(first)
        first.reverse()
        first.append((9, 9, 9))
        first[0] = (0, 0, 0)
        again = monomials_of_degree(ring, 3)
        assert again == expected
        assert again is not first
        again.clear()
        assert monomials_of_degree(ring, 3) == expected

    def test_derivative(self):
        z1, z2 = R2.gens()
        F = z1**3 * z2 + z2**2
        assert derivative(F, 0) == (z1**2 * z2).scale(3)
        assert derivative(F, 1) == z1**3 + z2.scale(2)


# -- property-based laws -------------------------------------------------------

COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def poly_strategy(ring, max_exp=3, max_terms=5):
    if isinstance(ring.domain, PrimeField):
        coeffs = st.integers(min_value=0, max_value=ring.domain.p - 1)
    else:
        coeffs = COEFFS
    exps = st.tuples(*(st.integers(0, max_exp) for _ in range(ring.nvars)))
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda terms: Polynomial(ring, terms)
    )


RP = ring_over(("z1", "z2"), PrimeField(101))


@settings(max_examples=60, deadline=None)
@given(poly_strategy(R2), poly_strategy(R2), poly_strategy(R2))
def test_ring_axioms_rationals(F, G, H):
    assert F + G == G + F
    assert F * G == G * F
    assert (F + G) + H == F + (G + H)
    assert (F * G) * H == F * (G * H)
    assert F * (G + H) == F * G + F * H
    assert F - F == R2.zero()


@settings(max_examples=60, deadline=None)
@given(poly_strategy(RP), poly_strategy(RP))
def test_ring_axioms_prime_field(F, G):
    assert F + G == G + F
    assert F * G == G * F
    assert F * (G + G) == F * G + F * G


@settings(max_examples=60, deadline=None)
@given(
    poly_strategy(R2),
    poly_strategy(R2),
    st.tuples(COEFFS, COEFFS),
)
def test_evaluation_is_ring_homomorphism(F, G, point):
    assert poly_eval(F + G, point) == poly_eval(F, point) + poly_eval(G, point)
    assert poly_eval(F * G, point) == poly_eval(F, point) * poly_eval(G, point)


RW = ring_over(("u", "v", "w"), QQ)
RWP = ring_over(("u", "v", "w"), PrimeField(101))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_substitute_commutes_with_evaluation(data):
    # Composing and then evaluating equals evaluating the images and then F.
    target = data.draw(st.sampled_from([RW, RWP]))
    F = data.draw(poly_strategy(R2 if target is RW else RP, max_exp=4))
    images = data.draw(
        st.lists(poly_strategy(target, max_exp=2, max_terms=3), min_size=2, max_size=2)
    )
    point = data.draw(st.tuples(COEFFS, COEFFS, COEFFS))
    values = [poly_eval(image, point) for image in images]
    assert poly_eval(F.substitute(images), point) == poly_eval(F, values)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(R2))
def test_components_sum_to_whole(F):
    parts = homogeneous_components(F)
    total = R2.zero()
    for degree, part in parts.items():
        assert part.is_homogeneous()
        assert part.degree() == degree
        total = total + part
    assert total == F


@settings(max_examples=40, deadline=None)
@given(poly_strategy(R2), poly_strategy(R2))
def test_vanishing_order_multiplicative_at_origin(F, G):
    # Q[z] is an integral domain: lowest parts multiply without cancellation.
    lhs = vanishing_order(F * G, (0, 0))
    assert lhs == vanishing_order(F, (0, 0)) + vanishing_order(G, (0, 0))


@settings(max_examples=40, deadline=None)
@given(poly_strategy(R2), st.tuples(COEFFS, COEFFS))
def test_translate_round_trip(F, point):
    back = translate_origin(translate_origin(F, point), tuple(-c for c in point))
    assert back == F


@settings(max_examples=40, deadline=None)
@given(poly_strategy(R2), st.tuples(COEFFS, COEFFS))
def test_translate_preserves_evaluation(F, point):
    shifted = translate_origin(F, point)
    assert poly_eval(shifted, (0, 0)) == poly_eval(F, point)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_translate_matches_substitution(data):
    # The Taylor shifts against the generic composition F(z + c), with zero
    # shifts mixed in.
    ring = data.draw(st.sampled_from([RW, RWP]))
    F = data.draw(poly_strategy(ring, max_exp=4, max_terms=6))
    shift = COEFFS if ring is RW else st.integers(0, 100)
    point = data.draw(st.tuples(*(shift | st.just(0) for _ in range(3))))
    images = [ring.gen(i) + ring.const(c) for i, c in enumerate(point)]
    assert translate_origin(F, point) == F.substitute(images)


@pytest.mark.parametrize("ring", [RW, RWP], ids=["QQ", "GF101"])
def test_translate_edge_cases_match_substitution(ring):
    u, v, w = ring.gens()
    F = u**3 * w + (v**2).scale(Fraction(2, 3)) - w.scale(5) + ring.const(7)
    for G in (ring.zero(), ring.const(4), F):
        for point in ((0, 0, 0), (0, 3, 0), (1, -1, Fraction(1, 2))):
            images = [ring.gen(i) + ring.const(c) for i, c in enumerate(point)]
            assert translate_origin(G, point) == G.substitute(images)
    assert translate_origin(ring.zero(), (1, 2, 3)).is_zero()
    assert translate_origin(F, (0, 0, 0)) == F


@settings(max_examples=40, deadline=None)
@given(poly_strategy(R2), poly_strategy(R2), st.integers(0, 6))
def test_truncated_product_matches_truncation(F, G, bound):
    assert poly_mul_truncated(F, G, bound) == truncate_degree(F * G, bound)


@settings(max_examples=30, deadline=None)
@given(poly_strategy(R2, max_exp=2, max_terms=3), st.integers(0, 5))
def test_power_matches_repeated_multiplication(F, e):
    expected = R2.one()
    for _ in range(e):
        expected = expected * F
    assert F**e == expected


@settings(max_examples=40, deadline=None)
@given(poly_strategy(R2))
def test_text_is_reparse_stable_representation(F):
    # Canonical form: equal polynomials print identically and hash equal,
    # whatever order their terms were inserted in.
    G = Polynomial(R2, dict(reversed(list(F.terms.items()))))
    assert F == G
    assert F.text() == G.text()
    assert hash(F) == hash(G)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(1, 5))
def test_random_homogeneous_is_homogeneous(seed, degree):
    F = random_homogeneous(R2, degree, seed)
    assert F.is_homogeneous()
    assert F.is_zero() or F.degree() == degree


@pytest.mark.parametrize(
    "domain, points",
    [
        (QQ, [(Fraction(1, 2), Fraction(-3, 7), 5), (Fraction(-5, 4), 0, Fraction(2, 9))]),
        (PrimeField(2), [(1, 1, 1), (1, 0, 1)]),
        (PrimeField(3), [(1, 2, 2), (2, 0, 1)]),
    ],
    ids=["QQ", "GF2", "GF3"],
)
def test_translate_over_a_common_denominator_matches_substitution(domain, points):
    # Coefficients over distinct large denominators (one near 2^61) and
    # shifts with different denominators, so the running denominator grows
    # by b^E at every shift; in characteristic 2 and 3 the exponents reach
    # past p, so the binomial rows vanish in places mod p.
    ring = ring_over(("u", "v", "w"), domain)
    u, v, w = ring.gens()
    F = (
        (u**5 * w**2).scale(Fraction(5, 2**61 - 1))
        + (v**4 * u).scale(Fraction(-7, 1234567))
        + (w**3).scale(Fraction(3, 1000003))
        + (u * v * w).scale(Fraction(11, 13))
        + u**2
        + ring.const(Fraction(-1, 10007))
    )
    for point in points:
        images = [ring.gen(i) + ring.const(c) for i, c in enumerate(point)]
        assert translate_origin(F, point) == F.substitute(images)
