"""Groebner engine and regularity certifier against a hand-decomposed catalog.

Every expected dimension or verdict below was derived by hand (explicit
primary decompositions noted inline) before the engine existed.  The
saturation route in ``oracles`` checks the rank certificate independently;
Macaulay rows built one entry at a time and ``Polynomial.substitute`` check
the array-built matrices and the linear elimination.
"""

import contextlib
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cycover import regseq
from cycover.modular import is_prime
from cycover.poly import (
    Polynomial,
    PrimeField,
    QQ,
    monomials_of_degree,
    random_homogeneous,
    ring_over,
)
from cycover.regseq import (
    BudgetExceededError,
    CERTIFIED_REGULAR,
    CutTrial,
    INCONCLUSIVE,
    MACAULAY_ENTRY_BUDGET,
    PrefixEvidence,
    RANK_CHECK_PRIME,
    REFUTED_AT_PREFIX,
    RegularityVerdict,
    _certify_isolated_homogeneous,
    _envelope_is_nonsingular,
    _has_full_column_rank,
    _linear_images,
    _macaulay_envelope,
    _macaulay_matrix,
    _macaulay_shape,
    _pivot_plan,
    _rank_check_prime,
    _reduced_row_echelon,
    _substitute_linear,
    groebner_basis,
    ideal_dimension,
    normal_form,
    random_linear_cuts,
    regular_at_origin,
)
from cycover.seeds import Rng, derive_seed
from oracles import (
    ideal,
    ideal_intersection,
    ideal_quotient_by,
    is_groebner_basis,
    macaulay_rows_by_lists,
    origin_isolated_by_saturation,
    saturate_at_origin,
)

R2 = ring_over(("z1", "z2"))
R3 = ring_over(("z1", "z2", "z3"))
R4 = ring_over(("z1", "z2", "z3", "z4"))


def gb_of(ring, gens):
    return groebner_basis(ideal(ring, gens))


def contains(I, f):
    """Ideal membership: f reduces to zero modulo a Groebner basis of I."""
    return normal_form(f, groebner_basis(I).basis).is_zero()


def same_ideal(I, J):
    """Equal ideals have equal reduced Groebner bases."""
    return groebner_basis(I).basis == groebner_basis(J).basis


# -- Groebner bases -------------------------------------------------------------


class TestGroebner:
    def test_coordinate_ideal_already_reduced(self):
        z1, z2 = R2.gens()
        gb = gb_of(R2, [z1, z2])
        assert set(gb.basis) == {z1, z2}
        assert is_groebner_basis(gb)

    def test_single_s_polynomial_reduces(self):
        z1, z2 = R2.gens()
        gb = gb_of(R2, [z1 + z2, z2**2])
        assert set(gb.basis) == {z1 + z2, z2**2}
        assert is_groebner_basis(gb)

    def test_unit_ideal_discovered(self):
        # z2*(z1^2) - z1*(z1 z2 - 1) = z1, then z2*z1 - (z1 z2 - 1) = 1.
        z1, z2 = R2.gens()
        gb = gb_of(R2, [z1 * z2 - R2.one(), z1**2])
        assert gb.basis == (R2.one(),)
        assert gb.is_unit_ideal()

    def test_deterministic(self):
        z1, z2, z3 = R3.gens()
        gens = [z1 * z2 - z3**2, z2 * z3 - z1**2, z1 * z3 - z2**2]
        a = gb_of(R3, gens)
        b = gb_of(R3, gens)
        assert a.basis == b.basis
        assert is_groebner_basis(a)

    def test_reduced_property(self):
        # No leading term divides another; all tails reduced; all monic.
        z1, z2, z3 = R3.gens()
        gb = gb_of(R3, [z1**2 - z2 * z3, z2**2 - z1 * z3, z1 * z2 - z3**2])
        leads = [g.leading()[0] for g in gb.basis]
        for i, a in enumerate(leads):
            for j, b in enumerate(leads):
                if i != j:
                    assert not all(x <= y for x, y in zip(a, b))
        for g in gb.basis:
            assert g.leading()[1] == QQ.one
            others = [h for h in gb.basis if h != g]
            if others:
                assert normal_form(g, others) == g

    def test_membership_via_normal_form(self):
        z1, z2 = R2.gens()
        I = ideal(R2, [z1**2, z1 * z2 - z2**3])
        # Multiples of the generators are members...
        assert contains(I, z1**2 * (z1 + z2))
        assert contains(I, z1**2 * z2 + (z1 * z2 - z2**3) * z2)
        # ... but z1*z2 alone is not: the reduced basis is {z1^2, z2^3 - z1 z2}
        # (the degree-3 term leads), and z1*z2 is its own normal form.
        assert not contains(I, z1 * z2)
        assert not contains(I, z2)

    def test_budget_error(self):
        z1, z2, z3 = R3.gens()
        gens = [z1 * z2 - z3**2, z2 * z3 - z1**2, z1 * z3 - z2**2]
        with pytest.raises(BudgetExceededError) as info:
            groebner_basis(ideal(R3, gens), budget=1)
        assert "budget of 1 exceeded" in str(info.value)

    def test_prime_field_groebner(self):
        ring = ring_over(("z1", "z2"), PrimeField(101))
        z1, z2 = ring.gens()
        gb = groebner_basis(ideal(ring, [z1 * z2 - ring.one(), z1**2]))
        assert gb.basis == (ring.one(),)

    def test_zero_ideal(self):
        gb = gb_of(R2, [R2.zero()])
        assert gb.basis == ()


# -- the hand-decomposed catalog -------------------------------------------------


def catalog():
    """(label, ring, generators, expected affine dimension).

    Decompositions justifying each value are in the comments.
    """
    z1_2, z2_2 = R2.gens()
    z1, z2, z3 = R3.gens()
    w1, w2, w3, w4 = R4.gens()
    one2 = R2.one()
    return [
        # A line in 3-space: V(z1, z2) = {z1=z2=0}.
        ("line-in-3", R3, [z1, z2], 1),
        # A hypersurface: V(z1 z2) = {z1=0} u {z2=0}, both planes.
        ("two-planes", R3, [z1 * z2], 2),
        # V(z1z2, z1z3) = {z1=0} u {z2=z3=0}: plane plus line, max dim 2.
        ("plane-plus-line", R3, [z1 * z2, z1 * z3], 2),
        # The origin in 3-space.
        ("origin-3", R3, [z1, z2, z3], 0),
        # Origin-primary square of the maximal ideal in the plane.
        ("fat-origin", R2, [z1_2**2, z1_2 * z2_2, z2_2**2], 0),
        # A line in the plane.
        ("line-in-2", R2, [z1_2], 1),
        # V(z1 z2^2, z2^3) = {z2=0}: decomposition (z2^2) n (z1, z2^3).
        ("embedded-origin", R2, [z1_2 * z2_2**2, z2_2**3], 1),
        # Unit ideal: 1 = z2*z1 - (z1 z2 - 1).
        ("unit", R2, [z1_2 * z2_2 - one2, z1_2**2], -1),
        # V(z1+z2, z2^2) = origin in the plane.
        ("skew-origin", R2, [z1_2 + z2_2, z2_2**2], 0),
        # V(z1^2, z2^2) = {z1=z2=0}: the z3-axis with multiplicity.
        ("fat-axis", R3, [z1**2, z2**2], 1),
        # Two distinct irreducible quadrics in 3-space share no component,
        # so the intersection is a curve (contains the z3-axis).
        ("quadric-curve", R3, [z1**2 - z2 * z3, z2**2 - z1 * z3], 1),
        # Coordinate subspace of codimension 3 in 4-space.
        ("line-in-4", R4, [w1, w2, w3], 1),
        # Binomial pair collapsing to the coordinate ideal (char 0).
        ("rotated-origin", R2, [z1_2 - z2_2, z1_2 + z2_2], 0),
        # Monomial: V(z1 z3, z2 z3) = {z3=0} u {z1=z2=0}.
        ("plane-plus-axis", R3, [z1 * z3, z2 * z3], 2),
    ]


def monomial_dimension_oracle(ring, gens):
    """Independent brute force for monomial ideals, straight from supports."""
    from itertools import combinations

    supports = []
    for g in gens:
        assert len(g) == 1, "oracle only applies to monomial generators"
        exps = g.leading()[0]
        supports.append(frozenset(i for i, e in enumerate(exps) if e))
    n = ring.nvars
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            if all(not s <= chosen for s in supports):
                return size
    return 0


class TestDimensionCatalog:
    @pytest.mark.parametrize("label,ring,gens,expected", catalog(), ids=lambda v: v if isinstance(v, str) else "")
    def test_catalog_dimension(self, label, ring, gens, expected):
        assert ideal_dimension(ideal(ring, gens)) == expected

    def test_monomial_entries_against_independent_oracle(self):
        for label, ring, gens, expected in catalog():
            if all(len(g) == 1 for g in gens):
                assert monomial_dimension_oracle(ring, gens) == expected, label

    def test_zero_ideal_dimension(self):
        assert ideal_dimension(ideal(R3, [R3.zero()])) == 3

    def test_every_output_basis_verified(self):
        for label, ring, gens, _ in catalog():
            gb = groebner_basis(ideal(ring, gens))
            assert is_groebner_basis(gb), label


class TestDimensionInvariance:
    @staticmethod
    def linear_change(ring, seed):
        """A random invertible linear substitution (unit determinant trick)."""
        from cycover.seeds import Rng

        rng = Rng(seed)
        n = ring.nvars
        # Build an invertible matrix as (unit lower) * (unit upper).
        lower = [[Fraction(0)] * n for _ in range(n)]
        upper = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            lower[i][i] = Fraction(1)
            upper[i][i] = Fraction(1)
            for j in range(i):
                lower[i][j] = Fraction(rng.int_range(-3, 3))
                upper[j][i] = Fraction(rng.int_range(-3, 3))
        matrix = [
            [
                sum(lower[i][k] * upper[k][j] for k in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        gens = ring.gens()
        images = []
        for i in range(n):
            image = ring.zero()
            for j in range(n):
                if matrix[i][j]:
                    image = image + gens[j].scale(matrix[i][j])
            images.append(image)
        return images

    def test_invariance_under_permutation(self):
        for label, ring, gens, expected in catalog():
            perm = list(reversed(range(ring.nvars)))
            images = [ring.gen(i) for i in perm]
            moved = [g.substitute(images) for g in gens]
            assert ideal_dimension(ideal(ring, moved)) == expected, label

    def test_invariance_under_linear_change(self):
        for label, ring, gens, expected in catalog():
            for seed in (1, 2, 3):
                images = self.linear_change(ring, seed)
                moved = [g.substitute(images) for g in gens]
                assert ideal_dimension(ideal(ring, moved)) == expected, label


# -- saturation ------------------------------------------------------------------


class TestSaturation:
    def test_origin_primary_becomes_unit(self):
        z1, z2 = R2.gens()
        J = ideal(R2, [z1**2, z1 * z2, z2**2])
        sat = saturate_at_origin(J)
        assert sat.generators == (R2.one(),)

    def test_no_origin_component_unchanged(self):
        z1, _ = R2.gens()
        J = ideal(R2, [z1])
        sat = saturate_at_origin(J)
        assert sat.generators == (z1,)

    def test_embedded_origin_stripped(self):
        # (z1 z2^2, z2^3) = (z2^2) n (z1, z2^3); the second factor is
        # origin-primary, so saturation leaves exactly (z2^2).
        z1, z2 = R2.gens()
        J = ideal(R2, [z1 * z2**2, z2**3])
        sat = saturate_at_origin(J)
        assert same_ideal(sat, ideal(R2, [z2**2]))

    def test_quotient_worked_example(self):
        # ((z1^2, z1 z2, z2^2) : z1) = (z1, z2).
        z1, z2 = R2.gens()
        J = ideal(R2, [z1**2, z1 * z2, z2**2])
        quotient = ideal_quotient_by(J, z1)
        assert same_ideal(quotient, ideal(R2, [z1, z2]))

    def test_intersection_worked_example(self):
        # (z1) n (z2) = (z1 z2).
        z1, z2 = R2.gens()
        meet = ideal_intersection(ideal(R2, [z1]), ideal(R2, [z2]))
        assert same_ideal(meet, ideal(R2, [z1 * z2]))

    def test_requires_vanishing_at_origin(self):
        z1, _ = R2.gens()
        with pytest.raises(ValueError):
            saturate_at_origin(ideal(R2, [z1 + R2.one()]))


# -- the regularity certifier -----------------------------------------------------


class TestRegularAtOrigin:
    def test_coordinate_sequence_certified(self):
        w1, w2, w3, _ = R4.gens()
        verdict = regular_at_origin([w1, w2, w3], seed=11)
        assert verdict.outcome == CERTIFIED_REGULAR
        assert verdict.certified
        assert [e.prefix for e in verdict.evidence] == [1, 2, 3]
        assert all(e.certified for e in verdict.evidence)

    def test_zero_divisor_refuted_at_two(self):
        z1, z2 = R2.gens()
        verdict = regular_at_origin([z1, z1 * z2], seed=3)
        assert verdict.outcome == REFUTED_AT_PREFIX
        assert verdict.refuted_prefix == 2
        assert verdict.evidence[-1].local_dimension == 1
        assert verdict.evidence[-1].expected_dimension == 0
        assert "local dimension 1, expected 0" in verdict.message
        assert "proved by the dimension, height 1 < 2" in verdict.message

    def test_prefixes_certified_by_their_dimension(self):
        # Over GF(2) every linear form vanishes on a line spanned by a
        # GF(2) vector, and z1*z2*(z1 + z2) vanishes on every such line in
        # the plane z3 = 0, so no cut draw isolates the origin, neither for
        # the whole sequence nor for prefix 1.  Their zero sets still have
        # the expected dimensions 1 and 2 (heights 2 and 1), so both are
        # regular (Matsumura, Thm 17.4): the walk runs, and prefix 2 is
        # decided from the whole sequence's draws, not drawn again.
        ring = ring_over(("z1", "z2", "z3"), PrimeField(2))
        z1, z2, z3 = ring.gens()
        sequence = [z1 * z2 * (z1 + z2), z3]
        with mock.patch.object(
            regseq, "_certify_isolated_homogeneous", wraps=_certify_isolated_homogeneous
        ) as certify:
            verdict = regular_at_origin(sequence, seed=3)
        assert verdict.outcome == CERTIFIED_REGULAR
        first, second = verdict.evidence
        for record, dimension in ((first, 2), (second, 1)):
            assert record.certified and record.local_dimension == dimension
            assert len(record.trials) == 5
            assert not any(trial.certified for trial in record.trials)
            assert {trial.prefix for trial in record.trials} == {record.prefix}
        # Five draws of the whole sequence first, then five of prefix 1.
        assert certify.call_count == 10
        assert verdict.message == (
            "prefix 1 certified by its local dimension 2 (5 generic cuts failed); "
            "prefix 2 certified by its local dimension 1 (5 generic cuts failed)"
        )

    def test_whole_sequence_certifies_every_prefix(self):
        # The same two forms and a third, which together cut out only the
        # origin: the whole sequence needs no cuts, its one draw certifies
        # it, and prefixes 1 and 2 follow (Matsumura, Thm 17.4) with no
        # draws of their own, though no cut would isolate either of them.
        ring = ring_over(("z1", "z2", "z3"), PrimeField(2))
        z1, z2, z3 = ring.gens()
        sequence = [z1 * z2 * (z1 + z2), z3, z1**2 + z1 * z2 + z2**2]
        verdict = regular_at_origin(sequence, seed=3)
        assert verdict.outcome == CERTIFIED_REGULAR
        first, second, third = verdict.evidence
        for record in (first, second):
            assert record.certified and record.trials == ()
            assert record.local_dimension is None
        assert third.certified and third.local_dimension is None
        assert [(t.prefix, t.trial, t.certified) for t in third.trials] == [
            (3, 1, True)
        ]
        assert third.trials[0].cut_seed == derive_seed(
            3, trial=1, point=3, purpose=regseq.PURPOSE_LINEAR_CUTS
        )
        assert verdict.message == ""

    def test_prefix_without_cuts_is_drawn_once(self):
        # Three forms in three variables that all vanish on the z1 axis.
        # The whole sequence has no cuts, so every draw would rank the same
        # matrix: it is drawn once, and its refutation still names the
        # trial count in its message.
        z1, z2, z3 = R3.gens()
        with mock.patch.object(
            regseq, "_certify_isolated_homogeneous", wraps=_certify_isolated_homogeneous
        ) as certify:
            verdict = regular_at_origin([z2, z3, z1 * z2 + z1 * z3], seed=5)
        assert verdict.outcome == REFUTED_AT_PREFIX
        assert verdict.refuted_prefix == 3
        first, second, top = verdict.evidence
        assert first.certified and second.certified
        assert [(t.prefix, t.trial, t.certified) for t in top.trials] == [
            (3, 1, False)
        ]
        assert certify.call_count == 1 + len(first.trials) + len(second.trials)
        assert verdict.message == (
            "prefix 3: local dimension 1, expected 0; proved by the dimension, "
            "height 2 < 3 (5 generic cuts failed)"
        )

    def test_prefix_records_without_trials_must_be_implied(self):
        # A record with no draws is a proof only when it is certified and a
        # longer prefix's last draw certified.
        def evidence(prefix, trials, certified=True):
            return PrefixEvidence(
                prefix=prefix,
                certified=certified,
                expected_dimension=3 - prefix,
                trials=tuple(
                    CutTrial(prefix=prefix, trial=k + 1, cut_seed=k, certified=ok)
                    for k, ok in enumerate(trials)
                ),
                local_dimension=None if not trials or trials[-1] else 3 - prefix,
            )

        implied = evidence(1, ())
        RegularityVerdict(
            CERTIFIED_REGULAR, 5, (implied, evidence(2, (False, True)))
        )
        unsupported = [
            # the longer prefix was certified by its dimension, not a draw
            (implied, evidence(2, (False,) * 5)),
            # nothing longer at all
            (evidence(1, (True,)), evidence(2, ())),
        ]
        for records in unsupported:
            with pytest.raises(ValueError, match="no cut draw"):
                RegularityVerdict(CERTIFIED_REGULAR, 5, records)
        # An uncertified record with no draws is never implied.
        with pytest.raises(ValueError, match="no cut draw"):
            RegularityVerdict(
                REFUTED_AT_PREFIX,
                5,
                (evidence(1, (), certified=False), evidence(2, (True,))),
                refuted_prefix=1,
            )

    def test_monomial_pair_refuted_with_dimensions(self):
        z1, z2, z3 = R3.gens()
        verdict = regular_at_origin([z1 * z2, z1 * z3], seed=5)
        assert verdict.outcome == REFUTED_AT_PREFIX
        assert verdict.refuted_prefix == 2
        assert verdict.evidence[-1].local_dimension == 2
        assert verdict.evidence[-1].expected_dimension == 1
        assert "local dimension 2, expected 1" in verdict.message

    def test_skew_origin_certified(self):
        z1, z2 = R2.gens()
        verdict = regular_at_origin([z1 + z2, z2**2], seed=7)
        assert verdict.outcome == CERTIFIED_REGULAR

    def test_fat_axis_certified(self):
        z1, z2, _ = R3.gens()
        verdict = regular_at_origin([z1**2, z2**2], seed=9)
        assert verdict.outcome == CERTIFIED_REGULAR

    def test_quadric_pair_certified(self):
        z1, z2, z3 = R3.gens()
        verdict = regular_at_origin([z1**2 - z2 * z3, z2**2 - z1 * z3], seed=13)
        assert verdict.outcome == CERTIFIED_REGULAR

    def test_order_matters(self):
        z1, z2 = R2.gens()
        verdict = regular_at_origin([z1**2, z1], seed=17)
        assert verdict.outcome == REFUTED_AT_PREFIX
        assert verdict.refuted_prefix == 2

    def test_prefix_monotonicity(self):
        z1, z2, z3 = R3.gens()
        verdict = regular_at_origin([z1 * z2, z1 * z3, z1], seed=19)
        assert verdict.outcome == REFUTED_AT_PREFIX
        assert verdict.refuted_prefix == 2
        # Nothing beyond the refuted prefix is reported at all, let alone
        # as certified.
        assert [e.prefix for e in verdict.evidence] == [1, 2]

    def test_non_homogeneous_sequence_rejected(self):
        # Regular at the origin, but only homogeneous sequences are
        # certified; the saturation oracle still decides each prefix.
        z1, z2 = R2.gens()
        with pytest.raises(ValueError) as err:
            regular_at_origin([z1 - z2**3, z2], seed=23)
        assert "homogeneous" in str(err.value)
        assert origin_isolated_by_saturation([z1 - z2**3, z1 + z2], R2)
        assert origin_isolated_by_saturation([z1 - z2**3, z2], R2)

    def test_budget_exhaustion_leaves_local_dimension_unknown(self):
        # The pair budget bounds only the dimension annotation of a refuted
        # prefix; the refutation itself stands.
        z1, z2 = R2.gens()
        verdict = regular_at_origin([z1, z1 * z2], seed=3, budget=0)
        assert verdict.outcome == REFUTED_AT_PREFIX
        assert verdict.refuted_prefix == 2
        assert verdict.evidence[-1].local_dimension is None
        assert "local dimension unknown, expected 0" in verdict.message
        assert "high confidence" in verdict.message

    def test_prime_field_certification(self):
        ring = ring_over(("z1", "z2", "z3"), PrimeField(1_000_003))
        z1, z2, z3 = ring.gens()
        verdict = regular_at_origin([z1, z2**2 + z1 * z3], seed=29)
        assert verdict.outcome == CERTIFIED_REGULAR

    def test_sequence_longer_than_ring_rejected(self):
        z1, z2 = R2.gens()
        with pytest.raises(ValueError):
            regular_at_origin([z1, z2, z1 + z2])

    def test_entries_must_vanish_at_origin(self):
        z1, _ = R2.gens()
        with pytest.raises(ValueError):
            regular_at_origin([z1 + R2.one()])

    def test_deterministic_for_fixed_seed(self):
        z1, z2, z3 = R3.gens()
        a = regular_at_origin([z1 * z2, z1 * z3], seed=5)
        b = regular_at_origin([z1 * z2, z1 * z3], seed=5)
        assert a == b


class TestCuts:
    def test_cuts_are_linear_and_deterministic(self):
        cuts_a = random_linear_cuts(R3, 4, seed=101)
        cuts_b = random_linear_cuts(R3, 4, seed=101)
        assert cuts_a == cuts_b
        for cut in cuts_a:
            assert cut.is_homogeneous() and cut.degree() == 1

    def test_cut_count(self):
        assert random_linear_cuts(R3, 0, seed=1) == []
        assert len(random_linear_cuts(R3, 7, seed=1)) == 7


# -- property-based --------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 3))
def test_groebner_of_random_small_ideals_verifies(seed, count):
    gens = [random_homogeneous(R2, 1 + (seed + k) % 3, seed + 7 * k) for k in range(count)]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    gb = groebner_basis(ideal(R2, gens))
    assert is_groebner_basis(gb)
    for g in gens:
        assert normal_form(g, gb.basis).is_zero()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31))
def test_intersection_contains_products(seed):
    f = random_homogeneous(R2, 2, seed)
    g = random_homogeneous(R2, 1, seed + 1)
    if f.is_zero() or g.is_zero():
        return
    meet = ideal_intersection(ideal(R2, [f]), ideal(R2, [g]))
    # f*g lies in the intersection; every intersection member is in both.
    assert contains(meet, f * g)
    for member in meet.generators:
        assert contains(ideal(R2, [f]), member)
        assert contains(ideal(R2, [g]), member)


# -- the rank certificate against the saturation oracle ---------------------------

DIFFERENTIAL_DOMAINS = (QQ, PrimeField(101))


def isolation_case(domain, nvars, length, shared, seed):
    """A homogeneous prefix of degrees 1-2 plus random cuts up to ``nvars``
    generators.  With ``shared`` every prefix member gets one common linear
    factor, so a prefix of length 2 or more leaves a hypersurface through
    the origin that the cuts cannot isolate."""
    ring = ring_over(("z1", "z2", "z3")[:nvars], domain)
    length = min(length, nvars)
    prefix = [
        random_homogeneous(ring, 1 + (seed + k) % 2, derive_seed(seed, trial=k))
        for k in range(length)
    ]
    if shared:
        factor = random_homogeneous(ring, 1, derive_seed(seed, trial=length))
        prefix = [factor * g for g in prefix]
    return ring, prefix + random_linear_cuts(ring, nvars - length, seed)


@settings(max_examples=48, deadline=None)
@given(
    st.sampled_from(DIFFERENTIAL_DOMAINS),
    st.integers(2, 3),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**31),
)
def test_rank_certificate_agrees_with_saturation(domain, nvars, length, shared, seed):
    ring, gens = isolation_case(domain, nvars, length, shared, seed)
    assert _certify_isolated_homogeneous(gens, ring) == origin_isolated_by_saturation(
        gens, ring
    )


def test_differential_cases_reach_both_verdicts():
    verdicts = set()
    for domain in DIFFERENTIAL_DOMAINS:
        for shared in (False, True):
            ring, gens = isolation_case(domain, 3, 2, shared, seed=17)
            isolated = origin_isolated_by_saturation(gens, ring)
            assert _certify_isolated_homogeneous(gens, ring) == isolated
            verdicts.add((shared, isolated))
    assert verdicts == {(False, True), (True, False)}


# -- exact rank above the int64 product range --------------------------------------


@pytest.mark.parametrize("p", [3_100_000_027, 2**61 - 1])
def test_rank_check_exact_for_primes_past_int64_products(p):
    # (p - 1)^2 >= 2^63 here, so int64 products of two entries would wrap.
    assert (p - 1) ** 2 >= 2**63
    rng = Rng(p % 1_000)
    for _ in range(100):
        # An 8x5 times 5x6 product has rank at most 5 < 6 columns.
        left = [[rng.below(p) for _ in range(5)] for _ in range(8)]
        right = [[rng.below(p) for _ in range(6)] for _ in range(5)]
        rows = [
            [sum(a * b for a, b in zip(row, column)) % p for column in zip(*right)]
            for row in left
        ]
        assert not _has_full_column_rank(rows, 6, p)
    full = [[int(i == j) for j in range(6)] for i in range(6)]
    full += [[rng.below(p) for _ in range(6)] for _ in range(2)]
    assert _has_full_column_rank([full[k] for k in (6, 0, 7, 1, 2, 3, 4, 5)], 6, p)


# -- Macaulay's square matrix first, the full rows as fallback ----------------------


@contextlib.contextmanager
def recorded_rank_checks(withhold_square=False):
    """Records the (rows, columns, full rank) of each rank check the
    certificate runs: Macaulay's square matrix in its envelope, then the
    full rows.  The dense search that ranks a Schur complement inside the
    square check is part of that check, not a check of its own.  With
    ``withhold_square`` the square check is answered "singular" unranked,
    so the decision is the full matrix's alone."""
    checks = []
    inside_square = []

    def square(envelope, plan, p):
        inside_square.append(True)
        full_rank = not withhold_square and _envelope_is_nonsingular(envelope, plan, p)
        inside_square.pop()
        n = len(plan.offset)
        checks.append((n, n, full_rank))
        return full_rank

    def full(rows, ncols, p):
        full_rank = _has_full_column_rank(rows, ncols, p)
        if not inside_square:
            checks.append((len(rows), ncols, full_rank))
        return full_rank

    with mock.patch.object(regseq, "_envelope_is_nonsingular", square):
        with mock.patch.object(regseq, "_has_full_column_rank", full):
            yield checks


def rank_checks(gens, ring, withhold_square=False):
    """The certificate's decision and the rank checks it ran
    (``recorded_rank_checks``)."""
    with recorded_rank_checks(withhold_square) as checks:
        decision = _certify_isolated_homogeneous(gens, ring)
    return decision, checks


def macaulay_case(domain, nvars, degrees, shared, seed):
    """Forms of the given degrees in ``nvars`` variables, topped up with
    linear cuts to one generator per variable.  With ``shared`` the forms
    get a common linear factor, so two or more of them are not isolated."""
    ring = ring_over(("z1", "z2", "z3", "z4")[:nvars], domain)
    forms = [
        random_homogeneous(ring, d, derive_seed(seed, trial=k))
        for k, d in enumerate(degrees)
    ]
    if shared:
        factor = random_homogeneous(ring, 1, derive_seed(seed, trial=len(degrees)))
        forms = [factor * g for g in forms]
    return ring, forms + random_linear_cuts(ring, nvars - len(forms), seed)


# Saturating three cubics in three variables takes about 90 s, so the
# saturation oracle checks only the cases whose forms' degree product is at
# most this.  Above it the Groebner dimension decides instead: the zero set
# of a homogeneous ideal is a cone, so the origin is isolated in it exactly
# when it has dimension 0.
ORACLE_DEGREE_PRODUCT = 6


@st.composite
def macaulay_shapes(draw):
    nvars = draw(st.integers(2, 4))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=nvars))
    return nvars, degrees


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(DIFFERENTIAL_DOMAINS),
    macaulay_shapes(),
    st.booleans(),
    st.integers(0, 2**31),
)
def test_square_first_matches_full_matrix_and_saturation(domain, shape, shared, seed):
    nvars, degrees = shape
    ring, gens = macaulay_case(domain, nvars, degrees, shared, seed)
    decision, checks = rank_checks(gens, ring)
    full_decision, _ = rank_checks(gens, ring, withhold_square=True)
    assert decision == full_decision
    if checks:
        square_rows, columns, _ = checks[0]
        assert square_rows == columns
    product = 1
    for d in degrees:
        product *= d + shared
    if product <= ORACLE_DEGREE_PRODUCT:
        assert decision == origin_isolated_by_saturation(gens, ring)
    else:
        assert decision == (ideal_dimension(ideal(ring, gens)) == 0)


def test_square_matrix_has_one_row_per_column():
    # Degrees 2, 3, 2 in three variables: cap 5, 21 columns, 26 full rows.
    z1, z2, z3 = R3.gens()
    gens = [z1**2 + z2 * z3, z2**3 - z1 * z3**2, z3**2 + z1 * z2]
    decision, checks = rank_checks(gens, R3)
    assert decision
    assert checks == [(21, 21, True)]
    _, withheld = rank_checks(gens, R3, withhold_square=True)
    assert withheld == [(21, 21, False), (26, 21, True)]


@pytest.mark.parametrize("domain", DIFFERENTIAL_DOMAINS, ids=["QQ", "GF101"])
def test_singular_square_matrix_falls_back_to_full_rows(domain):
    # Macaulay gives column z1^4 to the first generator, z2^2, whose
    # multiple z1^2*z2^2 has no z1^4 term; that column stays empty in the
    # square matrix, while the full rows contain z1^2 * z1^2.
    ring = ring_over(("z1", "z2", "z3"), domain)
    z1, z2, z3 = ring.gens()
    with recorded_rank_checks() as checks:
        verdict = regular_at_origin([z2**2, z3**2, z1**2], seed=31)
    assert verdict.outcome == CERTIFIED_REGULAR
    top = verdict.evidence[-1]
    assert top.prefix == 3 and len(top.trials) == 1
    # The top prefix has no cuts: cap 4, 15 columns, 3 * 6 full rows.
    assert checks[-2:] == [(15, 15, False), (18, 15, True)]


# -- the planned diagonal elimination of the square matrix ---------------------------

PLAN_PRIMES = (2, 3, 101, 1_000_003, RANK_CHECK_PRIME, 2**61 - 1)


def square_case_forms(p, nvars, degrees, kind, seed):
    """Forms mod p of the given degrees.  ``dense``: every coefficient drawn;
    ``sparse``: each monomial kept with probability 1/2; ``common-zero``:
    forms without their x_1^d term, so all vanish at (1, 0, ..., 0), moved
    by a random linear change of variables."""
    ring = ring_over(("z1", "z2", "z3", "z4")[:nvars], PrimeField(p))
    rng = Rng(seed)
    forms = []
    for d in degrees:
        monomials = monomials_of_degree(ring, d)
        terms = {}
        for exps in monomials:
            if kind == "sparse" and rng.below(2):
                continue
            if kind == "common-zero" and exps[0] == d:
                continue
            terms[exps] = rng.below(p)
        form = Polynomial(ring, terms)
        if form.is_zero():
            form = Polynomial(ring, {monomials[-1]: 1})
        forms.append(form)
    if kind == "common-zero":
        change = random_linear_cuts(ring, nvars, seed)
        forms = [g.substitute(change) for g in forms]
    return forms


@st.composite
def square_cases(draw):
    # At most 56 columns, so the list RREF oracle stays fast.
    nvars = draw(st.integers(1, 4))
    top = 2 if nvars == 4 else 3
    degrees = tuple(draw(st.lists(st.integers(1, top), min_size=nvars, max_size=nvars)))
    kind = draw(st.sampled_from(("dense", "sparse", "common-zero")))
    return nvars, degrees, kind


def envelope_rows(envelope, plan):
    """The square matrix stored in ``plan``'s envelope, as int lists: zero
    outside each row's envelope."""
    n = len(plan.offset)
    return [
        [
            int(envelope[plan.offset[r] + c]) if plan.first[r] <= c <= plan.last[r] else 0
            for c in range(n)
        ]
        for r in range(n)
    ]


def schur_by_lists(rows, plan, p):
    """Dense oracle for the planned elimination: eliminate ``rows`` on the
    plan's diagonal pivots in order, every later row and every column, up to
    the first pivot that vanishes.  Returns the pivots left and the Schur
    complement on them, or None when no pivot vanishes."""
    mat = [list(row) for row in rows]
    order = [step[0] for step in plan.steps]
    for done, k in enumerate(order):
        if mat[k][k] == 0:
            rest = order[done:]
            return rest, [[mat[r][c] for c in rest] for r in rest]
        inverse = pow(mat[k][k], p - 2, p)
        for r in order[done + 1 :]:
            factor = mat[r][k] * inverse % p
            mat[r] = [(x - factor * y) % p for x, y in zip(mat[r], mat[k])]
    return None


def planned_elimination(forms, p, plan):
    """The envelope route's decision on the square matrix of ``forms``, and
    the Schur complement it handed to the pivot search (None if none)."""
    handed = []

    def search(rows, ncols, p):
        assert rows.dtype == envelope.dtype
        handed.append(rows.tolist())
        return _has_full_column_rank(rows, ncols, p)

    envelope = _macaulay_envelope(forms, p, plan)
    with mock.patch.object(regseq, "_has_full_column_rank", search):
        decision = _envelope_is_nonsingular(envelope, plan, p)
    assert len(handed) <= 1
    return decision, (handed[0] if handed else None)


# One prime per storage class: the largest below 2^31 (4-byte entries), one
# above it (int64) and one whose products pass int64 (Python ints).
STORAGE_CLASSES = ((2**31 - 1, np.int32), (2**31 + 11, np.int64), (2**61 - 1, object))


@pytest.mark.parametrize("p, dtype", STORAGE_CLASSES, ids=["int32", "int64", "object"])
def test_each_storage_class_matches_rref(p, dtype):
    # Residues near p make every product pass 2^32, so narrow arithmetic
    # would wrap.  Common-zero forms give a singular square matrix, whose
    # Schur complement goes to the search, and a rank-deficient full matrix.
    assert is_prime(p)
    nvars, degrees = 3, (2, 3, 2)
    plan = _pivot_plan(nvars, degrees)
    field = PrimeField(p)
    decisions = []
    for kind, seed in (("dense", 7), ("dense", 8), ("common-zero", 7), ("common-zero", 8)):
        forms = square_case_forms(p, nvars, degrees, kind, seed)
        square = _macaulay_envelope(forms, p, plan)
        full = _macaulay_matrix(forms, p)
        assert square.dtype == dtype and full.dtype == dtype
        rows = macaulay_rows_by_lists(forms, p, square=True)
        square_full_rank = len(_reduced_row_echelon(rows, field)[1]) == len(rows)
        decision, schur = planned_elimination(forms, p, plan)
        assert decision == square_full_rank
        oracle = schur_by_lists(rows, plan, p)
        assert schur == (None if oracle is None else oracle[1])
        columns = full.shape[1]
        full_rank = len(_reduced_row_echelon(full.tolist(), field)[1]) == columns
        before = full.copy()
        assert _has_full_column_rank(full, columns, p) == full_rank
        assert not np.array_equal(full, before)  # eliminated in place
        decisions.append((decision, full_rank))
    assert decisions == [(True, True)] * 2 + [(False, False)] * 2


@settings(max_examples=90, deadline=None)
@given(st.sampled_from(PLAN_PRIMES), square_cases(), st.integers(0, 2**31))
def test_planned_elimination_matches_search_and_rref(p, case, seed):
    nvars, degrees, kind = case
    assume(nvars > 1 or kind != "common-zero")
    forms = square_case_forms(p, nvars, degrees, kind, seed)
    assume(all(not g.is_zero() for g in forms))
    plan = _pivot_plan(nvars, degrees)
    rows = macaulay_rows_by_lists(forms, p, square=True)
    assert envelope_rows(_macaulay_envelope(forms, p, plan), plan) == rows
    n = len(rows)
    _, pivots = _reduced_row_echelon(rows, PrimeField(p))
    expected = len(pivots) == n
    if kind == "common-zero":
        assert not expected
    decision, schur = planned_elimination(forms, p, plan)
    assert decision == expected
    oracle = schur_by_lists(rows, plan, p)
    assert schur == (None if oracle is None else oracle[1])
    assert _has_full_column_rank(rows, n, p) == expected


def test_planned_elimination_with_zero_diagonal_entries():
    # Cap 4, 15 columns.  The plan certifies a nonzero diagonal alone; at a
    # zero diagonal pivot the Schur complement left is read out of the
    # envelope, and the search decides it either way.
    plan = _pivot_plan(3, (2, 2, 2))
    for p in PLAN_PRIMES:
        ring = ring_over(("z1", "z2", "z3"), PrimeField(p))
        z1, z2, z3 = ring.gens()
        cases = (
            ([z1**2, z2**2, z3**2], 0),
            ([z1**2 + z2**2, z1**2 + z3**2, z2**2 + z3**2], 5),
            ([z2**2, z3**2, z1**2], 15),
            ([z1 * z2, z2 * z3, z3 * z1], 15),
        )
        decisions = []
        for forms, zeros in cases:
            rows = macaulay_rows_by_lists(forms, p, square=True)
            assert sum(rows[k][k] == 0 for k in range(15)) == zeros
            _, pivots = _reduced_row_echelon(rows, PrimeField(p))
            decision, schur = planned_elimination(forms, p, plan)
            assert decision == (len(pivots) == 15)
            oracle = schur_by_lists(rows, plan, p)
            assert (schur is None) == (zeros == 0) == (oracle is None)
            if oracle is not None:
                rest, complement = oracle
                assert schur == complement
                if zeros == 15:
                    assert len(rest) == 15  # the first pivot already vanishes
            decisions.append(decision)
        # (z1 + z2)^2, (z1 + z3)^2, (z2 + z3)^2 share a zero in characteristic 2.
        assert decisions == [True, p != 2, False, False]


def test_pivot_plan_is_cached_per_shape():
    plan = _pivot_plan(3, (2, 3, 2))
    assert _pivot_plan(3, (2, 3, 2)) is plan
    assert _pivot_plan(3, (2, 2, 3)) is not plan
    hits = _pivot_plan.cache_info().hits
    _pivot_plan(3, (2, 3, 2))
    assert _pivot_plan.cache_info().hits == hits + 1
    # One step per diagonal pivot, each pivot once with its row's offset,
    # updating only pivots still to come: its column in their rows, their
    # columns in its row; int64 indices.
    n, _ = _macaulay_shape(3, (2, 3, 2))
    assert sorted(k for k, _, _, _ in plan.steps) == list(range(n))
    assert all(row == plan.offset[k] for k, row, _, _ in plan.steps)
    for array in (plan.hot, plan.support, plan.first, plan.last, plan.offset):
        assert array.dtype == np.int64
    assert plan.hot.shape == (plan.steps[-1][2], 1)
    assert plan.support.shape == (plan.steps[-1][3],)
    hot_at = support_at = 0
    for done, (k, row, hot_end, support_end) in enumerate(plan.steps):
        later = [step[0] for step in plan.steps[done + 1 :]]
        assert set(plan.hot[hot_at:hot_end, 0] - k) <= set(plan.offset[later])
        assert set(plan.support[support_at:support_end] - row) <= set(later)
        hot_at, support_at = hot_end, support_end


@pytest.mark.parametrize(
    "nvars, degrees",
    [(2, (3, 2)), (3, (2, 2, 2)), (3, (2, 3, 2)), (4, (2, 3, 4, 2)), (5, (2, 3, 4, 3, 4))],
)
def test_plan_reads_and_writes_inside_the_envelope(nvars, degrees):
    plan = _pivot_plan(nvars, degrees)
    n, _ = _macaulay_shape(nvars, degrees)
    # The rows' envelopes lie back to back, each holding its diagonal.
    width = plan.last - plan.first + 1
    start = plan.offset + plan.first
    assert start[0] == 0 and plan.size == width.sum()
    assert np.array_equal(start[1:], start[:-1] + width[:-1])
    assert np.all((plan.first <= np.arange(n)) & (np.arange(n) <= plan.last))
    rank = np.empty(n, dtype=np.int64)
    rank[[step[0] for step in plan.steps]] = np.arange(n)
    # Every entry step i touches, as (row offsets, columns, the pivot ranks
    # its rows may have): pivot k's own row, then the later rows it updates.
    touched = []
    hot_at = support_at = 0
    for i, (k, row, hot_end, support_end) in enumerate(plan.steps):
        hot = plan.hot[hot_at:hot_end, 0] - k
        columns = np.append(plan.support[support_at:support_end] - row, k)
        touched.append((np.full(columns.size, row), columns, range(i, i + 1)))
        hot_columns = np.tile(columns, hot.size)
        touched.append((np.repeat(hot, columns.size), hot_columns, range(i + 1, n)))
        hot_at, support_at = hot_end, support_end
    for offsets, columns, ranks in touched:
        # The row whose envelope holds the address has the offset meant.
        rows = np.searchsorted(start, offsets + columns, side="right") - 1
        assert np.array_equal(plan.offset[rows], offsets)
        assert np.all((plan.first[rows] <= columns) & (columns <= plan.last[rows]))
        assert np.all((ranks.start <= rank[rows]) & (rank[rows] < ranks.stop))


def test_square_check_runs_the_cached_plan():
    # The square matrix is stored in its shape's plan's envelope; the full
    # rows, 26 x 21, go to the search.
    z1, z2, z3 = R3.gens()
    plans = []
    searched = []

    def square(envelope, plan, p):
        plans.append(plan)
        assert envelope.shape == (plan.size,)
        return False

    def search(rows, ncols, p):
        searched.append(rows.shape)
        return _has_full_column_rank(rows, ncols, p)

    with mock.patch.object(regseq, "_envelope_is_nonsingular", square):
        with mock.patch.object(regseq, "_has_full_column_rank", search):
            _certify_isolated_homogeneous(
                [z1**2 + z2 * z3, z2**3 - z1 * z3**2, z3**2], R3
            )
    assert len(plans) == 1 and plans[0] is _pivot_plan(3, (2, 3, 2))
    assert searched == [(26, 21)]


def test_square_check_stays_within_a_quarter_of_a_dense_matrix():
    # A dense system of (6,5,2,2)'s top-prefix shape: 1820 x 1820 square
    # matrix, 26.5 MB as dense int64; its envelope of 1,077,719 entries is
    # 4.3 MB at 4 bytes each.  Its plan is built beforehand, as a campaign
    # builds it once.
    degrees = (2, 3, 4, 3, 4)
    _pivot_plan(5, degrees)
    ring = ring_over(tuple(f"z{k}" for k in range(5)), PrimeField(1_000_003))
    gens = [random_homogeneous(ring, d, seed=k) for k, d in enumerate(degrees)]
    tracemalloc.start()
    try:
        with recorded_rank_checks() as checks:
            assert _certify_isolated_homogeneous(gens, ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checks == [(1820, 1820, True)]
    assert peak < 1820**2 * 8 / 4


def test_planner_memory_grows_with_the_fill():
    # The same shape's plan: its boolean pattern is 1820^2 bytes (3.3 MB),
    # and buffers reserved for n(n - 1)/2 hot rows and support columns
    # would take 6.6 MB each.  The unwrapped planner leaves the cache alone.
    tracemalloc.start()
    try:
        plan = _pivot_plan.__wrapped__(5, (2, 3, 4, 3, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.size == 1_077_719
    assert peak < 8_000_000


def test_macaulay_shape_is_predicted_and_budgeted():
    # (6,5,2,2)'s top prefix fits the budget; (7,5,3,2)'s does not.
    columns, full_rows = _macaulay_shape(5, (2, 3, 4, 3, 4))
    assert (columns, full_rows) == (1820, 3421)
    assert columns * (columns + full_rows) <= MACAULAY_ENTRY_BUDGET
    assert _macaulay_shape(6, (2, 3, 4, 5, 4, 5)) == (33649, 76245)
    for nvars, degrees in ((3, (2, 3, 2)), (2, (1, 3)), (4, (2, 2, 2, 2))):
        ring = ring_over(("z1", "z2", "z3", "z4")[:nvars], PrimeField(101))
        forms = [random_homogeneous(ring, d, seed=d) for d in degrees]
        columns, full_rows = _macaulay_shape(nvars, degrees)
        plan = _pivot_plan(nvars, degrees)
        # The dense count bounds the envelope.
        assert len(plan.offset) == columns and plan.size <= columns**2
        assert _macaulay_envelope(forms, 101, plan).shape == (plan.size,)
        assert _macaulay_matrix(forms, 101).shape == (full_rows, columns)


def test_oversized_shape_is_inconclusive_before_any_allocation():
    ring = ring_over(tuple(f"z{k}" for k in range(6)), PrimeField(101))
    gens = ring.gens()
    sequence = [g**d for g, d in zip(gens, (2, 3, 4, 5, 4, 5))]
    refuse = mock.Mock(side_effect=AssertionError("built past the budget"))
    with mock.patch.object(regseq, "_pivot_plan", refuse), mock.patch.object(
        regseq, "_macaulay_envelope", refuse
    ), mock.patch.object(regseq, "_macaulay_matrix", refuse):
        verdict = regular_at_origin(sequence, seed=1)
    assert verdict.outcome == INCONCLUSIVE and not verdict.certified
    assert verdict.evidence == ()
    assert "33649 x 33649 (square) and 76245 x 33649 (full)" in verdict.message
    assert "degrees 2, 3, 4, 5, 4, 5 in 6 variables" in verdict.message


def test_rank_check_prime_skips_primes_dividing_a_denominator():
    z1, z2 = R2.gens()
    assert _rank_check_prime([z1 + z2], QQ) == RANK_CHECK_PRIME
    form = z1 * z2 + R2.const(Fraction(1, RANK_CHECK_PRIME)) * z2**2
    assert _rank_check_prime([form], QQ) == 2_147_483_587
    both = form + R2.const(Fraction(1, 2_147_483_587)) * z1**2
    assert _rank_check_prime([both], QQ) == 2_147_483_579
    assert _rank_check_prime([z1], PrimeField(101)) == 101


# -- the array-built matrices and the linear elimination against list oracles ------

ARRAY_DOMAINS = (QQ, PrimeField(101), PrimeField(2**61 - 1))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ARRAY_DOMAINS),
    st.integers(1, 4),
    st.lists(st.integers(1, 3), min_size=4, max_size=4),
    st.integers(0, 2**31),
)
def test_macaulay_matrix_matches_list_oracle(domain, nvars, degrees, seed):
    # Scaling by 2/3 puts a denominator into every coefficient over Q.
    ring = ring_over(("z1", "z2", "z3", "z4")[:nvars], domain)
    forms = [
        random_homogeneous(ring, d, derive_seed(seed, trial=k)).scale(Fraction(2, 3))
        for k, d in enumerate(degrees[:nvars])
    ]
    assume(all(not g.is_zero() for g in forms))
    p = _rank_check_prime(forms, domain)
    # The matrix takes residues; the oracle reduces the forms itself.
    residues = ring_over(ring.variables, PrimeField(p))
    reduced = [g.map_domain(residues) for g in forms]
    # 4-byte residues below 2^31, as over Q at RANK_CHECK_PRIME.
    dtype = object if p == 2**61 - 1 else np.int32
    matrix = _macaulay_matrix(reduced, p)
    assert matrix.dtype == dtype
    assert matrix.tolist() == macaulay_rows_by_lists(forms, p, square=False)
    plan = _pivot_plan(nvars, tuple(degrees[:nvars]))
    envelope = _macaulay_envelope(reduced, p, plan)
    assert envelope.dtype == dtype
    assert envelope_rows(envelope, plan) == macaulay_rows_by_lists(forms, p, square=True)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ARRAY_DOMAINS),
    st.integers(2, 5),
    st.integers(0, 4),
    st.integers(1, 4),
    st.integers(0, 2**31),
)
def test_linear_elimination_matches_substitute(domain, nvars, cuts, degree, seed):
    ring = ring_over(("z1", "z2", "z3", "z4", "z5")[:nvars], domain)
    cuts = min(cuts, nvars - 1)
    members = random_linear_cuts(ring, cuts, seed)
    images = _linear_images(members, ring)
    generic = random_homogeneous(ring, degree, derive_seed(seed, trial=1))
    killed = random_homogeneous(ring, degree - 1, derive_seed(seed, trial=2))
    # A multiple of a cut goes to zero; so, with no cuts, does the zero form.
    gens = [generic, members[0] * killed if members else ring.zero()]
    for g in gens:
        assert _substitute_linear(g, images) == g.substitute(images)
    assert _substitute_linear(gens[1], images).is_zero()


@pytest.mark.parametrize("domain", ARRAY_DOMAINS, ids=["QQ", "GF101", "GF2e61"])
def test_linear_elimination_with_zero_and_repeated_images(domain):
    # Images that are zero, scaled variables, one variable twice and a
    # general form: every shape of linear image, not only the certificate's.
    ring = ring_over(("a", "b", "c", "d"), domain)
    target = ring_over(("x", "y"), domain)
    x, y = target.gens()
    third = target.const(Fraction(1, 3))
    g = random_homogeneous(ring, 3, seed=5) + ring.gen(0) ** 3
    images = [x, target.zero(), x, third * x - y]
    assert _substitute_linear(g, images) == g.substitute(images)
    images = [y, x, third * y, x + y]
    assert _substitute_linear(g, images) == g.substitute(images)
    assert _substitute_linear(ring.zero(), images).is_zero()


def test_linear_images_keep_the_remaining_variables():
    z1, z2, z3 = R3.gens()
    images = _linear_images([z1 + z2 + z3, z2 - z3], R3)
    assert images[0].ring.variables == ("z3",)
    (t,) = images[0].ring.gens()
    assert images == [t.scale(-2), t, t]
    assert _linear_images([z1, z2, z3], R3) is None
    assert _linear_images([], R3) == [R3.gen(0), R3.gen(1), R3.gen(2)]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.sampled_from((2, 7, 101, 2**61 - 1)),
    st.integers(0, 2**31),
)
def test_structured_elimination_matches_dense_rank(nrows, ncols, p, seed):
    # Mostly zero entries, so pivots need row swaps and rows go dependent.
    rng = Rng(seed)
    rows = [
        [rng.below(p) if rng.below(3) == 0 else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    _, pivots = _reduced_row_echelon(rows, PrimeField(p))
    expected = len(pivots) == ncols
    assert _has_full_column_rank(rows, ncols, p) == expected
    dtype = np.int64 if p < 2**31 else object
    assert _has_full_column_rank(np.array(rows, dtype=dtype), ncols, p) == expected
