"""Tests for cover instances, localization, sequences, members, arcs, sampling."""

from fractions import Fraction
from math import gcd

import pytest

import cycover.cover
from cycover.cover import (
    ArcOrderRecord,
    ChartLocalization,
    CoverInstance,
    LocalizationError,
    MultiplicityReport,
    SampleBudgetError,
    UnsupportedInstanceError,
    admissible_hypertangent_levels,
    ambient_ring,
    arc_through_chart_origin,
    branch_truncation_check,
    chart_ring,
    default_arc_order,
    default_prime,
    hypertangent_member,
    hypertangent_multiplicity_check,
    instance_mod_p,
    localize,
    random_instance,
    regularity_sequence,
    sample_point_off_branch,
    sample_point_on_branch,
    smooth_at,
    validate_family,
    verify_regularity,
)
from cycover.cover import _line_restriction, _plane_restriction, _sylvester_determinant
from cycover.modular import is_kth_power_residue, poly1_eval
from cycover.poly import QQ, Polynomial, PrimeField, poly_eval, random_homogeneous, ring_over
from cycover.regseq import CERTIFIED_REGULAR
from cycover.series import TruncatedSeries, poly_on_series
from cycover.seeds import Rng
from helpers import truncated_kth_root
from oracles import homogeneous_component, poly_on_series_by_terms, truncate_degree

WORKHORSE = validate_family(5, 4, 2, 2)


@pytest.fixture(scope="module")
def field_instance():
    p = default_prime(WORKHORSE)
    return random_instance(WORKHORSE, seed=42, domain=PrimeField(p))


@pytest.fixture(scope="module")
def off_chart(field_instance):
    return localize(field_instance, sample_point_off_branch(field_instance, seed=7))


@pytest.fixture(scope="module")
def on_chart(field_instance):
    return localize(field_instance, sample_point_on_branch(field_instance, seed=9))


@pytest.fixture(scope="module")
def off_setup(off_chart):
    arcs = [
        arc_through_chart_origin(off_chart, seed=100 + j, order_bound=default_arc_order(3))
        for j in range(4)
    ]
    return off_chart, arcs


@pytest.fixture(scope="module")
def on_setup(on_chart):
    arcs = [
        arc_through_chart_origin(on_chart, seed=200 + j, order_bound=default_arc_order(1))
        for j in range(4)
    ]
    return on_chart, arcs


def _quartic_instance(domain=QQ):
    """A hand instance of the workhorse family with simple charts.

    The base hypersurface passes through (1:0:...:0) and (0:1:1:0:...:0).
    """
    ring = ambient_ring(WORKHORSE, domain)
    x = ring.gens()
    base = x[0] ** 3 * x[1] + x[1] ** 4 - x[2] ** 4
    for i in range(3, 7):
        base = base + x[i] ** 4
    branch = x[0] ** 4 + x[1] ** 4 + x[2] ** 4
    return CoverInstance(family=WORKHORSE, base_form=base, branch_form=branch)


# ---------------------------------------------------------------------------
# Instance validation
# ---------------------------------------------------------------------------


class TestInstance:
    def test_valid_instance(self):
        inst = _quartic_instance()
        assert inst.ring.nvars == 7

    def test_rejects_wrong_base_degree(self):
        ring = ambient_ring(WORKHORSE, QQ)
        x = ring.gens()
        with pytest.raises(ValueError) as err:
            CoverInstance(family=WORKHORSE, base_form=x[0] ** 3, branch_form=x[0] ** 4)
        assert "degree 4" in str(err.value)

    def test_rejects_inhomogeneous_branch(self):
        ring = ambient_ring(WORKHORSE, QQ)
        x = ring.gens()
        f = x[0] ** 4 + x[1] ** 4
        with pytest.raises(ValueError):
            CoverInstance(family=WORKHORSE, base_form=f, branch_form=x[0] ** 4 + x[1])

    def test_rejects_zero_forms(self):
        ring = ambient_ring(WORKHORSE, QQ)
        x = ring.gens()
        with pytest.raises(ValueError):
            CoverInstance(
                family=WORKHORSE, base_form=ring.zero(), branch_form=x[0] ** 4
            )

    def test_rejects_prime_dividing_cover_degree(self):
        for fam, p in ((WORKHORSE, 2), (validate_family(5, 2, 2, 3), 3)):
            K = fam.cover_degree
            with pytest.raises(ValueError) as err:
                random_instance(fam, seed=1, domain=PrimeField(p))
            assert f"prime {p} divides the cover degree K = {K}" in str(err.value)

    def test_requires_exactly_one_branch_description(self):
        ring = ambient_ring(WORKHORSE, QQ)
        x = ring.gens()
        f = x[0] ** 4 + x[1] ** 4
        with pytest.raises(TypeError):
            CoverInstance(family=WORKHORSE, base_form=f)

    def test_mod_p_reduction(self):
        inst = _quartic_instance()
        reduced = instance_mod_p(inst, 101)
        assert isinstance(reduced.domain, PrimeField)
        assert reduced.base_form.degree() == 4
        assert reduced.family == inst.family

    def test_random_instance_respects_degrees(self):
        inst = random_instance(WORKHORSE, seed=5)
        assert inst.base_form.is_homogeneous()
        assert inst.base_form.degree() == 4
        assert inst.branch_form.degree() == 4

    def test_random_instance_deterministic(self):
        a = random_instance(WORKHORSE, seed=5)
        b = random_instance(WORKHORSE, seed=5)
        assert a.base_form == b.base_form
        assert a.branch_form == b.branch_form
        c = random_instance(WORKHORSE, seed=6)
        assert a.base_form != c.base_form


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------


class TestLocalize:
    def test_quadric_pieces(self):
        # base form x0*x1 + x2^2 for the family with base degree 2:
        # at (1:0:...:0) the chart pieces are exactly z1 and z2^2.
        fam = validate_family(5, 2, 4, 2)
        ring = ambient_ring(fam, QQ)
        x = ring.gens()
        base = x[0] * x[1] + x[2] ** 2
        branch = x[0] ** 8
        for i in range(1, 7):
            branch = branch + x[i] ** 8
        inst = CoverInstance(family=fam, base_form=base, branch_form=branch)
        chart = localize(inst, (1, 0, 0, 0, 0, 0, 0))
        z = chart.ring.gens()
        assert chart.pivot == 0
        assert chart.base_piece(1) == z[0]
        assert chart.base_piece(2) == z[1] * z[1]
        assert not chart.on_branch
        assert chart.branch_scale == 1

    def test_pieces_reconstruct_forms(self):
        inst = _quartic_instance()
        chart = localize(inst, (1, 0, 0, 0, 0, 0, 0))
        total = chart.ring.zero()
        for j in range(1, 5):
            total = total + chart.base_piece(j)
        assert total == chart.localized_base
        total = chart.ring.zero()
        for j in range(5):
            total = total + chart.branch_piece(j)
        assert total == chart.localized_branch

    def test_pivot_skips_zero_coordinates(self):
        inst = _quartic_instance()
        # f(0, 1, -1, 0, ..., 0) = 1 - 1 = 0 with x1 as pivot
        chart = localize(inst, (0, 1, 1, 0, 0, 0, 0))
        assert chart.pivot == 1
        assert chart.point[1] == 1

    def test_point_rescaled_to_pivot_one(self):
        inst = _quartic_instance()
        chart = localize(inst, (0, 2, 2, 0, 0, 0, 0))
        assert chart.point == (0, 1, 1, 0, 0, 0, 0)

    def test_rescale_off_branch(self):
        # g at the point is 2, so the localized branch form is divided by 2.
        inst = _quartic_instance()
        chart = localize(inst, (0, 1, 1, 0, 0, 0, 0))
        assert not chart.on_branch
        assert chart.branch_scale == 2
        assert chart.branch_piece(0) == chart.ring.one()

    def test_rational_root_recorded_when_perfect_power(self):
        fam = validate_family(5, 2, 4, 2)
        ring = ambient_ring(fam, QQ)
        x = ring.gens()
        base = x[0] * x[1] + x[2] ** 2
        branch = ring.const(Fraction(9, 4)) * x[0] ** 8 + x[1] ** 8
        inst = CoverInstance(family=fam, base_form=base, branch_form=branch)
        chart = localize(inst, (1, 0, 0, 0, 0, 0, 0))
        assert chart.branch_scale == Fraction(9, 4)

    def test_on_branch_flag(self):
        fam = validate_family(5, 2, 4, 2)
        ring = ambient_ring(fam, QQ)
        x = ring.gens()
        base = x[0] * x[1] + x[2] ** 2
        branch = x[2] * x[0] ** 7 + x[1] ** 8
        inst = CoverInstance(family=fam, base_form=base, branch_form=branch)
        chart = localize(inst, (1, 0, 0, 0, 0, 0, 0))
        assert chart.on_branch
        assert chart.branch_piece(0).is_zero()
        z = chart.ring.gens()
        assert chart.branch_piece(1) == z[1]

    def test_rejects_point_off_hypersurface(self):
        inst = _quartic_instance()
        with pytest.raises(LocalizationError) as err:
            localize(inst, (1, 1, 0, 0, 0, 0, 0))
        assert "hypersurface" in str(err.value)

    def test_rejects_zero_vector(self):
        inst = _quartic_instance()
        with pytest.raises(LocalizationError):
            localize(inst, (0, 0, 0, 0, 0, 0, 0))

    def test_rejects_wrong_length(self):
        inst = _quartic_instance()
        with pytest.raises(LocalizationError):
            localize(inst, (1, 0, 0))

    def test_finite_field_localization(self):
        p = default_prime(WORKHORSE)
        inst = instance_mod_p(_quartic_instance(), p)
        chart = localize(inst, (1, 0, 0, 0, 0, 0, 0))
        assert not chart.on_branch
        assert chart.branch_scale == 1


# ---------------------------------------------------------------------------
# Smoothness
# ---------------------------------------------------------------------------


class TestSmoothness:
    def test_smooth_off_branch(self):
        inst = _quartic_instance()
        assert smooth_at(localize(inst, (1, 0, 0, 0, 0, 0, 0)))

    def test_singular_when_linear_piece_vanishes(self):
        fam = validate_family(5, 2, 4, 2)
        ring = ambient_ring(fam, QQ)
        x = ring.gens()
        base = x[1] ** 2 + x[2] ** 2
        branch = x[0] ** 8
        inst = CoverInstance(family=fam, base_form=base, branch_form=branch)
        chart = localize(inst, (1, 0, 0, 0, 0, 0, 0))
        assert not smooth_at(chart)
        with pytest.raises(LocalizationError):
            regularity_sequence(chart)

    def test_on_branch_needs_independent_linear_pieces(self):
        fam = validate_family(5, 2, 4, 2)
        ring = ambient_ring(fam, QQ)
        x = ring.gens()
        base = x[0] * x[1] + x[2] ** 2
        # dependent: branch linear piece is a multiple of the base one
        dependent = CoverInstance(
            family=fam, base_form=base, branch_form=x[1] * x[0] ** 7
        )
        assert not smooth_at(localize(dependent, (1, 0, 0, 0, 0, 0, 0)))
        # independent: branch linear piece uses a different variable
        independent = CoverInstance(
            family=fam, base_form=base, branch_form=x[2] * x[0] ** 7
        )
        assert smooth_at(localize(independent, (1, 0, 0, 0, 0, 0, 0)))


# ---------------------------------------------------------------------------
# Regularity sequences
# ---------------------------------------------------------------------------


class TestRegularitySequence:
    def test_low_case_shape(self):
        # workhorse family: base degree 4 <= branch degree 4 gives the
        # low case with members q_1..q_4 and the degree-3 root piece.
        p = default_prime(WORKHORSE)
        inst = random_instance(WORKHORSE, seed=42, domain=PrimeField(p))
        pt = sample_point_off_branch(inst, seed=7)
        case = regularity_sequence(localize(inst, pt))
        assert case.tag == "R1a"
        assert len(case.members) == WORKHORSE.dimension
        degrees = [m.degree() for m in case.members]
        assert degrees == [1, 2, 3, 4, 3]

    def test_low_case_root_piece_value(self):
        # With two sheets the degree-3 root piece is
        # w3/2 - (w1/2)(w2/2 - w1^2/8) expanded: check the defining identity
        # (1 + F1 + F2 + F3)^2 = branch form through degree 3 instead.
        inst = _quartic_instance()
        chart = localize(inst, (0, 1, 1, 0, 0, 0, 0))
        case = regularity_sequence(chart)
        phi3 = case.members[-1]
        root = truncated_kth_root(list(chart.branch_pieces[1:]), 2, 3)
        assert truncate_degree(root * root - chart.localized_branch, 3).is_zero()
        # the last member is the degree-3 piece of that root
        assert phi3 == homogeneous_component(root, 3)

    def test_high_case_shape_and_certification(self):
        # smallest family with base degree above branch degree: (6,5,2,2)
        fam = validate_family(6, 5, 2, 2)
        p = default_prime(fam)
        inst = random_instance(fam, seed=2, domain=PrimeField(p))
        pt = sample_point_off_branch(inst, seed=3)
        case = regularity_sequence(localize(inst, pt))
        assert case.tag == "R1b"
        assert len(case.members) == fam.dimension
        degrees = [m.degree() for m in case.members]
        assert degrees == [1, 2, 3, 4, 3, 4]
        verdict = verify_regularity(case, seed=1)
        assert verdict.outcome == CERTIFIED_REGULAR

    def test_on_branch_shape(self):
        p = default_prime(WORKHORSE)
        inst = random_instance(WORKHORSE, seed=42, domain=PrimeField(p))
        pt = sample_point_on_branch(inst, seed=9)
        case = regularity_sequence(localize(inst, pt))
        assert case.tag == "R2"
        assert len(case.members) == WORKHORSE.base_degree + WORKHORSE.cover_degree
        degrees = [m.degree() for m in case.members]
        assert degrees == [1, 2, 3, 4, 1, 2]

    def test_workhorse_certifications(self):
        p = default_prime(WORKHORSE)
        inst = random_instance(WORKHORSE, seed=42, domain=PrimeField(p))
        off = regularity_sequence(localize(inst, sample_point_off_branch(inst, seed=7)))
        on = regularity_sequence(localize(inst, sample_point_on_branch(inst, seed=9)))
        assert verify_regularity(off, seed=3).outcome == CERTIFIED_REGULAR
        assert verify_regularity(on, seed=3).outcome == CERTIFIED_REGULAR

    def test_branch_weight_one_length_violation_is_explicit(self):
        # with branch weight 1 the on-branch sequence (m + K = 7 members)
        # is longer than the 6 chart variables; the case is refused by name.
        fam = validate_family(5, 5, 1, 2)
        ring = ambient_ring(fam, QQ)
        x = ring.gens()
        base = x[0] ** 4 * x[1] + x[2] ** 5
        branch = x[0] * x[2]
        inst = CoverInstance(family=fam, base_form=base, branch_form=branch)
        with pytest.raises(UnsupportedInstanceError) as err:
            regularity_sequence(localize(inst, (1, 0, 0, 0, 0, 0, 0)))
        assert "case R2 has 7 members in 6 chart variables" in str(err.value)
        assert "cannot be a regular sequence" in str(err.value)


# ---------------------------------------------------------------------------
# Hypertangent members
# ---------------------------------------------------------------------------


class TestHypertangentMember:
    def test_admissible_levels(self):
        assert list(admissible_hypertangent_levels(WORKHORSE)) == [1, 2, 3]

    def test_level_one_is_multiple_of_linear_piece(self, off_chart):
        chart = off_chart
        member = hypertangent_member(chart, 1, seed=5)
        assert member.cover_part.is_zero()
        s0 = member.base_multipliers[0]
        assert (member.plain_part - s0 * chart.base_piece(1)).is_zero()

    def test_level_at_cover_degree_brings_cover_part(self, off_chart):
        chart = off_chart
        member = hypertangent_member(chart, 2, seed=5)
        assert len(member.root_multipliers) == 1
        assert member.cover_part == member.root_multipliers[0]
        # the plain part picks up minus the truncated root times s*_0
        root2 = truncated_kth_root(list(chart.branch_pieces[1:]), 2, 2)
        expected = (
            member.base_multipliers[1] * chart.base_piece(1)
            + member.base_multipliers[0]
            * (chart.base_piece(1) + chart.base_piece(2))
            - member.root_multipliers[0] * root2
        )
        assert (member.plain_part - expected).is_zero()

    def test_member_vanishes_at_cover_origin(self, off_chart):
        # the chart origin on the cover has z = 0, y = 1
        chart = off_chart
        domain = chart.domain
        for level in admissible_hypertangent_levels(WORKHORSE):
            member = hypertangent_member(chart, level, seed=8)
            origin = [domain.zero] * chart.ring.nvars + [domain.one]
            assert poly_eval(member.polynomial, origin) == domain.zero

    def test_deterministic_in_seed(self, off_chart):
        a = hypertangent_member(off_chart, 3, seed=5)
        b = hypertangent_member(off_chart, 3, seed=5)
        c = hypertangent_member(off_chart, 3, seed=6)
        assert a.polynomial == b.polynomial
        assert a.polynomial != c.polynomial

    def test_rejects_out_of_range_levels(self, off_chart):
        with pytest.raises(ValueError):
            hypertangent_member(off_chart, 0, seed=1)
        with pytest.raises(ValueError):
            hypertangent_member(off_chart, 4, seed=1)

    def test_rejects_on_branch_chart(self):
        p = default_prime(WORKHORSE)
        inst = random_instance(WORKHORSE, seed=42, domain=PrimeField(p))
        chart = localize(inst, sample_point_on_branch(inst, seed=9))
        with pytest.raises(LocalizationError):
            hypertangent_member(chart, 1, seed=1)


# ---------------------------------------------------------------------------
# Arcs
# ---------------------------------------------------------------------------


class TestArcs:
    def test_default_order(self):
        assert default_arc_order(3) == 8

    def test_off_branch_arc_satisfies_both_equations(self, off_chart):
        arc = arc_through_chart_origin(off_chart, seed=100, order_bound=8)
        assert arc.order_bound == 8
        composed = poly_on_series(
            off_chart.localized_base,
            {n: s for n, s in arc.components.items() if n != "y"},
        )
        assert composed.order() is None
        y = arc.components["y"]
        branch = poly_on_series(
            off_chart.localized_branch,
            {n: s for n, s in arc.components.items() if n != "y"},
        )
        assert (y.pow_int(2) - branch).order() is None
        # normalized sheet: y(0) = 1; chart components vanish at t = 0
        assert y[0] == off_chart.domain.one
        for name in off_chart.ring.variables:
            assert arc.components[name][0] == off_chart.domain.zero

    def test_off_branch_arc_deterministic(self, off_chart):
        a = arc_through_chart_origin(off_chart, seed=100, order_bound=6)
        b = arc_through_chart_origin(off_chart, seed=100, order_bound=6)
        assert a.components == b.components

    def test_on_branch_arc_satisfies_both_equations(self, on_chart):
        K = WORKHORSE.cover_degree
        arc = arc_through_chart_origin(on_chart, seed=200, order_bound=6)
        composed = poly_on_series(
            on_chart.localized_base,
            {n: s for n, s in arc.components.items() if n != "y"},
        )
        assert composed.order() is None
        y = arc.components["y"]
        branch = poly_on_series(
            on_chart.localized_branch,
            {n: s for n, s in arc.components.items() if n != "y"},
        )
        assert (y.pow_int(K) - branch).order() is None
        # on the branch the cover coordinate vanishes at t = 0
        assert y[0] == on_chart.domain.zero

    def test_on_branch_components_respect_cover_degree(self, on_chart):
        K = WORKHORSE.cover_degree
        arc = arc_through_chart_origin(on_chart, seed=200, order_bound=6)
        for name in on_chart.ring.variables:
            series = arc.components[name]
            for j, c in enumerate(series.coeffs):
                if j % K:
                    assert c == on_chart.domain.zero

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize(
        "domain", [QQ, PrimeField(13), PrimeField(17)], ids=["QQ", "GF13", "GF17"]
    )
    def test_on_branch_arcs_in_one_draw(self, domain, K, monkeypatch):
        # Over Q the leading branch constants are almost never K-th powers,
        # and GF(17) has no cube roots of unity, yet an arc takes one lift
        # unless its branch order K*shift has gcd(shift, K) > 1.
        chart = _chart_through_e0(_ONE_DRAW_FAMILIES[K], domain, seed=1)
        calls = _count_arc_lifts(monkeypatch)
        draws = []
        for seed in range(5):
            calls.clear()
            arc = arc_through_chart_origin(chart, seed=seed, order_bound=6)
            shifts = _branch_shifts(chart, calls)
            assert gcd(shifts[-1], K) == 1
            assert all(gcd(shift, K) > 1 for shift in shifts[:-1])
            draws.append(len(shifts))
            _check_on_branch_arc(chart, arc)
        assert draws.count(1) >= 4
        if domain is QQ:
            assert draws == [1] * 5

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("domain", [QQ, PrimeField(13)], ids=["QQ", "GF13"])
    def test_on_branch_arcs_lift_in_u(self, domain, K, monkeypatch):
        # The chart components are series in u = t^K, so the lift runs in u
        # through u^N and the arc is written in t only at the end;
        # ``_check_on_branch_arc`` checks that they are supported on
        # multiples of K.
        chart = _chart_through_e0(_ONE_DRAW_FAMILIES[K], domain, seed=1)
        calls = _count_arc_lifts(monkeypatch)
        for N in range(2, 9):
            calls.clear()
            arc = arc_through_chart_origin(chart, seed=N, order_bound=N)
            assert calls and all(args[3] == N for args, _ in calls)
            assert arc.order_bound == N
            _check_on_branch_arc(chart, arc)

    @pytest.mark.parametrize("K, seed, draws", [(2, 9, 2), (2, 13, 3), (3, 403, 2)])
    def test_on_branch_redraw_when_branch_order_shares_a_factor_with_K(
        self, K, seed, draws, monkeypatch
    ):
        # Pinned seeds whose first draws over GF(13) have a branch order
        # K*shift with gcd(shift, K) > 1, which needs the t^K coefficient of
        # the branch form along the arc to vanish (and for K = 3 the t^(2K)
        # one too).
        chart = _chart_through_e0(_ONE_DRAW_FAMILIES[K], PrimeField(13), seed=1)
        calls = _count_arc_lifts(monkeypatch)
        arc = arc_through_chart_origin(chart, seed=seed, order_bound=6)
        shifts = _branch_shifts(chart, calls)
        assert len(shifts) == draws
        assert all(gcd(shift, K) > 1 for shift in shifts[:-1])
        assert gcd(shifts[-1], K) == 1
        _check_on_branch_arc(chart, arc)

    def test_residual_orders_recorded(self, off_chart):
        arc = arc_through_chart_origin(off_chart, seed=100, order_bound=6)
        assert arc.residual_orders == {"base": 7, "cover": 7}

    def test_rejects_tiny_order_bound(self, off_chart):
        with pytest.raises(ValueError):
            arc_through_chart_origin(off_chart, seed=1, order_bound=1)


_ONE_DRAW_FAMILIES = {2: WORKHORSE, 3: validate_family(5, 2, 2, 3)}


def _chart_through_e0(family, domain, seed):
    """The on-branch chart at (1:0:...:0) of a random instance whose forms
    lose their x0^d terms, so that both vanish there."""
    inst = random_instance(family, seed, domain)
    ring = inst.ring
    e0 = (1,) + (0,) * (ring.nvars - 1)

    def through_e0(F):
        top = (F.degree(),) + (0,) * (ring.nvars - 1)
        return Polynomial(ring, {e: c for e, c in F.terms.items() if e != top})

    inst = CoverInstance(
        family, through_e0(inst.base_form), branch_form=through_e0(inst.branch_form)
    )
    chart = localize(inst, e0)
    assert chart.on_branch and smooth_at(chart)
    return chart


def _count_arc_lifts(monkeypatch) -> list:
    calls = []
    lift = cycover.cover.arc_lift

    def counting(*args):
        lifted = lift(*args)
        calls.append((args, lifted))
        return lifted

    monkeypatch.setattr(cycover.cover, "arc_lift", counting)
    return calls


def _u_series_in_t(s, K):
    """s(t^K) through t^(K·N) for a series s in u known through u^N."""
    coeffs = [s.domain.zero] * (K * s.order_bound + 1)
    for j, c in enumerate(s.coeffs):
        coeffs[K * j] = c
    return TruncatedSeries(s.domain, tuple(coeffs))


def _branch_shifts(chart, calls) -> list:
    """For each recorded lift, a series in u = t^K, the order of the branch
    form along the arc it completes, written in t, divided by K;
    recomputed term by term."""
    K = chart.family.cover_degree
    shifts = []
    for (_, solved, free, _), lifted in calls:
        components = {
            name: _u_series_in_t(lifted if i == solved else free[i], K)
            for i, name in enumerate(chart.ring.variables)
        }
        order = poly_on_series_by_terms(chart.localized_branch, components).order()
        assert order is not None and order % K == 0
        shifts.append(order // K)
    return shifts


def _check_on_branch_arc(chart, arc):
    """Both residuals, recomputed term by term, vanish through the order
    bound; the chart components are series in t^K and y(0) = 0."""
    K = chart.family.cover_degree
    domain = chart.domain
    chart_components = {n: s for n, s in arc.components.items() if n != "y"}
    assert poly_on_series_by_terms(chart.localized_base, chart_components).order() is None
    branch = poly_on_series_by_terms(chart.localized_branch, chart_components)
    y = arc.components["y"]
    assert (y.pow_int(K) - branch).order() is None
    assert y[0] == domain.zero
    # A generic arc leaves the branch locus, so y is nonzero through t^N.
    assert y.order() is not None
    for series in chart_components.values():
        assert series[0] == domain.zero
        assert all(domain.is_zero(c) for j, c in enumerate(series.coeffs) if j % K)


# ---------------------------------------------------------------------------
# Order checks along arcs
# ---------------------------------------------------------------------------


class TestOrderChecks:
    def test_hypertangent_orders_meet_thresholds(self, off_setup):
        chart, arcs = off_setup
        for level in admissible_hypertangent_levels(WORKHORSE):
            member = hypertangent_member(chart, level, seed=11)
            report = hypertangent_multiplicity_check(member, arcs)
            assert report.threshold == level + 1
            assert report.fail_count == 0
            assert report.unresolved_count == 0
            assert report.pass_count == len(arcs)
            for record in report.records:
                assert record.order.exact
                assert record.order.value >= level + 1

    def test_branch_truncation_orders(self, on_setup):
        chart, arcs = on_setup
        report = branch_truncation_check(chart, 1, arcs)
        assert report.threshold == 2
        assert report.fail_count == 0
        assert report.pass_count == len(arcs)

    def test_branch_truncation_rejects_off_branch(self, off_setup):
        chart, arcs = off_setup
        with pytest.raises(LocalizationError):
            branch_truncation_check(chart, 1, arcs)

    def test_branch_truncation_level_range(self, on_setup):
        chart, arcs = on_setup
        with pytest.raises(ValueError):
            branch_truncation_check(chart, 0, arcs)
        with pytest.raises(ValueError):
            branch_truncation_check(chart, 2, arcs)  # cover degree 2: only k=1

    def test_unresolved_when_composition_vanishes_through_bound(self, off_setup):
        chart, arcs = off_setup
        # the localized base form vanishes along every arc through the
        # bound, so its order is only bounded below: unresolved, not a pass.
        from cycover.cover import _lift_to_extended, _extended_ring, _order_records

        extended = _extended_ring(chart)
        member = _lift_to_extended(chart.localized_base, extended)
        records = _order_records(member, arcs, threshold=2)
        assert all(r.status == "unresolved" for r in records)
        assert all(not r.order.exact and not r.order.infinite for r in records)

    def test_zero_member_passes_everywhere(self, off_setup):
        chart, arcs = off_setup
        from cycover.cover import _extended_ring, _order_records

        extended = _extended_ring(chart)
        records = _order_records(extended.zero(), arcs, threshold=100)
        assert all(r.status == "pass" for r in records)
        assert all(r.order.infinite for r in records)

    def test_failing_member_reported(self, off_setup):
        chart, arcs = off_setup
        # a generic linear form does not vanish to order 3 along an arc
        from cycover.cover import _extended_ring, _order_records

        extended = _extended_ring(chart)
        z1 = extended.gen(0)
        records = _order_records(z1, arcs, threshold=3)
        assert any(r.status == "fail" for r in records)
        report = MultiplicityReport(label="probe", threshold=3, records=records)
        assert report.fail_count > 0

    def test_three_sheet_branch_truncations(self):
        fam = validate_family(5, 2, 2, 3)
        p = default_prime(fam)
        inst = random_instance(fam, seed=1, domain=PrimeField(p))
        chart = localize(inst, sample_point_on_branch(inst, seed=4))
        arcs = [
            arc_through_chart_origin(chart, seed=300 + j, order_bound=default_arc_order(2))
            for j in range(3)
        ]
        for k in (1, 2):
            report = branch_truncation_check(chart, k, arcs)
            assert report.fail_count == 0
            assert report.pass_count == len(arcs)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


class TestSampling:
    def test_off_branch_point_properties(self, field_instance):
        p = field_instance.domain.p
        pt = sample_point_off_branch(field_instance, seed=7)
        assert poly_eval(field_instance.base_form, pt) == 0
        g = poly_eval(field_instance.branch_form, pt)
        assert g != 0
        assert is_kth_power_residue(g, WORKHORSE.cover_degree, p)

    def test_on_branch_point_properties(self, field_instance):
        pt = sample_point_on_branch(field_instance, seed=9)
        assert poly_eval(field_instance.base_form, pt) == 0
        assert poly_eval(field_instance.branch_form, pt) == 0
        assert any(c != 0 for c in pt)

    def test_sampling_deterministic(self, field_instance):
        assert sample_point_off_branch(field_instance, seed=7) == sample_point_off_branch(
            field_instance, seed=7
        )
        assert sample_point_on_branch(field_instance, seed=9) == sample_point_on_branch(
            field_instance, seed=9
        )

    def test_different_seeds_move_the_point(self, field_instance):
        points = {sample_point_off_branch(field_instance, seed=s) for s in range(5)}
        assert len(points) > 1

    def test_sampling_requires_prime_field(self):
        inst = _quartic_instance()
        with pytest.raises(ValueError):
            sample_point_off_branch(inst, seed=1)

    def test_sampling_requires_compatible_prime(self):
        fam = validate_family(5, 2, 2, 3)
        # 101 - 1 = 100 is not divisible by 3
        inst = random_instance(fam, seed=1, domain=PrimeField(101))
        with pytest.raises(ValueError) as err:
            sample_point_off_branch(inst, seed=1)
        assert "1 mod" in str(err.value)

    def test_line_restrictions_match_plane_substitution(self, field_instance):
        # The line a + x*c + r*d restricted through compose_series gives the
        # coefficients in r of the plane restriction through
        # Polynomial.substitute at s = x.
        p = field_instance.domain.p
        plane = ring_over(("s", "r"), field_instance.domain)
        s_gen, r_gen = plane.gens()
        rng = Rng(5)
        for F in (field_instance.base_form, field_instance.branch_form):
            a, c, d = (tuple(rng.below(p) for _ in range(7)) for _ in range(3))
            restricted = F.substitute(
                [plane.const(ai) + plane.const(ci) * s_gen + plane.const(di) * r_gen
                 for ai, ci, di in zip(a, c, d)]
            )
            for x in (0, 1, 5, p - 1):
                at = tuple((ai + x * ci) % p for ai, ci in zip(a, c))
                expected = [0] * (F.degree() + 1)
                for (es, er), coeff in restricted.terms.items():
                    expected[er] = (expected[er] + coeff * pow(x, es, p)) % p
                assert list(_line_restriction(F, F.degree(), at, d)) == expected

    @pytest.mark.parametrize("p", [13, 1_000_003, 2**61 - 1], ids=["13", "1000003", "2^61-1"])
    def test_plane_slices_match_line_restrictions(self, p):
        # The on-branch sampler restricts a form to the plane a + s*c + r*d
        # once and reads the slice at s = x by Horner over the s-columns;
        # each slice must equal the line restriction at anchor a + x*c.
        field = PrimeField(p)
        ring = ring_over(tuple(f"x{i}" for i in range(7)), field)
        rng = Rng(p)
        for degree in (1, 2, 3, 4):
            F = random_homogeneous(ring, degree, seed=degree)
            a, c, d = (tuple(rng.below(p) for _ in range(7)) for _ in range(3))
            columns = _plane_restriction(F, degree, a, c, d)
            assert len(columns) == degree + 1
            assert columns[degree][0] == poly_eval(F, d)
            for x in list(range(17)) + [rng.below(p), p - 1]:
                at = tuple((ai + x * ci) % p for ai, ci in zip(a, c))
                assert [poly1_eval(col, x, p) for col in columns] == list(
                    _line_restriction(F, degree, at, d)
                )

    def test_sylvester_determinant_is_the_resultant(self):
        # Res((X - 2)(X - 3), X - 5) = (5 - 2)(5 - 3) = 6 (monic, degrees 2
        # and 1), and a common root makes it vanish.
        p = 101
        assert _sylvester_determinant([6, p - 5, 1], [p - 5, 1], p) == 6
        assert _sylvester_determinant([6, p - 5, 1], [p - 3, 1], p) == 0

    def test_off_branch_avoids_branch_locus(self, field_instance):
        for s in range(6):
            pt = sample_point_off_branch(field_instance, seed=s)
            assert poly_eval(field_instance.branch_form, pt) != 0
