"""End-to-end acceptance suite.

Each test here is one headline property of the toolkit, checked at full
strength: exact arithmetic identities are verified with zero tolerance,
randomized suites state their sample sizes and pass-rate thresholds
explicitly, and the stated wall-clock budgets are asserted, not assumed.
Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per property; each test also prints a one-line summary of what it measured.

The randomized tests all derive their randomness from fixed master seeds,
so the suite is deterministic end to end.
"""

import json
import math
import time
from fractions import Fraction

import pytest

import test_regseq

from cycover.chain import (
    EQUAL,
    STRICTLY_BELOW,
    UnsupportedCaseError,
    main_case_bound,
    ordering_table,
    ramified_case_bound,
    schedule_chain_product,
)
from cycover.cli import CampaignConfig, run_campaign
from cycover.cover import (
    CHECK_PASS,
    CHECK_UNRESOLVED,
    admissible_hypertangent_levels,
    arc_through_chart_origin,
    branch_truncation_check,
    default_arc_order,
    hypertangent_member,
    hypertangent_multiplicity_check,
    localize,
    random_instance,
    sample_point_off_branch,
    sample_point_on_branch,
    smooth_at,
)
from cycover.family import CoverFamily, enumerate_families
from cycover.parsing import parse_polynomial
from cycover.poly import (
    QQ,
    PrimeField,
    random_homogeneous,
    ring_over,
)
from cycover.regseq import (
    CERTIFIED_REGULAR,
    REFUTED_AT_PREFIX,
    ideal_dimension,
    regular_at_origin,
)
from cycover.report import reports_equal_modulo_timings, without_timings
from cycover.seeds import (
    PURPOSE_ARC,
    PURPOSE_MEMBER,
    PURPOSE_POINT_OFF,
    PURPOSE_POINT_ON,
    Rng,
    derive_seed,
)
from cycover.series import gamma_coefficients, phi_polynomials

from helpers import shuffle
from oracles import ideal, pow_truncated, truncate_degree, vanishing_order

WORKHORSE = CoverFamily(
    dimension=5, base_degree=4, branch_weight=2, cover_degree=2
)
SAMPLING_PRIME = 1_000_003

# The hand-decomposed ideal catalog and the random coordinate-change helper
# are shared with the dimension unit tests; bound here under plain names so
# the test collector does not pick the borrowed class up a second time.
catalog = test_regseq.catalog
linear_change = test_regseq.TestDimensionInvariance.linear_change


# -- 1. truncated roots raised back to the cover degree ---------------------------


def test_truncated_root_powers_recover_the_series():
    """(T_k)^K differs from 1 + sum(w_j) only above degree k, exactly.

    For each cover degree K in {2, 3, 4, 5} this draws 20 random collections
    of homogeneous pieces over the rationals in at most 4 variables, builds
    the truncated K-th root T_k = 1 + sum of the first k root pieces, and
    checks for every k <= 10 that the difference (T_k)^K - (1 + sum w_j)
    vanishes to order at least k + 1 at the origin.  Because truncation at
    degree k is a quotient map, the order claim is equivalent to the degree
    <= k part of the difference being identically zero, which is what the
    clipped arithmetic below computes -- all of it exact.
    """
    started = time.perf_counter()
    max_k = 10
    checks = 0
    for K in (2, 3, 4, 5):
        for index in range(20):
            rng = Rng(derive_seed(2024, trial=K, point=index))
            nvars = 1 + index % 4
            ring = ring_over(tuple(f"v{i}" for i in range(nvars)), QQ)
            candidates = list(range(1, max_k + 1))
            shuffle(rng, candidates)
            degrees = sorted(candidates[: 1 + rng.int_range(0, 3)])
            pieces = {
                d: random_homogeneous(
                    ring, d, derive_seed(31, trial=K, point=index * 16 + d)
                )
                for d in degrees
            }
            w = [pieces.get(j, ring.zero()) for j in range(1, max_k + 1)]
            target = ring.one()
            for piece in w:
                target = target + piece
            phis = phi_polynomials(w, K, max_k)
            root = ring.one()
            origin = (0,) * nvars
            for k in range(1, max_k + 1):
                root = root + phis[k - 1]
                difference = pow_truncated(root, K, k) - truncate_degree(
                    target, k
                )
                order = vanishing_order(difference, origin)
                assert order >= k + 1, (K, index, k, order)
                checks += 1
    elapsed = time.perf_counter() - started
    assert checks == 4 * 20 * max_k
    assert elapsed < 30.0, f"series identity suite took {elapsed:.1f}s"
    print(
        f"series identity: {checks} exact order checks "
        f"(K in 2..5, 20 collections each, k <= {max_k}) in {elapsed:.1f}s"
    )


# -- 2. root coefficient table -----------------------------------------------------


def test_root_coefficients_match_closed_form_and_recurrence():
    """The K-th root coefficients match the closed form, the recurrence,
    and an exponentiate-and-match oracle, exactly, for i <= 50 and K <= 7.

    Closed form: gamma_i = (1/K)(1/K - 1)...(1/K - i + 1) / i!.
    Recurrence:  gamma_1 = 1/K,  gamma_i = gamma_{i-1} (1/K - i + 1) / i.
    Oracle: the one-variable series 1 + sum gamma_i u^i raised to the K-th
    power must equal 1 + u through degree 50.
    """
    top = 50
    line = ring_over(("u",), QQ)
    u = line.gen(0)
    for K in range(2, 8):
        table = gamma_coefficients(K, top)
        alpha = Fraction(1, K)
        rising = Fraction(1)
        previous = None
        series = line.one()
        for i in range(1, top + 1):
            rising *= alpha - (i - 1)
            closed = rising / math.factorial(i)
            assert table[i] == closed, (K, i)
            if i == 1:
                assert table[i] == alpha
            else:
                assert table[i] == previous * (alpha - (i - 1)) / i, (K, i)
            previous = table[i]
            series = series + u.scale(0) + (u**i).scale(table[i])
        power = pow_truncated(series, K, top)
        assert power == line.one() + u, f"K = {K} root fails to exponentiate back"
    spot = gamma_coefficients(2, 3)
    assert spot.coefficients == (
        Fraction(1, 2),
        Fraction(-1, 8),
        Fraction(1, 16),
    )
    print(
        "root coefficients: closed form, recurrence, and K-th power oracle "
        "agree for K <= 7, i <= 50; square-root spot values reproduced"
    )


# -- 3. multiplicity bound chains --------------------------------------------------


def test_bound_chain_products_telescope_exactly():
    """Chain products equal their closed forms on every eligible family.

    Exhaustively enumerates all families with dimension 5..40, branch
    weight >= 3 and base degree <= branch degree.  Where the level schedule
    exists (base degree >= 3) the literal slot-by-slot chain product must
    equal (m/3)((D-1)/l) exactly and the resulting bound must sit strictly
    below the 4/degree threshold; the ramified-case product must equal
    degree/4 exactly (bound exactly on the threshold).  Families whose base
    degree is too small for the schedule must be refused loudly rather than
    certified.  All arithmetic exact, zero tolerance.
    """
    started = time.perf_counter()
    eligible = [
        family
        for family in enumerate_families(40)
        if family.branch_weight >= 3
        and family.base_degree <= family.branch_degree
    ]
    assert eligible, "enumeration produced no eligible families"
    certified = refused = 0
    for family in eligible:
        m = family.base_degree
        l = family.branch_weight
        D = family.branch_degree
        K = family.cover_degree
        if m < 3:
            with pytest.raises(UnsupportedCaseError):
                main_case_bound(family)
            if m < 2:
                with pytest.raises(UnsupportedCaseError):
                    ramified_case_bound(family)
            refused += 1
            continue
        literal = schedule_chain_product(ordering_table(family))
        closed = Fraction(m, 3) * Fraction(D - 1, l)
        assert literal == closed, family
        main = main_case_bound(family)
        assert main.schedule_product == literal
        assert main.product_value == closed
        assert main.bound_value == 1 / closed
        assert main.threshold == Fraction(4, family.degree)
        assert main.bound_value < Fraction(4, m * K), family
        assert main.verdict == STRICTLY_BELOW, family
        ramified = ramified_case_bound(family)
        assert ramified.product_value == Fraction(m * K, 4), family
        assert ramified.bound_value == Fraction(4, m * K)
        assert ramified.verdict == EQUAL, family
        certified += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"chain identity suite took {elapsed:.1f}s"
    print(
        f"bound chains: {certified} families certified exactly, "
        f"{refused} out-of-range families refused, in {elapsed:.2f}s"
    )


# -- 4. dimension and regularity catalog -------------------------------------------

# Hand-checked regularity status for every catalog entry, in the listed
# generator order.  "regular": every prefix cuts the local dimension at the
# origin by exactly one.  ("refuted", p): the prefix of length p fails to
# cut (the recorded local dimension stays too high).  "rejected": the
# sequence is inadmissible as input (longer than the ring, or an entry that
# does not vanish at the origin) and must raise.
REGULARITY_CATALOG = {
    "line-in-3": "regular",  # 3 -> 2 -> 1
    "two-planes": "regular",  # a hypersurface cuts 3 -> 2
    "plane-plus-line": ("refuted", 2),  # V(z1 z2, z1 z3) keeps the plane z1=0
    "origin-3": "regular",  # 3 -> 2 -> 1 -> 0
    "fat-origin": "rejected",  # three generators in two variables
    "line-in-2": "regular",  # 2 -> 1
    "embedded-origin": ("refuted", 2),  # V stays the line z2=0, dimension 1
    "unit": "rejected",  # z1 z2 - 1 does not vanish at the origin
    "skew-origin": "regular",  # 2 -> 1 -> 0
    "fat-axis": "regular",  # 3 -> 2 -> 1
    "quadric-curve": "regular",  # two quadrics share no component
    "line-in-4": "regular",  # 4 -> 3 -> 2 -> 1
    "rotated-origin": "regular",  # equivalent to (z1, z2) in char 0
    "plane-plus-axis": ("refuted", 2),  # V(z1 z3, z2 z3) keeps the plane z3=0
}


def test_dimension_and_regularity_agree_with_catalog():
    """Every hand-decomposed catalog ideal gets the right dimension and the
    right regularity verdict, with zero mismatches, inside the time budget.
    """
    started = time.perf_counter()
    entries = catalog()
    assert len(entries) >= 12
    assert set(REGULARITY_CATALOG) == {label for label, *_ in entries}
    mismatches = []
    for label, ring, gens, expected_dimension in entries:
        if ideal_dimension(ideal(ring, gens)) != expected_dimension:
            mismatches.append((label, "dimension"))
        expected = REGULARITY_CATALOG[label]
        if expected == "rejected":
            with pytest.raises(ValueError):
                regular_at_origin(gens, seed=label.__hash__() & 0xFFFF)
            continue
        verdict = regular_at_origin(gens, seed=101)
        if expected == "regular":
            if verdict.outcome != CERTIFIED_REGULAR:
                mismatches.append((label, verdict.outcome))
        else:
            _, prefix = expected
            if (
                verdict.outcome != REFUTED_AT_PREFIX
                or verdict.refuted_prefix != prefix
            ):
                mismatches.append((label, verdict.outcome))
    elapsed = time.perf_counter() - started
    assert not mismatches, mismatches
    assert elapsed < 60.0, f"catalog suite took {elapsed:.1f}s"
    print(
        f"catalog: {len(entries)} ideals, dimensions and regularity verdicts "
        f"all match the hand decompositions in {elapsed:.2f}s"
    )


# -- 5. dimension is a geometric invariant ------------------------------------------


def test_dimension_invariant_under_linear_changes():
    """ideal_dimension is unchanged under 10 random invertible linear
    coordinate changes per catalog ideal, exactly.
    """
    checks = 0
    for label, ring, gens, expected in catalog():
        for seed in range(1, 11):
            images = linear_change(ring, seed)
            moved = [g.substitute(images) for g in gens]
            assert ideal_dimension(ideal(ring, moved)) == expected, (
                label,
                seed,
            )
            checks += 1
    print(
        f"dimension invariance: {checks} random linear changes "
        "(10 per catalog ideal), all dimensions unchanged"
    )


# -- 6 & 7. arc-order suites on the workhorse family --------------------------------


@pytest.fixture(scope="module")
def arc_suite():
    """Ten random workhorse instances with one off-branch and one on-branch
    smooth chart each, plus five certified arcs through each chart origin.

    Shared by the hypertangent and the branch-truncation suites, which probe
    the same instances from the two sides of the branch locus.
    """
    field = PrimeField(SAMPLING_PRIME)
    master = 77
    levels = admissible_hypertangent_levels(WORKHORSE)
    off_order = default_arc_order(max(levels))
    on_order = 2 * WORKHORSE.cover_degree + 2
    suite = []
    for t in range(10):
        instance = random_instance(WORKHORSE, derive_seed(master, trial=t), field)
        point_off = sample_point_off_branch(
            instance, derive_seed(master, trial=t, purpose=PURPOSE_POINT_OFF)
        )
        chart_off = localize(instance, point_off)
        assert smooth_at(chart_off)
        arcs_off = [
            arc_through_chart_origin(
                chart_off,
                derive_seed(master, trial=t, point=a, purpose=PURPOSE_ARC),
                off_order,
            )
            for a in range(5)
        ]
        point_on = sample_point_on_branch(
            instance, derive_seed(master, trial=t, purpose=PURPOSE_POINT_ON)
        )
        chart_on = localize(instance, point_on)
        assert smooth_at(chart_on)
        arcs_on = [
            arc_through_chart_origin(
                chart_on,
                derive_seed(master, trial=t, point=100 + a, purpose=PURPOSE_ARC),
                on_order,
            )
            for a in range(5)
        ]
        suite.append((t, chart_off, arcs_off, chart_on, arcs_on))
    return {"master": master, "levels": levels, "entries": suite}


def test_hypertangent_members_vanish_to_level_order(arc_suite):
    """Random members of each admissible hypertangent system vanish along
    every certified arc to order at least level + 1.

    10 instances x all admissible levels x 5 arcs.  Every resolved
    measurement must pass; measurements cut off by the arc order bound are
    counted as unresolved, capped at 5% of the total, and never as passes.
    """
    master = arc_suite["master"]
    total = passes = fails = unresolved = 0
    for t, chart, arcs, _, _ in arc_suite["entries"]:
        assert len(arcs) == 5
        for level in arc_suite["levels"]:
            member = hypertangent_member(
                chart,
                level,
                derive_seed(master, trial=t, point=level, purpose=PURPOSE_MEMBER),
            )
            report = hypertangent_multiplicity_check(member, arcs)
            assert report.threshold == level + 1
            # The report's tallies must be exactly the per-record statuses:
            # nothing unresolved may slip into the pass count.
            assert report.pass_count == sum(
                1 for r in report.records if r.status == CHECK_PASS
            )
            assert report.pass_count + report.fail_count + report.unresolved_count == len(
                report.records
            )
            for record in report.records:
                if record.status == CHECK_PASS:
                    assert record.order.infinite or record.order.value >= level + 1
            total += len(report.records)
            passes += report.pass_count
            fails += report.fail_count
            unresolved += report.unresolved_count
    assert fails == 0, f"{fails} resolved arc measurements fell short"
    assert passes == total - unresolved, "every resolved measurement must pass"
    assert unresolved <= total * 0.05, f"{unresolved}/{total} unresolved"
    print(
        f"hypertangent arcs: {passes}/{total} measurements at or above "
        f"level + 1, {unresolved} unresolved (cap 5%), 0 failures"
    )


def test_branch_truncations_vanish_to_truncation_order(arc_suite):
    """On the branch locus, the cover equation minus the high branch tail
    vanishes along every certified arc to order at least k + 1 for each
    truncation level k = 1 .. K - 1, on the same ten instances.
    """
    K = WORKHORSE.cover_degree
    total = passes = fails = unresolved = 0
    for _, _, _, chart, arcs in arc_suite["entries"]:
        assert len(arcs) == 5
        for k in range(1, K):
            report = branch_truncation_check(chart, k, arcs)
            assert report.threshold == k + 1
            assert report.pass_count == sum(
                1 for r in report.records if r.status == CHECK_PASS
            )
            for record in report.records:
                if record.status == CHECK_UNRESOLVED:
                    continue
                assert record.order.infinite or record.order.value >= k + 1, (
                    k,
                    record,
                )
            total += len(report.records)
            passes += report.pass_count
            fails += report.fail_count
            unresolved += report.unresolved_count
    assert fails == 0, f"{fails} resolved truncation measurements fell short"
    assert passes == total - unresolved
    assert unresolved <= total * 0.05
    print(
        f"branch truncations: {passes}/{total} measurements at or above "
        f"k + 1 across k = 1..{K - 1}, {unresolved} unresolved, 0 failures"
    )


# -- 8. regularity campaign on the workhorse family ---------------------------------


def test_regularity_campaign_certifies_sampled_points():
    """A 20-instance campaign (3 off-branch + 2 on-branch points each)
    certifies the local regular sequence at >= 95% of the sampled points,
    logs any refutation with its reproducing seeds, keeps every single
    point-check under 60 s, and finishes well inside 30 minutes.
    """
    config = CampaignConfig(
        family=WORKHORSE,
        prime=SAMPLING_PRIME,
        master_seed=9001,
        trials=20,
        points_off=3,
        points_on=2,
    )
    started = time.perf_counter()
    report, exit_code = run_campaign(config)
    elapsed = time.perf_counter() - started
    point_checks = [
        r for r in report.records if r.get("kind") == "point-check"
    ]
    assert len(point_checks) == config.trials * (
        config.points_off + config.points_on
    )
    certified = sum(
        1
        for r in point_checks
        if r["regularity"]["outcome"] == CERTIFIED_REGULAR
    )
    rate = Fraction(certified, len(point_checks))
    assert rate >= Fraction(95, 100), f"only {rate} of point-checks certified"
    slowest = max(r["seconds"] for r in point_checks)
    assert slowest < 60.0, f"slowest point-check took {slowest:.1f}s"
    assert elapsed < 1800.0, f"campaign took {elapsed:.0f}s"
    for refutation in report.summary["refutations"]:
        assert refutation["seeds"].keys() == {"instance", "point"}
    if certified == len(point_checks):
        assert exit_code == 0
        assert not report.summary["refutations"]
    print(
        f"campaign: {certified}/{len(point_checks)} point-checks certified "
        f"({rate}), slowest {slowest:.1f}s, total {elapsed:.0f}s, "
        f"{len(report.summary['refutations'])} refutations logged"
    )


# -- 9. determinism and parser round-trip -------------------------------------------


def random_polynomial(index):
    """A random polynomial over QQ or a prime field in 1..4 variables."""
    rng = Rng(derive_seed(777, trial=index))
    nvars = 1 + rng.int_range(0, 3)
    domain = (QQ, PrimeField(SAMPLING_PRIME), PrimeField(13))[index % 3]
    ring = ring_over(tuple(f"x{i}" for i in range(nvars)), domain)
    total = ring.zero()
    for _ in range(rng.int_range(0, 8)):
        exps = tuple(rng.int_range(0, 4) for _ in range(nvars))
        if isinstance(domain, PrimeField):
            coeff = domain.of(rng.int_range(1, domain.p - 1))
        else:
            coeff = Fraction(
                (-1) ** rng.int_range(0, 1) * rng.int_range(1, 20),
                rng.int_range(1, 7),
            )
        total = total + ring.monomial(exps, coeff)
    return ring, total


def test_reports_deterministic_and_parser_round_trips():
    """Identical seeds give byte-identical reports once timing data is
    stripped, and rendering any polynomial to text and parsing it back is
    the identity -- checked on 1000 random polynomials with zero failures.
    """
    config = CampaignConfig(
        family=WORKHORSE,
        prime=SAMPLING_PRIME,
        master_seed=4242,
        trials=1,
        points_off=1,
        points_on=1,
    )
    first, _ = run_campaign(config)
    second, _ = run_campaign(config)
    first_json, second_json = first.to_json(), second.to_json()
    assert reports_equal_modulo_timings(first_json, second_json)
    stripped_first = json.dumps(without_timings(json.loads(first_json)), indent=2)
    stripped_second = json.dumps(without_timings(json.loads(second_json)), indent=2)
    assert stripped_first == stripped_second, "stripped reports must match byte for byte"

    failures = 0
    for index in range(1000):
        ring, original = random_polynomial(index)
        if parse_polynomial(original.text(), ring) != original:
            failures += 1
    assert failures == 0, f"{failures}/1000 round-trips failed"
    print(
        "determinism: repeated campaign reports byte-identical modulo "
        "timings; parser round-trip exact on 1000/1000 random polynomials"
    )
