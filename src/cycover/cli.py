"""Command-line tools: certify cover instances and run sampling campaigns.

Subcommands
-----------

``family M m l K``
    Validate family parameters and print derived invariants together with
    the telescoping bound certificates that apply to the family.
``bound M m l K``
    Only the bound certificates, with full block-by-block detail.
``series K N``
    The Taylor table of the K-th root together with a truncated-root
    self-check on a deterministic random collection of graded pieces.
``parse EXPR --vars ...``
    Parse a polynomial expression and print its canonical form (debugging
    aid for the instance file format).
``localize FILE --point c0,c1,...``
    Chart data at one point: pivot, branch position, smoothness, and the
    regularity-sequence case tag.
``certify FILE``
    The full per-point verification pipeline: localization, smoothness,
    regularity certificate, and arc-based multiplicity checks (hypertangent
    levels off the branch divisor, cover-equation truncations on it).
``campaign (--family M,m,l,K | FILE)``
    Repeated certification over fresh random instances and sampled points,
    with aggregated statistics and reproducing seeds for every refutation.

Exit codes: 0 when everything checked is certified, 1 when any check is
refuted or fails, 2 for unusable input (bad syntax, bad parameters), and
3 when results are inconclusive (budgets exhausted, unsupported inputs).

Every report is deterministic for a fixed input and seed, byte-for-byte
apart from the timing fields.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .chain import (
    UnsupportedCaseError,
    main_case_bound,
    ramified_case_bound,
)
from .cover import (
    CoverInstance,
    LocalizationError,
    SampleBudgetError,
    UnsupportedInstanceError,
    admissible_hypertangent_levels,
    arc_through_chart_origin,
    branch_truncation_check,
    default_arc_order,
    default_prime,
    hypertangent_member,
    hypertangent_multiplicity_check,
    instance_mod_p,
    localize,
    random_instance,
    regularity_sequence,
    require_sampling_prime,
    sample_point_off_branch,
    sample_point_on_branch,
    smooth_at,
    verify_regularity,
)
from .family import CoverFamily, FamilyConstraintError, validate_family
from .parsing import (
    InstanceDocument,
    InstanceFileError,
    ParseError,
    is_variable_name,
    parse_instance_file,
    parse_polynomial,
    read_instance_path,
)
from .poly import QQ, PrimeField, random_homogeneous, ring_over
from .regseq import (
    CERTIFIED_REGULAR,
    DEFAULT_PAIR_BUDGET,
    INCONCLUSIVE,
    REFUTED_AT_PREFIX,
)
from .report import (
    VERDICT_CERTIFIED,
    VERDICT_INCONCLUSIVE,
    VERDICT_REFUTED,
    VERDICT_UNSUPPORTED,
    ReportDocument,
    input_digest,
    rational_text,
    worst_verdict,
)
from .seeds import (
    PURPOSE_ARC,
    PURPOSE_LINEAR_CUTS,
    PURPOSE_MEMBER,
    PURPOSE_POINT_OFF,
    PURPOSE_POINT_ON,
    PURPOSE_SERIES_CHECK,
    derive_seed,
)
from .series import phi_polynomials, gamma_coefficients

__all__ = [
    "CheckOptions",
    "CertifyOptions",
    "CampaignConfig",
    "check_point",
    "run_certify",
    "run_campaign",
    "main",
    "EXIT_CERTIFIED",
    "EXIT_REFUTED",
    "EXIT_INPUT_ERROR",
    "EXIT_INCONCLUSIVE",
]

EXIT_CERTIFIED = 0
EXIT_REFUTED = 1
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {
    VERDICT_CERTIFIED: EXIT_CERTIFIED,
    VERDICT_REFUTED: EXIT_REFUTED,
    VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE,
    VERDICT_UNSUPPORTED: EXIT_INCONCLUSIVE,
}

_REGULARITY_VERDICT = {
    CERTIFIED_REGULAR: VERDICT_CERTIFIED,
    REFUTED_AT_PREFIX: VERDICT_REFUTED,
    INCONCLUSIVE: VERDICT_INCONCLUSIVE,
}

BRANCH_OFF = "off"
BRANCH_ON = "on"


def exit_code_for(verdict: str) -> int:
    return _VERDICT_EXIT[verdict]


# -- option dataclasses --------------------------------------------------------


@dataclass(frozen=True)
class CheckOptions:
    """Per-point verification settings shared by certify and campaign runs.

    ``arc_order`` of None means each check uses the default truncation
    order for its highest threshold.  ``cut_trials`` is the number of
    independent random linear-cut draws per regularity prefix before a
    failure is reported; ``gb_budget`` caps the pair workload of the
    Groebner run that annotates a refuted prefix with its local dimension.
    """

    arc_count: int = 5
    arc_order: Optional[int] = None
    cut_trials: int = 5
    gb_budget: int = DEFAULT_PAIR_BUDGET

    def __post_init__(self):
        if self.arc_count < 1:
            raise ValueError("arc count must be at least 1")
        if self.arc_order is not None and self.arc_order < 2:
            raise ValueError("arc truncation order must be at least 2")
        if self.cut_trials < 1:
            raise ValueError("cut trials must be at least 1")
        if self.gb_budget < 1:
            raise ValueError("Groebner budget must be positive")


@dataclass(frozen=True)
class CertifyOptions:
    """Settings for ``certify``: which points to check and how hard."""

    points_off: int = 1
    points_on: int = 1
    explicit_points: Tuple[Tuple[Fraction, ...], ...] = ()
    prime: Optional[int] = None
    seed: Optional[int] = None
    checks: CheckOptions = field(default_factory=CheckOptions)

    def __post_init__(self):
        if self.points_off < 0 or self.points_on < 0:
            raise ValueError("sampled point counts cannot be negative")
        if not self.explicit_points and self.points_off + self.points_on < 1:
            raise ValueError("certify needs at least one point to check")


@dataclass(frozen=True)
class CampaignConfig:
    """Settings for ``campaign``: repeated certification with statistics.

    When ``instance_text`` is None every trial draws a fresh random
    instance of ``family`` over GF(prime); otherwise all trials reuse the
    instance described by that file text (reduced mod ``prime`` when the
    file works over the rationals; a file over GF(q) needs prime = q).  The
    sampling prime must satisfy
    prime = 1 (mod K); the config is rejected before any work otherwise.
    Workers above 1 check the (trial, point) tasks in separate processes;
    results are merged in task order, so reports do not depend on timing.
    """

    family: CoverFamily
    prime: int
    master_seed: int = 0
    trials: int = 1
    points_off: int = 3
    points_on: int = 2
    instance_text: Optional[str] = None
    workers: int = 1
    checks: CheckOptions = field(default_factory=CheckOptions)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("a campaign needs at least one trial")
        if self.points_off < 0 or self.points_on < 0:
            raise ValueError("point counts cannot be negative")
        if self.points_off + self.points_on < 1:
            raise ValueError("a campaign needs at least one point per trial")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        require_sampling_prime(self.family, self.prime, self.points_on > 0)
        if self.instance_text is not None:
            instance = _fixed_instance(self.instance_text, self.prime)
            if instance.family != self.family:
                raise ValueError(
                    "the fixed instance file describes a different family "
                    "than the campaign configuration"
                )


# -- record helpers -------------------------------------------------------------


def _point_json(point: Sequence) -> list:
    out = []
    for coordinate in point:
        if isinstance(coordinate, Fraction):
            out.append(rational_text(coordinate))
        else:
            out.append(int(coordinate))
    return out


def _regularity_record(verdict) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "outcome": verdict.outcome,
        "verdict": _REGULARITY_VERDICT[verdict.outcome],
        "prefixes_certified": sum(
            1 for item in verdict.evidence if item.certified
        ),
        "prefixes_total": len(verdict.evidence),
    }
    if verdict.refuted_prefix is not None:
        record["refuted_prefix"] = verdict.refuted_prefix
    if verdict.message:
        record["message"] = verdict.message
    return record


def _check_record(report) -> Dict[str, Any]:
    if report.fail_count > 0:
        verdict = VERDICT_REFUTED
    elif report.unresolved_count > 0 or report.pass_count == 0:
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = VERDICT_CERTIFIED
    return {
        "label": report.label,
        "threshold": report.threshold,
        "arcs": len(report.records),
        "pass": report.pass_count,
        "fail": report.fail_count,
        "unresolved": report.unresolved_count,
        "verdict": verdict,
    }


def check_point(
    instance: CoverInstance,
    point: Sequence,
    *,
    seed: int,
    options: CheckOptions,
    source: str,
    point_index: int,
    trial: Optional[int] = None,
    seed_record: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """Run the full verification pipeline at one point; never raises for
    mathematical findings (singular point, refuted regularity, failed or
    unresolved order checks) — those become the record's verdict."""
    start = time.perf_counter()
    record: Dict[str, Any] = {"kind": "point-check"}
    if trial is not None:
        record["trial"] = trial
    record["point_index"] = point_index
    record["source"] = source
    record["point"] = _point_json(point)
    record["seeds"] = dict(seed_record) if seed_record else {"point": seed}

    chart = localize(instance, point)
    record["pivot"] = chart.pivot
    record["branch_position"] = BRANCH_ON if chart.on_branch else BRANCH_OFF
    verdicts: List[str] = []

    smooth = smooth_at(chart)
    record["smooth"] = smooth
    if not smooth:
        record["reason"] = (
            "the base hypersurface is singular at this point (degenerate "
            "initial pieces in the local chart)"
        )
        record["verdict"] = VERDICT_REFUTED
        record["seconds"] = time.perf_counter() - start
        return record

    try:
        case = regularity_sequence(chart)
    except ValueError as error:
        # e.g. branch weight 1 on the branch divisor: the stated sequence
        # is longer than the chart allows, a documented rejection.
        record["case"] = None
        record["reason"] = str(error)
        record["verdict"] = VERDICT_UNSUPPORTED
        record["seconds"] = time.perf_counter() - start
        return record

    record["case"] = case.tag
    record["sequence_length"] = len(case.members)
    regularity = verify_regularity(
        case,
        seed=derive_seed(seed, purpose=PURPOSE_LINEAR_CUTS),
        trials=options.cut_trials,
        budget=options.gb_budget,
    )
    record["regularity"] = _regularity_record(regularity)
    verdicts.append(record["regularity"]["verdict"])

    family = instance.family
    checks: List[Dict[str, Any]] = []
    if chart.on_branch:
        max_threshold = family.cover_degree
        order = options.arc_order or default_arc_order(max_threshold)
    else:
        levels = list(admissible_hypertangent_levels(family))
        if not levels:
            # Base degree 1: no hypertangent level exists off the branch, so
            # no arcs are drawn and the regularity verdict stands.
            record["arc_order"] = None
            record["order_checks"] = checks
            record["verdict"] = worst_verdict(verdicts)
            record["seconds"] = time.perf_counter() - start
            return record
        order = options.arc_order or default_arc_order(levels[-1])
    record["arc_order"] = order
    try:
        arcs = [
            arc_through_chart_origin(
                chart, derive_seed(seed, trial=arc_index, purpose=PURPOSE_ARC), order
            )
            for arc_index in range(options.arc_count)
        ]
    except (SampleBudgetError, ArithmeticError) as error:
        # e.g. 64 on-branch draws whose branch order K*shift all had
        # gcd(shift, K) > 1; or an internal fault such as a lifted arc that
        # fails its residual recheck, which leaves the point unresolved
        # rather than refuted.
        record["reason"] = str(error)
        record["verdict"] = worst_verdict(verdicts + [VERDICT_INCONCLUSIVE])
        record["seconds"] = time.perf_counter() - start
        return record

    if chart.on_branch:
        for level in range(1, family.cover_degree):
            checks.append(_check_record(branch_truncation_check(chart, level, arcs)))
    else:
        for level in levels:
            member = hypertangent_member(
                chart, level, derive_seed(seed, trial=level, purpose=PURPOSE_MEMBER)
            )
            checks.append(_check_record(hypertangent_multiplicity_check(member, arcs)))
    record["order_checks"] = checks
    verdicts.extend(check["verdict"] for check in checks)

    record["verdict"] = worst_verdict(verdicts)
    record["seconds"] = time.perf_counter() - start
    return record


def _check_sampled_point(
    instance: CoverInstance,
    side: str,
    index: int,
    master_seed: int,
    options: CheckOptions,
    trial: Optional[int] = None,
) -> Dict[str, Any]:
    """Sample the index-th point on one side of the branch divisor and
    check it.

    A sampler fault ("sampled point fails re-verification", or an
    exhausted draw budget) is an internal fault, never a refutation: it
    becomes an inconclusive sampling-failure record.  Campaigns pass their
    ``trial``; their records name it, and their seeds name the instance's.
    """
    if side == BRANCH_OFF:
        sampler, purpose = sample_point_off_branch, PURPOSE_POINT_OFF
    else:
        sampler, purpose = sample_point_on_branch, PURPOSE_POINT_ON
    # certify's sampled points draw trial 0's seeds.
    point_seed = derive_seed(master_seed, trial=trial or 0, point=index, purpose=purpose)
    seeds = {} if trial is None else {"instance": derive_seed(master_seed, trial=trial)}
    seeds["point"] = point_seed
    source = f"sampled-{side}"
    try:
        point = sampler(instance, point_seed)
    except (SampleBudgetError, ArithmeticError) as error:
        record: Dict[str, Any] = {"kind": "sampling-failure"}
        if trial is not None:
            record["trial"] = trial
        record.update(
            point_index=index,
            source=source,
            seeds=seeds,
            reason=str(error),
            verdict=VERDICT_INCONCLUSIVE,
        )
        return record
    return check_point(
        instance,
        point,
        seed=point_seed,
        options=options,
        source=source,
        point_index=index,
        trial=trial,
        seed_record=seeds,
    )


# -- certify --------------------------------------------------------------------


def _resolve_field_instance(
    document: InstanceDocument, prime: Optional[int], need_sampling: bool
) -> Tuple[CoverInstance, Optional[int]]:
    """The instance to check and the effective prime, honoring overrides.

    Priority: an explicit prime argument, then the file's prime, then (when
    points must be sampled) the family's default sampling prime.  Rational
    instances are reduced; a file already over GF(q) cannot be re-reduced
    to a different prime.
    """
    instance = document.instance
    current = instance.domain.p if isinstance(instance.domain, PrimeField) else None
    wanted = prime if prime is not None else (current or document.prime)
    if wanted is None and need_sampling:
        wanted = default_prime(document.family)
    if wanted is None:
        return instance, None
    if current is not None:
        if wanted != current:
            raise ValueError(
                f"the instance file works over GF({current}); it cannot be "
                f"rechecked over GF({wanted})"
            )
        return instance, current
    return instance_mod_p(instance, wanted), wanted


def _summarize(report: ReportDocument) -> str:
    counts = {
        VERDICT_CERTIFIED: 0,
        VERDICT_REFUTED: 0,
        VERDICT_INCONCLUSIVE: 0,
        VERDICT_UNSUPPORTED: 0,
    }
    for record in report.records:
        verdict = record.get("verdict")
        if verdict is not None:
            counts[verdict] += 1
    overall = worst_verdict(
        record["verdict"] for record in report.records if "verdict" in record
    )
    report.summary["checks_total"] = sum(counts.values())
    report.summary["certified"] = counts[VERDICT_CERTIFIED]
    report.summary["refuted"] = counts[VERDICT_REFUTED]
    report.summary["inconclusive"] = counts[VERDICT_INCONCLUSIVE]
    report.summary["unsupported"] = counts[VERDICT_UNSUPPORTED]
    report.summary["verdict"] = overall
    return overall


def run_certify(
    document: InstanceDocument, options: CertifyOptions
) -> Tuple[ReportDocument, int]:
    """Check an instance at explicit and/or sampled points.

    Mathematical findings (singular point, refuted or inconclusive checks)
    are reported in records and drive the exit code; only unusable input
    raises.
    """
    started = time.perf_counter()
    master_seed = (
        options.seed
        if options.seed is not None
        else (document.seed if document.seed is not None else 0)
    )
    need_sampling = options.points_off + options.points_on > 0
    report = ReportDocument(
        command="certify", input_digest=input_digest(document.source_text)
    )

    instance, prime = _resolve_field_instance(
        document, options.prime, need_sampling
    )
    family = document.family
    if need_sampling:
        if prime is None:
            raise ValueError(
                "sampling points requires a prime field; give --prime or "
                "drop the sampled point counts"
            )
        require_sampling_prime(family, prime, options.points_on > 0)

    report.options = {
        "prime": prime,
        "seed": master_seed,
        "points_off": options.points_off,
        "points_on": options.points_on,
        "explicit_points": len(options.explicit_points),
        **asdict(options.checks),
    }

    for index, point in enumerate(options.explicit_points):
        coords = tuple(instance.domain.of(c) for c in point)
        report.add_record(
            check_point(
                instance,
                coords,
                seed=derive_seed(master_seed, point=index),
                options=options.checks,
                source="explicit",
                point_index=index,
            )
        )

    for side, count in ((BRANCH_OFF, options.points_off), (BRANCH_ON, options.points_on)):
        for index in range(count):
            report.add_record(
                _check_sampled_point(instance, side, index, master_seed, options.checks)
            )

    overall = _summarize(report)
    report.timings["total_seconds"] = time.perf_counter() - started
    return report, exit_code_for(overall)


# -- campaign -------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _fixed_instance(text: str, prime: int) -> CoverInstance:
    """A fixed campaign instance over GF(``prime``), as
    ``_resolve_field_instance`` puts it there.  The config check and every
    task of a campaign use the same one, so it is parsed once per process
    for each (file text, prime) pair."""
    return _resolve_field_instance(parse_instance_file(text), prime, True)[0]


def _campaign_task(payload: tuple) -> Dict[str, Any]:
    """One (trial, point) unit of campaign work.  The payload is (config,
    trial, side, index); the config is a frozen dataclass, so it pickles
    to worker processes as it is, and reports stay order-deterministic."""
    config, trial, side, index = payload
    if config.instance_text is None:
        instance = random_instance(
            config.family,
            derive_seed(config.master_seed, trial=trial),
            PrimeField(config.prime),
        )
    else:
        instance = _fixed_instance(config.instance_text, config.prime)
    return _check_sampled_point(
        instance, side, index, config.master_seed, config.checks, trial=trial
    )


def run_campaign(config: CampaignConfig) -> Tuple[ReportDocument, int]:
    """Certify sampled points on repeated (usually fresh random) instances.

    Task order, and therefore report content, is independent of worker
    count: records are merged in (trial, off points, on points) order.
    """
    started = time.perf_counter()
    payloads = [
        (config, trial, side, index)
        for trial in range(config.trials)
        for side, count in ((BRANCH_OFF, config.points_off), (BRANCH_ON, config.points_on))
        for index in range(count)
    ]

    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as executor:
            records = list(executor.map(_campaign_task, payloads))
    else:
        records = [_campaign_task(payload) for payload in payloads]

    if config.instance_text is not None:
        digest = input_digest(config.instance_text)
    else:
        digest = input_digest(
            f"family={astuple(config.family)} prime={config.prime} "
            f"seed={config.master_seed} trials={config.trials} "
            f"off={config.points_off} on={config.points_on}"
        )
    report = ReportDocument(command="campaign", input_digest=digest)
    report.options = {
        "family": asdict(config.family),
        "prime": config.prime,
        "seed": config.master_seed,
        "trials": config.trials,
        "points_off": config.points_off,
        "points_on": config.points_on,
        "fixed_instance": config.instance_text is not None,
        **asdict(config.checks),
    }
    report.records = records

    overall = _summarize(report)
    points_checked = sum(1 for r in records if r["kind"] == "point-check")
    certified = sum(
        1
        for r in records
        if r["kind"] == "point-check" and r["verdict"] == VERDICT_CERTIFIED
    )
    sampling_failures = sum(1 for r in records if r["kind"] == "sampling-failure")
    refutations = [
        {
            "trial": r.get("trial"),
            "point_index": r["point_index"],
            "source": r["source"],
            "seeds": r["seeds"],
        }
        for r in records
        if r.get("verdict") == VERDICT_REFUTED
    ]
    report.summary["points_checked"] = points_checked
    report.summary["sampling_failures"] = sampling_failures
    report.summary["pass_rate"] = (
        rational_text(Fraction(certified, points_checked))
        if points_checked
        else None
    )
    report.summary["refutations"] = refutations
    # Worker count lives with the runtime data: it cannot affect results
    # (tasks are merged in task order), so it is exempt from byte comparisons.
    report.timings["workers"] = config.workers
    report.timings["total_seconds"] = time.perf_counter() - started
    return report, exit_code_for(overall)


# -- one-shot command handlers ----------------------------------------------------


def _family_parameters_record(family: CoverFamily) -> Dict[str, Any]:
    return {
        "kind": "family",
        **asdict(family),
        "degree": family.degree,
        "branch_degree": family.branch_degree,
        "ambient_variables": family.ambient_variable_count,
        "chart_variables": family.chart_variable_count,
        "description": family.describe(),
    }


def _bound_record(certificate) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "kind": "bound-certificate",
        "case": certificate.case_tag,
        "blocks": [
            {
                "lower": block.lower,
                "upper": block.upper,
                "value": block.value,
                "empty": block.is_empty,
            }
            for block in certificate.blocks
        ],
        "product": certificate.product_value,
        "closed_form": certificate.closed_form,
        "bound": certificate.bound_value,
        "threshold": certificate.threshold,
        "comparison": certificate.verdict,
        "margin": certificate.margin,
        "description": certificate.describe(),
    }
    if certificate.schedule_product is not None:
        record["schedule_product"] = certificate.schedule_product
    return record


def _bound_verdict_for_case(certificate) -> str:
    # The off-branch chain must land strictly below the threshold; the
    # ramified chain is an identity and must land exactly on it.
    from .chain import EQUAL, STRICTLY_BELOW

    if certificate.case_tag == "MainCase":
        expected, flagged = STRICTLY_BELOW, EQUAL
    else:
        expected, flagged = EQUAL, None
    if certificate.verdict == expected:
        return VERDICT_CERTIFIED
    if flagged is not None and certificate.verdict == flagged:
        return VERDICT_INCONCLUSIVE
    return VERDICT_REFUTED


def _bound_records(family: CoverFamily, report: ReportDocument) -> None:
    for label, builder in (("MainCase", main_case_bound), ("RamifiedCase", ramified_case_bound)):
        try:
            certificate = builder(family)
        except UnsupportedCaseError as error:
            report.add_record(
                {
                    "kind": "bound-certificate",
                    "case": label,
                    "applies": False,
                    "reason": str(error),
                    "verdict": VERDICT_UNSUPPORTED,
                }
            )
            continue
        record = _bound_record(certificate)
        record["applies"] = True
        record["verdict"] = _bound_verdict_for_case(certificate)
        report.add_record(record)


def handle_family(args) -> Tuple[ReportDocument, int]:
    family = validate_family(args.M, args.m, args.l, args.K)
    report = ReportDocument(
        command="family",
        input_digest=input_digest(f"{args.M},{args.m},{args.l},{args.K}"),
    )
    report.add_record(_family_parameters_record(family))
    _bound_records(family, report)
    # The family itself is valid; bound availability is informational here.
    report.summary["family"] = family.describe()
    report.summary["verdict"] = VERDICT_CERTIFIED
    return report, EXIT_CERTIFIED


def handle_bound(args) -> Tuple[ReportDocument, int]:
    family = validate_family(args.M, args.m, args.l, args.K)
    report = ReportDocument(
        command="bound",
        input_digest=input_digest(f"{args.M},{args.m},{args.l},{args.K}"),
    )
    _bound_records(family, report)
    overall = _summarize(report)
    return report, exit_code_for(overall)


def handle_series(args) -> Tuple[ReportDocument, int]:
    if args.K < 2:
        raise ValueError("the root index K must be at least 2")
    if args.N < 1:
        raise ValueError("the truncation order N must be at least 1")
    report = ReportDocument(
        command="series",
        input_digest=input_digest(f"K={args.K} N={args.N} seed={args.seed}"),
    )
    report.options = {"K": args.K, "N": args.N, "seed": args.seed}
    table = gamma_coefficients(args.K, args.N)
    report.add_record(
        {
            "kind": "root-taylor-table",
            "root_index": args.K,
            "coefficients": list(table.coefficients),
        }
    )

    # Self-check: the truncated K-th root of 1 + sum of random graded pieces,
    # raised to the K-th power, matches the input through degree N.
    ring = ring_over(("u", "v"), QQ)
    pieces = [
        random_homogeneous(
            ring, j, derive_seed(args.seed, trial=j, purpose=PURPOSE_SERIES_CHECK)
        )
        for j in range(1, args.N + 1)
    ]
    phis = phi_polynomials(pieces, args.K, args.N)
    root = ring.one()
    for phi in phis:
        root = root + phi
    power = ring.one()
    for _ in range(args.K):
        power = power * root
    target = ring.one()
    for piece in pieces:
        target = target + piece
    difference = power - target
    mismatch = [
        exps
        for exps, _ in difference.terms.items()
        if sum(exps) <= args.N
    ]
    passed = not mismatch
    report.add_record(
        {
            "kind": "root-self-check",
            "pieces": len(pieces),
            "verdict": VERDICT_CERTIFIED if passed else VERDICT_REFUTED,
            "detail": (
                f"(truncated root)^{args.K} matches the input through "
                f"degree {args.N}"
                if passed
                else "truncated root identity violated"
            ),
        }
    )
    overall = _summarize(report)
    return report, exit_code_for(overall)


def handle_parse(args) -> Tuple[ReportDocument, int]:
    names = tuple(args.vars.replace(",", " ").split())
    if not names:
        raise ValueError("--vars needs at least one variable name")
    for name in names:
        if not is_variable_name(name):
            raise ValueError(f"invalid variable name {name!r} in --vars")
    domain = PrimeField(args.prime) if args.prime else QQ
    ring = ring_over(names, domain)
    value = parse_polynomial(args.expression, ring)
    report = ReportDocument(
        command="parse", input_digest=input_digest(args.expression)
    )
    report.options = {"vars": list(names), "prime": args.prime}
    report.add_record(
        {
            "kind": "parsed-polynomial",
            "canonical": value.text(),
            "terms": len(value.terms),
            "degree": None if value.is_zero() else value.degree(),
            "homogeneous": value.is_homogeneous(),
        }
    )
    report.summary["canonical"] = value.text()
    report.summary["verdict"] = VERDICT_CERTIFIED
    return report, EXIT_CERTIFIED


def _parse_point_spec(text: str, expected: int) -> Tuple[Fraction, ...]:
    pieces = [piece.strip() for piece in text.split(",")]
    if len(pieces) != expected:
        raise ValueError(
            f"point needs {expected} comma-separated coordinates, got "
            f"{len(pieces)}"
        )
    try:
        return tuple(Fraction(piece) for piece in pieces)
    except (ValueError, ZeroDivisionError) as error:
        raise ValueError(f"bad point coordinate: {error}") from None


def handle_localize(args) -> Tuple[ReportDocument, int]:
    document = read_instance_path(args.file)
    instance, prime = _resolve_field_instance(document, args.prime, False)
    point = tuple(
        instance.domain.of(c)
        for c in _parse_point_spec(args.point, instance.ring.nvars)
    )
    report = ReportDocument(
        command="localize", input_digest=input_digest(document.source_text)
    )
    report.options = {"prime": prime, "point": _point_json(point)}
    chart = localize(instance, point)
    record: Dict[str, Any] = {
        "kind": "localization",
        "point": _point_json(point),
        "pivot": chart.pivot,
        "branch_position": BRANCH_ON if chart.on_branch else BRANCH_OFF,
        "branch_scale": chart.branch_scale,
        "smooth": smooth_at(chart),
    }
    if not record["smooth"]:
        record["verdict"] = VERDICT_REFUTED
        record["reason"] = "the base hypersurface is singular at this point"
        report.add_record(record)
        overall = _summarize(report)
        return report, exit_code_for(overall)
    try:
        case = regularity_sequence(chart)
        record["case"] = case.tag
        record["sequence_degrees"] = [member.degree() for member in case.members]
        record["verdict"] = VERDICT_CERTIFIED
    except ValueError as error:
        record["case"] = None
        record["reason"] = str(error)
        record["verdict"] = VERDICT_UNSUPPORTED
    report.add_record(record)
    overall = _summarize(report)
    return report, exit_code_for(overall)


def _check_options(args) -> CheckOptions:
    """The per-point settings from the flags ``_add_check_flags`` adds."""
    return CheckOptions(
        arc_count=args.arc_count,
        arc_order=args.arc_order,
        cut_trials=args.cut_trials,
        gb_budget=args.gb_budget,
    )


def handle_certify(args) -> Tuple[ReportDocument, int]:
    document = read_instance_path(args.file)
    explicit = tuple(
        _parse_point_spec(spec, document.family.ambient_variable_count)
        for spec in (args.point or ())
    )
    points_off = args.points_off if args.points_off is not None else (0 if explicit else 1)
    points_on = args.points_on if args.points_on is not None else (0 if explicit else 1)
    options = CertifyOptions(
        points_off=points_off,
        points_on=points_on,
        explicit_points=explicit,
        prime=args.prime,
        seed=args.seed,
        checks=_check_options(args),
    )
    return run_certify(document, options)


def handle_campaign(args) -> Tuple[ReportDocument, int]:
    if (args.family is None) == (args.file is None):
        raise ValueError(
            "give exactly one instance source: --family M,m,l,K or an "
            "instance file"
        )
    instance_text = None
    if args.file is not None:
        document = read_instance_path(args.file)
        instance_text = document.source_text
        family = document.family
        _, prime = _resolve_field_instance(document, args.prime, True)
    else:
        pieces = args.family.split(",")
        if len(pieces) != 4:
            raise ValueError("--family needs four integers: M,m,l,K")
        try:
            numbers = [int(piece) for piece in pieces]
        except ValueError:
            raise ValueError("--family needs four integers: M,m,l,K") from None
        family = validate_family(*numbers)
        prime = args.prime if args.prime is not None else default_prime(family)
    config = CampaignConfig(
        family=family,
        prime=prime,
        master_seed=args.seed,
        trials=args.trials,
        points_off=args.points_off,
        points_on=args.points_on,
        instance_text=instance_text,
        workers=args.workers,
        checks=_check_options(args),
    )
    return run_campaign(config)


# -- argument parsing --------------------------------------------------------------


def _add_check_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--arc-order", type=int, default=None,
        help="truncation order for verification arcs (default: per check)",
    )
    parser.add_argument(
        "--arc-count", type=int, default=5,
        help="number of random arcs per multiplicity check (default 5)",
    )
    parser.add_argument(
        "--cut-trials", type=int, default=5,
        help="random linear-cut draws per regularity prefix (default 5)",
    )
    parser.add_argument(
        "--gb-budget", type=int, default=DEFAULT_PAIR_BUDGET,
        help="pair budget for the Groebner run that decides a regularity "
        "prefix by its local dimension when every cut draw failed",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycover",
        description=(
            "Exact verification tools for cyclic covers of hypersurfaces: "
            "localization, regularity certificates, arc multiplicity "
            "checks, and telescoping degree bounds."
        ),
    )
    parser.add_argument(
        "--output", "-o", default=None,
        help="write the JSON report to this path instead of stdout",
    )
    # The same flag is accepted after the subcommand; SUPPRESS keeps an
    # absent subcommand flag from clobbering a value given globally.
    output_flag = argparse.ArgumentParser(add_help=False)
    output_flag.add_argument(
        "--output", "-o", default=argparse.SUPPRESS,
        help="write the JSON report to this path instead of stdout",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    sub = subparsers.add_parser(
        "family",
        parents=[output_flag],
        help="validate family parameters and show derived data",
    )
    for name in ("M", "m", "l", "K"):
        sub.add_argument(name, type=int)
    sub.set_defaults(handler=handle_family)

    sub = subparsers.add_parser(
        "bound", parents=[output_flag],
        help="telescoping bound certificates for a family"
    )
    for name in ("M", "m", "l", "K"):
        sub.add_argument(name, type=int)
    sub.set_defaults(handler=handle_bound)

    sub = subparsers.add_parser(
        "series", parents=[output_flag],
        help="K-th root Taylor table plus a truncation self-check"
    )
    sub.add_argument("K", type=int)
    sub.add_argument("N", type=int)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(handler=handle_series)

    sub = subparsers.add_parser(
        "parse", parents=[output_flag],
        help="parse one polynomial expression and print it canonically"
    )
    sub.add_argument("expression")
    sub.add_argument(
        "--vars", required=True,
        help="comma- or space-separated variable names, e.g. 'x0,x1,x2'",
    )
    sub.add_argument("--prime", type=int, default=None)
    sub.set_defaults(handler=handle_parse)

    sub = subparsers.add_parser(
        "localize", parents=[output_flag],
        help="chart data for one point of an instance"
    )
    sub.add_argument("file")
    sub.add_argument(
        "--point", required=True,
        help="comma-separated coordinates, rationals allowed",
    )
    sub.add_argument("--prime", type=int, default=None)
    sub.set_defaults(handler=handle_localize)

    sub = subparsers.add_parser(
        "certify", parents=[output_flag],
        help="full verification pipeline for one instance"
    )
    sub.add_argument("file")
    sub.add_argument(
        "--point", action="append",
        help="explicit point to check (repeatable); disables sampling "
        "defaults",
    )
    sub.add_argument("--points-off", type=int, default=None)
    sub.add_argument("--points-on", type=int, default=None)
    sub.add_argument("--prime", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    _add_check_flags(sub)
    sub.set_defaults(handler=handle_certify)

    sub = subparsers.add_parser(
        "campaign", parents=[output_flag],
        help="repeat certification over random instances/points"
    )
    sub.add_argument("file", nargs="?", default=None)
    sub.add_argument("--family", help="four integers M,m,l,K", default=None)
    sub.add_argument("--prime", type=int, default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--trials", type=int, default=1)
    sub.add_argument("--points-off", type=int, default=3)
    sub.add_argument("--points-on", type=int, default=2)
    sub.add_argument("--workers", type=int, default=1)
    _add_check_flags(sub)
    sub.set_defaults(handler=handle_campaign)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.handler(args)
    except UnsupportedInstanceError as error:
        print(f"unsupported: {error}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ParseError, InstanceFileError, FamilyConstraintError, LocalizationError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    text = report.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
