"""The benchmark's workloads: seeded inputs, requests and output checks.

A request is one point-check.  Campaign workloads send each point-check as a
one-point campaign of a fresh random instance, given only a master seed and
a family; ``rational-5332`` sends an instance file text and one point to
``run_certify``.  Rounds keep the mix of off- and on-branch points fixed, so
every run attempts whole rounds of the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import oracle

PRIME = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "campaign" or "rational"
    family: Tuple[int, int, int, int]  # (M, m, l, K)
    off_per_round: int
    on_per_round: int
    trace_rounds: int

    @property
    def ambient(self) -> int:
        return self.family[0] + 2

    def order_check_count(self, on_branch: bool) -> int:
        M, m, l, K = self.family
        return K - 1 if on_branch else min(m - 1, K * l - 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("workhorse-5422", "campaign", (5, 4, 2, 2), 3, 2, 1),
        # Off-branch only: on-branch (6,5,2,2) point-checks took 23.5 to
        # 39.6 s, as their arcs are redrawn a random number of times.
        Workload("regularity-6522", "campaign", (6, 5, 2, 2), 1, 0, 1),
        Workload("rational-5332", "rational", (5, 3, 3, 2), 1, 0, 2),
    )
}


@dataclass
class Request:
    """One point-check and what the benchmark knows about its input."""

    workload: Workload
    on_branch: bool
    master_seed: Optional[int] = None  # campaigns
    text: Optional[str] = None  # rational instance file
    point: Optional[tuple] = None  # rational point, integer coordinates
    f: Optional[dict] = None
    g: Optional[dict] = None
    instance_seed: Optional[int] = None  # campaigns


# -- input generation ------------------------------------------------------------


def make_round(workload: Workload, seed: int, round_index: int) -> List[Request]:
    requests = []
    sides = [False] * workload.off_per_round + [True] * workload.on_per_round
    for slot, on_branch in enumerate(sides):
        rng = oracle.SplitMix(seed, round_index, slot)
        if workload.kind == "campaign":
            requests.append(
                Request(workload, on_branch, master_seed=rng.next() >> 1)
            )
        else:
            requests.append(rational_request(workload, rng))
    return requests


def warmup_request(workload: Workload, seed: int) -> Request:
    """The point-check sent untimed before a timed run, from a stream of its
    own.  Campaigns warm up on a (5,4,2,2) off-branch point, which runs every
    layer a (6,5,2,2) point-check runs in a fifteenth of its time."""
    if workload.kind == "campaign":
        workload = WORKLOADS["workhorse-5422"]
    return make_round(workload, seed, -1)[0]


def prepare(request: Request) -> None:
    """Make a request ready to send.

    A campaign instance is built by cycover from the master seed, and its
    forms are kept to check the sampled points.  An instance file is ready
    as generated: parsing it is part of its point-check, as it is for
    ``cycover certify FILE``.
    """
    from cycover.cover import random_instance
    from cycover.family import CoverFamily
    from cycover.poly import PrimeField
    from cycover.seeds import derive_seed

    if request.workload.kind == "rational":
        return
    family = CoverFamily(*request.workload.family)
    request.instance_seed = derive_seed(request.master_seed, trial=0)
    instance = random_instance(family, request.instance_seed, PrimeField(PRIME))
    request.f = dict(instance.base_form.terms)
    request.g = dict(instance.branch_form.terms)


def _random_form(rng: oracle.SplitMix, nvars: int, degree: int) -> dict:
    """Half of all monomials, chosen at random, with nonzero coefficients
    in [-9, 9]; a fixed term count keeps the cost of instances alike."""
    monomials = list(oracle.exponents(nvars, degree))
    for i in range(len(monomials) - 1, 0, -1):
        j = rng.below(i + 1)
        monomials[i], monomials[j] = monomials[j], monomials[i]
    form = {}
    for exps in monomials[: len(monomials) // 2]:
        form[exps] = rng.between(1, 9) * (1 if rng.below(2) else -1)
    return form


def rational_request(workload: Workload, rng: oracle.SplitMix) -> Request:
    """A (5,3,3,2) instance over Q and an off-branch rational point on it.

    The point has nonzero coordinates in [-3, 3], and its first coordinate,
    the pivot, is 2 or 3 up to sign, so the chart has to rescale it.  The
    random base form f0 is adjusted to f = P0^m f0 - f0(P) x0^m, which
    vanishes at P; draws where f is singular at P or g vanishes at P are
    redrawn.
    """
    M, m, l, K = workload.family
    n = workload.ambient
    while True:
        point = [rng.between(2, 3)] + [rng.between(1, 3) for _ in range(n - 1)]
        point = tuple(c * (1 if rng.below(2) else -1) for c in point)
        f0 = _random_form(rng, n, m)
        g = _random_form(rng, n, K * l)
        f = {e: c * point[0] ** m for e, c in f0.items()}
        top = (m,) + (0,) * (n - 1)
        f[top] = f.get(top, 0) - oracle.evaluate(f0, point, None)
        f = {e: c for e, c in f.items() if c}
        if oracle.evaluate(f, point, None) != 0:
            raise AssertionError("adjusted base form misses the point")
        gradient = [
            oracle.evaluate(
                {
                    e[:j] + (e[j] - 1,) + e[j + 1 :]: c * e[j]
                    for e, c in f.items()
                    if e[j]
                },
                point,
                None,
            )
            for j in range(n)
        ]
        if any(gradient) and oracle.evaluate(g, point, None) != 0:
            break
    text = instance_text(workload.family, f, g)
    return Request(workload, False, text=text, point=point, f=f, g=g)


def _form_text(form: dict) -> str:
    pieces = []
    for exps, c in sorted(form.items(), reverse=True):
        factors = [str(abs(c))] + [
            f"x{j}" if e == 1 else f"x{j}^{e}" for j, e in enumerate(exps) if e
        ]
        sign = "-" if c < 0 else "+"
        pieces.append((sign, "*".join(factors)))
    lines = []
    for i in range(0, len(pieces), 8):
        chunk = pieces[i : i + 8]
        line = " ".join(f"{s} {t}" for s, t in chunk)
        lines.append(line)
    first = lines[0]
    lines[0] = first[2:] if first.startswith("+ ") else first
    return "\n    ".join(lines)


def instance_text(family, f: dict, g: dict) -> str:
    M, m, l, K = family
    return (
        f"# generated benchmark instance\nM = {M}\nm = {m}\nl = {l}\nK = {K}\n"
        f"f = {_form_text(f)}\ng = {_form_text(g)}\n"
    )


# -- requests --------------------------------------------------------------------


def send(request: Request):
    """Run one point-check through cycover's public entry points.

    Returns the report document and the exit code.  The module attributes
    are looked up at call time, so a tracer sees these calls too.
    """
    from cycover import cli, parsing
    from cycover.family import CoverFamily

    workload = request.workload
    if workload.kind == "campaign":
        config = cli.CampaignConfig(
            family=CoverFamily(*workload.family),
            prime=PRIME,
            master_seed=request.master_seed,
            trials=1,
            points_off=0 if request.on_branch else 1,
            points_on=1 if request.on_branch else 0,
            workers=1,
        )
        return cli.run_campaign(config)
    document = parsing.parse_instance_file(request.text)
    options = cli.CertifyOptions(
        points_off=0,
        points_on=0,
        explicit_points=(tuple(Fraction(c) for c in request.point),),
    )
    return cli.run_certify(document, options)


# -- checks ------------------------------------------------------------------------


def problems(request: Request, report, code: int) -> List[str]:
    """Everything wrong with one point-check's report."""
    workload = request.workload
    out = []
    if code != 0:
        out.append(f"exit code {code}")
    if len(report.records) != 1:
        return out + [f"{len(report.records)} records for one point"]
    record = report.records[0]
    out += oracle.record_problems(
        record, request.on_branch, workload.order_check_count(request.on_branch)
    )
    if record.get("kind") != "point-check":
        return out
    point = request_point(request, report)
    if record.get("pivot") != oracle.pivot_of(point):
        out.append(f"pivot {record.get('pivot')} is not the first nonzero coordinate")
    if workload.kind == "campaign":
        if record["seeds"].get("instance") != request.instance_seed:
            out.append("record names another instance seed")
        out += point_problems(request, point)
    else:
        if oracle.normalized(point, None) != oracle.normalized(request.point, None):
            out.append("reported point differs from the generated point")
        if oracle.evaluate(request.f, point, None) != 0:
            out.append("reported point is off the base hypersurface")
    return out


def request_point(request: Request, report) -> tuple:
    """The point a report says it checked."""
    convert = int if request.workload.kind == "campaign" else Fraction
    return tuple(convert(c) for c in report.records[0]["point"])


def point_problems(request: Request, point: tuple) -> List[str]:
    """A sampled point must lie on f = 0 mod p, and on g = 0 exactly when it
    is on the branch; off it, g must be a nonzero K-th power residue."""
    K = request.workload.family[3]
    if all(c % PRIME == 0 for c in point):
        return ["sampled the zero vector"]
    out = []
    if oracle.evaluate(request.f, point, PRIME) != 0:
        out.append("sampled point is off the base hypersurface")
    g_value = oracle.evaluate(request.g, point, PRIME)
    if request.on_branch and g_value != 0:
        out.append("on-branch point has g != 0")
    if not request.on_branch and (
        g_value == 0 or not oracle.is_kth_power_residue(g_value, K, PRIME)
    ):
        out.append("off-branch point has g = 0 or g not a K-th power residue")
    return out


def arc_problems(request: Request, point: tuple, arcs) -> List[str]:
    """Check every arc drawn at ``point`` with the benchmark's own series."""
    modulus = PRIME if request.workload.kind == "campaign" else None
    K = request.workload.family[3]
    out = []
    for arc in arcs:
        components = {name: list(s.coeffs) for name, s in arc.components.items()}
        out += oracle.arc_problems(request.f, request.g, K, point, components, modulus)
    return out
