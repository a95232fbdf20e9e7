#!/usr/bin/env python3
"""Point-check benchmark for cycover.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; cycover is imported from its ``src``.
With ``--trace 0`` the benchmark sends one untimed warm-up point-check, then
whole rounds of point-checks, one at a time (a closed loop with one client),
for as many rounds as fit in ``--seconds`` seconds of point-check time (at
least one), and prints the end-to-end metrics.  With
``--trace 1`` it runs the workload's fixed trace rounds twice, untraced and
traced, and prints self time and counts per point-check for each layer.
Either way every output is checked, and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record of the run goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_STARTS = 5

PER_LAYER = (
    # (metric, unit, where the tracer keeps it)
    ("cover.sample_off_s", "s", "cover.sample_off"),
    ("cover.sample_on_s", "s", "cover.sample_on"),
    ("modular.poly1_roots_s", "s", "modular.poly1_roots"),
    ("modular.det_mod_s", "s", "modular.det_mod"),
    ("cover.localize_s", "s", "cover.localize"),
    ("poly.substitute_s", "s", "poly.substitute"),
    ("poly.substitute_calls", "count", "poly.substitute"),
    ("cover.regularity_sequence_s", "s", "cover.regularity_sequence"),
    ("series.phi_polynomials_s", "s", "series.phi_polynomials"),
    ("cover.verify_regularity_s", "s", "cover.verify_regularity"),
    ("regseq.regular_at_origin_s", "s", "regseq.regular_at_origin"),
    ("regseq.cut_trials", "count", "regseq.cut_trials"),
    ("cover.arc_off_s", "s", "cover.arc_off"),
    ("cover.arc_on_s", "s", "cover.arc_on"),
    ("series.arc_lift_s", "s", "series.arc_lift"),
    ("series.arc_lift_calls", "count", "series.arc_lift"),
    ("series.poly_on_series_s", "s", "series.poly_on_series"),
    ("series.poly_on_series_calls", "count", "series.poly_on_series"),
    ("series.series_kth_root_s", "s", "series.series_kth_root"),
    ("series.series_products", "count", "series.series_products"),
    ("cover.hypertangent_member_s", "s", "cover.hypertangent_member"),
    ("cover.order_checks_s", "s", "cover.order_checks"),
    ("series.ord_along_arc_s", "s", "series.ord_along_arc"),
    ("poly.polynomials_built", "count", "poly.polynomials_built"),
    ("parsing.parse_instance_file_s", "s", "parsing.parse_instance_file"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; nothing is measured."""


def load_cycover():
    """Import cycover from this checkout's ``src`` and from nowhere else."""
    package = SOURCE / "cycover"
    if not (package / "__init__.py").is_file():
        raise BenchmarkError(f"no cycover sources under {SOURCE}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    import cycover.cli  # noqa: F401  (loads every module on the path)

    loaded = Path(sys.modules["cycover"].__file__).resolve().parent
    if loaded != package.resolve():
        raise BenchmarkError(f"imported cycover from {loaded}, not {package}")


def prepare(workload, seed: int, round_index: int):
    """The inputs of one round, ready to send."""
    requests = workloads.make_round(workload, seed, round_index)
    for request in requests:
        workloads.prepare(request)
    return requests


def setup(workload, seed: int):
    load_cycover()
    return prepare(workload, seed, 0)


def time_setup(workload, seed: int) -> list:
    """Seconds from a fresh interpreter to inputs ready, once per start."""
    samples = []
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", workload.name, "--seed", str(seed),
    ]
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            if child.wait() != 0 or line.strip() != "ready":
                raise BenchmarkError("a fresh start failed to set up the inputs")
        samples.append(elapsed)
    return samples


def outcome(request, sent):
    """(failed, problems) for one sent point-check.

    A failure is an exception, a sampling failure or a verdict other than
    CertifiedRegular; problems are wrong outputs of point-checks that did
    not fail.
    """
    if isinstance(sent, BaseException):
        return True, []
    report, code = sent
    if not report.records or any(r.get("verdict") != oracle.CERTIFIED for r in report.records):
        return True, []
    return False, workloads.problems(request, report, code)


def send(request):
    try:
        return workloads.send(request)
    except Exception as error:  # counted as a failed point-check
        print(f"point-check raised {error!r}", file=sys.stderr)
        return error


def timed(workload, seed: int, seconds: float):
    requests = setup(workload, seed)
    setup_samples = time_setup(workload, seed)
    rounds, busy, attempted, failed, found = [], 0.0, 0, 0, []

    warmup = workloads.warmup_request(workload, seed)
    workloads.prepare(warmup)
    bad, problems = outcome(warmup, send(warmup))
    found += ["warm-up point-check failed"] if bad else [f"warm-up: {p}" for p in problems]

    round_index = 0
    while True:
        durations = []
        for request in requests:
            start = time.perf_counter()
            sent = send(request)
            elapsed = time.perf_counter() - start
            busy += elapsed
            attempted += 1
            bad, problems = outcome(request, sent)
            if bad:
                failed += 1
                continue
            durations.append(elapsed)
            found += [f"round {round_index}: {p}" for p in problems]
        rounds.append(durations)
        round_index += 1
        # Stop before a round that would take the point-check time past
        # ``seconds``, so that a run's length does not follow the host's
        # speed: a (6,5,2,2) round alone takes about 25 s.
        if busy + busy / round_index > seconds:
            break
        requests = prepare(workload, seed, round_index)
    # The median is taken over rounds of their mean point-check time.  A
    # workhorse round mixes 3 off- and 2 on-branch points, and the median of
    # single point-checks would fall in the upper tail of the off-branch
    # group, which spread 17% between runs against 11% for this one.
    completed = [d for d in rounds if d]
    metrics = {
        "point_checks_per_s": (sum(map(len, rounds)) / busy, "1/s"),
        "point_check_p50_s": (
            statistics.median(map(statistics.fmean, completed)) if completed else busy,
            "s",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }
    detail = {
        "rounds": round_index,
        "durations_s": rounds,
        "setup_samples_s": setup_samples,
    }
    return attempted, failed, found, metrics, detail


def traced(workload, seed: int):
    requests = setup(workload, seed)
    for round_index in range(1, workload.trace_rounds):
        requests += prepare(workload, seed, round_index)

    start = time.perf_counter()
    plain = [send(request) for request in requests]
    plain_seconds = time.perf_counter() - start

    tracer = Tracer()
    sent, arcs = [], []
    start = time.perf_counter()
    with tracer:
        for request in requests:
            before = len(tracer.arcs)
            sent.append(send(request))
            arcs.append(tracer.arcs[before:])
    traced_seconds = time.perf_counter() - start

    attempted, failed, found = len(requests), 0, []
    for index, (request, first, second, drawn) in enumerate(
        zip(requests, plain, sent, arcs)
    ):
        bad, problems = outcome(request, first)
        if bad or outcome(request, second)[0]:
            failed += 1
            continue
        if oracle.without_timings(first[0].as_dict()) != oracle.without_timings(
            second[0].as_dict()
        ):
            problems.append("traced report differs from the untraced one")
        point = workloads.request_point(request, second[0])
        if not drawn:
            problems.append("no arcs were drawn")
        problems += workloads.arc_problems(request, point, [arc for _, arc in drawn])
        found += [f"point-check {index}: {p}" for p in problems]

    n = len(requests)
    totals = {"s": tracer.self_seconds, "count": tracer.calls}
    metrics = {name: (totals[unit].get(key, 0) / n, unit) for name, unit, key in PER_LAYER}
    detail = {
        "untraced_seconds": plain_seconds,
        "traced_seconds": traced_seconds,
        "overhead": traced_seconds / plain_seconds,
        "traced_seconds_per_point_check": traced_seconds / n,
        "self_seconds": dict(tracer.self_seconds),
        "inclusive_seconds": dict(tracer.inclusive_seconds),
        "calls": dict(tracer.calls),
    }
    return attempted, failed, found, metrics, detail


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        attempted, failed, found, metrics, detail = traced(workload, seed)
    else:
        attempted, failed, found, metrics, detail = timed(workload, seed, seconds)
    return {
        "correct": not found,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": found,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.setup_only:
            setup(workload, args.seed)
            print("ready", flush=True)
            return 0
        result = run(workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"benchmark: {error}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    for problem in result["problems"]:
        print(f"wrong output: {problem}", file=sys.stderr)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
