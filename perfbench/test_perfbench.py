"""Tests of the benchmark itself: every workload at a tiny size, and checks
that reject wrong outputs.

    python3 -m pytest perfbench -q

A (6,5,2,2) point-check alone takes about 25 s, so the tiny regularity run
uses the (5,4,2,2) family; rounds shrink to one or two points.
"""

import dataclasses
import json
import shutil
import subprocess
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "workhorse-5422": dict(off_per_round=1, on_per_round=1),
    "regularity-6522": dict(family=(5, 4, 2, 2), off_per_round=1, on_per_round=0),
    "rational-5332": dict(trace_rounds=1),
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == [m for m, _, _ in run.PER_LAYER]


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_is_correct(name):
    result = run.run(tiny(name), seed=3, seconds=0, trace=True)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.make_round(tiny(name), 3, 0))
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_timed_run_reports_end_to_end_metrics():
    workload = dataclasses.replace(
        workloads.WORKLOADS["workhorse-5422"], off_per_round=1, on_per_round=0
    )
    result = run.run(workload, seed=5, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_traced_counts_repeat_exactly():
    workload = dataclasses.replace(tiny("workhorse-5422"), on_per_round=0)
    first, second = (run.run(workload, 4, 0, True)["metrics"] for _ in range(2))
    counts = [m for m, unit, _ in run.PER_LAYER if unit == "count"]
    assert all(first[m]["value"] > 0 for m in counts)
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}


@pytest.fixture(scope="module")
def checked_point():
    """One off-branch campaign point-check with the arcs it drew."""
    run.load_cycover()
    request = workloads.make_round(tiny("workhorse-5422"), 9, 0)[0]
    workloads.prepare(request)
    with Tracer() as tracer:
        report, code = workloads.send(request)
    point = workloads.request_point(request, report)
    assert workloads.problems(request, report, code) == []
    arcs = [arc for _, arc in tracer.arcs]
    assert arcs and workloads.arc_problems(request, point, arcs) == []
    return request, report, point, arcs


def test_rejects_point_moved_off_the_hypersurface(checked_point):
    request, report, point, _ = checked_point
    moved = (point[0] + 1,) + point[1:]
    assert "sampled point is off the base hypersurface" in workloads.point_problems(
        request, moved
    )
    tampered = dataclasses.replace(report, records=[dict(report.records[0])])
    tampered.records[0]["point"] = list(moved)
    assert workloads.problems(request, tampered, 0)


def test_rejects_failing_order_check(checked_point):
    request, report, _, _ = checked_point
    record = json.loads(json.dumps(report.records[0]))
    check = record["order_checks"][0]
    check["fail"], check["pass"] = 1, check["pass"] - 1
    assert oracle.record_problems(record, False, len(record["order_checks"]))


def test_rejects_tampered_arc_coefficient(checked_point):
    request, _, point, arcs = checked_point
    components = {name: list(s.coeffs) for name, s in arcs[0].components.items()}
    components["z2"][3] = (components["z2"][3] + 1) % workloads.PRIME
    assert oracle.arc_problems(request.f, request.g, 2, point, components, workloads.PRIME)


def test_rational_inputs():
    run.load_cycover()
    from cycover.parsing import parse_instance_file

    request = workloads.make_round(workloads.WORKLOADS["rational-5332"], 2, 0)[0]
    instance = parse_instance_file(request.text).instance
    assert dict(instance.base_form.terms) == request.f
    assert dict(instance.branch_form.terms) == request.g
    pivot = oracle.pivot_of(request.point)
    assert abs(request.point[pivot]) in (2, 3)
    scaled = tuple(Fraction(5) * c for c in request.point)
    assert oracle.normalized(scaled, None) == oracle.normalized(request.point, None)
    assert oracle.evaluate(request.f, request.point, None) == 0
    assert oracle.evaluate(request.g, request.point, None) != 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "workhorse-5422", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
