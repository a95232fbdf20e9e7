"""Spans at cycover's module boundaries, recorded from outside the program.

A traced function is replaced, for the length of a ``with Tracer(...)``
block, by a wrapper under every name a cycover module looks it up by, so
calls between modules and calls inside one module both pass through it.
Methods are replaced on their class.  Each span adds its duration to its
parent's child time; a span's self time is its duration minus that child
time, so self times never count the same second twice.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# (span name, module, attribute); a dotted attribute names a method.
SPANS = (
    ("cli.run_campaign", "cycover.cli", "run_campaign"),
    ("cli.run_certify", "cycover.cli", "run_certify"),
    ("cli.check_point", "cycover.cli", "check_point"),
    ("parsing.parse_instance_file", "cycover.parsing", "parse_instance_file"),
    ("cover.random_instance", "cycover.cover", "random_instance"),
    ("cover.sample_off", "cycover.cover", "sample_point_off_branch"),
    ("cover.sample_on", "cycover.cover", "sample_point_on_branch"),
    ("modular.poly1_roots", "cycover.modular", "poly1_roots"),
    ("modular.det_mod", "cycover.modular", "det_mod"),
    ("cover.localize", "cycover.cover", "localize"),
    ("poly.substitute", "cycover.poly", "Polynomial.substitute"),
    ("cover.regularity_sequence", "cycover.cover", "regularity_sequence"),
    ("series.phi_polynomials", "cycover.series", "phi_polynomials"),
    ("cover.verify_regularity", "cycover.cover", "verify_regularity"),
    ("regseq.regular_at_origin", "cycover.regseq", "regular_at_origin"),
    ("cover.hypertangent_member", "cycover.cover", "hypertangent_member"),
    ("series.arc_lift", "cycover.series", "arc_lift"),
    ("series.poly_on_series", "cycover.series", "poly_on_series"),
    ("series.series_kth_root", "cycover.series", "series_kth_root"),
    ("series.ord_along_arc", "cycover.series", "ord_along_arc"),
    ("cover.order_checks", "cycover.cover", "hypertangent_multiplicity_check"),
    ("cover.order_checks", "cycover.cover", "branch_truncation_check"),
)

# (counter name, module, method): calls counted without timing.
COUNTERS = (
    ("poly.polynomials_built", "cycover.poly", "Polynomial.__init__"),
    ("series.series_products", "cycover.series", "TruncatedSeries.__mul__"),
)

# The arc span is named by the branch side of the chart it is drawn on.
ARC = ("cycover.cover", "arc_through_chart_origin")


class Tracer:
    """Self and inclusive time and call counts per span name, the
    regularity cut trials (counted from the returned verdicts) and the arcs
    drawn."""

    def __init__(self):
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.inclusive_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.arcs: List[tuple] = []  # (chart, arc) per arc drawn
        self._stack: List[List[float]] = []
        self._restore: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def _timed(self, name: Optional[str], fn: Callable, after=None, namer=None):
        stack = self._stack
        self_seconds = self.self_seconds
        inclusive_seconds = self.inclusive_seconds
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name or namer(*args, **kwargs)
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_seconds[label] += duration - children[0]
                inclusive_seconds[label] += duration
                calls[label] += 1
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_regularity(self, args, verdict):
        self.calls["regseq.cut_trials"] += sum(len(e.trials) for e in verdict.evidence)

    def _after_arc(self, args, arc):
        self.arcs.append((args[0], arc))

    @staticmethod
    def _arc_name(chart, *args, **kwargs):
        return "cover.arc_on" if chart.on_branch else "cover.arc_off"

    # -- installation ------------------------------------------------------

    def _replace(self, module_name: str, attribute: str, make: Callable):
        module = sys.modules[module_name]
        if "." in attribute:
            owner_name, method = attribute.split(".")
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            self._restore.append((owner, method, original))
            setattr(owner, method, make(original))
            return
        original = getattr(module, attribute)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if name != "cycover" and not name.startswith("cycover."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._restore.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def __enter__(self) -> "Tracer":
        for name, module, attribute in SPANS:
            after = self._after_regularity if name == "cover.verify_regularity" else None
            self._replace(
                module, attribute, lambda fn, name=name, after=after: self._timed(name, fn, after)
            )
        for name, module, attribute in COUNTERS:
            self._replace(module, attribute, lambda fn, name=name: self._counted(name, fn))
        self._replace(
            *ARC,
            lambda fn: self._timed(None, fn, self._after_arc, namer=self._arc_name),
        )
        return self

    def __exit__(self, *exc_info):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False
