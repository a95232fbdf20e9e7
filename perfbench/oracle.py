"""Arithmetic and checks that the benchmark computes apart from cycover.

Nothing here imports cycover: points, forms, arcs and records produced by
the program are judged with plain integer, modular and ``Fraction``
arithmetic written for the benchmark alone.

Forms are dicts mapping exponent tuples to coefficients; a modulus of
``None`` means the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Form = Dict[Tuple[int, ...], object]

MASK64 = (1 << 64) - 1
CERTIFIED = "CertifiedRegular"
TIMING_KEYS = ("seconds", "timings")


class SplitMix:
    """splitmix64 stream, so that inputs depend on the seed alone."""

    def __init__(self, *seeds: int):
        state = 0x243F6A8885A308D3
        for seed in seeds:
            state = self._mix((state ^ (seed & MASK64)) & MASK64)
        self.state = state

    @staticmethod
    def _mix(x: int) -> int:
        x = (x + 0x9E3779B97F4A7C15) & MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
        return x ^ (x >> 31)

    def next(self) -> int:
        self.state = self._mix(self.state)
        return self.state

    def below(self, n: int) -> int:
        return self.next() % n

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


def exponents(nvars: int, degree: int):
    """Every exponent tuple of total degree ``degree`` in ``nvars`` variables."""
    if nvars == 1:
        yield (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in exponents(nvars - 1, degree - e):
            yield (e,) + rest


# -- evaluation ----------------------------------------------------------------


def evaluate(form: Form, point: Sequence, modulus: Optional[int]):
    """form(point), reduced mod ``modulus`` when one is given."""
    total = 0
    for exps, coeff in form.items():
        term = coeff
        for x, e in zip(point, exps):
            if e:
                term = term * (pow(x, e, modulus) if modulus else x**e)
        total += term
        if modulus:
            total %= modulus
    return total


def is_kth_power_residue(value: int, k: int, p: int) -> bool:
    """Euler's criterion for a prime p = 1 mod k and value prime to p."""
    return pow(value % p, (p - 1) // k, p) == 1


def pivot_of(point: Sequence) -> int:
    return next(i for i, c in enumerate(point) if c != 0)


def normalized(point: Sequence, modulus: Optional[int]) -> tuple:
    """The point scaled so that its first nonzero coordinate is 1."""
    lead = point[pivot_of(point)]
    if modulus:
        inv = pow(lead % modulus, modulus - 2, modulus)
        return tuple(c * inv % modulus for c in point)
    return tuple(Fraction(c) / lead for c in point)


# -- truncated power series ----------------------------------------------------


def series_mul(a: List, b: List, modulus: Optional[int]) -> List:
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n - i):
            if b[j] != 0:
                out[i + j] += ai * b[j]
    if modulus:
        out = [c % modulus for c in out]
    return out


def compose(form: Form, components: Sequence[List], modulus: Optional[int]) -> List:
    """form(components(t)) through the common truncation order."""
    n = min(len(c) for c in components)
    powers = [{0: [1] + [0] * (n - 1)} for _ in components]

    def power(i: int, e: int) -> List:
        cache = powers[i]
        if e not in cache:
            cache[e] = series_mul(power(i, e - 1), components[i][:n], modulus)
        return cache[e]

    total = [0] * n
    for exps, coeff in form.items():
        term = [coeff] + [0] * (n - 1)
        for i, e in enumerate(exps):
            if e:
                term = series_mul(term, power(i, e), modulus)
        total = [a + b for a, b in zip(total, term)]
    if modulus:
        total = [c % modulus for c in total]
    return total


def arc_problems(
    f: Form,
    g: Form,
    K: int,
    point: Sequence,
    components: Dict[str, Sequence],
    modulus: Optional[int],
) -> List[str]:
    """Problems with one arc on the cover through ``point``.

    ``components`` maps the chart coordinates z1.. and the cover coordinate
    y to coefficient lists.  The chart sits at the normalized point with the
    pivot coordinate set to 1; off the branch the cover coordinate is
    normalized by the value of g at the point.  Both f = 0 and
    y^K = g (times that normalization) must hold through the order bound.
    """
    base = normalized(point, modulus)
    pivot = pivot_of(base)
    names = [f"z{i}" for i in range(1, len(base))]
    if sorted(components) != sorted(names + ["y"]):
        return [f"arc has components {sorted(components)}"]
    lengths = {len(components[name]) for name in components}
    if len(lengths) != 1:
        return ["arc components have different order bounds"]
    n = lengths.pop()
    problems = []
    ambient = []
    chart = iter(names)
    for j, c in enumerate(base):
        if j == pivot:
            ambient.append([1] + [0] * (n - 1))
            continue
        z = list(components[next(chart)])
        if z[0] != 0:
            problems.append("a chart component does not vanish at t = 0")
        ambient.append([c + z[0]] + z[1:])
    if compose(f, ambient, modulus) != [0] * n:
        problems.append("f does not vanish along the arc through its order bound")
    scale = evaluate(g, base, modulus)
    y = list(components["y"])
    y_power = [1] + [0] * (n - 1)
    for _ in range(K):
        y_power = series_mul(y_power, y, modulus)
    lhs = [c * scale for c in y_power] if scale else y_power
    rhs = compose(g, ambient, modulus)
    if modulus:
        lhs = [c % modulus for c in lhs]
    if lhs != rhs:
        problems.append("y^K differs from g along the arc within its order bound")
    if y[0] != (1 if scale else 0):
        problems.append("the cover component starts on the wrong sheet")
    return problems


# -- report records --------------------------------------------------------------


def without_timings(value):
    """A copy with every timing field removed."""
    if isinstance(value, dict):
        return {k: without_timings(v) for k, v in value.items() if k not in TIMING_KEYS}
    if isinstance(value, list):
        return [without_timings(v) for v in value]
    return value


def record_problems(record: dict, on_branch: bool, expected_checks: int) -> List[str]:
    """Problems with one point-check record on a general instance.

    Every such point-check is certified regular, and every order
    measurement along every arc passes.
    """
    problems = []
    if record.get("kind") != "point-check":
        return [f"record of kind {record.get('kind')!r}"]
    if record.get("verdict") != CERTIFIED:
        problems.append(f"verdict {record.get('verdict')!r}")
    if record.get("branch_position") != ("on" if on_branch else "off"):
        problems.append(f"branch position {record.get('branch_position')!r}")
    regularity = record.get("regularity") or {}
    if regularity.get("outcome") != CERTIFIED:
        problems.append(f"regularity outcome {regularity.get('outcome')!r}")
    if not regularity.get("prefixes_total") or regularity.get(
        "prefixes_certified"
    ) != regularity.get("prefixes_total"):
        problems.append("not every prefix of the sequence is certified")
    if regularity.get("prefixes_total") != record.get("sequence_length"):
        problems.append("prefix count differs from the sequence length")
    checks = record.get("order_checks") or []
    if len(checks) != expected_checks:
        problems.append(f"{len(checks)} order checks, expected {expected_checks}")
    for check in checks:
        if (
            check.get("verdict") != CERTIFIED
            or check.get("fail") != 0
            or check.get("unresolved") != 0
            or check.get("pass") != check.get("arcs")
            or not check.get("arcs")
        ):
            problems.append(f"order check {check.get('label')!r} did not pass on every arc")
    return problems
