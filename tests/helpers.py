"""Small constructions the tests share and the library does not need."""

from typing import Optional, Sequence

from cycover.cover import CoverInstance
from cycover.poly import Domain, Polynomial, PrimeField
from cycover.seeds import Rng
from cycover.series import TruncatedSeries, phi_polynomials


def shuffle(rng: Rng, items: list) -> None:
    """Fisher-Yates shuffle in place, drawing from ``rng``."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


def series_parameter(domain: Domain, N: int) -> TruncatedSeries:
    """The series t itself."""
    if N < 1:
        raise ValueError("order bound must be at least 1 to hold t")
    coeffs = [domain.zero] * (N + 1)
    coeffs[1] = domain.one
    return TruncatedSeries(domain, tuple(coeffs))


def truncated_kth_root(w: Sequence[Polynomial], K: int, k: int) -> Polynomial:
    """Partial sum 1 + Φ_1 + ... + Φ_k; its K-th power matches 1 + Σ w_j
    through weighted degree k."""
    if k < 1:
        raise ValueError("truncation index must be at least 1")
    total = w[0].ring.one()
    for phi in phi_polynomials(w, K, k):
        total = total + phi
    return total


def default_instance_text(instance: CoverInstance, seed: Optional[int] = None) -> str:
    """Render an instance in the instance-file format."""
    family = instance.family
    lines = [
        f"M = {family.dimension}",
        f"m = {family.base_degree}",
        f"l = {family.branch_weight}",
        f"K = {family.cover_degree}",
    ]
    domain = instance.domain
    if isinstance(domain, PrimeField):
        lines.append(f"prime = {domain.p}")
    if seed is not None:
        lines.append(f"seed = {seed}")
    default_names = tuple(f"x{i}" for i in range(family.ambient_variable_count))
    if instance.ring.variables != default_names:
        lines.append("vars = " + " ".join(instance.ring.variables))
    lines.append(f"f = {instance.base_form.text()}")
    lines.append(f"g = {instance.branch_form.text()}")
    return "\n".join(lines) + "\n"
