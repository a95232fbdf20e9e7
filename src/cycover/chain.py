"""Exact combinatorial bound certificates for cyclic-cover families.

The multiplicity analysis orders a collection of auxiliary hypersurface
sections by level and feeds them into a chain of degree inequalities.  Every
certificate here is exact rational arithmetic: a literal product is computed
factor by factor, compared against its closed form, and turned into a bound
that is compared against the deciding threshold 4 / (variety degree).

Two shapes of certificate exist:

* the main (unramified) case, driven by a level schedule read off an
  ordering table of truncation levels, and
* the ramified case, driven by two telescoping blocks only.

Both record enough intermediate data to be rechecked independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .family import CoverFamily

__all__ = [
    "UnsupportedCaseError",
    "OrderingTable",
    "ordering_table",
    "schedule_chain_product",
    "TelescopingProduct",
    "telescoping_product",
    "bound_verdict",
    "BoundCertificate",
    "main_case_bound",
    "ramified_case_bound",
]

STRICTLY_BELOW = "StrictlyBelow"
EQUAL = "Equal"
ABOVE = "Above"


class UnsupportedCaseError(ValueError):
    """The counting argument does not cover this parameter range."""


# ---------------------------------------------------------------------------
# Ordering table and level schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderingTable:
    """Levels of the auxiliary sections and the induced slot schedule.

    surface_levels -- levels contributed by truncations of the base form
                      (1 .. base_degree - 1)
    root_levels    -- levels contributed by truncations of the branch root
                      (branch_weight .. branch_degree - 2)
    counters       -- counters[e] = number of levels in [3, e] across both
                      collections; counters[-1] must equal dimension - 3
    schedule       -- schedule[i - 1] = the level occupying slot i, for
                      i = 1 .. dimension - 3 (nondecreasing)
    """

    family: CoverFamily
    surface_levels: Tuple[int, ...]
    root_levels: Tuple[int, ...]
    counters: Tuple[int, ...]
    schedule: Tuple[int, ...]

    def __post_init__(self):
        M = self.family.dimension
        slots = M - 3
        if self.counters[:3] != (0, 0, 0):
            raise ValueError("counters must vanish below level 3")
        for e in range(1, len(self.counters)):
            step = self.counters[e] - self.counters[e - 1]
            if step < 0 or step > 2:
                raise ValueError(
                    f"counter step {step} at level {e} is outside 0..2"
                )
        if self.counters[-1] != slots:
            raise ValueError(
                f"final counter {self.counters[-1]} differs from the "
                f"required slot count {slots}"
            )
        if len(self.schedule) != slots:
            raise ValueError(
                f"schedule length {len(self.schedule)} differs from {slots}"
            )
        if any(b < a for a, b in zip(self.schedule, self.schedule[1:])):
            raise ValueError("schedule must be nondecreasing")
        # Slot i carries level e exactly when counters[e-1] < i <= counters[e].
        for i, e in enumerate(self.schedule, start=1):
            if not (self.counters[e - 1] < i <= self.counters[e]):
                raise ValueError(
                    f"slot {i} carries level {e} but the counters place it "
                    f"in ({self.counters[e - 1]}, {self.counters[e]}]"
                )


def ordering_table(family: CoverFamily) -> OrderingTable:
    """Build the level schedule for the main case.

    Requires branch weight >= 3, base degree <= branch degree, and
    base degree >= 3; outside that range the level collections do not fill
    the required number of slots and the argument is not available.
    """
    M = family.dimension
    m = family.base_degree
    l = family.branch_weight
    D = family.branch_degree  # cover_degree * branch_weight
    if l < 3:
        raise UnsupportedCaseError(
            f"ordering requires branch weight >= 3; branch weight {l} is "
            f"outside the documented range"
        )
    if m > D:
        raise UnsupportedCaseError(
            f"ordering requires base degree <= branch degree; "
            f"base degree {m} exceeds branch degree {D}"
        )
    if m < 3:
        raise UnsupportedCaseError(
            f"base degree {m} <= 2 breaks the level count: the levels in "
            f"[3, ...] number {max(m - 3, 0) + (D - l - 1)} while exactly "
            f"{M - 3} slots must be filled, so the telescoped closed form "
            f"is not available; this case is not covered"
        )
    surface_levels = tuple(range(1, m))
    root_levels = tuple(range(l, D - 1))
    e_max = max(m - 1, D - 2)
    counters = []
    for e in range(e_max + 1):
        window = range(3, e + 1)
        c = sum(1 for v in surface_levels if v in window) + sum(
            1 for v in root_levels if v in window
        )
        counters.append(c)
    schedule = []
    for e in range(3, e_max + 1):
        schedule.extend([e] * (counters[e] - counters[e - 1]))
    return OrderingTable(
        family=family,
        surface_levels=surface_levels,
        root_levels=root_levels,
        counters=tuple(counters),
        schedule=tuple(schedule),
    )


def schedule_chain_product(table: OrderingTable) -> Fraction:
    """Literal factor-by-factor chain product over the schedule.

    The chain walks the slots in order and multiplies (level + 1) / level
    for the level in each slot.
    """
    acc = Fraction(1)
    for e in table.schedule:
        acc *= Fraction(e + 1, e)
    return acc


# ---------------------------------------------------------------------------
# Telescoping blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TelescopingProduct:
    """One telescoping block: the product of j / (j - 1) for j = a .. b.

    literal -- the factor-by-factor product
    closed  -- the closed form b / (a - 1), or 1 for an empty block (a > b)
    """

    lower: int
    upper: int
    literal: Fraction
    closed: Fraction

    def __post_init__(self):
        if self.lower < 2:
            raise ValueError(
                f"telescoping block must start at 2 or above, got {self.lower}"
            )
        if self.literal != self.closed:
            raise ValueError(
                f"telescoping identity fails on block [{self.lower}, "
                f"{self.upper}]: literal {self.literal} != closed {self.closed}"
            )

    @property
    def value(self) -> Fraction:
        return self.literal

    @property
    def is_empty(self) -> bool:
        return self.lower > self.upper


def telescoping_product(lower: int, upper: int) -> TelescopingProduct:
    """Product of j / (j - 1) over lower <= j <= upper, checked telescoped.

    An empty range (lower > upper) gives the empty product 1 and the closed
    form is taken to be 1 as well.
    """
    if lower < 2:
        raise ValueError(
            f"telescoping block must start at 2 or above, got {lower}"
        )
    literal = Fraction(1)
    for j in range(lower, upper + 1):
        literal *= Fraction(j, j - 1)
    closed = Fraction(upper, lower - 1) if lower <= upper else Fraction(1)
    return TelescopingProduct(lower=lower, upper=upper, literal=literal, closed=closed)


# ---------------------------------------------------------------------------
# Bound certificates
# ---------------------------------------------------------------------------


def bound_verdict(bound_value: Fraction, threshold: Fraction) -> str:
    """Compare a bound against the deciding threshold."""
    if bound_value < threshold:
        return STRICTLY_BELOW
    if bound_value == threshold:
        return EQUAL
    return ABOVE


@dataclass(frozen=True)
class BoundCertificate:
    """An exact multiplicity-bound certificate for one family and case.

    blocks           -- the telescoping blocks whose product realizes the
                        chain product in closed form
    schedule_product -- the literal slot-by-slot chain product (main case
                        only; None in the ramified case)
    product_value    -- the product of the blocks
    closed_form      -- the closed-form value the product must equal
    bound_value      -- the certified multiplicity-to-degree bound,
                        the reciprocal of the product
    threshold        -- 4 / (variety degree), the deciding line
    verdict          -- StrictlyBelow / Equal / Above
    margin           -- threshold - bound_value
    """

    family: CoverFamily
    case_tag: str
    blocks: Tuple[TelescopingProduct, ...]
    schedule_product: Optional[Fraction]
    product_value: Fraction
    closed_form: Fraction
    bound_value: Fraction
    threshold: Fraction
    verdict: str
    margin: Fraction

    def __post_init__(self):
        block_product = Fraction(1)
        for b in self.blocks:
            block_product *= b.value
        if block_product != self.product_value:
            raise ValueError(
                f"block product {block_product} differs from recorded "
                f"product {self.product_value}"
            )
        if self.product_value != self.closed_form:
            raise ValueError(
                f"product {self.product_value} differs from closed form "
                f"{self.closed_form}"
            )
        if self.schedule_product is not None and (
            self.schedule_product != self.product_value
        ):
            raise ValueError(
                f"schedule chain product {self.schedule_product} differs "
                f"from block product {self.product_value}"
            )
        if self.bound_value * self.product_value != 1:
            raise ValueError(
                f"bound {self.bound_value} is not the reciprocal of the "
                f"product {self.product_value}"
            )
        if self.verdict != bound_verdict(self.bound_value, self.threshold):
            raise ValueError(
                f"verdict {self.verdict} inconsistent with bound "
                f"{self.bound_value} vs threshold {self.threshold}"
            )
        if self.margin != self.threshold - self.bound_value:
            raise ValueError("margin must equal threshold - bound")

    def describe(self) -> str:
        rel = {STRICTLY_BELOW: "<", EQUAL: "=", ABOVE: ">"}[self.verdict]
        return (
            f"{self.case_tag}: bound {self.bound_value} {rel} threshold "
            f"{self.threshold} (margin {self.margin})"
        )


def _certificate(
    family: CoverFamily,
    case_tag: str,
    blocks: Tuple[TelescopingProduct, ...],
    closed_form: Fraction,
    schedule_product: Optional[Fraction],
) -> BoundCertificate:
    product = Fraction(1)
    for b in blocks:
        product *= b.value
    bound = 1 / product
    threshold = Fraction(4, family.degree)
    return BoundCertificate(
        family=family,
        case_tag=case_tag,
        blocks=blocks,
        schedule_product=schedule_product,
        product_value=product,
        closed_form=closed_form,
        bound_value=bound,
        threshold=threshold,
        verdict=bound_verdict(bound, threshold),
        margin=threshold - bound,
    )


def main_case_bound(family: CoverFamily) -> BoundCertificate:
    """Certificate for a point off the branch locus (main case).

    The slot schedule gives the literal chain product; it must telescope
    into the two blocks (4 .. base_degree) and (branch_weight + 1 ..
    branch_degree - 1), whose closed form is
    (base_degree / 3) * ((branch_degree - 1) / branch_weight).
    The resulting bound is strictly below the threshold exactly when the
    branch degree is at least 5; branch degree 4 would sit on the line.
    """
    table = ordering_table(family)
    m = family.base_degree
    l = family.branch_weight
    D = family.branch_degree
    blocks = (
        telescoping_product(4, m),
        telescoping_product(l + 1, D - 1),
    )
    closed = Fraction(m, 3) * Fraction(D - 1, l)
    literal = schedule_chain_product(table)
    return _certificate(family, "MainCase", blocks, closed, literal)


def ramified_case_bound(family: CoverFamily) -> BoundCertificate:
    """Certificate for a point on the branch locus (ramified case).

    Two telescoping blocks (3 .. base_degree) and (3 .. cover_degree)
    multiply to (base_degree / 2) * (cover_degree / 2) = variety degree / 4,
    so the bound always lands exactly on the threshold.
    Requires base degree >= 2: with base degree 1 the first block is empty
    and the product identity fails, so that case is not covered.
    """
    m = family.base_degree
    K = family.cover_degree
    if m < 2:
        raise UnsupportedCaseError(
            f"ramified bound requires base degree >= 2; base degree {m} "
            f"makes the first telescoping block collapse to 1 instead of "
            f"{Fraction(m, 2)}, so the product identity is not available"
        )
    blocks = (
        telescoping_product(3, m),
        telescoping_product(3, K),
    )
    closed = Fraction(m, 2) * Fraction(K, 2)
    return _certificate(family, "RamifiedCase", blocks, closed, None)
