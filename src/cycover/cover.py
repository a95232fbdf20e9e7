"""Cyclic covers of projective hypersurfaces, made executable.

An instance is a pair of forms: a base form cutting a hypersurface in
projective space, and a branch form whose K-th root is adjoined to produce a
K-sheeted cyclic cover.  This module provides everything needed to study one
point of the cover:

* chart localization (move the point to the origin of an affine chart and
  split the localized forms into graded pieces),
* the regularity sequence attached to the chart (three shapes, depending on
  the branch position and the relative sizes of the degrees),
* hypertangent members (random elements of the linear systems used for
  multiplicity bounds) and their order checks along formal arcs,
* arc construction on the cover through the chart origin, and
* point sampling over a finite field, off and on the branch locus.

Coordinates: ambient variables are x0, x1, ...; chart variables are
z1, z2, ...; the normalized cover coordinate on a chart is y.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .family import CoverFamily, FamilyConstraintError, validate_family
from .modular import (
    det_mod,
    is_kth_power_residue,
    lagrange_interpolate,
    poly1_eval,
    poly1_roots,
    working_prime,
)
from .poly import (
    Polynomial,
    PolyRing,
    PrimeField,
    QQ,
    homogeneous_components,
    poly_eval,
    random_homogeneous,
    ring_over,
    translate_origin,
)
from .regseq import DEFAULT_PAIR_BUDGET, RegularityVerdict, regular_at_origin
from .seeds import (
    PURPOSE_ARC,
    PURPOSE_INSTANCE_F,
    PURPOSE_INSTANCE_G,
    PURPOSE_MEMBER,
    PURPOSE_POINT_OFF,
    PURPOSE_POINT_ON,
    PURPOSE_ROOT_SPLIT,
    Rng,
    derive_seed,
)
from .series import (
    Arc,
    MonomialTable,
    OrderResult,
    TruncatedSeries,
    arc_lift,
    compose_series,
    ord_along_arc,
    phi_polynomials,
    poly_on_series,
    series_kth_root,
    series_zero,
    truncate_f,
)

__all__ = [
    "CoverFamily",
    "FamilyConstraintError",
    "validate_family",
    "UnsupportedInstanceError",
    "LocalizationError",
    "SampleBudgetError",
    "CoverInstance",
    "require_invertible_cover_degree",
    "ambient_ring",
    "chart_ring",
    "random_instance",
    "instance_mod_p",
    "ChartLocalization",
    "localize",
    "smooth_at",
    "RegularityCase",
    "regularity_sequence",
    "verify_regularity",
    "HypertangentMember",
    "admissible_hypertangent_levels",
    "hypertangent_member",
    "default_arc_order",
    "arc_through_chart_origin",
    "ArcOrderRecord",
    "MultiplicityReport",
    "hypertangent_multiplicity_check",
    "branch_truncation_check",
    "require_sampling_prime",
    "sample_point_off_branch",
    "sample_point_on_branch",
    "default_prime",
]

OFF_BRANCH_CASE_LOW = "R1a"
OFF_BRANCH_CASE_HIGH = "R1b"
ON_BRANCH_CASE = "R2"

COVER_VARIABLE = "y"


class UnsupportedInstanceError(ValueError):
    """The instance falls in a case the analysis operations do not handle."""


class LocalizationError(ValueError):
    """The requested chart cannot be built; the message names the obstruction."""


class SampleBudgetError(RuntimeError):
    """A randomized search exhausted its attempt budget."""


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def ambient_ring(family: CoverFamily, domain) -> PolyRing:
    """Ring of the weight-1 ambient coordinates x0 .. x_{dimension+1}."""
    return ring_over(
        tuple(f"x{i}" for i in range(family.ambient_variable_count)), domain
    )


def chart_ring(family: CoverFamily, domain) -> PolyRing:
    """Ring of the affine chart coordinates z1 .. z_{dimension+1}."""
    return ring_over(
        tuple(f"z{i}" for i in range(1, family.chart_variable_count + 1)), domain
    )


def require_invertible_cover_degree(cover_degree: int, characteristic: int) -> None:
    """Reject a field whose characteristic divides K: K-th roots of series
    and the root pieces Φ_i divide by K."""
    if characteristic and cover_degree % characteristic == 0:
        raise ValueError(
            f"the prime {characteristic} divides the cover degree "
            f"K = {cover_degree}; the cover needs K invertible mod p"
        )


@dataclass(frozen=True)
class CoverInstance:
    """One cyclic cover: a base form and a branch form over a common ring.

    The cover adjoins a K-th root of ``branch_form`` to the hypersurface cut
    by ``base_form``.  Over GF(p) the prime must not divide K.
    """

    family: CoverFamily
    base_form: Polynomial
    branch_form: Polynomial

    def __post_init__(self):
        fam = self.family
        ring = self.base_form.ring
        if ring.nvars != fam.ambient_variable_count:
            raise ValueError(
                f"base form has {ring.nvars} variables; the family needs "
                f"{fam.ambient_variable_count}"
            )
        require_invertible_cover_degree(fam.cover_degree, ring.domain.characteristic)
        _require_form(self.base_form, fam.base_degree, "base form")
        if self.branch_form.ring != ring:
            raise ValueError("base and branch forms live in different rings")
        _require_form(self.branch_form, fam.branch_degree, "branch form")

    @property
    def ring(self) -> PolyRing:
        return self.base_form.ring

    @property
    def domain(self):
        return self.base_form.ring.domain


def _require_form(F: Polynomial, degree: int, label: str):
    if F.is_zero():
        raise ValueError(f"{label} must be nonzero")
    if not F.is_homogeneous() or F.degree() != degree:
        raise ValueError(
            f"{label} must be homogeneous of degree {degree}; "
            f"got degree {F.degree()}"
        )


def default_prime(family: CoverFamily) -> int:
    """The least prime >= 10^6 + 3 that is 1 mod the cover degree."""
    return working_prime(family.cover_degree)


def random_instance(family: CoverFamily, seed: int, domain=QQ) -> CoverInstance:
    """A random plain instance with seed-derived base and branch forms."""
    ring = ambient_ring(family, domain)
    base = _random_form(ring, family.base_degree, seed, PURPOSE_INSTANCE_F)
    branch = _random_form(ring, family.branch_degree, seed, PURPOSE_INSTANCE_G)
    return CoverInstance(family=family, base_form=base, branch_form=branch)


def _random_form(ring: PolyRing, degree: int, seed: int, purpose: int) -> Polynomial:
    for attempt in range(16):
        F = random_homogeneous(ring, degree, derive_seed(seed, trial=attempt, purpose=purpose))
        if not F.is_zero():
            return F
    raise ArithmeticError("random form generation kept producing zero")


def instance_mod_p(instance: CoverInstance, p: int) -> CoverInstance:
    """The same instance with coefficients reduced modulo p."""
    field = PrimeField(p)
    target = ambient_ring(instance.family, field)
    return CoverInstance(
        family=instance.family,
        base_form=instance.base_form.map_domain(target),
        branch_form=instance.branch_form.map_domain(target),
    )


# ---------------------------------------------------------------------------
# Chart localization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChartLocalization:
    """An instance viewed in an affine chart with the chosen point at the origin.

    point            -- the projective representative, rescaled so the pivot
                        coordinate equals 1
    pivot            -- index of the first nonzero coordinate
    ring             -- chart polynomial ring in z1 .. z_{dimension+1}
    localized_base   -- base form on the chart (vanishes at the origin)
    localized_branch -- branch form on the chart; off the branch locus it is
                        rescaled so its value at the origin is exactly 1
    base_pieces      -- graded pieces of localized_base, degrees 1 .. m
    branch_pieces    -- graded pieces of localized_branch, degrees 0 .. Kl
    on_branch        -- whether the branch form vanishes at the point
    branch_scale     -- original value of the branch form at the point (the
                        scalar divided out off the branch; zero on it)
    """

    instance: CoverInstance
    point: tuple
    pivot: int
    ring: PolyRing
    localized_base: Polynomial
    localized_branch: Polynomial
    base_pieces: tuple
    branch_pieces: tuple
    on_branch: bool
    branch_scale: object

    def __post_init__(self):
        fam = self.instance.family
        domain = self.ring.domain
        if len(self.base_pieces) != fam.base_degree:
            raise ValueError("one base piece per degree 1..m is required")
        if len(self.branch_pieces) != fam.branch_degree + 1:
            raise ValueError("one branch piece per degree 0..Kl is required")
        total = self.ring.zero()
        for j, piece in enumerate(self.base_pieces, start=1):
            _require_piece(piece, j)
            total = total + piece
        if total != self.localized_base:
            raise ValueError("base pieces do not reconstruct the localized base form")
        if not domain.is_zero(self.localized_base.constant_coefficient()):
            raise ValueError("the localized base form must vanish at the origin")
        total = self.ring.zero()
        for j, piece in enumerate(self.branch_pieces):
            _require_piece(piece, j)
            total = total + piece
        if total != self.localized_branch:
            raise ValueError(
                "branch pieces do not reconstruct the localized branch form"
            )
        w0 = self.branch_pieces[0].constant_coefficient()
        if self.on_branch and not domain.is_zero(w0):
            raise ValueError("on the branch locus the degree-0 piece must vanish")
        if not self.on_branch and w0 != domain.one:
            raise ValueError("off the branch locus the degree-0 piece must be 1")

    @property
    def family(self) -> CoverFamily:
        return self.instance.family

    @property
    def domain(self):
        return self.ring.domain

    def base_piece(self, j: int) -> Polynomial:
        """The degree-j graded piece of the localized base form (1 <= j <= m)."""
        if not 1 <= j <= len(self.base_pieces):
            raise IndexError(f"base piece index {j} outside 1..{len(self.base_pieces)}")
        return self.base_pieces[j - 1]

    def branch_piece(self, j: int) -> Polynomial:
        """The degree-j graded piece of the localized branch form (0 <= j <= Kl)."""
        if not 0 <= j < len(self.branch_pieces):
            raise IndexError(
                f"branch piece index {j} outside 0..{len(self.branch_pieces) - 1}"
            )
        return self.branch_pieces[j]


def _require_piece(piece: Polynomial, degree: int):
    if piece.is_zero():
        return
    if not piece.is_homogeneous() or piece.degree() != degree:
        raise ValueError(f"graded piece of degree {degree} has degree {piece.degree()}")


def localize(instance: CoverInstance, point: Sequence) -> ChartLocalization:
    """Move ``point`` to the origin of its standard affine chart.

    The pivot is the first nonzero coordinate; the point is rescaled so the
    pivot coordinate is 1.  Each form is dehomogenized by dropping the pivot
    exponent, then moved by ``translate_origin``'s per-variable Taylor
    shifts, and the results are split into graded pieces.  Off the branch
    locus the localized branch form is rescaled to take the value 1 at the
    origin.
    """
    branch_form = instance.branch_form
    fam = instance.family
    ring = instance.ring
    domain = ring.domain
    coords = tuple(domain.of(c) for c in point)
    if len(coords) != ring.nvars:
        raise LocalizationError(
            f"point has {len(coords)} coordinates; expected {ring.nvars}"
        )
    pivot = next(
        (i for i, c in enumerate(coords) if not domain.is_zero(c)), None
    )
    if pivot is None:
        raise LocalizationError("the zero vector does not define a projective point")
    inv = domain.inv(coords[pivot])
    normalized = tuple(domain.mul(c, inv) for c in coords)
    if not domain.is_zero(poly_eval(instance.base_form, normalized)):
        raise LocalizationError("the point does not lie on the base hypersurface")

    zring = chart_ring(fam, domain)
    affine = normalized[:pivot] + normalized[pivot + 1 :]
    localized_base = translate_origin(
        _dehomogenize(instance.base_form, pivot, zring), affine
    )
    localized_branch = translate_origin(
        _dehomogenize(branch_form, pivot, zring), affine
    )

    base_parts = homogeneous_components(localized_base)
    if 0 in base_parts:
        raise LocalizationError("the localized base form does not vanish at the origin")
    base_pieces = tuple(
        base_parts.get(j, zring.zero()) for j in range(1, fam.base_degree + 1)
    )

    branch_scale = localized_branch.constant_coefficient()
    on_branch = domain.is_zero(branch_scale)
    if not on_branch:
        localized_branch = localized_branch.scale(domain.inv(branch_scale))
    branch_parts = homogeneous_components(localized_branch)
    branch_pieces = tuple(
        branch_parts.get(j, zring.zero()) for j in range(fam.branch_degree + 1)
    )
    return ChartLocalization(
        instance=instance,
        point=normalized,
        pivot=pivot,
        ring=zring,
        localized_base=localized_base,
        localized_branch=localized_branch,
        base_pieces=base_pieces,
        branch_pieces=branch_pieces,
        on_branch=on_branch,
        branch_scale=branch_scale,
    )


def _dehomogenize(F: Polynomial, pivot: int, zring: PolyRing) -> Polynomial:
    """F at x_pivot = 1, the other coordinates renamed to the chart's.

    On a homogeneous form the pivot exponent is the degree minus the other
    exponents, so dropping it maps distinct terms to distinct terms.
    """
    return Polynomial(
        zring, {exps[:pivot] + exps[pivot + 1 :]: c for exps, c in F.terms.items()}
    )


# ---------------------------------------------------------------------------
# Smoothness and regularity sequences
# ---------------------------------------------------------------------------


def smooth_at(chart: ChartLocalization) -> bool:
    """Whether the cover is smooth at the chart origin.

    Off the branch locus this needs a nonzero linear piece of the base form;
    on it, additionally the linear pieces of base and branch forms must be
    linearly independent.
    """
    q1 = chart.base_piece(1)
    if q1.is_zero():
        return False
    if not chart.on_branch:
        return True
    w1 = chart.branch_piece(1)
    return not _linearly_dependent(q1, w1)


def _linearly_dependent(a: Polynomial, b: Polynomial) -> bool:
    """Whether two linear forms are proportional (zero counts as dependent)."""
    if a.is_zero() or b.is_zero():
        return True
    domain = a.ring.domain
    exps, coeff = a.leading()
    ratio = domain.div(b.coefficient(exps), coeff)
    return (b - a.scale(ratio)).is_zero()


@dataclass(frozen=True)
class RegularityCase:
    """The sequence whose regularity at the chart origin is to be verified.

    tag is one of R1a / R1b (off the branch locus, base degree at most /
    exceeding the branch degree) and R2 (on the branch locus).  Off the
    branch the sequence has one member per chart dimension (dimension of the
    covering variety); on it the length is base degree + cover degree.
    """

    tag: str
    chart: ChartLocalization
    members: tuple

    def __post_init__(self):
        fam = self.chart.family
        if self.tag in (OFF_BRANCH_CASE_LOW, OFF_BRANCH_CASE_HIGH):
            expected = fam.dimension
        elif self.tag == ON_BRANCH_CASE:
            expected = fam.base_degree + fam.cover_degree
        else:
            raise ValueError(f"unknown case tag {self.tag!r}")
        if len(self.members) != expected:
            raise ValueError(
                f"case {self.tag} requires {expected} members, got {len(self.members)}"
            )
        for member in self.members:
            if member.ring != self.chart.ring:
                raise ValueError("sequence members must live in the chart ring")


def regularity_sequence(chart: ChartLocalization) -> RegularityCase:
    """The regularity sequence attached to a smooth chart point.

    Off the branch locus: the graded base pieces q_1..q_m together with the
    root pieces of the branch form, which ones depending on whether the base
    degree stays within the branch degree (R1a) or exceeds it (R1b).  On the
    branch locus: q_1..q_m together with the first K branch pieces (R2).
    A case with more members than chart variables is refused as unsupported.
    """
    if not smooth_at(chart):
        raise LocalizationError(
            "the chart origin is a singular point of the cover; no regularity "
            "sequence is attached there"
        )
    fam = chart.family
    m = fam.base_degree
    l = fam.branch_weight
    K = fam.cover_degree
    D = fam.branch_degree
    if chart.on_branch:
        tag = ON_BRANCH_CASE
        members = chart.base_pieces + tuple(
            chart.branch_piece(j) for j in range(1, K + 1)
        )
    elif m <= D:
        tag = OFF_BRANCH_CASE_LOW
        phis = phi_polynomials(list(chart.branch_pieces[1:]), K, D - 1)
        members = chart.base_pieces + tuple(phis[l : D - 1])
    else:
        tag = OFF_BRANCH_CASE_HIGH
        phis = phi_polynomials(list(chart.branch_pieces[1:]), K, D)
        members = chart.base_pieces[: m - 1] + tuple(phis[l:D])
    if len(members) > chart.ring.nvars:
        # e.g. branch weight 1 on the branch locus: m + K = dimension + 2
        # members in dimension + 1 chart variables.
        raise UnsupportedInstanceError(
            f"case {tag} has {len(members)} members in {chart.ring.nvars} "
            f"chart variables, so it cannot be a regular sequence"
        )
    return RegularityCase(tag=tag, chart=chart, members=members)


def verify_regularity(
    case: RegularityCase,
    seed: int = 0,
    trials: int = 5,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> RegularityVerdict:
    """Run the origin-regularity verifier on the case's member sequence."""
    return regular_at_origin(
        list(case.members), trials=trials, seed=seed, budget=budget
    )


# ---------------------------------------------------------------------------
# Hypertangent members
# ---------------------------------------------------------------------------


def admissible_hypertangent_levels(family: CoverFamily) -> range:
    """Levels at which hypertangent members exist off the branch locus."""
    return range(1, min(family.base_degree - 1, family.branch_degree - 1) + 1)


@dataclass(frozen=True)
class HypertangentMember:
    """A random member of the level-i hypertangent system on a chart.

    The member is plain_part(z) + cover_part(z) * y, built from multipliers
    against the graded truncations of the base form (base_multipliers s_0..
    s_{i-1}) and, once the level reaches the cover degree, against the
    difference between y and the truncated branch root (root_multipliers
    s*_0..s*_{i-K}).  Its vanishing order along any arc on the cover through
    the chart origin should be at least level + 1.
    """

    chart: ChartLocalization
    level: int
    base_multipliers: tuple
    root_multipliers: tuple
    plain_part: Polynomial
    cover_part: Polynomial
    polynomial: Polynomial

    @property
    def threshold(self) -> int:
        return self.level + 1


def _extended_ring(chart: ChartLocalization) -> PolyRing:
    return ring_over(chart.ring.variables + (COVER_VARIABLE,), chart.domain)


def _lift_to_extended(F: Polynomial, extended: PolyRing) -> Polynomial:
    return Polynomial(extended, {exps + (0,): c for exps, c in F.terms.items()})


def hypertangent_member(
    chart: ChartLocalization, level: int, seed: int
) -> HypertangentMember:
    """Draw a random level-``level`` hypertangent member on an off-branch chart.

    Admissible levels run from 1 to min(base degree, branch degree) - 1.
    The multiplier of codegree a is a random homogeneous form of degree a
    (a nonzero constant for a = 0), seeded deterministically.
    """
    if chart.on_branch:
        raise LocalizationError(
            "hypertangent members are defined off the branch locus"
        )
    fam = chart.family
    i = level
    top = min(fam.base_degree - 1, fam.branch_degree - 1)
    if not 1 <= i <= top:
        raise ValueError(f"level {i} outside the admissible range 1..{top}")
    K = fam.cover_degree
    zring = chart.ring

    base_mult = tuple(
        random_homogeneous(
            zring, a, derive_seed(seed, trial=a, point=0, purpose=PURPOSE_MEMBER)
        )
        for a in range(i)
    )
    root_mult = tuple(
        random_homogeneous(
            zring, a, derive_seed(seed, trial=a, point=1, purpose=PURPOSE_MEMBER)
        )
        for a in range(i - K + 1)
    )

    plain = zring.zero()
    for j in range(1, i + 1):
        plain = plain + base_mult[i - j] * truncate_f(chart.base_pieces, j)
    cover = zring.zero()
    if root_mult:
        phis = phi_polynomials(list(chart.branch_pieces[1:]), K, i)
        partial_root = zring.one()
        for d in range(1, K):
            partial_root = partial_root + phis[d - 1]
        for k in range(K, i + 1):
            partial_root = partial_root + phis[k - 1]  # now 1 + Φ_1 + ... + Φ_k
            s = root_mult[i - k]
            plain = plain - s * partial_root
            cover = cover + s

    extended = _extended_ring(chart)
    y = extended.gen(extended.nvars - 1)
    member = _lift_to_extended(plain, extended) + _lift_to_extended(cover, extended) * y
    return HypertangentMember(
        chart=chart,
        level=i,
        base_multipliers=base_mult,
        root_multipliers=root_mult,
        plain_part=plain,
        cover_part=cover,
        polynomial=member,
    )


# ---------------------------------------------------------------------------
# Arcs on the cover through the chart origin
# ---------------------------------------------------------------------------


def default_arc_order(level: int) -> int:
    """Truncation order used for arcs serving checks up to this level."""
    return 2 * level + 2


def _solved_variable(q1: Polynomial) -> int:
    """Index of a chart variable appearing in the linear piece."""
    ring = q1.ring
    domain = ring.domain
    for i in range(ring.nvars):
        exps = tuple(1 if j == i else 0 for j in range(ring.nvars))
        if not domain.is_zero(q1.coefficient(exps)):
            return i
    raise LocalizationError("the linear piece of the base form is zero")


def arc_through_chart_origin(
    chart: ChartLocalization, seed: int, order_bound: int
) -> Arc:
    """A formal arc on the cover through the chart origin.

    The chart components z_*(t) vanish at t = 0 and satisfy the localized
    base form through the truncation order; the cover component y(t)
    satisfies y^K = (localized branch form)(z(t)) through the same order.
    Off the branch locus y(0) = 1 (the normalized sheet), on it y(0) = 0.
    """
    if order_bound < 2:
        raise ValueError("arc order bound must be at least 2")
    q1 = chart.base_piece(1)
    if q1.is_zero():
        raise LocalizationError("arcs need a smooth chart point")
    if chart.on_branch:
        return _arc_on_branch(chart, seed, order_bound)
    return _arc_off_branch(chart, seed, order_bound)


def _random_small_series(domain, rng: Rng, N: int) -> TruncatedSeries:
    """A random series with zero constant term."""
    return TruncatedSeries(
        domain, (domain.zero,) + tuple(domain.random(rng) for _ in range(N))
    )


def _arc_components(chart: ChartLocalization, solved: int, rng: Rng, N: int) -> dict:
    """Chart components of an arc through the origin, by variable name: a
    random series from ``rng`` for each variable but ``solved``, drawn in
    variable order, and for ``solved`` the series ``arc_lift`` finds on the
    localized base form."""
    variables = chart.ring.variables
    free = {
        i: _random_small_series(chart.domain, rng, N)
        for i in range(len(variables))
        if i != solved
    }
    lifted = arc_lift(chart.localized_base, solved, free, N)
    return {name: lifted if i == solved else free[i] for i, name in enumerate(variables)}


def _arc_off_branch(chart: ChartLocalization, seed: int, N: int) -> Arc:
    fam = chart.family
    solved = _solved_variable(chart.base_piece(1))
    rng = Rng(derive_seed(seed, purpose=PURPOSE_ARC))
    components = _arc_components(chart, solved, rng, N)
    # One table, in chart variable order, so the base-residual recheck
    # composes on the monomials the branch form formed.
    table = MonomialTable(chart.domain, list(components.values()), N)
    composed_branch = table.compose(chart.localized_branch)
    y = series_kth_root(composed_branch, fam.cover_degree)
    base_residual = table.compose(chart.localized_base)
    if base_residual.order() is not None:
        raise ArithmeticError("lifted arc leaves a nonzero base residual")
    cover_residual = y.pow_int(fam.cover_degree) - composed_branch
    if cover_residual.order() is not None:
        raise ArithmeticError("cover component leaves a nonzero branch residual")
    return Arc({**components, COVER_VARIABLE: y})


def _in_t(s: TruncatedSeries, K: int, N: int, shift: int = 0) -> TruncatedSeries:
    """t^shift·s(t^K) through t^N, for a series s in u = t^K; it reads s
    only through u^((N − shift)/K), and fails if s is not known that far."""
    domain = s.domain
    coeffs = [domain.zero] * (N + 1)
    coeffs[shift::K] = s.coeffs[: (N - shift) // K + 1]
    return TruncatedSeries(domain, tuple(coeffs))


def _arc_on_branch(chart: ChartLocalization, seed: int, N: int) -> Arc:
    """On-branch arcs: the chart components are series in u = t^K, drawn
    and lifted through u^N.  The composed branch form B(z(u)) then has
    u-order shift, and y = t^shift·V(t^K) with V a unit K-th root.

    The leading constant c of B(z(u)) need not be a K-th power.  When
    gcd(shift, K) = 1, pick a with a*shift = -1 (mod K) and replace u by
    c^a * u, which scales the u^j coefficient of every chart component by
    c^(aj).  The leading constant becomes c^(1 + a*shift), whose K-th root
    c^((1 + a*shift)/K) is known in any field.  Over an extension this is
    the reparametrization t -> c^(a/K) * t, so vanishing orders along the
    arc do not change.  Only gcd(shift, K) > 1, which needs the u
    coefficient of the branch form along the arc to vanish, redraws.

    Everything runs in u through u^N, which determines y through t^N
    whatever the shift.  The components and y are written in t once, at
    the end, so the chart components are supported on multiples of K and
    the branch order in t is K*shift by construction.
    """
    fam = chart.family
    K = fam.cover_degree
    domain = chart.domain
    solved = _solved_variable(chart.base_piece(1))
    for attempt in range(64):
        rng = Rng(derive_seed(seed, trial=attempt, purpose=PURPOSE_ARC))
        components = _arc_components(chart, solved, rng, N)
        composed_branch = poly_on_series(chart.localized_branch, components)
        shift = composed_branch.order()
        if shift is None:
            # The branch form vanishes along the arc through u^N, that is
            # through t^(K*N), so the cover component vanishes through t^N.
            y = series_zero(domain, N)
        else:
            if gcd(shift, K) != 1:
                continue  # no a solves a*shift = -1 (mod K); redraw the arc
            lead = composed_branch[shift]
            a = -pow(shift, -1, K) % K
            root_constant = domain.pow(lead, (1 + a * shift) // K)
            powers = [domain.pow(lead, a * j) for j in range(N + 1)]
            components = {
                name: TruncatedSeries(domain, tuple(map(domain.mul, s.coeffs, powers)))
                for name, s in components.items()
            }
            # Composed afresh, so the residual below checks the rescaled arc.
            composed_branch = poly_on_series(chart.localized_branch, components)
            unit = TruncatedSeries(domain, composed_branch.coeffs[shift:])
            normalized = unit.scale(domain.inv(unit[0]))
            v = series_kth_root(normalized, K).scale(root_constant)
            y = _in_t(v, K, N, shift)
        # u -> t^K followed by truncation mod t^(N+1) is a ring homomorphism,
        # so the branch form composed with the components in t is
        # composed_branch written in t.
        cover_residual = y.pow_int(K) - _in_t(composed_branch, K, N)
        if cover_residual.order() is not None:
            raise ArithmeticError(
                "cover component leaves a nonzero branch residual"
            )
        in_t = {name: _in_t(s, K, N) for name, s in components.items()}
        in_t[COVER_VARIABLE] = y
        return Arc(in_t)
    raise SampleBudgetError(
        "no cover-compatible arc found in 64 attempts (the branch order "
        "along every arc shared a factor with the cover degree)"
    )


# ---------------------------------------------------------------------------
# Order checks along arcs
# ---------------------------------------------------------------------------

CHECK_PASS = "pass"
CHECK_FAIL = "fail"
CHECK_UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class ArcOrderRecord:
    """Outcome of one order measurement along one arc.

    An exact order decides pass/fail against the threshold; a measurement
    that only produced a lower bound (the composition vanished through the
    truncation order) is recorded as unresolved and never counts as a pass.
    The exact zero function passes at every threshold.
    """

    arc_index: int
    order: OrderResult
    threshold: int
    status: str


def _order_status(order: OrderResult, threshold: int) -> str:
    if order.infinite:
        return CHECK_PASS
    if order.exact:
        return CHECK_PASS if order.value >= threshold else CHECK_FAIL
    return CHECK_UNRESOLVED


@dataclass(frozen=True)
class MultiplicityReport:
    """Order measurements of one member along a batch of arcs."""

    label: str
    threshold: int
    records: tuple

    @property
    def pass_count(self) -> int:
        return sum(1 for r in self.records if r.status == CHECK_PASS)

    @property
    def fail_count(self) -> int:
        return sum(1 for r in self.records if r.status == CHECK_FAIL)

    @property
    def unresolved_count(self) -> int:
        return sum(1 for r in self.records if r.status == CHECK_UNRESOLVED)


def _order_records(
    member: Polynomial, arcs: Sequence[Arc], threshold: int
) -> tuple:
    records = []
    for idx, arc in enumerate(arcs):
        order = ord_along_arc(member, arc)
        records.append(
            ArcOrderRecord(
                arc_index=idx,
                order=order,
                threshold=threshold,
                status=_order_status(order, threshold),
            )
        )
    return tuple(records)


def hypertangent_multiplicity_check(
    member: HypertangentMember, arcs: Sequence[Arc]
) -> MultiplicityReport:
    """Measure the member's vanishing order along each arc.

    Every arc on the cover through the chart origin should meet the member
    to order at least level + 1.
    """
    threshold = member.threshold
    return MultiplicityReport(
        label=f"hypertangent level {member.level}",
        threshold=threshold,
        records=_order_records(member.polynomial, arcs, threshold),
    )


def branch_truncation_check(
    chart: ChartLocalization, level: int, arcs: Sequence[Arc]
) -> MultiplicityReport:
    """On-branch order check at truncation level k = 1 .. K - 1.

    The function y^K - (sum of branch pieces of degree > k) agrees along any
    arc on the cover with the low truncation of the branch form, so its
    vanishing order at the chart origin must be at least k + 1.

    What a pass measures: ``_arc_on_branch`` draws the chart components in
    u = t^K, so every chart variable has t-order at least K, while y has
    t-order ``shift``, usually 1.  The order along such an arc gives the
    chart variables weight K and y weight 1.  A pass is evidence that this
    weighted order is at least k + 1, not that the multiplicity on V is.
    Adding z^k for a free chart variable z lowers the multiplicity to k,
    yet such arcs still pass.  A fail is still a proof, since the order
    along any arc through the origin is at least the multiplicity.
    """
    if not chart.on_branch:
        raise LocalizationError(
            "branch truncation checks are defined on the branch locus"
        )
    fam = chart.family
    K = fam.cover_degree
    if not 1 <= level <= K - 1:
        raise ValueError(f"truncation level {level} outside 1..{K - 1}")
    extended = _extended_ring(chart)
    y = extended.gen(extended.nvars - 1)
    tail = extended.zero()
    for j in range(level + 1, fam.branch_degree + 1):
        tail = tail + _lift_to_extended(chart.branch_piece(j), extended)
    member = y ** K - tail
    threshold = level + 1
    return MultiplicityReport(
        label=f"branch truncation level {level}",
        threshold=threshold,
        records=_order_records(member, arcs, threshold),
    )


# ---------------------------------------------------------------------------
# Point sampling over a finite field
# ---------------------------------------------------------------------------


def require_sampling_prime(
    family: CoverFamily, prime: int, on_branch: bool = False
) -> None:
    """Reject a sampling prime that is not a prime = 1 mod the cover degree,
    the condition under which K-th power residues are testable.  On-branch
    sampling also interpolates a resultant of degree m*n at m*n + 1 distinct
    nodes, so it needs prime > m*n."""
    PrimeField(prime)  # validates primality
    if (prime - 1) % family.cover_degree != 0:
        raise ValueError(
            f"sampling prime {prime} must be 1 mod {family.cover_degree} "
            f"so that K-th power residues are testable"
        )
    nodes = family.base_degree * family.branch_degree
    if on_branch and prime <= nodes:
        raise ValueError(
            f"on-branch sampling needs a prime above m*n = {nodes} to "
            f"interpolate the resultant at {nodes + 1} distinct nodes; "
            f"got prime {prime}"
        )


def _require_sampling_field(
    instance: CoverInstance, on_branch: bool = False
) -> PrimeField:
    domain = instance.domain
    if not isinstance(domain, PrimeField):
        raise ValueError("point sampling works over a prime field")
    require_sampling_prime(instance.family, domain.p, on_branch)
    return domain


def _line_restriction(
    F: Polynomial, degree: int, anchor: Sequence, direction: Sequence
) -> tuple:
    """Coefficients of F(anchor + t*direction) in t, ascending, for a form
    F of the given degree over GF(p) and canonical coordinates.

    The restriction has degree at most that of F, so composing at that
    order is exact.
    """
    field = F.ring.domain
    padding = (0,) * (degree - 1)
    lines = [TruncatedSeries(field, (a, d) + padding) for a, d in zip(anchor, direction)]
    return compose_series(F, lines, degree).coeffs


def sample_point_off_branch(
    instance: CoverInstance, seed: int, budget: int = 64
) -> tuple:
    """A random point of the base hypersurface off the branch locus.

    Draws random affine lines, finds the roots of the restricted base form,
    and keeps a root where the branch form is a nonzero K-th power residue
    (so the point lifts to rational points of the cover).  Every returned
    point is re-verified against both conditions.
    """
    branch_form = instance.branch_form
    field = _require_sampling_field(instance)
    p = field.p
    fam = instance.family
    nvars = instance.ring.nvars
    m = fam.base_degree
    for attempt in range(budget):
        rng = Rng(derive_seed(seed, trial=attempt, purpose=PURPOSE_POINT_OFF))
        anchor = tuple(rng.below(p) for _ in range(nvars))
        direction = tuple(rng.below(p) for _ in range(nvars))
        if all(c == 0 for c in direction):
            continue
        restricted = _line_restriction(instance.base_form, m, anchor, direction)
        if not any(restricted):
            continue
        roots = poly1_roots(
            restricted,
            p,
            seed=derive_seed(seed, trial=attempt, purpose=PURPOSE_ROOT_SPLIT),
        )
        for r in roots:
            candidate = tuple(
                (a + r * d) % p for a, d in zip(anchor, direction)
            )
            if all(c == 0 for c in candidate):
                continue
            if poly_eval(instance.base_form, candidate) != 0:
                raise ArithmeticError("sampled point fails re-verification")
            branch_value = poly_eval(branch_form, candidate)
            if branch_value == 0:
                continue
            if not is_kth_power_residue(branch_value, fam.cover_degree, p):
                continue
            return candidate
    raise SampleBudgetError(
        f"no off-branch point found on {budget} random lines"
    )


def _sylvester_determinant(f_vals: Sequence[int], g_vals: Sequence[int], p: int) -> int:
    """Sylvester resultant determinant of two univariate polynomials given by
    ascending coefficient lists of their full degrees m and n."""
    m = len(f_vals) - 1
    n = len(g_vals) - 1
    size = m + n
    rows = []
    for shift in range(n):
        row = [0] * size
        for j, v in enumerate(reversed(f_vals)):
            row[shift + j] = v
        rows.append(row)
    for shift in range(m):
        row = [0] * size
        for j, v in enumerate(reversed(g_vals)):
            row[shift + j] = v
        rows.append(row)
    return det_mod(rows, p)


def _plane_restriction(
    F: Polynomial, degree: int, anchor: Sequence, first: Sequence, second: Sequence
) -> list:
    """F(anchor + s*first + r*second) for a form F of the given degree over
    GF(p) and canonical coordinates, as one s-column per power of r: entry
    j lists the coefficients of s^i*r^j, i = 0..degree ascending.

    One ``compose_series`` call with r = t and s = t^(degree+1) puts s^i*r^j
    at slot i*(degree+1) + j.  Every monomial has i + j <= degree, so no two
    share a slot and none lies past N = degree*(degree+2); the composition
    is exact.
    """
    field = F.ring.domain
    step = degree + 1
    N = degree * (degree + 2)
    gap = (0,) * (degree - 1)
    tail = (0,) * (N - step)
    images = [
        TruncatedSeries(field, (a, d) + gap + (c,) + tail)
        for a, c, d in zip(anchor, first, second)
    ]
    coeffs = compose_series(F, images, N).coeffs
    return [coeffs[j::step] for j in range(step)]


def sample_point_on_branch(
    instance: CoverInstance, seed: int, budget: int = 32
) -> tuple:
    """A random point lying on both the base hypersurface and the branch locus.

    Draws random affine 2-planes a + s*c + r*d and restricts each form to
    the plane once (``_plane_restriction``).  F(d) and G(d), the r^degree
    coefficients, lead in r on every slice; a zero one degenerates the
    plane.  The slice at s = x, a polynomial in r, is one Horner pass over
    the s-columns.  s is eliminated through the Sylvester resultant in r of
    the two slices, evaluated at m*n + 1 nodes s = x and interpolated; r
    is solved on each root slice, and every candidate is re-verified
    against both forms.
    """
    branch_form = instance.branch_form
    field = _require_sampling_field(instance, on_branch=True)
    p = field.p
    fam = instance.family
    nvars = instance.ring.nvars
    base_form = instance.base_form
    m = fam.base_degree
    n = fam.branch_degree
    nodes = range(m * n + 1)
    for attempt in range(budget):
        rng = Rng(derive_seed(seed, trial=attempt, purpose=PURPOSE_POINT_ON))
        anchor = tuple(rng.below(p) for _ in range(nvars))
        first = tuple(rng.below(p) for _ in range(nvars))
        second = tuple(rng.below(p) for _ in range(nvars))
        base_plane = _plane_restriction(base_form, m, anchor, first, second)
        branch_plane = _plane_restriction(branch_form, n, anchor, first, second)
        if base_plane[m][0] == 0 or branch_plane[n][0] == 0:
            continue

        def slice_at(columns: list, x: int) -> list:
            return [poly1_eval(column, x, p) for column in columns]

        ys = [
            _sylvester_determinant(
                slice_at(base_plane, x), slice_at(branch_plane, x), p
            )
            for x in nodes
        ]
        if all(v == 0 for v in ys):
            continue  # the restricted curves share a component; redraw
        resultant = lagrange_interpolate(list(nodes), ys, p)
        s_roots = poly1_roots(
            resultant, p, seed=derive_seed(seed, trial=attempt, point=1, purpose=PURPOSE_ROOT_SPLIT)
        )
        for s0 in s_roots:
            r_roots = poly1_roots(
                slice_at(base_plane, s0),
                p,
                seed=derive_seed(seed, trial=attempt, point=2, purpose=PURPOSE_ROOT_SPLIT),
            )
            for r0 in r_roots:
                candidate = tuple(
                    (a + s0 * c + r0 * d) % p
                    for a, c, d in zip(anchor, first, second)
                )
                if all(v == 0 for v in candidate):
                    continue
                if poly_eval(base_form, candidate) != 0:
                    continue
                if poly_eval(branch_form, candidate) != 0:
                    continue
                return candidate
    raise SampleBudgetError(
        f"no point on the branch locus found on {budget} random planes"
    )
