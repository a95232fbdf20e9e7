"""Formal K-th roots and truncated power series.

Two closely related expansions live here:

* multivariate: the homogeneous pieces of (1 + w_1 + ... + w_D)^(1/K) where
  each w_j is homogeneous of degree j, together with their partial sums;
* univariate: truncated series in one parameter t, used to build formal
  arcs on a hypersurface by Newton lifting and to measure vanishing orders
  of functions composed with such arcs.

All arithmetic is exact (rationals or a prime field); truncation order is
explicit everywhere and results never claim precision beyond it.

Composing a polynomial with series (``compose_series``) runs on one packed
kernel over plain ints for both fields (``_compose_integers``).  Each series
is packed into one Python int, w bits per coefficient (Kronecker
substitution; Schönhage 1982; Harvey 2009, "Faster polynomial
multiplication via multipoint Kronecker substitution"): a product is one
big-int product masked to its low slots.  The kernel strips each series'
t-order, skips the terms of F that vanish mod t^(N+1), and truncates every
other term at N minus its order.  Slots are signed; over GF(p) they hold
canonical residues and are reduced mod p once, when unpacked.
``_slot_bytes`` states the width that keeps every slot exact.  Over Q each
image's own denominator is cleared (``_compose_fractional``): the terms are
grouped by their exponents on the images with denominators, each group is
composed over the integral images at their narrow width, and the groups
are combined at the width ``_combine_bytes`` states.  On an off-branch arc
only the lifted image has denominators, so nearly all the work stays a few
bytes wide.

Newton lifting (``_newton_lift``, behind ``arc_lift`` and
``series_kth_root``) runs one packed kernel in both fields too: its Horner
chains run on signed slots as wide as ``_newton_bytes`` states, and only
the residual and the slope are unpacked, once per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import itemgetter, mul
from typing import Iterable, Mapping, Optional, Sequence

from .poly import (
    Domain,
    Polynomial,
    integer_numerators,
    over_denominator,
)


class SingularDirectionError(ValueError):
    """Newton lifting refused: the solved variable's partial vanishes at 0."""


# -- binomial expansion coefficients ------------------------------------------


@dataclass(frozen=True)
class GammaTable:
    """Taylor coefficients of (1+s)^(1/K) at s = 0, indices 1..N."""

    root_index: int
    coefficients: tuple

    def __post_init__(self):
        K = self.root_index
        gammas = self.coefficients
        if K < 2:
            raise ValueError("root index must be at least 2")
        if not gammas or gammas[0] != Fraction(1, K):
            raise ValueError("first coefficient must be 1/K")
        for i in range(1, len(gammas)):
            # (i+1) * gamma_{i+1} = (1/K - i) * gamma_i with 1-based indices.
            if Fraction(i + 1) * gammas[i] != (Fraction(1, K) - i) * gammas[i - 1]:
                raise ValueError(f"recurrence violated at index {i + 1}")

    def __getitem__(self, i: int) -> Fraction:
        if i == 0:
            return Fraction(1)
        return self.coefficients[i - 1]

    def __len__(self) -> int:
        return len(self.coefficients)


def gamma_coefficients(K: int, N: int) -> GammaTable:
    """γ_1..γ_N with γ_i = (1/K)(1/K − 1)⋯(1/K − i + 1)/i!."""
    if K < 2:
        raise ValueError("root index must be at least 2")
    if N < 1:
        raise ValueError("need at least one coefficient")
    out = []
    current = Fraction(1, K)
    out.append(current)
    for i in range(1, N):
        current = current * (Fraction(1, K) - i) / (i + 1)
        out.append(current)
    return GammaTable(K, tuple(out))


# -- multivariate truncations of the K-th root --------------------------------


def _check_pieces(w: Sequence[Polynomial]) -> None:
    if not w:
        raise ValueError("need at least one graded piece (zero is fine)")
    ring = w[0].ring
    for j, piece in enumerate(w, start=1):
        if piece.ring != ring:
            raise ValueError("graded pieces live in different rings")
        if not piece.is_zero() and (not piece.is_homogeneous() or piece.degree() != j):
            raise ValueError(f"piece {j} must be homogeneous of degree {j} or zero")


def phi_polynomials(w: Sequence[Polynomial], K: int, N: int) -> list:
    """Homogeneous pieces Φ_1..Φ_N of (1 + Σ w_j)^(1/K).

    With P = (1 + W)^(1/K) and E the (weighted) Euler operator,
    K·(1 + W)·E(P) = P·E(W); its degree-i piece is the recurrence
    K·i·Φ_i = Σ_{b=1..i} (b − K(i−b))·Φ_{i−b}·w_b with Φ_0 = 1, one
    homogeneous product per (i, b).  Each returned piece is homogeneous of
    degree exactly i (or zero).

    The recurrence runs on integers in every characteristic.  With D the
    lcm of the w_b's denominators (D = 1 over GF(p)) and W_b = D·w_b, it
    keeps integer numerators P_i of Φ_i = P_i/d_i, where d_0 = 1 and
    d_i = K·i·D·d_{i−1}; then
    P_i = Σ_b (b − K(i−b))·(d_{i−1}/d_{i−b})·P_{i−b}·W_b, and the ratio
    d_{i−1}/d_{i−b} is an integer.  Each Φ_i becomes field elements once:
    over Q one ``Fraction`` per term, over GF(p) one inverse of d_i.

    Over GF(p) with p > N no d_i is divisible by p, so each P_i is reduced
    mod p.  With p ≤ N the recurrence runs on the unreduced integers: it
    then computes the pieces over Q of the integer lifts of the w_b, whose
    coefficients are integer combinations of binom(1/K, j) =
    (1/K)(1/K − 1)⋯(1/K − j + 1)/j!.  For p ∤ K these are p-integral
    (1/K is a p-adic integer, and binomial coefficients take p-adic
    integers to p-adic integers), so each P_i/d_i in lowest terms has a
    denominator prime to p and reduces mod p to the piece over GF(p).
    ``over_denominator`` does that reduction through ``Fraction``.
    """
    if K < 2:
        raise ValueError("root index must be at least 2")
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    _check_pieces(w)
    ring = w[0].ring
    domain = ring.domain
    p = domain.characteristic
    modulus = p if p > N else 0
    D = lcm(*(c.denominator for piece in w for c in piece.terms.values()))
    pieces = [list(integer_numerators(piece.terms, D).items()) for piece in w]
    numerators = [{(0,) * ring.nvars: 1}]  # P_0, P_1, ...
    dens = [1]  # d_0, d_1, ...
    phis = []
    for i in range(1, N + 1):
        total: dict = {}
        for b in range(1, min(i, len(w)) + 1):
            factor = (b - K * (i - b)) * (dens[i - 1] // dens[i - b])
            if modulus:
                factor %= modulus
            if not factor:
                continue
            for e2, c2 in pieces[b - 1]:
                c2 *= factor
                if modulus:
                    c2 %= modulus
                for e1, c1 in numerators[i - b].items():
                    key = tuple(x + y for x, y in zip(e1, e2))
                    total[key] = total.get(key, 0) + c1 * c2
        if modulus:
            total = {e: c % modulus for e, c in total.items()}
        numerators.append(total)
        dens.append(K * i * D * dens[i - 1])
        phis.append(Polynomial(ring, over_denominator(total, dens[i], domain)))
    return phis


def truncate_f(q: Sequence[Polynomial], k: int) -> Polynomial:
    """Partial sum q_1 + ... + q_k of the graded pieces of the hypersurface."""
    if not 1 <= k <= len(q):
        raise ValueError(f"index {k} outside 1..{len(q)}")
    total = q[0]
    for piece in q[1:k]:
        total = total + piece
    return total


# -- univariate truncated series ----------------------------------------------


@dataclass(frozen=True)
class TruncatedSeries:
    """c_0 + c_1 t + ... + c_N t^N; nothing is known beyond t^N.

    Coefficients are canonical domain elements, not coerced here: outside
    values go through ``domain.of`` first.
    """

    domain: Domain
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a truncated series stores at least c_0")

    @property
    def order_bound(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int):
        return self.coeffs[i] if i < len(self.coeffs) else self.domain.zero

    def is_zero(self) -> bool:
        return all(self.domain.is_zero(c) for c in self.coeffs)

    def order(self) -> Optional[int]:
        """Index of the first nonzero coefficient; None if zero through N."""
        for i, c in enumerate(self.coeffs):
            if not self.domain.is_zero(c):
                return i
        return None

    def _common(self, other: "TruncatedSeries") -> int:
        if self.domain != other.domain:
            raise ValueError("series over different domains")
        return min(self.order_bound, other.order_bound)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self._common(other)
        add = self.domain.add
        return TruncatedSeries(
            self.domain, tuple(add(self[i], other[i]) for i in range(n + 1))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self._common(other)
        sub = self.domain.sub
        return TruncatedSeries(
            self.domain, tuple(sub(self[i], other[i]) for i in range(n + 1))
        )

    def __neg__(self) -> "TruncatedSeries":
        neg = self.domain.neg
        return TruncatedSeries(self.domain, tuple(neg(c) for c in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self._common(other)
        domain = self.domain
        out = [domain.zero] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if domain.is_zero(a):
                continue
            for j in range(n + 1 - i):
                b = other[j]
                if not domain.is_zero(b):
                    out[i + j] = domain.add(out[i + j], domain.mul(a, b))
        return TruncatedSeries(domain, tuple(out))

    def scale(self, scalar) -> "TruncatedSeries":
        domain = self.domain
        s = domain.of(scalar)
        return TruncatedSeries(domain, tuple(domain.mul(c, s) for c in self.coeffs))

    def pow_int(self, e: int) -> "TruncatedSeries":
        if e < 0:
            raise ValueError("negative powers are not supported")
        result = series_constant(self.domain, self.domain.one, self.order_bound)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result


def series_constant(domain: Domain, value, N: int) -> TruncatedSeries:
    return TruncatedSeries(domain, (domain.of(value),) + (domain.zero,) * N)


def series_zero(domain: Domain, N: int) -> TruncatedSeries:
    return series_constant(domain, domain.zero, N)


def series_kth_root(c: TruncatedSeries, K: int) -> TruncatedSeries:
    """r with r^K = c through the order bound; requires c_0 = 1 and r_0 = 1.

    r = 1 + s, where s(0) = 0 is the Newton lift of (1 + s)^K − c: the
    coefficients of s^k are C(K, k) for k ≥ 1 and 1 − c for k = 0, and the
    slope at s = 0 is K, invertible wherever K is accepted.  The lift runs
    on the packed ``_newton_lift`` in every field and characteristic.
    """
    domain = c.domain
    if c[0] != domain.one:
        raise ValueError("K-th root requires constant term exactly 1")
    if K < 2:
        raise ValueError("root index must be at least 2")
    characteristic = domain.characteristic
    if characteristic and K % characteristic == 0:
        raise ValueError("root index divisible by the characteristic")
    n = c.order_bound
    parts = [series_constant(domain, domain.one, n) - c] + [
        series_constant(domain, comb(K, k), n) for k in range(1, K + 1)
    ]
    s = _newton_lift(parts, n)
    return TruncatedSeries(domain, (domain.one,) + s.coeffs[1:])


# -- polynomial composition with series and formal arcs ------------------------


def _slot_bytes(T: int, C: int, A: int, d: int, N: int) -> int:
    """Bytes per slot that keep a packed composition truncated at t^N exact:
    T terms with integer coefficients of absolute value at most C and
    exponent sums at most d, at integer images whose coefficients are at
    most A in absolute value.

    One slot of a truncated product sums at most N + 1 products of a slot
    of each factor, so a product of e images has slots of at most
    (N + 1)^(e−1)·A^e, and truncating a term further, or shifting it up,
    never raises a slot.  Every slot of the result is then at most
    B = T·C·A^d·(N + 1)^max(d−1, 0) in absolute value, and so is every
    slot of a sum of some of the terms.  A width of bit_length(B) bits plus
    a sign bit holds each such slot as a balanced residue, in
    [−2^(w−1), 2^(w−1)).  Over GF(p), C and A are at most p − 1.
    """
    bound = T * C * A**d * (N + 1) ** max(d - 1, 0)
    return (bound.bit_length() + 1 + 7) // 8


@lru_cache(maxsize=256)
def _bias(width: int, slots: int) -> int:
    """2^(w−1) in each of ``slots`` slots of w = 8·width bits."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


def _pack_signed(coeffs: Sequence[int], width: int) -> int:
    """Σ c_k·2^(wk) for signed c_k with |c_k| < 2^(w−1), w = 8·width."""
    half = 1 << (8 * width - 1)
    raw = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _bias(width, len(coeffs))


def _unpack_signed(value: int, width: int, slots: int) -> list:
    """The signed slots c_k of value = Σ c_k·2^(wk), each |c_k| < 2^(w−1):
    adding 2^(w−1) to every slot makes each one a plain w-bit digit."""
    half = 1 << (8 * width - 1)
    raw = (value + _bias(width, slots)).to_bytes(width * slots, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, len(raw), width)]


def _reaching_terms(terms: Iterable[tuple], orders: Sequence[int], N: int) -> list:
    """(α, c, o) for each term (α, c) whose t-order o = Σ α_i·v_i, with
    v_i the order of image i, is at most N; the others vanish mod
    t^(N+1)."""
    out = []
    for exps, c in terms:
        o = sum(map(mul, exps, orders))
        if o <= N:
            out.append((exps, c, o))
    return out


def _settle(sums: Sequence[int], masks: Sequence[int], width: int, N: int) -> list:
    """The signed slots 0..N of Σ_o t^o·sums[o], where ``sums[o]`` is packed
    ``width`` bytes per slot and known only mod t^(N+1−o), that is, masked
    to its low N + 1 − o slots (``masks[o]``).

    Each sum is reduced to its balanced residue.  Where every slot of the
    true sum is below 2^(w−1) in absolute value, that residue is exactly
    the sum's packed value, signed slots and all, because truncation mod
    2^(w(N+1−o)) is a ring map.  So it is shifted up o slots and added in,
    with no further mask, and the total is unpacked once.
    """
    bits = 8 * width
    total = 0
    for o, value in enumerate(sums):
        if value:
            total += _balanced(value, masks[o]) << (bits * o)
    return _unpack_signed(total, width, N + 1)


def _balanced(value: int, mask: int) -> int:
    """value mod ``mask`` + 1, a power of two, as a residue balanced about 0."""
    half = (mask + 1) >> 1
    return ((value + half) & mask) - half


def _compose_integers(
    terms: Sequence[tuple], images: Sequence[Sequence[int]], orders: Sequence[int], N: int
) -> list:
    """Coefficients through t^N of Σ c·Π_i z_i(t)^(α_i) over the integers,
    by Kronecker substitution, for ``terms`` (α, c, o) from
    ``_reaching_terms`` and ``images`` z_i of t-order v_i = ``orders[i]``,
    given by their coefficients 0..N or beyond.

    A term of order o only reaches the slots o..N.  It is formed from
    cached powers of the stripped images z_i/t^(v_i), truncated mod
    t^(N+1−o), that is, masked to its low N + 1 − o slots.  Terms of one
    order are summed, and ``_settle`` adds the sums in at their orders:
    with ``_slot_bytes`` wide slots, every such sum fits.
    """
    if not terms:
        return [0] * (N + 1)
    width = _slot_bytes(
        len(terms),
        max(abs(c) for _, c, _ in terms),
        max((abs(x) for z in images for x in z), default=0),
        max(sum(exps) for exps, _, _ in terms),
        N,
    )
    bits = 8 * width
    masks = [(1 << (bits * (N + 1 - o))) - 1 for o in range(N + 1)]
    powers: list = [None] * len(images)  # powers[i][e] = (z_i/t^(v_i))^e
    sums = [0] * (N + 1)
    for exps, c, o in terms:
        mask = masks[o]
        term = c
        for i, e in enumerate(exps):
            if e:
                v = orders[i]
                chain = powers[i]
                if chain is None:
                    chain = powers[i] = [1, _pack_signed(images[i][v:], width) & masks[v]]
                while len(chain) <= e:
                    chain.append(chain[-1] * chain[1] & masks[len(chain) * v])
                term = term * (chain[e] & mask) & mask
        sums[o] += term
    return _settle(sums, masks, width, N)


def _combine_bytes(groups: int, H: int, S: int, m: int, N: int) -> int:
    """Bytes per slot that keep the last step of ``_compose_fractional``
    exact: ``groups`` series with integer slots of absolute value at most
    H, the group β times Π_j Z_j^(β_j)·D_j^(m_j − β_j), where m_j is the
    largest β_j, m = Σ_j m_j, and S = Π_j S_j^(m_j) for some S_j at least
    D_j and every slot of Z_j in absolute value.

    As in ``_slot_bytes``, one slot of a truncated product of e + 1 series
    is at most (N + 1)^e times the product of their largest slots, and
    truncating or shifting never raises a slot.  The group β then has
    slots of at most H·(N + 1)^|β|·Π_j S_j^(β_j)·S_j^(m_j − β_j)
    ≤ H·(N + 1)^m·S, so every slot of a sum of some of the groups is at
    most B = groups·H·(N + 1)^m·S.  A width of bit_length(B) bits plus a
    sign bit holds each such slot.
    """
    bound = groups * H * S * (N + 1) ** m
    return (bound.bit_length() + 1 + 7) // 8


def _picker(indices: Sequence[int]):
    """α ↦ the tuple of α_i for i in ``indices``."""
    if len(indices) == 1:
        (i,) = indices
        return lambda exps: (exps[i],)
    if not indices:
        return lambda exps: ()
    return itemgetter(*indices)


def _compose_fractional(
    terms: Sequence[tuple],
    images: Sequence[Sequence[int]],
    orders: Sequence[int],
    dens: Sequence[int],
    N: int,
) -> tuple:
    """(slots, E) with slots/E the coefficients through t^N of
    Σ c·Π_i z_i^(α_i), for ``terms`` (α, c, o) with integer c and images
    z_i = Z_i/D_i, given by their integer numerators Z_i and denominators
    D_i = ``dens[i]``.

    The terms are grouped by their exponents β on the fractional images,
    those with D_j > 1.  A group is G_β·Π_j z_j^(β_j), where G_β holds the
    group's terms over the integral images alone, so ``_compose_integers``
    forms it at the narrow width those images need, truncated at N − o_β
    for o_β = Σ_j β_j·v_j, the t-order of the group's fractional part.
    With m_j the largest β_j, the groups are combined as
    Σ_β G_β·Π_j Z_j^(β_j)·D_j^(m_j − β_j), on cached powers of the stripped
    Z_j at the width ``_combine_bytes`` states, over E = Π_j D_j^(m_j).
    """
    fractional = [i for i, D in enumerate(dens) if D > 1]
    integral = [i for i, D in enumerate(dens) if D == 1]
    fractional_part, integral_part = _picker(fractional), _picker(integral)
    grouped: dict = {}
    for exps, c, o in terms:
        grouped.setdefault(fractional_part(exps), []).append((integral_part(exps), c, o))
    integral_images = [images[i] for i in integral]
    integral_orders = [orders[i] for i in integral]
    vs = [orders[j] for j in fractional]
    groups = []
    for beta, group in grouped.items():
        ob = sum(map(mul, beta, vs))
        if ob:
            group = [(a, c, o - ob) for a, c, o in group]
        slots = _compose_integers(group, integral_images, integral_orders, N - ob)
        if any(slots):
            groups.append((beta, ob, slots))
    if not groups:
        return [0] * (N + 1), 1
    m = [max(beta[k] for beta, _, _ in groups) for k in range(len(fractional))]
    S = E = 1
    for j, mj in zip(fractional, m):
        S *= max(dens[j], *(abs(x) for x in images[j])) ** mj
        E *= dens[j] ** mj
    H = max(abs(x) for _, _, slots in groups for x in slots)
    width = _combine_bytes(len(groups), H, S, sum(m), N)
    bits = 8 * width
    masks = [(1 << (bits * (N + 1 - o))) - 1 for o in range(N + 1)]
    powers: list = [None] * len(fractional)  # powers[k][e] = (Z_j/t^(v_j))^e
    sums = [0] * (N + 1)
    for beta, ob, slots in groups:
        mask = masks[ob]
        term = _pack_signed(slots, width)
        for k, e in enumerate(beta):
            if e < m[k]:
                term *= dens[fractional[k]] ** (m[k] - e)
            if e:
                v = vs[k]
                chain = powers[k]
                if chain is None:
                    stripped = _pack_signed(images[fractional[k]][v:], width)
                    chain = powers[k] = [1, stripped & masks[v]]
                while len(chain) <= e:
                    chain.append(chain[-1] * chain[1] & masks[len(chain) * v])
                term = term * (chain[e] & mask) & mask
        sums[ob] += term & mask
    return _settle(sums, masks, width, N), E


def compose_series(
    F: Polynomial, series: Sequence[TruncatedSeries], N: int
) -> TruncatedSeries:
    """F at one series per variable (in ring order), truncated at t^N.

    Every series must be known through t^N and share F's domain.  The
    kernel skips every term of F whose t-order exceeds N and truncates
    each other term at N minus its order, on integers in both fields.  With
    L the lcm of the denominators of the coefficients of the reaching terms
    and D_i that of image i's, the coefficients become L·c and the images
    Z_i = D_i·z_i; over GF(p) the canonical residues are their own
    numerators, and L = D_i = 1.  Where every D_i is 1,
    ``_compose_integers`` composes all the terms at once.  Otherwise
    ``_compose_fractional`` groups them by their exponents on the images
    with D_j > 1, so each image's own denominator is cleared, and the many
    products over the integral images stay as narrow as those images
    allow.  The integer result over L·E becomes field elements once
    (``over_denominator``); over GF(p) each slot is reduced mod p.
    """
    domain = F.ring.domain
    if len(series) != F.ring.nvars:
        raise ValueError("one series per variable required")
    for s in series:
        if s.domain != domain:
            raise ValueError("series domain differs from coefficient domain")
        if s.order_bound < N:
            raise ValueError(f"series known only through t^{s.order_bound} < t^{N}")
    images = [s.coeffs[: N + 1] for s in series]
    orders = [next((k for k, x in enumerate(z) if x), N + 1) for z in images]
    terms = _reaching_terms(F.terms.items(), orders, N)
    if domain.characteristic:  # residues are their own numerators
        L, dens = 1, [1] * len(images)
    else:
        L = lcm(*(c.denominator for _, c, _ in terms))
        terms = [(exps, c.numerator * (L // c.denominator), o) for exps, c, o in terms]
        dens = [lcm(*(x.denominator for x in z)) for z in images]
        images = [[x.numerator * (D // x.denominator) for x in z] for z, D in zip(images, dens)]
    if terms and any(D > 1 for D in dens):
        slots, E = _compose_fractional(terms, images, orders, dens, N)
    else:
        slots, E = _compose_integers(terms, images, orders, N), 1
    values = over_denominator(dict(enumerate(slots)), L * E, domain)
    return TruncatedSeries(domain, tuple(values.values()))


def poly_on_series(F: Polynomial, assignment: Mapping[str, TruncatedSeries]) -> TruncatedSeries:
    """Compose F with one series per variable (keyed by variable name)."""
    ring = F.ring
    series = []
    for name in ring.variables:
        if name not in assignment:
            raise ValueError(f"no series provided for variable {name}")
        series.append(assignment[name])
    if not series:
        raise ValueError("composition needs at least one variable")
    return compose_series(F, series, min(s.order_bound for s in series))


@dataclass(frozen=True)
class Arc:
    """A formal curve: one series per variable plus certified residual orders.

    ``residual_orders`` maps an equation label to a certified lower bound on
    the t-order of that equation composed with the arc; an accepted arc has
    every residual bound at least order_bound + 1.
    """

    components: Mapping[str, TruncatedSeries]
    residual_orders: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        bounds = {s.order_bound for s in self.components.values()}
        if len(bounds) > 1:
            raise ValueError("arc components have mismatched order bounds")
        if not self.components:
            raise ValueError("an arc needs at least one component")
        object.__setattr__(self, "components", dict(self.components))
        object.__setattr__(self, "residual_orders", dict(self.residual_orders))

    @property
    def order_bound(self) -> int:
        return next(iter(self.components.values())).order_bound


@dataclass(frozen=True)
class OrderResult:
    """Vanishing order of a function along an arc.

    exact=True: the order is ``value`` (first nonzero t-coefficient seen).
    exact=False, infinite=False: only ``lower`` is certified (the series
    vanished through the truncation bound, so the order is >= lower).
    infinite=True: the function is the exact zero element.
    """

    lower: int
    exact: bool
    infinite: bool = False
    value: Optional[int] = None

    @classmethod
    def exactly(cls, d: int) -> "OrderResult":
        return cls(lower=d, exact=True, value=d)

    @classmethod
    def at_least(cls, bound: int) -> "OrderResult":
        return cls(lower=bound, exact=False)

    @classmethod
    def infinity(cls) -> "OrderResult":
        return cls(lower=0, exact=False, infinite=True)

    def describe(self) -> str:
        if self.infinite:
            return "infinite"
        if self.exact:
            return str(self.value)
        return f">= {self.lower}"


def ord_along_arc(D: Polynomial, arc: Arc) -> OrderResult:
    """Vanishing order of D composed with the arc.

    The exact zero polynomial has infinite order.  A nonzero polynomial whose
    composition vanishes through the truncation bound N yields only the
    certified statement "order >= N + 1" — never an exact number.
    """
    if D.is_zero():
        return OrderResult.infinity()
    composed = poly_on_series(D, arc.components)
    order = composed.order()
    if order is None:
        return OrderResult.at_least(composed.order_bound + 1)
    return OrderResult.exactly(order)


def arc_lift(
    F: Polynomial,
    solved_var: int,
    free_values: Mapping[int, TruncatedSeries],
    N: int,
) -> TruncatedSeries:
    """Series s(t) with s(0) = 0 solving F = 0 when variable ``solved_var``
    is s and the remaining variables follow ``free_values``.

    F is split by the exponent of s into F = Σ_k c_k(t)·s^k, each c_k composed
    with the free series once by ``compose_series``; ``_newton_lift`` then
    solves Σ_k c_k·s^k = 0 on packed ints in both fields.  Requires the
    origin to lie on {F = 0} (c_0(0) = 0) with the solved direction
    transverse (c_1(0) ≠ 0).
    """
    ring = F.ring
    domain = ring.domain
    if not 0 <= solved_var < ring.nvars:
        raise ValueError("solved variable index out of range")
    images = []
    for i, name in enumerate(ring.variables):
        if i == solved_var:
            images.append(series_zero(domain, N))  # the parts c_k lack s
            continue
        if i not in free_values:
            raise ValueError(f"missing series for variable {name}")
        s = free_values[i]
        if not domain.is_zero(s[0]):
            raise ValueError(f"free series for {name} must vanish at t = 0")
        images.append(s)
    parts: list = [{}, {}]  # c_0 and c_1 are read even when F lacks them
    for exps, coeff in F.terms.items():
        k = exps[solved_var]
        while len(parts) <= k:
            parts.append({})
        parts[k][exps[:solved_var] + (0,) + exps[solved_var + 1 :]] = coeff
    c = [compose_series(Polynomial(ring, part), images, N) for part in parts]
    if not domain.is_zero(c[0][0]):
        raise ValueError("the origin does not lie on the hypersurface")
    if domain.is_zero(c[1][0]):
        raise SingularDirectionError(
            "partial derivative in the solved direction vanishes at the origin"
        )
    return _newton_lift(c, N)


def _newton_lift(c: Sequence[TruncatedSeries], N: int) -> TruncatedSeries:
    """s with s(0) = 0 and Σ_k c_k·s^k ≡ 0 mod t^(N+1), by Newton iteration
    from s = 0; requires c_0(0) = 0 and c_1(0) invertible.

    A step from an approximation correct below t^k solves the linearization
    mod t^(2k), which makes it correct below t^(2k) (Brent & Kung 1978), so
    each step runs at twice the last precision, up to N.  One Horner pass
    in s on packed ints (``_packed_horner``, the same for both fields)
    yields the residual and the slope ∂/∂s, and the update residual/slope
    comes from the O(N²) division recurrence.  The lift is accepted only
    once the residual vanishes through t^N.
    """
    domain = c[0].domain
    horner = _packed_horner(c, N)
    current = [domain.zero] * (N + 1)
    known = 1  # current is correct below t^known
    steps = 0
    while True:
        n = min(N, 2 * known - 1)
        residual, slope = horner(current, n)
        if any(not domain.is_zero(x) for x in residual):
            update = _quotient(residual, slope, domain)
            current[: n + 1] = [domain.sub(x, u) for x, u in zip(current, update)]
            steps += 1
            if steps > N.bit_length() + 3:
                raise ArithmeticError("Newton iteration failed to converge")
        elif n == N:
            break
        known = n + 1
    if not domain.is_zero(current[0]):
        raise ArithmeticError("lifted series does not vanish at t = 0")
    return TruncatedSeries(domain, tuple(current))


def _quotient(r: Sequence, s: Sequence, domain: Domain) -> list:
    """q with q·s ≡ r mod t^len(r), for s_0 invertible: the O(N²)
    recurrence q_k = (r_k − Σ_{j=1..k} s_j·q_(k−j)) / s_0."""
    inv = domain.inv(s[0])
    q: list = []
    for k, rk in enumerate(r):
        q.append(domain.mul(domain.of(rk - sum(map(mul, s[1 : k + 1], reversed(q)))), inv))
    return q


def _newton_bytes(B: int, m: int, N: int) -> int:
    """Bytes per slot that keep ``_horner_chains`` exact through t^n, any
    n ≤ N, for integer parts C_0..C_m and an approximation S over δ with
    max|C_k|·δ^m ≤ B and max|S| ≤ B (over GF(p), δ = 1 and B ≤ p − 1).

    The chains run mod 2^(w(n+1)), a ring map of truncation, so only the
    true slots of the results must fit.  With X = B·(N + 1), a truncated
    product of slots bounded by u and by B has slots of at most u·X.  The
    residual chain adds constants C_k·δ^(m−k) ≤ B, so R_0 = B,
    R_(j+1) = R_j·X + B gives R_j ≤ B·(j + 1)·X^j.  The slope chain adds
    δ·R_j with δ ≤ B (C_1(0) ≠ 0), so T_(j+1) = T_j·X + B·R_j from T_0 = 0
    gives T_j ≤ B²·X^(j−1)·j·(j + 1)/2 ≤ B·j·(j + 1)·X^j.  Both end at most
    B·(m + 1)²·X^m = (m + 1)²·B^(m+1)·(N + 1)^m, and bit_length of that
    plus a sign bit holds each as a balanced residue.
    """
    bound = (m + 1) ** 2 * B ** (m + 1) * (N + 1) ** m
    return (bound.bit_length() + 1 + 7) // 8


def _horner_chains(packed: Sequence[int], value: int, delta: int, mask: int) -> tuple:
    """Σ_k C_k·δ^(m−k)·S^k and δ times its S-derivative at S = ``value``,
    both at one scale, for the packed C_0..C_m, mod ``mask`` + 1."""
    residual, slope, scale = packed[-1], 0, 1
    for coefficient in reversed(packed[:-1]):
        scale *= delta
        slope = (slope * value & mask) + delta * residual
        residual = (residual * value & mask) + (coefficient * scale & mask)
    return residual, slope


def _packed_horner(c: Sequence[TruncatedSeries], N: int):
    """Residual and slope through t^n at a coefficient list, as integer
    slots at one scale, in both fields: for parts C_k/L and approximation
    S/δ, L and δ the lcms of their denominators, the chains give L·δ^m
    times the residual and the slope, whose quotient is the update.  Over
    GF(p), L = δ = 1.  The C_k are repacked when the width for
    B = max(max|C_k|·δ^m, max|S|) grows."""
    m = len(c) - 1
    coeffs = [part.coeffs[: N + 1] for part in c]
    L = lcm(*[x.denominator for z in coeffs for x in z])
    C = [[x.numerator * (L // x.denominator) for x in z] for z in coeffs]
    top = max([abs(x) for z in C for x in z])
    state: list = [0, 0, []]  # the largest B seen, its width, the C_k packed at it

    def horner(current: list, n: int) -> tuple:
        s = current[: n + 1]
        delta = lcm(*[x.denominator for x in s])
        S = [x.numerator * (delta // x.denominator) for x in s]
        bound = max(top * delta**m, *map(abs, S))
        if bound > state[0]:
            width = _newton_bytes(bound, m, N)
            packed = state[2] if width == state[1] else [_pack_signed(z, width) for z in C]
            state[:] = bound, width, packed
        _, width, packed = state
        bits = 8 * width * (n + 1)
        mask = (1 << bits) - 1
        residual, slope = _horner_chains(packed, _pack_signed(S, width) & mask, delta, mask)
        both = _balanced(residual, mask) + (_balanced(slope, mask) << bits)
        slots = _unpack_signed(both, width, 2 * n + 2)
        return slots[: n + 1], slots[n + 1 :]

    return horner
