"""Groebner engine and the local regular-sequence certifier.

The core question answered here: is an ordered tuple of polynomials
vanishing at the origin a regular sequence in the local ring at the origin?
The test is geometric.  For a prefix of length i in n variables, the prefix
ideal is intersected with n - i random linear cuts through the origin; the
prefix is certified when the origin is an isolated point of the resulting
zero set.  Isolation is a sound proof (no probabilistic element).  The
whole sequence is tried first: its certificate certifies every prefix, and
the prefixes get cuts of their own only when it fails.  When every cut
draw of a prefix fails, the dimension of its zero set decides: the
expected one certifies the prefix, a larger one refutes it, both as proofs.

Isolation is certified for homogeneous sequences, the only kind the
pipeline builds (every regularity sequence consists of graded pieces):
independent linear elements of the ideal are eliminated by a linear
substitution, and isolation is equivalent to a Macaulay-matrix full-rank
check in the top relevant degree — with exactly as many generators as
variables, the quotient is a complete intersection, whose Hilbert function
provably vanishes first at cap = sum(deg_j - 1) + 1, making the rank test
an exact decision.  The check first ranks Macaulay's square matrix, one row
per column monomial x^a (the multiple of the first generator f_i with
a_i >= deg f_i); its rows are rows of the full matrix, so a nonsingular
square matrix proves full column rank.  Only when it is singular (Macaulay's
extraneous factor vanishes) are all multiples of all generators ranked.
Over Q the forms are reduced modulo a large prime at which every
coefficient is defined, and the elimination and the rank run on residues.
Residues below 2^31, as RANK_CHECK_PRIME's are, are stored in 4 bytes and
widened for every product.
Non-homogeneous sequences are rejected.
Both matrix shapes follow from the degrees alone, so a sequence whose
matrices would pass MACAULAY_ENTRY_BUDGET entries is reported inconclusive
before anything is built.

Nothing in the certificate runs once per matrix entry in Python.  The
substitution moves the exponents of the variables that stay and forms one
product of cached powers of the linear images per group of terms; each
Macaulay matrix is scattered form by form, its columns found by mixed-radix
monomial codes.  Each diagonal entry of the square matrix is a form's
x_i^(d_i) coefficient, so that matrix is eliminated on its diagonal, with
no pivot search, in a fill-reducing Markowitz order planned once per
process for each number of variables and degrees.  It is stored as its
envelope (Jennings 1966): one flat array that keeps each row from its first
to its last structural column, fill included, laid out by the plan, so an
entry's address is its row's offset plus its column.  Only when a diagonal
pivot vanishes is the Schur complement left read out densely, for the pivot
search that also ranks the full matrix; that search updates only the rows
with a nonzero in the pivot column, in the columns where the pivot row is
nonzero.

Buchberger completion runs only for a prefix whose cut draws all failed,
to find the dimension of its zero set.  That work is metered by a
pair-reduction budget; when the budget runs out the dimension is reported
as unknown and the refutation is Monte-Carlo evidence.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .modular import is_prime
from .poly import (
    Domain,
    Polynomial,
    PolyRing,
    PrimeField,
    _monomials,
    poly_mul,
    ring_over,
)
from .seeds import PURPOSE_LINEAR_CUTS, Rng, derive_seed

DEFAULT_PAIR_BUDGET = 200_000
# Rank over Q is certified from below by ranking mod this prime (or the next
# prime below it where every entry is defined): specializing can only lower
# rank, so a full rank mod p proves full rank over Q.
RANK_CHECK_PRIME = 2_147_483_629
# A cut draw whose Macaulay matrices would hold more entries than this, the
# square one counted densely and the full one together, is refused before
# either is built: 256 MiB at 4 bytes an entry, as entries are stored for
# p < 2^31 (``_storage_dtype``).  The square matrix is stored as its
# envelope, which never holds more than the dense count; the envelope's own
# size needs the pivot plan.  (6,5,2,2)'s top prefix needs 1820^2 + 3421 *
# 1820.
MACAULAY_ENTRY_BUDGET = 2**26


class BudgetExceededError(RuntimeError):
    """Raised when a Groebner computation exhausts its pair-reduction budget."""

    def __init__(self, budget: int, context: str):
        super().__init__(f"pair-reduction budget of {budget} exceeded during {context}")
        self.budget = budget
        self.context = context


@dataclass(frozen=True)
class IdealPresentation:
    """A ring together with generators (zero generators are dropped)."""

    ring: PolyRing
    generators: tuple

    def __post_init__(self):
        gens = tuple(g for g in self.generators if not g.is_zero())
        for g in gens:
            if g.ring != self.ring:
                raise ValueError("generators live in different rings")
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis under graded reverse lexicographic order."""

    ring: PolyRing
    basis: tuple

    def is_unit_ideal(self) -> bool:
        return any(b.degree() == 0 for b in self.basis)


# -- monomial helpers ----------------------------------------------------------


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def _coprime(a: tuple, b: tuple) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def normal_form(
    f: Polynomial, basis: Sequence[Polynomial], leads: Optional[Sequence[tuple]] = None
) -> Polynomial:
    """Full multivariate division remainder (every term reduced).

    ``leads``, when given, are the basis members' leading exponents (as
    ``groebner_basis`` stores them), so none is derived again.  The terms
    still to reduce sit in a dict with a heap of their grevlex keys: a step
    only removes the largest term and adds smaller ones, so each term's key
    is pushed once and the largest is popped, never searched for.
    """
    ring = f.ring
    domain = ring.domain
    if leads is None:
        leads = [g.leading()[0] for g in basis if not g.is_zero()]
        basis = [g for g in basis if not g.is_zero()]
    reducers = [(lead, g.terms[lead], g) for lead, g in zip(leads, basis)]

    def heap_key(exps: tuple) -> tuple:
        # Ascending order of this key is descending grevlex (term_key).
        return (-ring.monomial_degree(exps), exps[::-1], exps)

    work = dict(f.terms)
    pending = [heap_key(exps) for exps in work]
    heapq.heapify(pending)
    remainder: dict = {}
    while pending:
        exps = heapq.heappop(pending)[2]
        coeff = work.pop(exps)
        if domain.is_zero(coeff):
            continue  # cancelled after its key was pushed
        hit = next((r for r in reducers if _divides(r[0], exps)), None)
        if hit is None:
            remainder[exps] = coeff
            continue
        lead_exps, lead_coeff, g = hit
        shift = tuple(b - a for a, b in zip(lead_exps, exps))
        factor = domain.div(coeff, lead_coeff)
        for term_exps, term_coeff in g.terms.items():
            if term_exps == lead_exps:
                continue
            key = tuple(a + b for a, b in zip(shift, term_exps))
            product = domain.mul(factor, term_coeff)
            if key in work:
                work[key] = domain.sub(work[key], product)
            else:
                work[key] = domain.neg(product)
                heapq.heappush(pending, heap_key(key))
    return Polynomial(ring, remainder)


def _s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    ring = f.ring
    domain = ring.domain
    (fe, fc), (ge, gc) = f.leading(), g.leading()
    both = _lcm(fe, ge)
    f_mono = Polynomial(ring, {tuple(b - a for a, b in zip(fe, both)): domain.inv(fc)})
    g_mono = Polynomial(ring, {tuple(b - a for a, b in zip(ge, both)): domain.inv(gc)})
    return poly_mul(f_mono, f) - poly_mul(g_mono, g)


def groebner_basis(
    I: IdealPresentation, budget: int = DEFAULT_PAIR_BUDGET, context: str = "completion"
) -> GroebnerBasis:
    """Reduced Groebner basis by Buchberger completion.

    Pair selection follows the normal strategy (smallest lcm first, ties by
    index), with the product and chain criteria pruning useless pairs; the
    result is deterministic for a fixed input.  Each processed S-pair counts
    one step against ``budget``.
    """
    ring = I.ring
    basis: list = []
    seen = set()
    for g in I.generators:
        monic = g.monic()
        if monic not in seen:
            seen.add(monic)
            basis.append(monic)
    if not basis:
        return GroebnerBasis(ring, ())
    # Leading exponents are stored as members join, and each pending pair
    # is keyed once, when it is added: (term_key of the lcm, i, j).
    leads = [g.leading()[0] for g in basis]
    pending: list = []
    waiting = set()

    def add_pairs(j: int) -> None:
        for i in range(j):
            both = _lcm(leads[i], leads[j])
            heapq.heappush(pending, (ring.term_key(both), i, j, both))
            waiting.add((i, j))

    for j in range(len(basis)):
        add_pairs(j)
    steps = 0
    while pending:
        _, i, j, both = heapq.heappop(pending)
        waiting.discard((i, j))
        if _coprime(leads[i], leads[j]):
            continue
        chained = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if not _divides(leads[k], both):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in waiting and b not in waiting:
                chained = True
                break
        if chained:
            continue
        steps += 1
        if steps > budget:
            raise BudgetExceededError(budget, context)
        remainder = normal_form(_s_polynomial(basis[i], basis[j]), basis, leads)
        if not remainder.is_zero():
            member = remainder.monic()
            basis.append(member)
            leads.append(member.leading()[0])
            add_pairs(len(basis) - 1)

    # Minimalize: drop members whose leading term another one divides.
    minimal = [
        k
        for k, lead in enumerate(leads)
        if not any(
            _divides(other, lead)
            for j, other in enumerate(leads)
            if j != k and not (j > k and other == lead)
        )
    ]
    # Tail-reduce each member against the others.
    reduced: list = []
    for idx, k in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        r = normal_form(basis[k], [basis[j] for j in others], [leads[j] for j in others])
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda p: ring.term_key(p.leading()[0]))
    return GroebnerBasis(ring, tuple(reduced))


# -- dimension -----------------------------------------------------------------


def ideal_dimension(I: IdealPresentation, budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """Krull dimension of the affine zero set; -1 for the unit ideal.

    Equals the largest cardinality of a variable subset S such that no
    leading term of the reduced basis is supported inside S.
    """
    gb = groebner_basis(I, budget, "dimension computation")
    n = I.ring.nvars
    if not gb.basis:
        return n
    if gb.is_unit_ideal():
        return -1
    supports = [
        frozenset(k for k, e in enumerate(p.leading()[0]) if e) for p in gb.basis
    ]
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            if all(not support <= chosen for support in supports):
                return size
    return 0


# -- regularity certification ---------------------------------------------------


CERTIFIED_REGULAR = "CertifiedRegular"
REFUTED_AT_PREFIX = "RefutedAtPrefix"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class CutTrial:
    """One draw of random linear cuts for one prefix, decided by the rank
    certificate."""

    prefix: int
    trial: int
    cut_seed: int
    certified: bool


@dataclass(frozen=True)
class PrefixEvidence:
    prefix: int
    certified: bool
    expected_dimension: int
    trials: tuple
    local_dimension: Optional[int] = None


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome of the prefix-by-prefix regularity test.

    A CertifiedRegular outcome is a proof: every prefix passed a sound
    isolation certificate, or its zero set has the expected dimension, or
    a longer prefix's certificate implies it (a record with no trials).
    RefutedAtPrefix(i) says that every cut draw failed for prefix i; it is
    a proof when the prefix's local dimension is known (it exceeds the
    expected one) and Monte-Carlo evidence when the Groebner budget ran out
    first.  Inconclusive says that a cut draw's Macaulay matrices were too
    large to build; its message names their shape.
    """

    outcome: str
    trial_count: int
    evidence: tuple
    refuted_prefix: Optional[int] = None
    message: str = ""

    def __post_init__(self):
        if self.outcome == REFUTED_AT_PREFIX and self.refuted_prefix is None:
            raise ValueError("refutation must name its prefix")
        if self.outcome == CERTIFIED_REGULAR:
            if any(not record.certified for record in self.evidence):
                raise ValueError("certification requires every prefix certified")
        for record in self.evidence:
            if record.trials:
                continue
            implied = record.certified and any(
                longer.prefix > record.prefix
                and longer.trials
                and longer.trials[-1].certified
                for longer in self.evidence
            )
            if not implied:
                raise ValueError(
                    f"prefix {record.prefix} has no cut draw, and no longer "
                    "prefix's certificate implies it"
                )

    @property
    def certified(self) -> bool:
        return self.outcome == CERTIFIED_REGULAR


def random_linear_cuts(ring: PolyRing, count: int, seed: int) -> list:
    """Deterministic random linear forms through the origin (none zero)."""
    rng = Rng(seed)
    domain = ring.domain
    cuts = []
    for _ in range(count):
        while True:
            coeffs = [domain.random(rng) for _ in range(ring.nvars)]
            if any(not domain.is_zero(c) for c in coeffs):
                break
        terms = {
            tuple(1 if k == i else 0 for k in range(ring.nvars)): c
            for i, c in enumerate(coeffs)
        }
        cuts.append(Polynomial(ring, terms))
    return cuts


def _rank_check_prime(gens: Sequence[Polynomial], domain: Domain) -> int:
    """The field's own prime, or over Q the first prime of the descending
    sequence RANK_CHECK_PRIME, 2147483587, ... at which no coefficient's
    denominator vanishes (finitely many primes divide the denominators)."""
    if isinstance(domain, PrimeField):
        return domain.p
    denominators = {c.denominator for g in gens for c in g.terms.values()}
    p = RANK_CHECK_PRIME
    while any(d % p == 0 for d in denominators):
        p -= 2
        while not is_prime(p):
            p -= 2
    return p


def _reduced_row_echelon(rows: list, domain: Domain) -> tuple:
    """In-place RREF over an exact field; returns (rows, pivot column list)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    mat = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next(
            (k for k in range(r, len(mat)) if not domain.is_zero(mat[k][c])), None
        )
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = domain.inv(mat[r][c])
        mat[r] = [domain.mul(x, inv) for x in mat[r]]
        for k in range(len(mat)):
            if k != r and not domain.is_zero(mat[k][c]):
                factor = mat[k][c]
                mat[k] = [
                    domain.sub(x, domain.mul(factor, y)) for x, y in zip(mat[k], mat[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _product_dtype(p: int):
    """The dtype the rank checks compute in: int64 while a product of two
    residues fits, (p - 1)^2 < 2^63; exact Python ints (object) beyond."""
    return np.int64 if (p - 1) ** 2 < 2**63 else object


def _storage_dtype(p: int):
    """The dtype the rank checks store residues in: int32 while they fit,
    p < 2^31, else ``_product_dtype(p)``.  Entries are cast to
    ``_product_dtype(p)`` before any product or sum is formed, as an int32
    array times a Python int stays int32 and wraps; reduced mod p, the
    results fit the storage again."""
    return np.int32 if p < 2**31 else _product_dtype(p)


class PivotPlan(NamedTuple):
    """A diagonal pivot order for Macaulay's square matrix, and the envelope
    that stores the matrix (``_pivot_plan``).

    The envelope is one flat array of ``size`` entries.  Row r keeps the
    columns ``first[r]`` to ``last[r]``, which hold every entry the row has
    at any step of the elimination, and entry (r, c) sits at ``offset[r] +
    c``.  ``steps`` holds one (pivot, its row's offset, hot end, support end)
    per pivot, in order.  Pivot k updates the rows whose column-k entries
    sit at ``hot[previous hot end:hot end]`` (an (h, 1) array), in the
    columns whose entries in row k sit at ``support[previous support
    end:support end]``; both exclude k and the pivots before it.  So with
    ``row`` its row's offset, the entries updated sit at ``hot - (row + k) +
    support``.  Every index is int64.
    """

    steps: tuple
    hot: np.ndarray
    support: np.ndarray
    first: np.ndarray
    last: np.ndarray
    offset: np.ndarray
    size: int


def _has_full_column_rank(rows, ncols: int, p: int) -> bool:
    """Gaussian elimination mod p that touches only nonzero entries.

    ``rows`` is a 2-D array, eliminated in place when its dtype is the one
    ``_storage_dtype(p)`` names, or a list of equal-length int lists.  Each
    pivot updates only the rows with a nonzero in its column, and in them
    only the columns where the pivot row is nonzero (structured Gaussian
    elimination, LaMacchia & Odlyzko 1990).  It ranks the full Macaulay
    matrix and the Schur complement ``_envelope_is_nonsingular`` leaves,
    both stored densely but worked sparsely.  Entries stay in [0, p).
    """
    if len(rows) < ncols:
        return False
    wide = _product_dtype(p)
    mat = np.asarray(rows, dtype=_storage_dtype(p))
    for c in range(ncols):
        below = np.flatnonzero(mat[c:, c])
        if below.size == 0:
            return False
        pivot = c + int(below[0])
        if pivot != c:
            mat[[c, pivot]] = mat[[pivot, c]]
        hot = c + below[1:]
        if hot.size:
            # Row c is never read again, so its scaled copy stays local.
            # Entries are widened before any product (``_storage_dtype``).
            support = c + np.flatnonzero(mat[c, c:])
            scaled = mat[c, support].astype(wide, copy=False)
            scaled *= p - pow(int(mat[c, c]), -1, p)
            scaled %= p
            block = (hot[:, None], support)
            updated = mat[hot, c][:, None].astype(wide, copy=False) * scaled
            updated += mat[block].astype(wide, copy=False)
            updated %= p
            mat[block] = updated.astype(mat.dtype, copy=False)
    return True


def _envelope_is_nonsingular(envelope: np.ndarray, plan: PivotPlan, p: int) -> bool:
    """Whether the square matrix stored in ``plan``'s envelope is
    nonsingular mod p; the envelope is eliminated in place.

    The diagonal pivots come in the plan's order, each with one scalar read
    and one gather, update and scatter over the rows and columns the plan
    lists, all inside those rows' envelopes.  When every pivot is nonzero the
    matrix is nonsingular.  At the first that vanishes, the rows and columns
    of the pivots left hold the Schur complement of those done, which is
    singular exactly when the matrix is: it is read out densely, zero
    outside each row's envelope, and ``_has_full_column_rank`` ranks it.
    """
    wide = _product_dtype(p)
    hot_at = support_at = 0
    for done, (k, row, hot_end, support_end) in enumerate(plan.steps):
        pivot = envelope.item(row + k)
        if pivot == 0:
            rest = np.array([step[0] for step in plan.steps[done:]])
            rows, columns = np.nonzero(
                (plan.first[rest, None] <= rest) & (rest <= plan.last[rest, None])
            )
            schur = np.zeros((rest.size, rest.size), dtype=envelope.dtype)
            schur[rows, columns] = envelope.take(plan.offset[rest[rows]] + rest[columns])
            return _has_full_column_rank(schur, rest.size, p)
        if hot_end > hot_at:
            hot = plan.hot[hot_at:hot_end]
            support = plan.support[support_at:support_end]
            # Entries are widened before any product (``_storage_dtype``).
            scaled = envelope.take(support).astype(wide, copy=False)
            scaled *= p - pow(pivot, -1, p)
            scaled %= p
            block = hot - (row + k) + support
            updated = envelope.take(hot).astype(wide, copy=False) * scaled
            updated += envelope.take(block).astype(wide, copy=False)
            updated %= p
            # A same-dtype fancy store is faster than put() or a casting store.
            envelope[block] = updated.astype(envelope.dtype, copy=False)
        hot_at, support_at = hot_end, support_end
    return True


def _macaulay_shape(nvars: int, degrees: Sequence[int]) -> tuple:
    """(columns, full rows) of the Macaulay matrices of forms of these
    degrees in ``nvars`` variables: the monomials of degree cap, and the
    multiples x^b·f_i of degree cap.  The square matrix is columns²."""
    cap = sum(d - 1 for d in degrees) + 1
    columns = comb(cap + nvars - 1, nvars - 1)
    full_rows = sum(comb(cap - d + nvars - 1, nvars - 1) for d in degrees)
    return columns, full_rows


def _macaulay_positions(
    nvars: int, degrees: Sequence[int], supports: Sequence, square: bool
) -> tuple:
    """Where forms with these supports sit in their Macaulay matrix.

    Columns are the monomials of degree cap = sum(d_i - 1) + 1 in the
    ``monomials_of_degree`` order.  With ``square``, the row of column x^a
    is x^(a - d_i e_i)·f_i for the first form i with a_i >= d_i (Macaulay's
    assignment; some i qualifies by pigeonhole), so its diagonal entry is
    f_i's x_i^(d_i) coefficient; otherwise the rows are every multiple
    x^b·f_i of degree cap, form by form.  Each monomial gets the
    mixed-radix code sum a_j·(cap + 1)^j.  No exponent reaches cap + 1, so
    the code of a product is the sum of the codes, and in one degree the
    codes rise exactly as grevlex descends (the last variable is the most
    significant digit): ``searchsorted`` on the column codes finds every
    entry's column at once.

    Returns (rows, columns, one (row indices, entry columns) pair per
    form), the entry columns one row per row index and one column per
    support monomial.
    """
    cap = sum(d - 1 for d in degrees) + 1
    # Codes stay below (cap + 1)^v, far inside int64 for any matrix that fits.
    place = (cap + 1) ** np.arange(nvars, dtype=np.int64)

    def codes(exponents) -> np.ndarray:
        return (np.array(exponents, dtype=np.int64) * place).sum(axis=1)

    columns = _monomials(nvars, cap)
    column_codes = codes(columns)
    if square:
        d = np.array(degrees)
        form_of_row = np.argmax(np.array(columns) >= d, axis=1)
        shift_codes = column_codes - d[form_of_row] * place[form_of_row]
    else:
        shifts = [_monomials(nvars, cap - d) for d in degrees]
        form_of_row = np.repeat(np.arange(len(degrees)), [len(s) for s in shifts])
        shift_codes = np.concatenate([codes(s) for s in shifts])
    positions = []
    for k, support in enumerate(supports):
        rows = np.flatnonzero(form_of_row == k)
        entries = shift_codes[rows, None] + codes(support)
        positions.append((rows, np.searchsorted(column_codes, entries)))
    return len(shift_codes), len(columns), positions


def _macaulay_matrix(forms: Sequence[Polynomial], p: int) -> np.ndarray:
    """The full Macaulay matrix of v homogeneous forms in v variables over
    GF(p), every multiple of every form, laid out by
    ``_macaulay_positions``."""
    nvars = forms[0].ring.nvars
    degrees = [g.degree() for g in forms]
    nrows, ncols, positions = _macaulay_positions(
        nvars, degrees, [list(g.terms) for g in forms], square=False
    )
    dtype = _storage_dtype(p)
    mat = np.zeros((nrows, ncols), dtype=dtype)
    for g, (rows, columns) in zip(forms, positions):
        mat[rows[:, None], columns] = np.array(list(g.terms.values()), dtype=dtype)
    return mat


def _macaulay_envelope(
    forms: Sequence[Polynomial], p: int, plan: PivotPlan
) -> np.ndarray:
    """Macaulay's square matrix of v homogeneous forms in v variables over
    GF(p), laid out by ``_macaulay_positions`` and stored in the envelope of
    ``plan``, the pivot plan for their number of variables and degrees."""
    nvars = forms[0].ring.nvars
    degrees = [g.degree() for g in forms]
    _, _, positions = _macaulay_positions(
        nvars, degrees, [list(g.terms) for g in forms], square=True
    )
    dtype = _storage_dtype(p)
    envelope = np.zeros(plan.size, dtype=dtype)
    for g, (rows, columns) in zip(forms, positions):
        envelope[plan.offset[rows, None] + columns] = np.array(
            list(g.terms.values()), dtype=dtype
        )
    return envelope


def _append(buffer: np.ndarray, end: int, values: np.ndarray) -> np.ndarray:
    """``buffer`` with ``values`` written from ``end`` on: the same array,
    or when it is too short a copy of its first ``end`` entries in one
    twice as long (or as long as needed)."""
    stop = end + values.size
    if stop > buffer.size:
        grown = np.empty(max(2 * buffer.size, stop), dtype=buffer.dtype)
        grown[:end] = buffer[:end]
        buffer = grown
    buffer[end:stop] = values
    return buffer


@functools.lru_cache(maxsize=32)
def _pivot_plan(nvars: int, degrees: tuple) -> PivotPlan:
    """Diagonal pivot order for Macaulay's square matrix of forms of these
    degrees in ``nvars`` variables, with the structural fill of each pivot
    and the envelope of the filled rows.

    The pattern is that of dense forms, so it contains the pattern of every
    square matrix of this shape at every step of the elimination.  Pivots
    are chosen greedily by the Markowitz cost (r - 1)(c - 1), with r and c
    the row and column counts of the pattern still to eliminate (Markowitz
    1957), ties to the lowest index.  A pivot lists no rows when its row or
    its column holds nothing else.  Each row's first and last column start
    at its form's and widen with the fill as it is applied, so the envelope
    holds the pattern at every step.  Only booleans are held while planning,
    and the indices are turned into envelope offsets once the envelope is
    known.
    """
    n, _, positions = _macaulay_positions(
        nvars, degrees, [_monomials(nvars, d) for d in degrees], square=True
    )
    pattern = np.zeros((n, n), dtype=bool)
    first = np.empty(n, dtype=np.int64)
    last = np.empty(n, dtype=np.int64)
    for rows, columns in positions:
        pattern[rows[:, None], columns] = True
        first[rows] = columns.min(axis=1)
        last[rows] = columns.max(axis=1)
    del positions
    row_count = pattern.sum(axis=1)
    column_count = pattern.sum(axis=0)
    steps = np.zeros((n, 3), dtype=np.int64)
    # The pivots' hot rows and support columns, back to back in buffers
    # that double when full, so they grow with the fill.
    hots = np.empty(n, dtype=np.int32)
    supports = np.empty(n, dtype=np.int32)
    hot_end = support_end = 0
    for i in range(n):
        k = int(np.argmin((row_count - 1) * (column_count - 1)))
        # A pivot done costs n^2 from now on, above any other's (n - 1)^2.
        row_count[k] = column_count[k] = n + 1
        pattern[k, k] = False
        hot = np.flatnonzero(pattern[:, k])
        support = np.flatnonzero(pattern[k])
        pattern[hot, k] = False
        pattern[k] = False
        if hot.size and support.size:
            block = (hot[:, None], support)
            fill = ~pattern[block]
            row_count[hot] += fill.sum(axis=1) - 1
            column_count[support] += fill.sum(axis=0) - 1
            pattern[block] = True
            first[hot] = np.minimum(first[hot], support[0])
            last[hot] = np.maximum(last[hot], support[-1])
            hots = _append(hots, hot_end, hot)
            supports = _append(supports, support_end, support)
            hot_end += hot.size
            support_end += support.size
        else:
            row_count[hot] -= 1
            column_count[support] -= 1
        steps[i] = k, hot_end, support_end
    del pattern
    # The rows' envelopes lie back to back in row order.
    width = last - first + 1
    offset = np.cumsum(width) - width - first
    pivots = steps[:, 0]
    # Each pivot's hot rows become the addresses of their entries in its
    # column, and its support columns those of its own row's entries.
    hot = offset[hots[:hot_end]]
    hot += np.repeat(pivots, np.diff(steps[:, 1], prepend=0))
    support = supports[:support_end].astype(np.int64)
    support += np.repeat(offset[pivots], np.diff(steps[:, 2], prepend=0))
    return PivotPlan(
        tuple(zip(pivots.tolist(), offset[pivots].tolist(), *steps[:, 1:].T.tolist())),
        hot[:, None],
        support,
        first,
        last,
        offset,
        int(width.sum()),
    )


def _substitute_linear(F: Polynomial, images: Sequence[Polynomial]) -> Polynomial:
    """F.substitute(images) for images that are linear forms (or zero).

    A variable whose image is a plain variable only moves its exponent.
    F's terms are grouped by their exponents in the other variables, and
    each group meets one product of cached powers of those images.
    Monomials of the target ring are mixed-radix codes in base
    deg F + 1, so a product of monomials is a sum of codes.
    """
    target = images[0].ring
    domain = target.domain
    v = target.nvars
    if F.is_zero():
        return target.zero()
    radix = 1 + max(sum(exps) for exps in F.terms)
    place = [radix**j for j in range(v)]

    def code(exps) -> int:
        return sum(e * w for e, w in zip(exps, place))

    moved = []  # (variable, code of its image monomial)
    linear = []  # (variable, {code: coefficient} of its image)
    for i, image in enumerate(images):
        terms = image.terms
        if len(terms) == 1 and next(iter(terms.values())) == domain.one:
            moved.append((i, code(next(iter(terms)))))
        else:
            linear.append((i, {code(e): c for e, c in terms.items()}))
    groups: dict = {}  # exponents in the linear variables -> {code: coefficient}
    for exps, coeff in F.terms.items():
        key = tuple(exps[i] for i, _ in linear)
        base = sum(exps[i] * w for i, w in moved)
        group = groups.setdefault(key, {})
        group[base] = group.get(base, 0) + coeff

    def times(left: dict, right: dict) -> dict:
        out: dict = {}
        for a, x in left.items():
            for b, y in right.items():
                out[a + b] = out.get(a + b, 0) + x * y
        return {c: domain.of(x) for c, x in out.items()}

    powers = [[{0: domain.one}] for _ in linear]
    products = {(): {0: domain.one}}
    total: dict = {}
    for key, group in groups.items():
        for k, e in enumerate(key):
            prefix = key[: k + 1]
            if prefix in products:
                continue
            if e == 0:
                products[prefix] = products[key[:k]]
                continue
            chain = powers[k]
            while len(chain) <= e:
                chain.append(times(chain[-1], linear[k][1]))
            products[prefix] = times(products[key[:k]], chain[e])
        for a, x in products[key].items():
            for b, y in group.items():
                total[a + b] = total.get(a + b, 0) + x * y
    decoded = {}
    for c, x in total.items():
        exps = []
        for _ in range(v):
            c, e = divmod(c, radix)
            exps.append(e)
        decoded[tuple(exps)] = domain.of(x)
    return Polynomial(target, decoded)


def _linear_images(linear_members: Sequence[Polynomial], ring: PolyRing):
    """The substitution that eliminates independent linear members.

    Solves the members for their pivot variables (reduced row echelon
    form) and returns one image per variable of ``ring`` in the ring of the
    remaining variables: a remaining variable maps to itself, a pivot
    variable to minus its row over the remaining ones.  None when the
    members leave no variable.
    """
    domain = ring.domain
    n = ring.nvars
    rows = []
    for g in linear_members:
        row = [domain.zero] * n
        for exps, coeff in g.terms.items():
            row[exps.index(1)] = coeff
        rows.append(row)
    rref, pivots = _reduced_row_echelon(rows, domain)
    remaining = [i for i in range(n) if i not in pivots]
    if not remaining:
        return None
    reduced_ring = ring_over(tuple(ring.variables[i] for i in remaining), domain)
    position = {var: k for k, var in enumerate(remaining)}
    images = []
    for i in range(n):
        if i in position:
            images.append(reduced_ring.gen(position[i]))
        else:
            row = rref[pivots.index(i)]
            terms = {}
            for j in remaining:
                exps = tuple(1 if k == position[j] else 0 for k in range(len(remaining)))
                terms[exps] = domain.neg(row[j])
            images.append(Polynomial(reduced_ring, terms))
    return images


def _certify_isolated_homogeneous(gens: Sequence[Polynomial], ring: PolyRing) -> bool:
    """Sound isolation certificate for a homogeneous ideal.

    Eliminates independent linear members by a linear substitution, then
    checks that the top relevant graded piece of the quotient vanishes by a
    modular rank computation: first on Macaulay's square matrix (one row per
    column), and only when that is singular on every multiple of every
    generator.  True is a proof that the origin is the whole zero set; False
    simply means this certificate did not fire.

    The square matrix is stored as the envelope of the cached ``_pivot_plan``
    for its number of variables and degrees and eliminated on its diagonal
    in the plan's order; the pivot search finishes the elimination when a
    diagonal pivot vanishes.  Permuting rows and columns alike does not
    change whether a matrix is singular, so the plan's order changes no
    decision.

    Over Q everything runs on the forms' residues mod the rank-check prime
    p.  A full column rank mod p is a nonzero maximal minor mod p, so a
    nonzero minor over Q: working mod p can only miss a certificate that Q
    would find (when p divides every such minor), never make a false one.
    """
    p = _rank_check_prime(gens, ring.domain)
    if not isinstance(ring.domain, PrimeField):
        ring = ring_over(ring.variables, PrimeField(p))
        gens = [g.map_domain(ring) for g in gens]
    members = [g for g in gens if not g.is_zero()]
    images = _linear_images([g for g in members if g.degree() == 1], ring)
    if images is None:
        return True  # the linear members alone cut the origin
    reduced_gens = []
    for g in members:
        if g.degree() != 1:
            image = _substitute_linear(g, images)
            if not image.is_zero():
                reduced_gens.append(image)
    nvars = images[0].ring.nvars
    if len(reduced_gens) != nvars:
        # Fewer equations cannot isolate a point; more never arise from one
        # generator per variable, and Macaulay's rows pair forms with variables.
        return False
    # The plan's boolean pattern is built and freed before the envelope exists.
    plan = _pivot_plan(nvars, tuple(g.degree() for g in reduced_gens))
    if _envelope_is_nonsingular(_macaulay_envelope(reduced_gens, p, plan), plan, p):
        return True
    # Singular (Macaulay's extraneous factor vanishes): rank every multiple,
    # with the envelope freed first.
    full = _macaulay_matrix(reduced_gens, p)
    return _has_full_column_rank(full, full.shape[1], p)


def regular_at_origin(
    sequence: Sequence[Polynomial],
    trials: int = 5,
    seed: int = 0,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> RegularityVerdict:
    """Certify or refute that a homogeneous sequence is regular at the origin.

    With n the number of ring variables, a prefix of length i is drawn
    n - i random linear cuts through the origin, up to ``trials`` times,
    and is certified when the origin is isolated in the combined zero set
    (then the local dimension is exactly n - i).  A prefix with no cuts
    (i = n) is drawn once, as every draw would rank the same matrix.

    The whole sequence, of length r, is drawn first.  When a draw
    certifies it, its r forms and n - r cuts are n homogeneous forms whose
    only common zero is the origin: a homogeneous system of parameters,
    hence a regular sequence in the Cohen–Macaulay ring k[z] (Matsumura,
    Commutative Ring Theory, Thm 17.4), and so is every prefix of it.
    Prefixes 1..r-1 are then recorded as certified with no draws of their
    own.  Only when every draw of the whole sequence fails are prefixes
    1..r-1 walked in order, each with its own draws; prefix r is then
    decided from the draws already made.

    A prefix that fails its draws is decided by the dimension of its zero
    set, computed within ``budget`` Groebner pair reductions.  Dimension
    n - i means height i, and homogeneous forms whose ideal has height i
    are a regular sequence (Thm 17.4 again), so the prefix is certified and
    the walk goes on.  A larger dimension proves the prefix is not
    regular.  Only when the budget runs out is the refutation Monte-Carlo
    evidence.

    The Macaulay matrices of every draw are bounded by those of the whole
    sequence's nonlinear members, whose shape follows from their degrees.
    When those would hold more than MACAULAY_ENTRY_BUDGET entries, the
    verdict is Inconclusive, with no draw made, and its message names the
    shape.
    """
    if not sequence:
        raise ValueError("empty sequence")
    ring = sequence[0].ring
    n = ring.nvars
    if len(sequence) > n:
        raise ValueError(
            f"sequence of length {len(sequence)} cannot be regular in {n} variables"
        )
    domain = ring.domain
    for g in sequence:
        if g.ring != ring:
            raise ValueError("sequence entries live in different rings")
        if not domain.is_zero(g.constant_coefficient()):
            raise ValueError("every entry must vanish at the origin")
        if not g.is_homogeneous():
            raise ValueError("regularity is certified only for homogeneous entries")
    if trials < 1:
        raise ValueError("at least one trial required")
    # A draw that ranks has one form per variable left, some of the
    # nonlinear members of its prefix, and the matrices grow with every
    # form added: the whole sequence's nonlinear members bound every draw.
    degrees = tuple(g.degree() for g in sequence if g.degree() > 1)
    if degrees:
        columns, full_rows = _macaulay_shape(len(degrees), degrees)
        if columns * (columns + full_rows) > MACAULAY_ENTRY_BUDGET:
            return RegularityVerdict(
                outcome=INCONCLUSIVE,
                trial_count=trials,
                evidence=(),
                message=(
                    f"Macaulay matrices of {columns} x {columns} (square) and "
                    f"{full_rows} x {columns} (full) for forms of degrees "
                    f"{', '.join(map(str, degrees))} in {len(degrees)} variables "
                    f"exceed the budget of {MACAULAY_ENTRY_BUDGET} entries"
                ),
            )

    def draw(i: int) -> tuple:
        # Prefix i's draws up to the first that certifies.  A prefix with
        # no cuts builds the same matrix at every draw.
        prefix = list(sequence[:i])
        records = []
        for trial in range(1, (trials if i < n else 1) + 1):
            cut_seed = derive_seed(seed, trial=trial, point=i, purpose=PURPOSE_LINEAR_CUTS)
            cuts = random_linear_cuts(ring, n - i, cut_seed)
            ok = _certify_isolated_homogeneous(prefix + cuts, ring)
            records.append(
                CutTrial(prefix=i, trial=trial, cut_seed=cut_seed, certified=ok)
            )
            if ok:
                break
        return tuple(records)

    r = len(sequence)
    whole = draw(r)
    evidence = []
    by_dimension = []  # prefixes the cuts missed and the dimension certified
    for i in range(1, r + 1):
        expected = n - i
        if i == r:
            records = whole
        elif whole[-1].certified:
            records = ()  # implied by the whole sequence's certificate
        else:
            records = draw(i)
        if not records or records[-1].certified:
            evidence.append(
                PrefixEvidence(
                    prefix=i,
                    certified=True,
                    expected_dimension=expected,
                    trials=records,
                )
            )
            continue
        # Every draw failed: decide by the local dimension when affordable.
        try:
            local_dimension = ideal_dimension(
                IdealPresentation(ring, tuple(sequence[:i])), budget
            )
        except BudgetExceededError:
            local_dimension = None
        record = PrefixEvidence(
            prefix=i,
            certified=local_dimension == expected,
            expected_dimension=expected,
            trials=records,
            local_dimension=local_dimension,
        )
        evidence.append(record)
        if record.certified:
            by_dimension.append(i)
            continue
        if local_dimension is None:
            reason = f"high confidence ({trials} generic cuts failed)"
        else:
            reason = (
                f"proved by the dimension, height {n - local_dimension} < {i} "
                f"({trials} generic cuts failed)"
            )
        found = "unknown" if local_dimension is None else str(local_dimension)
        return RegularityVerdict(
            outcome=REFUTED_AT_PREFIX,
            trial_count=trials,
            evidence=tuple(evidence),
            refuted_prefix=i,
            message=f"prefix {i}: local dimension {found}, expected {expected}; {reason}",
        )
    message = "; ".join(
        f"prefix {i} certified by its local dimension {n - i} "
        f"({trials} generic cuts failed)"
        for i in by_dimension
    )
    return RegularityVerdict(
        outcome=CERTIFIED_REGULAR,
        trial_count=trials,
        evidence=tuple(evidence),
        message=message,
    )
