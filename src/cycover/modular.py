"""Number theory over prime fields: primes, K-th power residues, univariate
roots.

Everything here works with plain Python ints.  Univariate polynomials over
F_p are coefficient lists in ascending degree order with no trailing zeros;
the empty list is the zero polynomial.
"""

from __future__ import annotations

from typing import Sequence

from .seeds import Rng

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


DEFAULT_PRIME_FLOOR = 1_000_003


def working_prime(cover_deg: int, floor: int = DEFAULT_PRIME_FLOOR) -> int:
    """Smallest prime p >= floor with p = 1 (mod cover_deg).

    The congruence guarantees F_p contains all cover_deg-th roots of unity,
    so the nonzero K-th power residues form an index-K subgroup, which
    ``is_kth_power_residue`` tests with one exponentiation.
    """
    if cover_deg < 1:
        raise ValueError("cover degree must be positive")
    candidate = max(2, floor)
    while not (candidate % cover_deg == 1 and is_prime(candidate)):
        candidate += 1
    return candidate


def is_kth_power_residue(a: int, k: int, p: int) -> bool:
    """Whether a is a nonzero k-th power mod p; requires p = 1 (mod k)."""
    a %= p
    if a == 0:
        return False
    return pow(a, (p - 1) // k, p) == 1


# -- univariate polynomials over F_p (ascending coefficient lists) ------------


def poly1_trim(coeffs: Sequence[int]) -> list:
    out = [c for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly1_degree(coeffs: Sequence[int]) -> int:
    return len(poly1_trim(coeffs)) - 1


def poly1_eval(coeffs: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(list(coeffs)):
        acc = (acc * x + c) % p
    return acc


def poly1_add(a: Sequence[int], b: Sequence[int], p: int) -> list:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c % p
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return poly1_trim(out)


def poly1_scale(a: Sequence[int], s: int, p: int) -> list:
    return poly1_trim([c * s % p for c in a])


def poly1_mul(a: Sequence[int], b: Sequence[int], p: int) -> list:
    a = poly1_trim(a)
    b = poly1_trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return poly1_trim(out)


def poly1_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    a = poly1_trim(a)
    b = poly1_trim(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        factor = rem[-1] * inv_lead % p
        shift = len(rem) - len(b)
        if factor:
            quo[shift] = factor
            for i, c in enumerate(b):
                rem[shift + i] = (rem[shift + i] - factor * c) % p
        rem.pop()
        rem = poly1_trim(rem)
        if not rem:
            break
    return poly1_trim(quo), poly1_trim(rem)


def poly1_mod(a: Sequence[int], b: Sequence[int], p: int) -> list:
    return poly1_divmod(a, b, p)[1]


def poly1_monic(a: Sequence[int], p: int) -> list:
    a = poly1_trim(a)
    if not a:
        return a
    return poly1_scale(a, pow(a[-1], p - 2, p), p)


def poly1_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list:
    a = poly1_trim(a)
    b = poly1_trim(b)
    while b:
        a, b = b, poly1_mod(a, b, p)
    return poly1_monic(a, p)


def poly1_powmod(base: Sequence[int], e: int, modulus: Sequence[int], p: int) -> list:
    result = [1]
    base = poly1_mod(base, modulus, p)
    while e:
        if e & 1:
            result = poly1_mod(poly1_mul(result, base, p), modulus, p)
        e >>= 1
        if e:
            base = poly1_mod(poly1_mul(base, base, p), modulus, p)
    return result


def poly1_roots(coeffs: Sequence[int], p: int, seed: int = 0) -> list:
    """All distinct roots in F_p of the given polynomial, sorted ascending.

    Splits off the linear factors with gcd(u, X^p - X), then separates them
    by randomized equal-degree splitting; the randomness is seeded, so the
    output (a sorted list) is deterministic anyway.
    """
    u = poly1_monic(coeffs, p)
    if not u:
        raise ValueError("the zero polynomial has every root")
    roots = []
    if u and u[0] == 0:
        roots.append(0)
        u = poly1_trim(u[1:])
        while u and u[0] == 0:
            u = poly1_trim(u[1:])
    if poly1_degree(u) < 1:
        return sorted(roots)
    # Keep only roots living in F_p: gcd with X^p - X.
    xp = poly1_powmod([0, 1], p, u, p)
    linear_part = poly1_gcd(poly1_add(xp, poly1_scale([0, 1], p - 1, p), p), u, p)
    rng = Rng(seed)

    def split(v: list) -> None:
        d = poly1_degree(v)
        if d == 0:
            return
        if d == 1:
            roots.append((-v[0]) * pow(v[1], p - 2, p) % p)
            return
        while True:
            shift = rng.below(p)
            probe = poly1_powmod([shift, 1], (p - 1) // 2, v, p)
            probe = poly1_add(probe, [p - 1], p)
            w = poly1_gcd(probe, v, p)
            dw = poly1_degree(w)
            if 0 < dw < d:
                split(w)
                split(poly1_divmod(v, w, p)[0])
                return

    if poly1_degree(linear_part) >= 1:
        split(linear_part)
    return sorted(roots)


# -- small exact linear algebra mod p ----------------------------------------


def det_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Determinant of a square integer matrix mod p (Gaussian elimination)."""
    n = len(rows)
    mat = [[c % p for c in row] for row in rows]
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det % p
        det = det * mat[col][col] % p
        inv = pow(mat[col][col], p - 2, p)
        for r in range(col + 1, n):
            if mat[r][col]:
                factor = mat[r][col] * inv % p
                for c in range(col, n):
                    mat[r][c] = (mat[r][c] - factor * mat[col][c]) % p
    return det


def lagrange_interpolate(xs: Sequence[int], ys: Sequence[int], p: int) -> list:
    """Coefficients (ascending) of the unique poly of degree < len(xs)."""
    if len(xs) != len(ys):
        raise ValueError("point/value length mismatch")
    if len(set(x % p for x in xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct mod p")
    result: list = []
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = [1]
        den = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = poly1_mul(num, [(-xj) % p, 1], p)
            den = den * ((xi - xj) % p) % p
        term = poly1_scale(num, yi % p * pow(den, p - 2, p) % p, p)
        result = poly1_add(result, term, p)
    return result
