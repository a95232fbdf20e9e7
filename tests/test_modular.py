"""Number theory oracles: primes, K-th power residues, univariate root
finding.

Frozen constants (working primes) were computed with an independent tool
before this module existed.
"""

import pytest

from cycover.modular import (
    DEFAULT_PRIME_FLOOR,
    det_mod,
    is_kth_power_residue,
    is_prime,
    lagrange_interpolate,
    poly1_divmod,
    poly1_eval,
    poly1_gcd,
    poly1_mul,
    poly1_roots,
    working_prime,
)


class TestPrimes:
    def test_small_primes(self):
        primes = [n for n in range(60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_default_floor_is_prime(self):
        assert DEFAULT_PRIME_FLOOR == 1_000_003
        assert is_prime(1_000_003)

    def test_large_prime_for_rank_checks(self):
        assert is_prime(2_147_483_629)

    def test_carmichael_number_rejected(self):
        assert not is_prime(561)
        assert not is_prime(1729)

    def test_working_prime_frozen_values(self):
        # Independently computed: least prime >= 1000003 congruent 1 mod K.
        assert working_prime(2) == 1_000_003
        assert working_prime(3) == 1_000_003
        assert working_prime(4) == 1_000_033
        assert working_prime(5) == 1_000_081
        assert working_prime(6) == 1_000_003
        assert working_prime(7) == 1_000_133

    def test_working_prime_congruence(self):
        for k in range(2, 12):
            p = working_prime(k)
            assert is_prime(p) and p % k == 1


class TestRoots:
    def test_residue_proportion(self):
        # Exactly (p-1)/k residues among nonzero elements for small p.
        p, k = 13, 3
        residues = [a for a in range(1, p) if is_kth_power_residue(a, k, p)]
        assert len(residues) == (p - 1) // k


class TestUnivariate:
    def test_divmod(self):
        p = 101
        # (x^2 - 1) = (x - 1)(x + 1)
        q, r = poly1_divmod([p - 1, 0, 1], [p - 1, 1], p)
        assert q == [1, 1] and r == []

    def test_gcd(self):
        p = 101
        a = poly1_mul([1, 1], [2, 1], p)  # (x+1)(x+2)
        b = poly1_mul([1, 1], [3, 1], p)  # (x+1)(x+3)
        assert poly1_gcd(a, b, p) == [1, 1]

    def test_roots_of_factored_polynomial(self):
        p = 1_000_003
        # (x - 3)(x - 77)(x - 100000) expanded via poly1_mul.
        u = [1]
        for root in (3, 77, 100_000):
            u = poly1_mul(u, [(-root) % p, 1], p)
        assert poly1_roots(u, p, seed=5) == [3, 77, 100_000]

    def test_roots_ignore_irreducible_part(self):
        p = 1_000_003
        # x^2 + 1 is irreducible mod p iff -1 is a nonresidue; p = 3 mod 4? No:
        # p = 1000003 = 3 mod 4, so -1 is a nonresidue and x^2+1 has no roots.
        assert p % 4 == 3
        u = poly1_mul([1, 0, 1], [(-9) % p, 1], p)  # (x^2+1)(x-9)
        assert poly1_roots(u, p, seed=1) == [9]

    def test_roots_with_zero_root_and_multiplicity(self):
        p = 101
        # x^2 (x - 5)^3: distinct roots {0, 5}
        u = poly1_mul([0, 0, 1], poly1_mul([96, 1], poly1_mul([96, 1], [96, 1], p), p), p)
        assert poly1_roots(u, p, seed=2) == [0, 5]

    def test_roots_deterministic(self):
        p = 1_000_003
        u = [1]
        for root in (11, 22, 33, 44, 55):
            u = poly1_mul(u, [(-root) % p, 1], p)
        assert poly1_roots(u, p, seed=7) == poly1_roots(u, p, seed=8) == [11, 22, 33, 44, 55]

    def test_eval(self):
        p = 97
        assert poly1_eval([1, 2, 3], 10, p) == (1 + 20 + 300) % p


class TestLinearAlgebra:
    def test_det_2x2(self):
        assert det_mod([[1, 2], [3, 4]], 101) == (-2) % 101

    def test_det_singular(self):
        assert det_mod([[1, 2], [2, 4]], 101) == 0

    def test_det_permutation_sign(self):
        assert det_mod([[0, 1], [1, 0]], 101) == 100

    def test_interpolation_round_trip(self):
        p = 1_000_003
        coeffs = [5, 0, 3, 999_999]
        xs = [0, 1, 2, 3]
        ys = [poly1_eval(coeffs, x, p) for x in xs]
        assert lagrange_interpolate(xs, ys, p) == coeffs

    def test_interpolation_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError):
            lagrange_interpolate([1, 1], [2, 3], 101)
