"""Number theory oracles: primes, roots mod p, univariate root finding.

Frozen constants (working primes, primitive roots) were computed with an
independent tool before this module existed.  K-th roots are checked
against the discrete-log route in ``oracles`` and against brute force.
"""

import pytest

from cycover.modular import (
    DEFAULT_PRIME_FLOOR,
    det_mod,
    is_kth_power_residue,
    is_prime,
    kth_root_mod,
    lagrange_interpolate,
    poly1_divmod,
    poly1_eval,
    poly1_gcd,
    poly1_mul,
    poly1_roots,
    working_prime,
)
from cycover.seeds import Rng
from oracles import discrete_log, factorize, kth_root_by_discrete_log, primitive_root


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

    def test_factorize(self):
        assert factorize(1_000_002) == {2: 1, 3: 1, 166667: 1}
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(1) == {}


class TestRoots:
    def test_primitive_root_frozen(self):
        assert primitive_root(1_000_003) == 2
        assert primitive_root(1_000_033) == 5
        assert primitive_root(1_000_081) == 7
        assert primitive_root(7) == 3

    def test_primitive_root_has_full_order(self):
        for p in (101, 1_000_003):
            g = primitive_root(p)
            for q in factorize(p - 1):
                assert pow(g, (p - 1) // q, p) != 1

    def test_discrete_log_round_trip(self):
        p = 1_000_003
        g = primitive_root(p)
        for x in (1, 2, 17, 123_456, p - 2):
            assert discrete_log(g, pow(g, x, p), p) == x % (p - 1)

    def test_square_roots(self):
        p = 1_000_003
        assert kth_root_mod(25, 2, p) == 5  # the lesser of 5 and p - 5
        assert kth_root_mod(p - 25, 2, p) is None  # -1 is a nonresidue: p = 3 mod 4
        assert kth_root_mod(0, 2, p) == 0
        # A nonresidue has no root: g^odd is never a square.
        g = primitive_root(p)
        assert kth_root_mod(g, 2, p) is None

    def test_least_root_by_brute_force(self):
        for p, k in ((13, 3), (31, 5), (101, 4)):
            for a in range(p):
                roots = [x for x in range(p) if pow(x, k, p) == a]
                assert kth_root_mod(a, k, p) == (roots[0] if roots else None)

    def test_agrees_with_discrete_log_route(self):
        rng = Rng(7)
        for k in (2, 3, 5):
            p = working_prime(k)
            for _ in range(20):
                a = 1 + rng.below(p - 1)
                root = kth_root_mod(a, k, p)
                other = kth_root_by_discrete_log(a, k, p)
                assert (root is None) == (other is None)
                if root is not None:
                    assert pow(root, k, p) == pow(other, k, p) == a
                    assert root <= other

    def test_kth_root_round_trip(self):
        rng = Rng(42)
        for k in (2, 3, 5):
            p = working_prime(k)
            for _ in range(20):
                x = 1 + rng.below(p - 1)
                a = pow(x, k, p)
                root = kth_root_mod(a, k, p)
                assert root is not None
                assert pow(root, k, p) == a

    def test_residue_proportion(self):
        # Exactly (p-1)/k residues among nonzero elements for small p.
        p, k = 13, 3
        residues = [a for a in range(1, p) if is_kth_power_residue(a, k, p)]
        assert len(residues) == (p - 1) // k

    def test_wrong_congruence_rejected(self):
        with pytest.raises(ValueError):
            kth_root_mod(4, 3, 5)  # 5 is not 1 mod 3


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
