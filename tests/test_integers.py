import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import concordant
from concordant.errors import FactorizationIncomplete, InvalidArgument
from concordant.integers import (
    factorize,
    is_perfect_square,
    is_probable_prime,
    primitive_normalize,
    shell_pairs,
    sqrt_mod,
    squarefree_part,
)


class TestSquarefreePart:
    def test_basic(self):
        assert squarefree_part(12) == (3, 2)
        assert squarefree_part(-9088) == (-142, 8)
        assert squarefree_part(1) == (1, 1)
        assert squarefree_part(-1) == (-1, 1)
        # either side of 2^20, below which the wheel finishes a cofactor,
        # and primes above 2^16 that only Brent rho splits
        assert squarefree_part(2**20 - 1) == (3 * 11 * 31 * 41, 5)
        assert squarefree_part(-(2**20)) == (-1, 2**10)
        assert squarefree_part(2**20 + 1) == (2**20 + 1, 1)
        assert squarefree_part(-65537 * 65539) == (-65537 * 65539, 1)
        assert squarefree_part(65537**2 * 65539) == (65539, 65537)

    def test_zero_rejected(self):
        with pytest.raises(InvalidArgument):
            squarefree_part(0)

    def test_reconstruction(self, rng):
        for _ in range(300):
            n = rng.randint(1, 10**7) * rng.choice([1, -1])
            s, r = squarefree_part(n)
            assert s * r * r == n
            for p in (2, 3, 5, 7, 11, 13):
                assert s % (p * p) != 0

    def test_large_input(self):
        n = 3 * (10**9 + 7) ** 2
        assert squarefree_part(n) == (3, 10**9 + 7)


class TestPerfectSquare:
    def test_known(self):
        assert is_perfect_square(149769) == 387
        assert is_perfect_square(0) == 0
        assert is_perfect_square(2) is None
        assert is_perfect_square(-4) is None

    def test_squares_and_neighbours(self, rng):
        for _ in range(500):
            n = rng.randint(1, 10**12)
            assert is_perfect_square(n * n) == n
            assert is_perfect_square(n * n + 1) is None or n * n + 1 == (n + 1) ** 2


# every n in 2^20 +- 500, products and squares of primes either side of
# 2^10, primes either side of 2^20 and below 2^32, and products of primes
# either side of 2^16
BOUNDARY_CASES = [
    *range(2**20 - 500, 2**20 + 501),
    1019 * 1021,
    1021**2,
    1031**2,
    1048573,
    1048583,
    4294967291,
    65519 * 65521,
    65537 * 65539,
]


class TestFactorize:
    def test_discriminant_style(self):
        f = factorize(16 * 157**6)
        assert f.sign == 1
        assert f.factors == ((2, 4), (157, 6))

    def test_signed_small(self):
        f = factorize(-142)
        assert f.sign == -1
        assert f.factors == ((2, 1), (71, 1))

    def test_trial_division_oracle(self):
        # independent trial-division factorization of the quartic's lead,
        # and either side of 2^20, below which the wheel finishes a cofactor
        for n in (9159, 2**20 - 1, 2**20, 2**20 + 1):
            expected = []
            m, p = n, 2
            while m > 1:
                if m % p == 0:
                    e = 0
                    while m % p == 0:
                        m //= p
                        e += 1
                    expected.append((p, e))
                p += 1
            assert factorize(n).factors == tuple(expected), n
            assert factorize(-n).factors == tuple(expected), -n
        assert factorize(9159).factors == ((3, 1), (43, 1), (71, 1))

    def test_roundtrip(self, rng):
        for _ in range(150):
            n = rng.randint(2, 10**9) * rng.choice([1, -1])
            assert factorize(n).value() == n

    def test_zero_rejected(self):
        with pytest.raises(InvalidArgument):
            factorize(0)

    def test_budget_exhaustion_is_flagged(self):
        n = 2305843009213693951 * 618970019642690137449562111
        with pytest.raises(FactorizationIncomplete) as info:
            factorize(n, budget=2)
        assert info.value.cofactor > 1

    def test_no_table_in_memory(self):
        # factoring either side of 2^20 allocates no table: in a fresh
        # interpreter, the traced peak after the import stays under 1 MB
        script = (
            "import tracemalloc\n"
            "from concordant.integers import factorize\n"
            "tracemalloc.start()\n"
            f"for n in {BOUNDARY_CASES!r}:\n"
            "    factorize(n)\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(concordant.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, env=env, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 1 << 20, f"traced peak {proc.stdout.strip()} B"

    def test_semiprime_beyond_table(self):
        p, q = 1_000_003, 1_000_033
        assert factorize(p * q).factors == ((p, 1), (q, 1))
        # both primes above 2^16, past the wheel: Brent rho splits them
        p, q = 65537, 65539
        assert factorize(p * q).factors == ((p, 1), (q, 1))
        assert factorize(-(p**2) * q).factors == ((p, 2), (q, 1))

    def test_against_sympy_factorint(self, rng):
        # prime cofactors end the trial division early: 11-13 digit primes,
        # and semiprimes whose small factor lies in the wheel's range
        sympy = pytest.importorskip("sympy")
        cases = []
        for _ in range(60):
            big = sympy.nextprime(rng.randrange(10**10, 10**13 - 100))
            wheel = sympy.nextprime(rng.randrange(2**10, 2**16 - 20))
            cases += [big, wheel * big, wheel * sympy.nextprime(rng.randrange(2**16, 10**8))]
            cases.append(rng.randrange(2, 10 ** rng.randint(6, 24)))
        cases += BOUNDARY_CASES
        for n in cases:
            for signed in (n, -n):
                f = factorize(signed)
                assert f.value() == signed
                assert f.factors == tuple(sorted(sympy.factorint(n).items())), signed


def _trial_division_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestPrimality:
    # strong pseudoprimes to every Miller-Rabin base in use (2..37): the
    # least such number, and the least that is also one to base 41
    PSEUDOPRIMES = {
        318665857834031151167461: ((399165290221, 1), (798330580441, 1)),
        3317044064679887385961981: ((1287836182261, 1), (2575672364521, 1)),
    }

    def test_pseudoprimes_to_all_bases_are_composite(self):
        for n, factors in self.PSEUDOPRIMES.items():
            assert not is_probable_prime(n), n
            assert factorize(n).factors == factors, n

    def test_strong_lucas_passes_primes_and_known_pseudoprimes_only(self):
        from concordant.integers import _strong_lucas_probable_prime

        # strong Lucas pseudoprimes with Selfridge's parameters (OEIS A217255)
        known = [5459, 5777, 10877, 16109, 18971]
        passed = [
            n
            for n in range(41, 20000, 2)
            if all(n % p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
            and _strong_lucas_probable_prime(n)
        ]
        assert [n for n in passed if not _trial_division_prime(n)] == known
        assert all(n in passed for n in range(41, 20000, 2) if _trial_division_prime(n))

    def test_small_against_trial_division(self):
        for n in range(-5, 5000):
            assert is_probable_prime(n) == _trial_division_prime(n), n

    def test_against_sympy(self, rng):
        sympy = pytest.importorskip("sympy")
        cases = [m for n in self.PSEUDOPRIMES for m in (n, sympy.nextprime(n))]
        for _ in range(400):
            cases.append(rng.randrange(3, 10 ** rng.randint(2, 60)))
        for _ in range(100):
            p = sympy.randprime(10**12, 10**30)
            q = sympy.randprime(10**12, 10**30)
            cases += [p, p * q, p * (2 * p - 1)]
        for n in cases:
            assert is_probable_prime(n) == sympy.isprime(n), n


class TestSqrtMod:
    def test_every_residue_below_2000_against_brute_force(self):
        # every residue class modulo every odd prime below 2000; the primes
        # = 1 (mod 8) take the Tonelli-Shanks loop more than once
        odd_primes = [p for p in range(3, 2000) if _trial_division_prime(p)]
        assert sum(p % 8 == 1 for p in odd_primes) > 50
        for p in odd_primes:
            least_root = {}
            for x in range(p - 1, -1, -1):
                least_root[x * x % p] = x
            for a in range(p):
                if a in least_root:
                    assert sqrt_mod(a, p) == min(least_root[a], (p - least_root[a]) % p), (a, p)
                else:
                    with pytest.raises(InvalidArgument):
                        sqrt_mod(a, p)

    def test_two_zero_and_reduction(self):
        assert sqrt_mod(0, 2) == 0
        assert sqrt_mod(1, 2) == 1
        assert sqrt_mod(5, 2) == 1
        assert sqrt_mod(0, 1009) == 0
        assert sqrt_mod(2 * 1009, 1009) == 0
        assert sqrt_mod(-1, 13) == 5
        assert sqrt_mod(4 + 10**6 * 17, 17) == 2

    def test_non_residue_raises(self):
        with pytest.raises(InvalidArgument):
            sqrt_mod(3, 7)
        with pytest.raises(InvalidArgument):
            sqrt_mod(-1, 10**9 + 7)


class TestPrimitiveNormalize:
    def test_examples(self):
        assert primitive_normalize((-128, 160, -18, -142)) == (64, -80, 9, 71)
        assert primitive_normalize((0, 2, 4)) == (0, 1, 2)
        assert primitive_normalize((7, 5, 1, 1)) == (7, 5, 1, 1)

    def test_zero_vector(self):
        with pytest.raises(InvalidArgument):
            primitive_normalize((0, 0, 0))

    def test_idempotent_and_primitive(self, rng):
        for _ in range(200):
            v = tuple(rng.randint(-50, 50) for _ in range(4))
            if not any(v):
                continue
            w = primitive_normalize(v)
            assert primitive_normalize(w) == w
            g = 0
            for x in w:
                g = math.gcd(g, x)
            assert g == 1
            assert next(x for x in w if x) > 0


class TestCoprimePairs:
    def test_shell_one(self):
        pairs = shell_pairs(1)
        for expected in [(1, 0), (0, 1), (1, 1), (-1, 1)]:
            assert expected in pairs

    def test_named_pair_in_its_shell(self):
        assert (20, 3) in shell_pairs(20)

    @staticmethod
    def _shells(cap):
        return [pair for r in range(1, cap + 1) for pair in shell_pairs(r)]

    def test_non_coprime_never_emitted(self):
        taken = self._shells(8)
        assert (2, 4) not in taken
        assert all(math.gcd(a, b) == 1 for a, b in taken)

    @pytest.mark.parametrize("cap", [3, 11, 50])
    def test_exhaustive_against_bruteforce(self, cap):
        expected = {
            (a, b)
            for a in range(-cap, cap + 1)
            for b in range(0, cap + 1)
            if (a, b) != (0, 0) and math.gcd(a, b) == 1 and max(abs(a), b) <= cap
        }
        for r in range(1, cap + 1):
            assert all(max(abs(a), b) == r for a, b in shell_pairs(r))
        got = self._shells(cap)
        assert len(got) == len(set(got))
        assert set(got) == expected

    def test_order_is_nondecreasing_maxnorm_then_lex(self):
        got = self._shells(6)
        keyed = [(max(abs(a), abs(b)), a, b) for a, b in got]
        assert keyed == sorted(keyed)

    def test_shell_size_formula(self):
        from concordant.integers import euler_phi, shell_size

        for r in range(1, 120):
            assert shell_size(r) == len(shell_pairs(r))
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        assert euler_phi(97) == 96
