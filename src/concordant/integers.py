"""Exact integer arithmetic: factoring, square detection, coprime parameter shells.

Everything here is pure and deterministic; values are plain Python ints, so
results are exact at any size.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import FactorizationIncomplete, InvalidArgument

# ---------------------------------------------------------------------------
# perfect squares

# residue masks: n can only be a square if n mod m is a square mod m
_SQ_MOD_64 = frozenset((i * i) % 64 for i in range(64))
_SQ_MOD_63 = frozenset((i * i) % 63 for i in range(63))
_SQ_MOD_65 = frozenset((i * i) % 65 for i in range(65))
_SQ_MOD_11 = frozenset((i * i) % 11 for i in range(11))


def is_perfect_square(n: int) -> Optional[int]:
    """Return the nonnegative root if n is a perfect square, else None."""
    if n < 0:
        return None
    if n % 64 not in _SQ_MOD_64:
        return None
    if n % 63 not in _SQ_MOD_63:
        return None
    if n % 65 not in _SQ_MOD_65:
        return None
    if n % 11 not in _SQ_MOD_11:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


# ---------------------------------------------------------------------------
# factoring

_SPF_LIMIT = 1 << 20
_spf_table: array | None = None


def _spf() -> array:
    # smallest-prime-factor sieve; built once, on first use.  An array, not a
    # list, so the collector never walks its million entries and building it
    # makes no int object per entry.  The smallest prime p of a composite has
    # p*p <= it, so writing the multiples of each prime up to the square root
    # of the limit, largest prime first, leaves the smallest prime in place.
    global _spf_table
    if _spf_table is None:
        small = range(2, math.isqrt(_SPF_LIMIT) + 1)
        primes = [p for p in small if all(p % d for d in range(2, math.isqrt(p) + 1))]
        table = array("L", range(_SPF_LIMIT))
        for p in reversed(primes):
            table[p * p :: p] = array("L", [p]) * len(range(p * p, _SPF_LIMIT, p))
        _spf_table = table
    return _spf_table


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to every base of _MR_BASES
# (399165290221 * 798330580441; Sorenson & Webster, Math. Comp. 86, 2017);
# below it those bases decide primality
_MR_BOUND = 318665857834031151167461


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to 12 fixed bases, deterministic below 3.18e23; from there
    on a strong Lucas test is added, which makes it Baillie-PSW."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    # Jacobi symbol (a/n) for odd n > 0
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (Baillie & Wagstaff,
    Math. Comp. 35, 1980) for odd n with no factor below 40."""
    if is_perfect_square(n) is not None:
        return False
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0:
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    # n + 1 = k * 2^s with k odd; walk U_k, V_k (P = 1) and Q^k mod n
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (d * u + v) % n
            u = (u + n * (u & 1)) // 2
            v = (v + n * (v & 1)) // 2
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _brent_rho(n: int, budget: int) -> Optional[int]:
    # Brent's cycle variant of Pollard rho; returns a nontrivial factor or None
    if n % 2 == 0:
        return 2
    for c in range(1, 20):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        steps = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                steps += min(m, r - k)
                if steps > budget:
                    return None
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


@dataclass(frozen=True)
class Factorization:
    """sign * product(p^e) with primes strictly increasing."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factorize(n: int, budget: int = 1_000_000) -> Factorization:
    """Complete factorization of n != 0.

    Trial division by 2, 3, 5 and a wheel over 30, the smallest-prime-factor
    table for every cofactor below its limit, and Miller-Rabin + Brent rho
    for the rest.  `budget` caps the total rho iterations;
    exceeding it with a composite cofactor raises FactorizationIncomplete
    rather than silently treating the cofactor as prime.
    """
    if n == 0:
        raise InvalidArgument("cannot factor 0")
    sign = 1 if n > 0 else -1
    m = abs(n)
    counts: dict[int, int] = {}

    def _add(p):
        counts[p] = counts.get(p, 0) + 1

    for p in (2, 3, 5):
        while m % p == 0:
            _add(p)
            m //= p
    # wheel over 30 for the small range; a prime or table-sized cofactor
    # ends it, so a prime cofactor does not run the whole wheel
    k, wheel = 7, (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    done = m < _SPF_LIMIT or is_probable_prime(m)
    while not done and k * k <= m and k < 1 << 16:
        if m % k == 0:
            while m % k == 0:
                _add(k)
                m //= k
            done = m < _SPF_LIMIT or is_probable_prime(m)
        k += wheel[i]
        i = (i + 1) % 8
    stack = [m]
    while stack:
        v = stack.pop()
        if v < _SPF_LIMIT:
            # the one place that walks the smallest-prime-factor table
            table = _spf()
            while v > 1:
                p = table[v]
                _add(p)
                v //= p
            continue
        if is_probable_prime(v):
            _add(v)
            continue
        root = is_perfect_square(v)
        if root is not None:
            stack.extend((root, root))
            continue
        d = _brent_rho(v, budget)
        if d is None or d in (1, v):
            partial = Factorization(sign, tuple(sorted(counts.items())))
            raise FactorizationIncomplete(n, partial, v)
        stack.extend((d, v // d))
    return Factorization(sign, tuple(sorted(counts.items())))


def sqrt_mod(a: int, p: int) -> int:
    """The root r <= p/2 of r^2 = a (mod p) for a prime p, by Tonelli-Shanks.
    Raises InvalidArgument when a is not a square modulo p."""
    a %= p
    if p == 2 or a == 0:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise InvalidArgument(f"{a} is not a square modulo {p}")
    # p - 1 = q * 2^s with q odd; z is any non-residue
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # least i with t^(2^i) = 1; then i < s
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def squarefree_part(n: int) -> tuple[int, int]:
    """Split n != 0 as s * r^2 with s squarefree and sign(s) = sign(n)."""
    if n == 0:
        raise InvalidArgument("0 has no squarefree decomposition")
    f = factorize(n)
    s, r = f.sign, 1
    for p, e in f.factors:
        if e & 1:
            s *= p
        r *= p ** (e // 2)
    return s, r


# ---------------------------------------------------------------------------
# vectors

def primitive_normalize(v: Sequence[int]) -> tuple[int, ...]:
    """Divide by the gcd and make the first nonzero entry positive."""
    g = 0
    for x in v:
        g = math.gcd(g, x)
    if g == 0:
        raise InvalidArgument("zero vector has no primitive representative")
    out = [x // g for x in v]
    for x in out:
        if x != 0:
            if x < 0:
                out = [-y for y in out]
            break
    return tuple(out)


def vector_content(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return g


# ---------------------------------------------------------------------------
# coprime parameter enumeration

def shell_pairs(r: int) -> list[tuple[int, int]]:
    """Coprime pairs (a, b), b >= 0, max(|a|, |b|) == r, lexicographic order."""
    out = []
    for a in range(-r, r + 1):
        if abs(a) == r:
            bs = range(0, r + 1)
        else:
            bs = (r,)
        for b in bs:
            if (a, b) != (0, 0) and math.gcd(a, b) == 1:
                out.append((a, b))
    return out


def euler_phi(n: int) -> int:
    if n < 1:
        raise InvalidArgument("totient needs a positive integer")
    out = n
    for p, _ in factorize(n).factors:
        out -= out // p
    return out if n > 1 else 1


# every search asks for the radii from 1 up to its cap, and phi factors r
@functools.cache
def shell_size(r: int) -> int:
    """len(shell_pairs(r)) without generating the shell: both edges of the
    ring contribute 2*phi(r) coprime pairs (plus the axis pair at radius 1)."""
    if r == 1:
        return 5
    return 4 * euler_phi(r)
