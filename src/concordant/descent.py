"""2-descent bookkeeping for y^2 = x(x + pk)(x - qk).

Square classes of the finite group generated by the bad primes, as F2
exponent vectors; triplets (A, B, C) indexing homogeneous spaces (with A*B*C
a perfect square and A > 0), on whose vectors the 2-torsion points act by
XOR with `torsion_images`; the solvability filter decided from a per-curve
table of Legendre symbols; the local images of the 2-descent map that decide
which classes have a point over every Q_ell; construction of the four
three-variable quadrics of a homogeneous space; and lifting of solutions
back to curve points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .curves import ConcordantCurve, CurvePoint
from .errors import DegenerateForm, InvalidArgument, VerificationFailure
from .integers import factorize, is_perfect_square, primitive_normalize, squarefree_part
from .quadforms import TernaryForm, reduced_parities


@dataclass(frozen=True, order=True)
class DescentTriplet:
    """Square classes with x+M = A*a^2, x = B*b^2, x+N = C*c^2; the product
    A*B*C is a perfect square and A is positive."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0:
            raise InvalidArgument("A component must be positive")
        product = self.a * self.b * self.c
        if product == 0 or is_perfect_square(product) is None:
            raise InvalidArgument(f"{self}: product is not a nonzero perfect square")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def sort_key(self):
        return (abs(self.a), abs(self.b), abs(self.c), self.b < 0, self.c < 0)


def _prime_divisors(n: int) -> set[int]:
    out = set()
    n = abs(n)
    if n > 1:
        out.update(p for p, _ in factorize(n).factors)
    return out


def descent_generators(p: int, q: int, k: int) -> list[int]:
    """{-1, 2} together with the primes of p, q, p+q and k, sorted."""
    if math.gcd(p, q) != 1:
        raise InvalidArgument("p, q must be coprime")
    if k <= 0 or squarefree_part(k)[0] != k:
        raise InvalidArgument("k must be squarefree positive")
    gens = {-1, 2}
    for n in (p, q, p + q, k):
        gens |= _prime_divisors(n)
    return sorted(gens)


def torsion_images(m: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """The values (x + m, x, x + n) of the 2-torsion points x = 0, -m, -n of
    y^2 = x(x + m)(x + n), with the value that vanishes replaced by the
    product of the other two: each is a triplet up to squares, and a
    torsion point acts on the descent classes by multiplying by it."""
    return ((m, m * n, n), (m * (m - n), -m, n - m), (m - n, -n, -n * (m - n)))


@dataclass(frozen=True)
class HomogeneousSpace:
    """Four quadrics in three of the four variables (a, b, c, d) cut out by
    homogenizing x+M = A*a^2, x = B*b^2, x+N = C*c^2 with d and eliminating
    x and d."""

    triplet: DescentTriplet
    m: int
    n: int
    e_a: TernaryForm  # vars (a, b, d)
    e_b: TernaryForm  # vars (b, c, d)
    e_c: TernaryForm  # vars (a, c, d)
    e_d: TernaryForm  # vars (a, b, c)

    def quadrics(self) -> list[tuple[str, TernaryForm, tuple[str, str, str]]]:
        return [
            ("e_d", self.e_d, ("a", "b", "c")),
            ("e_a", self.e_a, ("a", "b", "d")),
            ("e_b", self.e_b, ("b", "c", "d")),
            ("e_c", self.e_c, ("a", "c", "d")),
        ]

    def satisfied_by(self, solution: tuple[int, int, int, int]) -> bool:
        named = dict(zip("abcd", solution))
        return all(
            form(*(named[v] for v in vars_)) == 0 for _, form, vars_ in self.quadrics()
        )


def _signed_primitive_form(c0: int, c1: int, c2: int) -> TernaryForm:
    # content-free diagonal form with the first nonzero coefficient positive
    c0, c1, c2 = primitive_normalize((c0, c1, c2))
    return TernaryForm(c0, 0, c1, c2)


def build_homogeneous_space(t: DescentTriplet, m: int, n: int) -> HomogeneousSpace:
    a, b, c = t.as_tuple()
    e_a = _signed_primitive_form(a, -b, -m)
    e_b = _signed_primitive_form(b, -c, n)
    e_c = _signed_primitive_form(a, -c, -(m - n))
    e_d = _signed_primitive_form(n * a, (m - n) * b, -m * c)
    return HomogeneousSpace(t, m, n, e_a, e_b, e_c, e_d)


class SquareClasses:
    """Square classes generated by -1 and a fixed prime set.  A class is an
    F2 exponent vector stored as an int: one bit for -1 and one per
    generator, in `generators` order, so a product of classes is XOR.  A
    table of Legendre symbols between the generators, built once, decides
    the Legendre criterion on such vectors (Serre, A Course in Arithmetic,
    ch. III-IV)."""

    def __init__(self, generators: list[int]):
        self.generators = generators
        self._neg = 1 << generators.index(-1)
        self._primes = [(1 << i, g) for i, g in enumerate(generators) if g > 1]
        # memo: vector -> value
        self._values: dict[int, int] = {}
        # bit of each odd prime p -> mask of the generators g != p with (g/p) = -1
        self._nonresidues = {
            bit: sum(
                1 << i
                for i, g in enumerate(generators)
                if g != p and pow(g % p, (p - 1) // 2, p) == p - 1
            )
            for bit, p in self._primes
            if p != 2
        }
        self._odd = sum(self._nonresidues)

    def vector(self, value: int) -> int:
        """Exponent parities of a nonzero value whose primes are generators."""
        if value == 0:
            raise InvalidArgument("0 has no square class")
        vec = self._neg if value < 0 else 0
        rest = abs(value)
        for bit, p in self._primes:
            while rest % p == 0:
                rest //= p
                vec ^= bit
        if rest != 1:
            raise InvalidArgument(f"{value} has a prime outside {self.generators}")
        return vec

    def value(self, vec: int) -> int:
        """The squarefree representative of a vector."""
        value = self._values.get(vec)
        if value is None:
            value = -1 if vec & self._neg else 1
            for bit, p in self._primes:
                if vec & bit:
                    value *= p
            self._values[vec] = value
        return value

    def reduced(self, x: int, y: int, z: int) -> tuple[int, int, int]:
        """The vectors of x*X^2 + y*Y^2 + z*Z^2 reduced as `reduce_to_legendre`
        reduces the form: the first coefficient turns positive, as in
        `primitive_normalize`, and `reduced_parities` moves a prime in two
        coefficients to the third.  Dividing out content only complements a
        prime's pattern, which the rule maps to the same parities, so it
        needs no step here."""
        neg = self._neg
        if x & neg:
            x, y, z = x ^ neg, y ^ neg, z ^ neg
        rx, ry, rz = reduced_parities(x & ~neg, y & ~neg, z & ~neg)
        return rx | x & neg, ry | y & neg, rz | z & neg

    def passes(self, x: int, y: int, z: int) -> bool:
        """The criterion for x*X^2 + y*Y^2 + z*Z^2 on reduced vectors (prime
        bits pairwise disjoint, x positive): mixed signs, and -s*t a residue
        mod every odd prime of r for each permutation (r, s, t)."""
        neg = self._neg
        if not (y | z) & neg:
            return False
        for r, s, t in ((z, x, y), (y, x, z), (x, y, z)):
            odd = r & self._odd
            minus_st = s ^ t ^ neg
            while odd:
                low = odd & -odd
                if (minus_st & self._nonresidues[low]).bit_count() & 1:
                    return False
                odd ^= low
        return True


class SolvabilityTable(SquareClasses):
    """Legendre criterion for the four quadrics of y^2 = x(x + m)(x + n) over
    the square classes generated by a fixed prime set.  Every quadric
    coefficient is a signed product of generators, so reduction and the
    criterion act on exponent parities alone."""

    def __init__(self, generators: list[int], m: int, n: int):
        if m == 0 or n == 0 or m == n:
            raise DegenerateForm("m, n and m - n must be nonzero")
        super().__init__(generators)
        self._m, self._n, self._d = self.vector(m), self.vector(n), self.vector(m - n)

    def verdict(self, va: int, vb: int) -> tuple[bool, str]:
        """(verdict, evidence) for the triplet whose A and B have the vectors
        va and vb, as in `triplet_solvable`: C has the vector va ^ vb, and
        each quadric's parity bitmasks go through `reduced`."""
        vc = va ^ vb
        vm, vn, vd, neg = self._m, self._n, self._d, self._neg
        # build_homogeneous_space's coefficients, in HomogeneousSpace.quadrics order
        quadrics = (
            ("e_d", vn ^ va, vd ^ vb, neg ^ vm ^ vc),
            ("e_a", va, neg ^ vb, neg ^ vm),
            ("e_b", vb, neg ^ vc, vn),
            ("e_c", va, neg ^ vc, neg ^ vd),
        )
        for name, x, y, z in quadrics:
            x, y, z = self.reduced(x, y, z)
            if not self.passes(x, y, z):
                reduced = (self.value(x), self.value(y), self.value(z))
                return False, f"{name} reduces to {reduced}: criterion fails"
        return True, "all four quadrics pass the criterion"


def local_class(value: int, ell: int) -> int:
    """The class of a nonzero integer in Q_ell*/Q_ell*^2 as bits: bit 0 is
    the parity of the ell-adic valuation; at an odd ell bit 1 is set when
    the unit part is a non-residue mod ell, and at ell = 2 bits 1 and 2 are
    set when the unit part is 3 mod 4 and when it is 3 or 5 mod 8.  The map
    is a homomorphism onto F2^2, or F2^3 at 2."""
    if value == 0:
        raise InvalidArgument("0 has no square class")
    v = 0
    while value % ell == 0:
        value //= ell
        v += 1
    if ell == 2:
        u = value % 8
        return v & 1 | (u % 4 == 3) << 1 | (u in (3, 5)) << 2
    return v & 1 | (pow(value % ell, (ell - 1) // 2, ell) != 1) << 1


def _class_width(ell: int) -> int:
    # bits of a `local_class`: Q_ell*/Q_ell*^2 has order 4, or 8 at 2
    return 3 if ell == 2 else 2


def _reduce(v: int, basis: list[int]) -> int:
    # v modulo the span of a basis kept in decreasing order of leading bit
    for b in basis:
        v = min(v, v ^ b)
    return v


# the points x = a*ell^v tried, beyond the 2-torsion, for a local image:
# ell does not divide a, 1 <= |a| <= _POINT_UNITS and |v| <= _POINT_SHIFTS
_POINT_UNITS = 64
_POINT_SHIFTS = 6


def local_image(ell: int, m: int, n: int) -> Optional[list[int]]:
    """A basis of delta_ell(E(Q_ell)) for E: y^2 = x(x + m)(x + n), or None
    when the bounded point search below does not fill it.  delta maps a
    point to the classes of (x + m, x) packed as `local_class(x + m) |
    local_class(x) << w`, w the width of a class.  E has full rational
    2-torsion, so E(Q_ell)/2E(Q_ell) has dimension w, 2 at an odd ell and 3
    at ell = 2, and delta is injective on it (Silverman, AEC, Prop. X.1.4).
    The span starts from the (x + m, x) of the 2-torsion `torsion_images`
    and takes the rational points x = a*ell^v with x(x + m)(x + n) an
    ell-adic square until it has that dimension.  A larger span is a
    VerificationFailure."""
    width = _class_width(ell)
    basis: list[int] = []

    def add(v: int) -> bool:
        # True once the span has its dimension
        v = _reduce(v, basis)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
            if len(basis) > width:
                raise VerificationFailure(
                    f"local image at {ell} of ({m}, {n}) spans more than {width} dimensions"
                )
        return len(basis) == width

    for xm, x, _ in torsion_images(m, n):
        add(local_class(xm, ell) | local_class(x, ell) << width)
    if len(basis) == width:
        return basis
    for a in range(1, _POINT_UNITS + 1):
        if a % ell == 0:
            continue
        for v in range(-_POINT_SHIFTS, _POINT_SHIFTS + 1):
            # x = X/D with D = ell^-v when v < 0: x(x + m)(x + n) then has
            # the valuation 3v, odd unless v is even, and an even v makes D
            # a square, so x + m, x and the product have the classes of
            # X + m*D, X and X(X + m*D)(X + n*D)
            if v < 0 and v % 2:
                continue
            d = ell ** max(-v, 0)
            for x in (a * ell ** max(v, 0), -a * ell ** max(v, 0)):
                w = x * (x + m * d) * (x + n * d)
                if w == 0 or local_class(w, ell):
                    continue
                if add(local_class(x + m * d, ell) | local_class(x, ell) << width):
                    return basis
    return None


class LocalImages:
    """The local conditions of the complete 2-descent of y^2 = x(x + pk)(x - qk):
    a class (A, B, C) has a point over Q_ell only when (A, B) lies in
    `local_image(ell, ...)`, for every ell in {2} and the primes of
    m*n*(m - n), which are the positive generators.  A prime whose image
    the point search does not fill imposes no condition."""

    def __init__(self, p: int, q: int, k: int):
        # ell -> the basis of its image; only the primes whose image is filled
        self.images: dict[int, list[int]] = {}
        for ell in descent_generators(p, q, k):
            if ell < 2:
                continue
            basis = local_image(ell, p * k, -q * k)
            if basis is not None:
                self.images[ell] = basis

    def obstructions(self, t: DescentTriplet) -> list[int]:
        """The primes, ascending, over which the class of t has no point:
        those where (A, B) reduces to nonzero modulo the image."""
        return [
            ell
            for ell, basis in self.images.items()
            if _reduce(local_class(t.a, ell) | local_class(t.b, ell) << _class_width(ell), basis)
        ]


def triplet_solvable(t: DescentTriplet, m: int, n: int) -> tuple[bool, str]:
    """Necessary condition: each of the four quadrics must individually pass
    the Legendre criterion after reduction.  Returns (verdict, evidence);
    the evidence names the failing quadric and its reduced coefficients."""
    generators = {-1, 2}
    for value in (m, n, m - n, *t.as_tuple()):
        generators |= _prime_divisors(value)
    table = SolvabilityTable(sorted(generators), m, n)
    return table.verdict(table.vector(t.a), table.vector(t.b))


@dataclass
class Classification:
    """Full descent bookkeeping for one curve: the generator set, every
    triplet, the 2-torsion equivalence classes with per-member verdicts, and
    the surviving candidates (torsion class excluded)."""

    generators: list[int]
    group_size: int
    triplets: list[DescentTriplet]
    classes: list[dict]

    @property
    def surviving_triplets(self) -> list[DescentTriplet]:
        out = []
        for cls in self.classes:
            if cls["is_torsion_class"]:
                continue
            out.extend(t for t, ok, _ in cls["verdicts"] if ok)
        return sorted(out, key=DescentTriplet.sort_key)

    @property
    def surviving_classes(self) -> list[dict]:
        return [c for c in self.classes if c["survives"] and not c["is_torsion_class"]]


def classify(p: int, q: int, k: int) -> Classification:
    """Every triplet (A, B, A*B) with A > 0, partitioned into 2-torsion
    orbits with a verdict per member.  A triplet is keyed by the vectors of
    A and B, `A | B << width`, so a torsion point acts on keys by one XOR;
    members and classes follow `DescentTriplet.sort_key`, a class by its
    first member."""
    m, n = p * k, -q * k
    generators = descent_generators(p, q, k)
    table = SolvabilityTable(generators, m, n)
    width = len(generators)
    mask = (1 << width) - 1
    values = [table.value(v) for v in range(1 << width)]

    def triplet(key: int) -> DescentTriplet:
        a, b = key & mask, key >> width
        return DescentTriplet(values[a], values[b], values[a ^ b])

    # sort_key order: A ascending, then B by absolute value and sign, as -B
    # has the C of opposite sign and equal absolute value
    order = sorted(range(1 << width), key=lambda v: (abs(values[v]), values[v] < 0))
    keys = (a | b << width for a in order if values[a] > 0 for b in order)
    by_key = {key: triplet(key) for key in keys}
    moves = [table.vector(a) | table.vector(b) << width for a, b, _ in torsion_images(m, n)]
    seen: set[int] = set()
    classes = []
    for key in by_key:
        if key in seen:
            continue
        orbit = {key, *(key ^ move for move in moves)}
        seen |= orbit
        # an image with A < 0, when m or m - n is negative, raises in triplet
        found = {w: by_key.get(w) or triplet(w) for w in orbit}
        ordered = sorted(orbit, key=lambda w: found[w].sort_key())
        members = [found[w] for w in ordered]
        verdicts = [(found[w], *table.verdict(w & mask, w >> width)) for w in ordered]
        classes.append(
            {
                "members": members,
                "representative": members[0],
                "is_torsion_class": 0 in orbit,
                "verdicts": verdicts,
                "survives": all(ok for _, ok, _ in verdicts),
            }
        )
    return Classification(generators, 2**width, list(by_key.values()), classes)


def lift_solution(
    t: DescentTriplet, m: int, n: int, solution: tuple[int, int, int, int]
) -> CurvePoint:
    """Curve point from a homogeneous-space solution (a, b, c, d), d != 0:
    x = B*b^2/d^2 and y = sqrt(ABC)*a*b*c/d^3."""
    space = build_homogeneous_space(t, m, n)
    if not space.satisfied_by(solution):
        raise InvalidArgument(f"{solution} does not satisfy the homogeneous space")
    va, vb, vc, vd = solution
    if vd == 0:
        raise InvalidArgument("d = 0 lifts to a 2-torsion point")
    root = is_perfect_square(t.a * t.b * t.c)
    if root is None:
        raise VerificationFailure(f"ABC of {t.as_tuple()} is not a square")
    x = Fraction(t.b * vb * vb, vd * vd)
    y = Fraction(root * va * vb * vc, vd**3)
    point = CurvePoint(x, y)
    if not ConcordantCurve(m, n).contains(point):
        raise VerificationFailure(f"lift of {solution} misses the curve ({m}, {n})")
    return point
