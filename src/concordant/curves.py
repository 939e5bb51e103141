"""The curve y^2 = x(x+m)(x+n), its group law, and the two mutually inverse
maps between the curve and the intersection of the two quadrics

    X0^2 + m*X1^2 = X2^2,      X0^2 + n*X1^2 = X3^2.

All arithmetic is exact (Fractions / big ints); floats appear only in the
logarithmic height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InvalidArgument, NotNormalized, VerificationFailure
from .integers import primitive_normalize, squarefree_part


# the largest torsion order of a rational point on a rational elliptic
# curve (Mazur)
_MAZUR_BOUND = 12


def class_of(value) -> int:
    """Squarefree representative of a nonzero rational's square class."""
    f = Fraction(value)
    return squarefree_part(f.numerator * f.denominator)[0]


@dataclass(frozen=True)
class CurvePoint:
    """Affine (x, y) with exact rational coordinates, or the point at infinity."""

    x: Optional[Fraction]
    y: Optional[Fraction]

    @staticmethod
    def infinity() -> "CurvePoint":
        return CurvePoint(None, None)

    @staticmethod
    def affine(x, y) -> "CurvePoint":
        return CurvePoint(Fraction(x), Fraction(y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def negate(self) -> "CurvePoint":
        if self.is_infinity:
            return self
        return CurvePoint(self.x, -self.y)

    def projective(self) -> tuple[int, int, int]:
        """Primitive (T : X : Y) with x = X/T, y = Y/T; infinity is (0:0:1)."""
        if self.is_infinity:
            return (0, 0, 1)
        t = self.x.denominator * self.y.denominator // math.gcd(
            self.x.denominator, self.y.denominator
        )
        return primitive_normalize((t, int(self.x * t), int(self.y * t)))

    def __str__(self):
        if self.is_infinity:
            return "infinity"
        return f"({self.x}, {self.y})"


def log_height(coords: Sequence[int]) -> float:
    """log10 of the largest |coordinate| of a primitive integer vector."""
    prim = primitive_normalize(coords)
    m = max(abs(c) for c in prim)
    return 0.0 if m <= 1 else math.log10(m)


def point_log_height(p: CurvePoint) -> float:
    return log_height(p.projective())


@dataclass(frozen=True)
class ConcordantCurve:
    """y^2 = x(x+m)(x+n) with integers m != n, both nonzero."""

    m: int
    n: int

    def __post_init__(self):
        if self.m == 0 or self.n == 0 or self.m == self.n:
            raise InvalidArgument("need nonzero m != n")

    @staticmethod
    def from_pqk(p: int, q: int, k: int) -> "ConcordantCurve":
        if p <= 0 or q <= 0 or k <= 0:
            raise InvalidArgument("p, q, k must be positive")
        if math.gcd(p, q) != 1:
            raise InvalidArgument("p and q must be coprime")
        if squarefree_part(k)[0] != k:
            raise InvalidArgument("k must be squarefree")
        return ConcordantCurve(p * k, -q * k)

    def pqk(self) -> tuple[int, int, int]:
        """The decomposition m = p*k, n = -q*k with gcd(p, q) = 1 and k a
        squarefree positive integer; only defined when m > 0 > n."""
        if not (self.m > 0 > self.n):
            raise NotNormalized("need m > 0 > n for the (p, q, k) split")
        k = math.gcd(self.m, -self.n)
        if squarefree_part(k)[0] != k:
            raise NotNormalized(f"gcd(m, -n) = {k} is not squarefree")
        return (self.m // k, -self.n // k, k)

    # -- membership and group law ------------------------------------------

    def rhs(self, x: Fraction) -> Fraction:
        return x * (x + self.m) * (x + self.n)

    def contains(self, pt: CurvePoint) -> bool:
        if pt.is_infinity:
            return True
        return pt.y * pt.y == self.rhs(pt.x)

    def _require(self, pt: CurvePoint):
        if not self.contains(pt):
            raise InvalidArgument(f"{pt} is not on y^2 = x(x+{self.m})(x+{self.n})")

    def add(self, p: CurvePoint, q: CurvePoint) -> CurvePoint:
        """Chord-tangent addition with infinity as the neutral element."""
        self._require(p)
        self._require(q)
        return self._add_unchecked(p, q)

    def _add_unchecked(self, p: CurvePoint, q: CurvePoint) -> CurvePoint:
        # the group law proper; callers have checked that p and q are on the
        # curve, and a sum of two such points is on it again
        if p.is_infinity:
            return q
        if q.is_infinity:
            return p
        if p.x == q.x:
            if p.y == -q.y:
                return CurvePoint.infinity()
            # tangent: slope of y^2 = x^3 + (m+n)x^2 + mn*x
            slope = (3 * p.x * p.x + 2 * (self.m + self.n) * p.x + self.m * self.n) / (
                2 * p.y
            )
        else:
            slope = (q.y - p.y) / (q.x - p.x)
        x3 = slope * slope - (self.m + self.n) - p.x - q.x
        y3 = slope * (p.x - x3) - p.y
        return CurvePoint(x3, y3)

    def multiply(self, k: int, p: CurvePoint) -> CurvePoint:
        self._require(p)
        if k < 0:
            k, p = -k, p.negate()
        acc = CurvePoint.infinity()
        for _ in range(k):
            acc = self._add_unchecked(acc, p)
        return acc

    def two_torsion(self) -> tuple[CurvePoint, CurvePoint, CurvePoint, CurvePoint]:
        return (
            CurvePoint.infinity(),
            CurvePoint.affine(0, 0),
            CurvePoint.affine(-self.m, 0),
            CurvePoint.affine(-self.n, 0),
        )

    def is_torsion(self, p: CurvePoint) -> bool:
        """Exact torsion test for a point on the curve (InvalidArgument if it
        is not on it).

        Lutz-Nagell: on a model y^2 = x^3 + a*x^2 + b*x + c with integer
        coefficients, every rational torsion point other than infinity has
        integer coordinates.  y^2 = x(x+m)(x+n) is such a model, so a point
        whose x has a denominator is non-torsion.  For an integral point the
        test falls back to the group law: the torsion order of a rational
        point on a rational elliptic curve is at most 12 (Mazur), so p is
        torsion iff some multiple k*p with k <= 12 is the identity."""
        self._require(p)
        if p.is_infinity:
            return True
        if p.x.denominator != 1:
            return False
        acc = p
        for _ in range(_MAZUR_BOUND - 1):
            acc = self._add_unchecked(acc, p)
            if acc.is_infinity:
                return True
        return False

    def torsion_translates(self, p: CurvePoint) -> list[CurvePoint]:
        """The eight points +-(p + T) over the four 2-torsion points T."""
        self._require(p)
        out = []
        for t in self.two_torsion():
            s = self._add_unchecked(p, t)
            out.append(s)
            out.append(s.negate())
        return out

    # -- transfer to and from the quadric intersection ----------------------

    def quadric_residues(self, quad: Sequence[int]) -> tuple[int, int]:
        x0, x1, x2, x3 = quad
        return (
            x0 * x0 + self.m * x1 * x1 - x2 * x2,
            x0 * x0 + self.n * x1 * x1 - x3 * x3,
        )

    def on_quadrics(self, quad: Sequence[int]) -> bool:
        return self.quadric_residues(quad) == (0, 0)

    def from_quadric(self, quad: Sequence[int]) -> CurvePoint:
        """Image of a quadric-intersection point on the curve.

        The coordinate polynomials vanish simultaneously only at the class of
        (1, 0, 1, 1), which is sent to infinity (the extension of the map to
        its base point)."""
        quad = primitive_normalize(quad)
        if not self.on_quadrics(quad):
            raise InvalidArgument(f"{quad} does not satisfy both quadrics")
        x0, x1, x2, x3 = quad
        m, n = self.m, self.n
        t = n * x2 - m * x3 + (m - n) * x0
        xx = m * n * (x3 - x2)
        yy = m * n * (m - n) * x1
        if t == 0 and xx == 0 and yy == 0:
            return CurvePoint.infinity()
        if t == 0:
            raise InvalidArgument(f"{quad} maps to no affine point")
        return CurvePoint(Fraction(xx, t), Fraction(yy, t))

    def to_quadric(self, p: CurvePoint) -> tuple[int, int, int, int]:
        """Primitive quadric-intersection point under the inverse transfer.

        The defining polynomials vanish at infinity and at the 2-torsion
        points (-m, 0), (-n, 0); those are sent to the matching trivial
        solutions so that the two transfers stay mutually inverse."""
        self._require(p)
        m, n = self.m, self.n
        if p.is_infinity:
            return (1, 0, 1, 1)
        if p.y == 0:
            if p.x == -m:
                return primitive_normalize((1, 0, -1, 1))
            if p.x == -n:
                return primitive_normalize((1, 0, 1, -1))
        t, x, y = p.projective()
        u = x + m * t
        v = x + n * t
        w0 = -u * (y * y - m * v * v)
        w1 = 2 * y * v * u
        w2 = -u * (y * y + m * v * v)
        w3 = -v * (y * y + n * u * u)
        quad = primitive_normalize((w0, w1, w2, w3))
        if not self.on_quadrics(quad):
            raise VerificationFailure(f"{quad} misses the quadrics of ({m}, {n})")
        return quad

    def square_classes(self, p: CurvePoint) -> tuple[int, int, int]:
        """Square classes of (x+m, x, x+n); at 2-torsion and infinity the
        descent-map values replace the vanishing factor."""
        m, n = self.m, self.n
        if p.is_infinity:
            return (1, 1, 1)
        vals = []
        for e, other1, other2 in ((-m, 0, -n), (0, -m, -n), (-n, 0, -m)):
            if p.x == e:
                vals.append(class_of((e - other1) * (e - other2)))
            else:
                vals.append(class_of(p.x - e))
        return tuple(vals)
