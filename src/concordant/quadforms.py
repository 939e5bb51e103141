"""Ternary quadratic forms a00*X0^2 + a01*X0*X1 + a11*X1^2 + a22*X2^2.

Covers reduction to a squarefree pairwise-coprime diagonal ("Legendre") form,
the classical solvability criterion, a bounded exhaustive point search, the
projection parametrization of a conic from a known point, and the degree-4
form obtained by pushing such a parametrization through a partner quadric
that shares the first two variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    DegenerateForm,
    EffortExhausted,
    InvalidArgument,
    NoSolution,
    NotBiquadratic,
    VerificationFailure,
)
from .integers import (
    factorize,
    is_perfect_square,
    primitive_normalize,
    squarefree_part,
    vector_content,
)

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class TernaryForm:
    a00: int
    a01: int
    a11: int
    a22: int

    def __post_init__(self):
        if self.a22 == 0:
            raise DegenerateForm("a22 must be nonzero")
        if 4 * self.a00 * self.a11 - self.a01 * self.a01 == 0:
            raise DegenerateForm("binary block is singular")
        g = vector_content((self.a00, self.a01, self.a11, self.a22))
        if g > 1:
            object.__setattr__(self, "a00", self.a00 // g)
            object.__setattr__(self, "a01", self.a01 // g)
            object.__setattr__(self, "a11", self.a11 // g)
            object.__setattr__(self, "a22", self.a22 // g)

    def __call__(self, x0: int, x1: int, x2: int) -> int:
        return self.a00 * x0 * x0 + self.a01 * x0 * x1 + self.a11 * x1 * x1 + self.a22 * x2 * x2

    @property
    def coefficients(self) -> tuple[int, int, int, int]:
        return (self.a00, self.a01, self.a11, self.a22)

    @property
    def is_diagonal(self) -> bool:
        return self.a01 == 0

    def diagonal(self) -> Triple:
        if not self.is_diagonal:
            raise InvalidArgument("form has a cross term")
        return (self.a00, self.a11, self.a22)


@dataclass(frozen=True)
class LegendreForm:
    """Diagonal a*X^2 + b*Y^2 + c*Z^2 with abc squarefree, plus the integer
    divisors (r0, r1, r2): a root p of this form gives the root
    (p0/r0, p1/r1, p2/r2) of the source form."""

    a: int
    b: int
    c: int
    scales: Triple = (1, 1, 1)

    @property
    def coefficients(self) -> Triple:
        return (self.a, self.b, self.c)

    def map_back(self, point: Triple) -> Triple:
        r0, r1, r2 = self.scales
        return primitive_normalize((point[0] * r1 * r2, point[1] * r0 * r2, point[2] * r0 * r1))


def reduce_to_legendre(form: TernaryForm) -> LegendreForm:
    """Rewrite a diagonal form so the three coefficients are squarefree and
    pairwise coprime.  |abc| strictly decreases at every rewrite, so this
    terminates.  Every rewrite substitutes X_i -> r*X_i for one or two
    coordinates, so the back map is three integer divisors, kept in `scales`."""
    if not form.is_diagonal:
        raise InvalidArgument("reduce_to_legendre needs a diagonal form")
    coeffs = list(form.diagonal())
    if any(c == 0 for c in coeffs):
        raise InvalidArgument("zero diagonal coefficient")
    scales = [1, 1, 1]
    while True:
        g = vector_content(coeffs)
        if g > 1:
            coeffs = [c // g for c in coeffs]
            continue
        changed = False
        for i in range(3):
            s, r = squarefree_part(coeffs[i])
            if r > 1:
                coeffs[i] = s
                scales[i] *= r
                changed = True
        if changed:
            continue
        shared = [(i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if math.gcd(coeffs[i], coeffs[j]) > 1]
        if not shared:
            break
        i, j = shared[0]
        p = factorize(math.gcd(coeffs[i], coeffs[j])).factors[0][0]
        coeffs[i] //= p
        coeffs[j] //= p
        coeffs[3 - i - j] *= p
        scales[i] *= p
        scales[j] *= p
    a, b, c = coeffs
    return LegendreForm(a, b, c, tuple(scales))


def _is_residue(a: int, m: int) -> bool:
    # is a a square modulo the squarefree modulus m?
    m = abs(m)
    if m <= 2:
        return True
    for p, _ in factorize(m).factors:
        if p == 2:
            continue
        r = a % p
        if r != 0 and pow(r, (p - 1) // 2, p) != 1:
            return False
    return True


def legendre_solvable(form: LegendreForm) -> bool:
    """Classical criterion: mixed signs, and -a_i*a_j a residue mod |a_k|
    for every permutation (i, j, k)."""
    a, b, c = form.coefficients
    if a > 0 and b > 0 and c > 0:
        return False
    if a < 0 and b < 0 and c < 0:
        return False
    return (
        _is_residue(-a * b, c)
        and _is_residue(-a * c, b)
        and _is_residue(-b * c, a)
    )


def diagonal_model(form: TernaryForm) -> TernaryForm:
    """The form itself when diagonal; otherwise the cross term is cleared by
    completing the square: 4*a00*F = U^2 + (4*a00*a11 - a01^2)*X1^2 +
    4*a00*a22*X2^2 with U = 2*a00*X0 + a01*X1."""
    if form.is_diagonal:
        return form
    a00, a01, a11, a22 = form.coefficients
    return TernaryForm(1, 0, 4 * a00 * a11 - a01 * a01, 4 * a00 * a22)


def find_conic_point(form: TernaryForm, max_evaluations: int = 20_000_000) -> Triple:
    """Smallest point on form = 0 under (max-norm, lexicographic) order of the
    reduced diagonal model, searched exhaustively inside the Holzer box and
    mapped back to the original coordinates.

    Each max-norm shell m is scanned in O(m) steps by solving for one
    coordinate with isqrt, so a box of side B costs O(B^2) plain-integer
    steps.  The map back uses the integer divisors of reduce_to_legendre and,
    for a cross term, undoes U = 2*a00*X0 + a01*X1.

    Raises NoSolution when the criterion rules the form out, EffortExhausted
    when the Holzer box holds more than max_evaluations points.  The policy
    counts every point of the box, not the steps the scan takes.
    """
    if form.a00 == 0:
        return (1, 0, 0)
    red = reduce_to_legendre(diagonal_model(form))
    if not legendre_solvable(red):
        raise NoSolution(f"{form.coefficients} has no rational points")
    a, b, c = red.coefficients
    bounds = (math.isqrt(abs(b * c)), math.isqrt(abs(a * c)), math.isqrt(abs(a * b)))
    volume = math.prod(2 * bound + 1 for bound in bounds)
    if volume > max_evaluations:
        raise EffortExhausted(f"Holzer box of {volume} points exceeds the policy")
    for m in range(1, max(bounds) + 1):
        hit = _scan_shell(red.coefficients, bounds, m)
        if hit is not None:
            u, x1, x2 = red.map_back(hit)
            if form.is_diagonal:
                return (u, x1, x2)
            a00, a01 = form.a00, form.a01
            return primitive_normalize((u - a01 * x1, 2 * a00 * x1, 2 * a00 * x2))
    raise NoSolution(f"exhausted Holzer box of {form.coefficients}")


def _roots(t: int, coef: int, limit: int) -> tuple[int, ...]:
    # every x with t + coef*x^2 == 0 and |x| <= limit, ascending
    if t % coef:
        return ()
    v = -t // coef
    if v < 0:
        return ()
    r = math.isqrt(v)
    if r * r != v or r > limit:
        return ()
    return (-r, r) if r else (0,)


def _scan_shell(coeffs: Triple, bounds: Triple, m: int) -> Optional[Triple]:
    # lexicographically first primitive root on the max-norm-m shell of the
    # Holzer box; one coordinate is solved for, never looped over
    a, b, c = coeffs
    b0, b1, b2 = bounds
    lim1, lim2 = min(b1, m), min(b2, m)
    bm, cm = b * m * m, c * m * m
    for x0 in range(max(-b0, -m), min(b0, m) + 1):
        t0 = a * x0 * x0
        if abs(x0) == m:
            # a face: every (x1, x2) of the box with max-norm <= m
            roots = [
                (x1, x2)
                for x1 in range(-lim1, lim1 + 1)
                for x2 in _roots(t0 + b * x1 * x1, c, lim2)
            ]
        else:
            # max(|x1|, |x2|) == m: the x1 = +-m edges, then x2 = +-m, |x1| < m
            roots = []
            if m <= b1:
                x2s = _roots(t0 + bm, c, lim2)
                roots += [(x1, x2) for x1 in (-m, m) for x2 in x2s]
            if m <= b2:
                x1s = _roots(t0 + cm, b, min(b1, m - 1))
                roots += [(x1, x2) for x2 in (-m, m) for x1 in x1s]
        for x1, x2 in sorted(roots):
            if math.gcd(math.gcd(x0, x1), x2) == 1:
                return (x0, x1, x2)
    return None


def zero_coordinate_point(form: TernaryForm, index: int) -> Optional[Triple]:
    """Primitive point on the conic with coordinate `index` equal to zero, or
    None when no such point exists.  Setting the coordinate to zero leaves a
    binary form; the point exists iff that binary form represents zero."""
    a00, a01, a11, a22 = form.coefficients
    if index == 0:
        sol = _binary_zero(a11, a22)
        return None if sol is None else primitive_normalize((0, sol[0], sol[1]))
    if index == 1:
        sol = _binary_zero(a00, a22)
        return None if sol is None else primitive_normalize((sol[0], 0, sol[1]))
    if index == 2:
        if a00 == 0:
            return (1, 0, 0)
        disc = a01 * a01 - 4 * a00 * a11
        r = is_perfect_square(disc)
        if r is None:
            return None
        return primitive_normalize((-a01 + r, 2 * a00, 0))
    raise InvalidArgument("index must be 0, 1 or 2")


def _binary_zero(u: int, v: int) -> Optional[tuple[int, int]]:
    # nontrivial (x, y) with u*x^2 + v*y^2 = 0, if one exists
    if u == 0:
        return (1, 0)
    if v == 0:
        return (0, 1)
    r = is_perfect_square(-u * v)
    if r is None:
        return None
    return (r, abs(u))


@dataclass(frozen=True)
class ConicParametrization:
    """Three binary quadratics (rows) sweeping the source conic: row i holds
    the (s^2, s*t, t^2) coefficients of coordinate i in parameters (s, t)."""

    rows: tuple[Triple, Triple, Triple]
    base_point: Triple
    source: TernaryForm

    def __call__(self, s: int, t: int) -> Triple:
        return tuple(r[0] * s * s + r[1] * s * t + r[2] * t * t for r in self.rows)

    def evaluate_row(self, i: int, s: int, t: int) -> int:
        r = self.rows[i]
        return r[0] * s * s + r[1] * s * t + r[2] * t * t

    def column(self, j: int) -> Triple:
        return tuple(r[j] for r in self.rows)

    def composed_with_source(self) -> tuple[int, int, int, int, int]:
        """Coefficients of source(row0, row1, row2) as a quartic in (s, t);
        all five vanish exactly when this is a genuine parametrization."""
        f = self.source
        acc = [0] * 5
        for coef, r in ((f.a00, 0), (f.a11, 1), (f.a22, 2)):
            if coef:
                prod = _binary_mul(self.rows[r], self.rows[r])
                for i in range(5):
                    acc[i] += coef * prod[i]
        if f.a01:
            prod = _binary_mul(self.rows[0], self.rows[1])
            for i in range(5):
                acc[i] += f.a01 * prod[i]
        return tuple(acc)

    def is_valid(self) -> bool:
        return all(c == 0 for c in self.composed_with_source())


def _binary_mul(f: Triple, g: Triple) -> tuple[int, int, int, int, int]:
    return (
        f[0] * g[0],
        f[0] * g[1] + f[1] * g[0],
        f[0] * g[2] + f[1] * g[1] + f[2] * g[0],
        f[1] * g[2] + f[2] * g[1],
        f[2] * g[2],
    )


def _projection_rows(form: TernaryForm, base: Triple) -> list[list[int]]:
    a00, a01, a11, a22 = form.coefficients
    x0, x1, x2 = base
    if x2 != 0:
        return [
            [a11 * x0, -2 * a11 * x1, -(a01 * x1 + a00 * x0)],
            [-a11 * x1 - a01 * x0, -2 * a00 * x0, a00 * x1],
            [a11 * x2, a01 * x2, a00 * x2],
        ]
    if x1 == 0:
        raise InvalidArgument("base point must have x1 or x2 nonzero")
    return [
        [-(a01 * x1 + a00 * x0), 0, a22 * x0],
        [a00 * x1, 0, a22 * x1],
        [0, -(a01 * x1 + 2 * a00 * x0), 0],
    ]


def _parameter_shrink(rows: list[list[int]], sq_col: int) -> int:
    """Largest d such that replacing the parameter of column sq_col by
    (parameter / d) keeps every coefficient an integer: d^2 must divide the
    whole squared column and d the whole cross column, that is, d^2 must
    divide gcd(squared content, cross content^2)."""
    gsq = vector_content([r[sq_col] for r in rows])
    gcross = vector_content([r[1] for r in rows])
    h = math.gcd(gsq, gcross * gcross)
    return squarefree_part(h)[1] if h else 1


def _canonicalize_rows(rows: list[list[int]]) -> tuple[Triple, Triple, Triple]:
    """Divide out the joint content, then repeatedly shrink each parameter by
    the largest integer scaling that keeps every coefficient integral."""
    while True:
        g = vector_content([c for r in rows for c in r])
        if g > 1:
            rows = [[c // g for c in r] for r in rows]
        changed = False
        for sq_col in (0, 2):
            d = _parameter_shrink(rows, sq_col)
            if d > 1:
                for r in rows:
                    r[sq_col] //= d * d
                    r[1] //= d
                changed = True
        if not changed:
            return tuple(tuple(r) for r in rows)


def parametrize_conic(form: TernaryForm, base: Triple) -> ConicParametrization:
    """Sweep of the conic by lines through `base`; the raw projection rows are
    then put in the canonical scaled shape (content removed, each parameter
    shrunk as far as integrality allows)."""
    if form(*base) != 0:
        raise InvalidArgument(f"{base} is not on {form.coefficients}")
    if vector_content(base) != 1:
        raise InvalidArgument("base point must be primitive")
    rows = _projection_rows(form, base)
    canon = _canonicalize_rows(rows)
    param = ConicParametrization(canon, tuple(base), form)
    if not param.is_valid():
        raise VerificationFailure(f"parametrization from {base} misses {form.coefficients}")
    return param


@dataclass(frozen=True)
class QuarticForm:
    """b40*s^4 + b31*s^3 t + b22*s^2 t^2 + b13*s t^3 + b04*t^4 + b33*Z^2."""

    b40: int
    b31: int
    b22: int
    b13: int
    b04: int
    b33: int

    def __post_init__(self):
        g = vector_content((self.b40, self.b31, self.b22, self.b13, self.b04, self.b33))
        if g > 1:
            for name in ("b40", "b31", "b22", "b13", "b04", "b33"):
                object.__setattr__(self, name, getattr(self, name) // g)


def compose_quartic(form: Triple, param: ConicParametrization) -> tuple[int, int, int, int, int]:
    """Coefficients of form(row0, row1) as a binary quartic in the parameters
    of param, s^4 first; form holds the (X0^2, X0*X1, X1^2) coefficients."""
    g0, g1 = param.rows[0], param.rows[1]
    acc = [0] * 5
    for coef, prod in (
        (form[0], _binary_mul(g0, g0)),
        (form[1], _binary_mul(g0, g1)),
        (form[2], _binary_mul(g1, g1)),
    ):
        for i in range(5):
            acc[i] += coef * prod[i]
    return tuple(acc)


def substitute_into_partner(
    param: ConicParametrization, partner: tuple[int, int, int, int]
) -> QuarticForm:
    """Push rows 0 and 1 of the parametrization through the partner quadric
    b00*X0^2 + b01*X0*X1 + b11*X1^2 + b33*X3^2; the result is degree 4 in the
    parameters and pure degree 2 in X3."""
    b00, b01, b11, b33 = partner
    return QuarticForm(*compose_quartic((b00, b01, b11), param), b33)


def biquadratic_to_ternary(quartic: QuarticForm) -> TernaryForm:
    """Read a biquadratic s^4/s^2t^2/t^4 form as a conic in (s^2, t^2, Z)."""
    if quartic.b31 != 0 or quartic.b13 != 0:
        raise NotBiquadratic(f"odd coefficients {quartic.b31}, {quartic.b13} nonzero")
    return TernaryForm(quartic.b40, quartic.b22, quartic.b04, quartic.b33)
