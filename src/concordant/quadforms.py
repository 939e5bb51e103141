"""Ternary quadratic forms a00*X0^2 + a01*X0*X1 + a11*X1^2 + a22*X2^2.

Covers reduction to a squarefree pairwise-coprime diagonal ("Legendre") form,
the classical solvability criterion, the smallest point in the Holzer box by
a search of LLL-reduced congruence lattices, the projection parametrization
of a conic from a known point, and the binary quartic composition of a
binary quadratic form with two rows of such a parametrization.
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
    VerificationFailure,
)
from .integers import (
    factorize,
    is_perfect_square,
    primitive_normalize,
    sqrt_mod,
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
    (p0/r0, p1/r1, p2/r2) of the source form.  `odd_primes` holds the odd
    primes of each coefficient, ascending; when it is not given, the
    coefficients are factored here."""

    a: int
    b: int
    c: int
    scales: Triple = (1, 1, 1)
    odd_primes: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        if self.odd_primes is None:
            odd = tuple(
                tuple(p for p in factorize(v).primes() if p != 2) if abs(v) > 2 else ()
                for v in self.coefficients
            )
            object.__setattr__(self, "odd_primes", odd)

    @property
    def coefficients(self) -> Triple:
        return (self.a, self.b, self.c)

    def map_back(self, point: Triple) -> Triple:
        r0, r1, r2 = self.scales
        return primitive_normalize((point[0] * r1 * r2, point[1] * r0 * r2, point[2] * r0 * r1))


def reduced_parities(x: int, y: int, z: int) -> Triple:
    """The Legendre reduction rule on exponent parities: a prime in one
    coefficient stays, a prime in two moves to the third, and a prime in all
    three drops out.  x, y and z are 0/1 parities of one prime, or bitmasks
    holding one prime per bit."""
    return ((x ^ y) & (x ^ z), (y ^ x) & (y ^ z), (z ^ x) & (z ^ y))


def reduce_to_legendre(form: TernaryForm) -> LegendreForm:
    """Rewrite a diagonal form so the three coefficients are squarefree and
    pairwise coprime, in one pass: each coefficient is factored once, the
    square parts go into the scales, and `reduced_parities` applies the
    rule to the odd exponents, one prime per bit: a prime in one coefficient
    stays, a prime in two moves to the third (Cremona & Rusin, Math. Comp.
    72, 2003).  A TernaryForm has no content and, when diagonal, no zero
    coefficient, so no prime is in all three.  Every step substitutes
    X_i -> p*X_i, so the back map is three integer divisors, kept in
    `scales`; the odd primes each reduced coefficient keeps go to
    `odd_primes`, for the criterion."""
    factored = [factorize(c) for c in form.diagonal()]
    reduced = [f.sign for f in factored]
    scales = [1, 1, 1]
    # odd[i] has the bit of each prime with an odd exponent in coefficient i
    odd, bits = [0, 0, 0], {}
    for i, f in enumerate(factored):
        for p, e in f.factors:
            scales[i] *= p ** (e // 2)
            if e & 1:
                odd[i] |= bits.setdefault(p, 1 << len(bits))
    kept = reduced_parities(*odd)
    odd_primes = ([], [], [])
    for p, bit in sorted(bits.items()):
        for i in range(3):
            if kept[i] & bit:
                reduced[i] *= p
                if p != 2:
                    odd_primes[i].append(p)
            elif odd[i] & bit:
                # p moves away from coefficient i: X_i -> p*X_i
                scales[i] *= p
    return LegendreForm(*reduced, tuple(scales), tuple(map(tuple, odd_primes)))


def _local_squares(form: LegendreForm) -> Optional[list[tuple[int, int, int]]]:
    """The local conditions of the criterion below, or None when one fails.
    For each odd prime p of a coefficient a_k, taken for k = 2, 1, 0 with
    i < j the other two indices, -a_i*a_j must be a square modulo p; every
    nonzero such residue is listed as (k, p, -a_i*a_j mod p)."""
    coeffs = form.coefficients
    if all(v > 0 for v in coeffs) or all(v < 0 for v in coeffs):
        return None
    out = []
    for k, i, j in ((2, 0, 1), (1, 0, 2), (0, 1, 2)):
        for p in form.odd_primes[k]:
            x = -coeffs[i] * coeffs[j] % p
            if x:
                if pow(x, (p - 1) // 2, p) != 1:
                    return None
                out.append((k, p, x))
    return out


def legendre_solvable(form: LegendreForm) -> bool:
    """Classical criterion: mixed signs, and -a_i*a_j a residue mod |a_k|
    for every permutation (i, j, k)."""
    return _local_squares(form) is not None


def diagonal_model(form: TernaryForm) -> TernaryForm:
    """The form itself when diagonal; otherwise the cross term is cleared by
    completing the square: 4*a00*F = U^2 + (4*a00*a11 - a01^2)*X1^2 +
    4*a00*a22*X2^2 with U = 2*a00*X0 + a01*X1."""
    if form.is_diagonal:
        return form
    a00, a01, a11, a22 = form.coefficients
    return TernaryForm(1, 0, 4 * a00 * a11 - a01 * a01, 4 * a00 * a22)


# the most points a Holzer box may hold before find_conic_point gives up
MAX_BOX_POINTS = 20_000_000


def find_conic_point(form: TernaryForm) -> Triple:
    """Smallest point on form = 0 under (max-norm, lexicographic) order of the
    reduced diagonal model a*X0^2 + b*X1^2 + c*X2^2, taken over the Holzer
    box |Xi| <= isqrt(|bc|), isqrt(|ac|), isqrt(|ab|) and mapped back to the
    original coordinates.

    The search is the lattice form of Legendre's theorem (Cremona & Rusin,
    Math. Comp. 72, 2003).  a, b and c are squarefree and pairwise coprime,
    so at each odd prime p of a primitive root X1 = r*X2 (mod p) with
    r^2 = -c/b when p | a, and cyclically for b and c; modulo 2 the two
    coordinates beside an even coefficient agree, or X0 + X1 + X2 is even
    when abc is odd.  One choice of roots r per prime gives a lattice of
    index 2*|abc| / gcd(2, abc); every primitive root lies in one of them.
    The box holds about four points of each lattice; a basis LLL-reduced
    in the box's own norm keeps the enumeration, between exact adjugate
    bounds, within a constant factor of that however large the box.  Sign
    changes of X1 and X2 permute the lattices, and the (max-norm,
    lexicographic) smallest root is (-|X0|, -|X1|, -|X2|) of the largest
    absolute pattern at the least max-norm, so one lattice of each sign
    orbit is searched, in a box cut down to the best max-norm so far.  All
    arithmetic is in integers, the basis reduction included, and the result
    is checked on the form, for primitivity and against the box.

    The map back uses the integer divisors of reduce_to_legendre and, for a
    cross term, undoes U = 2*a00*X0 + a01*X1.

    Raises NoSolution when the criterion rules the form out, EffortExhausted
    when the Holzer box holds more than MAX_BOX_POINTS points.  The policy
    counts every point of the box, not the lattice points searched.
    """
    if form.a00 == 0:
        return (1, 0, 0)
    red = reduce_to_legendre(diagonal_model(form))
    conditions = _local_squares(red)
    if conditions is None:
        raise NoSolution(f"{form.coefficients} has no rational points")
    a, b, c = coeffs = red.coefficients
    bounds = (math.isqrt(abs(b * c)), math.isqrt(abs(a * c)), math.isqrt(abs(a * b)))
    volume = math.prod(2 * bound + 1 for bound in bounds)
    if volume > MAX_BOX_POINTS:
        raise EffortExhausted(f"Holzer box of {volume} points exceeds the policy")
    hit = _smallest_root(coeffs, bounds, conditions)
    if hit is None:
        raise NoSolution(f"exhausted Holzer box of {form.coefficients}")
    if (
        a * hit[0] ** 2 + b * hit[1] ** 2 + c * hit[2] ** 2 != 0
        or vector_content(hit) != 1
        or any(abs(x) > bound for x, bound in zip(hit, bounds))
    ):
        raise VerificationFailure(f"{hit} is no primitive root of {coeffs} in the Holzer box")
    u, x1, x2 = red.map_back(hit)
    if form.is_diagonal:
        return (u, x1, x2)
    a00, a01 = form.a00, form.a01
    return primitive_normalize((u - a01 * x1, 2 * a00 * x1, 2 * a00 * x2))


def _smallest_root(
    coeffs: Triple, bounds: Triple, conditions: list[tuple[int, int, int]]
) -> Optional[Triple]:
    # (max-norm, lexicographic) first primitive root in the box, over one
    # congruence lattice per sign orbit of the root choices
    a, b, c = coeffs
    modulus = 2 * math.prod(p for _, p, _ in conditions)
    # modulo 2: X_i = X_j beside an even coefficient, else X0 + X1 + X2 even;
    # modulus // 2 is odd, so it is the CRT idempotent of 2
    base = [v % 2 * (modulus // 2) for v in coeffs]
    # per odd prime p, X_i = r*X_j (mod p) as the form (X_i - r*X_j) times
    # the CRT idempotent of p, for r and for -r
    lifted, flips = [], [0, 0, 0]
    for t, (k, p, x) in enumerate(conditions):
        i, j = (v for v in range(3) if v != k)
        r = sqrt_mod(x, p) * pow(coeffs[i], -1, p) % p
        idem = modulus // p * pow(modulus // p, -1, p)
        pair = []
        for root in (r, p - r):
            form = [0, 0, 0]
            form[i], form[j] = idem, -root * idem
            pair.append(form)
        lifted.append(pair)
        # the sign change of X_m negates r exactly where m is i or j
        flips[i] |= 1 << t
        flips[j] |= 1 << t
    best_key, best = None, None
    for choice in range(1 << len(conditions)):
        if choice != min(choice, choice ^ flips[0], choice ^ flips[1], choice ^ flips[2]):
            continue
        u = base
        for t, pair in enumerate(lifted):
            u = [ui + fi for ui, fi in zip(u, pair[choice >> t & 1])]
        limit = best_key[0] if best_key else max(bounds)
        sides = tuple(min(bound, limit) for bound in bounds)
        for x in _lattice_points([v % modulus for v in u], modulus, sides):
            key = (max(map(abs, x)), -abs(x[0]), -abs(x[1]), -abs(x[2]))
            if best_key is not None and key >= best_key:
                continue
            if a * x[0] * x[0] + b * x[1] * x[1] + c * x[2] * x[2]:
                continue
            if math.gcd(math.gcd(x[0], x[1]), x[2]) != 1:
                continue
            best_key, best = key, x
    if best is None:
        return None
    return (-abs(best[0]), -abs(best[1]), -abs(best[2]))


def _lattice_points(form: list[int], modulus: int, sides: Triple):
    """Every nonzero x with form . x = 0 (mod modulus) and |x_i| <= sides[i],
    one of each pair +-x."""
    basis = _reduce_basis(_kernel_basis(form, modulus), sides)
    v0, v1, v2 = basis
    # x = c0*v0 + c1*v1 + c2*v2 has c_j = x . w_j / det, which bounds c_j
    # on the box through the cofactor rows w_j
    cofactors = (_cross(v1, v2), _cross(v2, v0), _cross(v0, v1))
    det = abs(_dot(v0, cofactors[0]))
    caps = [sum(side * abs(wi) for side, wi in zip(sides, w)) // det for w in cofactors]
    for c2 in range(0, caps[2] + 1):
        for c1 in range(0 if c2 == 0 else -caps[1], caps[1] + 1):
            y = [c2 * e2 + c1 * e1 for e2, e1 in zip(v2, v1)]
            # c0 so that every |y_i + c0*v0_i| <= sides[i]
            lo, hi = -caps[0], caps[0]
            for yi, vi, side in zip(y, v0, sides):
                if vi > 0:
                    lo, hi = max(lo, -((side + yi) // vi)), min(hi, (side - yi) // vi)
                elif vi < 0:
                    lo, hi = max(lo, -((side - yi) // -vi)), min(hi, (side + yi) // -vi)
                elif abs(yi) > side:
                    hi = lo - 1
            if c1 == c2 == 0:
                lo = max(lo, 1)
            for c0 in range(lo, hi + 1):
                yield tuple(yi + c0 * vi for yi, vi in zip(y, v0))


def _kernel_basis(form: list[int], modulus: int) -> list[list[int]]:
    # column Euclid: unimodular column steps leave one nonzero entry g of
    # form, so the lattice is spanned by the other two columns and
    # modulus/gcd(g, modulus) times the pivot column
    cols = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    w = list(form)
    while True:
        live = [i for i in range(3) if w[i]]
        pivot = min(live, key=lambda i: abs(w[i]))
        if len(live) == 1:
            break
        for i in live:
            if i != pivot:
                q = w[i] // w[pivot]
                w[i] -= q * w[pivot]
                cols[i] = [x - q * y for x, y in zip(cols[i], cols[pivot])]
    scale = modulus // math.gcd(w[pivot], modulus)
    return [[scale * x for x in cols[i]] if i == pivot else cols[i] for i in range(3)]


def _reduce_basis(basis: list[list[int]], sides: Triple) -> list[list[int]]:
    """LLL (delta 3/4) of three integer rows in the norm sum((x_i/side_i)^2),
    in integers throughout (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7): the norm is scaled by (side_0*side_1*side_2)^2, and
    d[k + 1] and lam[k][j] are the integral Gram-Schmidt data of row k."""
    scale = math.prod(sides)
    w0, w1, w2 = ((scale // side) ** 2 for side in sides)
    b = [list(v) for v in basis]
    d = [1, 0, 0, 0]
    lam = [[0, 0, 0] for _ in range(3)]
    for k in range(3):
        for j in range(k + 1):
            u = b[k][0] * b[j][0] * w0 + b[k][1] * b[j][1] * w1 + b[k][2] * b[j][2] * w2
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u

    def size_reduce(k, j):
        if 2 * abs(lam[k][j]) > d[j + 1]:
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            lam[k][j] -= q * d[j + 1]
            for i in range(j):
                lam[k][i] -= q * lam[j][i]

    k = 1
    while k < 3:
        size_reduce(k, k - 1)
        m = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * m * m:
            b[k - 1], b[k] = b[k], b[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            swapped = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, 3):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (swapped * t + m * lam[i][k]) // d[k + 1]
            d[k] = swapped
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
    return b


def _cross(u, v) -> list[int]:
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


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
    source: TernaryForm

    def __call__(self, s: int, t: int) -> Triple:
        return tuple(r[0] * s * s + r[1] * s * t + r[2] * t * t for r in self.rows)

    def column(self, j: int) -> Triple:
        return tuple(r[j] for r in self.rows)

    def composed_with_source(self) -> tuple[int, int, int, int, int]:
        """Coefficients of source(row0, row1, row2) as a quartic in (s, t);
        all five vanish exactly when this is a genuine parametrization."""
        f = self.source
        quartic = compose_quartic((f.a00, f.a01, f.a11), self)
        last = _binary_mul(self.rows[2], self.rows[2])
        return tuple(c + f.a22 * v for c, v in zip(quartic, last))

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
    param = ConicParametrization(canon, form)
    if not param.is_valid():
        raise VerificationFailure(f"parametrization from {base} misses {form.coefficients}")
    return param


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

