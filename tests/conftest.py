import math
import random
from fractions import Fraction

import pytest

from concordant.descent import (
    DescentTriplet,
    SquareClasses,
    build_homogeneous_space,
    descent_generators,
    lift_solution,
    local_class,
    local_image,
    torsion_columns,
    torsion_value_table,
)
from concordant.errors import (
    DegenerateForm,
    DegenerateKernel,
    EffortExhausted,
    FactorizationIncomplete,
    NoSolution,
)
from concordant.integers import (
    factorize,
    is_perfect_square,
    primitive_normalize,
    shell_pairs,
    squarefree_part,
)
from concordant.quadforms import (
    LegendreForm,
    TernaryForm,
    diagonal_model,
    legendre_solvable,
    reduce_to_legendre,
)
from concordant.solver import strong_solve


def brute_legendre_solvable(a: int, b: int, c: int) -> bool:
    """Exhaustive search inside the (inclusive) Holzer box; complete for
    reduced diagonal forms because a solvable form has a solution there."""
    if (a > 0 and b > 0 and c > 0) or (a < 0 and b < 0 and c < 0):
        return False
    bounds = [
        math.isqrt(abs(b * c)),
        math.isqrt(abs(a * c)),
        math.isqrt(abs(a * b)),
    ]
    coeffs = [a, b, c]
    # search over the two smallest boxes, solve for the third coordinate
    order = sorted(range(3), key=lambda i: bounds[i])
    i, j, k = order
    for xi in range(0, bounds[i] + 1):
        ti = coeffs[i] * xi * xi
        for xj in range(-bounds[j], bounds[j] + 1):
            t = ti + coeffs[j] * xj * xj
            if t % coeffs[k]:
                continue
            v = -t // coeffs[k]
            if v < 0:
                continue
            r = math.isqrt(v)
            if r * r == v and (xi, xj, r) != (0, 0, 0):
                return True
    return False


_FRACTION_IDENT = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))


def oracle_map_back(mat, point):
    """Apply a rational 3x3 matrix and return the primitive integer point."""
    vec = [sum(row[j] * point[j] for j in range(3)) for row in mat]
    lcm = 1
    for f in vec:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    return primitive_normalize(tuple(int(f * lcm) for f in vec))


def oracle_reduce_to_legendre(form: TernaryForm):
    """Legendre reduction that carries the back map as a 3x3 Fraction matrix,
    one diagonal rescaling matrix product per rewrite.  Returns the reduced
    coefficients and the matrix."""

    def mat_mul(m, n):
        return tuple(
            tuple(sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3)) for i in range(3)
        )

    def scale_col(mat, j, factor):
        scale = [[Fraction(int(i == k)) for k in range(3)] for i in range(3)]
        scale[j][j] = Fraction(1, factor)
        return mat_mul(mat, tuple(tuple(r) for r in scale))

    coeffs = list(form.diagonal())
    back = _FRACTION_IDENT
    while True:
        g = math.gcd(math.gcd(coeffs[0], coeffs[1]), coeffs[2])
        if g > 1:
            coeffs = [c // g for c in coeffs]
            continue
        changed = False
        for i in range(3):
            s, r = squarefree_part(coeffs[i])
            if r > 1:
                coeffs[i] = s
                back = scale_col(back, i, r)
                changed = True
        if changed:
            continue
        for i in range(3):
            for j in range(i + 1, 3):
                g = math.gcd(coeffs[i], coeffs[j])
                if g > 1:
                    p = factorize(g).factors[0][0]
                    coeffs[i] //= p
                    coeffs[j] //= p
                    coeffs[3 - i - j] *= p
                    back = scale_col(back, i, p)
                    back = scale_col(back, j, p)
                    changed = True
                    break
            if changed:
                break
        if not changed:
            return tuple(coeffs), back


def _oracle_scan_shell(coeffs, bounds, m):
    # loops over all three coordinates of the shell: O(m^2) per shell
    a, b, c = coeffs
    b0, b1, b2 = bounds
    for x0 in range(max(-b0, -m), min(b0, m) + 1):
        edge0 = abs(x0) == m
        t0 = a * x0 * x0
        for x1 in range(max(-b1, -m), min(b1, m) + 1):
            edge1 = edge0 or abs(x1) == m
            t1 = t0 + b * x1 * x1
            if edge1:
                x2_range = range(max(-b2, -m), min(b2, m) + 1)
            elif b2 < m:
                continue
            else:
                x2_range = (-m, m)
            for x2 in x2_range:
                if t1 + c * x2 * x2 == 0 and math.gcd(math.gcd(x0, x1), x2) == 1:
                    return (x0, x1, x2)
    return None


def oracle_find_conic_point(form: TernaryForm, max_evaluations: int = 20_000_000):
    """find_conic_point with a cubic shell scan over the whole Holzer box and
    the Fraction back maps: the reference for the integer conic layer."""
    if form.a00 == 0:
        return (1, 0, 0)
    if form.is_diagonal:
        unmix = _FRACTION_IDENT
    else:
        a00, a01 = form.a00, form.a01
        unmix = (
            (Fraction(1, 2 * a00), Fraction(-a01, 2 * a00), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        )
    coeffs, back = oracle_reduce_to_legendre(diagonal_model(form))
    if not legendre_solvable(LegendreForm(*coeffs)):
        raise NoSolution(f"{form.coefficients} has no rational points")
    a, b, c = coeffs
    bounds = (math.isqrt(abs(b * c)), math.isqrt(abs(a * c)), math.isqrt(abs(a * b)))
    volume = (2 * bounds[0] + 1) * (2 * bounds[1] + 1) * (2 * bounds[2] + 1)
    if volume > max_evaluations:
        raise EffortExhausted(f"Holzer box of {volume} points exceeds the policy")
    for m in range(1, max(bounds) + 1):
        hit = _oracle_scan_shell(coeffs, bounds, m)
        if hit is not None:
            return oracle_map_back(unmix, oracle_map_back(back, hit))
    raise NoSolution(f"exhausted Holzer box of {form.coefficients}")


def _oracle_roots(t, coef, limit):
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


def _oracle_solved_shell(coeffs, bounds, m):
    # lexicographically first primitive root on the max-norm-m shell of the
    # Holzer box; one coordinate is solved for, so O(m) steps per shell
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
                for x2 in _oracle_roots(t0 + b * x1 * x1, c, lim2)
            ]
        else:
            # max(|x1|, |x2|) == m: the x1 = +-m edges, then x2 = +-m, |x1| < m
            roots = []
            if m <= b1:
                x2s = _oracle_roots(t0 + bm, c, lim2)
                roots += [(x1, x2) for x1 in (-m, m) for x2 in x2s]
            if m <= b2:
                x1s = _oracle_roots(t0 + cm, b, min(b1, m - 1))
                roots += [(x1, x2) for x2 in (-m, m) for x1 in x1s]
        for x1, x2 in sorted(roots):
            if math.gcd(math.gcd(x0, x1), x2) == 1:
                return (x0, x1, x2)
    return None


def oracle_shell_find_conic_point(form: TernaryForm, max_evaluations: int = 20_000_000):
    """The shell-by-shell search the lattice search replaced: each max-norm
    shell of the Holzer box in O(m) integer steps, O(B^2) for a box of side
    B, with the integer back maps.  Quick enough for the conics the solver
    meets on the large-k pool, where the cubic oracle is not."""
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
        hit = _oracle_solved_shell(red.coefficients, bounds, m)
        if hit is not None:
            u, x1, x2 = red.map_back(hit)
            if form.is_diagonal:
                return (u, x1, x2)
            a00, a01 = form.a00, form.a01
            return primitive_normalize((u - a01 * x1, 2 * a00 * x1, 2 * a00 * x2))
    raise NoSolution(f"exhausted Holzer box of {form.coefficients}")


def oracle_parameter_shrink(rows, sq_col):
    """The trial-division loop _parameter_shrink replaced; it runs k up to
    the cross content, so keep that content small."""
    gsq = math.gcd(*(r[sq_col] for r in rows))
    gcross = math.gcd(*(r[1] for r in rows))
    d, k = 1, 2
    while k * k <= gsq or (gcross and k <= gcross):
        while gsq % (k * k) == 0 and gcross % k == 0:
            d *= k
            gsq //= k * k
            gcross //= k
        k += 1
    return d


def oracle_scan_quartic(coeffs, mu, pairs, offset=0):
    """The per-pair quartic loop the scan kernel replaced: first (index, s, t,
    sigma) in `pairs` with mu*f(s, t) a nonzero square, f(s, t) = mu*sigma^2."""
    b40, b31, b22, b13, b04 = coeffs
    for i, (s, t) in enumerate(pairs):
        val = b40 * s**4 + b31 * s**3 * t + b22 * s**2 * t**2 + b13 * s * t**3 + b04 * t**4
        if val == 0:
            continue
        root = is_perfect_square(mu * val)
        if root is None:
            continue
        return (offset + i, s, t, root // abs(mu))
    return None


def oracle_scan_weak(rows, b00, b11, b33, skip_zero, pairs, offset=0):
    """The per-pair weak loop the scan kernel replaced: first pair where
    -b33*(b00*F0^2 + b11*F1^2) is a nonzero square, optionally skipping pairs
    where some F_i vanishes."""
    for i, (s, t) in enumerate(pairs):
        f = [r[0] * s * s + r[1] * s * t + r[2] * t * t for r in rows]
        value = -b33 * (b00 * f[0] * f[0] + b11 * f[1] * f[1])
        if value == 0:
            continue
        root = is_perfect_square(value)
        if root is None:
            continue
        if skip_zero and 0 in f:
            continue
        return (offset + i, s, t, root)
    return None


def oracle_final_search(quartics_mus, cap):
    """The serial round-robin loop over shell_pairs: shell r of quartic i
    follows shell r of quartics 0..i-1.  Returns (quartic index, (s, t),
    sigma, pairs tested) or None."""
    offset = 0
    for r in range(1, cap + 1):
        pairs = shell_pairs(r)
        for qi, (quartic, mu) in enumerate(quartics_mus):
            hit = oracle_scan_quartic(quartic, mu, pairs, offset)
            if hit is not None:
                return qi, (hit[1], hit[2]), hit[3], hit[0] + 1
            offset += len(pairs)
    return None


def oracle_search_curve(curve, triplets, ladder, pins=None):
    """The class x cap-ladder loop that resumed searches replaced: every
    rung searches each class afresh with one strong_solve from radius 1.
    Returns (triplet, outcome, point), the point lifted to the curve, or
    raises the last EffortExhausted."""
    for cap in ladder:
        for t in triplets:
            space = build_homogeneous_space(t, curve.m, curve.n)
            try:
                outcome = strong_solve(space, cap, pins=pins)
            except EffortExhausted as exc:
                last = exc
                continue
            except (NoSolution, DegenerateKernel, FactorizationIncomplete) as exc:
                last = EffortExhausted(f"{t.as_tuple()}: {exc}")
                continue
            return t, outcome, lift_solution(t, curve.m, curve.n, outcome.space_solution)
    raise last


def oracle_coprime_pattern_ok(psi, mu: int) -> bool:
    """The square-factor pattern test on unit pairs: at each odd prime p of
    mu, both rows must vanish mod p at some (a, b) with a, b prime to p; for
    even mu, both rows must take a value mu*s^2 mod 16 at odd (a, b)."""
    if abs(mu) == 1:
        return True
    for p in factorize(abs(mu)).primes():
        for i in (0, 1):
            r = psi.rows[i]
            if p == 2:
                targets = {(mu * s * s) % 16 for s in range(16)}
                if not any(
                    (r[0] * a * a + r[1] * a * b + r[2] * b * b) % 16 in targets
                    for a in range(1, 16, 2)
                    for b in range(1, 16, 2)
                ):
                    return False
            else:
                if not any(
                    (r[0] * a * a + r[1] * a * b + r[2] * b * b) % p == 0
                    for a in range(1, p)
                    for b in range(1, p)
                ):
                    return False
    return True


def oracle_rows_solvable(psi, mu: int) -> bool:
    """The square-factor solvability test the parity table replaced: each
    row conic row_i(Z0, Z1) = mu*Z2^2 is built, completed to a diagonal
    form, reduced and put to the criterion on its own."""
    for i in (0, 1):
        try:
            form = TernaryForm(*psi.rows[i], -mu)
        except DegenerateForm:
            return False
        if not legendre_solvable(reduce_to_legendre(diagonal_model(form))):
            return False
    return True


def oracle_triplet_solvable(t, m: int, n: int) -> tuple[bool, str]:
    """The per-triplet filter the Legendre-symbol table replaced: build the
    four quadrics, reduce each and apply the criterion to the reduced form."""
    space = build_homogeneous_space(t, m, n)
    for name, form, _ in space.quadrics():
        reduced = reduce_to_legendre(form)
        if not legendre_solvable(reduced):
            return False, f"{name} reduces to {reduced.coefficients}: criterion fails"
    return True, "all four quadrics pass the criterion"


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def oracle_local_point(t, m: int, n: int, p: int) -> bool:
    """Whether the homogeneous space of t, A*a^2 = B*b^2 + m*d^2 and
    C*c^2 = B*b^2 + n*d^2, has a solution modulo p^e with not all of a, b,
    c, d divisible by p, by brute force over (b, d) with the values A*a^2
    and C*c^2 taken from residue sets.  A point over Q_p reduces to such a
    solution for every e, so False proves there is none; e is v + 4 at 2
    and v + 2 at an odd p, v the largest valuation of m, n and m - n.
    A and C are squarefree, so p | b and p | d force p | a and p | c: a
    primitive solution has b or d prime to p, and scaling by a unit makes
    that one 1."""
    v = max(_valuation(x, p) for x in (m, n, m - n))
    mod = p ** (v + (4 if p == 2 else 2))
    a, b, c = t.as_tuple()
    a_values = {a * x * x % mod for x in range(mod)}
    c_values = {c * x * x % mod for x in range(mod)}
    pairs = [(1, d) for d in range(mod)] + [(y, 1) for y in range(0, mod, p)]
    return any(
        (b * y * y + m * d * d) % mod in a_values and (b * y * y + n * d * d) % mod in c_values
        for y, d in pairs
    )


def oracle_obstructions(p: int, q: int, k: int, triplets) -> list[list[int]]:
    """The mask test the span reduction replaced: for each triplet, the
    primes, ascending, over which its class has no point.  A filled local
    image W is the common kernel of the linear forms h on pairs of local
    classes with h . w = 0 for all w in W; W is spanned by `local_image`'s
    basis and the 2-torsion columns of `torsion_value_table`, and it has
    2^w - 1 such forms exactly when those columns lie in the basis's span.
    Each generator's local class is tabulated once, so a form becomes one
    mask on the exponent vector of A and one on that of B."""
    generators = descent_generators(p, q, k)
    squares = SquareClasses(generators)
    columns = torsion_columns(torsion_value_table(p, q, k))
    conditions = {}
    for ell in generators:
        if ell < 2:
            continue
        basis = local_image(ell, p * k, -q * k)
        if basis is None:
            continue
        width = 3 if ell == 2 else 2
        span = basis + [local_class(c0, ell) | local_class(c1, ell) << width for c0, c1, _ in columns]
        classes = [local_class(g, ell) for g in generators]

        def mask(h: int) -> int:
            # generator bits whose local class h pairs to 1
            return sum(1 << i for i, c in enumerate(classes) if (h & c).bit_count() & 1)

        conditions[ell] = [
            (mask(h & (1 << width) - 1), mask(h >> width))
            for h in range(1, 1 << 2 * width)
            if not any((h & w).bit_count() & 1 for w in span)
        ]
        assert len(conditions[ell]) == 2**width - 1, (p, q, k, ell)
    out = []
    for t in triplets:
        va, vb = squares.vector(t.a), squares.vector(t.b)
        out.append(
            [
                ell
                for ell, forms in conditions.items()
                if any(((va & ma).bit_count() ^ (vb & mb).bit_count()) & 1 for ma, mb in forms)
            ]
        )
    return out


def oracle_torsion_equivalence_classes(triplets, table):
    """The orbit loop the exponent-vector orbits replaced: each image built
    through DescentTriplet.act, which checks its square product."""
    columns = torsion_columns(table)
    seen = set()
    classes = []
    for t in sorted(triplets, key=DescentTriplet.sort_key):
        if t in seen:
            continue
        orbit = {t}
        for col in columns:
            orbit.add(t.act(col))
        seen |= orbit
        classes.append(sorted(orbit, key=DescentTriplet.sort_key))
    return classes


def oracle_is_torsion(curve, p, max_order: int = 12) -> bool:
    """The group-law loop the Lutz-Nagell early exit replaced: p is torsion
    iff one of p, 2p, ..., max_order*p is the identity, each sum through the
    checked public add."""
    acc = p
    for _ in range(max_order):
        if acc.is_infinity:
            return True
        acc = curve.add(acc, p)
    return False


def random_solvable_form(rng: random.Random, with_cross=True, coeff_bound=9):
    """Plant a point: pick a base and three coefficients, solve for the
    fourth so the base lies on the conic."""
    while True:
        x0 = rng.randint(-4, 4)
        x1 = rng.randint(-4, 4)
        a00 = rng.randint(-coeff_bound, coeff_bound)
        a01 = rng.randint(-coeff_bound, coeff_bound) if with_cross else 0
        a11 = rng.randint(-coeff_bound, coeff_bound)
        a22 = -(a00 * x0 * x0 + a01 * x0 * x1 + a11 * x1 * x1)
        base = (x0, x1, 1)
        try:
            form = TernaryForm(a00, a01, a11, a22)
        except Exception:
            continue
        g = math.gcd(math.gcd(a00, a01), math.gcd(a11, a22))
        scaled = (x0, x1, 1)
        # the constructor may divide content; the base stays on the conic
        if form(*scaled) != 0:
            continue
        return form, base


def random_degenerate_base_form(rng: random.Random, coeff_bound=9):
    """A form with a planted point whose last coordinate is zero (exercises
    the alternate projection formula)."""
    while True:
        x0 = rng.randint(-4, 4)
        a00 = rng.randint(-coeff_bound, coeff_bound)
        a01 = rng.randint(-coeff_bound, coeff_bound)
        a11 = -(a00 * x0 * x0 + a01 * x0)
        a22 = rng.choice([v for v in range(-coeff_bound, coeff_bound + 1) if v])
        try:
            form = TernaryForm(a00, a01, a11, a22)
        except Exception:
            continue
        if form(x0, 1, 0) != 0:
            continue
        return form, (x0, 1, 0)


def random_curve_with_point(rng: random.Random):
    """A random curve of the right shape together with a rational point on
    it, built by solving for the second coefficient and clearing squares."""
    from fractions import Fraction

    from concordant.curves import ConcordantCurve, CurvePoint

    while True:
        x = Fraction(rng.randint(1, 30), rng.randint(1, 6))
        y = Fraction(rng.randint(1, 40), 1)
        m = rng.randint(1, 20)
        if x == 0 or x + m == 0:
            continue
        n = y * y / (x * (x + m)) - x
        if n == 0 or n == m:
            continue
        d = n.denominator
        nn = n * d * d
        if nn.denominator != 1:
            continue
        mm, nn = m * d * d, int(nn)
        if mm == nn or nn == 0:
            continue
        curve = ConcordantCurve(mm, nn)
        point = CurvePoint.affine(x * d * d, y * d * d * d)
        assert curve.contains(point)
        return curve, point


@pytest.fixture(scope="session", autouse=True)
def _warm_factor_table():
    # the smallest-prime-factor sieve is built lazily on first use; pay that
    # one-time cost here so per-case timing assertions measure real work
    from concordant.integers import squarefree_part

    squarefree_part(2 * 3 * 5 * 7 * 7)


@pytest.fixture
def rng():
    return random.Random(20260808)
