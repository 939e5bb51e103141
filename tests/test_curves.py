import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import oracle_is_torsion

from concordant.curves import ConcordantCurve, CurvePoint, log_height, point_log_height
from concordant.errors import InvalidArgument, NotNormalized
from concordant.integers import factorize

ZAGIER_157 = CurvePoint.affine(
    Fraction(-166136231668185267540804, 2825630694251145858025),
    Fraction(
        167661624456834335404812111469782006, 150201095200135518108761470235125
    ),
)

POINT_142 = CurvePoint.affine(
    Fraction(5148885426098, 2729122081),
    Fraction(10659946547134851840, 142572066633521),
)

# published component order lists the negative-root slot before the
# positive-root slot; the quadric model uses the opposite order
QUAD_142 = (
    -1685098252492020382767601,
    69610783446108974371680,
    -880513748494434998396401,
    -1878201269026558326761999,
)

TRANSLATES_142 = [
    (
        Fraction(-82545026461926, 2574442713049),
        Fraction(5248834080776243516160, 4130711354186111843),
    ),
    (
        Fraction(294814405555200, 498284927449),
        Fraction(2982672665844557232960, 351735842291756957),
    ),
    (
        Fraction(-35378229848879, 346026297600),
        Fraction(298269379294025686631, 203546509300224000),
    ),
]


class TestCurveAndMembership:
    def test_construction_guards(self):
        with pytest.raises(InvalidArgument):
            ConcordantCurve(0, 5)
        with pytest.raises(InvalidArgument):
            ConcordantCurve(5, 5)

    def test_pqk_decomposition(self):
        assert ConcordantCurve(142, -426).pqk() == (1, 3, 142)
        assert ConcordantCurve.from_pqk(1, 3, 142).m == 142
        with pytest.raises(NotNormalized):
            ConcordantCurve(-5, 5).pqk()
        with pytest.raises(NotNormalized):
            ConcordantCurve(4, -4).pqk()  # gcd is not squarefree

    def test_membership_examples(self):
        assert ConcordantCurve(23, -69).contains(CurvePoint.affine(75, 210))
        assert ConcordantCurve(157, -157).contains(ZAGIER_157)
        assert ConcordantCurve(7, -3).contains(CurvePoint.affine(0, 0))
        assert not ConcordantCurve(7, -3).contains(CurvePoint.affine(1, 1))


class TestGroupLaw:
    def test_identity(self):
        c = ConcordantCurve(23, -69)
        p = CurvePoint.affine(75, 210)
        assert c.add(p, CurvePoint.infinity()) == p
        assert c.add(CurvePoint.infinity(), p) == p

    def test_two_torsion_doubles_to_identity(self):
        c = ConcordantCurve(142, -426)
        pts = c.two_torsion()
        assert pts[1:] == (
            CurvePoint.affine(0, 0),
            CurvePoint.affine(-142, 0),
            CurvePoint.affine(426, 0),
        )
        for t in pts:
            assert c.add(t, t).is_infinity
        assert len(set(pts)) == 4

    def test_torsion_subgroup_closed(self):
        c = ConcordantCurve(15, -7)
        pts = c.two_torsion()
        for a in pts:
            for b in pts:
                assert c.add(a, b) in pts

    def test_inverse(self):
        c = ConcordantCurve(23, -69)
        p = CurvePoint.affine(75, 210)
        assert c.add(p, p.negate()).is_infinity

    def test_commutative_and_associative_sample(self, rng):
        for _ in range(12):
            c, p = _random_curve_point(rng)
            t = c.two_torsion()
            a = p
            b = c.add(p, t[rng.randrange(4)])
            d = c.add(c.multiply(2, p), t[rng.randrange(4)])
            assert c.add(a, b) == c.add(b, a)
            assert c.add(c.add(a, b), d) == c.add(a, c.add(b, d))

    def test_off_curve_rejected(self):
        c = ConcordantCurve(23, -69)
        with pytest.raises(InvalidArgument):
            c.add(CurvePoint.affine(1, 1), CurvePoint.infinity())
        # every public entry checks its point before any shortcut
        for bad in (CurvePoint.affine(1, 1), CurvePoint.affine(Fraction(1, 2), 1)):
            with pytest.raises(InvalidArgument):
                c.is_torsion(bad)
            with pytest.raises(InvalidArgument):
                c.multiply(0, bad)
            with pytest.raises(InvalidArgument):
                c.multiply(-3, bad)
            with pytest.raises(InvalidArgument):
                c.torsion_translates(bad)

    def test_torsion_detection(self):
        c = ConcordantCurve(23, -69)
        assert c.is_torsion(CurvePoint.affine(0, 0))
        assert not c.is_torsion(CurvePoint.affine(75, 210))


def _divisors(n):
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p**i for d in out for i in range(e + 1)]
    return out


def _lutz_nagell_candidates(c):
    """Infinity and every integral point with y = 0 or y^2 dividing the
    discriminant (m*n*(m-n))^2: a superset of the torsion subgroup by
    Lutz-Nagell.  x divides y^2 because the cubic has no constant term."""
    pts = set(c.two_torsion())
    for y in _divisors(abs(c.m * c.n * (c.m - c.n))):
        for d in _divisors(y * y):
            for x in (d, -d):
                if c.rhs(x) == y * y:
                    pts.update((CurvePoint.affine(x, y), CurvePoint.affine(x, -y)))
    return pts


def _order(c, p):
    acc, k = p, 1
    while not acc.is_infinity:
        acc, k = c.add(acc, p), k + 1
    return k


class TestTorsionAgainstLoop:
    """is_torsion (Lutz-Nagell early exit) against the plain 12-step loop."""

    @pytest.mark.parametrize(
        "m, n, orders",
        [
            # Z/2 x Z/8, with (-216, 1080) of order 8
            (81, 256, {1: 1, 2: 3, 4: 4, 8: 8}),
            # Z/2 x Z/6
            (-32, -27, {1: 1, 2: 3, 3: 2, 6: 6}),
            # Z/2 x Z/4
            (-49, -48, {1: 1, 2: 3, 4: 4}),
            # Z/2 x Z/2
            (23, -69, {1: 1, 2: 3}),
        ],
    )
    def test_full_torsion_subgroup(self, m, n, orders):
        c = ConcordantCurve(m, n)
        candidates = _lutz_nagell_candidates(c)
        torsion = {p for p in candidates if oracle_is_torsion(c, p)}
        assert Counter(_order(c, p) for p in torsion) == orders
        for p in candidates:
            assert c.is_torsion(p) == oracle_is_torsion(c, p)

    @pytest.mark.parametrize(
        "m, n, base, oracle_up_to",
        # the loop runs to 12*p: from 6*POINT_142 that is 72*POINT_142, with
        # 245 000-bit denominators and about 18 s per multiple, so the
        # oracle stops at 3*POINT_142 (61 000 bits)
        [(23, -69, CurvePoint.affine(75, 210), 6), (142, -426, POINT_142, 3)],
    )
    def test_small_multiples_plus_two_torsion(self, m, n, base, oracle_up_to):
        c = ConcordantCurve(m, n)
        for k in range(1, 7):
            kp = c.multiply(k, base)
            for t in c.two_torsion():
                p = c.add(kp, t)
                assert not c.is_torsion(p)
                if k <= oracle_up_to:
                    assert not oracle_is_torsion(c, p)

    def test_random_points(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.integers(0, 2**32), st.integers(0, 3))
        def check(seed, i):
            c, p = _random_curve_point(random.Random(seed))
            p = c.add(p, c.two_torsion()[i])
            assert c.is_torsion(p) == oracle_is_torsion(c, p)

        check()


def _random_curve_point(rng):
    # build a curve through a chosen rational point by solving for n, then
    # clearing denominators
    while True:
        x = Fraction(rng.randint(1, 30), rng.randint(1, 6))
        y = Fraction(rng.randint(1, 40), 1)
        m = rng.randint(1, 20)
        if x == 0 or x + m == 0:
            continue
        n = y * y / (x * (x + m)) - x
        if n == 0 or n == m or n.denominator == 0:
            continue
        d = n.denominator
        mm, nn = m * d * d, n * d * d
        if nn.denominator != 1:
            continue
        mm, nn = int(mm), int(nn)
        if mm == nn or nn == 0:
            continue
        c = ConcordantCurve(mm, nn)
        p = CurvePoint.affine(x * d * d, y * d * d * d)
        assert c.contains(p)
        return c, p


class TestQuadricTransfer:
    def test_trivial_solution_to_infinity(self):
        c = ConcordantCurve(23, -69)
        assert c.from_quadric((1, 0, 1, 1)).is_infinity

    def test_trivial_solutions_to_torsion(self):
        c = ConcordantCurve(23, -69)
        assert c.from_quadric((1, 0, 1, -1)) == CurvePoint.affine(69, 0)
        assert c.from_quadric((1, 0, -1, 1)) == CurvePoint.affine(-23, 0)
        assert c.from_quadric((1, 0, -1, -1)) == CurvePoint.affine(0, 0)

    def test_torsion_to_trivial_solutions(self):
        c = ConcordantCurve(23, -69)
        for t in c.two_torsion():
            quad = c.to_quadric(t)
            assert tuple(abs(v) for v in quad) == (1, 0, 1, 1)

    def test_off_quadric_rejected(self):
        with pytest.raises(InvalidArgument):
            ConcordantCurve(23, -69).from_quadric((1, 1, 1, 1))

    def test_published_point_and_quadruple_correspond(self):
        c = ConcordantCurve(142, -426)
        quad = c.to_quadric(POINT_142)
        assert tuple(abs(v) for v in quad) == (
            abs(QUAD_142[0]),
            abs(QUAD_142[1]),
            abs(QUAD_142[3]),
            abs(QUAD_142[2]),
        )
        back = c.from_quadric(quad)
        orbit = {pt for pt in c.torsion_translates(POINT_142)}
        assert back in orbit

    def test_round_trips(self, rng):
        c = ConcordantCurve(23, -69)
        p = CurvePoint.affine(75, 210)
        samples = [p, c.add(p, c.two_torsion()[1]), c.multiply(2, p)]
        for _ in range(8):
            cc, pt = _random_curve_point(rng)
            samples.append(pt)
            samples.append(cc.add(pt, cc.two_torsion()[2]))
            break
        for pt in (p, *samples[:3]):
            q = c.to_quadric(pt)
            assert c.from_quadric(q) == pt
        for _ in range(20):
            cc, pt = _random_curve_point(rng)
            q = cc.to_quadric(pt)
            assert cc.on_quadrics(q)
            assert cc.from_quadric(q) == pt

    def test_torsion_translates_published(self):
        c = ConcordantCurve(142, -426)
        pts = c.torsion_translates(POINT_142)
        assert len(pts) == 8
        assert len(set(pts)) == 8  # all distinct for a non-torsion point
        xs = {p.x for p in pts}
        for x, y in TRANSLATES_142:
            assert x in xs
            assert any(p.x == x and abs(p.y) == y for p in pts)
        again = set()
        for p in pts:
            again.update(c.torsion_translates(p))
        assert set(pts) <= again
        for p in pts:
            assert c.contains(p)


class TestHeights:
    def test_published_heights(self):
        assert abs(log_height(QUAD_142) - 24.27) < 0.005
        assert log_height((0, 0, 1)) == 0.0
        big = (
            6464736286838262275566375140640125524476830394378258160144359151221846588162921,
            214402886988423616335778394508029972671920911384749815755228436417174376951980,
            7677180621382399924131415436519959747090354653821331133153517438341892919535729,
            4964526988887992094202607668810309975770378526931158358479760499172740751760929,
        )
        assert abs(log_height(big) - 78.885) < 0.005

    def test_point_height(self):
        assert point_log_height(CurvePoint.infinity()) == 0.0
        assert point_log_height(CurvePoint.affine(75, 210)) > 2


class TestSquareClasses:
    def test_descent_values_at_torsion(self):
        c = ConcordantCurve(5, -5)
        assert c.square_classes(CurvePoint.infinity()) == (1, 1, 1)
        assert c.square_classes(CurvePoint.affine(0, 0)) == (5, -1, -5)

    def test_descent_values_match_triplet(self):
        c = ConcordantCurve(5, -5)
        assert c.square_classes(CurvePoint.affine(-4, 6)) == (1, -1, -1)
        assert c.square_classes(CurvePoint.affine(Fraction(25, 4), Fraction(75, 8))) == (
            5,
            1,
            5,
        )
