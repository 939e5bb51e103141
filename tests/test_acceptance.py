"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured runtime.  Two sub-criteria assert survivor lists that are
provably overstated (the excluded triplets force impossible congruences, see
the repository notes); they are implemented as stated and marked strict
expected-failures rather than weakened.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import (
    act,
    brute_legendre_solvable,
    oracle_torsion_value_table,
    random_curve_with_point,
    random_solvable_form,
    torsion_columns,
)

from concordant.cli import run_classify, run_reproduce, run_series, run_solve
from concordant.curves import ConcordantCurve, CurvePoint
from concordant.descent import (
    DescentTriplet,
    build_homogeneous_space,
    classify,
    lift_solution,
)
from concordant.errors import ConditionFailure, EffortExhausted
from concordant.fixtures import load_fixture
from concordant.integers import primitive_normalize, squarefree_part
from concordant.quadforms import LegendreForm, TernaryForm, legendre_solvable, parametrize_conic
from concordant.solver import (
    select_equation_pair,
    solution_in_space_order,
    strong_solve,
    weak_pair,
    weak_solve,
)


def _orbit(p, q, k, triplet):
    table = oracle_torsion_value_table(p, q, k)
    t = DescentTriplet(*triplet)
    members = {t.as_tuple()}
    for col in torsion_columns(table):
        members.add(act(t, col).as_tuple())
    return frozenset(members)


def _survivor_orbits(p, q, k):
    cls = classify(p, q, k)
    return {
        frozenset(t.as_tuple() for t in c["members"]) for c in cls.surviving_classes
    }


def _report(criterion, elapsed, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s) {detail}")


# -- criterion 1 -------------------------------------------------------------

@pytest.mark.parametrize("k", [5, 13, 29, 37, 53, 61])
def test_criterion_01_congruent_prime_classification(k):
    start = time.perf_counter()
    survivors = _survivor_orbits(1, 1, k)
    expected = frozenset({(1, -1, -1), (2, k, 2 * k), (k, 1, k), (2 * k, -k, -2)})
    elapsed = time.perf_counter() - start
    assert survivors == {expected}
    assert elapsed < 1.0
    _report(f"1[k={k}]", elapsed)


# -- criterion 2 -------------------------------------------------------------

@pytest.mark.parametrize("l", [3, 11, 19])
@pytest.mark.xfail(
    strict=True,
    reason="the (2,-2,-1) class is provably empty for l = 3 mod 8 "
    "(x+2l = 2a^2, x = -2b^2 force l = a^2 + b^2, so -1 must be a residue "
    "mod l); the documented survivor list overstates - see notes",
)
def test_criterion_02_twice_prime_3mod8(l):
    survivors = _survivor_orbits(1, 1, 2 * l)
    expected = {_orbit(1, 1, 2 * l, (1, -2, -2)), _orbit(1, 1, 2 * l, (2, -2, -1))}
    assert survivors == expected


@pytest.mark.parametrize("l", [3, 11, 19])
def test_criterion_02_twice_prime_3mod8_confirmed_part(l):
    # the class that actually carries points is reported, and nothing beyond
    # the two documented candidates ever survives
    start = time.perf_counter()
    survivors = _survivor_orbits(1, 1, 2 * l)
    allowed = {_orbit(1, 1, 2 * l, (1, -2, -2)), _orbit(1, 1, 2 * l, (2, -2, -1))}
    elapsed = time.perf_counter() - start
    assert _orbit(1, 1, 2 * l, (1, -2, -2)) in survivors
    assert survivors <= allowed
    assert elapsed < 1.0
    _report(f"2[l={l} (3 mod 8), confirmed part]", elapsed)


@pytest.mark.parametrize("l", [7, 23, 31])
def test_criterion_02_twice_prime_7mod8(l):
    start = time.perf_counter()
    survivors = _survivor_orbits(1, 1, 2 * l)
    expected = {
        _orbit(1, 1, 2 * l, (1, 2, 2)),
        _orbit(1, 1, 2 * l, (2, 1, 2)),
        _orbit(1, 1, 2 * l, (2, 2, 1)),
    }
    elapsed = time.perf_counter() - start
    assert survivors == expected
    assert elapsed < 1.0
    _report(f"2[l={l} (7 mod 8)]", elapsed)


# -- criterion 3 -------------------------------------------------------------

SEVEN_DOCUMENTED = {
    (1, 2, 2),
    (1, -3, -3),
    (1, -6, -6),
    (2, 1, 2),
    (2, 2, 1),
    (2, -3, -6),
    (2, -6, -3),
}


def _generator_level_survivors():
    cls = classify(1, 3, 14)
    return {
        t.as_tuple()
        for t in cls.surviving_triplets
        if all(v % 7 for v in t.as_tuple())
    }


@pytest.mark.xfail(
    strict=True,
    reason="four of the seven documented triplets force impossible "
    "congruences at 3 (e.g. (1,-3,-3) needs a^2 = 2 mod 3); the correct "
    "generator-level survivors are (1,2,2), (2,-3,-6), (2,-6,-3) - see notes",
)
def test_criterion_03_generator_level_survivors():
    assert _generator_level_survivors() == SEVEN_DOCUMENTED


def test_criterion_03_confirmed_part_and_classes():
    start = time.perf_counter()
    survivors = _generator_level_survivors()
    # the three classes that carry points all survive, and nothing outside
    # the documented seven does
    assert {(1, 2, 2), (2, -3, -6), (2, -6, -3)} <= survivors
    assert survivors <= SEVEN_DOCUMENTED
    cls = classify(1, 3, 14)
    listings = {
        (1, 2, 2): {(1, 2, 2), (14, -6, -21), (1, -7, -7), (14, 21, 6)},
        (2, -3, -6): {(2, -3, -6), (7, 1, 7), (2, 42, 21), (7, -14, -2)},
        (2, -6, -3): {(2, -6, -3), (7, 2, 14), (2, 21, 42), (7, -7, -1)},
    }
    for rep, expected in listings.items():
        c = next(c for c in cls.classes if DescentTriplet(*rep) in c["members"])
        assert {t.as_tuple() for t in c["members"]} == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("3[classes verbatim + confirmed survivors]", elapsed)


# -- criterion 4 -------------------------------------------------------------

def test_criterion_04_fixture_replay_n142():
    start = time.perf_counter()
    report = run_reproduce(load_fixture("n142"))
    elapsed = time.perf_counter() - start
    assert report["ok"] is True
    stage_names = {d["stage"] for d in report["stages"]}
    for required in (
        "q1",
        "q2",
        "y_conic",
        "kernel",
        "cross_term",
        "mu_candidates",
        "q4",
        "q5",
        "quartic",
        "val",
        "sigma1",
        "z",
        "y_values",
        "x",
        "point_x",
        "point_y",
        "concordant_abs",
        "translate_x",
        "translate_y_abs",
    ):
        assert required in stage_names
    assert elapsed < 5.0
    _report("4", elapsed, f"{len(report['stages'])} stages exact")


# -- criterion 5 -------------------------------------------------------------

def test_criterion_05_free_choice_solve_142():
    start = time.perf_counter()
    report = run_solve(1, 3, 142, triplet=DescentTriplet(1, 2, 2), radius_cap=500)
    elapsed = time.perf_counter() - start
    curve = ConcordantCurve(142, -426)
    x = Fraction(report["point"]["x"])
    y = Fraction(report["point"]["y"])
    point = CurvePoint.affine(x, y)
    assert curve.contains(point)
    assert not curve.is_torsion(point)
    orbit_x = {pt.x for pt in curve.torsion_translates(point)}
    assert Fraction(5148885426098, 2729122081) in orbit_x
    assert elapsed < 60.0
    _report("5", elapsed, f"method={report['stats']['method']}")


# -- criterion 6 -------------------------------------------------------------

def test_criterion_06_weak_fallback_k23():
    start = time.perf_counter()
    t = DescentTriplet(2, 3, 6)
    hs = build_homogeneous_space(t, 23, -69)
    with pytest.raises(ConditionFailure):
        select_equation_pair(hs)
    out = strong_solve(hs, 100)
    assert out.method == "weak"
    assert tuple(abs(v) for v in out.quadruple) == (7, 5, 1, 1)
    point = lift_solution(t, 23, -69, out.space_solution)
    assert (point.x, abs(point.y)) == (Fraction(75), Fraction(210))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("6[k=23]", elapsed)


@pytest.mark.parametrize("k", [47, 71])
def test_criterion_06_weak_fallback_other_members(k):
    start = time.perf_counter()
    t = DescentTriplet(2, 3, 6)
    hs = build_homogeneous_space(t, k, -3 * k)
    out = strong_solve(hs, 300)
    point = lift_solution(t, k, -3 * k, out.space_solution)
    curve = ConcordantCurve(k, -3 * k)
    assert curve.contains(point)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(f"6[k={k}]", elapsed)


# -- criterion 7 -------------------------------------------------------------

def test_criterion_07_verification_suite():
    start = time.perf_counter()
    # known concordant quadruple for 373 (79-digit components)
    a = 6464736286838262275566375140640125524476830394378258160144359151221846588162921
    b = 214402886988423616335778394508029972671920911384749815755228436417174376951980
    c = 4964526988887992094202607668810309975770378526931158358479760499172740751760929
    d = 7677180621382399924131415436519959747090354653821331133153517438341892919535729
    assert a * a - 373 * b * b == c * c
    assert a * a + 373 * b * b == d * d
    curve373 = ConcordantCurve(373, -373)
    assert curve373.on_quadrics((a, b, d, c))

    # known generator for the 157 curve
    p157 = CurvePoint.affine(
        Fraction(-166136231668185267540804, 2825630694251145858025),
        Fraction(167661624456834335404812111469782006, 150201095200135518108761470235125),
    )
    assert ConcordantCurve(157, -157).contains(p157)

    # known generator for y^2 = x(x^2 + 877); the x denominator below is the
    # square of the cube root of the y denominator, which the curve equation
    # forces (the circulating flat-text copy of this value drops digits)
    x877 = Fraction(
        375494528127162193105504069942092792346201,
        6215987776871505425463220780697238044100,
    )
    y877 = Fraction(
        256256267988926809388776834045513089648669153204356603464786949,
        490078023219787588959802933995928925096061616470779979261000,
    )
    assert y877 * y877 == x877**3 + 877 * x877
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("7", elapsed)


# -- criterion 8 -------------------------------------------------------------

def test_criterion_08_series_congruent_primes():
    start = time.perf_counter()
    rows = run_series("cong5", 61, radius_cap=300)
    elapsed = time.perf_counter() - start
    assert [int(r["k"]) for r in rows] == [5, 13, 29, 37, 53, 61]
    for row in rows:
        assert row["status"] == "ok"
        k = int(row["k"])
        w = [int(row[col]) for col in ("w0", "w1", "w2", "w3")]
        assert any(w)
        assert w[0] ** 2 + k * w[1] ** 2 == w[2] ** 2
        assert w[0] ** 2 - k * w[1] ** 2 == w[3] ** 2
        # the solving space comes from the documented candidate class
        assert row["triplet"] == "1;-1;-1"
    assert elapsed < 600.0
    _report("8", elapsed, f"{len(rows)} curves")


# -- criterion 9 -------------------------------------------------------------

def test_criterion_09_property_suites():
    start = time.perf_counter()
    rng = random.Random(99173)

    # (a) parametrization identities on 200 random solvable forms
    for _ in range(200):
        form, base = random_solvable_form(rng)
        param = parametrize_conic(form, primitive_normalize(base))
        assert param.composed_with_source() == (0, 0, 0, 0, 0)
    t_a = time.perf_counter()

    # (b) criterion vs brute force on every reduced form with |abc| <= 3000
    checked = _legendre_sweep(3000)
    assert checked > 50_000
    t_b = time.perf_counter()

    # (c) weak search vs four-variable brute force on 25 planted systems
    _weak_oracle_sweep(rng, 25)
    t_c = time.perf_counter()

    # (d) group-law associativity on 50 random triples
    for _ in range(50):
        curve, p = random_curve_with_point(rng)
        tors = curve.two_torsion()
        a = p
        b = curve.add(p, tors[rng.randrange(4)])
        c = curve.add(curve.multiply(2, p), tors[rng.randrange(4)])
        assert curve.add(a, b) == curve.add(b, a)
        assert curve.add(curve.add(a, b), c) == curve.add(a, curve.add(b, c))
    t_d = time.perf_counter()

    # (e) transfer round trips on 20 points
    for _ in range(20):
        curve, p = random_curve_with_point(rng)
        quad = curve.to_quadric(p)
        assert curve.on_quadrics(quad)
        assert curve.from_quadric(quad) == p
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        "9",
        elapsed,
        f"identities {t_a - start:.1f}s, criterion sweep {t_b - t_a:.1f}s "
        f"({checked} forms), weak oracle {t_c - t_b:.1f}s, "
        f"group law {t_d - t_c:.1f}s",
    )


def _legendre_sweep(bound):
    sf = [v > 0 and squarefree_part(v)[0] == v for v in range(bound + 1)]
    checked = 0
    for a in range(1, bound + 1):
        if not sf[a]:
            continue
        for b in range(1, bound // a + 1):
            if not sf[b] or math.gcd(a, b) != 1:
                continue
            ab = a * b
            for c in range(1, bound // ab + 1):
                if not sf[c] or math.gcd(c, ab) != 1:
                    continue
                for sb in (1, -1):
                    for sc in (1, -1):
                        form = LegendreForm(a, sb * b, sc * c)
                        fast = legendre_solvable(form)
                        slow = brute_legendre_solvable(a, sb * b, sc * c)
                        assert fast == slow, (a, sb * b, sc * c)
                        checked += 1
    return checked


def _weak_oracle_sweep(rng, systems):
    done = 0
    while done < systems:
        x = tuple(rng.randint(1, 6) for _ in range(2))
        a00, a11 = (rng.choice([v for v in range(-8, 9) if v]) for _ in range(2))
        b00, b11 = (rng.choice([v for v in range(-8, 9) if v]) for _ in range(2))
        a22 = -(a00 * x[0] ** 2 + a11 * x[1] ** 2)
        b33 = -(b00 * x[0] ** 2 + b11 * x[1] ** 2)
        if a22 == 0 or b33 == 0:
            continue
        try:
            TernaryForm(a00, 0, a11, a22)
        except Exception:
            continue
        brute = set()
        for x0 in range(0, 61):
            for x1 in range(-60, 61):
                s = -(a00 * x0 * x0 + a11 * x1 * x1)
                t = -(b00 * x0 * x0 + b11 * x1 * x1)
                if s % a22 or t % b33:
                    continue
                s, t = s // a22, t // b33
                if s < 0 or t < 0:
                    continue
                r2, r3 = math.isqrt(s), math.isqrt(t)
                if r2 * r2 == s and r3 * r3 == t and any((x0, x1, r2, r3)):
                    brute.add(primitive_normalize((abs(x0), abs(x1), r2, r3)))
        if not brute:
            continue
        try:
            out = weak_solve((a00, a11, a22), (b00, b11, b33), 400)
        except EffortExhausted:
            continue
        canonical = tuple(abs(v) for v in out.quadruple)
        if max(canonical) <= 60:
            assert canonical in brute
        else:
            assert a00 * canonical[0] ** 2 + a11 * canonical[1] ** 2 + a22 * canonical[2] ** 2 == 0
        done += 1


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_worker_determinism():
    start = time.perf_counter()
    outputs = []
    for workers in ("1", "8"):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "concordant",
                "solve",
                "--p",
                "1",
                "--q",
                "3",
                "--k",
                "142",
                "--triplet",
                "1,2,2",
                "--radius-cap",
                "500",
                "--workers",
                workers,
                "--format",
                "json",
            ],
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    elapsed = time.perf_counter() - start
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])
    _report("10", elapsed, "byte-identical reports for 1 and 8 workers")
