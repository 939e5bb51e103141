import itertools
import json
import math
import random
from pathlib import Path

import pytest
from conftest import (
    act,
    class_mul,
    oracle_class_group,
    oracle_enumerate_triplets,
    oracle_local_point,
    oracle_obstructions,
    oracle_torsion_equivalence_classes,
    oracle_torsion_value_table,
    oracle_triplet_solvable,
    torsion_columns,
)

from concordant import cli, descent
from concordant.curves import ConcordantCurve, CurvePoint, class_of
from concordant.descent import (
    DescentTriplet,
    LocalImages,
    SolvabilityTable,
    SquareClasses,
    build_homogeneous_space,
    classify,
    descent_generators,
    lift_solution,
    local_class,
    local_image,
    torsion_images,
    triplet_solvable,
)
from concordant.errors import DegenerateForm, EffortExhausted, InvalidArgument, VerificationFailure
from concordant.integers import factorize, is_perfect_square, squarefree_part


class TestSquareClassAlgebra:
    def test_self_inverse_and_unit(self, rng):
        sf = lambda n: squarefree_part(n)[0]
        vals = [sf(rng.randint(2, 500)) * rng.choice([1, -1]) for _ in range(40)]
        for u in vals:
            assert class_mul(u, u) == 1
            assert class_mul(u, 1) == u
        for _ in range(60):
            u, v, w = (vals[rng.randrange(len(vals))] for _ in range(3))
            assert class_mul(class_mul(u, v), w) == class_mul(u, class_mul(v, w))

    def test_triplet_invariants(self):
        t = DescentTriplet(1, 2, 2)
        assert is_perfect_square(t.a * t.b * t.c) is not None
        with pytest.raises(InvalidArgument):
            DescentTriplet(-1, 1, -1)
        for a, b, c in ((1, 2, 3), (1, -2, 2), (1, 0, 2)):
            with pytest.raises(InvalidArgument):
                DescentTriplet(a, b, c)


class TestGenerators:
    def test_prime_case(self):
        assert descent_generators(1, 1, 5) == [-1, 2, 5]

    def test_twice_prime(self):
        assert descent_generators(1, 1, 2 * 3) == [-1, 2, 3]

    def test_theta_case(self):
        assert descent_generators(1, 3, 14) == [-1, 2, 3, 7]

    def test_bad_inputs(self):
        with pytest.raises(InvalidArgument):
            descent_generators(2, 4, 5)
        with pytest.raises(InvalidArgument):
            descent_generators(1, 1, 12)


class TestTripletEnumeration:
    def test_counts(self):
        assert len(classify(1, 3, 14).triplets) == 128  # generators -1, 2, 3, 7
        assert len(classify(1, 1, 6).triplets) == 32  # generators -1, 2, 3

    def test_all_products_square(self):
        for t in classify(1, 1, 5).triplets:
            assert t.a > 0
            assert is_perfect_square(t.a * t.b * t.c) is not None

    def test_group(self):
        triplets = classify(1, 1, 6).triplets
        assert {t.b for t in triplets} == {1, -1, 2, -2, 3, -3, 6, -6}
        assert {t.a for t in triplets} == {1, 2, 3, 6}


def _image_classes(m, n):
    return [tuple(class_of(v) for v in image) for image in torsion_images(m, n)]


def _table_columns(p, q, k):
    # the table's columns are the points x = -m, 0, -n; torsion_images lists
    # x = 0, -m, -n
    columns = torsion_columns(oracle_torsion_value_table(p, q, k))
    return [columns[1], columns[0], columns[2]]


class TestTorsionTable:
    def test_theta_table(self):
        assert _image_classes(14, -42) == [(14, -3, -42), (1, -14, -14), (14, 42, 3)]

    def test_prime_table_middle_column(self):
        # the point (0, 0), the table's middle column
        assert _image_classes(5, -5)[0] == (5, -1, -5)

    def test_columns_are_valid_triplets(self):
        for a, b, c in torsion_images(14, -42):
            assert is_perfect_square(a * b * c) is not None

    def test_images_match_class_of_table(self):
        # up to squares, on curves whose p, q or p + q have square factors
        for p, q, k in _classified_curves() + _seeded_square_factor_curves(random.Random(7)):
            assert _image_classes(p * k, -q * k) == _table_columns(p, q, k), (p, q, k)


def _assert_classify_matches_act_oracle(p, q, k):
    cls = classify(p, q, k)
    triplets = oracle_enumerate_triplets(descent_generators(p, q, k))
    assert len(cls.triplets) == len(triplets) and set(cls.triplets) == set(triplets), (p, q, k)
    expected = oracle_torsion_equivalence_classes(triplets, oracle_torsion_value_table(p, q, k))
    assert [c["members"] for c in cls.classes] == expected, (p, q, k)
    for c in cls.classes:
        assert c["representative"] == c["members"][0]
        assert c["is_torsion_class"] == (DescentTriplet(1, 1, 1) in c["members"])


class TestEquivalenceClasses:
    def _members(self, p, q, k, triplet):
        classes = [c["members"] for c in classify(p, q, k).classes]
        target = next(c for c in classes if DescentTriplet(*triplet) in c)
        return {t.as_tuple() for t in target}

    def test_twice_prime_class_of_minus_one(self):
        l = 3
        assert self._members(1, 1, 2 * l, (1, -1, -1)) == {
            (1, -1, -1),
            (2, 2 * l, l),
            (2 * l, 1, 2 * l),
            (l, -2 * l, -2),
        }

    def test_theta_class_of_122(self):
        l = 7
        assert self._members(1, 3, 2 * l, (1, 2, 2)) == {
            (1, 2, 2),
            (2 * l, -6, -3 * l),
            (1, -l, -l),
            (2 * l, 3 * l, 6),
        }

    def test_partition_properties(self):
        cls = classify(1, 1, 10)
        classes = [c["members"] for c in cls.classes]
        seen = [t for members in classes for t in members]
        assert len(seen) == len(cls.triplets)
        assert set(seen) == set(cls.triplets)
        cols = torsion_columns(oracle_torsion_value_table(1, 1, 10))
        for members in classes:
            assert len(members) == 4
            for t in members:
                for col in cols:
                    assert act(t, col) in members

    def test_matches_act_oracle(self):
        # the classified families at max_k 200, every k of the classify
        # workload and other shapes: same triplets, same classes, same
        # members, same order
        curves = _classified_curves() + _classify_workload_curves()
        curves += [(1, 3, 5 * 7 * 11), (2, 5, 3 * 13 * 29), (1, 3, 11 * 13 * 17 * 19)]
        curves += [(1, 1, 2 * 3 * 5 * 7)]
        for p, q, k in curves:
            _assert_classify_matches_act_oracle(p, q, k)

    def test_seeded_curves_match_act_oracle(self):
        for p, q, k in _seeded_square_factor_curves(random.Random(7)):
            _assert_classify_matches_act_oracle(p, q, k)

    def test_image_outside_the_list_is_built(self):
        # with p < 0 a torsion image of (1, 1, 1) has A < 0: it lies outside
        # the enumerated triplets, and building it raises as act does
        gens = descent_generators(-1, 3, 5)
        table = oracle_torsion_value_table(-1, 3, 5)
        with pytest.raises(InvalidArgument, match="A component must be positive"):
            oracle_torsion_equivalence_classes(oracle_enumerate_triplets(gens), table)
        with pytest.raises(InvalidArgument, match="A component must be positive"):
            classify(-1, 3, 5)


class TestSolvabilityFilter:
    def test_theta96_exclusion(self):
        # the (3,3,1) system forces 3 to be a residue mod 7, which fails
        ok, evidence = triplet_solvable(DescentTriplet(3, 3, 1), 14, -42)
        assert not ok
        assert "criterion fails" in evidence

    def test_confirmed_survivors(self):
        # spaces with published points must pass the (necessary) filter
        cases = [
            (DescentTriplet(1, -1, -1), 5, -5),
            (DescentTriplet(1, -2, -2), 6, -6),
            (DescentTriplet(1, 2, 2), 142, -426),
            (DescentTriplet(2, 3, 6), 23, -69),
            (DescentTriplet(1, 2, 2), 14, -42),
            (DescentTriplet(2, -3, -6), 14, -42),
            (DescentTriplet(2, -6, -3), 14, -42),
        ]
        for t, m, n in cases:
            ok, _ = triplet_solvable(t, m, n)
            assert ok, (t, m, n)

    def test_sum_of_two_squares_obstruction(self):
        # x+2l = 2a^2 and x = -2b^2 force l = a^2 + b^2, impossible for l = 3 mod 4
        for l in (3, 11, 19):
            ok, _ = triplet_solvable(DescentTriplet(2, -2, -1), 2 * l, -2 * l)
            assert not ok


def _assert_classify_matches_oracle(p, q, k):
    m, n = p * k, -q * k
    for cls in classify(p, q, k).classes:
        for t, ok, evidence in cls["verdicts"]:
            assert (ok, evidence) == oracle_triplet_solvable(t, m, n), (p, q, k, t)


def _primes_upto(bound):
    return [v for v in range(2, bound + 1) if all(v % d for d in range(2, math.isqrt(v) + 1))]


def _classified_curves():
    # the curves of the five families at max_k 200
    families = ("cong5", "cong7", "twice7", "theta5", "theta96")
    return [c for f in families for c in cli._family_curves(f, 200)]


def _classify_workload_curves():
    # every k the classify workload sends: three and four odd primes
    odd = (17, 19, 23, 29, 31, 37, 41, 43, 47)
    return [(1, 1, math.prod(c)) for r in (3, 4) for c in itertools.combinations(odd, r)]


def _seeded_square_factor_curves(rng):
    # p, q and p + q are not squarefree in general, e.g. (1, 8) has p + q = 9
    curves = [(1, 8, 15), (9, 16, 7), (4, 5, 1)]
    while len(curves) < 300:
        p, q, k = rng.randint(1, 40), rng.randint(1, 40), rng.randint(1, 3000)
        if math.gcd(p, q) == 1 and squarefree_part(k)[0] == k:
            curves.append((p, q, k))
    return curves


class TestSolvabilityTable:
    """Verdict and evidence of the Legendre-symbol table against the
    reduce-then-test oracle, triplet by triplet."""

    def test_classify_workload_three_primes(self):
        for primes in itertools.combinations((17, 19, 23, 29, 31, 37, 41, 43, 47), 3):
            _assert_classify_matches_oracle(1, 1, math.prod(primes))

    def test_classified_families(self):
        primes = _primes_upto(200)
        curves = [(1, 1, v) for v in primes if v % 8 in (5, 7)]
        curves += [(1, 1, 2 * v) for v in primes if v <= 100 and v % 8 == 7]
        curves += [(1, 3, v) for v in primes if v % 24 == 5]
        for p, q, k in curves:
            _assert_classify_matches_oracle(p, q, k)

    def test_seeded_curves_with_square_factors(self):
        rng = random.Random(7)
        for p, q, k in _seeded_square_factor_curves(rng):
            m, n = p * k, -q * k
            generators = descent_generators(p, q, k)
            table = SolvabilityTable(generators, m, n)
            group = oracle_class_group(generators)
            positives = [g for g in group if g > 0]
            for _ in range(12):
                a, b = rng.choice(positives), rng.choice(group)
                t = DescentTriplet(a, b, class_mul(a, b))
                assert table.verdict(t) == oracle_triplet_solvable(t, m, n), (p, q, k, t)

    @pytest.mark.parametrize("m, n", [(3, -5), (12, -4), (-7, 21)])
    def test_public_filter_off_the_curve_shape(self, m, n):
        # m - n brings in primes neither m nor n has
        generators = {-1, 2}
        for v in (m, n, m - n):
            generators |= {p for p, _ in factorize(v).factors}
        for t in oracle_enumerate_triplets(sorted(generators)):
            assert triplet_solvable(t, m, n) == oracle_triplet_solvable(t, m, n), t

    def test_public_filter_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @hypothesis.given(
            st.integers(-400, 400),
            st.integers(-400, 400),
            st.integers(1, 300),
            st.integers(-300, 300),
            st.integers(1, 3),
        )
        def check(m, n, a, b, r):
            hypothesis.assume(m != 0 and n != 0 and m != n and b != 0)
            # C carries a square factor, so the components need not be squarefree
            t = DescentTriplet(a, b, squarefree_part(a * b)[0] * r * r)
            assert triplet_solvable(t, m, n) == oracle_triplet_solvable(t, m, n)

        check()

    @pytest.mark.parametrize("m, n", [(0, 5), (5, 0), (5, 5)])
    def test_zero_coefficient_rejected_like_oracle(self, m, n):
        t = DescentTriplet(1, 2, 2)
        with pytest.raises(DegenerateForm):
            oracle_triplet_solvable(t, m, n)
        with pytest.raises(DegenerateForm):
            triplet_solvable(t, m, n)

    def test_vector_of_zero_raises(self):
        with pytest.raises(InvalidArgument, match="0 has no square class"):
            SquareClasses([-1, 2, 3]).vector(0)


class TestHomogeneousSpace:
    def test_n142_space(self):
        hs = build_homogeneous_space(DescentTriplet(1, 2, 2), 142, -426)
        assert hs.e_d.diagonal() == (3, -8, 2)
        assert hs.e_a.diagonal() == (1, -2, -142)

    def test_k23_space(self):
        hs = build_homogeneous_space(DescentTriplet(2, 3, 6), 23, -69)
        assert hs.e_d.diagonal() == (1, -2, 1)
        assert hs.e_a.diagonal() == (2, -3, -23)
        assert hs.e_c.diagonal() == (1, -3, -46)
        assert hs.e_b.diagonal() == (1, -2, -23)

    def test_congruent_prime_space(self):
        hs = build_homogeneous_space(DescentTriplet(1, -1, -1), 5, -5)
        diags = {f.diagonal() for _, f, _ in hs.quadrics()}
        assert (1, 2, -1) in diags  # 2*X0^2 + X1^2 - X2^2 up to variable order
        assert (1, 1, -5) in diags

    def test_linear_combination_identity(self, rng):
        # any primitive solution of {e_a, e_b} satisfies e_c and e_d
        for t, m, n in [
            (DescentTriplet(2, 3, 6), 23, -69),
            (DescentTriplet(1, 2, 2), 14, -42),
            (DescentTriplet(1, -1, -1), 5, -5),
        ]:
            hs = build_homogeneous_space(t, m, n)
            found = 0
            for a in range(0, 13):
                for b in range(-12, 13):
                    for c in range(-12, 13):
                        for d in range(-12, 13):
                            v = (a, b, c, d)
                            if not any(v):
                                continue
                            g = math.gcd(math.gcd(a, b), math.gcd(c, d))
                            if g != 1:
                                continue
                            named = dict(zip("abcd", v))
                            if hs.e_a(*(named[x] for x in ("a", "b", "d"))):
                                continue
                            if hs.e_b(*(named[x] for x in ("b", "c", "d"))):
                                continue
                            assert hs.e_c(*(named[x] for x in ("a", "c", "d"))) == 0
                            assert hs.e_d(*(named[x] for x in ("a", "b", "c"))) == 0
                            found += 1
            if t.as_tuple() == (2, 3, 6):
                assert found > 0  # the (7,5,1,1) family lives in range


class TestLiftSolution:
    def test_published_lift(self):
        point = lift_solution(DescentTriplet(2, 3, 6), 23, -69, (7, 5, 1, 1))
        assert point == CurvePoint.affine(75, 210)

    def test_scaling_invariance(self):
        a = lift_solution(DescentTriplet(2, 3, 6), 23, -69, (7, 5, 1, 1))
        b = lift_solution(DescentTriplet(2, 3, 6), 23, -69, (14, 10, 2, 2))
        assert a == b

    def test_zero_denominator_rejected(self):
        with pytest.raises(InvalidArgument):
            lift_solution(DescentTriplet(1, -1, -1), 5, -5, (1, 1, 1, 0))

    def test_off_space_rejected(self):
        with pytest.raises(InvalidArgument):
            lift_solution(DescentTriplet(2, 3, 6), 23, -69, (1, 1, 1, 1))

    def test_descent_consistency(self):
        # the lifted point's square classes reproduce the triplet
        t = DescentTriplet(2, 3, 6)
        point = lift_solution(t, 23, -69, (7, 5, 1, 1))
        assert ConcordantCurve(23, -69).square_classes(point) == t.as_tuple()


class TestClassify:
    def test_prime_5_mod_8(self):
        cls = classify(1, 1, 5)
        reps = [c["representative"].as_tuple() for c in cls.surviving_classes]
        assert reps == [(1, -1, -1)]
        members = {t.as_tuple() for t in cls.surviving_classes[0]["members"]}
        assert members == {(1, -1, -1), (2, 5, 10), (5, 1, 5), (10, -5, -2)}

    def test_torsion_class_marked(self):
        cls = classify(1, 1, 5)
        torsion = [c for c in cls.classes if c["is_torsion_class"]]
        assert len(torsion) == 1
        assert DescentTriplet(1, 1, 1) in torsion[0]["members"]

    def test_survivors_exclude_torsion_class(self):
        cls = classify(1, 1, 5)
        for t in cls.surviving_triplets:
            assert t not in torsion_members(cls)


def torsion_members(cls):
    return next(c["members"] for c in cls.classes if c["is_torsion_class"])


def _searched_sweep_curves():
    # the curves `series` searches by class at max_k 200: every family but
    # theta96, which searches two fixed classes
    return [c for f in ("cong5", "cong7", "twice7", "theta5") for c in cli._family_curves(f, 200)]


def _pool_curves(pool):
    if pool == "sweep":
        return _searched_sweep_curves()
    pool_file = Path(__file__).resolve().parents[1] / "perfbench" / "largek_pool.json"
    groups = json.loads(pool_file.read_text())["groups"]
    return [tuple(member[:3]) for g in groups for member in g["members"]]


# odd primes small enough for the brute-force oracle
_ORACLE_PRIMES = (2, 3, 5, 7, 11, 13)


class TestLocalImages:
    """The local conditions of the complete 2-descent against a brute-force
    search for points of each homogeneous space modulo p^e."""

    def _assert_matches_oracle(self, p, q, k, triplets):
        local = LocalImages(p, q, k)
        m, n = p * k, -q * k
        checked = 0
        for t in triplets:
            obstructions = local.obstructions(t)
            for ell in local.images:
                if ell in _ORACLE_PRIMES:
                    has_point = oracle_local_point(t, m, n, ell)
                    assert (ell not in obstructions) == has_point, (p, q, k, t, ell)
                    checked += 1
        return checked

    def test_every_class_of_the_sweep_matches_oracle(self):
        curves = _searched_sweep_curves()
        assert len(curves) == 38
        checked = sum(
            self._assert_matches_oracle(
                p, q, k, oracle_enumerate_triplets(descent_generators(p, q, k))
            )
            for p, q, k in curves
        )
        assert checked > 2500

    def test_drawn_curves_match_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        seen = {"obstructed": 0, "kept": 0}

        @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
        @hypothesis.given(
            st.integers(1, 40),
            st.integers(1, 40),
            st.integers(1, 300),
            st.randoms(use_true_random=False),
        )
        def check(p, q, k, rnd):
            hypothesis.assume(math.gcd(p, q) == 1 and squarefree_part(k)[0] == k)
            group = oracle_class_group(descent_generators(p, q, k))
            positives = [g for g in group if g > 0]
            triplets = []
            for _ in range(4):
                a, b = rnd.choice(positives), rnd.choice(group)
                triplets.append(DescentTriplet(a, b, class_mul(a, b)))
            assert self._assert_matches_oracle(p, q, k, triplets) > 0
            local = LocalImages(p, q, k)
            for t in triplets:
                seen["obstructed" if local.obstructions(t) else "kept"] += 1

        check()
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize("pool", ["sweep", "largek"])
    def test_every_image_is_filled(self, pool):
        primes = 0
        for p, q, k in _pool_curves(pool):
            local = LocalImages(p, q, k)
            generators = descent_generators(p, q, k)
            assert sorted(local.images) == [g for g in generators if g > 1], (p, q, k)
            primes += len(local.images)
        assert primes == {"sweep": 83, "largek": 86}[pool]

    @pytest.mark.parametrize("pool", ["sweep", "largek"])
    def test_obstructions_match_mask_oracle(self, pool):
        # every triplet at every prime, beyond the primes the brute-force
        # oracle reaches
        seen = {"obstructed": 0, "kept": 0}
        for p, q, k in _pool_curves(pool):
            local = LocalImages(p, q, k)
            triplets = oracle_enumerate_triplets(descent_generators(p, q, k))
            got = [local.obstructions(t) for t in triplets]
            assert got == oracle_obstructions(p, q, k, triplets), (p, q, k)
            for primes in got:
                seen["obstructed" if primes else "kept"] += 1
        assert min(seen.values()) > 0, seen

    def test_kept_classes_are_legendre_survivors(self):
        # a class with a point over every Q_ell has one on each quadric, which
        # then has a real point too (Hilbert reciprocity): so it passes the
        # Legendre filter.  Every classify request of the benchmark.
        for count in (3, 4):
            for primes in itertools.combinations((17, 19, 23, 29, 31, 37, 41, 43, 47), count):
                k = math.prod(primes)
                local = LocalImages(1, 1, k)
                cls = classify(1, 1, k)
                verdicts = [(t, ok) for c in cls.classes for t, ok, _ in c["verdicts"]]
                kept = [ok for t, ok in verdicts if not local.obstructions(t)]
                assert kept and all(kept), k

    def test_every_hit_is_kept(self):
        # each Legendre survivor searched on its own, with no pruning
        hits = 0
        for p, q, k in _searched_sweep_curves():
            curve = ConcordantCurve.from_pqk(p, q, k)
            local = LocalImages(p, q, k)
            for c in classify(p, q, k).surviving_classes:
                t = c["representative"]
                try:
                    cli.search_curve(curve, [t], 300)
                except EffortExhausted:
                    continue
                assert not local.obstructions(t), (p, q, k, t)
                hits += 1
        assert hits == 36
        for row in cli.run_series("theta96", 200):
            local = LocalImages(*(int(row[v]) for v in "pqk"))
            assert row["status"] == "ok"
            assert not local.obstructions(DescentTriplet(*map(int, row["triplet"].split(";"))))

    def test_k127_keeps_one_class(self):
        local = LocalImages(1, 1, 127)
        reps = [c["representative"] for c in classify(1, 1, 127).surviving_classes]
        assert [t.as_tuple() for t in reps] == [(1, 2, 2), (1, -127, -127), (1, -254, -254)]
        assert [local.obstructions(t) for t in reps] == [[2], [], [2]]

    def test_curve_with_no_kept_class_is_exhausted_at_once(self, monkeypatch):
        # (1, 1, 5483): all three Legendre survivors fail at 2
        searched = []
        real = cli.search_curve

        def recording(curve, triplets, *args, **kwargs):
            searched.append(list(triplets))
            return real(curve, triplets, *args, **kwargs)

        monkeypatch.setattr(cli, "search_curve", recording)
        rows = cli._curve_rows("cong5", 300, (1, 1, 5483))
        first = classify(1, 1, 5483).surviving_classes[0]["representative"]
        assert searched == [[]]
        assert [(r["triplet"], r["status"]) for r in rows] == [
            (";".join(map(str, first.as_tuple())), "exhausted")
        ]

    def test_local_class_is_a_homomorphism(self):
        for ell in (2, 3, 5, 7, 127):
            for x, y in itertools.product(range(-40, 41), repeat=2):
                if x and y:
                    assert local_class(x * y, ell) == local_class(x, ell) ^ local_class(y, ell)
            squares = {local_class(x * x, ell) for x in range(1, 200)}
            assert squares == {0}

    def test_local_class_of_zero_raises(self):
        for ell in (2, 3):
            with pytest.raises(InvalidArgument, match="0 has no square class"):
                local_class(0, ell)

    def test_span_above_its_dimension_raises(self, monkeypatch):
        # a class map that is not a homomorphism sends the 2-torsion pairs
        # (5, -25), (50, -5) and (10, 5) of (m, n) = (5, -5) to the three
        # independent images 1, 2 and 1 << 2
        classes = {5: 1, -25: 0, 50: 2, -5: 0, 10: 0}
        monkeypatch.setattr(descent, "local_class", lambda value, ell: classes[value])
        with pytest.raises(VerificationFailure, match="more than 2"):
            local_image(5, 5, -5)
