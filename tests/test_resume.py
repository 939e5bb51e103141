"""A prepared search advanced through increasing caps against a fresh
search at every cap, and the class x cap-ladder loop against the ladder
that searched every class afresh at each rung."""

import pickle

import pytest
from conftest import oracle_final_search, oracle_search_curve

import concordant.solver
from concordant import cli
from concordant.curves import ConcordantCurve
from concordant.descent import DescentTriplet, build_homogeneous_space, classify
from concordant.errors import ConcordantError, DegenerateKernel, EffortExhausted
from concordant.fixtures import load_fixture
from concordant.integers import shell_pairs
from concordant.quadforms import compose_quartic
from concordant.solver import StagePins, prepare_search, strong_solve

# n = 142, class (1, 2, 2): the published chain
PINNED_142 = dict(
    phi_rows=((0, 16, 0), (8, 0, 3), (-16, 0, 6)),
    psi_rows=((-90, 81, -20), (-719, 640, -144), (-9, 40, -16)),
)


def _result(run):
    """What a search returns, or its error as (type name, message)."""
    try:
        return run()
    except ConcordantError as exc:
        return type(exc).__name__, str(exc)


def _fresh(space, cap, pins=None):
    return _result(lambda: strong_solve(space, cap, pins=pins))


def assert_resumes_like_fresh(space, caps, pins=None):
    """Advance one prepared search through `caps` and compare it at every
    cap with a fresh search at that cap.  Returns the resumed results."""
    prepared = _result(lambda: prepare_search(space, pins))
    if isinstance(prepared, tuple):
        # preparing does not depend on the cap, so a fresh search fails alike
        assert all(_fresh(space, cap, pins) == prepared for cap in caps)
        return [prepared] * len(caps)
    results = []
    for cap in caps:
        results.append(_result(lambda: prepared.advance(cap)))
        assert results[-1] == _fresh(space, cap, pins), cap
    return results


def _family_classes(max_k=200):
    """(curve, triplet) for every Legendre survivor of the five families."""
    out = []
    for family in sorted(cli.FAMILIES):
        for p, q, k in cli._family_curves(family, max_k):
            curve = ConcordantCurve.from_pqk(p, q, k)
            out += [(curve, c["representative"]) for c in classify(p, q, k).surviving_classes]
    return out


FAMILY_CLASSES = _family_classes()
FAMILY_SPACES = [build_homogeneous_space(t, curve.m, curve.n) for curve, t in FAMILY_CLASSES]


def _fixture_class(name):
    fixture = load_fixture(name)
    curve = ConcordantCurve.from_pqk(*(fixture[v] for v in "pqk"))
    return curve, DescentTriplet(*fixture["triplet"]), cli.pins_from_fixture(fixture)


# (curve, triplet, pins): the family classes, the k = 127 class that hits
# at radius 375, past the rung at 100, and both fixtures with their pins
SINGLE_CLASSES = [(curve, t, None) for curve, t in FAMILY_CLASSES] + [
    (ConcordantCurve.from_pqk(1, 1, 127), DescentTriplet(1, -127, -127), None),
    _fixture_class("n142"),
    _fixture_class("k23-weak"),
]


def _space(p, q, k, triplet):
    curve = ConcordantCurve.from_pqk(p, q, k)
    return build_homogeneous_space(DescentTriplet(*triplet), curve.m, curve.n)


class TestResumedSearch:
    @pytest.mark.parametrize("caps", [[100, 300], [100, 500, 600]])
    def test_every_family_class_on_a_ladder(self, caps):
        methods = set()
        for space in FAMILY_SPACES:
            for out in assert_resumes_like_fresh(space, caps):
                methods.add(out[0] if isinstance(out, tuple) else out.method)
        assert methods == {"strong", "weak", "EffortExhausted"}

    def test_every_family_class_shell_by_shell(self):
        for space in FAMILY_SPACES:
            assert_resumes_like_fresh(space, range(1, 11))

    def test_drawn_cap_sequences(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
        @hypothesis.given(
            st.sampled_from(FAMILY_SPACES),
            st.lists(st.integers(1, 150), min_size=1, max_size=5, unique=True),
        )
        def check(space, caps):
            assert_resumes_like_fresh(space, sorted(caps))

        check()

    def test_weak_fallback(self):
        space = _space(1, 3, 23, (2, 3, 6))
        results = assert_resumes_like_fresh(space, [1, 2, 3, 100, 300])
        assert [r.method for r in results] == ["weak"] * 5
        assert results[0].degenerate_kernel is None

    def test_degenerate_kernel_fallback(self, monkeypatch):
        def degenerate(psi):
            raise DegenerateKernel("pure-square columns are linearly dependent")

        monkeypatch.setattr(concordant.solver, "parameter_kernel", degenerate)
        results = assert_resumes_like_fresh(_space(1, 3, 14, (1, 2, 2)), [1, 2, 3, 300])
        assert [r.method for r in results] == ["weak"] * 4
        assert results[0].degenerate_kernel == "pure-square columns are linearly dependent"

    @pytest.mark.parametrize("pqk, triplet", [((1, 1, 15), (3, 15, 5)), ((1, 3, 57), (1, -3, -3))])
    def test_completion_round_hits(self, pqk, triplet):
        # the completion round hits in shell 1 or 2, after the candidates'
        # round has scanned that shell without one
        results = assert_resumes_like_fresh(_space(*pqk, triplet), [1, 2, 3, 300])
        hits = [r for r in results if not isinstance(r, tuple)]
        assert len(hits) >= 3 and all(r.chain.completion_used for r in hits)

    def test_pinned_mu(self):
        space = _space(1, 3, 142, (1, 2, 2))
        for mu, caps in ((-71, [1, 5, 19, 20, 21, 200]), (-1, [50, 100, 200])):
            pins = StagePins(**PINNED_142, mu=mu)
            results = assert_resumes_like_fresh(space, caps, pins)
        assert results == [("EffortExhausted", "final search schedule exhausted")] * 3

    def test_pinned_rho(self):
        # with every stage pinned up to the final scan, the scan finds the
        # published final parameters (20, 3) after 507 pairs
        pins = StagePins(
            **PINNED_142,
            mu=-71,
            gamma_rows=((-5, 10, 279), (-19, 180, -90), (-5, 81, -360)),
        )
        results = assert_resumes_like_fresh(_space(1, 3, 142, (1, 2, 2)), [1, 200, 500], pins)
        assert results[0] == ("EffortExhausted", "final search schedule exhausted")
        assert {(r.parameter, r.pairs_tested) for r in results[1:]} == {((20, 3), 507)}


class TestSearchCurve:
    def test_series_ladder_matches_fresh_rungs(self):
        for family in sorted(cli.FAMILIES):
            for p, q, k in cli._family_curves(family, 200):
                curve = ConcordantCurve.from_pqk(p, q, k)
                reps = [c["representative"] for c in classify(p, q, k).surviving_classes]
                ladder = [100, 300] if len(reps) > 1 else [300]
                expected = _result(lambda: oracle_search_curve(curve, reps, ladder))
                assert _result(lambda: cli.search_curve(curve, reps, 300)) == expected

    @pytest.mark.parametrize("cap", [50, 150, 300, 600])
    def test_named_class_is_one_fresh_rung(self, cap):
        # a single class is searched once at the cap: the hit and its
        # pairs_tested, or the exhaustion message, of one fresh search there
        for curve, t, pins in SINGLE_CLASSES:
            expected = _result(lambda: oracle_search_curve(curve, [t], [cap], pins))
            got = _result(lambda: cli.search_curve(curve, [t], cap, pins))
            assert got == expected, (curve, t, cap)

    def test_rungs_can_let_a_completion_hit_come_first(self):
        # (1, 3, 262) has three classes, so its search climbs the rungs.
        # By rung 100 the completion round of class (1, -6, -6) hits at
        # radius 36, after its candidate round scanned shells 1-100; one
        # search of that class at the cap scans the candidate round first
        # and hits at radius 147.
        curve, t = ConcordantCurve.from_pqk(1, 3, 262), DescentTriplet(1, -6, -6)
        report = cli.run_solve(1, 3, 262, radius_cap=300)
        stats = report["stats"]
        assert report["triplet"] == ["1", "-6", "-6"]
        assert (stats["parameter"], stats["mu"]) == (["-11", "36"], "262")
        assert (stats["completion_used"], stats["pairs_tested"]) == (True, 16905)

        search = prepare_search(_space(1, 3, 262, t.as_tuple())).search
        candidates, completion = (
            [(compose_quartic(search.psi.rows[1], search._gamma(mu)), mu) for mu in rnd.mus]
            for rnd in search.rounds
        )
        assert oracle_final_search(candidates, 100) is None
        scanned = len(candidates) * sum(len(shell_pairs(r)) for r in range(1, 101))
        qi, rho, _, tested = oracle_final_search(completion, 100)
        assert (completion[qi][1], rho, scanned + tested) == (262, (-11, 36), 16905)

        named = cli.search_curve(curve, [t], 300)
        assert named == oracle_search_curve(curve, [t], [300])
        assert (named[1].parameter, named[1].chain.completion_used) == ((13, 147), False)
        stats = cli.run_solve(1, 3, 262, triplet=t, radius_cap=300)["stats"]
        assert (stats["parameter"], stats["completion_used"]) == (["13", "147"], False)

    def test_pickled_search_resumes(self):
        # k = 127: every class exhausts at 100; this one hits at radius 375
        space = _space(1, 1, 127, (1, -127, -127))
        fresh = strong_solve(space, 500)
        search = prepare_search(space)
        with pytest.raises(EffortExhausted):
            search.advance(100)
        blob = pickle.dumps(search)
        assert len(blob) < 20_000
        assert pickle.loads(blob).advance(500) == fresh == search.advance(500)
