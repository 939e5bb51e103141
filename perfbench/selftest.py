"""Self-tests of the benchmark: inputs, span arithmetic, checker, patching.

    python3 perfbench/selftest.py          (or: python -m pytest perfbench/selftest.py)
"""

from __future__ import annotations

import json
import sys
from itertools import islice

import checker
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))


def _keys(workload, seed, n_passes=3):
    passes = workloads.WORKLOADS[workload].passes(seed)
    return [r.key for p in islice(passes, n_passes) for r in p]


def test_seed_decides_inputs():
    for name in ("classify", "solve-largek"):
        assert _keys(name, 7) == _keys(name, 7)
        assert _keys(name, 7) != _keys(name, 8)


def test_self_time_on_synthetic_tree():
    tree = [
        ["cli.run_solve", 0.0, 10.0, -1, 1, None, None],
        ["solver.strong_solve", 1.0, 4.0, 0, 1, None, None],
        ["solver.strong_solve", 2.0, 3.0, 1, 1, "EffortExhausted", None],
        ["quadforms.find_conic_point", 3.5, 6.0, 0, 1, None, None],  # overlaps its sibling
        ["integers.shell_pairs", 2.5, 2.75, 2, 1, None, 8],   # under the failed call
        ["integers.shell_pairs", 7.0, 7.5, 0, 1, None, 4],    # under no strong_solve
    ]
    assert spans.self_times(tree) == [4.5, 2.0, 0.75, 2.5, 0.25, 0.5]
    totals = spans.layer_totals(tree)
    strong = totals["solver.strong_solve"]
    assert strong["calls"] == 2
    assert strong["s"] == 3.0          # the nested call is inside the outer one
    assert strong["self_s"] == 2.75
    assert strong["errors"] == {"EffortExhausted": 1} and strong["values"] == []
    assert totals["integers.shell_pairs"]["values"] == [8, 4]
    assert spans.values_under(tree, "integers.shell_pairs", "solver.strong_solve") == [8]
    assert totals["cli.run_solve"]["self_s"] == 4.5


def test_triplets_are_those_the_program_classifies():
    series = workloads.Request("series", ("theta96", 200, 300, 1))
    assert series.curves() and workloads.classified_triplets(series, []) == 0
    cls = workloads.Request("classify", (1, 1, 15))
    assert workloads.classified_triplets(cls, {"triplet_count": 128}) == 128


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


def test_baseline_covers_every_request():
    recorded = json.loads(run.BASELINE.read_text())
    keys = {r.key for w in workloads.WORKLOADS.values() for r in w.every()}
    assert keys == recorded.keys()
    for name in ("classify", "solve-largek"):
        assert set(_keys(name, 3, n_passes=20)) <= keys


def _solve_report():
    # y^2 = x(x+5)(x-5) carries (-4, 6); 41^2 + 5*12^2 = 49^2, 41^2 - 5*12^2 = 31^2
    return {
        "point": {"x": "-4", "y": "6"},
        "triplet": ["1", "-1", "-1"],
        "concordant": ["41", "12", "49", "31"],
    }


def test_checker_accepts_and_rejects():
    assert checker.check_solve(1, 1, 5, _solve_report()) == []
    bad_point = _solve_report()
    bad_point["point"]["y"] = "7"
    assert checker.check_solve(1, 1, 5, bad_point)
    bad_quad = _solve_report()
    bad_quad["concordant"][3] = "29"
    assert checker.check_solve(1, 1, 5, bad_quad)
    torsion = _solve_report()
    torsion["point"] = {"x": "0", "y": "0"}
    assert checker.check_solve(1, 1, 5, torsion)


def test_checker_on_program_output():
    import concordant.cli as cli

    report = cli.run_solve(1, 3, 142, radius_cap=100)
    assert checker.check_solve(1, 3, 142, report) == []
    report["concordant"][0] = str(int(report["concordant"][0]) + 1)
    assert checker.check_solve(1, 3, 142, report)

    rows = cli.run_series("cong5", 61, 100, 1)
    assert checker.check_series("cong5", 61, rows) == []
    ok = next(r for r in rows if r["status"] == "ok")
    ok["w1"] = str(int(ok["w1"]) * 2)
    assert checker.check_series("cong5", 61, rows)
    assert checker.check_series("cong5", 61, rows[1:])

    cls = cli.run_classify(1, 1, 15)
    assert checker.check_classify(1, 1, 15, cls) == []
    cls["classes"][0]["members"].pop()
    assert checker.check_classify(1, 1, 15, cls)


def test_untraced_run_after_traced_sees_unpatched_functions():
    import concordant.cli as cli

    def bindings():
        return {
            (m.__name__, attr): value
            for m in spans._concordant_modules()
            for attr, value in vars(m).items()
            if callable(value)
        } | {
            ("ConcordantCurve", meth): vars(cli.ConcordantCurve)[meth]
            for meth in spans.CURVE_CHECKS
        }

    before = bindings()
    requests = [workloads.Request("solve", (1, 1, 5, 20)), workloads.Request("classify", (1, 1, 5))]
    rec = spans.Recorder()
    with spans.installed(rec) as patches:
        assert len(patches) > len(spans.TARGETS)
        traced = run.run_pass(cli, requests, run.Scaler(), rec)
    assert rec.spans and not any(d["failure"] for d in traced["done"])
    assert bindings() == before
    n = len(rec.spans)
    plain = run.run_pass(cli, requests, run.Scaler())
    assert len(rec.spans) == n
    assert [d["digest"] for d in plain["done"]] == [d["digest"] for d in traced["done"]]


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
