import gc
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import concordant
import concordant.cli
import concordant.solver
from concordant.cli import (
    EXIT_CLOSED,
    EXIT_EXHAUSTED,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    SERIES_COLUMNS,
    main,
    pins_from_fixture,
    run_classify,
    run_reproduce,
    run_series,
    run_solve,
)
from concordant.curves import ConcordantCurve
from concordant.descent import DescentTriplet
from concordant.errors import EffortExhausted, FactorizationIncomplete, InvalidArgument
from concordant.fixtures import load_fixture, parse_fixture
from concordant.solver import StagePins

def _over_factoring_budget(psi, row_primes):
    raise FactorizationIncomplete(10**40 + 1, [], 10**40 + 1)


# a patch of concordant.cli reaches pool workers only when they are forked
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers are not forked"
)

# the first surviving class of k = 34 that hits at the first rung; the class
# before it is exhausted there and two classes after it also hit
_FIRST_HIT_34 = DescentTriplet(1, 2, 2)
_real_search_class = concordant.cli._search_class


def _first_hit_finishes_last(curve, cap, pins, state):
    # at the first rung each job gets its class's triplet
    if state == _FIRST_HIT_34:
        time.sleep(1.0)
    return _real_search_class(curve, cap, pins, state)


def _edited_fixture(tmp_path, name, old, new):
    import importlib.resources as resources

    src = (resources.files("concordant") / "fixtures" / f"{name}.fixture").read_text()
    assert old in src
    ref = tmp_path / "edited.fixture"
    ref.write_text(src.replace(old, new))
    return str(ref)


def _edited_n142(tmp_path, old, new):
    return _edited_fixture(tmp_path, "n142", old, new)


ZAGIER_ARGS = [
    "verify",
    "--M",
    "157",
    "--N",
    "-157",
    "--point=-166136231668185267540804/2825630694251145858025,"
    "167661624456834335404812111469782006/150201095200135518108761470235125",
]


class TestClassifyCommand:
    def test_json_roundtrip(self, capsys):
        report = run_classify(1, 1, 5)
        encoded = json.dumps(report, sort_keys=True)
        assert json.loads(encoded) == report

    def test_cli_exit_ok(self, capsys):
        assert main(["classify", "--p", "1", "--q", "1", "--k", "5", "--format", "json"]) == EXIT_OK
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["surviving_class_representatives"] == [["1", "-1", "-1"]]

    def test_usage_error_without_curve(self):
        assert main(["classify"]) == EXIT_USAGE

    def test_reader_that_closes_stdout(self):
        # 2.9 MB of text; the reader keeps the first line, as `| head -1` does
        env = {**os.environ, "PYTHONPATH": str(Path(concordant.__file__).parents[1])}
        argv = ["-m", "concordant", "classify", "--p", "1", "--q", "3", "--k", "6678671"]
        with subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            assert proc.stdout.readline().startswith(b"curve p=1 q=3 k=6678671:")
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=300) == EXIT_CLOSED
        assert "Traceback" not in err, err

    def test_not_normalized_curve(self):
        assert main(["classify", "--M", "4", "--N", "-4"]) == EXIT_USAGE


class TestSolveCommand:
    def test_solve_json_fields(self, capsys):
        code = main(
            [
                "solve",
                "--p",
                "1",
                "--q",
                "1",
                "--k",
                "5",
                "--radius-cap",
                "100",
                "--format",
                "json",
            ]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        for key in ("curve", "triplet", "quadruple", "point", "concordant", "heights", "stats"):
            assert key in report
        assert json.loads(json.dumps(report, sort_keys=True)) == report
        w = [int(v) for v in report["concordant"]]
        assert w[0] ** 2 + 5 * w[1] ** 2 == w[2] ** 2
        assert w[0] ** 2 - 5 * w[1] ** 2 == w[3] ** 2

    def test_effort_exhausted_exit_code(self):
        code = main(
            [
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
                "3",
            ]
        )
        assert code == EXIT_EXHAUSTED

    def test_factoring_budget_counts_as_exhausted(self, monkeypatch, capsys):
        calls = []

        def over_budget(psi, row_primes):
            calls.append(psi)
            _over_factoring_budget(psi, row_primes)

        monkeypatch.setattr(concordant.solver, "extended_square_factors", over_budget)
        code = main(["solve", "--p", "1", "--q", "3", "--k", "142", "--radius-cap", "100"])
        assert code == EXIT_EXHAUSTED
        assert calls
        assert "effort exhausted" in capsys.readouterr().err

    def test_factoring_budget_moves_to_next_class(self, monkeypatch):
        real = concordant.solver.extended_square_factors
        calls = []

        def first_call_over_budget(psi, row_primes):
            calls.append(psi)
            if len(calls) == 1:
                raise FactorizationIncomplete(10**40 + 1, [], 10**40 + 1)
            return real(psi, row_primes)

        monkeypatch.setattr(concordant.solver, "extended_square_factors", first_call_over_budget)
        report = run_solve(1, 3, 142, radius_cap=500)
        assert len(calls) > 1
        assert report["stats"]["method"] == "strong"

    def test_invalid_triplet_rejected(self):
        code = main(["solve", "--p", "1", "--q", "1", "--k", "5", "--triplet", "1,2"])
        assert code == EXIT_USAGE

    def test_auto_selection_reaches_weak_fallback(self):
        # no triplet given: dead classes are tried and skipped, the search
        # lands on the class whose space carries the small point
        report = run_solve(1, 3, 23, radius_cap=150)
        assert report["triplet"] == ["2", "3", "6"]
        assert report["stats"]["method"] == "weak"
        assert report["point"] == {"x": "75", "y": "210"}

    def test_height_ratio_diagnostics(self):
        report = run_solve(1, 1, 13, radius_cap=100)
        assert "point_over_quadruple" in report["heights"]

    def test_solve_with_fixture_pins(self, capsys):
        code = main(
            [
                "solve",
                "--p",
                "1",
                "--q",
                "3",
                "--k",
                "142",
                "--fixture",
                "n142",
                "--format",
                "json",
            ]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["quadruple"] == ["2352960", "1604507", "-1411786", "-52241"]
        assert report["stats"]["mu"] == "-71"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p", "1", "--q", "3", "--k", "5"], "records k = 142, not 5"),
            (["--p", "1", "--q", "3", "--k", "23"], "records k = 142, not 23"),
            (["--p", "1", "--q", "1", "--k", "5"], "records q = 3, not 1"),
            (["--M", "142", "--N", "-142"], "records q = 3, not 1"),
            (
                ["--p", "1", "--q", "3", "--k", "142", "--triplet", "2,1,2"],
                "records triplet = (1, 2, 2), not (2, 1, 2)",
            ),
            # -1 is a candidate, but pin_gamma parametrizes Q4 of mu = -71
            (
                ["--p", "1", "--q", "3", "--k", "142", "--mu=-1"],
                "records pin_gamma for mu = -71, not -1",
            ),
        ],
    )
    def test_flag_that_contradicts_the_fixture(self, capsys, flags, message):
        assert main(["solve", *flags, "--fixture", "n142"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: fixture n142 {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--p", "1", "--q", "3", "--k", "142", "--triplet", "1,2,2", "--mu=-71"],
            ["--M", "142", "--N", "-426"],
        ],
    )
    def test_flags_that_agree_with_the_fixture(self, capsys, flags):
        assert main(["solve", *flags, "--fixture", "n142", "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["quadruple"] == ["2352960", "1604507", "-1411786", "-52241"]

    @pytest.mark.parametrize("mu, completion_used", [("1", False), ("5", True)])
    def test_mu_pin(self, capsys, mu, completion_used):
        # (1, 3, 5), class (1, -1, -1): the candidates are 1 and -1, and 5
        # comes from the completion round (5, -5)
        argv = ["solve", "--p", "1", "--q", "3", "--k", "5", "--triplet", "1,-1,-1"]
        argv += [f"--mu={mu}", "--radius-cap", "300", "--format", "json"]
        assert main(argv) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert (stats["mu"], stats["mu_candidates"]) == (mu, ["1", "-1"])
        assert stats["completion_used"] is completion_used

    def test_mu_pin_outside_both_rounds(self, capsys):
        argv = ["solve", "--p", "1", "--q", "3", "--k", "5", "--triplet", "1,-1,-1", "--mu=17"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "mu=17 is not among the candidates [1, -1] or the completion factors [5, -5]" in err


class TestOptimizedInterpreter:
    """Result checks are explicit raises, so `python -O` keeps them."""

    @staticmethod
    def _run_optimized(*args):
        env = {**os.environ, "PYTHONPATH": str(Path(concordant.__file__).parents[1])}
        return subprocess.run(
            [sys.executable, "-O", *args], capture_output=True, env=env, timeout=300
        )

    def test_solve_exits_ok(self):
        proc = self._run_optimized("-m", "concordant", "solve", "--p", "1", "--q", "1", "--k", "5")
        assert proc.returncode == EXIT_OK, proc.stderr.decode()

    def test_failed_check_still_raises(self):
        script = (
            "from concordant.errors import VerificationFailure\n"
            "from concordant.quadforms import ConicParametrization, TernaryForm\n"
            "from concordant.quadforms import parametrize_conic\n"
            "ConicParametrization.is_valid = lambda self: False\n"
            "try:\n"
            "    parametrize_conic(TernaryForm(1, 0, 1, -1), (1, 0, 1))\n"
            "except VerificationFailure:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        proc = self._run_optimized("-c", script)
        assert proc.returncode == 0, proc.stderr.decode()

    def test_conic_point_check_still_raises(self):
        # X0^2 - X1^2 + 5*X2^2 has the Holzer box (2, 2, 1); a lattice search
        # that returned a point off the form, an imprimitive root or a root
        # outside the box is caught
        script = (
            "from concordant import quadforms\n"
            "from concordant.errors import VerificationFailure\n"
            "form = quadforms.TernaryForm(1, 0, -1, 5)\n"
            "quadforms.find_conic_point(form)\n"
            "for bad in ((1, 1, 1), (2, 2, 0), (2, 3, 1)):\n"
            "    quadforms._smallest_root = lambda *args, bad=bad: bad\n"
            "    try:\n"
            "        quadforms.find_conic_point(form)\n"
            "    except VerificationFailure:\n"
            "        continue\n"
            "    raise SystemExit(1)\n"
        )
        proc = self._run_optimized("-c", script)
        assert proc.returncode == 0, proc.stderr.decode()


class TestVerifyCommand:
    def test_zagier_point(self, capsys):
        assert main(ZAGIER_ARGS + ["--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is True

    def test_wrong_point_fails(self, capsys):
        code = main(["verify", "--M", "157", "--N", "-157", "--point", "1,1"])
        assert code == EXIT_USAGE

    def test_quadruple(self, capsys):
        code = main(
            [
                "verify",
                "--p",
                "1",
                "--q",
                "3",
                "--k",
                "23",
                "--quadruple",
                "75,0,75,75",
            ]
        )
        # (75,0,75,75) ~ (1,0,1,1): a trivial solution, still valid
        assert code == EXIT_OK

    def test_curve_without_pqk_split_still_verifiable(self, capsys):
        # membership checks do not need the (p, q, k) decomposition
        code = main(["verify", "--M", "-5", "--N", "5", "--point=-4,6", "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["valid"] is True

    def test_weierstrass_form(self, capsys):
        code = main(
            ["verify", "--weierstrass", "0,-25,0", "--point=-4,6", "--format", "json"]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["valid"] is True
        # the README example: y^2 = x^3 + 877x, with (0, 0) on it
        code = main(["verify", "--weierstrass", "0,877,0", "--point=0,0", "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["valid"] is True

    @pytest.mark.parametrize(
        "coefficients, point", [("0,0,0", "0,0"), ("0,-3,2", "1,0"), ("-2,1,0", "1,0")]
    )
    def test_weierstrass_singular_cubic_rejected(self, capsys, coefficients, point):
        # x^3, (x - 1)^2 (x + 2) and x (x - 1)^2: the point satisfies the
        # equation, but the curve is not an elliptic curve
        argv = ["verify", f"--weierstrass={coefficients}", "--point", point, "--format", "json"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "zero discriminant" in captured.err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--M", "23", "--N", "-69", "--point", "75,210", "--quadruple", "1,2,3,4"],
             "either --point or --quadruple, not both"),
            (["--weierstrass", "0,-25,0", "--point=-4,6", "--quadruple", "1,2,3,4"],
             "not --quadruple"),
            (["--weierstrass", "0,-25,0", "--point=-4,6", "--M", "5", "--N", "-5"],
             "not --M --N"),
            (["--weierstrass", "0,-25,0", "--point=-4,6", "--p", "1", "--q", "1", "--k", "5"],
             "not --p --q --k"),
        ],
    )
    def test_unread_flags_are_a_usage_error(self, capsys, argv, named):
        # each of these used to verify one thing and skip the rest in silence
        assert main(["verify", *argv, "--format", "json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert named in captured.err


class TestMalformedValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--p", "1", "--q", "1", "--k", "5", "--point", "1"],
            ["verify", "--p", "1", "--q", "1", "--k", "5", "--point", "1,0/0"],
            ["verify", "--p", "1", "--q", "1", "--k", "5", "--quadruple", "1,2,x"],
            ["verify", "--weierstrass", "1,2", "--point", "1,2"],
            ["solve", "--p", "1", "--q", "1", "--k", "5", "--triplet", "1,x,2"],
            ["solve", "--p", "1", "--q", "1", "--k", "5", "--radius-cap", "0"],
            ["solve", "--p", "1", "--q", "1", "--k", "5", "--radius-cap", "-3"],
            ["series", "--family", "cong5", "--max-k", "30", "--radius-cap", "0"],
            ["series", "--family", "cong5", "--max-k", "30", "--radius-cap", "-3"],
            # rejected before any worker process is started
            ["solve", "--p", "1", "--q", "1", "--k", "5", "--workers", "0"],
            ["series", "--family", "cong5", "--max-k", "30", "--workers", "-1"],
        ],
    )
    def test_usage_error(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestSeriesCommand:
    def test_empty_range_header_only(self, capsys):
        assert main(["series", "--family", "cong5", "--max-k", "4"]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [",".join(SERIES_COLUMNS)]

    def test_small_run_rows_verified(self, capsys):
        rows = run_series("cong5", 13, radius_cap=200)
        assert [r["k"] for r in rows] == ["5", "13"]
        for row in rows:
            assert row["status"] == "ok"
            k = int(row["k"])
            w = [int(row[c]) for c in ("w0", "w1", "w2", "w3")]
            assert w[0] ** 2 + k * w[1] ** 2 == w[2] ** 2
            assert w[0] ** 2 - k * w[1] ** 2 == w[3] ** 2

    def test_csv_schema_stable(self, capsys):
        assert main(
            ["series", "--family", "cong5", "--max-k", "5", "--radius-cap", "100"]
        ) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(SERIES_COLUMNS)
        assert len(lines) == 2

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            main(["series", "--family", "nope", "--max-k", "10"])

    def test_rank_two_family_emits_sum_row(self):
        rows = run_series("theta96", 14, radius_cap=300)
        assert [r["triplet"] for r in rows] == ["1;2;2", "2;-3;-6", "2;-6;-3"]
        assert [r["status"] for r in rows] == ["ok", "ok", "ok"]
        assert rows[2]["method"] == "sum"
        for row in rows:
            w = [int(row[c]) for c in ("w0", "w1", "w2", "w3")]
            assert w[0] ** 2 + 14 * w[1] ** 2 == w[2] ** 2
            assert w[0] ** 2 - 42 * w[1] ** 2 == w[3] ** 2

    def test_rank_two_sum_of_large_height(self, monkeypatch):
        # k = 2126: the sum's coordinates are past the factoring budget, so
        # its class is checked by square tests that factor nothing
        monkeypatch.setattr(ConcordantCurve, "square_classes", None)
        rows = concordant.cli._curve_rows("theta96", 300, (1, 3, 2126))
        got = [(r["k"], r["triplet"], r["status"], r["method"]) for r in rows]
        assert got == [
            ("2126", "1;2;2", "ok", "strong"),
            ("2126", "2;-3;-6", "ok", "strong"),
            ("2126", "2;-6;-3", "ok", "sum"),
        ]
        w = [int(rows[2][c]) for c in ("w0", "w1", "w2", "w3")]
        assert w[0] ** 2 + 2126 * w[1] ** 2 == w[2] ** 2
        assert w[0] ** 2 - 3 * 2126 * w[1] ** 2 == w[3] ** 2

    def test_sum_in_a_wrong_class_raises(self, monkeypatch):
        # P2 + 2*P1 is not torsion, and lies in P2's class (2, -3, -6):
        # x + M passes the square test over 2, x does not over -6
        real_add = ConcordantCurve.add

        def misplaced(curve, p1, p2):
            return real_add(curve, p2, curve.multiply(2, p1))

        monkeypatch.setattr(ConcordantCurve, "add", misplaced)
        with pytest.raises(InvalidArgument, match="unexpected descent class"):
            concordant.cli._curve_rows("theta96", 300, (1, 3, 14))

    @pytest.mark.parametrize(
        "family, max_k, rows",
        [
            ("cong5", 13, [("5", "1;-1;-1"), ("13", "1;-1;-1")]),
            ("theta96", 14, [("14", "1;2;2"), ("14", "2;-3;-6")]),
        ],
    )
    def test_factoring_budget_gives_exhausted_rows(self, monkeypatch, family, max_k, rows):
        monkeypatch.setattr(concordant.solver, "extended_square_factors", _over_factoring_budget)
        got = run_series(family, max_k, radius_cap=100)
        assert [(r["k"], r["triplet"]) for r in got] == rows
        assert {r["status"] for r in got} == {"exhausted"}

    @pytest.mark.parametrize("family, max_k", [("cong7", "200"), ("theta96", "400")])
    def test_worker_count_does_not_change_csv(self, capsys, family, max_k):
        outputs = []
        for workers in ("1", "2"):
            args = ["series", "--family", family, "--max-k", max_k, "--workers", workers]
            assert main(args) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") > 3

    def test_pool_leaves_the_collector_unfrozen(self):
        # the pool is forked with this process's objects frozen, and they
        # are handed back to the collector once the workers exist
        rows = run_series("cong5", 13, radius_cap=100, workers=2)
        assert [r["k"] for r in rows] == ["5", "13"]
        assert gc.get_freeze_count() == 0

    def test_one_process_pool_per_run(self, monkeypatch):
        built = []
        real_pool = concordant.cli._WorkerPool

        def counting_pool(*args, **kwargs):
            built.append(args)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(concordant.cli, "_WorkerPool", counting_pool)
        rows = run_series("cong5", 61, radius_cap=300, workers=2)
        assert [r["k"] for r in rows] == ["5", "13", "29", "37", "53", "61"]
        assert built == [(2,)]
        run_series("cong5", 13, radius_cap=100, workers=1)
        assert len(built) == 1
        # solve: k = 191 is searched at all three rungs of the ladder
        run_solve(1, 1, 191, radius_cap=300, workers=2)
        assert built == [(2,), (2,)]
        run_solve(1, 1, 191, radius_cap=300, workers=1)
        assert len(built) == 2

    @needs_fork
    def test_worker_error_is_raised_not_hung(self):
        # a whole curve, classify included, runs in a worker; an error it
        # raises must reach the caller.  A subprocess bounds the wait, so a
        # pool that hangs fails the test.
        script = (
            "import concordant.cli as cli\n"
            "from concordant.errors import FactorizationIncomplete\n"
            "def over_budget(p, q, k):\n"
            "    raise FactorizationIncomplete(k, [], k)\n"
            "cli.classify = over_budget\n"
            "try:\n"
            "    cli.run_series('cong5', 61, workers=2)\n"
            "except FactorizationIncomplete as exc:\n"
            "    raise SystemExit(0 if (exc.n, exc.cofactor) == (5, 5) else 1)\n"
            "raise SystemExit(1)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(concordant.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr.decode()


class TestSolveJobMap:
    """solve runs a rung's classes as jobs; the first class in order that
    hits wins, for any worker count."""

    @staticmethod
    def _solve(capsys, k, workers):
        args = ["solve", "--p", "1", "--q", "1", "--k", k, "--radius-cap", "300"]
        code = main(args + ["--workers", workers, "--format", "json"])
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("k", ["34", "191"])
    def test_worker_count_does_not_change_json(self, capsys, k):
        # k = 34: an earlier class is exhausted at the first rung and later
        # ones hit; k = 191: the hit comes at the last rung
        serial = self._solve(capsys, k, "1")
        parallel = self._solve(capsys, k, "2")
        assert serial[0] == parallel[0] == EXIT_OK
        assert serial[1] == parallel[1]

    def test_resumed_searches_cross_a_crowded_pool(self):
        # four workers, more than the classes of a rung; ladder 100/500/600
        # with the hit at radius 375 of the second class, so each rung's jobs
        # resume searches other workers advanced.  Subprocesses bound the
        # wait on a hung pool.
        env = {**os.environ, "PYTHONPATH": str(Path(concordant.__file__).parents[1])}
        outputs = []
        for workers in ("1", "4"):
            proc = subprocess.run(
                [sys.executable, "-m", "concordant", "solve", "--p", "1", "--q", "1",
                 "--k", "127", "--radius-cap", "600", "--workers", workers, "--format", "json"],
                capture_output=True, env=env, timeout=120,
            )
            assert proc.returncode == EXIT_OK, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["stats"]["pairs_tested"] == 682576

    def test_all_classes_exhausted_at_any_worker_count(self, capsys):
        serial = self._solve(capsys, "127", "1")
        parallel = self._solve(capsys, "127", "2")
        assert serial[0] == parallel[0] == EXIT_EXHAUSTED
        assert serial[2] == parallel[2]
        assert serial[2].startswith("effort exhausted: ")

    @needs_fork
    def test_first_class_wins_when_it_finishes_last(self, monkeypatch):
        serial = run_solve(1, 1, 34, radius_cap=300)
        assert serial["triplet"] == [str(v) for v in _FIRST_HIT_34.as_tuple()]
        monkeypatch.setattr(concordant.cli, "_search_class", _first_hit_finishes_last)
        assert run_solve(1, 1, 34, radius_cap=300, workers=2) == serial


class TestReproduceCommand:
    def test_n142_ok(self):
        report = run_reproduce(load_fixture("n142"))
        assert report["ok"] is True
        stages = [d["stage"] for d in report["stages"]]
        for expected in ("y_conic", "kernel", "mu_candidates", "quartic", "x", "point_x"):
            assert expected in stages

    def test_k23_ok(self):
        report = run_reproduce(load_fixture("k23-weak"))
        assert report["ok"] is True

    def test_replay_runs_the_production_solve(self, monkeypatch):
        calls = []
        real = concordant.cli.prepare_search

        def counting(space, pins):
            calls.append(pins)
            return real(space, pins)

        monkeypatch.setattr(concordant.cli, "prepare_search", counting)
        assert run_reproduce(load_fixture("n142"))["ok"] is True
        assert len(calls) == 1
        assert calls[0].mu == -71

    @pytest.mark.parametrize(
        "old, new, reason",
        [
            ("pin_mu = -71", "pin_mu = 17", "not among the candidates"),
        ],
    )
    def test_invalid_pin_is_a_mismatch(self, tmp_path, capsys, old, new, reason):
        path = _edited_n142(tmp_path, old, new)
        assert main(["reproduce", "--fixture", path]) == EXIT_MISMATCH
        captured = capsys.readouterr()
        assert reason in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("expect_rho = 20,3", "expect_rho = 1,1", "stage 'rho': expected (1, 1), got (20, 3)"),
            # a scalar where the stage yields several values is compared,
            # not converted
            (
                "expect_kernel = 2552,-315,-355",
                "expect_kernel = 2552",
                "stage 'kernel': expected 2552, got (2552, -315, -355)",
            ),
            (
                "expect_space_e_d = 3,-8,2",
                "expect_space_e_d = 3",
                "stage 'space:e_d': expected 3, got (3, -8, 2)",
            ),
            (
                "expect_cross_term = -9088",
                "expect_cross_term = -9088,1",
                "stage 'cross_term': expected (-9088, 1), got -9088",
            ),
        ],
    )
    def test_wrong_expectation_names_its_stage(self, tmp_path, capsys, old, new, message):
        path = _edited_n142(tmp_path, old, new)
        assert main(["reproduce", "--fixture", path]) == EXIT_MISMATCH
        captured = capsys.readouterr()
        assert captured.err == f"reproduction mismatch: {message}\n"
        assert captured.out == ""

    def test_cli_exit_codes(self, capsys):
        assert main(["reproduce", "--fixture", "n142"]) == EXIT_OK
        assert main(["reproduce", "--fixture", "missing-name"]) == EXIT_USAGE

    def test_phi_that_misses_q1_rejected(self, tmp_path, capsys):
        # rows of the right shape that do not sweep Q1 = 3*X0^2 - 8*X1^2 + 2*X2^2
        path = _edited_n142(
            tmp_path, "pin_phi = 0,16,0;8,0,3;-16,0,6", "pin_phi = 0,16,0;8,0,3;-16,0,7"
        )
        assert main(["reproduce", "--fixture", path]) == EXIT_MISMATCH
        captured = capsys.readouterr()
        assert "pinned parametrization does not sweep the conic" in captured.err
        assert captured.out == ""

    def test_k23_pins_nothing(self):
        # its replay is the plain production solve of the class
        assert pins_from_fixture(load_fixture("k23-weak")) == StagePins()

    @pytest.mark.parametrize(
        "name, old, new, mismatch",
        [
            ("k23-weak", "failure = 1", "failure = 0", "pair found, got condition-failure"),
            ("n142", "pin_mu = -71", "pin_mu = -71\nexpect_condition_failure = 0", None),
            (
                "n142",
                "pin_mu = -71",
                "pin_mu = -71\nexpect_condition_failure = 1",
                "condition-failure, got pair found",
            ),
        ],
    )
    def test_condition_expectation_is_compared_both_ways(
        self, tmp_path, capsys, name, old, new, mismatch
    ):
        # 1 expects that no quadric has a zero-coordinate point, 0 that one has
        code = main(["reproduce", "--fixture", _edited_fixture(tmp_path, name, old, new)])
        captured = capsys.readouterr()
        if mismatch is None:
            assert code == EXIT_OK
            assert "  condition: ok\n" in captured.out
        else:
            assert code == EXIT_MISMATCH
            assert captured.err == f"reproduction mismatch: stage 'condition': expected {mismatch}\n"

    def test_corrupted_expectation_mismatch(self, tmp_path):
        import importlib.resources as resources

        src = (resources.files("concordant") / "fixtures" / "n142.fixture").read_text()
        ref = tmp_path / "wrong.fixture"
        ref.write_text(src.replace("expect_cross_term = -9088", "expect_cross_term = -9090"))
        assert main(["reproduce", "--fixture", str(ref)]) == EXIT_MISMATCH


class TestMalformedFixture:
    """A fixture value of the wrong shape, or a key no replay reads, is named:
    solve reports a usage error and reproduce a mismatch, as for an invalid
    pin."""

    SOLVE = ["solve", "--p", "1", "--q", "3", "--k", "142", "--fixture"]
    ENTRY_POINTS = [
        (SOLVE, EXIT_USAGE, "error:"),
        (["reproduce", "--fixture"], EXIT_MISMATCH, "reproduction mismatch:"),
    ]

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("triplet = 1,2,2", "triplet = 1,2", "triplet"),
            ("pin_phi = 0,16,0;8,0,3;-16,0,6", "pin_phi = 1,2,3", "pin_phi"),
            (
                "pin_gamma = -5,10,279;-19,180,-90;-5,81,-360",
                "pin_gamma = -5,10,279;-19,180,-90",
                "pin_gamma",
            ),
        ],
    )
    @pytest.mark.parametrize("argv, code, prefix", ENTRY_POINTS)
    def test_malformed_value(self, tmp_path, capsys, old, new, key, argv, code, prefix):
        assert main([*argv, _edited_n142(tmp_path, old, new)]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(prefix)
        assert f"{key} must be" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, code, prefix", ENTRY_POINTS)
    def test_gamma_without_its_mu(self, tmp_path, capsys, argv, code, prefix):
        # pin_gamma parametrizes Q4 of one square factor
        assert main([*argv, _edited_n142(tmp_path, "pin_mu = -71\n", "")]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(prefix)
        assert "pin_gamma needs the pin_mu of its Q4" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "old, new, key", [("k = 142", "k = 1,2", "k"), ("q = 3", "q = 3/2", "q")]
    )
    def test_malformed_curve_is_a_mismatch(self, tmp_path, capsys, old, new, key):
        path = _edited_n142(tmp_path, old, new)
        assert main(["reproduce", "--fixture", path]) == EXIT_MISMATCH
        captured = capsys.readouterr()
        assert captured.err.startswith("reproduction mismatch:")
        assert f"{key} must be an integer" in captured.err
        assert captured.out == ""

    def test_malformed_curve_in_solve(self, tmp_path, capsys):
        # solve compares the fixture's curve with its flags
        assert main([*self.SOLVE, _edited_n142(tmp_path, "k = 142", "k = 1,2")]) == EXIT_USAGE
        assert "k must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("expect_cross_term = -9088", "expect_crossterm = -9090", "expect_crossterm"),
            ("pin_mu = -71", "pin_mu = -71\npin_sigma = 3", "pin_sigma"),
            # the paper's base points are not pinned: the rows are
            (
                "pin_psi = -90,81,-20;-719,640,-144;-9,40,-16",
                "pin_psi = -90,81,-20;-719,640,-144;-9,40,-16\npin_base_q3 = 10,9,1",
                "pin_base_q3",
            ),
        ],
    )
    @pytest.mark.parametrize("argv, code, prefix", ENTRY_POINTS)
    def test_unknown_key_is_named(self, tmp_path, capsys, old, new, key, argv, code, prefix):
        # a misspelled key would otherwise never be compared or pinned
        assert main([*argv, _edited_n142(tmp_path, old, new)]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(prefix)
        assert f"unknown key {key!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [SOLVE, ["reproduce", "--fixture"]])
    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_path_is_a_usage_error(self, tmp_path, capsys, argv, kind):
        path = tmp_path
        if kind == "not utf-8":
            path = tmp_path / "binary.fixture"
            path.write_bytes(b"p = 1\n\xff\xfe = 2\n")
        assert main([*argv, str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""


class TestFixtureParsing:
    def test_scalar_list_rows_fractions(self):
        fx = parse_fixture("a = 5\nb = 1,2,3\nc = 1,2;3,4\nd = 5/7\n")
        assert fx["a"] == 5
        assert fx["b"] == (1, 2, 3)
        assert fx["c"] == ((1, 2), (3, 4))
        from fractions import Fraction

        assert fx["d"] == Fraction(5, 7)

    def test_duplicate_key_rejected(self):
        with pytest.raises(InvalidArgument):
            parse_fixture("a = 1\na = 2\n")
