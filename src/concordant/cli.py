"""Command-line surface.

Subcommands:
  classify    descent bookkeeping for a curve: generators, triplets, classes,
              per-triplet solvability verdicts with evidence
  solve       find and verify a non-torsion point on y^2 = x(x+M)(x+N)
  verify      check a point or quadric quadruple exactly
  series      run a curve family, one CSV row per solved curve
  reproduce   replay a pinned fixture chain and diff every stage

Exit codes: 0 success, 1 stdout closed by its reader before the output was
written, 2 usage error, 3 search effort exhausted, 4 reproduction mismatch.
All integers cross the interface as decimal strings; heights are printed
with two decimals.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import json
import os
import sys
import time
from fractions import Fraction
from multiprocessing import Pipe, Process
from multiprocessing.connection import wait
from types import SimpleNamespace

from .curves import ConcordantCurve, CurvePoint, log_height, point_log_height
from .descent import (
    DescentTriplet,
    LocalImages,
    build_homogeneous_space,
    classify,
    lift_solution,
)
from .errors import (
    ConcordantError,
    DegenerateKernel,
    EffortExhausted,
    FactorizationIncomplete,
    InvalidArgument,
    NoSolution,
    NotNormalized,
    StageMismatch,
)
from .fixtures import Fixture, load_fixture
from .integers import is_perfect_square
from .solver import PreparedSearch, SearchOutcome, StagePins, prepare_search

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_MISMATCH = 4


def _s(value) -> str:
    """Decimal-string encoding for arbitrary-precision values."""
    # exact-type test first: isinstance against Fraction goes through the
    # numbers ABCs, and almost every value encoded is a plain int
    if type(value) is int:
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    return str(int(value))


def _height_str(h: float) -> str:
    return f"{h:.2f}"


def _point_json(p: CurvePoint):
    if p.is_infinity:
        return {"infinity": True}
    return {"x": _s(p.x), "y": _s(p.y)}


# ---------------------------------------------------------------------------
# curve parsing

def _curve_only(args) -> ConcordantCurve:
    if args.p is not None or args.q is not None or args.k is not None:
        if None in (args.p, args.q, args.k) or args.M is not None or args.N is not None:
            raise InvalidArgument("give either --p --q --k or --M --N, not a mix")
        return ConcordantCurve.from_pqk(args.p, args.q, args.k)
    if args.M is not None and args.N is not None:
        return ConcordantCurve(args.M, args.N)
    raise InvalidArgument("curve parameters (--p --q --k or --M --N) are required")


def _parse_list(flag: str, text: str, count: int, kind=int) -> list:
    """The `count` comma-separated values of a flag, each read by `kind`
    (int or Fraction); a malformed list is a usage error."""
    parts = text.split(",")
    if len(parts) != count:
        raise InvalidArgument(f"{flag} needs {count} comma-separated values, got {text!r}")
    try:
        return [kind(v) for v in parts]
    except (ValueError, ZeroDivisionError):
        raise InvalidArgument(f"{flag} has a malformed value in {text!r}") from None


def _has_shape(value, shape: tuple[int, ...]) -> bool:
    # shape () is one int; (n, *rest) is n values of shape rest
    if not shape:
        return type(value) is int
    return (
        isinstance(value, tuple)
        and len(value) == shape[0]
        and all(_has_shape(v, shape[1:]) for v in value)
    )


def _fixture_value(fixture: Fixture, key: str, shape: tuple[int, ...]):
    """The fixture's value for `key`, which must have `shape`; a malformed
    value is an InvalidArgument naming the key."""
    value = fixture[key]
    if not _has_shape(value, shape):
        want = " by ".join(map(str, shape)) + " integers" if shape else "an integer"
        raise InvalidArgument(f"fixture {fixture.name}: {key} must be {want}, got {value!r}")
    return value


# fixture key -> (StagePins field, shape of its value)
_PIN_KEYS = {
    "pin_phi": ("phi_rows", (3, 3)),
    "pin_psi": ("psi_rows", (3, 3)),
    "pin_mu": ("mu", ()),
    "pin_gamma": ("gamma_rows", (3, 3)),
}


def pins_from_fixture(fixture: Fixture) -> StagePins:
    """The stage choices a fixture pins.  Every key of the fixture must be
    one that a replay reads: a misspelled pin or expectation would
    otherwise be skipped without a word.  `pin_gamma` sweeps Q4 of `pin_mu`."""
    unknown = sorted(set(fixture.values) - _FIXTURE_KEYS)
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise InvalidArgument(f"fixture {fixture.name}: unknown key {names}")
    if "pin_gamma" in fixture and "pin_mu" not in fixture:
        raise InvalidArgument(f"fixture {fixture.name}: pin_gamma needs the pin_mu of its Q4")
    return StagePins(
        **{
            field: _fixture_value(fixture, key, shape)
            for key, (field, shape) in _PIN_KEYS.items()
            if key in fixture
        }
    )


def _solve_pins(fixture: Fixture, pqk, triplet: DescentTriplet | None, mu: int | None):
    """(triplet, pins) of a solve that names `fixture`.  Its pins belong to
    the curve, class and square factor it records, so a flag that names
    another is a usage error naming the key.  The class defaults to the
    fixture's."""
    pins = pins_from_fixture(fixture)
    for key, value in [*zip("pqk", pqk), ("triplet", triplet and triplet.as_tuple())]:
        shape = (3,) if key == "triplet" else ()
        if key in fixture and value not in (None, _fixture_value(fixture, key, shape)):
            raise InvalidArgument(
                f"fixture {fixture.name} records {key} = {fixture[key]}, not {value}"
            )
    if pins.gamma_rows is not None and mu not in (None, pins.mu):
        raise InvalidArgument(
            f"fixture {fixture.name} records pin_gamma for mu = {pins.mu}, not {mu}"
        )
    if triplet is None and "triplet" in fixture:
        triplet = DescentTriplet(*fixture["triplet"])
    return triplet, pins


# ---------------------------------------------------------------------------
# classify

def run_classify(p: int, q: int, k: int) -> dict:
    cls = classify(p, q, k)
    classes_json = []
    for c in cls.classes:
        classes_json.append(
            {
                "representative": [_s(v) for v in c["representative"].as_tuple()],
                "members": [[_s(v) for v in t.as_tuple()] for t in c["members"]],
                "is_torsion_class": c["is_torsion_class"],
                "survives": c["survives"],
                "verdicts": [
                    {
                        "triplet": [_s(v) for v in t.as_tuple()],
                        "solvable": ok,
                        "evidence": ev,
                    }
                    for t, ok, ev in c["verdicts"]
                ],
            }
        )
    return {
        "command": "classify",
        "curve": {"p": _s(p), "q": _s(q), "k": _s(k), "m": _s(p * k), "n": _s(-q * k)},
        "generators": [_s(g) for g in cls.generators],
        "group_size": cls.group_size,
        "triplet_count": len(cls.triplets),
        "classes": classes_json,
        "surviving_triplets": [[_s(v) for v in t.as_tuple()] for t in cls.surviving_triplets],
        "surviving_class_representatives": [
            [_s(v) for v in c["representative"].as_tuple()] for c in cls.surviving_classes
        ],
    }


# ---------------------------------------------------------------------------
# solve

def _verify_point(curve: ConcordantCurve, point: CurvePoint):
    if not curve.contains(point):
        raise InvalidArgument(f"{point} fails the curve equation")
    if curve.is_torsion(point):
        raise InvalidArgument(f"{point} is a torsion point")


@contextlib.contextmanager
def _job_map(workers: int):
    """An ordered, lazy map over a run's independent jobs: the builtin map
    for a serial run, else the imap of the run's one set of worker
    processes.  Leaving the block stops the workers, so a run that is done
    does not wait for jobs that were started ahead of need."""
    if workers <= 1:
        yield map
        return
    # forked workers share this process's objects; frozen, those stay out of
    # the workers' garbage collections, which would otherwise walk every one
    # and copy the pages they sit on
    gc.freeze()
    try:
        pool = _WorkerPool(workers)
    finally:
        gc.unfreeze()
    with pool:
        yield pool.imap


class _WorkerPool:
    """Worker processes that each talk to this process over a pipe of their
    own.  The workers of a multiprocessing.Pool share one result queue and
    its lock, and a worker stopped while it holds that lock makes the pool's
    terminate() wait forever; stopping one of these mid-job holds nothing."""

    def __init__(self, workers: int):
        self.workers = []
        for _ in range(workers):
            here, there = Pipe()
            proc = Process(target=_serve, args=(there,), daemon=True)
            proc.start()
            there.close()
            self.workers.append((proc, here))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for proc, _ in self.workers:
            proc.terminate()
        for proc, conn in self.workers:
            proc.join()
            conn.close()

    def imap(self, func, items):
        """func over items, one job per idle worker, yielding the results in
        the order of items; a job's exception is raised in its place.  One
        imap at a time: each takes every worker to be idle."""
        jobs = enumerate(items)
        idle = [conn for _, conn in self.workers]
        running, done, want = {}, {}, 0
        while True:
            while idle:
                job = next(jobs, None)
                if job is None:
                    break
                conn = idle.pop()
                conn.send((func, job[1]))
                running[conn] = job[0]
            if want in done:
                ok, value = done.pop(want)
                want += 1
                if not ok:
                    raise value
                yield value
            elif not running:
                return
            else:
                for conn in wait(list(running)):
                    done[running.pop(conn)] = conn.recv()
                    idle.append(conn)


def _serve(conn):
    # one worker: run each (func, item) that arrives, send back (ok, value)
    while True:
        try:
            func, item = conn.recv()
        except EOFError:
            return
        try:
            result = (True, func(item))
        except Exception as exc:
            result = (False, exc)
        conn.send(result)


def _search_class(
    curve: ConcordantCurve,
    cap: int,
    pins: StagePins | None,
    state: DescentTriplet | PreparedSearch,
) -> tuple[DescentTriplet | PreparedSearch, tuple[SearchOutcome, CurvePoint] | EffortExhausted]:
    """One class searched at one rung's radius cap.  `state` is the class's
    triplet at the first rung and, after that, what the previous rung
    returned for it: its prepared search, advanced that far, or the triplet
    again when preparing it failed.  Returns (state, result), where result
    is (outcome, point), the point lifted to the curve and checked there,
    or the EffortExhausted that ends the class at this rung.  A class whose
    search runs out, whose space is provably empty or degenerate, or whose
    square factors outrun the factoring budget is exhausted."""
    t = state if isinstance(state, DescentTriplet) else state.space.triplet
    try:
        if state is t:
            state = prepare_search(build_homogeneous_space(t, curve.m, curve.n), pins)
        outcome = state.advance(cap)
    except EffortExhausted as exc:
        return state, exc
    except (NoSolution, DegenerateKernel, FactorizationIncomplete) as exc:
        return state, EffortExhausted(f"{t.as_tuple()}: {exc}")
    point = lift_solution(t, curve.m, curve.n, outcome.space_solution)
    _verify_point(curve, point)
    return state, (outcome, point)


def search_curve(
    curve: ConcordantCurve,
    triplets: list[DescentTriplet],
    radius_cap: int,
    pins: StagePins | None = None,
    jobs=map,
) -> tuple[DescentTriplet, SearchOutcome, CurvePoint]:
    """The class x cap-ladder search up to `radius_cap`: with several
    classes the rungs are 100 and 500 where below the cap, then the cap,
    and every class is searched at a rung before any class gets the next.
    One class has nothing to share the radius with, so the cap is its only
    rung; lower rungs could only let its completion `mu` round hit before
    its candidate round has been scanned to the cap.  Each class is
    prepared once and its search resumed at the next rung; `jobs` maps the
    rung's classes in order (see `_job_map`), and each job hands back the
    class's advanced search.  The first class in that order that hits
    wins, however the jobs are run.

    Returns (triplet, outcome, point) for the first hit; raises
    EffortExhausted naming the last failure when every class is exhausted
    at every rung."""
    if not triplets:
        raise EffortExhausted("no surviving descent classes to search")
    states = list(triplets)
    rungs = [c for c in (100, 500) if c < radius_cap] if len(triplets) > 1 else []
    for cap in rungs + [radius_cap]:
        results = jobs(functools.partial(_search_class, curve, cap, pins), states)
        states = []
        for t, (state, result) in zip(triplets, results):
            if not isinstance(result, EffortExhausted):
                return (t, *result)
            states.append(state)
    raise result  # every class exhausted: the last one's message


def run_solve(
    p: int,
    q: int,
    k: int,
    triplet: DescentTriplet | None = None,
    radius_cap: int = 2000,
    workers: int = 1,
    pins: StagePins | None = None,
) -> dict:
    curve = ConcordantCurve.from_pqk(p, q, k)
    m, n = curve.m, curve.n
    if triplet is not None:
        candidates = [triplet]
    else:
        candidates = [c["representative"] for c in classify(p, q, k).surviving_classes]
    with _job_map(workers) as jobs:
        t, outcome, point = search_curve(curve, candidates, radius_cap, pins, jobs)
    concordant = curve.to_quadric(point)
    if curve.quadric_residues(concordant) != (0, 0):
        raise InvalidArgument("concordant quadruple failed re-verification")
    translates = curve.torsion_translates(point)
    param_h = log_height(outcome.parameter)
    quad_h = log_height(outcome.quadruple)
    point_h = point_log_height(point)
    heights = {
        "parameter": _height_str(param_h),
        "quadruple": _height_str(quad_h),
        "point": _height_str(point_h),
        "concordant": _height_str(log_height(concordant)),
    }
    # diagnostic growth ratios: the loop gains ~2x (weak) or ~4x (strong)
    # digits per parameter digit, and lifting costs about another 3x
    if param_h > 0:
        heights["quadruple_over_parameter"] = _height_str(quad_h / param_h)
    if quad_h > 0:
        heights["point_over_quadruple"] = _height_str(point_h / quad_h)
    stats = {
        "method": outcome.method,
        "pairs_tested": outcome.pairs_tested,
        "radius_cap": radius_cap,
    }
    if outcome.chain is not None:
        stats["mu"] = _s(outcome.chain.mu)
        stats["mu_candidates"] = [_s(v) for v in outcome.chain.mu_candidates]
        stats["completion_used"] = outcome.chain.completion_used
    stats["parameter"] = [_s(v) for v in outcome.parameter]
    return {
        "command": "solve",
        "curve": {"p": _s(p), "q": _s(q), "k": _s(k), "m": _s(m), "n": _s(n)},
        "triplet": [_s(v) for v in t.as_tuple()],
        "quadruple": [_s(v) for v in outcome.quadruple],
        "space_solution": [_s(v) for v in outcome.space_solution],
        "point": _point_json(point),
        "concordant": [_s(v) for v in concordant],
        "translates": [_point_json(pt) for pt in translates],
        "heights": heights,
        "stats": stats,
    }


# ---------------------------------------------------------------------------
# verify

def run_verify(args) -> dict:
    report = {"command": "verify", "checks": []}
    if args.weierstrass:
        flags = ("p", "q", "k", "M", "N", "quadruple")
        unread = [f"--{f}" for f in flags if getattr(args, f) is not None]
        if unread:
            raise InvalidArgument(f"--weierstrass takes --point only, not {' '.join(unread)}")
        a2, a4, a6 = _parse_list("--weierstrass", args.weierstrass, 3)
        # the discriminant of x^3 + a2*x^2 + a4*x + a6, up to the factor 16
        disc = a2 * a2 * a4 * a4 - 4 * a4**3 - 4 * a2**3 * a6 - 27 * a6 * a6 + 18 * a2 * a4 * a6
        if disc == 0:
            raise InvalidArgument(
                f"--weierstrass {a2},{a4},{a6} has zero discriminant: the cubic is singular"
            )
        if not args.point:
            raise InvalidArgument("--weierstrass needs --point")
        x, y = _parse_list("--point", args.point, 2, Fraction)
        ok = y * y == x**3 + a2 * x * x + a4 * x + a6
        report["checks"].append(
            {
                "kind": "weierstrass-point",
                "curve": {"a2": _s(a2), "a4": _s(a4), "a6": _s(a6)},
                "point": {"x": _s(x), "y": _s(y)},
                "valid": ok,
                "height": _height_str(point_log_height(CurvePoint.affine(x, y))),
            }
        )
        report["valid"] = ok
        return report
    if args.point is not None and args.quadruple is not None:
        raise InvalidArgument("give either --point or --quadruple, not both")
    curve = _curve_only(args)
    if args.point:
        x, y = _parse_list("--point", args.point, 2, Fraction)
        pt = CurvePoint.affine(x, y)
        ok = curve.contains(pt)
        entry = {
            "kind": "curve-point",
            "curve": {"m": _s(curve.m), "n": _s(curve.n)},
            "point": _point_json(pt),
            "valid": ok,
            "height": _height_str(point_log_height(pt)),
        }
        if ok and not pt.is_infinity and pt.y != 0:
            entry["square_classes"] = [_s(c) for c in curve.square_classes(pt)]
            entry["torsion"] = curve.is_torsion(pt)
        report["checks"].append(entry)
    elif args.quadruple:
        quad = tuple(_parse_list("--quadruple", args.quadruple, 4))
        res = curve.quadric_residues(quad)
        ok = res == (0, 0)
        entry = {
            "kind": "concordant-quadruple",
            "curve": {"m": _s(curve.m), "n": _s(curve.n)},
            "quadruple": [_s(v) for v in quad],
            "residues": [_s(r) for r in res],
            "valid": ok,
            "height": _height_str(log_height(quad)),
        }
        if ok:
            pt = curve.from_quadric(quad)
            entry["point"] = _point_json(pt)
            if not pt.is_infinity and pt.y != 0:
                entry["square_classes"] = [_s(c) for c in curve.square_classes(pt)]
        report["checks"].append(entry)
    else:
        raise InvalidArgument("verify needs --point or --quadruple")
    report["valid"] = all(c["valid"] for c in report["checks"])
    return report


# ---------------------------------------------------------------------------
# series

def _primes_upto(bound: int):
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    out = []
    for i in range(2, bound + 1):
        if sieve[i]:
            out.append(i)
            for j in range(i * i, bound + 1, i):
                sieve[j] = 0
    return out


# name -> (p, q, multiplier, modulus, residue): k = multiplier*L for each
# prime L = residue mod modulus
FAMILIES = {
    "cong5": (1, 1, 1, 8, 5),
    "cong7": (1, 1, 1, 8, 7),
    "twice7": (1, 1, 2, 8, 7),
    "theta5": (1, 3, 1, 24, 5),
    "theta96": (1, 3, 2, 96, 7),
}

SERIES_COLUMNS = [
    "family",
    "p",
    "q",
    "k",
    "triplet",
    "status",
    "method",
    "mu",
    "rho0",
    "rho1",
    "w0",
    "w1",
    "w2",
    "w3",
    "height_w",
    "pairs_tested",
]


def _family_curves(family: str, max_k: int) -> list[tuple[int, int, int]]:
    if family not in FAMILIES:
        raise InvalidArgument(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    p, q, multiplier, modulus, residue = FAMILIES[family]
    primes = _primes_upto(max_k // multiplier)
    return [(p, q, multiplier * prime) for prime in primes if prime % modulus == residue]


def _series_row(family, p, q, k, t, status, outcome=None, curve=None, point=None):
    row = {c: "" for c in SERIES_COLUMNS}
    row.update(
        family=family,
        p=_s(p),
        q=_s(q),
        k=_s(k),
        triplet=";".join(_s(v) for v in t.as_tuple()),
        status=status,
    )
    if outcome is not None:
        row["method"] = outcome.method
        row["pairs_tested"] = str(outcome.pairs_tested)
        row["rho0"], row["rho1"] = (_s(v) for v in outcome.parameter)
        if outcome.chain is not None:
            row["mu"] = _s(outcome.chain.mu)
    if point is not None and curve is not None:
        w = curve.to_quadric(point)
        if curve.quadric_residues(w) != (0, 0):
            raise InvalidArgument("series row failed re-verification")
        row["w0"], row["w1"], row["w2"], row["w3"] = (_s(v) for v in w)
        row["height_w"] = _height_str(log_height(w))
    return row


def run_series(family: str, max_k: int, radius_cap: int = 300, workers: int = 1) -> list[dict]:
    """One job per curve of the family, rows in the order of the curves."""
    curves = list(_family_curves(family, max_k))
    with _job_map(workers) as jobs:
        per_curve = jobs(functools.partial(_curve_rows, family, radius_cap), curves)
        return [row for rows in per_curve for row in rows]


def _curve_rows(family: str, radius_cap: int, pqk: tuple[int, int, int]) -> list[dict]:
    p, q, k = pqk
    curve = ConcordantCurve.from_pqk(p, q, k)
    if family == "theta96":
        return _theta96_rows(family, p, q, k, curve, radius_cap)
    reps = [c["representative"] for c in classify(p, q, k).surviving_classes]
    # a class with no point over some Q_ell has no rational point, so it
    # cannot hit; the exhausted row still names the first survivor
    local = LocalImages(p, q, k)
    kept = [t for t in reps if not local.obstructions(t)]
    try:
        t, outcome, point = search_curve(curve, kept, radius_cap)
    except EffortExhausted:
        t = reps[0] if reps else DescentTriplet(1, 1, 1)
        return [_series_row(family, p, q, k, t, "exhausted")]
    return [_series_row(family, p, q, k, t, "ok", outcome, curve, point)]


def _theta96_rows(family, p, q, k, curve, radius_cap):
    """The rank-2 family: two independent spaces are searched and the third
    class's point is their elliptic-curve sum."""
    rows = []
    points = []
    for trip in ((1, 2, 2), (2, -3, -6)):
        t = DescentTriplet(*trip)
        try:
            _, outcome, point = search_curve(curve, [t], radius_cap)
        except EffortExhausted:
            rows.append(_series_row(family, p, q, k, t, "exhausted"))
            continue
        rows.append(_series_row(family, p, q, k, t, "ok", outcome, curve, point))
        points.append(point)
    if len(points) == 2:
        total = curve.add(points[0], points[1])
        t3 = DescentTriplet(2, -6, -3)
        _verify_point(curve, total)
        # x+M, x, x+N over t3's entries must be rational squares: a test
        # that factors nothing, however large the sum's coordinates
        x = total.x
        for value, c in zip((x + curve.m, x, x + curve.n), t3.as_tuple()):
            r = value / c
            if None in (is_perfect_square(r.numerator), is_perfect_square(r.denominator)):
                raise InvalidArgument("sum point landed in an unexpected descent class")
        row = _series_row(family, p, q, k, t3, "ok", None, curve, total)
        row["method"] = "sum"
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# reproduce

def _expect(stage, expected, actual, diffs):
    ok = expected == actual
    diffs.append({"stage": stage, "expected": expected, "actual": actual, "ok": ok})
    if not ok:
        raise StageMismatch(stage, expected, actual)


def _quartic_value(outcome):
    (s, t), quartic = outcome.parameter, outcome.chain.quartic
    return sum(c * s ** (4 - i) * t**i for i, c in enumerate(quartic))


def _translates(replay, coord) -> set:
    # one coordinate of the affine torsion translates, the point's own left out
    values = {coord(pt) for pt in replay.translates if not pt.is_infinity}
    values.discard(coord(replay.point))
    return values


# (stage, fixture key, value of the replayed solve) in chain order; a stage
# is compared when the fixture has its key.  A weak fixture pins no sign for
# the loop's hit, so its point's y is compared up to sign.
_STAGES = (
    ("q1", "expect_q1", lambda r: r.outcome.selection.q1),
    ("q2", "expect_q2", lambda r: r.outcome.selection.q2),
    ("y_conic", "expect_y_conic", lambda r: r.chain.psi.source.coefficients),
    ("kernel", "expect_kernel", lambda r: r.chain.kernel),
    ("cross_term", "expect_cross_term", lambda r: r.chain.cross_term),
    ("mu_candidates", "expect_mu_candidates", lambda r: r.chain.mu_candidates),
    ("q4", "expect_q4", lambda r: r.chain.gamma.source.coefficients),
    ("q5", "expect_q5", lambda r: r.chain.q5.coefficients),
    ("quartic", "expect_quartic", lambda r: r.chain.quartic),
    ("rho", "expect_rho", lambda r: r.outcome.parameter),
    ("val", "expect_val", lambda r: _quartic_value(r.outcome)),
    ("sigma1", "expect_sigma1", lambda r: r.chain.sigma1),
    ("z", "expect_z", lambda r: r.chain.z_values),
    ("y_values", "expect_y_values", lambda r: r.chain.y_values),
    ("x", "expect_x", lambda r: r.outcome.quadruple),
    ("solution_abs", "expect_solution_abs", lambda r: tuple(abs(v) for v in r.outcome.quadruple)),
    ("point_x", "expect_point_x", lambda r: r.point.x),
    ("point_y", "expect_point_y", lambda r: r.point.y if r.strong else abs(r.point.y)),
    ("concordant_abs", "expect_concordant_abs", lambda r: tuple(abs(w) for w in r.concordant)),
    ("translate_x", "expect_translate_x", lambda r: _translates(r, lambda pt: pt.x)),
    ("translate_y_abs", "expect_translate_y_abs", lambda r: _translates(r, lambda pt: abs(pt.y))),
)


# every key a fixture may hold: the curve, the class, the pins and the
# expectations
_FIXTURE_KEYS = {"p", "q", "k", "triplet", "expect_condition_failure", *_PIN_KEYS}
_FIXTURE_KEYS |= {key for _, key, _ in _STAGES} | {f"expect_space_e_{v}" for v in "abcd"}


def run_reproduce(fixture: Fixture) -> dict:
    """The production solve of the fixture's class with every choice the
    fixture pins, compared stage by stage with its recorded values."""
    pins = pins_from_fixture(fixture)
    p, q, k = (_fixture_value(fixture, key, ()) for key in "pqk")
    curve = ConcordantCurve.from_pqk(p, q, k)
    m, n = curve.m, curve.n
    t = DescentTriplet(*_fixture_value(fixture, "triplet", (3,)))
    diffs: list[dict] = []
    report = {
        "command": "reproduce",
        "fixture": fixture.name,
        "curve": {"p": _s(p), "q": _s(q), "k": _s(k), "m": _s(m), "n": _s(n)},
        "triplet": [_s(v) for v in t.as_tuple()],
        "stages": diffs,
    }

    for name, form, _vars in build_homogeneous_space(t, m, n).quadrics():
        key = f"expect_space_{name}"
        if key in fixture:
            _expect(f"space:{name}", fixture[key], form.diagonal(), diffs)

    _, outcome, point = search_curve(curve, [t], 200, pins)
    # a fixture that pins the first parametrization records a strong chain
    strong = "pin_phi" in fixture
    method = "strong" if strong else "weak"
    if outcome.method != method:
        raise StageMismatch("method", method, outcome.method)
    if "expect_condition_failure" in fixture:
        flag = _fixture_value(fixture, "expect_condition_failure", ())
        no_pair = outcome.method == "weak" and outcome.degenerate_kernel is None
        actual = "condition-failure" if no_pair else "pair found"
        _expect("condition", "condition-failure" if flag else "pair found", actual, diffs)
    replay = SimpleNamespace(
        strong=strong,
        outcome=outcome,
        chain=outcome.chain,
        point=point,
        concordant=curve.to_quadric(point),
        translates=curve.torsion_translates(point),
    )
    for stage, key, value in _STAGES:
        if key in fixture:
            actual = value(replay)
            expected = fixture[key]
            if isinstance(expected, tuple) and isinstance(actual, (tuple, list, set)):
                expected = type(actual)(expected)
            _expect(stage, expected, actual, diffs)
    report["ok"] = all(d["ok"] for d in diffs)
    return report


# ---------------------------------------------------------------------------
# output

def _emit(report, fmt: str):
    stream = sys.stdout
    if fmt == "json":
        json.dump(report, stream, sort_keys=True, indent=2, default=str)
        stream.write("\n")
    elif fmt == "csv":
        import csv as _csv

        if isinstance(report, list):
            writer = _csv.DictWriter(stream, fieldnames=SERIES_COLUMNS)
            writer.writeheader()
            writer.writerows(report)
        else:
            raise InvalidArgument("csv output is only defined for series rows")
    else:
        _emit_text(report, stream)


def _emit_text(report, stream):
    if isinstance(report, list):
        for row in report:
            stream.write(
                f"{row['family']} k={row['k']} triplet=({row['triplet']}) "
                f"{row['status']} method={row.get('method','')} "
                f"height={row.get('height_w','')}\n"
            )
        return
    cmd = report.get("command")
    if cmd == "classify":
        stream.write(
            f"curve p={report['curve']['p']} q={report['curve']['q']} "
            f"k={report['curve']['k']}: generators {report['generators']}, "
            f"{report['triplet_count']} triplets in {len(report['classes'])} classes\n"
        )
        for c in report["classes"]:
            tag = "torsion" if c["is_torsion_class"] else ("ok" if c["survives"] else "ruled out")
            stream.write(f"  class {c['representative']}: {tag}\n")
            for v in c["verdicts"]:
                if not v["solvable"]:
                    stream.write(f"    {v['triplet']}: {v['evidence']}\n")
        stream.write(f"survivors: {report['surviving_class_representatives']}\n")
    elif cmd == "solve":
        stream.write(f"triplet {report['triplet']} method={report['stats']['method']}\n")
        stream.write(f"quadruple: {report['quadruple']}\n")
        stream.write(f"point: x={report['point']['x']}\n       y={report['point']['y']}\n")
        stream.write(f"concordant: {report['concordant']}\n")
        stream.write(f"heights: {report['heights']}\n")
        stream.write(f"stats: {report['stats']}\n")
    elif cmd == "reproduce":
        for d in report["stages"]:
            mark = "ok" if d["ok"] else "MISMATCH"
            stream.write(f"  {d['stage']}: {mark}\n")
        stream.write("all stages match\n" if report["ok"] else "mismatch\n")
    else:
        stream.write(json.dumps(report, sort_keys=True, default=str) + "\n")


# ---------------------------------------------------------------------------
# argument parsing

def _add_curve_flags(sub):
    sub.add_argument("--p", type=int)
    sub.add_argument("--q", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--M", type=int)
    sub.add_argument("--N", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concordant",
        description="rational points on y^2 = x(x+M)(x+N) by descent and staged search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="descent triplets, classes and filter verdicts")
    _add_curve_flags(c)
    c.add_argument("--format", choices=("json", "text"), default="text")

    s = sub.add_parser("solve", help="find a verified non-torsion point")
    _add_curve_flags(s)
    s.add_argument("--triplet", type=str, help="A,B,C override")
    s.add_argument("--mu", type=int, help="square-factor override")
    s.add_argument("--radius-cap", type=int, default=2000)
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--fixture", type=str, help="pin stage choices from a fixture")
    s.add_argument("--format", choices=("json", "text"), default="text")

    v = sub.add_parser("verify", help="check a point or quadruple exactly")
    _add_curve_flags(v)
    v.add_argument("--point", type=str, help="x,y as fractions")
    v.add_argument("--quadruple", type=str, help="four integers")
    v.add_argument("--weierstrass", type=str, help="a2,a4,a6 of y^2=x^3+a2x^2+a4x+a6")
    v.add_argument("--format", choices=("json", "text"), default="text")

    r = sub.add_parser("series", help="family run with one row per curve")
    r.add_argument("--family", required=True, choices=sorted(FAMILIES))
    r.add_argument("--max-k", type=int, required=True)
    r.add_argument("--radius-cap", type=int, default=300)
    r.add_argument("--workers", type=int, default=1)
    r.add_argument("--format", choices=("csv", "json", "text"), default="csv")

    x = sub.add_parser("reproduce", help="replay a pinned fixture chain")
    x.add_argument("--fixture", required=True, help="bundled name or path")
    x.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command in ("solve", "series"):
            if args.radius_cap < 1:
                raise InvalidArgument(f"--radius-cap must be at least 1, got {args.radius_cap}")
            if args.workers < 1:
                raise InvalidArgument(f"--workers must be at least 1, got {args.workers}")
        if args.command == "classify":
            p, q, k = _curve_only(args).pqk()
            report = run_classify(p, q, k)
        elif args.command == "solve":
            p, q, k = _curve_only(args).pqk()
            triplet = None
            if args.triplet:
                triplet = DescentTriplet(*_parse_list("--triplet", args.triplet, 3))
            pins = None
            if args.fixture:
                triplet, pins = _solve_pins(load_fixture(args.fixture), (p, q, k), triplet, args.mu)
            if args.mu is not None:
                pins = dataclasses.replace(pins or StagePins(), mu=args.mu)
            report = run_solve(
                p,
                q,
                k,
                triplet=triplet,
                radius_cap=args.radius_cap,
                workers=args.workers,
                pins=pins,
            )
        elif args.command == "verify":
            report = run_verify(args)
        elif args.command == "series":
            report = run_series(args.family, args.max_k, args.radius_cap, args.workers)
        elif args.command == "reproduce":
            fixture = load_fixture(args.fixture)
            try:
                report = run_reproduce(fixture)
            except (InvalidArgument, ConcordantError) as exc:
                # a pinned value failed its stage's validity check
                print(f"reproduction mismatch: {exc}", file=sys.stderr)
                return EXIT_MISMATCH
        else:  # pragma: no cover
            parser.error("unknown command")
    except (InvalidArgument, NotNormalized) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EffortExhausted as exc:
        print(f"effort exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except StageMismatch as exc:
        print(f"reproduction mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ConcordantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the flush at
        # interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED
    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    if args.command == "verify" and not report.get("valid", False):
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
