"""End-to-end and per-layer benchmark of the concordant 2-descent search.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the repository root.  One client sends the workload's requests one
at a time, in this process, after a warm-up request of each kind; the
workloads are listed in ``workloads.py``.  Request times are scaled to a
reference host speed (see ``CAL_REF_S``).  Every output is re-checked by
``checker.py`` outside the timed region.  With ``--trace 0`` the last stdout
line gives the end-to-end metrics; with ``--trace 1`` the first half of the
time runs untraced and the same passes are then replayed with spans around
each module's public functions, and the last line gives the per-layer
metrics.  Each run also writes its metadata, and a traced run its spans, to
``perfbench/out/``.  ``--record`` runs every request that any seed can send
and adds the digests of their outputs to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"
SETUP_PROBES = 8
# Host-speed reference.  On the shared 2-CPU host a fixed Python loop runs
# up to 1.5x slower for a second to minutes at a time, and CPU time slows
# with it.  So after every request the benchmark times CAL_LOOPS turns of a
# fixed loop, and scales the request's time by CAL_REF_S over the mean of
# the loop times just before and after it.  CAL_REF_S is the loop's time in
# the host's fast phase; scaled seconds are seconds at that speed.
CAL_LOOPS = 300_000
CAL_REF_S = 0.025

SETUP_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import workloads
t0 = time.perf_counter()
import concordant.cli as cli
workloads.warm_up(cli)
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "curves_per_s": "curves/s",
    "triplets_per_s": "triplets/s",
    "solved_frac": "ratio",
    "peak_rss_mb": "MB",
}


def calibrate() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def setup_probe() -> float:
    """Seconds for a fresh interpreter to import concordant and finish lazy
    set-up (the warm-up requests)."""
    out = subprocess.run(
        [sys.executable, "-E", "-s", "-c", SETUP_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


class Scaler:
    """Scales a timed step by the host speed measured around it."""

    def __init__(self):
        self.last = calibrate()
        self.loops = [self.last]

    def __call__(self, seconds: float) -> float:
        before, self.last = self.last, calibrate()
        self.loops.append(self.last)
        return seconds * 2 * CAL_REF_S / (before + self.last)


def run_pass(cli, requests, scale: Scaler, rec=None) -> dict:
    """Send each request, timing only the call; check every output."""
    done = []
    for req in requests:
        failure = None
        t0 = time.perf_counter()
        try:
            if rec is None:
                output, solved = workloads.execute(cli, req)
            else:
                rec.request += 1
                with rec.span(f"cli.run_{req.kind}"):
                    output, solved = workloads.execute(cli, req)
        except Exception as exc:  # any other outcome is a failed request
            failure = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        scaled = scale(seconds)
        if failure is None:
            problems = workloads.check(req, output)
            failure = "; ".join(problems) if problems else None
        digest, triplets = None, 0
        if failure is None:
            digest = workloads.checker.digest(output, cli.SERIES_COLUMNS)
            triplets = workloads.classified_triplets(req, output)
        done.append({
            "key": req.key,
            "seconds": seconds,
            "scaled": scaled,
            "curves": len(req.curves()),
            "triplets": triplets,
            "solved": solved if failure is None else 0,
            "failure": failure,
            "digest": digest,
        })
    return {"requests": requests, "done": done}


def run_for(cli, passes, budget: float, scale: Scaler, probes=None) -> list[dict]:
    """Whole passes until the timed work reaches the budget.  Given a list,
    a scaled set-up probe is appended to it every budget/SETUP_PROBES
    seconds of timed work, which spreads the probes over the run."""
    out, spent, since_probe = [], 0.0, 0.0
    while spent < budget:
        out.append(run_pass(cli, next(passes), scale))
        for d in out[-1]["done"]:
            spent += d["seconds"]
            since_probe += d["seconds"]
            while probes is not None and since_probe >= budget / SETUP_PROBES:
                since_probe -= budget / SETUP_PROBES
                probes.append(scale(setup_probe()))
    return out


def end_to_end(done, setup_times) -> dict:
    seconds = sum(d["scaled"] for d in done)
    curves = sum(d["curves"] for d in done)
    return {
        "setup_s": statistics.median(setup_times),
        "curves_per_s": curves / seconds,
        "triplets_per_s": sum(d["triplets"] for d in done) / seconds,
        "solved_frac": sum(d["solved"] for d in done) / curves,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


LAYERS = ("cli", "integers", "quadforms", "curves", "descent", "solver")
TIMED = {  # span name -> fields reported per pass
    "solver.strong_solve": ("calls", "s", "self_s"),
    "solver.weak_solve": ("calls", "s", "self_s"),
    "descent.classify": ("calls", "s", "self_s"),
    "quadforms.find_conic_point": ("calls", "s"),
    "quadforms.parametrize_conic": ("calls", "s"),
    "quadforms.reduce_to_legendre": ("calls", "s"),
    "quadforms.legendre_solvable": ("calls", "s"),
    "integers.factorize": ("calls", "s"),
    "integers.squarefree_part": ("calls", "s"),
    "integers.shell_pairs": ("calls", "s"),
    "descent.lift_solution": ("calls", "s"),
    "curves.verify": ("calls", "s"),
}
PER_LAYER_UNITS = {
    **{f"{name}.{f}": "calls/pass" if f == "calls" else "s/pass"
       for name, fields in TIMED.items() for f in fields},
    "solver.hit_ratio": "ratio",
    "solver.pairs_tested": "pairs/pass",
    "solver.square_factors.s": "s/pass",
    "quadforms.find_conic_point.exhausted": "calls/pass",
    "descent.triplets": "triplets/pass",
    "descent.survivor_ratio": "ratio",
    "integers.shell_pairs.pairs": "pairs/pass",
    **{f"{layer}.self_s": "s/pass" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


def per_layer(rec: spans.Recorder, n_passes: int, overhead: float) -> dict:
    """Per-layer metrics from the traced passes; times and counts per pass."""
    totals = spans.layer_totals(rec.spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": {}, "values": []}
    get = lambda name: totals.get(name, empty)
    m = {f"{name}.{f}": get(name)[f] / n_passes for name, fields in TIMED.items() for f in fields}
    strong = get("solver.strong_solve")
    hits = strong["calls"] - sum(strong["errors"].values())
    m["solver.hit_ratio"] = hits / strong["calls"] if strong["calls"] else 0.0
    m["solver.pairs_tested"] = sum(
        spans.values_under(rec.spans, "integers.shell_pairs", "solver.strong_solve")
    ) / n_passes
    m["solver.square_factors.s"] = (
        get("solver.square_factor_candidates")["s"] + get("solver.extended_square_factors")["s"]
    ) / n_passes
    m["quadforms.find_conic_point.exhausted"] = (
        get("quadforms.find_conic_point")["errors"].get("EffortExhausted", 0) / n_passes
    )
    counts = get("descent.classify")["values"]
    triplets = sum(c[0] for c in counts)
    m["descent.triplets"] = triplets / n_passes
    m["descent.survivor_ratio"] = sum(c[1] for c in counts) / triplets if triplets else 0.0
    m["integers.shell_pairs.pairs"] = sum(get("integers.shell_pairs")["values"]) / n_passes
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            t["self_s"] for name, t in totals.items() if name.split(".")[0] == layer
        ) / n_passes
    m["trace.overhead_ratio"] = overhead
    return {name: m[name] for name in PER_LAYER_UNITS}


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None.  Without
    its own ``.git`` git is not asked, so no repository above it is read."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "concordant").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def compare_baseline(done) -> dict:
    recorded = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    out = {"compared": 0, "identical": 0, "differ": [], "unrecorded": 0}
    for d in done:
        if d["digest"] is None:
            continue
        if d["key"] not in recorded:
            out["unrecorded"] += 1
            continue
        out["compared"] += 1
        if recorded[d["key"]] == d["digest"]:
            out["identical"] += 1
        elif d["key"] not in out["differ"]:
            out["differ"].append(d["key"])
    return out


def record(cli) -> int:
    """Run every request that some seed sends and add the digest of each
    checked output to the baseline; never overwrite one."""
    recorded = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    problems = 0
    for workload in workloads.WORKLOADS.values():
        for d in run_pass(cli, workload.every(), Scaler())["done"]:
            if d["failure"]:
                print(f"failed: {d['key']}: {d['failure']}", file=sys.stderr)
                problems += 1
            elif recorded.setdefault(d["key"], d["digest"]) != d["digest"]:
                print(f"conflict: {d['key']}", file=sys.stderr)
                problems += 1
    BASELINE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"{len(recorded)} digests in {BASELINE.name}, {problems} failures or conflicts")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run every request any seed sends; add their digests to baseline.json")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "concordant" / "__init__.py").is_file():
        print(f"error: no concordant sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import concordant.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "concordant":
        print(f"error: imported concordant from {cli.__file__}", file=sys.stderr)
        return 2
    if args.record:
        workloads.warm_up(cli)
        return record(cli)

    workload = workloads.WORKLOADS[args.workload]
    setup_probe()  # discarded: a fresh checkout also compiles bytecode here
    workloads.warm_up(cli)
    passes = workload.passes(args.seed)
    scale = Scaler()
    setup_times = []
    if args.trace:
        plain = run_for(cli, passes, args.seconds / 2, scale)
        rec = spans.Recorder()
        with spans.installed(rec):
            traced = [run_pass(cli, p["requests"], scale, rec) for p in plain]
        scaled = lambda ps: sum(d["scaled"] for p in ps for d in p["done"])
        overhead = scaled(traced) / scaled(plain)
        for a, b in zip((d for p in plain for d in p["done"]), (d for p in traced for d in p["done"])):
            if b["failure"] is None and a["digest"] != b["digest"]:
                b["failure"] = "traced output differs from the untraced one"
        measured = plain + traced
        metrics = per_layer(rec, len(traced), overhead)
        units = PER_LAYER_UNITS
    else:
        measured = run_for(cli, passes, args.seconds, scale, setup_times)
        done = [d for p in measured for d in p["done"]]
        metrics = end_to_end(done, setup_times)
        unscaled = sum(d["curves"] for d in done) / sum(d["seconds"] for d in done)
        units = END_TO_END_UNITS

    done = [d for p in measured for d in p["done"]]
    failures = [d for d in done if d["failure"]]
    request_s = sorted(d["seconds"] for d in done)
    timing = {"requests": len(done), "request_s_median": statistics.median(request_s)}
    if len(done) > 10:  # the highest percentile with ten samples beyond it
        timing[f"request_s_p{100 * (len(done) - 10) // len(done)}"] = request_s[-11]
    meta = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": {"passes": len(measured), "setup_probes": len(setup_times), **timing},
        "unscaled_curves_per_s": None if args.trace else unscaled,
        "host_loop_s": {"reference": CAL_REF_S, "median": statistics.median(scale.loops),
                        "min": min(scale.loops), "max": max(scale.loops), "n": len(scale.loops)},
        "failed_frac": len(failures) / len(done),
        "failures": [f"{d['key']}: {d['failure']}" for d in failures][:20],
        "baseline": compare_baseline(done),
        "units": units,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"run-{workload.name}-seed{args.seed}-trace{args.trace}"
    sends = [[[d["key"], d["seconds"], d["scaled"]] for d in p["done"]] for p in measured]
    (OUT / f"{stem}.json").write_text(
        json.dumps({**meta, "metrics": metrics, "sends": sends}, indent=1) + "\n"
    )
    if args.trace:
        rec.write(OUT / f"{stem}.spans.jsonl")

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {meta['failed_frac']:.6g} ratio ({len(failures)}/{len(done)} requests)")
    b = meta["baseline"]
    print(f"baseline: {b['identical']}/{b['compared']} outputs identical, {b['unrecorded']} unrecorded")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(done),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
