"""Workload inputs and the requests that run them.

A workload is an endless stream of passes; a pass is a list of requests that
the benchmark sends one at a time (closed loop, one client).  Only the seed
decides the inputs, and the program sees nothing but them.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import checker

HERE = Path(__file__).resolve().parent
FAMILIES = ("cong5", "cong7", "twice7", "theta5", "theta96")
SERIES_CAP = 300          # the series subcommand's default radius cap
SWEEP_MAX_K = 200
SWEEP_W2_FAMILIES = ("cong5", "twice7")
SWEEP_W2_MAX_K = 200
CLASSIFY_PRIMES = (17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True)
class Request:
    kind: str          # "series", "classify" or "solve"
    args: tuple

    @property
    def key(self) -> str:
        return " ".join([self.kind, *map(str, self.args)])

    def curves(self) -> list[tuple[int, int, int]]:
        if self.kind == "series":
            return checker.family_curves(*self.args[:2])
        return [self.args[:3]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    passes: Callable[[int], Iterator[list[Request]]]
    every: Callable[[], list[Request]]   # each request that some seed sends


def _sweep_requests(families, max_k, workers):
    return lambda: [Request("series", (f, max_k, SERIES_CAP, workers)) for f in families]


def _sweep_passes(families, max_k, workers):
    def passes(seed):
        # fixed family tables: the seed does not alter this workload
        while True:
            yield _sweep_requests(families, max_k, workers)()

    return passes


def _classify_passes(seed):
    rng = random.Random(f"classify-{seed}")

    def k_of(count):
        return math.prod(sorted(rng.sample(CLASSIFY_PRIMES, count)))

    while True:
        # generators -1, 2 and the primes of k: 512 and 2048 triplets
        yield [Request("classify", (1, 1, k_of(3))), Request("classify", (1, 1, k_of(4)))]


def _classify_requests():
    return [
        Request("classify", (1, 1, math.prod(primes)))
        for count in (3, 4)
        for primes in itertools.combinations(CLASSIFY_PRIMES, count)
    ]


def _largek_pool():
    return json.loads((HERE / "largek_pool.json").read_text())


def _largek_requests():
    pool = _largek_pool()
    return [
        Request("solve", (*member, pool["radius_cap"]))
        for group in pool["groups"]
        for member in group["members"]
    ]


def _largek_passes(seed):
    pool = _largek_pool()
    rng = random.Random(f"solve-largek-{seed}")
    while True:
        yield [
            Request("solve", (*rng.choice(group["members"]), pool["radius_cap"]))
            for group in pool["groups"]
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            "the paper's five family tables at the series cap; the quartic scan does most of the work",
            _sweep_passes(FAMILIES, SWEEP_MAX_K, 1),
            _sweep_requests(FAMILIES, SWEEP_MAX_K, 1),
        ),
        Workload(
            "classify",
            "seeded k with 3 and 4 odd primes (512 and 2048 triplets); Legendre reduction and factoring only, no search",
            _classify_passes,
            _classify_requests,
        ),
        Workload(
            "solve-largek",
            "seeded prime k in the thousands at a small cap; the Holzer-box conic search dominates",
            _largek_passes,
            _largek_requests,
        ),
        Workload(
            "sweep-w2",
            "a slice of sweep at workers 2; the only workload on the process-pool path of solver",
            _sweep_passes(SWEEP_W2_FAMILIES, SWEEP_W2_MAX_K, 2),
            _sweep_requests(SWEEP_W2_FAMILIES, SWEEP_W2_MAX_K, 2),
        ),
    )
}


def warm_up(cli):
    """One tiny request of each kind, so lazy set-up is done before timing."""
    cli.run_classify(1, 1, 5)
    cli.run_solve(1, 1, 5, radius_cap=20)
    cli.run_series("cong5", 13, 20, 1)


def execute(cli, req: Request):
    """Run one request; returns (output, solved curves).  The documented
    effort-exhausted outcome of a solve becomes a message output; anything
    else that is raised propagates."""
    from concordant.errors import EffortExhausted

    if req.kind == "series":
        rows = cli.run_series(*req.args)
        return rows, len({r["k"] for r in rows if r["status"] == "ok"})
    if req.kind == "classify":
        return cli.run_classify(*req.args), 1
    p, q, k, cap = req.args
    try:
        return cli.run_solve(p, q, k, radius_cap=cap), 1
    except EffortExhausted as exc:
        return f"effort exhausted: {exc}", 0


def classified_triplets(req: Request, output) -> int:
    """Descent triplets the program classified for a request: read from the
    report of a classify request; for a solve, or a series other than
    theta96, the program classifies each curve, so these are the triplets of
    its curves.  theta96 searches two fixed classes and classifies nothing."""
    if req.kind == "classify":
        return output["triplet_count"]
    if req.kind == "series" and req.args[0] == "theta96":
        return 0
    return sum(checker.triplet_count(*c) for c in req.curves())


def check(req: Request, output) -> list[str]:
    if req.kind == "series":
        return checker.check_series(req.args[0], req.args[1], output)
    if req.kind == "classify":
        return checker.check_classify(*req.args, output)
    if isinstance(output, str):
        return []
    return checker.check_solve(*req.args[:3], output)
