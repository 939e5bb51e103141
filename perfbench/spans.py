"""Spans around the public functions of the concordant modules.

A traced run replaces each function in ``TARGETS`` with a wrapper in every
``concordant`` module namespace that binds it (``concordant.quadforms`` and
``concordant.solver`` both bind ``find_conic_point``, for example) and
restores every binding afterwards.  Spans stay in memory as
``[name, start, end, parent, request, error, value]`` lists and are written
out when the run ends.  ``is_perfect_square`` is left alone: a sweep calls it
millions of times, and a wrapper would dominate what it measures.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

NAME, START, END, PARENT, REQUEST, ERROR, VALUE = range(7)


def _triplet_counts(cls):
    return (len(cls.triplets), len(cls.surviving_triplets))


# (module, function, value kept from its result)
TARGETS = (
    ("integers", "factorize", None),
    ("integers", "squarefree_part", None),
    ("integers", "shell_pairs", len),
    ("quadforms", "reduce_to_legendre", None),
    ("quadforms", "legendre_solvable", None),
    ("quadforms", "find_conic_point", None),
    ("quadforms", "parametrize_conic", None),
    ("descent", "classify", _triplet_counts),
    ("descent", "lift_solution", None),
    ("solver", "strong_solve", None),
    ("solver", "weak_solve", None),
    ("solver", "square_factor_candidates", None),
    ("solver", "extended_square_factors", None),
)

# ConcordantCurve methods that cli uses to re-verify a result; recorded as
# ``curves.verify`` only when cli calls them directly.
CURVE_CHECKS = ("contains", "is_torsion", "quadric_residues", "to_quadric")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request, None, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error=None, value=None):
        end = time.perf_counter()
        span = self.spans[idx]
        span[END], span[ERROR], span[VALUE] = end, error, value
        self._stack.pop()

    def current(self):
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        except BaseException as exc:
            self.close(idx, type(exc).__name__)
            raise
        self.close(idx)

    def write(self, path):
        """One JSON list per line: name, start, end, parent, request, error."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:VALUE]) + "\n")


def _wrap(rec: Recorder, name: str, fn, extract=None, only_under=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if only_under is not None and not (rec.current() or "").startswith(only_under):
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx, type(exc).__name__)
            raise
        rec.close(idx, value=extract(result) if extract else None)
        return result

    return wrapper


def _concordant_modules():
    return [m for n, m in list(sys.modules.items()) if n == "concordant" or n.startswith("concordant.")]


@contextlib.contextmanager
def installed(rec: Recorder):
    """Patch every target for the duration of the block, then restore."""
    import concordant.cli  # noqa: F401  (loads every module that binds a target)

    modules = _concordant_modules()
    patches = []
    for module, func, extract in TARGETS:
        original = getattr(sys.modules[f"concordant.{module}"], func)
        wrapper = _wrap(rec, f"{module}.{func}", original, extract)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    patches.append((m, attr, original, wrapper))
    curve_cls = sys.modules["concordant.curves"].ConcordantCurve
    for meth in CURVE_CHECKS:
        original = vars(curve_cls)[meth]
        patches.append((curve_cls, meth, original, _wrap(rec, "curves.verify", original, only_under="cli.")))
    try:
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield patches
    finally:
        for owner, attr, original, _ in reversed(patches):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children may overlap; covered time counts once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(s[END] - s[START] - covered)
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (outermost spans of that name
    only, so recursion is not counted twice), self seconds, errors by type
    and the sum of kept values."""
    selfs = self_times(spans)
    totals: dict[str, dict] = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": {}, "values": []})
        t["calls"] += 1
        t["self_s"] += selfs[i]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            t["s"] += s[END] - s[START]
        if s[ERROR]:
            t["errors"][s[ERROR]] = t["errors"].get(s[ERROR], 0) + 1
        if s[VALUE] is not None:
            t["values"].append(s[VALUE])
    return totals


def values_under(spans, name: str, ancestor: str) -> list:
    """Kept values of the spans called ``name`` that run inside a span called
    ``ancestor``, at any depth, whether the ancestor returned or raised."""
    out = []
    for s in spans:
        if s[NAME] != name or s[VALUE] is None:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != ancestor:
            p = spans[p][PARENT]
        if p >= 0:
            out.append(s[VALUE])
    return out
