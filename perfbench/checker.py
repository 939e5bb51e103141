"""Independent re-verification of what the concordant CLI functions return.

Nothing here imports ``concordant``: points, quadruples and descent triplets
are re-checked with plain integers and ``fractions.Fraction``, so a defect in
``concordant.curves`` cannot hide itself.  Each ``check_*`` function returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _is_rational_square(f: Fraction) -> bool:
    return _is_square(f.numerator) and _is_square(f.denominator)


def _primes_of(n: int) -> set[int]:
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def generators(p: int, q: int, k: int) -> set[int]:
    """{-1, 2} together with the primes of p, q, p+q and k."""
    gens = {-1, 2}
    for n in (p, q, p + q, k):
        gens |= _primes_of(n)
    return gens


def _in_class_group(v: int, primes: set[int]) -> bool:
    # v is a signed squarefree product of the given primes
    v = abs(v)
    for g in primes:
        if v % g == 0:
            v //= g
            if v % g == 0:
                return False
    return v == 1


def triplet_count(p: int, q: int, k: int) -> int:
    """Number of descent triplets (A, B, C), A > 0, for the curve (p, q, k)."""
    return 2 ** (2 * len(generators(p, q, k)) - 1)


def check_point(m: int, n: int, x: Fraction, y: Fraction) -> list[str]:
    """A non-2-torsion affine point of y^2 = x(x+M)(x+N)."""
    problems = []
    if y * y != x * (x + m) * (x + n):
        problems.append(f"({x}, {y}) is not on y^2 = x(x+{m})(x+{n})")
    if y == 0:
        problems.append(f"({x}, {y}) is a 2-torsion point")
    return problems


def check_quadruple(m: int, n: int, quad) -> list[str]:
    """X0^2 + M*X1^2 = X2^2 and X0^2 + N*X1^2 = X3^2 with X1 != 0; then the
    curve point the quadruple maps to must pass ``check_point``."""
    x0, x1, x2, x3 = quad
    problems = []
    if x0 * x0 + m * x1 * x1 != x2 * x2:
        problems.append(f"{quad}: X0^2 + M*X1^2 != X2^2")
    if x0 * x0 + n * x1 * x1 != x3 * x3:
        problems.append(f"{quad}: X0^2 + N*X1^2 != X3^2")
    if x1 == 0:
        problems.append(f"{quad}: X1 = 0 is a trivial solution")
    if problems:
        return problems
    # x = M*N*(X3 - X2)/t, y = M*N*(M - N)*X1/t with t = N*X2 - M*X3 + (M - N)*X0
    t = n * x2 - m * x3 + (m - n) * x0
    if t == 0:
        return [f"{quad}: maps to the point at infinity"]
    return check_point(m, n, Fraction(m * n * (x3 - x2), t), Fraction(m * n * (m - n) * x1, t))


def check_solve(p: int, q: int, k: int, report: dict) -> list[str]:
    """A ``run_solve`` report: the point, its descent triplet and the
    concordant quadruple, all for M = p*k, N = -q*k."""
    m, n = p * k, -q * k
    if report.get("point", {}).get("infinity"):
        return ["reported point is the point at infinity"]
    x = Fraction(report["point"]["x"])
    y = Fraction(report["point"]["y"])
    problems = check_point(m, n, x, y)
    a, b, c = (int(v) for v in report["triplet"])
    if a <= 0 or not _is_square(a * b * c):
        problems.append(f"triplet {(a, b, c)} is not a descent triplet")
    elif not problems:
        for value, cls in ((x + m, a), (x, b), (x + n, c)):
            if value != 0 and not _is_rational_square(value / cls):
                problems.append(f"{value} is not in square class {cls}")
    problems += check_quadruple(m, n, tuple(int(v) for v in report["concordant"]))
    return problems


def _primes_upto(bound: int) -> list[int]:
    return [v for v in range(2, bound + 1) if all(v % d for d in range(2, math.isqrt(v) + 1))]


def family_curves(family: str, max_k: int) -> list[tuple[int, int, int]]:
    """The (p, q, k) a series family covers up to max_k, from the README's
    definitions."""
    if family in ("cong5", "cong7", "theta5"):
        res, mod = {"cong5": (5, 8), "cong7": (7, 8), "theta5": (5, 24)}[family]
        q = 3 if family == "theta5" else 1
        return [(1, q, v) for v in _primes_upto(max_k) if v % mod == res]
    mod, q = (8, 1) if family == "twice7" else (96, 3)
    return [(1, q, 2 * v) for v in _primes_upto(max_k // 2) if v % mod == 7]


def check_series(family: str, max_k: int, rows: list[dict]) -> list[str]:
    """Every curve of the family has a row, and every row with a quadruple
    carries a valid one."""
    problems = []
    expected = {k for _, _, k in family_curves(family, max_k)}
    seen = {int(r["k"]) for r in rows}
    if seen != expected:
        problems.append(f"{family}: rows cover k {sorted(seen ^ expected)} wrongly")
    for r in rows:
        if r["status"] not in ("ok", "exhausted"):
            problems.append(f"{family} k={r['k']}: unknown status {r['status']!r}")
        if r["status"] != "ok":
            continue
        p, q, k = int(r["p"]), int(r["q"]), int(r["k"])
        quad = tuple(int(r[f"w{i}"]) for i in range(4))
        problems += [f"{family} k={k}: {e}" for e in check_quadruple(p * k, -q * k, quad)]
    return problems


def check_classify(p: int, q: int, k: int, report: dict) -> list[str]:
    """Triplet count is group_size^2 / 2, every member has A > 0, A*B*C a
    square and components in the class group, and the classes partition the
    triplets."""
    problems = []
    gens = generators(p, q, k)
    group = report["group_size"]
    if group != 2 ** len(gens):
        problems.append(f"group size {group} != 2^{len(gens)}")
    if report["triplet_count"] != group * group // 2:
        problems.append(f"triplet count {report['triplet_count']} != {group}^2/2")
    members = [tuple(int(v) for v in t) for c in report["classes"] for t in c["members"]]
    if len(members) != report["triplet_count"] or len(set(members)) != len(members):
        problems.append("classes do not partition the triplets")
    primes = gens - {-1}
    for a, b, c in members:
        valid = all(_in_class_group(v, primes) for v in (a, b, c))
        if a <= 0 or not _is_square(a * b * c) or not valid:
            problems.append(f"{(a, b, c)} is not a descent triplet")
            break
    return problems


def canonical(output, columns=()) -> bytes:
    """Byte form of an output: CSV rows (in the program's column order) for
    series, sorted-key JSON for reports, the text itself for a message."""
    if isinstance(output, list):
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(output)
        return buf.getvalue().encode()
    if isinstance(output, str):
        return output.encode()
    return json.dumps(output, sort_keys=True, separators=(",", ":")).encode()


def digest(output, columns=()) -> str:
    return hashlib.sha256(canonical(output, columns)).hexdigest()
