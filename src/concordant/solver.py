"""Staged search for solutions of a pair of diagonal quadrics

    Q1: a00*X0^2 + a11*X1^2 + a22*X2^2 = 0
    Q2: b00*X0^2 + b11*X1^2 + b33*X3^2 = 0

sharing X0, X1.  The weak search parametrizes Q1 and scans parameters until
Q2's remaining square is perfect.  The strong search needs a zero-coordinate
point on one of the four quadrics of the homogeneous space; it then gains a
second substitution level, roughly doubling the digits reachable per unit of
loop radius.  Both loops are serial: the earliest hit in enumeration order
wins.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .descent import HomogeneousSpace, SquareClasses
from .errors import (
    ConditionFailure,
    DegenerateKernel,
    EffortExhausted,
    InvalidArgument,
    NotBiquadratic,
    VerificationFailure,
)
from .integers import (
    factorize,
    is_perfect_square,
    primitive_normalize,
    shell_pairs,
    shell_size,
)
from .quadforms import (
    ConicParametrization,
    TernaryForm,
    compose_quartic,
    find_conic_point,
    parametrize_conic,
    zero_coordinate_point,
)

Triple = tuple[int, int, int]
Quad = tuple[int, int, int, int]


# ---------------------------------------------------------------------------
# pair selection

@dataclass(frozen=True)
class PairSelection:
    """Two quadrics renamed to the shared shape: Q1 in (X0, X1, X2) with a
    zero-X0 base point, Q2 in (X0, X1, X3); var_order records which original
    space variable sits in each X slot.  A weak selection has no base point:
    its base is None."""

    q1: Triple
    q2: Triple
    base: Optional[Triple]
    var_order: tuple[str, str, str, str]


def _reorder_diag(form: TernaryForm, vars_: Sequence[str], order: Sequence[str]) -> Triple:
    coeffs = form.diagonal()
    lookup = dict(zip(vars_, coeffs))
    return tuple(lookup[v] for v in order)


def select_equation_pair(space: HomogeneousSpace) -> PairSelection:
    """Scan the four quadrics (then coordinates, ascending) for one with a
    zero-coordinate point; partner it with the first other quadric that also
    contains the zeroed variable.  Raises ConditionFailure when no quadric
    admits such a point."""
    quadrics = space.quadrics()
    for q1_name, q1_form, q1_vars in quadrics:
        for idx in range(3):
            base = zero_coordinate_point(q1_form, idx)
            if base is None:
                continue
            zero_var = q1_vars[idx]
            for q2_name, q2_form, q2_vars in quadrics:
                if q2_name == q1_name or zero_var not in q2_vars:
                    continue
                shared = [v for v in q1_vars if v in q2_vars]
                other_shared = next(v for v in shared if v != zero_var)
                x2_var = next(v for v in q1_vars if v not in shared)
                x3_var = next(v for v in q2_vars if v not in shared)
                order = (zero_var, other_shared, x2_var, x3_var)
                q1_coeffs = _reorder_diag(q1_form, q1_vars, order[:2] + (x2_var,))
                q2_coeffs = _reorder_diag(q2_form, q2_vars, order[:2] + (x3_var,))
                base_lookup = dict(zip(q1_vars, base))
                base_reordered = tuple(base_lookup[v] for v in (zero_var, other_shared, x2_var))
                return PairSelection(q1_coeffs, q2_coeffs, base_reordered, order)
    raise ConditionFailure("no quadric has a point with a zero coordinate")


def weak_pair(space: HomogeneousSpace) -> PairSelection:
    """Fallback pairing (no zero-coordinate base needed, so base is None):
    the x-eliminated quadric in (a, b, c) with the (a, b, d) quadric as
    partner."""
    q1 = _reorder_diag(space.e_d, ("a", "b", "c"), ("a", "b", "c"))
    q2 = _reorder_diag(space.e_a, ("a", "b", "d"), ("a", "b", "d"))
    return PairSelection(q1, q2, None, ("a", "b", "c", "d"))


def solution_in_space_order(sel: PairSelection, quad: Quad) -> Quad:
    named = dict(zip(sel.var_order, quad))
    return tuple(named[v] for v in ("a", "b", "c", "d"))


# ---------------------------------------------------------------------------
# the scan kernel

# Odd primes of the residue sieve.  Each prime costs a big-int product per
# run of a shell and halves, roughly, the pairs that reach the exact test;
# on the series tables 5 and 12 primes both ran slower than these 8.
SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def quartic_hit(quartic: Sequence[int], mu: int, s: int, t: int) -> Optional[int]:
    """The exact test of one parameter pair: sigma >= 0 with
    f(s, t) = mu*sigma^2 != 0 for the binary quartic f (s^4 coefficient
    first), or None."""
    b40, b31, b22, b13, b04 = quartic
    s2 = s * s
    t2 = t * t
    st = s * t
    val = b40 * s2 * s2 + b31 * s2 * st + b22 * s2 * t2 + b13 * st * t2 + b04 * t2 * t2
    if val == 0:
        return None
    root = is_perfect_square(mu * val)
    if root is None:
        return None
    return root // abs(mu)


@dataclass(frozen=True)
class QuarticSieve:
    """What the kernel scans for: coprime pairs where mu*f(s, t) is a nonzero
    square and no form of `nonzero` vanishes.  For the i-th sieve prime p,
    bit t of rows[i][s % p] and bit s of cols[i][t % p] are set when
    mu*f(s, t) is a square modulo p (0 counts as a square) and s, t are not
    both divisible by p."""

    quartic: tuple[int, int, int, int, int]
    mu: int
    nonzero: tuple[Triple, ...]
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]


def quartic_sieve(quartic: Sequence[int], mu: int, nonzero=()) -> QuarticSieve:
    """Residue masks of mu*f for every sieve prime.  f is homogeneous of
    degree 4, so for t invertible mod p, mu*f(s, t) is a square mod p exactly
    when mu*f(s/t, 1) is, and for t = 0 when mu*b40 is: p + 1 evaluations per
    prime."""
    rows, cols = [], []
    for p in SIEVE_PRIMES:
        squares = {x * x % p for x in range(p)}
        b40, b31, b22, b13, b04 = (mu * c % p for c in quartic)
        good = [
            x
            for x in range(p)
            if (b40 * x**4 + b31 * x**3 + b22 * x**2 + b13 * x + b04) % p in squares
        ]
        axis = b40 in squares
        row = [0] + [int(axis)] * (p - 1)
        col = [((1 << p) - 2) * axis]
        for t in range(1, p):
            bit, mask = 1 << t, 0
            for x in good:
                s = x * t % p
                mask |= 1 << s
                row[s] |= bit
            col.append(mask)
        rows.append(tuple(row))
        cols.append(tuple(col))
    return QuarticSieve(tuple(quartic), mu, tuple(nonzero), tuple(rows), tuple(cols))


def scan_shell(sieve: QuarticSieve, r: int) -> Optional[tuple[int, int, int, int]]:
    """First hit of max-norm shell r in `shell_pairs(r)` order, as (number of
    coprime shell pairs before it, s, t, sigma), or None.

    The shell is three runs, (-r, 0..r), (-r+1..r-1, r) and (r, 0..r).  Each
    run's residue masks are tiled to its length and ANDed over the primes;
    the set bits, walked upward, are the only pairs that reach the exact
    test.  Every mask is a necessary condition, so the first survivor that
    passes the test is the first hit of the shell."""
    side = (1 << (r + 1)) - 1
    first, middle, last = side, (1 << (2 * r - 1)) - 1, side
    for p, rep, rows, cols in zip(SIEVE_PRIMES, _repunits(r), sieve.rows, sieve.cols):
        first &= rows[-r % p] * rep
        middle &= (cols[r % p] * rep) >> ((1 - r) % p)
        last &= rows[r % p] * rep
    for mask, s0, t0, ds, dt in (
        (first, -r, 0, 0, 1),
        (middle, 1 - r, r, 1, 0),
        (last, r, 0, 0, 1),
    ):
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            s, t = s0 + ds * j, t0 + dt * j
            if math.gcd(s, t) != 1:
                continue
            sigma = quartic_hit(sieve.quartic, sieve.mu, s, t)
            if sigma is None:
                continue
            if any(f[0] * s * s + f[1] * s * t + f[2] * t * t == 0 for f in sieve.nonzero):
                continue
            return shell_pairs(r).index((s, t)), s, t, sigma
    return None


# every search scans from radius 1 upward, so all of them visit the same
# radii; the cache holds every radius up to the series cap (300) and beyond:
# about 0.45 MB when all 512 are held
@functools.lru_cache(maxsize=512)
def _repunits(r: int) -> tuple[int, ...]:
    # per sieve prime p, bits 0, p, 2p, ... over at least 2r - 1 + p bits:
    # a p-bit mask times this tiles it along a run of shell r
    out = []
    for p in SIEVE_PRIMES:
        ones = -(-(2 * r - 1) // p) + 1
        out.append(((1 << (p * ones)) - 1) // ((1 << p) - 1))
    return tuple(out)


@dataclass
class ScanRound:
    """One round of a search: sieves scanned side by side, resumable.  No
    shell below `next_shell` holds a hit of any sieve, and `tested` counts
    the coprime pairs of those shells over all the sieves.  A strong round
    keeps its square factors `mus`; their parametrizations `gammas` and
    their sieves are built when a search first reaches the round."""

    mus: tuple[int, ...] = ()
    gammas: Optional[tuple[ConicParametrization, ...]] = None
    sieves: Optional[tuple[QuarticSieve, ...]] = None
    next_shell: int = 1
    tested: int = 0


def scan_schedule(scan: ScanRound, cap: int) -> Optional[tuple[int, tuple[int, int], int, int]]:
    """Round-robin scan of the round's sieves from its next shell up to
    `cap`: shell r of sieve i follows shell r of sieves 0..i-1 in the
    enumeration.  Returns (sieve index, (s, t), sigma, pairs tested from
    radius 1 up to the hit) for the earliest hit, or None once the shells
    up to `cap` are exhausted.  Only a shell scanned in full
    advances the round, so a later call with a larger cap resumes it and
    returns what one call at that cap would."""
    r, tested = scan.next_shell, scan.tested
    while r <= cap:
        size = shell_size(r)
        for si, sieve in enumerate(scan.sieves):
            hit = scan_shell(sieve, r)
            if hit is not None:
                return si, (hit[1], hit[2]), hit[3], tested + hit[0] + 1
            tested += size
        r += 1
        scan.next_shell, scan.tested = r, tested
    return None


# ---------------------------------------------------------------------------
# the search result

@dataclass(frozen=True)
class ChainState:
    """What the strong chain produced beyond the hit itself, for reporting
    and replay diffs.  Q3 is psi.source and Q4 is gamma.source."""

    phi: ConicParametrization
    psi: ConicParametrization
    kernel: Triple
    cross_term: int
    mu_candidates: list[int]
    completion_used: bool                 # mu came from extended_square_factors
    mu: int
    gamma: ConicParametrization
    q5: TernaryForm
    quartic: tuple[int, int, int, int, int]
    sigma1: int
    z_values: Quad
    y_values: Triple


@dataclass(frozen=True)
class SearchOutcome:
    """One hit of the search.  `quadruple` is in the selection's
    (X0, X1, X2, X3) order and `space_solution` is the same point in the
    space's (a, b, c, d) order, checked against all four quadrics.  A bare
    `weak_solve` knows no space, so both of those fields are None there."""

    method: str                           # "strong" or "weak"
    quadruple: Quad
    parameter: tuple[int, int]            # the scanned pair that hit
    pairs_tested: int
    selection: Optional[PairSelection] = None
    space_solution: Optional[Quad] = None
    chain: Optional[ChainState] = None    # None for a weak hit
    degenerate_kernel: Optional[str] = None   # why a strong chain fell back


# ---------------------------------------------------------------------------
# weak search

@dataclass
class WeakSearch:
    """The weak search prepared up to its scan: Q1's parametrization phi,
    |b33| to scale a hit back, and the scan of -b33*(b00*F0^2 + b11*F1^2)."""

    phi: ConicParametrization
    scale: int
    scan: ScanRound

    def advance(self, cap: int) -> SearchOutcome:
        """The outcome of a fresh weak search up to radius `cap`; raises
        EffortExhausted when it has none."""
        hit = scan_schedule(self.scan, cap)
        if hit is None:
            raise EffortExhausted("weak search schedule exhausted")
        _, (s, t), root, tested = hit
        quad = primitive_normalize(tuple(self.scale * f for f in self.phi(s, t)) + (root,))
        return SearchOutcome("weak", quad, (s, t), tested)


def _prepare_weak(q1: Triple, q2: Triple) -> WeakSearch:
    phi = pinned_parametrization(TernaryForm(q1[0], 0, q1[1], q1[2]))
    b00, b11, b33 = q2
    sieve = quartic_sieve(compose_quartic((-b33 * b00, 0, -b33 * b11), phi), 1, phi.rows)
    return WeakSearch(phi, abs(b33), ScanRound(sieves=(sieve,)))


def weak_solve(q1: Triple, q2: Triple, cap: int) -> SearchOutcome:
    """Parametrize Q1 from any point, then scan coprime parameter pairs from
    radius 1 up to `cap` until -b33*(b00*F0^2 + b11*F1^2) is a nonzero
    perfect square; the quadruple is (F0, F1, F2, root) cleared to a
    primitive integer vector.

    Hits whose quadruple has a zero coordinate are skipped; they correspond
    to torsion images and are useless downstream.  The outcome knows no
    space, so its selection and space solution are None.
    """
    return _prepare_weak(q1, q2).advance(cap)


# ---------------------------------------------------------------------------
# strong search

@dataclass
class StagePins:
    """Replay choices the chain cannot compute: its three parametrizations and mu."""

    phi_rows: Optional[tuple[Triple, Triple, Triple]] = None
    psi_rows: Optional[tuple[Triple, Triple, Triple]] = None
    mu: Optional[int] = None
    gamma_rows: Optional[tuple[Triple, Triple, Triple]] = None


def pinned_parametrization(form: TernaryForm, rows=None, base=None) -> ConicParametrization:
    """The parametrization of `form`: the pinned `rows` when given, checked
    to sweep the conic, else `parametrize_conic` from `base`, or from
    `find_conic_point(form)` when no base is given."""
    if rows is None:
        return parametrize_conic(form, base or find_conic_point(form))
    param = ConicParametrization(tuple(tuple(r) for r in rows), form)
    if not param.is_valid():
        raise InvalidArgument("pinned parametrization does not sweep the conic")
    return param


def substituted_conic(phi: ConicParametrization, q2: Triple) -> TernaryForm:
    """Push the parametrization through the partner b00*X0^2 + b11*X1^2 +
    b33*X3^2 and read the biquadratic result as a conic in (s^2, t^2, X3)."""
    b40, b31, b22, b13, b04 = compose_quartic((q2[0], 0, q2[1]), phi)
    if b31 != 0 or b13 != 0:
        raise NotBiquadratic(f"odd coefficients {b31}, {b13} nonzero")
    return TernaryForm(b40, b22, b04, q2[2])


def parameter_kernel(psi: ConicParametrization) -> Triple:
    """Primitive vector orthogonal to both pure-square coefficient columns."""
    u = psi.column(0)
    v = psi.column(2)
    cross = (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
    if cross == (0, 0, 0):
        raise DegenerateKernel("pure-square columns are linearly dependent")
    return primitive_normalize(cross)


def kernel_cross_term(kernel: Triple, psi: ConicParametrization) -> int:
    mid = psi.column(1)
    return sum(c * m for c, m in zip(kernel, mid))


def _row_primes(psi: ConicParametrization) -> set[int]:
    """The primes of each row's disc and r0, the values whose square classes
    `_solvable_square_factors` reads beside mu.  A degenerate row (disc = 0)
    keeps no square factor, so it needs none and gets the empty set."""
    rows = psi.rows[:2]
    discs = [r1 * r1 - 4 * r0 * r2 for r0, r1, r2 in rows]
    if 0 in discs:
        return set()
    primes = set()
    for row, disc in zip(rows, discs):
        primes.update(factorize(disc).primes(), factorize(row[0]).primes())
    return primes


def _solvable_square_factors(
    psi: ConicParametrization, primes: Sequence[int], row_primes: set[int]
) -> list[int]:
    """+-d for every squarefree product d of `primes` for which both row
    conics row_i(Z0, Z1) = mu*Z2^2 pass the solvability criterion, ordered
    by |mu|, positive first.  Times 4*r0, a row conic is U^2 - disc*Z1^2 -
    4*r0*mu*Z2^2 with U = 2*r0*Z0 + r1*Z1 and disc = r1^2 - 4*r0*r2, so the
    criterion reads only the square classes (1, -disc, -r0*mu), and one
    table over -1, `primes` and `row_primes` (see `_row_primes`) decides
    every mu.  A degenerate row (disc = 0) keeps nothing."""
    rows = psi.rows[:2]
    discs = [r1 * r1 - 4 * r0 * r2 for r0, r1, r2 in rows]
    if 0 in discs:
        return []
    squares = SquareClasses(sorted({-1, *primes, *row_primes}))
    fixed = [(squares.vector(-disc), squares.vector(-row[0])) for row, disc in zip(rows, discs)]
    cores = [1]
    for p in primes:
        cores += [c * p for c in cores]
    return [
        mu
        for d in sorted(cores)
        for mu in (d, -d)
        if all(squares.passes(*squares.reduced(0, y, z ^ squares.vector(mu))) for y, z in fixed)
    ]


def square_factor_candidates(
    cross_term: int, psi: ConicParametrization, row_primes: set[int]
) -> list[int]:
    """Signed squarefree divisors of the squarefree part of the cross term,
    kept when both row conics (row_i = mu * sigma^2) pass the solvability
    criterion AND admit the integral pattern with parameters coprime to mu;
    ordered by |mu|, positive first.  A zero cross term sets no divisor
    condition and gives no candidates.  `row_primes` is `_row_primes(psi)`."""
    if cross_term == 0:
        return []
    odd = [p for p, e in factorize(cross_term).factors if e & 1]
    return [
        mu
        for mu in _solvable_square_factors(psi, odd, row_primes)
        if _coprime_pattern_ok(psi, mu, [p for p in odd if mu % p == 0])
    ]


def _binary_resultant(f: Triple, g: Triple) -> int:
    return (f[0] * g[2] - g[0] * f[2]) ** 2 - (f[0] * g[1] - g[0] * f[1]) * (
        f[1] * g[2] - g[1] * f[2]
    )


def extended_square_factors(psi: ConicParametrization, row_primes: set[int]) -> list[int]:
    """Completion of the candidate set: any square factor of an actual
    solution divides both row values at parameters that are coprime where it
    matters, so its primes divide the resultant of the two rows.  Only the
    solvability criterion is applied here (the coprime-pattern refinement can
    reject the true factor when the rows take imprimitive values).
    `row_primes` is `_row_primes(psi)`."""
    res = _binary_resultant(psi.rows[0], psi.rows[1])
    if res == 0:
        raise DegenerateKernel("parametrization rows share a factor")
    return _solvable_square_factors(psi, factorize(abs(res)).primes(), row_primes)


def _coprime_pattern_ok(psi: ConicParametrization, mu: int, primes: Sequence[int]) -> bool:
    """Necessary local conditions for row_i(n0, n1) = mu*s^2 to have integer
    solutions with n0, n1 coprime to mu: each odd prime of mu must divide
    some row value at unit coordinates, and for even mu the congruence must
    already close modulo 16.  `primes` are the primes of the squarefree mu.
    A row is a binary quadratic, so row(a, b) = b^2 * row(a/b, 1) for a
    unit b, and the test runs on x = a/b alone: modulo 16 the squares of
    units are 1 and 9, and the targets mu*s^2 are closed under
    multiplication by 9."""
    for p in primes:
        if p == 2:
            modulus, xs, targets = 16, range(1, 16, 2), {mu * s * s % 16 for s in range(16)}
        else:
            modulus, xs, targets = p, range(1, p), {0}
        for r in psi.rows[:2]:
            if not any((r[0] * x * x + r[1] * x + r[2]) % modulus in targets for x in xs):
                return False
    return True


def scaled_square_conic(row: Triple, mu: int) -> TernaryForm:
    """The conic row(Z0, Z1) - mu*Z2^2 = 0."""
    return TernaryForm(row[0], row[1], row[2], -mu)


@dataclass
class StrongSearch:
    """The strong chain prepared up to its final scan: phi, psi, the kernel,
    the cross term, the candidate square factors and one ScanRound per
    round of square factors (the candidates, then the completion)."""

    selection: PairSelection
    phi: ConicParametrization
    psi: ConicParametrization
    kernel: Triple
    cross_term: int
    mu_candidates: list[int]
    rounds: list[ScanRound]
    pins: StagePins

    def _gamma(self, mu: int) -> ConicParametrization:
        q4 = scaled_square_conic(self.psi.rows[0], mu)
        return pinned_parametrization(q4, self.pins.gamma_rows)

    def advance(self, cap: int) -> SearchOutcome:
        """The outcome of a fresh final search up to radius `cap`: the
        rounds in order, each over its per-mu quartics with a shared shell
        radius.  A hit's pairs_tested counts the pairs of every round
        before it, scanned up to `cap`.  Raises EffortExhausted when there
        is none."""
        psi, earlier = self.psi, 0
        for rnd in self.rounds:
            if rnd.sieves is None:
                gammas = tuple(self._gamma(mu) for mu in rnd.mus)
                rnd.sieves = tuple(
                    quartic_sieve(compose_quartic(psi.rows[1], g), m)
                    for g, m in zip(gammas, rnd.mus)
                )
                rnd.gammas = gammas
            hit = scan_schedule(rnd, cap)
            if hit is not None:
                si, rho, sigma1, tested = hit
                mu, gamma = rnd.mus[si], rnd.gammas[si]
                break
            earlier += rnd.tested
        else:
            raise EffortExhausted("final search schedule exhausted")

        quadruple, zvec, yvec = back_substitute(
            self.phi, psi, mu, gamma, rho, sigma1, self.selection
        )
        chain = ChainState(
            phi=self.phi,
            psi=psi,
            kernel=self.kernel,
            cross_term=self.cross_term,
            mu_candidates=self.mu_candidates,
            completion_used=mu not in self.mu_candidates,
            mu=mu,
            gamma=gamma,
            q5=scaled_square_conic(psi.rows[1], mu),
            quartic=compose_quartic(psi.rows[1], gamma),
            sigma1=sigma1,
            z_values=zvec,
            y_values=yvec,
        )
        return SearchOutcome("strong", quadruple, rho, earlier + tested, chain=chain)


def _prepare_strong(sel: PairSelection, pins: StagePins) -> StrongSearch:
    q1_form = TernaryForm(sel.q1[0], 0, sel.q1[1], sel.q1[2])
    phi = pinned_parametrization(q1_form, pins.phi_rows, sel.base)
    psi = pinned_parametrization(substituted_conic(phi, sel.q2), pins.psi_rows)
    kernel = parameter_kernel(psi)
    cross = kernel_cross_term(kernel, psi)
    row_primes = _row_primes(psi)
    candidates = square_factor_candidates(cross, psi, row_primes)
    completion = [m for m in extended_square_factors(psi, row_primes) if m not in candidates]
    if pins.mu is not None:
        if pins.mu not in candidates and pins.mu not in completion:
            raise InvalidArgument(
                f"mu={pins.mu} is not among the candidates {candidates}"
                f" or the completion factors {completion}"
            )
        rounds = [(pins.mu,)]
    else:
        rounds = [tuple(r) for r in (candidates, completion) if r]
    if not rounds:
        raise DegenerateKernel("no surviving square factors")
    return StrongSearch(
        sel, phi, psi, kernel, cross, candidates, [ScanRound(mus) for mus in rounds], pins
    )


@dataclass
class PreparedSearch:
    """A search of one homogeneous space, built once and advanced rung by
    rung.  Everything before the final scan is built when it is prepared;
    every shell a round has scanned is known to hold no hit, so advancing
    to a cap returns what a fresh search at that cap returns.  The state
    is plain data, so it pickles: a pool job can take it and return it
    advanced."""

    space: HomogeneousSpace
    selection: PairSelection
    search: StrongSearch | WeakSearch
    degenerate_kernel: Optional[str] = None   # why a strong chain fell back

    def advance(self, cap: int) -> SearchOutcome:
        """The search's hit up to radius `cap`, mapped to the space's
        variable order and checked against its four quadrics here; raises
        EffortExhausted when there is none."""
        outcome = self.search.advance(cap)
        solution = solution_in_space_order(self.selection, outcome.quadruple)
        if not self.space.satisfied_by(solution):
            raise VerificationFailure(f"{outcome.method} result does not satisfy the space")
        return dataclasses.replace(
            outcome,
            selection=self.selection,
            space_solution=solution,
            degenerate_kernel=self.degenerate_kernel,
        )


def prepare_search(space: HomogeneousSpace, pins: Optional[StagePins] = None) -> PreparedSearch:
    """Prepare the staged search of a space: the strong chain up to its
    final scan, or the weak search when no quadric of the space has a
    zero-coordinate point or the kernel stage degenerates."""
    pins = pins or StagePins()
    degenerate = None
    try:
        sel = select_equation_pair(space)
        search = _prepare_strong(sel, pins)
    except (ConditionFailure, DegenerateKernel) as exc:
        if isinstance(exc, DegenerateKernel):
            degenerate = str(exc)
        sel = weak_pair(space)
        search = _prepare_weak(sel.q1, sel.q2)
    return PreparedSearch(space, sel, search, degenerate)


def strong_solve(
    space: HomogeneousSpace, cap: int = 2000, pins: Optional[StagePins] = None
) -> SearchOutcome:
    """Full staged search on a homogeneous space, from radius 1 up to `cap`:
    `prepare_search`, then one advance to that cap."""
    return prepare_search(space, pins).advance(cap)


def back_substitute(
    phi: ConicParametrization,
    psi: ConicParametrization,
    mu: int,
    gamma: ConicParametrization,
    rho: tuple[int, int],
    sigma1: int,
    sel: PairSelection,
) -> tuple[Quad, Quad, Triple]:
    """Walk a final-loop hit back through the chain to a primitive quadruple
    verified against both renamed quadrics."""
    z = gamma(*rho)
    zvec = (z[0], z[1], z[2], sigma1)
    y = psi(z[0], z[1])
    if y[0] != mu * z[2] * z[2]:
        raise VerificationFailure(f"rho={rho}: psi row 0 is not mu*Z2^2")
    if y[1] != mu * sigma1 * sigma1:
        raise VerificationFailure(f"rho={rho}: psi row 1 is not mu*sigma1^2")
    xi0 = is_perfect_square(mu * y[0])
    xi1 = is_perfect_square(mu * y[1])
    if xi0 is None or xi1 is None:
        raise VerificationFailure(f"rho={rho}: mu*Y0 or mu*Y1 is not a square")
    x0, x1, x2 = phi(xi0, xi1)
    x3 = mu * y[2]
    quadruple = primitive_normalize((x0, x1, x2, x3))
    a00, a11, a22 = sel.q1
    b00, b11, b33 = sel.q2
    if a00 * quadruple[0] ** 2 + a11 * quadruple[1] ** 2 + a22 * quadruple[2] ** 2 != 0:
        raise VerificationFailure(f"{quadruple} misses Q1 {sel.q1}")
    if b00 * quadruple[0] ** 2 + b11 * quadruple[1] ** 2 + b33 * quadruple[3] ** 2 != 0:
        raise VerificationFailure(f"{quadruple} misses Q2 {sel.q2}")
    return quadruple, zvec, y
