import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import (
    oracle_coprime_pattern_ok,
    oracle_final_search,
    oracle_rows_solvable,
    oracle_scan_quartic,
    oracle_scan_weak,
)

import concordant.solver
from concordant import cli
from concordant.curves import ConcordantCurve, log_height
from concordant.descent import DescentTriplet, build_homogeneous_space, classify, lift_solution
from concordant.errors import (
    ConditionFailure,
    DegenerateKernel,
    EffortExhausted,
    InvalidArgument,
    NoSolution,
    VerificationFailure,
)
from concordant.integers import (
    factorize,
    is_perfect_square,
    primitive_normalize,
    shell_pairs,
    squarefree_part,
)
from concordant.quadforms import TernaryForm, compose_quartic, find_conic_point, parametrize_conic
from concordant.solver import (
    SIEVE_PRIMES,
    _row_primes,
    ScanRound,
    StagePins,
    extended_square_factors,
    kernel_cross_term,
    parameter_kernel,
    pinned_parametrization,
    prepare_search,
    quartic_hit,
    quartic_sieve,
    scaled_square_conic,
    scan_schedule,
    scan_shell,
    select_equation_pair,
    solution_in_space_order,
    square_factor_candidates,
    strong_solve,
    substituted_conic,
    weak_pair,
    weak_solve,
)

PHI_142 = ((0, 16, 0), (8, 0, 3), (-16, 0, 6))
PSI_142 = ((-90, 81, -20), (-719, 640, -144), (-9, 40, -16))
GAMMA_142 = ((-5, 10, 279), (-19, 180, -90), (-5, 81, -360))
QUARTIC_142 = (-9159, 359260, -5176610, 32218380, -73204479)


def signed_divisors(primes):
    """+-d for every squarefree product d of the primes, by |d|, positive
    first."""
    cores = [1]
    for p in primes:
        cores += [c * p for c in cores]
    return [mu for d in sorted(cores) for mu in (d, -d)]


def pinned_chain_psi():
    q1 = TernaryForm(3, 0, -8, 2)
    phi = pinned_parametrization(q1, PHI_142)
    q3 = substituted_conic(phi, (1, -2, -142))
    return phi, q3, pinned_parametrization(q3, PSI_142)


class TestSelectEquationPair:
    def test_n142(self):
        hs = build_homogeneous_space(DescentTriplet(1, 2, 2), 142, -426)
        sel = select_equation_pair(hs)
        assert sel.q1 == (3, -8, 2)
        assert sel.q2 == (1, -2, -142)
        assert sel.base == (0, 1, 2)
        assert sel.var_order == ("a", "b", "c", "d")

    def test_condition_failure(self):
        hs = build_homogeneous_space(DescentTriplet(2, 3, 6), 23, -69)
        with pytest.raises(ConditionFailure):
            select_equation_pair(hs)

    def test_congruent_prime_shape(self):
        hs = build_homogeneous_space(DescentTriplet(1, -1, -1), 5, -5)
        sel = select_equation_pair(hs)
        assert sel.q1 == (2, 1, -1)
        assert sel.q2 == (1, 1, -5)
        assert sel.base == (0, 1, 1)


class TestWeakSolve:
    def test_published_fallback(self):
        hs = build_homogeneous_space(DescentTriplet(2, 3, 6), 23, -69)
        sel = weak_pair(hs)
        # the weak search finds its own point on Q1
        assert sel.base is None
        out = weak_solve(sel.q1, sel.q2, 50)
        assert tuple(abs(v) for v in out.quadruple) == (7, 5, 1, 1)
        point = lift_solution(
            DescentTriplet(2, 3, 6), 23, -69, solution_in_space_order(sel, out.quadruple)
        )
        assert (point.x, abs(point.y)) == (75, 210)

    def test_other_members_of_family(self):
        for k in (47, 71, 167):
            hs = build_homogeneous_space(DescentTriplet(2, 3, 6), k, -3 * k)
            out = strong_solve(hs, 300)
            assert out.method == "weak"
            c = ConcordantCurve(k, -3 * k)
            point = lift_solution(DescentTriplet(2, 3, 6), k, -3 * k, out.space_solution)
            assert c.contains(point)

    def test_height_ratio_diagnostic(self):
        hs = build_homogeneous_space(DescentTriplet(2, 3, 6), 23, -69)
        sel = weak_pair(hs)
        out = weak_solve(sel.q1, sel.q2, 50)
        # the reported heights are read off the typed hit
        assert (out.parameter, out.pairs_tested) == ((-1, 1), 2)
        assert log_height(out.parameter) == 0.0
        assert log_height(out.quadruple) == math.log10(7)

    def test_exhaustion(self):
        # the minimal weak parameters for this pair are far beyond radius 3
        hs = build_homogeneous_space(DescentTriplet(1, 2, 2), 142, -426)
        sel = weak_pair(hs)
        with pytest.raises(EffortExhausted):
            weak_solve(sel.q1, sel.q2, 3)

    def test_oracle_equivalence_sample(self, rng):
        _weak_matches_bruteforce(rng, systems=6)


def _brute_system_solutions(q1, q2, bound):
    a00, a11, a22 = q1
    b00, b11, b33 = q2
    sols = set()
    for x0 in range(0, bound + 1):
        for x1 in range(-bound, bound + 1):
            s = -(a00 * x0 * x0 + a11 * x1 * x1)
            t = -(b00 * x0 * x0 + b11 * x1 * x1)
            if s % a22 or t % b33:
                continue
            s //= a22
            t //= b33
            if s < 0 or t < 0:
                continue
            r2, r3 = math.isqrt(s), math.isqrt(t)
            if r2 * r2 == s and r3 * r3 == t and any((x0, x1, r2, r3)):
                sols.add(primitive_normalize((abs(x0), abs(x1), r2, r3)))
    return sols


def _weak_matches_bruteforce(rng, systems):
    done = 0
    while done < systems:
        x = tuple(rng.randint(1, 6) for _ in range(2))
        a00, a11 = (rng.choice([v for v in range(-8, 9) if v]) for _ in range(2))
        b00, b11 = (rng.choice([v for v in range(-8, 9) if v]) for _ in range(2))
        a22 = -(a00 * x[0] ** 2 + a11 * x[1] ** 2)
        b33 = -(b00 * x[0] ** 2 + b11 * x[1] ** 2)
        if a22 == 0 or b33 == 0:
            continue
        try:
            TernaryForm(a00, 0, a11, a22)
        except Exception:
            continue
        brute = _brute_system_solutions((a00, a11, a22), (b00, b11, b33), 60)
        if not brute:
            continue
        try:
            out = weak_solve((a00, a11, a22), (b00, b11, b33), 400)
        except EffortExhausted:
            continue
        canonical = tuple(abs(v) for v in out.quadruple)
        q1v = a00 * canonical[0] ** 2 + a11 * canonical[1] ** 2 + a22 * canonical[2] ** 2
        q2v = b00 * canonical[0] ** 2 + b11 * canonical[1] ** 2 + b33 * canonical[3] ** 2
        assert q1v == 0 and q2v == 0
        if max(canonical) <= 60:
            assert canonical in brute
        done += 1


class TestMiddleStages:
    def test_substituted_conic(self):
        phi, q3, _ = pinned_chain_psi()
        assert q3.coefficients == (-64, 80, -9, -71)

    def test_substitution_identity(self):
        # the partner evaluated on the sweep equals the substituted conic on
        # squared parameters, up to the cleared content
        phi, q3, _ = pinned_chain_psi()
        for s, t, x3 in [(1, 1, 3), (2, -1, 7), (5, 3, 11)]:
            f0, f1, _ = phi(s, t)
            lhs = f0 * f0 - 2 * f1 * f1 - 142 * x3 * x3
            rhs = q3(s * s, t * t, x3)
            assert lhs == 2 * rhs

    def test_congruent_prime_conic_shape(self):
        # the standard congruent-number chain: the substituted conic keeps
        # the curve parameter in its last coefficient
        for k in (5, 13, 29):
            hs = build_homogeneous_space(DescentTriplet(1, -1, -1), k, -k)
            sel = select_equation_pair(hs)
            q1 = TernaryForm(sel.q1[0], 0, sel.q1[1], sel.q1[2])
            phi = pinned_parametrization(q1, tuple(parametrize_conic(q1, sel.base).rows))
            conic = substituted_conic(phi, sel.q2)
            assert conic.coefficients == (1, 0, 4, -k)

    def test_parameter_kernel(self):
        _, _, psi = pinned_chain_psi()
        kernel = parameter_kernel(psi)
        assert kernel == (2552, -315, -355)
        assert sum(k * v for k, v in zip(kernel, psi.column(0))) == 0
        assert sum(k * v for k, v in zip(kernel, psi.column(2))) == 0

    def test_kernel_scaling_invariance(self):
        _, q3, psi = pinned_chain_psi()
        scaled = pinned_parametrization(q3, tuple(tuple(3 * c for c in row) for row in psi.rows))
        assert parameter_kernel(scaled) == parameter_kernel(psi)

    def test_cross_term(self):
        _, _, psi = pinned_chain_psi()
        assert kernel_cross_term(parameter_kernel(psi), psi) == -9088

    def test_square_factor_candidates(self):
        _, _, psi = pinned_chain_psi()
        assert square_factor_candidates(-9088, psi, _row_primes(psi)) == [-1, -71]

    def test_zero_cross_term_has_no_candidates(self):
        _, _, psi = pinned_chain_psi()
        assert square_factor_candidates(0, psi, _row_primes(psi)) == []

    def test_candidates_divide_core(self):
        _, _, psi = pinned_chain_psi()
        for mu in square_factor_candidates(-9088, psi, _row_primes(psi)):
            assert 142 % abs(mu) == 0

    def test_scaled_conics(self):
        _, _, psi = pinned_chain_psi()
        assert scaled_square_conic(psi.rows[0], -71).coefficients == (-90, 81, -20, 71)
        assert scaled_square_conic(psi.rows[1], -71).coefficients == (-719, 640, -144, 71)


class TestCoprimePattern:
    """The one-variable pattern test against the test on unit pairs."""

    def test_matches_pair_oracle_on_families(self):
        # every signed divisor of the cross-term core and of the rows'
        # resultant, on each strong class of the five families
        checked = 0
        for family in sorted(cli.FAMILIES):
            for p, q, k in cli._family_curves(family, 200):
                curve = ConcordantCurve.from_pqk(p, q, k)
                for c in classify(p, q, k).surviving_classes:
                    space = build_homogeneous_space(c["representative"], curve.m, curve.n)
                    search = prepare_search(space).search
                    if not isinstance(search, concordant.solver.StrongSearch):
                        continue
                    psi = search.psi
                    res = concordant.solver._binary_resultant(psi.rows[0], psi.rows[1])
                    primes = set(factorize(abs(res)).primes())
                    if search.cross_term:
                        primes |= set(factorize(squarefree_part(search.cross_term)[0]).primes())
                    for mu in signed_divisors(sorted(primes)):
                        mu_primes = factorize(abs(mu)).primes()
                        assert concordant.solver._coprime_pattern_ok(
                            psi, mu, mu_primes
                        ) == oracle_coprime_pattern_ok(psi, mu), (family, k, mu)
                        checked += 1
        assert checked > 500

    def test_matches_pair_oracle_on_drawn_rows(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        row = st.tuples(*[st.integers(-10**4, 10**4)] * 3)
        primes = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 31, 53, 97)), unique=True)

        @hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
        @hypothesis.given(row, row, primes, st.sampled_from((1, -1)))
        def check(r0, r1, mu_primes, sign):
            psi = SimpleNamespace(rows=(r0, r1, (0, 0, 0)))
            mu = sign * math.prod(mu_primes)
            assert concordant.solver._coprime_pattern_ok(
                psi, mu, mu_primes
            ) == oracle_coprime_pattern_ok(psi, mu)

        check()


def _oracle_candidates(cross_term, psi):
    core = abs(squarefree_part(cross_term)[0])
    return [
        mu
        for mu in signed_divisors(factorize(core).primes())
        if oracle_rows_solvable(psi, mu) and oracle_coprime_pattern_ok(psi, mu)
    ]


def _oracle_completion(psi):
    res = concordant.solver._binary_resultant(psi.rows[0], psi.rows[1])
    primes = factorize(abs(res)).primes()
    return [mu for mu in signed_divisors(primes) if oracle_rows_solvable(psi, mu)]


class TestSquareFactorTable:
    """The square factors decided on one parity table per psi against the
    per-mu reduction of both row conics."""

    def _check_psis(self, monkeypatch, runs):
        # every psi that prepare_search builds on the given curves
        psis = []
        kernel = concordant.solver.parameter_kernel

        def record(psi):
            psis.append(psi)
            return kernel(psi)

        monkeypatch.setattr(concordant.solver, "parameter_kernel", record)
        for p, q, k in runs:
            curve = ConcordantCurve.from_pqk(p, q, k)
            for c in classify(p, q, k).surviving_classes:
                space = build_homogeneous_space(c["representative"], curve.m, curve.n)
                try:
                    prepare_search(space)
                except (EffortExhausted, NoSolution):
                    pass
        monkeypatch.undo()
        kept = 0
        for psi in psis:
            cross = kernel_cross_term(parameter_kernel(psi), psi)
            if cross:
                candidates = square_factor_candidates(cross, psi, _row_primes(psi))
                assert candidates == _oracle_candidates(cross, psi), psi.rows
                kept += len(candidates)
            completion = extended_square_factors(psi, _row_primes(psi))
            assert completion == _oracle_completion(psi), psi.rows
            kept += len(completion)
        return len(psis), kept

    def test_matches_oracle_on_families(self, monkeypatch):
        runs = [curve for f in sorted(cli.FAMILIES) for curve in cli._family_curves(f, 200)]
        psis, kept = self._check_psis(monkeypatch, runs)
        assert psis >= 80 and kept >= 300

    def test_matches_oracle_on_pool(self, monkeypatch):
        pool_file = Path(__file__).resolve().parents[1] / "perfbench" / "largek_pool.json"
        groups = json.loads(pool_file.read_text())["groups"]
        runs = [tuple(member) for g in groups for member in g["members"]]
        assert len(runs) == 34
        psis, kept = self._check_psis(monkeypatch, runs)
        assert psis >= 100 and kept >= 400

    def test_matches_oracle_on_drawn_rows(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        nonzero = st.integers(-10**4, 10**4).filter(bool)
        general = st.tuples(nonzero, st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
        # a*(b*X + c*Y)^2 has disc = 0
        small = st.integers(-50, 50)
        square = st.builds(lambda a, b, c: (a * b * b, 2 * a * b * c, a * c * c), nonzero, small, small)
        square = square.filter(lambda r: r[0])
        content = st.sampled_from((1, 1, 1, 2, 3, 4, 6, 9, 10, 49))
        shapes = st.one_of(general, general, square)
        row = st.builds(lambda r, g: tuple(g * c for c in r), shapes, content)
        primes = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 31, 53, 97)), unique=True, max_size=5)
        seen = dict.fromkeys(("disc0", "two", "content", "shared", "kept"), 0)

        @hypothesis.settings(max_examples=600, deadline=None, database=None, derandomize=True)
        @hypothesis.given(row, row, primes, st.lists(st.integers(1, 3), min_size=5, max_size=5))
        def check(r0, r1, mu_primes, exponents):
            psi = SimpleNamespace(rows=(r0, r1, (0, 0, 0)))
            got = concordant.solver._solvable_square_factors(psi, mu_primes, _row_primes(psi))
            expected = [mu for mu in signed_divisors(mu_primes) if oracle_rows_solvable(psi, mu)]
            assert got == expected
            cross = -math.prod(p**e for p, e in zip(mu_primes, exponents))
            candidates = square_factor_candidates(cross, psi, _row_primes(psi))
            assert candidates == _oracle_candidates(cross, psi)
            seen["disc0"] += any(r[1] ** 2 == 4 * r[0] * r[2] for r in (r0, r1))
            seen["two"] += 2 in mu_primes
            seen["content"] += any(math.gcd(*r) > 1 for r in (r0, r1))
            seen["shared"] += any(r[0] % p == 0 for p in mu_primes for r in (r0, r1))
            seen["kept"] += len(got) > 0

        check()
        assert min(seen.values()) >= 50, seen


class TestFinalLoop:
    def test_published_hit(self):
        assert quartic_hit(QUARTIC_142, -71, 20, 3) == 387
        val = sum(
            c * 20 ** (4 - i) * 3**i for i, c in enumerate(QUARTIC_142)
        )
        assert val == -10633599
        assert -71 * 387 * 387 == val

    def test_wrong_scale_exhausts_within_radius(self):
        # with the published middle stages, the other surviving candidate
        # yields no hit inside radius 200
        hs = build_homogeneous_space(DescentTriplet(1, 2, 2), 142, -426)
        pins = StagePins(phi_rows=PHI_142, psi_rows=PSI_142, mu=-1)
        with pytest.raises(EffortExhausted):
            strong_solve(hs, 200, pins=pins)

    def test_pinned_chain_end_to_end(self):
        hs = build_homogeneous_space(DescentTriplet(1, 2, 2), 142, -426)
        pins = StagePins(phi_rows=PHI_142, psi_rows=PSI_142, mu=-71, gamma_rows=GAMMA_142)
        # the final scan finds the published parameters (20, 3)
        with pytest.raises(EffortExhausted):
            strong_solve(hs, 1, pins=pins)
        out = strong_solve(hs, 500, pins=pins)
        assert strong_solve(hs, 200, pins=pins) == out
        assert out.quadruple == (2352960, 1604507, -1411786, -52241)
        assert (out.parameter, out.pairs_tested) == ((20, 3), 507)
        st = out.chain
        assert st.z_values == (1111, 2390, -380, 387)
        assert st.y_values == (-10252400, -10633599, 3709111)
        assert st.quartic == QUARTIC_142
        assert st.mu == -71
        assert st.mu_candidates == [-1, -71]


class TestStrongSolve:
    def test_free_choice_n142(self):
        hs = build_homogeneous_space(DescentTriplet(1, 2, 2), 142, -426)
        out = strong_solve(hs, 500)
        solution = out.space_solution
        assert hs.satisfied_by(solution)
        point = lift_solution(DescentTriplet(1, 2, 2), 142, -426, solution)
        curve = ConcordantCurve(142, -426)
        assert curve.contains(point)
        assert not curve.is_torsion(point)

    def test_stage_identities_hold(self):
        hs = build_homogeneous_space(DescentTriplet(1, 2, 2), 142, -426)
        out = strong_solve(hs, 500)
        st = out.chain
        assert st.phi.is_valid()
        assert st.psi.is_valid()
        assert st.gamma.is_valid()
        z = st.z_values
        assert st.psi(z[0], z[1])[0] == st.mu * z[2] * z[2]
        assert st.psi(z[0], z[1])[1] == st.mu * z[3] * z[3]

    def test_falls_back_to_weak(self):
        hs = build_homogeneous_space(DescentTriplet(2, 3, 6), 23, -69)
        out = strong_solve(hs, 100)
        assert out.method == "weak"
        assert tuple(abs(v) for v in out.quadruple) == (7, 5, 1, 1)
        # no quadric has a zero-coordinate point: the kernel was never reached
        assert (out.chain, out.degenerate_kernel) == (None, None)

    def test_mu_override_validated(self):
        hs = build_homogeneous_space(DescentTriplet(1, 2, 2), 142, -426)
        with pytest.raises(InvalidArgument):
            strong_solve(hs, 50, pins=StagePins(mu=17))

    def test_solution_satisfies_all_four_quadrics(self):
        for t, m, n in [
            (DescentTriplet(1, -1, -1), 5, -5),
            (DescentTriplet(1, 2, 2), 14, -42),
        ]:
            hs = build_homogeneous_space(t, m, n)
            out = strong_solve(hs, 300)
            assert hs.satisfied_by(out.space_solution)

    def test_descent_consistency_of_lift(self):
        t = DescentTriplet(1, 2, 2)
        hs = build_homogeneous_space(t, 14, -42)
        out = strong_solve(hs, 300)
        point = lift_solution(t, 14, -42, out.space_solution)
        assert ConcordantCurve(14, -42).square_classes(point) == t.as_tuple()

    def test_degenerate_kernel_falls_back_to_weak(self, monkeypatch):
        def degenerate(psi):
            raise DegenerateKernel("pure-square columns are linearly dependent")

        monkeypatch.setattr(concordant.solver, "parameter_kernel", degenerate)
        hs = build_homogeneous_space(DescentTriplet(1, 2, 2), 14, -42)
        out = strong_solve(hs, 300)
        assert (out.method, out.pairs_tested) == ("weak", 2)
        assert out.degenerate_kernel == "pure-square columns are linearly dependent"
        assert out.chain is None
        assert out.selection == weak_pair(hs)
        assert hs.satisfied_by(out.space_solution)

    @pytest.mark.parametrize(
        "triplet, m, n, method",
        [((1, 2, 2), 14, -42, "strong"), ((2, 3, 6), 23, -69, "weak")],
    )
    def test_space_check_failure_is_a_defect(self, monkeypatch, triplet, m, n, method):
        def permuted(sel, quad):
            a, b, c, d = solution_in_space_order(sel, quad)
            return (b, a, d, c)

        hs = build_homogeneous_space(DescentTriplet(*triplet), m, n)
        assert strong_solve(hs, 300).method == method
        monkeypatch.setattr(concordant.solver, "solution_in_space_order", permuted)
        with pytest.raises(VerificationFailure, match=f"{method} result does not satisfy"):
            strong_solve(hs, 300)

    def test_unpinned_parametrization_is_computed(self):
        q1 = TernaryForm(3, 0, -8, 2)
        _, q3, _ = pinned_chain_psi()
        for form, base in ((q1, (0, 1, 2)), (q3, (10, 9, 1)), (q3, find_conic_point(q3))):
            assert pinned_parametrization(form, base=base) == parametrize_conic(form, base)
        # without a base, from the conic's first point
        assert pinned_parametrization(q3) == parametrize_conic(q3, find_conic_point(q3))
        # the paper's psi and gamma are the ones its base points give, and
        # its phi is the one from (0, 1, 2) at (2s, t)
        phi = pinned_parametrization(q1, base=(0, 1, 2))
        assert tuple((4 * a, 2 * b, c) for a, b, c in phi.rows) == PHI_142
        assert pinned_parametrization(q3, base=(10, 9, 1)).rows == PSI_142
        q4 = TernaryForm(-90, 81, -20, 71)
        assert pinned_parametrization(q4, base=(4, 1, 4)).rows == GAMMA_142

    def test_pinned_parametrization_validation(self):
        q1 = TernaryForm(3, 0, -8, 2)
        _, q3, _ = pinned_chain_psi()
        with pytest.raises(InvalidArgument, match="does not sweep"):
            pinned_parametrization(q3, PHI_142)
        with pytest.raises(InvalidArgument, match="does not sweep"):
            pinned_parametrization(q1, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


_SQUAREFREE_MU = (1, -1, 2, -2, 3, -5, 6, -7, 11, -15, 23, -29, 46, -105, 1155, -30030)


def _random_quartic(rng):
    # coefficient sizes from 1 to 10^6 on a log scale: small ones give many
    # hits, large ones mostly none; some quartics vanish at an axis pair
    bound = int(10 ** (6 * rng.random() ** 2)) + 1
    quartic = [rng.randint(-bound, bound) for _ in range(5)]
    if rng.random() < 0.1:
        quartic[rng.choice((0, 4))] = 0
    return tuple(quartic)


class TestScanKernel:
    def test_matches_oracle_on_random_quartics(self, rng):
        shells = {r: shell_pairs(r) for r in range(1, 41)}
        hits = 0
        for _ in range(2000):
            quartic, mu = _random_quartic(rng), rng.choice(_SQUAREFREE_MU)
            sieve = quartic_sieve(quartic, mu)
            for r in range(1, rng.randint(1, 40) + 1):
                hit = scan_shell(sieve, r)
                assert hit == oracle_scan_quartic(quartic, mu, shells[r]), (quartic, mu, r)
                hits += hit is not None
        assert hits > 500

    def test_n142_every_shell_to_radius_300(self):
        for mu in (-71, -1):
            sieve = quartic_sieve(QUARTIC_142, mu)
            for r in range(1, 301):
                assert scan_shell(sieve, r) == oracle_scan_quartic(QUARTIC_142, mu, shell_pairs(r))

    def test_round_robin_matches_oracle(self, rng):
        cases = [[(QUARTIC_142, -1), (QUARTIC_142, -71)], [(QUARTIC_142, -1)]]
        cases += [
            [(_random_quartic(rng), rng.choice(_SQUAREFREE_MU)) for _ in range(rng.randint(1, 4))]
            for _ in range(40)
        ]
        for qm in cases:
            sieves = [quartic_sieve(q, mu) for q, mu in qm]
            for cap in (1, 20, 60):
                expected = oracle_final_search(qm, cap)
                assert scan_schedule(ScanRound(sieves=tuple(sieves)), cap) == expected

    def test_weak_forms_match_oracle(self):
        forms = [
            ((3, -8, 2), (1, -2, -142), (0, 1, 2)),
            ((1, 1, -2), (1, 4, -5), (1, 1, 1)),
            ((1, 1, -1), (1, 1, -1), None),
            ((1, 1, -1), (2, 7, -1), None),
        ]
        for q1, (b00, b11, b33), base in forms:
            form = TernaryForm(q1[0], 0, q1[1], q1[2])
            phi = parametrize_conic(form, base or find_conic_point(form))
            quartic = compose_quartic((-b33 * b00, 0, -b33 * b11), phi)
            for skip in (False, True):
                sieve = quartic_sieve(quartic, 1, phi.rows if skip else ())
                for r in range(1, 41):
                    expected = oracle_scan_weak(phi.rows, b00, b11, b33, skip, shell_pairs(r))
                    assert scan_shell(sieve, r) == expected, (q1, skip, r)

    def test_skip_drops_zero_coordinate_hits(self):
        # on X0^2 + X1^2 = X2^2 every pair is a hit for X0^2 + X1^2 = X3^2,
        # and every pair of shell 1 gives a zero coordinate
        q = (1, 1, -1)
        form = TernaryForm(1, 0, 1, -1)
        phi = parametrize_conic(form, find_conic_point(form))
        quartic = compose_quartic((1, 0, 1), phi)
        found = []
        for nonzero in ((), phi.rows):
            scan = ScanRound(sieves=(quartic_sieve(quartic, 1, nonzero),))
            _, (s, t), root, tested = scan_schedule(scan, 5)
            found.append((primitive_normalize(phi(s, t) + (root,)), tested))
        assert found == [((1, 0, 1, 1), 1), ((3, 4, 5, 5), 6)]
        out = weak_solve(q, q, 5)
        assert (out.quadruple, out.pairs_tested) == ((3, 4, 5, 5), 6)

    def test_square_value_is_never_sieved_out(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coeff = st.integers(-10**6, 10**6)

        @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.tuples(*[coeff] * 5), st.integers(-60, 60), st.integers(0, 60))
        def check(quartic, s0, t0):
            hypothesis.assume(math.gcd(s0, t0) == 1)
            val = sum(c * s0 ** (4 - i) * t0**i for i, c in enumerate(quartic))
            hypothesis.assume(val != 0)
            # mu*f(s0, t0) = (mu*r)^2 for the squarefree part mu of f(s0, t0)
            mu = squarefree_part(val)[0]
            sieve = quartic_sieve(quartic, mu)
            for p, rows, cols in zip(SIEVE_PRIMES, sieve.rows, sieve.cols):
                assert rows[s0 % p] >> (t0 % p) & 1
                assert cols[t0 % p] >> (s0 % p) & 1
            r = max(abs(s0), t0)
            hit = scan_shell(sieve, r)
            assert hit is not None
            assert hit[0] <= shell_pairs(r).index((s0, t0))

        check()
