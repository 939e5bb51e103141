import itertools
import json
import math
import random
from pathlib import Path

import pytest

from conftest import (
    brute_legendre_solvable,
    oracle_find_conic_point,
    oracle_shell_find_conic_point,
    oracle_map_back,
    oracle_parameter_shrink,
    oracle_reduce_to_legendre,
    random_degenerate_base_form,
    random_solvable_form,
)

from concordant.errors import (
    ConcordantError,
    DegenerateForm,
    EffortExhausted,
    InvalidArgument,
    NoSolution,
    NotBiquadratic,
)
from concordant import cli, quadforms, solver
from concordant.integers import primitive_normalize, squarefree_part
from concordant.quadforms import (
    ConicParametrization,
    LegendreForm,
    TernaryForm,
    compose_quartic,
    find_conic_point,
    legendre_solvable,
    parametrize_conic,
    reduce_to_legendre,
    reduced_parities,
    zero_coordinate_point,
)


class TestTernaryForm:
    def test_content_divided(self):
        f = TernaryForm(2, 0, 2, -4)
        assert f.coefficients == (1, 0, 1, -2)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateForm):
            TernaryForm(1, 2, 1, 5)  # a01^2 = 4*a00*a11
        with pytest.raises(DegenerateForm):
            TernaryForm(1, 0, 1, 0)


class TestReduceToLegendre:
    def test_identity_case(self):
        red = reduce_to_legendre(TernaryForm(1, 0, 1, -1))
        assert red.coefficients == (1, 1, -1)
        assert red.scales == (1, 1, 1)

    def test_square_factor_absorbed(self):
        # absorbing -8 = -2*2^2 leaves (3, -2, 2), whose middle and last
        # coefficients still share a 2; the pair rule then lands on (6, -1, 1)
        red = reduce_to_legendre(TernaryForm(3, 0, -8, 2))
        assert red.coefficients == (6, -1, 1)
        # a solution of the reduced form maps back onto the source form
        src = TernaryForm(3, 0, -8, 2)
        point = red.map_back((0, 1, 1))
        assert src(*point) == 0

    def test_common_content(self):
        red = reduce_to_legendre(TernaryForm(2, 0, 2, -4))
        assert red.coefficients == (1, 1, -2)

    def test_invariants_on_randoms(self, rng):
        for _ in range(200):
            coeffs = [rng.choice([v for v in range(-60, 61) if v]) for _ in range(3)]
            form = TernaryForm(coeffs[0], 0, coeffs[1], coeffs[2])
            red = reduce_to_legendre(form)
            a, b, c = red.coefficients
            from concordant.integers import squarefree_part

            assert squarefree_part(a)[0] == a
            assert squarefree_part(b)[0] == b
            assert squarefree_part(c)[0] == c
            assert math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1

    def test_back_map_on_randoms(self, rng):
        checked = 0
        for _ in range(400):
            if checked >= 40:
                break
            coeffs = [rng.choice([v for v in range(-25, 26) if v]) for _ in range(3)]
            form = TernaryForm(coeffs[0], 0, coeffs[1], coeffs[2])
            red = reduce_to_legendre(form)
            a, b, c = red.coefficients
            sol = None
            for x in range(0, 12):
                for y in range(-12, 13):
                    for z in range(-12, 13):
                        if (x, y, z) != (0, 0, 0) and a * x * x + b * y * y + c * z * z == 0:
                            sol = (x, y, z)
                            break
                    if sol:
                        break
                if sol:
                    break
            if sol is None:
                continue
            mapped = red.map_back(sol)
            assert form(*mapped) == 0
            checked += 1
        assert checked >= 20

    def test_matches_fraction_oracle(self, rng):
        # the integer divisors give the same reduction and the same mapped
        # points as the Fraction back-map matrix
        # from 2^20 up, where a primality test can stop the wheel: a
        # wheel-range prime times a prime above 2^20, two primes above 2^16
        # (rho), squares of both, shared by two coefficients or by all three
        big = (1009 * 1048583, 65537 * 65539, 1048583**2, 3 * 65539**2, 2**21 * 1048583)

        def drawn_big():
            return rng.choice((1, -1)) * rng.choice(big) * rng.randint(1, 9)

        cases = itertools.chain(
            ([_log_uniform_coefficient(rng, nonzero=True) for _ in "abc"] for _ in range(2000)),
            ([drawn_big() for _ in "abc"] for _ in range(300)),
            # one prime dividing all three coefficients at different exponents
            [
                [2 * 7**3, -3 * 7**2, 5 * 7],
                [3 * 2**5, -5 * 2**2, 11 * 2**3],
                [1048583**3, -1048583, 3 * 1048583**2],
                [65537**4 * 65539, -(65537**2), 5 * 65537**7],
            ],
        )
        for coeffs in cases:
            form = TernaryForm(coeffs[0], 0, coeffs[1], coeffs[2])
            red = reduce_to_legendre(form)
            oracle_coeffs, back = oracle_reduce_to_legendre(form)
            assert red.coefficients == oracle_coeffs, coeffs
            point = tuple(rng.randint(-50, 50) for _ in range(3))
            if point != (0, 0, 0):
                assert red.map_back(point) == oracle_map_back(back, point), (coeffs, point)


class TestReducedParities:
    def test_every_parity_triple(self):
        # a prime in one coefficient stays, in two moves to the third, in
        # three drops out
        expected = {
            (0, 0, 0): (0, 0, 0),
            (1, 0, 0): (1, 0, 0),
            (0, 1, 0): (0, 1, 0),
            (0, 0, 1): (0, 0, 1),
            (1, 1, 0): (0, 0, 1),
            (1, 0, 1): (0, 1, 0),
            (0, 1, 1): (1, 0, 0),
            (1, 1, 1): (0, 0, 0),
        }
        for parities, reduced in expected.items():
            assert reduced_parities(*parities) == reduced, parities

    def test_bitmasks_bit_by_bit(self, rng):
        for _ in range(500):
            masks = [rng.getrandbits(rng.randint(1, 70)) for _ in range(3)]
            reduced = reduced_parities(*masks)
            for bit in range(70):
                assert tuple(r >> bit & 1 for r in reduced) == reduced_parities(
                    *(m >> bit & 1 for m in masks)
                ), (masks, bit)


class TestLegendreSolvable:
    def test_examples(self):
        assert legendre_solvable(LegendreForm(1, 1, -1))
        assert not legendre_solvable(LegendreForm(1, 1, 1))
        assert legendre_solvable(LegendreForm(3, -2, 2))
        assert brute_legendre_solvable(3, -2, 2)

    def test_agreement_small_sweep(self):
        # the full |abc| <= 3000 sweep runs in the acceptance suite
        squarefree = [v for v in range(1, 14) if squarefree_part(v)[0] == v]
        for a in squarefree:
            for b in squarefree:
                if math.gcd(a, b) != 1:
                    continue
                for c in squarefree:
                    if math.gcd(a, c) != 1 or math.gcd(b, c) != 1:
                        continue
                    for sb in (1, -1):
                        for sc in (1, -1):
                            form = LegendreForm(a, sb * b, sc * c)
                            assert legendre_solvable(form) == brute_legendre_solvable(
                                a, sb * b, sc * c
                            ), (a, sb * b, sc * c)


class TestFindConicPoint:
    def test_published_conics_have_published_points(self):
        q3 = TernaryForm(-64, 80, -9, -71)
        assert q3(10, 9, 1) == 0
        q4 = TernaryForm(-90, 81, -20, 71)
        assert q4(4, 1, 4) == 0

    def test_returns_point_on_conic(self):
        for coeffs in [(-64, 80, -9, -71), (-90, 81, -20, 71), (1, 0, 1, -1), (3, 0, -8, 2)]:
            form = TernaryForm(*coeffs)
            pt = find_conic_point(form)
            assert form(*pt) == 0
            assert primitive_normalize(pt) == pt

    def test_unsolvable_raises(self):
        with pytest.raises(NoSolution):
            find_conic_point(TernaryForm(1, 0, 1, 1))
        with pytest.raises(NoSolution):
            find_conic_point(TernaryForm(1, 0, 1, -3))

    def test_holzer_bounds_on_reduced_forms(self, rng):
        # when the input is already reduced, the returned point obeys the
        # (inclusive) Holzer bounds
        checked = 0
        squarefrees = [v for v in range(1, 40) if squarefree_part(v)[0] == v]
        for _ in range(600):
            if checked >= 25:
                break
            vals = rng.sample(squarefrees, 3)
            if math.gcd(vals[0], vals[1]) != 1 or math.gcd(vals[0], vals[2]) != 1:
                continue
            if math.gcd(vals[1], vals[2]) != 1:
                continue
            a = vals[0]
            b = vals[1] * rng.choice([1, -1])
            c = vals[2] * rng.choice([1, -1])
            form = TernaryForm(a, 0, b, c)
            assert reduce_to_legendre(form).coefficients == (a, b, c)
            try:
                x0, x1, x2 = find_conic_point(form)
            except NoSolution:
                continue
            assert abs(x0) <= math.isqrt(abs(b * c))
            assert abs(x1) <= math.isqrt(abs(a * c))
            assert abs(x2) <= math.isqrt(abs(a * b))
            checked += 1
        assert checked >= 10

    def test_matches_cubic_oracle(self, monkeypatch):
        # same point or same error as the cubic shell scan with Fraction back
        # maps; a smaller box policy keeps the cubic scan quick and still
        # sends a share of the forms down the policy path
        rng = random.Random(20261017)
        policy = 1_000_000
        monkeypatch.setattr(quadforms, "MAX_BOX_POINTS", policy)
        outcomes = {"point": 0, "NoSolution": 0, "EffortExhausted": 0}
        forms = 0
        while forms < 3000:
            a00, a01, a11, a22 = (_log_uniform_coefficient(rng) for _ in range(4))
            if forms % 2:
                a01 = 0
            try:
                form = TernaryForm(a00, a01, a11, a22)
            except DegenerateForm:
                continue
            forms += 1
            expected = _outcome(oracle_find_conic_point, form, policy)
            assert _outcome(find_conic_point, form) == expected, form
            outcomes[expected[0] if isinstance(expected[0], str) else "point"] += 1
        assert outcomes["point"] >= 500
        assert outcomes["NoSolution"] >= 500
        assert outcomes["EffortExhausted"] >= 50

    def test_matches_shell_oracle_on_pool_conics(self, monkeypatch):
        # every conic the solver asks for on the first member of each group
        # of the benchmark's large-k pool, box-policy curves included: the
        # lattice search returns the shell scan's point or error
        pool_file = Path(__file__).resolve().parents[1] / "perfbench" / "largek_pool.json"
        pool = json.loads(pool_file.read_text())
        forms = []
        search = solver.find_conic_point

        def record(form, *args):
            forms.append(form)
            return search(form, *args)

        monkeypatch.setattr(solver, "find_conic_point", record)
        for group in pool["groups"]:
            try:
                cli.run_solve(*group["members"][0], radius_cap=pool["radius_cap"])
            except EffortExhausted:
                pass
        monkeypatch.undo()
        assert len(forms) >= 50
        kinds = set()
        for form in forms:
            expected = _outcome(oracle_shell_find_conic_point, form, 20_000_000)
            assert _outcome(find_conic_point, form) == expected, form
            kinds.add(expected[0] if isinstance(expected[0], str) else "point")
        assert kinds == {"point", "EffortExhausted"}

    def test_matches_shell_oracle_on_planted_forms(self, monkeypatch):
        # a planted point (x0, x1, 1) on a*X0^2 + b*X1^2 + c*X2^2 with a, b
        # products of up to three small primes: every form is solvable, and
        # most reduce to coefficients with three to five odd primes, so many
        # congruence lattices and sign orbits are searched
        rng = random.Random(20261018)
        monkeypatch.setattr(quadforms, "MAX_BOX_POINTS", 2_000_000)
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        points = forms = 0
        while forms < 1000:
            a, b = (
                rng.choice([1, -1]) * math.prod(rng.sample(primes, rng.randint(1, 3)))
                for _ in "ab"
            )
            x0, x1 = rng.randint(-9, 9), rng.randint(-9, 9)
            try:
                form = TernaryForm(a, 0, b, -(a * x0 * x0 + b * x1 * x1))
            except DegenerateForm:
                continue
            forms += 1
            expected = _outcome(oracle_shell_find_conic_point, form, 2_000_000)
            assert _outcome(find_conic_point, form) == expected, form
            points += not isinstance(expected[0], str)
        assert points >= 300

    def test_large_box_with_the_policy_lifted(self, monkeypatch):
        # the reduced form has |abc| near 1.7e20: a basis reduction in floats
        # stalls there with entries near the modulus, the integral one does not
        form = TernaryForm(653160, 0, -267854, -2340205991850)
        assert reduce_to_legendre(form).coefficients == (27215, -401781, -15601373279)
        with pytest.raises(EffortExhausted):
            find_conic_point(form)
        monkeypatch.setattr(quadforms, "MAX_BOX_POINTS", 10**40)
        point = find_conic_point(form)
        assert form(*point) == 0
        assert primitive_normalize(point) == point

    def test_point_lies_on_form_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coeff = st.integers(-12, 12)
        coord = st.integers(-4, 4)

        @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @hypothesis.given(coeff, coeff, coeff, coord, coord)
        def check(a00, a01, a11, x0, x1):
            # plant the point (x0, x1, 1), so the form is never ruled out
            a22 = -(a00 * x0 * x0 + a01 * x0 * x1 + a11 * x1 * x1)
            hypothesis.assume(a22 != 0 and 4 * a00 * a11 != a01 * a01)
            form = TernaryForm(a00, a01, a11, a22)
            try:
                point = find_conic_point(form)
            except EffortExhausted:
                hypothesis.reject()
            assert form(*point) == 0
            assert primitive_normalize(point) == point

        check()


def _log_uniform_coefficient(rng, nonzero=False):
    # magnitudes spread evenly over 1..3000 on a log scale, so that small
    # boxes (points found) and large ones (policy hit) both occur
    while True:
        v = rng.randint(-1, 1) * int(3000 ** rng.random())
        if v or not nonzero:
            return v


def _outcome(search, form, *policy):
    # an oracle takes its policy; find_conic_point reads MAX_BOX_POINTS
    try:
        return search(form, *policy)
    except ConcordantError as exc:
        return (type(exc).__name__, str(exc))


K23_SPACE_FORMS = [
    (1, 0, -2, 1),
    (2, 0, -3, -23),
    (1, 0, -3, -46),
    (1, 0, -2, -23),
]


class TestZeroCoordinatePoint:
    def test_zero_first_coordinate(self):
        assert zero_coordinate_point(TernaryForm(3, 0, -8, 2), 0) == (0, 1, 2)

    def test_zero_middle_coordinate(self):
        assert zero_coordinate_point(TernaryForm(1, 0, 1, -1), 1) == (1, 0, 1)

    def test_condition_failure_family(self):
        for coeffs in K23_SPACE_FORMS:
            form = TernaryForm(*coeffs)
            for idx in range(3):
                assert zero_coordinate_point(form, idx) is None

    def test_returned_points_lie_on_form(self, rng):
        for _ in range(200):
            a, b, c = (rng.choice([v for v in range(-40, 41) if v]) for _ in range(3))
            try:
                form = TernaryForm(a, 0, b, c)
            except DegenerateForm:
                continue
            for idx in range(3):
                pt = zero_coordinate_point(form, idx)
                if pt is not None:
                    assert pt[idx] == 0
                    assert form(*pt) == 0
                    assert primitive_normalize(pt) == pt


class TestParametrizeConic:
    def test_projection_rows_match_published_first_stage(self):
        form = TernaryForm(3, 0, -8, 2)
        rows = quadforms._projection_rows(form, (0, 1, 2))
        assert rows == [[0, 16, 0], [8, 0, 3], [-16, 0, 6]]
        # the canonical scaling halves the first parameter of the published rows
        assert parametrize_conic(form, (0, 1, 2)).rows == ((0, 8, 0), (2, 0, 3), (-4, 0, 6))

    def test_canonical_rescale_second_stage(self):
        # the canonical scaling halves the second parameter here
        param = parametrize_conic(TernaryForm(-64, 80, -9, -71), (10, 9, 1))
        assert param.rows == ((-90, 81, -20), (-719, 640, -144), (-9, 40, -16))

    def test_canonical_rescale_third_stage(self):
        # and quarters the first parameter here
        param = parametrize_conic(TernaryForm(-90, 81, -20, 71), (4, 1, 4))
        assert param.rows == ((-5, 10, 279), (-19, 180, -90), (-5, 81, -360))

    def test_base_not_on_conic_rejected(self):
        with pytest.raises(InvalidArgument):
            parametrize_conic(TernaryForm(3, 0, -8, 2), (1, 1, 1))

    def test_identity_on_random_solvable_forms(self, rng):
        for _ in range(60):
            form, base = random_solvable_form(rng)
            param = parametrize_conic(form, primitive_normalize(base))
            assert param.composed_with_source() == (0, 0, 0, 0, 0)

    def test_identity_with_degenerate_base(self, rng):
        for _ in range(40):
            form, base = random_degenerate_base_form(rng)
            param = parametrize_conic(form, primitive_normalize(base))
            assert param.composed_with_source() == (0, 0, 0, 0, 0)
            assert param(0, 1)[2] == 0 or form(*param(0, 1)) == 0

    def test_coverage_small(self, rng):
        # every small primitive solution appears in the sweep
        from concordant.integers import shell_pairs

        forms = 0
        for _ in range(100):
            if forms >= 8:
                break
            form, base = random_solvable_form(rng, coeff_bound=5)
            base = primitive_normalize(base)
            param = parametrize_conic(form, base)
            solutions = set()
            for x0 in range(-30, 31):
                for x1 in range(-30, 31):
                    for x2 in range(-30, 31):
                        if (x0, x1, x2) != (0, 0, 0) and form(x0, x1, x2) == 0:
                            solutions.add(primitive_normalize((x0, x1, x2)))
            if not 1 <= len(solutions) <= 40:
                continue
            forms += 1
            found = set()
            for r in range(1, 901):
                for s, t in shell_pairs(r):
                    v = param(s, t)
                    if any(v):
                        found.add(primitive_normalize(v))
                if solutions <= found:
                    break
            assert solutions <= found
        assert forms >= 4

    def test_parameter_shrink_matches_trial_division(self, rng):
        # contents built from small prime powers up to 50 000 (the oracle
        # loops up to the cross content), zero columns included
        def content():
            if rng.random() < 0.1:
                return 0
            while True:
                c = math.prod(p ** rng.randint(0, 5) for p in (2, 3, 5, 7, 11))
                if c <= 50_000:
                    return c

        for _ in range(2000):
            gsq, gcross = content(), content()
            rows = [[gsq * rng.randint(-3, 3), gcross * rng.randint(-3, 3), gsq * rng.randint(-3, 3)]
                    for _ in range(3)]
            for sq_col in (0, 2):
                assert quadforms._parameter_shrink(rows, sq_col) == oracle_parameter_shrink(rows, sq_col)


# the first stage of the n = 142 chain: Q1 = 3*X0^2 - 8*X1^2 + 2*X2^2 swept
# from (0, 1, 2), pushed through Q2 = X0^2 - 2*X1^2 - 142*X3^2
PHI_142 = ConicParametrization(((0, 16, 0), (8, 0, 3), (-16, 0, 6)), TernaryForm(3, 0, -8, 2))
Q2_142 = (1, -2, -142)


class TestSubstitution:
    def test_first_stage_substitution(self):
        quartic = compose_quartic((Q2_142[0], 0, Q2_142[1]), PHI_142)
        # the published quartic, before the content 2 it shares with -142 is
        # divided out
        assert quartic == tuple(2 * c for c in (-64, 0, 80, 0, -9))

    def test_corollary_kills_odd_coefficients(self, rng):
        # diagonal pair + zero-coordinate base point => biquadratic
        for _ in range(50):
            form, base = random_solvable_form(rng, with_cross=False)
            zero = zero_coordinate_point(form, 0) or zero_coordinate_point(form, 1)
            if zero is None:
                continue
            param = parametrize_conic(form, zero)
            quartic = compose_quartic((rng.randint(-9, 9), 0, rng.randint(-9, 9)), param)
            assert quartic[1] == 0 and quartic[3] == 0

    def test_third_stage_substitution_is_proportional_to_published(self):
        gamma = ConicParametrization(
            ((-5, 10, 279), (-19, 180, -90), (-5, 81, -360)),
            TernaryForm(-90, 81, -20, 71),
        )
        published = (-9159, 359260, -5176610, 32218380, -73204479)
        # the raw composition: its content 71 is shared with b33 = 71
        assert compose_quartic((-719, 640, -144), gamma) == published

    def test_substitution_matches_expansion_oracle(self, rng):
        # independent oracle: expand b00*F0^2 + b01*F0*F1 + b11*F1^2 by
        # convolution and compare with the closed-form coefficients
        def binary_mul(f, g):
            return (
                f[0] * g[0],
                f[0] * g[1] + f[1] * g[0],
                f[0] * g[2] + f[1] * g[1] + f[2] * g[0],
                f[1] * g[2] + f[2] * g[1],
                f[2] * g[2],
            )

        for _ in range(150):
            rows = tuple(
                tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3)
            )
            b00, b01, b11 = (rng.randint(-9, 9) for _ in range(3))
            expected = [0] * 5
            for coef, prod in (
                (b00, binary_mul(rows[0], rows[0])),
                (b01, binary_mul(rows[0], rows[1])),
                (b11, binary_mul(rows[1], rows[1])),
            ):
                for i in range(5):
                    expected[i] += coef * prod[i]
            param = ConicParametrization.__new__(ConicParametrization)
            object.__setattr__(param, "rows", rows)
            object.__setattr__(param, "source", None)
            assert compose_quartic((b00, b01, b11), param) == tuple(expected)


class TestBiquadratic:
    def test_published_reduction(self):
        assert solver.substituted_conic(PHI_142, Q2_142).coefficients == (-64, 80, -9, -71)

    def test_rejects_odd_terms(self):
        # a base point with no zero coordinate leaves the odd coefficients
        phi = parametrize_conic(TernaryForm(1, 0, -2, 1), (1, 1, 1))
        with pytest.raises(NotBiquadratic):
            solver.substituted_conic(phi, (2, -3, -23))

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateForm):
            solver.substituted_conic(PHI_142, (1, -2, 0))
