import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btensor import (
    ClassificationError,
    Tensor,
    boundedness_probe,
    random_b_tensor,
    solution_lower_bounds,
    tcp_residual,
    tcp_solve,
    verify_solution_bounds,
)
from btensor import core, structure, tcp
from btensor.tcp import (
    DEFAULT_TOL,
    PROBE_RADII,
    TcpInstance,
    TcpOutcome,
    _monotone_newton,
    _newton_from,
    outcome_at,
)

import oracles
from oracles import (
    PROBE_PASSES,
    SOLVE_PASSES,
    dim2_tcp_solutions,
    grid_min_point,
    grid_min_residual,
    naive_contract,
    radial_grid_oracle,
    serial_boundedness_probe,
    serial_newton_from,
    serial_solve,
)

TCP_SHAPES = [(3, 2), (3, 3), (4, 2), (4, 3), (3, 5), (4, 4)]  # the shapes of the tcp_solve benchmark


def make_instance(tensor, q):
    return TcpInstance(tensor, np.asarray(q, dtype=float))


class TestResidual:
    def test_zero_is_solution_for_nonnegative_q(self, ex41):
        res, w = tcp_residual(make_instance(ex41, [1.0, 0.5, 0.0]), np.zeros(3))
        assert res == 0.0
        np.testing.assert_array_equal(w, [1.0, 0.5, 0.0])

    def test_scalar_complementarity(self):
        b, c = 2.0, 8.0
        tensor = Tensor.from_flat(3, 1, [b])
        res, w = tcp_residual(make_instance(tensor, [-c]), np.array([math.sqrt(c / b)]))
        assert res <= 1e-15
        assert abs(w[0]) <= 1e-15

    def test_unit_diagonal_vector_of_ones(self):
        tensor = Tensor.diagonal_tensor(4, 3)
        res, w = tcp_residual(make_instance(tensor, -np.ones(3)), np.ones(3))
        assert res == 0.0
        np.testing.assert_array_equal(w, np.zeros(3))

    def test_dimension_mismatch(self, ex41):
        with pytest.raises(ValueError):
            make_instance(ex41, [1.0, 2.0])

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_q_rejected_by_every_entry_point(self, ex41, entry):
        q = [entry, -1.0, -1.0]
        calls = [
            lambda: tcp_solve(TcpInstance(ex41, q)),
            lambda: boundedness_probe(ex41, q),
            lambda: solution_lower_bounds(ex41, q),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^q must be finite, got \[(nan|inf|-inf), -1\.0, -1\.0\]$"):
                call()


class TestSolve:
    def test_nonnegative_q_yields_zero(self, ex41):
        outcome = tcp_solve(make_instance(ex41, [0.3, 1.0, 2.0]))
        assert outcome.converged
        assert outcome.starts_used == 1
        np.testing.assert_array_equal(outcome.x, np.zeros(3))

    def test_decoupled_diagonal_solution(self):
        tensor = Tensor.diagonal_tensor(4, 3)
        outcome = tcp_solve(make_instance(tensor, [-8.0, 1.0, -27.0]))
        assert outcome.converged
        np.testing.assert_allclose(outcome.x, [2.0, 0.0, 3.0], atol=1e-8)

    def test_bundled_example_converges(self, ex41):
        outcome = tcp_solve(make_instance(ex41, [-1.0, -1.0, -1.0]))
        assert outcome.converged
        assert outcome.residual <= 1e-8

    def test_solution_validity_from_raw_entries(self, ex41):
        q = np.array([-1.0, -1.0, -1.0])
        outcome = tcp_solve(make_instance(ex41, q))
        w = q + naive_contract(ex41, outcome.x)
        assert np.all(outcome.x >= -1e-12)
        assert np.all(w >= -1e-8)
        assert abs(float(outcome.x @ w)) <= 1e-6

    def test_deterministic(self, ex42):
        q = np.array([-1.0, 0.2, -0.5, 0.1])
        one = tcp_solve(make_instance(ex42, q), seed=3)
        two = tcp_solve(make_instance(ex42, q), seed=3)
        assert np.array_equal(one.x, two.x)
        assert one.residual == two.residual

    def test_nonconvergence_is_reported_not_raised(self):
        # A tensor far outside the structured classes can defeat the solver;
        # the outcome must still come back well formed.
        tensor = Tensor.from_flat(3, 2, [-1.0, 0.0, 0.0, -1.0, 0.0, -1.0, -1.0, 0.0])
        outcome = tcp_solve(make_instance(tensor, [-1.0, -1.0]), starts=4)
        assert isinstance(outcome, TcpOutcome)
        assert outcome.residual >= 0

    @pytest.mark.parametrize("starts", [0, -3])
    def test_starts_below_one_rejected(self, ex41, starts):
        with pytest.raises(ValueError, match="starts must be >= 1"):
            tcp_solve(make_instance(ex41, [-1.0, -1.0, -1.0]), starts=starts)

    def test_starts_over_the_entry_cap_rejected_before_the_first_start(self, ex41):
        # The first start alone converges here, yet the count is refused before it runs.
        with pytest.raises(ValueError, match="starts 1000000000000000 at dim 3 is over the limit"):
            tcp_solve(make_instance(ex41, [-1.0, -1.0, -1.0]), starts=10**15)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_tol_not_finite_or_negative_rejected(self, ex41, tol):
        # NaN once ran every start, -1 reported residual 0 unconverged, inf converged at any point.
        instance = make_instance(ex41, [-1.0, -1.0, -1.0])
        with pytest.raises(ValueError, match="tol must be >= 0"):
            tcp_solve(instance, tol=tol)
        with pytest.raises(ValueError, match="tol must be >= 0"):
            outcome_at(instance, [1.0, 1.0, 1.0], tol)


class TestSolutionLowerBounds:
    def test_nonnegative_q_gives_zero_bounds(self, ex41):
        certificate = solution_lower_bounds(ex41, np.array([0.0, 2.0, 1.0]))
        assert certificate.lb_inf == certificate.lb_2 == certificate.lb_m == 0.0

    def test_bundled_example_values(self, ex41):
        certificate = solution_lower_bounds(ex41, np.array([-1.0, -1.0, -1.0]))
        assert abs(certificate.lb_inf - 1.0 / 162.0) <= 1e-15
        expected_lb2 = math.sqrt(3.0) / (3.0**1.5 * math.sqrt(36.0 + 25.0 + 36.0))
        assert abs(certificate.lb_2 - expected_lb2) <= 1e-15

    def test_second_example_m_norm_bound(self, ex42):
        certificate = solution_lower_bounds(ex42, np.array([-1.0, 0.0, 0.0, 0.0]))
        expected = 1.0 / (4.0 ** (9.0 / 4.0) * (4.0 * 3.0 ** (4.0 / 3.0)) ** (3.0 / 4.0))
        assert abs(certificate.lb_m - expected) <= 1e-15

    def test_odd_order_has_no_m_bound(self, rng):
        tensor = random_b_tensor(3, 2, rng)
        certificate = solution_lower_bounds(tensor, np.array([-1.0, 0.0]))
        assert certificate.lb_m is None

    def test_requires_strict_class(self):
        with pytest.raises(ClassificationError):
            solution_lower_bounds(Tensor.zeros(3, 2), np.array([-1.0, 0.0]))

    def test_q_of_the_wrong_length_rejected(self, ex41):
        with pytest.raises(ValueError, match=r"q must have length 3, got shape \(2,\)"):
            solution_lower_bounds(ex41, [-1, -1])

    def test_bounds_are_plain_floats(self, ex41, ex42, rng):
        for tensor, q in ((ex41, -np.ones(3)), (ex42, [-1.0, 0.0, 0.0, 0.0]), (random_b_tensor(3, 2, rng), [-1.0, 0.0])):
            certificate = solution_lower_bounds(tensor, q)
            assert type(certificate.lb_inf) is float and type(certificate.lb_2) is float
            assert type(certificate.lb_m) is (float if tensor.order % 2 == 0 else type(None))

    def test_overflow_raises_naming_the_first_bound(self, ex41, ex42):
        big = ex41.array.copy()
        big[0, 0, 0, 0] = 1e308
        cases = [
            (Tensor(big), -np.ones(3), "lb_inf"),
            (Tensor.diagonal_tensor(3, 2, [1e200, 1e200]), -np.ones(2), "lb_2"),  # the sum of squares
            (ex42, [-1e100, 0.0, 0.0, 0.0], "lb_m"),  # the 4-norm of q; its 2-norm is finite
        ]
        for tensor, q, name in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=rf"^{name} overflows"):
                    solution_lower_bounds(tensor, q)


class TestVerifySolutionBounds:
    def test_bundled_example_holds(self, ex41):
        q = np.array([-1.0, -1.0, -1.0])
        outcome = tcp_solve(make_instance(ex41, q))
        certificate = verify_solution_bounds(ex41, q, outcome)
        assert certificate.holds

    def test_unit_diagonal_margin(self):
        tensor = Tensor.diagonal_tensor(4, 3)
        q = -np.ones(3)
        outcome = tcp_solve(make_instance(tensor, q))
        certificate = verify_solution_bounds(tensor, q, outcome)
        assert certificate.holds
        assert certificate.lb_inf == 1.0 / 27.0 < 1.0  # max-norm of x = e is 1

    def test_zero_solution_rejected(self, ex41):
        zero = TcpOutcome(
            x=np.zeros(3), w=np.ones(3), residual=0.0, converged=True, starts_used=1
        )
        with pytest.raises(ValueError, match="nonzero"):
            verify_solution_bounds(ex41, np.ones(3), zero)

    def test_near_tie_is_logged_with_plain_floats(self, ex41, caplog):
        # x = (lb_inf ** (1/3), 0, 0) attains the max-norm bound up to rounding.
        q = -np.ones(3)
        lb_inf = float(solution_lower_bounds(ex41, q).lb_inf)
        outcome = outcome_at(make_instance(ex41, q), [lb_inf ** (1.0 / 3.0), 0.0, 0.0], tol=10.0)
        attained = float(outcome.x[0] ** 3)
        assert abs(lb_inf - attained) <= 1e-12
        with caplog.at_level(logging.WARNING, logger="btensor.tcp"):
            verify_solution_bounds(ex41, q, outcome)
        assert [record.getMessage() for record in caplog.records] == [
            f"near tie on the inf-norm bound: {lb_inf!r} vs {attained!r}"
        ]

    def test_callers_report_spares_the_classification(self, ex41, monkeypatch):
        q = -np.ones(3)
        outcome = tcp_solve(make_instance(ex41, q))
        report = structure.classify(ex41)
        calls = []
        classify = structure.classify
        monkeypatch.setattr(structure, "classify", lambda *a, **k: calls.append(1) or classify(*a, **k))
        certificate = verify_solution_bounds(ex41, q, outcome, report)
        assert solution_lower_bounds(ex41, q, report).to_dict() == {**certificate.to_dict(), "holds": None}
        assert not calls
        assert verify_solution_bounds(ex41, q, outcome).to_dict() == certificate.to_dict()
        assert len(calls) == 1
        # The report decides membership: one that says Neither is refused without classifying.
        with pytest.raises(ClassificationError):
            verify_solution_bounds(ex41, q, outcome, replace(report, verdict="Neither"))
        assert len(calls) == 1

    def test_unconverged_outcome_rejected(self, ex41):
        bad = TcpOutcome(
            x=np.ones(3), w=np.ones(3), residual=1.0, converged=False, starts_used=1
        )
        with pytest.raises(ValueError, match="converge"):
            verify_solution_bounds(ex41, -np.ones(3), bad)


class TestOracles:
    def test_diagonal_closed_form(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            order = int(rng.choice([3, 4]))
            diag = rng.uniform(0.5, 4.0, dim)
            tensor = Tensor.diagonal_tensor(order, dim, diag)
            q = rng.uniform(-2.0, 2.0, dim)
            outcome = tcp_solve(make_instance(tensor, q))
            assert outcome.converged
            expected = (np.maximum(-q, 0.0) / diag) ** (1.0 / (order - 1))
            np.testing.assert_allclose(outcome.x, expected, atol=1e-8)

    def test_radial_direction_scan_confirms_bundled_solution(self, ex41):
        q = np.array([-1.0, -1.0, -1.0])
        outcome = tcp_solve(make_instance(ex41, q))
        x_oracle, res_oracle = radial_grid_oracle(ex41, q, resolution=24)
        assert outcome.residual <= res_oracle
        assert res_oracle <= 0.05  # coarse direction grid, small but not tiny
        assert np.max(np.abs(outcome.x - x_oracle)) <= 0.02

    def test_grid_scan_never_beats_solver(self, rng):
        for _ in range(3):
            tensor = random_b_tensor(3, 2, rng)
            q = rng.uniform(-1.0, 1.0, 2)
            q[int(rng.integers(2))] = -abs(float(rng.uniform(0.2, 1.0)))
            outcome = tcp_solve(make_instance(tensor, q))
            assert outcome.converged
            certificate = solution_lower_bounds(tensor, q)
            scales = [certificate.lb_inf ** 0.5, certificate.lb_2 ** 0.5]
            radius = 1.0 + max(scales)
            assert outcome.residual <= grid_min_residual(tensor, q, radius)


class TestDim2Oracle:
    """``solve`` against every solution of a dimension-2 problem, listed support by support."""

    def test_oracle_gives_the_diagonal_closed_form(self, rng):
        for order in (3, 4, 5):
            diag = rng.uniform(0.5, 4.0, 2)
            for q in ([-1.0, -2.0], [-1.0, 0.5], [0.5, -3.0], [0.5, 1.0]):
                [x] = dim2_tcp_solutions(Tensor.diagonal_tensor(order, 2, diag), q)
                expected = (np.maximum(-np.array(q), 0.0) / diag) ** (1.0 / (order - 1))
                np.testing.assert_allclose(x, expected, rtol=1e-12)

    # The residual tolerance is absolute: where q_i is tiny but not 0, so is the solution's x_i,
    # and a point off by more than x_i itself can pass.  So each entry of q is 0 or of size >= 0.05.
    @given(
        order=st.integers(3, 5),
        seed=st.integers(0, 2**32 - 1),
        q=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.05, 1.0), st.floats(-1.0, -0.05))] * 2),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_solve_finds_one_of_the_solutions(self, order, seed, q):
        tensor = random_b_tensor(order, 2, np.random.default_rng(seed))
        outcome = tcp_solve(make_instance(tensor, q))
        assert outcome.converged
        solutions = dim2_tcp_solutions(tensor, q)
        assert min(np.max(np.abs(outcome.x - x)) for x in solutions) <= 1e-6, (outcome.x, solutions)


def _hexes(*arrays):
    return [[float(v).hex() for v in np.ravel(a)] for a in arrays]


class TestStackedSearch:
    """The stacked monotone and Fischer-Burmeister passes, in either order, give every start the
    bits it gets alone."""

    @staticmethod
    def assert_newton_rows_equal_serial(instance, x0, passes):
        x, res = _newton_from(instance, x0, DEFAULT_TOL, passes)
        alone = serial_newton_from(instance, x0, DEFAULT_TOL, passes)
        assert len(x) == len(res) == len(alone)
        for k, (x_alone, res_alone) in enumerate(alone):
            assert _hexes(x[k], res[k]) == _hexes(x_alone, res_alone), k
        return x, res

    @pytest.mark.parametrize("radius,starts", [(1.0, 8), (10.0, 12), (100.0, 16)])
    @pytest.mark.parametrize("member", ["ex41", (3, 3), (4, 3), (3, 5)])
    def test_restart_rounds_equal_serial(self, ex41, member, radius, starts):
        rng = np.random.default_rng(starts)
        tensor = ex41 if member == "ex41" else random_b_tensor(*member, rng)
        instance = make_instance(tensor, rng.uniform(-2.0, 1.0, tensor.dim))
        x0 = rng.uniform(0.0, radius, (starts, tensor.dim))
        for passes in (SOLVE_PASSES, PROBE_PASSES):
            self.assert_newton_rows_equal_serial(instance, x0, passes)

    def test_stack_mixing_monotone_and_fischer_burmeister_rows(self):
        # On this member some starts converge in the monotone pass, some keep the
        # Fischer-Burmeister point and some keep the monotone point although it fails.
        instance = _failing_first_member(741)
        radii = np.array(PROBE_RADII)[:, None, None]
        x0 = np.random.default_rng(3).uniform(0.0, radii, (3, 8, 2)).reshape(-1, 2)
        _, monotone = _monotone_newton(instance, x0, DEFAULT_TOL)
        _, res = self.assert_newton_rows_equal_serial(instance, x0, SOLVE_PASSES)
        passed, kept = monotone <= DEFAULT_TOL, res < monotone
        assert passed.any() and (kept & (res <= DEFAULT_TOL)).any() and (~passed & ~kept).any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fischer_burmeister_jacobian_where_x_and_w_vanish(self):
        # From (0, 0) the slack is (-1 - x0**2, x1**2) = (-1, 0): x1 = w1 = 0, so hypot(x1, w1) = 0,
        # and no slack turns w0 nonnegative, so the monotone pass fails and the second pass runs.
        instance = make_instance(Tensor.diagonal_tensor(3, 2, [-1.0, 1.0]), [-1.0, 0.0])
        calls = []

        def fb_newton(*args):
            calls.append(args[1].copy())
            return tcp._fb_newton(*args)

        x, res = _newton_from(instance, np.zeros((1, 2)), DEFAULT_TOL, (_monotone_newton, fb_newton))
        assert len(calls) == 1 and not calls[0].any()
        assert res[0] == 1.0 and not x.any()


class TestScalingAndBoundedness:
    def test_solution_scales_with_q(self, ex41):
        q = np.array([-1.0, -1.0, -1.0])
        outcome = tcp_solve(make_instance(ex41, q))
        for t in (4.0, 9.0):
            scaled_x = t ** (1.0 / 3.0) * outcome.x
            res, _ = tcp_residual(make_instance(ex41, t * q), scaled_x)
            assert res <= 1e-7

    def test_unit_diagonal_probe(self):
        tensor = Tensor.diagonal_tensor(4, 3)
        assert boundedness_probe(tensor, -np.ones(3))

    def test_bundled_example_probe(self, ex42):
        assert boundedness_probe(ex42, -np.ones(4))

    def test_nonnegative_q_probe(self, rng):
        tensor = random_b_tensor(3, 3, rng)
        assert boundedness_probe(tensor, np.array([0.5, 1.0, 0.0]))

    def test_probe_starts_below_one_rejected(self, ex41):
        with pytest.raises(ValueError, match="starts must be >= 1"):
            boundedness_probe(ex41, -np.ones(3), starts=0)

    def test_probe_starts_over_the_entry_cap_rejected(self, ex41):
        with pytest.raises(ValueError, match="starts 1000000000000000 at dim 3 is over the limit"):
            boundedness_probe(ex41, -np.ones(3), starts=10**15)

    def test_probe_requires_strict_class(self):
        with pytest.raises(ClassificationError):
            boundedness_probe(Tensor.zeros(3, 2), np.array([-1.0, 0.0]))


def _failing_first_member(seed):
    # Order-3, dim-2 strict members; at seeds 741, 919, 1325, 1475 and 1780 (found by search
    # over 0-2999) the first start does not converge.
    rng = np.random.default_rng(seed)
    tensor = random_b_tensor(3, 2, rng)
    return make_instance(tensor, rng.uniform(-1.0, 1.0, 2))


# Item 288 of the seed-61 tcp_solve benchmark pool: an order-3, dim-2 strict member, its q and
# its start seed.
POOL_288 = (
    [
        "0x1.2e0ab3a3396aep+2", "0x1.20eacbacfd680p-5", "-0x1.9a90f5780c2f4p-1", "-0x1.7f6d303f74280p-2",
        "-0x1.7451a96fb93b4p-2", "-0x1.23f27cead8e1ap-1", "-0x1.bdedd647d0502p-1", "0x1.44dd11f9fba9cp+1",
    ],
    ["0x1.b4ce79d25f080p-6", "-0x1.20f8a19a18fe9p-1"],
    1249550639,
)


def _monotone_stall(case):
    """(instance, start seed) of a member on which the monotone pass stalls from the first start."""
    if case == "pool288":
        entries, q, seed = POOL_288
        tensor = Tensor.from_flat(3, 2, [float.fromhex(v) for v in entries])
        return make_instance(tensor, [float.fromhex(v) for v in q]), seed
    return _failing_first_member(int(case)), int(case)


class TestStackedMultistart:
    """``solve`` and ``boundedness_probe`` run their starts as stacks and give the bits of the
    serial references in ``tests/oracles.py``: each start alone, and one stack per radius."""

    @staticmethod
    def assert_solve_equals_serial(instance, starts, seed):
        outcome = tcp_solve(instance, starts=starts, seed=seed)
        serial = serial_solve(instance, starts, DEFAULT_TOL, seed)
        assert _hexes(outcome.x, outcome.w, outcome.residual) == _hexes(serial.x, serial.w, serial.residual)
        assert (outcome.converged, outcome.starts_used) == (serial.converged, serial.starts_used)
        return outcome

    @staticmethod
    def probe_stack(monkeypatch, tensor, q, starts, seed):
        """The verdict of ``boundedness_probe`` and the (x, residual) of its one Newton stack."""
        calls, newton_from = [], tcp._newton_from
        monkeypatch.setattr(tcp, "_newton_from", lambda *a: calls.append(newton_from(*a)) or calls[-1])
        bounded = boundedness_probe(tensor, q, starts=starts, seed=seed)
        monkeypatch.undo()
        assert len(calls) == 1
        return bounded, *calls[0]

    def assert_probe_equals_serial(self, monkeypatch, tensor, q, starts, seed):
        bounded, x, res = self.probe_stack(monkeypatch, tensor, q, starts, seed)
        rows, serial_bounded = serial_boundedness_probe(
            tensor, q, starts, seed, PROBE_RADII, DEFAULT_TOL, PROBE_PASSES
        )
        assert len(x) == len(rows) == len(PROBE_RADII) * starts
        assert _hexes(x, res) == _hexes([r[0] for r in rows], [r[1] for r in rows])
        assert bounded == serial_bounded
        return bounded, res

    @pytest.mark.parametrize("starts", [1, 2, 3, 4, 16])
    def test_solve_on_the_examples_and_the_six_shapes(self, ex41, ex42, starts):
        rng = np.random.default_rng(starts)
        for tensor in (ex41, ex42, *(random_b_tensor(m, n, rng) for m, n in TCP_SHAPES)):
            for _ in range(2):
                q = rng.uniform(-1.0, 1.0, tensor.dim)
                q[int(rng.integers(tensor.dim))] = -float(rng.uniform(0.2, 1.0))
                self.assert_solve_equals_serial(make_instance(tensor, q), starts, int(rng.integers(1000)))

    @pytest.mark.parametrize("starts", [1, 2, 3, 4, 16])
    @pytest.mark.parametrize("seed", [741, 919, 1325])
    def test_solve_whose_first_start_fails(self, starts, seed):
        outcome = self.assert_solve_equals_serial(_failing_first_member(seed), starts, seed)
        assert (outcome.starts_used > 1) == (starts > 1)
        if starts == 16:
            assert outcome.converged

    @pytest.mark.parametrize("starts", [1, 16])
    @pytest.mark.parametrize("case", ["946", "1581", "pool288"])
    def test_solve_converges_where_the_monotone_pass_stalls(self, case, starts):
        instance, seed = _monotone_stall(case)
        outcome = self.assert_solve_equals_serial(instance, starts, seed)
        assert outcome.converged and outcome.starts_used == 1
        # A grid point of the scan over [0, 1]^2 (spacing 1/2000) is a near solution.
        _, point = grid_min_point(instance.tensor, instance.q, 1.0)
        assert np.max(np.abs(outcome.x - point)) <= 1.0 / 2000

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_residual_tie_goes_to_the_lexicographically_smallest_point(self, seed):
        # With A = 0 the slack is q everywhere: every start stops where it began at residual 1.
        instance = make_instance(Tensor.zeros(3, 2), [-1.0, -1.0])
        outcome = self.assert_solve_equals_serial(instance, 16, seed)
        draws = np.random.default_rng(seed).uniform(0.0, 2.0, size=(13, 2))
        starts = [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0), *map(tuple, draws)]
        assert outcome.residual == 1.0 and tuple(outcome.x) == min(starts) != starts[0]

    def test_stack_with_one_singular_jacobian_row(self, monkeypatch):
        # At x = (x0, 0) the slack is (-1, 1 - x0**2 / 2): the later start (1, 0) has a singular
        # Jacobian (rows [0, -x0] and [0, 1]); (2, 0) and the draw do not.
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1], arr[0, 1, 1], arr[1, 0, 0], arr[1, 0, 1], arr[1, 1, 1] = -1.0, 0.5, -0.5, -1.0, 0.5
        instance = make_instance(Tensor(arr), [-1.0, 1.0])
        solve, lstsq, calls = np.linalg.solve, np.linalg.lstsq, []

        def logging_solve(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                calls.append(f"singular stack of {len(a)}" if a.ndim == 3 else "singular row")
                raise

        monkeypatch.setattr(np.linalg, "solve", logging_solve)
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append("lstsq") or lstsq(*a, **k))
        outcome = tcp_solve(instance, starts=16, seed=0)
        monkeypatch.undo()
        assert outcome.converged and outcome.starts_used == 6
        # The first start fails alone; then the monotone pass of the other fifteen falls back to
        # row by row twice, at 15 rows and at 13, and each time only one row needs lstsq.
        once = ["singular row", "lstsq"]
        assert calls == ["singular stack of 1", *once, "singular stack of 15", *once, "singular stack of 13", *once]
        self.assert_solve_equals_serial(instance, 16, 0)

    @pytest.mark.parametrize("starts", [1, 2, 3, 4, 16])
    def test_probe_on_the_examples_and_the_six_shapes(self, monkeypatch, ex41, ex42, starts):
        rng = np.random.default_rng(100 + starts)
        shapes = TCP_SHAPES if starts < 16 else TCP_SHAPES[:2]
        for tensor in (ex41, ex42, *(random_b_tensor(m, n, rng) for m, n in shapes)):
            q = rng.uniform(-2.0, 1.0, tensor.dim)
            self.assert_probe_equals_serial(monkeypatch, tensor, q, starts, int(rng.integers(1000)))

    def test_probe_on_a_member_whose_solve_fails(self, monkeypatch):
        # Its solve fails from the first start; 20 of the 24 probe starts fail the min-map pass,
        # and 1 fails the Fischer-Burmeister pass that the probe runs first.
        instance = _failing_first_member(1780)
        self.assert_probe_equals_serial(monkeypatch, instance.tensor, instance.q, 8, 3)

    def test_probe_start_that_only_the_min_map_pass_solves(self, monkeypatch, ex41):
        # The probe runs the Fischer-Burmeister pass first.  From the first start of this probe
        # (radius 1) that pass stalls, and the min-map pass that follows converges.
        q = np.random.default_rng(182).uniform(-2.0, 1.0, 3)
        start = np.random.default_rng(602).uniform(0.0, PROBE_RADII[0], (1, 3))
        [fb_res] = tcp._fb_newton(make_instance(ex41, q), start, DEFAULT_TOL)[1]
        assert fb_res > DEFAULT_TOL
        bounded, res = self.assert_probe_equals_serial(monkeypatch, ex41, q, 8, 602)
        assert res[0] <= DEFAULT_TOL and bounded

    @pytest.mark.parametrize("gap, bounded", [(tcp.SAME_SOLUTION, False), (np.nextafter(tcp.SAME_SOLUTION, 1.0), True)])
    def test_solutions_the_dedup_distance_apart(self, monkeypatch, ex41, gap, bounded):
        # Every start ends at one of two exact solutions of a stub Newton, (gap, 50, 0) for the
        # radius-1 starts with a first entry below 0.5 and (0, 50, 0) for the rest.  At exactly
        # SAME_SOLUTION apart they are one solution, so the set is stable from radius 1 and 50
        # is out of 10x reach; one ulp further they are two at radius 1 and one from radius 10.
        def stub(instance, x0, tol, passes):
            near = (x0.max(axis=1) < PROBE_RADII[0]) & (x0[:, 0] < 0.5)
            return np.where(near[:, None], [gap, 50.0, 0.0], [0.0, 50.0, 0.0]), np.zeros(len(x0))

        monkeypatch.setattr(tcp, "_newton_from", stub)
        monkeypatch.setattr(oracles, "_newton_from", stub)
        rows, serial_bounded = serial_boundedness_probe(ex41, -np.ones(3), 8, 3, PROBE_RADII, DEFAULT_TOL, PROBE_PASSES)
        assert {x[0] for x, _ in rows[:8]} == {0.0, gap}
        assert boundedness_probe(ex41, -np.ones(3), starts=8, seed=3) == serial_bounded == bounded

    def test_distinct_keeps_the_first_of_each_cluster(self):
        step = tcp.SAME_SOLUTION
        points = np.array([[0.0, 0.0], [step, 0.0], [2 * step, 0.0], [0.0, -step], [np.nextafter(step, 1.0), 0.0]])
        # (2 step, 0) is within step of (step, 0), not of (0, 0), the only point kept before it.
        assert tcp._distinct(points).tolist() == [[0.0, 0.0], [2 * step, 0.0]]
        assert tcp._distinct(np.zeros((0, 2))).shape == (0, 2)

    def test_probe_sweep_keeps_the_min_map_first_verdicts(self, monkeypatch, ex41, ex42):
        # 96 probes over the six shapes and both examples: the verdict is that of the serial
        # reference with the min-map pass first, and no fewer starts converge.
        for seed in range(96):
            rng = np.random.default_rng(seed)
            kind = seed % 8
            tensor = (ex41, ex42)[kind - 6] if kind >= 6 else random_b_tensor(*TCP_SHAPES[kind], rng)
            q, probe_seed = rng.uniform(-2.0, 1.0, tensor.dim), int(rng.integers(1000))
            bounded, _, res = self.probe_stack(monkeypatch, tensor, q, 8, probe_seed)
            rows, min_map_first = serial_boundedness_probe(
                tensor, q, 8, probe_seed, PROBE_RADII, DEFAULT_TOL, SOLVE_PASSES
            )
            assert bounded == min_map_first, seed
            assert np.sum(res <= DEFAULT_TOL) >= sum(r <= DEFAULT_TOL for _, r in rows), seed


class TestMultistartWork:
    """The stacks are one ``_newton_from`` call each, and ``solve`` draws no start it does not run."""

    @staticmethod
    def count(monkeypatch):
        calls = {"newton": 0, "rng": 0}
        newton_from, default_rng = tcp._newton_from, np.random.default_rng

        def counted(name, fn):
            return lambda *a, **k: calls.__setitem__(name, calls[name] + 1) or fn(*a, **k)

        monkeypatch.setattr(tcp, "_newton_from", counted("newton", newton_from))
        monkeypatch.setattr(np.random, "default_rng", counted("rng", default_rng))
        return calls

    @pytest.mark.parametrize("starts", [1, 8])
    def test_probe_calls_newton_once(self, monkeypatch, ex41, starts):
        calls = self.count(monkeypatch)
        boundedness_probe(ex41, -np.ones(3), starts=starts)
        assert calls == {"newton": 1, "rng": 1}

    @pytest.mark.parametrize("starts", [1, 2, 16])
    def test_solve_whose_first_start_converges_makes_no_draws(self, monkeypatch, ex41, starts):
        calls = self.count(monkeypatch)
        assert tcp_solve(make_instance(ex41, -np.ones(3)), starts=starts).starts_used == 1
        assert calls == {"newton": 1, "rng": 0}

    @pytest.mark.parametrize("seed", [741, 1780])
    def test_solve_whose_first_start_fails_calls_newton_twice(self, monkeypatch, seed):
        instance = _failing_first_member(seed)
        calls = self.count(monkeypatch)
        assert tcp_solve(instance, starts=16, seed=seed).starts_used > 1
        assert calls == {"newton": 2, "rng": 1}


class TestNewtonRoundWork:
    """Each ``evaluate`` of a Newton pass makes one ``contract_batch`` call and each Jacobian one
    ``contraction_jacobian`` call and no contraction: the Fischer-Burmeister Jacobian gets the
    slack w that ``evaluate`` computed at its rows from ``damped_newton``."""

    @staticmethod
    def spy(monkeypatch):
        """The kernel calls tcp makes, with the ``evaluate`` and ``jacobian`` spans around them."""
        log = []
        for name in ("contract_batch", "contraction_jacobian"):
            kernel = getattr(tcp, name)
            monkeypatch.setattr(tcp, name, lambda *a, name=name, kernel=kernel: log.append(name) or kernel(*a))

        def spanned(kind, fn):
            def call(*args):
                log.append(kind)
                out = fn(*args)
                log.append("end")
                return out

            return call

        def damped_newton(evaluate, jacobian, *rest):
            return core.damped_newton(spanned("evaluate", evaluate), spanned("jacobian", jacobian), *rest)

        monkeypatch.setattr(tcp, "damped_newton", damped_newton)
        return log

    @staticmethod
    def spans(log, kind):
        """The kernel calls inside each span of the kind, in order."""
        found = []
        for k, entry in enumerate(log):
            if entry == kind:
                found.append(log[k + 1 : log.index("end", k)])
        return found

    def test_fischer_burmeister_jacobian_makes_no_contraction(self, monkeypatch, ex41):
        # The probe's stack from its three radii, Fischer-Burmeister pass alone.
        x0 = np.random.default_rng(4).uniform(0.0, np.array(PROBE_RADII)[:, None, None], (3, 8, 3))
        log = self.spy(monkeypatch)
        _, res = tcp._fb_newton(make_instance(ex41, [-1.0, 0.5, -0.3]), x0.reshape(-1, 3), DEFAULT_TOL)
        assert (res <= DEFAULT_TOL).any()
        jacobians = self.spans(log, "jacobian")
        assert len(jacobians) > 1 and all(calls == ["contraction_jacobian"] for calls in jacobians)
        assert all(calls == ["contract_batch"] for calls in self.spans(log, "evaluate"))

    @pytest.mark.parametrize("shape", TCP_SHAPES)
    def test_first_start_solve_makes_one_kernel_call_per_step(self, monkeypatch, shape):
        rng = np.random.default_rng(shape)
        instance = make_instance(random_b_tensor(*shape, rng), -rng.uniform(0.2, 1.0, shape[1]))
        log = self.spy(monkeypatch)
        outcome = tcp_solve(instance)
        assert outcome.converged and outcome.starts_used == 1
        rounds, evaluations = self.spans(log, "jacobian"), self.spans(log, "evaluate")
        assert rounds and all(calls == ["contraction_jacobian"] for calls in rounds)
        assert all(calls == ["contract_batch"] for calls in evaluations)
        assert log.count("contraction_jacobian") == len(rounds)
        assert log.count("contract_batch") == len(evaluations)
