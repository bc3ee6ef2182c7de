import math

import numpy as np
import pytest

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
from btensor.tcp import TcpInstance, TcpOutcome

from oracles import grid_min_residual, naive_contract, radial_grid_oracle


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
        assert boundedness_probe(tensor, -np.ones(3), (1.0, 10.0, 100.0))

    def test_bundled_example_probe(self, ex42):
        assert boundedness_probe(ex42, -np.ones(4), (1.0, 10.0, 100.0))

    def test_nonnegative_q_probe(self, rng):
        tensor = random_b_tensor(3, 3, rng)
        assert boundedness_probe(tensor, np.array([0.5, 1.0, 0.0]))

    def test_probe_starts_below_one_rejected(self, ex41):
        with pytest.raises(ValueError, match="starts must be >= 1"):
            boundedness_probe(ex41, -np.ones(3), starts=0)

    def test_probe_requires_strict_class(self):
        with pytest.raises(ClassificationError):
            boundedness_probe(Tensor.zeros(3, 2), np.array([-1.0, 0.0]))
