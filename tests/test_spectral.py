import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btensor import (
    ClassificationError,
    Tensor,
    classify,
    eigenvalue_bounds,
    find_h_eigenpairs,
    find_z_eigenpairs,
    h_residual,
    is_entry_symmetric,
    load_example,
    random_b_tensor,
    verify_eigen_bounds,
    z_residual,
)
from btensor import core, spectral
from btensor.core import contract

from oracles import left_to_right_reduce, naive_contract, naive_matrix_contract, serial_dedup_and_sort
from test_solver_golden import _general, _symmetric


def _count_kernel_calls(monkeypatch):
    """Spy on spectral's ``contract_batch``: its contractions and its ``matrix=True`` stage calls,
    counted apart, as a dict updated in place."""
    counts = {"contractions": 0, "stages": 0}
    kernel = spectral.contract_batch

    def counted(*args, **kwargs):
        counts["stages" if kwargs.get("matrix") else "contractions"] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(spectral, "contract_batch", counted)
    return counts


class TestEigenvalueBounds:
    def test_bundled_example(self, ex41):
        report = eigenvalue_bounds(ex41, "B")
        expected_h = (6 ** (1 / 3) + 5 ** (1 / 3) + 6 ** (1 / 3)) ** 3
        assert abs(report.h_bound - expected_h) <= 1e-9
        assert report.z_bound == 9.0 * (17.0 / 3.0)  # mean diagonal beats max diagonal
        assert report.strict

    def test_unit_diagonal(self):
        report = eigenvalue_bounds(Tensor.diagonal_tensor(4, 2), "B")
        assert report.h_bound == 8.0
        assert report.z_bound == 4.0

    def test_zero_tensor_nonstrict_edge(self):
        report = eigenvalue_bounds(Tensor.zeros(4, 2), "B0")
        assert report.h_bound == 0.0
        assert report.z_bound == 0.0
        assert not report.strict

    def test_odd_order_has_no_h_bound(self, rng):
        report = eigenvalue_bounds(random_b_tensor(3, 2, rng), "B")
        assert report.h_bound is None
        assert report.z_bound > 0

    def test_wrong_classification(self):
        with pytest.raises(ClassificationError):
            eigenvalue_bounds(Tensor.diagonal_tensor(4, 2, [-1.0, 1.0]), "B0")

    def test_bounds_scale_linearly(self, rng):
        tensor = random_b_tensor(4, 3, rng)
        doubled = tensor.scaled(2.0)
        base = eigenvalue_bounds(tensor, "B")
        scaled = eigenvalue_bounds(doubled, "B")
        assert abs(scaled.h_bound - 2.0 * base.h_bound) <= 1e-12 * scaled.h_bound
        assert abs(scaled.z_bound - 2.0 * base.z_bound) <= 1e-12 * scaled.z_bound


class TestFindH:
    def test_unit_diagonal_value_is_one(self):
        pairs = find_h_eigenpairs(Tensor.diagonal_tensor(4, 2), starts=16, seed=0)
        assert pairs
        assert all(abs(p.value - 1.0) <= 1e-8 for p in pairs)
        assert all(abs(np.max(np.abs(p.vector)) - 1.0) <= 1e-12 for p in pairs)

    def test_distinct_diagonal_pins_basis_vectors(self):
        tensor = Tensor.diagonal_tensor(4, 2, [1.0, 2.0])
        pairs = find_h_eigenpairs(tensor, starts=24, seed=1)
        values = sorted({round(p.value, 8) for p in pairs})
        assert values == [1.0, 2.0]
        for pair in pairs:
            target = np.eye(2)[0 if abs(pair.value - 1.0) < 1e-6 else 1]
            # off-support coordinates enter the defect cubed, so the residual
            # gate only pins them to about (1e-8) ** (1/3)
            assert np.max(np.abs(pair.vector - target)) <= 3e-3

    def test_single_dimension_reduces_to_scalar(self):
        pairs = find_h_eigenpairs(Tensor.from_flat(3, 1, [2.5]), starts=4, seed=1)
        assert pairs
        assert all(abs(p.value - 2.5) <= 1e-10 for p in pairs)
        assert all(np.array_equal(p.vector, [1.0]) for p in pairs)

    def test_bundled_example_within_bound(self, ex41):
        pairs = find_h_eigenpairs(ex41, starts=32, seed=3)
        bound = eigenvalue_bounds(ex41, "B").h_bound
        assert pairs
        assert all(abs(p.value) < bound for p in pairs)

    def test_residuals_reverified_by_oracle(self, ex41):
        for pair in find_h_eigenpairs(ex41, starts=16, seed=2):
            defect = naive_contract(ex41, pair.vector) - pair.value * pair.vector**3
            assert float(np.linalg.norm(defect)) <= 1e-8

    def test_diagonal_values_come_from_diagonal(self, rng):
        diag_values = [1.25, 2.5, 4.0]
        tensor = Tensor.diagonal_tensor(4, 3, diag_values)
        for pair in find_h_eigenpairs(tensor, starts=32, seed=4):
            assert min(abs(pair.value - d) for d in diag_values) <= 1e-8

    def test_line_search_fills_calls_within_the_point_budget(self, monkeypatch, rng):
        # Each evaluate call is logged with its points and merits, and each jacobian call with
        # the round's rows and Newton steps, from which its exact trial points zr + t * delta follow.
        calls = []

        def spied(evaluate, jacobian, z0, max_iter, tol, min_step):
            def logged_evaluate(z):
                out = evaluate(z)
                calls.append(("evaluate", z.copy(), out[2].copy()))
                return out

            def logged_jacobian(z, g):
                jac = jacobian(z, g)
                calls.append(("jacobian", z.copy(), _newton_steps(jac, g)))
                return jac

            return core.damped_newton(logged_evaluate, logged_jacobian, z0, max_iter, tol, min_step)

        monkeypatch.setattr(spectral, "damped_newton", spied)
        assert find_h_eigenpairs(random_b_tensor(4, 4, rng), starts=64, seed=3)
        lengths = core._shorter_lengths(spectral.NEWTON_LIMITS[2])[:, 0]
        evaluated = [(stack, merits) for kind, stack, merits in calls if kind == "evaluate"]
        merit_at = {z.tobytes(): merit for stack, merits in evaluated for z, merit in zip(stack, merits)}
        assert max(len(stack) for stack, _ in evaluated) <= core._TRIAL_POINTS
        searched = 0
        for index, (kind, zr, delta) in enumerate(calls):
            if kind != "jacobian":
                continue
            merit = np.array([merit_at[z.tobytes()] for z in zr])
            failing = list(np.flatnonzero(~(calls[index + 1][2] < merit)))  # after the full step
            trial_of = {
                (zr[row] + t * delta[row]).tobytes(): (row, k) for row in failing for k, t in enumerate(lengths)
            }
            scored = {row: 0 for row in failing}
            for _, points, merits in itertools.takewhile(lambda c: c[0] == "evaluate", calls[index + 2 :]):
                # Every row still failing scores its next lengths, as many as fill the call.
                width = max(1, core._TRIAL_POINTS // len(failing))
                expected = [
                    (row, k) for row in failing for k in range(scored[row], min(scored[row] + width, len(lengths)))
                ]
                assert [trial_of[point.tobytes()] for point in points] == expected
                helps = {row for (row, _), value in zip(expected, merits) if value < merit[row]}
                for row in failing:
                    scored[row] = min(scored[row] + width, len(lengths))
                # A row leaves after the call that holds its first helping length, or after the last length.
                failing = [row for row in failing if row not in helps and scored[row] < len(lengths)]
            assert not failing
            searched += len(scored)
        assert searched > 64

    @pytest.mark.parametrize("name, limit, count", [("ex41", 90, 7), ("general4", 140, 8)])
    def test_line_search_floor_contraction_calls(self, monkeypatch, name, limit, count):
        # The line search's floor of 2^-12 drops the rows that sit on a merit plateau: with it this
        # search makes 39 (ex41) and 59 (the golden's _general(21, 4, 4)) contractions, against 108
        # and 226 with a floor of 1e-10, with the same number of pairs.  Each Newton round adds one
        # stage call for its Jacobian: 18 and 25 as shipped.
        tensor = load_example(name) if name == "ex41" else _general(21, 4, 4)
        counts = _count_kernel_calls(monkeypatch)
        assert len(find_h_eigenpairs(tensor, starts=64, seed=0)) == count
        shipped = counts["contractions"]
        assert shipped <= limit and 0 < counts["stages"] < shipped
        # Halving down to 1e-10: the same pairs from at least twice the calls.
        monkeypatch.setattr(spectral, "NEWTON_LIMITS", spectral.NEWTON_LIMITS[:2] + (1e-10,))
        assert len(find_h_eigenpairs(tensor, starts=64, seed=0)) == count
        assert counts["contractions"] - shipped >= 2 * shipped


def _newton_steps(jac, g):
    """damped_newton's Newton steps, solved as it solves them."""
    try:
        return np.linalg.solve(jac, -g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        steps = np.empty_like(g)
        for r in range(len(g)):
            try:
                steps[r] = np.linalg.solve(jac[r], -g[r])
            except np.linalg.LinAlgError:
                steps[r] = np.linalg.lstsq(jac[r], -g[r], rcond=None)[0]
        return steps


class TestNewtonLimits:
    """The eigen line search ends at the longest halving that lowers the squared merit by under 0.1%."""

    def test_shortest_length_is_under_the_stall_rule(self):
        lengths = core._shorter_lengths(spectral.NEWTON_LIMITS[2])[:, 0]
        assert lengths.tolist() == [0.5**k for k in range(1, 12)]
        # To first order a step of length t takes the merit to (1 - t) times itself, so it lowers
        # the squared merit by 1 - (1 - t)**2: under 0.1% at 2^-11, not at 2^-10.
        t = lengths[-1]
        assert 1 - (1 - t) ** 2 < 1e-3 <= 1 - (1 - 2 * t) ** 2

    def test_a_row_only_a_shorter_length_helps_stops_after_one_round(self):
        # From z = 0 the Newton step is 1, and only points in (0, 2^-12] lower the merit.
        calls = []

        def evaluate(z):
            calls.append(len(z))
            merit = np.where((z[:, 0] > 0.0) & (z[:, 0] <= 2.0**-12), 0.5, 1.0)
            return z, -merit[:, None], merit

        def jacobian(z, g):
            calls.append("jacobian")
            return np.ones((len(z), 1, 1))

        start = np.zeros((1, 1))
        z, g, merit = core.damped_newton(evaluate, jacobian, start, *spectral.NEWTON_LIMITS)
        assert (z.tolist(), g.tolist(), merit.tolist()) == ([[0.0]], [[-1.0]], [1.0])
        assert calls == [1, "jacobian", 1, 11]  # the start, length 1, then 1/2 .. 2^-11 in one call
        # Halving on down to 1e-10, the row takes the length 2^-12.
        z = core.damped_newton(evaluate, jacobian, start, *spectral.NEWTON_LIMITS[:2], 1e-10)[0]
        assert z.tolist() == [[2.0**-12]]


class TestFindZ:
    def test_unit_diagonal_reciprocal_support_values(self):
        pairs = find_z_eigenpairs(Tensor.diagonal_tensor(4, 2), starts=16, seed=0)
        values = sorted({round(p.value, 8) for p in pairs})
        assert 1.0 in values
        assert all(v in (0.5, 1.0) for v in values)

    def test_vectors_are_unit(self, ex41):
        for pair in find_z_eigenpairs(ex41, starts=16, seed=5):
            assert abs(float(np.linalg.norm(pair.vector)) - 1.0) <= 1e-12

    def test_second_example_within_bound(self, ex42):
        pairs = find_z_eigenpairs(ex42, starts=24, seed=3)
        assert pairs
        assert all(abs(p.value) < 48.0 for p in pairs)

    def test_nonsymmetric_path_reverifies(self, rng):
        tensor = random_b_tensor(4, 3, rng)  # generator output is not symmetric
        pairs = find_z_eigenpairs(tensor, starts=24, seed=6)
        assert pairs
        for pair in pairs:
            defect = naive_contract(tensor, pair.vector) - pair.value * pair.vector
            assert float(np.linalg.norm(defect)) <= 1e-8

    @staticmethod
    def _badly_scaled_pairs(order):
        pairs = find_z_eigenpairs(Tensor.diagonal_tensor(order, 2, [1e200, 1.0]), starts=8, seed=0)
        return [(p.value, p.vector.tolist()) for p in pairs]

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_zero_iterate_start_is_dropped(self, order):
        # diag(1e200, 1) once drove every start to x = 0, where the Jacobian's |x|^(m-4) is 1/0 for
        # m < 4.  No start reaches 0 now: the search keeps (1e200, e1), and at order 2 also (1, e2).
        unit = [(1.0, [0.0, 1.0])] if order == 2 else []
        assert self._badly_scaled_pairs(order) == unit + [(1e200, [1.0, 0.0])]

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 2: the Newton tolerances are absolute, so 1e200 on e1 hides the pair on e2",
    )
    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    def test_badly_scaled_diagonal_keeps_its_unit_pair(self, order):
        # (1, e2) is a Z-pair with residual 0 at every order.
        assert any(
            abs(value - 1.0) <= 1e-8 and np.allclose(vector, [0.0, 1.0], rtol=0.0, atol=1e-8)
            for value, vector in self._badly_scaled_pairs(order)
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_power_iterate_stops_at_once(self, monkeypatch):
        # 6 A x overflows, so each start's Gershgorin bound is -inf and its shift the proved cap
        # 1 + 2 sqrt(2) 1e308 = inf: every update is non-finite and its start is dropped after one
        # round, without a warning, instead of running all 10 000 on NaN.  No Newton round follows.
        counts = _count_kernel_calls(monkeypatch)
        assert find_z_eigenpairs(Tensor.diagonal_tensor(3, 2, [1e308, 1e308]), starts=4) == []
        assert counts["stages"] == 1 and counts["contractions"] <= 3

    @pytest.mark.parametrize("search", [find_h_eigenpairs, find_z_eigenpairs])
    @pytest.mark.parametrize("starts", [0, -3])
    def test_starts_below_one_rejected(self, ex41, search, starts):
        with pytest.raises(ValueError, match="starts must be >= 1"):
            search(ex41, starts=starts)

    @pytest.mark.parametrize("search", [find_h_eigenpairs, find_z_eigenpairs])
    def test_starts_over_the_entry_cap_rejected_before_drawing(self, ex41, search):
        # 10**15 starts of dim 3 would ask numpy for 21.3 PiB.
        with pytest.raises(ValueError, match="starts 1000000000000000 at dim 3 is over the limit"):
            search(ex41, starts=10**15)



def _symmetric_member(seed, order, dim):
    """A symmetric strict-class member: off-diagonal entries uniform in [-1, 1), every index tuple
    given the value at its sorted tuple, then each diagonal entry set so that its row's average is
    0.5 above the row's positive off-diagonal cap.  A diagonal entry is its own only permutation,
    so setting it keeps the symmetry."""
    arr = np.random.default_rng(seed).uniform(-1.0, 1.0, (dim,) * order)
    for idx in itertools.product(range(dim), repeat=order):
        arr[idx] = arr[tuple(sorted(idx))]
    for i in range(dim):
        arr[(i,) * order] = 0.0
        arr[(i,) * order] = dim ** (order - 1) * (max(arr[i].max(), 0.0) + 0.5) - arr[i].sum()
    return Tensor(arr)


class TestPowerShift:
    """The proved shift that caps the power iteration's adaptive one exceeds beta(A) = (m-1) max
    over the unit sphere of rho(A x^(m-2)), above which Kolda & Mayo (2011, Thm 4.4) make SS-HOPM
    monotone.  beta is sampled at 2000 seeded unit vectors, with A x^(m-2) contracted by the
    oracle's loops."""

    @staticmethod
    def sampled_beta(tensor):
        x = np.random.default_rng(2000).standard_normal((2000, tensor.dim))
        x /= np.linalg.norm(x, axis=1)[:, None]
        return (tensor.order - 1) * float(np.abs(np.linalg.eigvalsh(naive_matrix_contract(tensor, x))).max())

    @pytest.mark.parametrize("name", ["ex41", "ex42"])
    def test_exceeds_sampled_beta_on_the_examples(self, name):
        tensor = load_example(name)
        assert spectral._power_shift(tensor) > self.sampled_beta(tensor)

    @pytest.mark.parametrize("order, dim", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3)])
    def test_exceeds_sampled_beta_on_symmetric_members(self, order, dim):
        tensor = _symmetric_member(10 * order + dim, order, dim)
        assert is_entry_symmetric(tensor) and classify(tensor).verdict == "B"
        assert spectral._power_shift(tensor) > self.sampled_beta(tensor)

    @pytest.mark.parametrize("seed, order, dim", [(13, 3, 3), (14, 4, 3), (22, 4, 4)])
    def test_exceeds_sampled_beta_on_mixed_sign_tensors(self, seed, order, dim):
        tensor = _symmetric(seed, order, dim)
        assert spectral._power_shift(tensor) > self.sampled_beta(tensor)

    def test_dim2_member_where_the_entry_sum_falls_short(self):
        # diag(10, 10) with 0.05 elsewhere: beta is about 3 * 10, above 1 + sum |entries| = 21.7.
        arr = np.full((2,) * 4, 0.05)
        arr[0, 0, 0, 0] = arr[1, 1, 1, 1] = 10.0
        tensor = Tensor(arr)
        assert classify(tensor).verdict == "B"
        beta = self.sampled_beta(tensor)
        assert 1.0 + float(np.abs(tensor.entries).sum()) < beta < spectral._power_shift(tensor)

    def test_zero_tensor_shift_is_one(self):
        assert spectral._power_shift(Tensor.zeros(4, 3)) == 1.0

    def test_squares_of_large_entries_do_not_overflow(self):
        # 1e300**2 is inf, yet ||A||_F = sqrt(2) 1e300; a shift past the float range is inf, silently.
        shift = spectral._power_shift(Tensor.diagonal_tensor(3, 2, [1e300, -1e300]))
        assert shift == pytest.approx(2.0 * math.sqrt(2.0) * 1e300, rel=1e-15)
        assert math.isinf(spectral._power_shift(Tensor.diagonal_tensor(3, 2, [1e308, 1e308])))

    @pytest.mark.parametrize("name, limit", [("ex41", 100), ("ex42", 120)])
    def test_z_search_contraction_calls(self, monkeypatch, name, limit):
        # The solver does less work, not a faster kernel: with the shift 1 + sum |entries| this
        # search made 1166 (ex41) and 5311 (ex42) calls; with 1 + (m-1) ||A||_F, 430 and 1091;
        # with the Gershgorin shift read off each round's kernel stage, 65 and 76.
        calls = []
        kernel = spectral.contract_batch
        monkeypatch.setattr(spectral, "contract_batch", lambda *a, **k: calls.append(1) or kernel(*a, **k))
        assert find_z_eigenpairs(load_example(name), starts=64, seed=0)
        assert len(calls) <= limit


@functools.cache
def _power_tensors():
    """ex41, ex42 and seeded symmetric tensors of orders 3-6, diagonally dominant members and
    mixed-sign ones that are not."""
    tensors = {"ex41": load_example("ex41"), "ex42": load_example("ex42")}
    for order, dim in itertools.product(range(3, 7), (2, 3, 4)):
        tensors[f"member{order}{dim}"] = _symmetric_member(10 * order + dim, order, dim)
        tensors[f"mixed{order}{dim}"] = _symmetric(40 + 10 * order + dim, order, dim)
    return tensors


class TestPowerIteration:
    """The adaptive shift and the stop scale with A, and each step moves its start's way."""

    @pytest.mark.parametrize("k", [-40, -20, 20, 40])
    @pytest.mark.parametrize("name", ["ex41", "ex42", *(f"member{o}{d}" for o in range(3, 7) for d in (2, 3))])
    def test_power_of_two_scaling_is_exact(self, name, k):
        tensor = _power_tensors()[name]
        x = spectral._unit_starts(0, 64, tensor.dim)
        base_x, base_values = spectral._shifted_power_iteration(tensor, x)
        scaled_x, scaled_values = spectral._shifted_power_iteration(Tensor(np.ldexp(tensor.array, k)), x)
        assert np.array_equal(scaled_x, base_x)
        assert np.array_equal(scaled_values, np.ldexp(base_values, k))

    def test_every_step_is_monotone(self, monkeypatch):
        # The adaptive shift makes the shifted objective convex near the current iterate only, so
        # this sweep guards the global step.  Each start runs alone: an ascending one as row 0, a
        # descending one as row 1 behind a zero start, which stops in its first round.  The value
        # of every iterate is read off the stage the iteration contracts it with.
        values = []
        kernel = spectral.contract_batch

        def recorded(tensor, points, matrix=False):
            out = kernel(tensor, points, matrix)
            values.append(float(points[-1] @ out[-1] @ points[-1]))
            return out

        monkeypatch.setattr(spectral, "contract_batch", recorded)
        steps = 0
        for name, tensor in _power_tensors().items():
            for start in spectral._unit_starts(5, 8, tensor.dim):
                for direction, stack in ((1.0, start[None]), (-1.0, np.stack([np.zeros(tensor.dim), start]))):
                    values.clear()
                    spectral._shifted_power_iteration(tensor, stack)
                    mu = np.array(values)
                    backward = direction * (mu[:-1] - mu[1:])
                    assert (backward <= 1e-12 * np.abs(mu[:-1])).all(), (name, direction)
                    steps += len(backward)
        assert steps > 5000

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_stage_drops_its_row_without_a_warning(self):
        # The constant order-4 tensor 1e308 has A x^2 = 1e308 (x_0 + x_1)^2 in every entry, which
        # is inf where |x_0 + x_1| > 1.34; the Gershgorin sum then takes inf - inf, a NaN shift
        # drops the row, and the other rows leave on overflowing values.  No Z-eigenvalue is
        # finite: 4e308 at x = (1, 1)/sqrt(2).
        tensor = Tensor(np.full((2,) * 4, 1e308))
        x = spectral._unit_starts(0, 8, 2)
        assert (np.abs(x.sum(axis=1)) > 1.34).any()
        kept_x, kept_values = spectral._shifted_power_iteration(tensor, x)
        assert kept_x.shape == kept_values.shape == (0, 2)
        assert find_z_eigenpairs(tensor, starts=8) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_update_whose_square_overflows_keeps_its_row(self):
        # An ascending start's update is about 1e160 x, so y.y overflows; its norm is taken from y
        # scaled by a power of two, and all 8 starts are kept, at unit 2-norm, without a warning.
        tensor = Tensor.diagonal_tensor(2, 2, [1e160, 1e160])
        kept_x, kept_values = spectral._shifted_power_iteration(tensor, spectral._unit_starts(0, 8, 2))
        assert kept_x.shape == (8, 2)
        assert np.abs(np.sqrt(np.add.reduce(kept_x * kept_x, axis=1)) - 1.0).max() <= 1e-15
        assert np.array_equal(kept_values, 1e160 * kept_x)
        # At order 4 the same overflow hid the Z-pair (1e155, e1).
        pairs = find_z_eigenpairs(Tensor.diagonal_tensor(4, 2, [1e155, 1e155]), starts=8)
        assert any(p.value == 1e155 and np.array_equal(np.abs(p.vector), [1.0, 0.0]) for p in pairs)
        # At the float limit the squared merit of the Newton starts overflows as well.
        pairs = find_z_eigenpairs(Tensor.diagonal_tensor(2, 2, [1e308, 1e308]), starts=8)
        assert len(pairs) == 8 and all(p.value == 1e308 for p in pairs)


class TestVerifyBounds:
    def test_empty_pair_list_is_vacuous(self, ex41):
        report = verify_eigen_bounds(ex41, [], "B")
        assert report.all_within
        assert report.pairs_checked == 0

    def test_unit_diagonal_pairs(self):
        tensor = Tensor.diagonal_tensor(4, 2)
        pairs = find_h_eigenpairs(tensor, starts=8, seed=0)
        report = verify_eigen_bounds(tensor, pairs, "B")
        assert report.all_within
        assert report.max_abs_h < 8.0

    def test_bundled_example_round_trip(self, ex41):
        pairs = find_h_eigenpairs(ex41, starts=16, seed=3) + find_z_eigenpairs(
            ex41, starts=16, seed=3
        )
        report = verify_eigen_bounds(ex41, pairs, "B")
        assert report.all_within
        assert report.pairs_checked == len(pairs)

    def test_h_comparison_skipped_at_odd_order(self, rng):
        tensor = random_b_tensor(3, 2, rng)
        from btensor.spectral import EigenPair

        fake = EigenPair(kind="H", value=1.0, vector=np.array([1.0, 0.5]), residual=0.0)
        report = verify_eigen_bounds(tensor, [fake], "B")
        assert report.h_skipped
        assert report.all_within  # only the z comparison participates

    def test_nonstrict_allows_equality(self):
        zeros = Tensor.zeros(4, 2)
        pairs = find_z_eigenpairs(zeros, starts=4, seed=0)
        report = verify_eigen_bounds(zeros, pairs, "B0")
        assert report.all_within  # 0 <= 0 at the degenerate edge

    @pytest.mark.parametrize("order", range(2, 7))
    def test_dimension_one_attains_its_bounds(self, order):
        # In dimension 1 the only eigenvalue is the diagonal entry a, which both
        # bounds equal: the comparison is non-strict and the H bound is a itself.
        for a in (0.3, 5.0, *(k / 10 for k in range(1, 22))):
            tensor = Tensor.from_flat(order, 1, [a])
            pairs = find_h_eigenpairs(tensor, starts=4, seed=0) + find_z_eigenpairs(tensor, starts=4, seed=0)
            assert sorted({abs(p.value) for p in pairs}) == [a]
            for variant in ("B", "B0"):
                report = verify_eigen_bounds(tensor, pairs, variant)
                assert not report.strict
                assert report.z_bound == a
                assert report.h_bound == (None if order % 2 else a)
                assert report.all_within, (order, a, variant)

    def test_dimension_one_h_bound_is_not_rounded(self):
        # (0.7 ** (1/3)) ** 3 rounds to 0.6999999999999998.
        assert eigenvalue_bounds(Tensor.from_flat(4, 1, [0.7]), "B0").h_bound == 0.7

    def test_dimension_two_bounds_stay_strict(self):
        assert eigenvalue_bounds(Tensor.diagonal_tensor(4, 2), "B").strict

    def test_scale_covariance_of_verdict(self, rng):
        tensor = random_b_tensor(4, 2, rng)
        pairs = find_h_eigenpairs(tensor, starts=16, seed=8)
        assert pairs
        doubled = tensor.scaled(2.0)
        scaled_pairs = [
            type(p)(kind=p.kind, value=2.0 * p.value, vector=p.vector, residual=0.0)
            for p in pairs
        ]
        for pair in scaled_pairs:
            assert h_residual(doubled, pair.value, pair.vector) <= 2.0 * 1e-8
        assert verify_eigen_bounds(doubled, scaled_pairs, "B").all_within


class TestStackedFilter:
    """The pairs canonicalised and checked as one stack carry exactly the residuals of
    ``h_residual``/``z_residual`` and the canonical sign and scale of each kind."""

    TENSORS = {
        "ex41": lambda: load_example("ex41"),
        "ex42": lambda: load_example("ex42"),
        "general3": lambda: _general(31, 3, 3),
        "general4": lambda: _general(32, 4, 4),
        "symmetric3": lambda: _symmetric(33, 3, 3),
    }

    @pytest.mark.parametrize("name", TENSORS)
    def test_h_pairs(self, name):
        tensor = self.TENSORS[name]()
        pairs = find_h_eigenpairs(tensor, starts=32, seed=4)
        assert pairs
        for pair in pairs:
            assert pair.residual == h_residual(tensor, pair.value, pair.vector)
            top = int(np.argmax(np.abs(pair.vector)))
            assert np.max(np.abs(pair.vector)) == 1.0 and pair.vector[top] == 1.0

    @pytest.mark.parametrize("name", TENSORS)
    def test_z_pairs(self, name):
        tensor = self.TENSORS[name]()
        pairs = find_z_eigenpairs(tensor, starts=32, seed=4)
        assert pairs
        for pair in pairs:
            assert pair.residual == z_residual(tensor, pair.value, pair.vector)
            assert pair.vector[int(np.argmax(np.abs(pair.vector)))] > 0
            assert abs(float(np.linalg.norm(pair.vector)) - 1.0) <= 1e-12


class TestBorderedNewtonRows:
    """Every row the bordered Newton returns lies on the sphere to within 2e-12, which is what
    lets both searches canonicalise without a zero-vector filter."""

    @given(
        kind=st.sampled_from(["h", "z"]),
        make=st.sampled_from([_general, _symmetric]),
        seed=st.integers(0, 1000),
        order=st.integers(2, 5),
        dim=st.integers(1, 4),
        starts=st.integers(1, 12),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_rows_lie_on_the_sphere(self, kind, make, seed, order, dim, starts):
        rows = []
        bordered = spectral._bordered_newton

        def recorded(*args):
            z = bordered(*args)
            rows.append(z.copy())  # the search canonicalises z in place
            return z

        tensor = make(seed, order, dim)
        search = find_h_eigenpairs if kind == "h" else find_z_eigenpairs
        try:
            spectral._bordered_newton = recorded
            search(tensor, starts=starts, seed=seed)
        finally:
            spectral._bordered_newton = bordered
        (z,) = rows
        x = z[:, :dim]
        # The merit bounds |x.x - 1| / 2 by 1e-12; both dot products round by under 1e-15 here.
        assert np.all(np.abs(np.einsum("ij,ij->i", x, x) - 1.0) <= 2e-12 + 1e-15)


def _offsets(tol):
    """Offsets at, just inside, just outside and well away from ``tol``, of either sign."""
    nudges = [lambda v: v, lambda v: np.nextafter(v, np.inf), lambda v: np.nextafter(v, -np.inf)]
    return st.builds(
        lambda factor, nudge, sign: sign * nudge(tol * factor),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
        st.sampled_from(nudges),
        st.sampled_from([1.0, -1.0]),
    )


class TestDedup:
    """``_dedup_and_sort`` keeps exactly the pairs of the one-at-a-time keep-first loop."""

    @staticmethod
    def _check(values, vectors):
        values, vectors = np.asarray(values, dtype=float), np.asarray(vectors, dtype=float)
        rows = spectral._dedup_and_sort(values, vectors)
        pairs = [spectral.EigenPair("H", float(v), x, 0.0) for v, x in zip(values, vectors)]
        expected = serial_dedup_and_sort(pairs)
        assert [float(values[r]) for r in rows] == [p.value for p in expected]
        assert all(np.array_equal(vectors[r], p.vector) for r, p in zip(rows, expected))
        return rows

    def test_exact_tolerances_are_duplicates(self):
        tol_v, tol_x = spectral.VALUE_DEDUP_TOL, spectral.VECTOR_DEDUP_TOL
        values = [0.0, tol_v, np.nextafter(tol_v, 1.0), 0.0, 0.0, 0.0]
        vectors = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [-1.0, tol_x], [1.0, np.nextafter(tol_x, 1.0)], [-1.0, 0.0]]
        rows = self._check(values, vectors)
        # Sorted, row 5 comes first and is kept.  Row 0 is its negative and row 3 is tol_x from
        # it, row 1 is its negative at tol_v: duplicates.  Rows 4 and 2 are one ulp further out.
        assert rows.tolist() == [5, 4, 2]

    def test_empty(self):
        assert self._check(np.zeros(0), np.zeros((0, 3))).size == 0

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_near_duplicates_match_the_serial_loop(self, data):
        n = data.draw(st.integers(1, 4))
        components = st.lists(st.sampled_from([0.0, 0.5, -1.0]), min_size=n, max_size=n)
        bases = data.draw(st.lists(st.tuples(st.sampled_from([0.0, 1.0, -2.5, 1e-7]), components), min_size=1, max_size=3))
        values, vectors = [], []
        for _ in range(data.draw(st.integers(0, 12))):
            value, vector = data.draw(st.sampled_from(bases))
            values.append(value + data.draw(_offsets(spectral.VALUE_DEDUP_TOL)))
            row = np.array(vector) + np.array([data.draw(_offsets(spectral.VECTOR_DEDUP_TOL)) for _ in range(n)])
            vectors.append(-row if data.draw(st.booleans()) else row)
        self._check(values, np.reshape(vectors, (-1, n)))


class TestSignFoldedPower:
    """``spectral._power`` gives the bits of numpy's ``x ** k`` at integer k."""

    @pytest.mark.parametrize("k", range(-4, 8))
    def test_bits_match_numpy_power(self, k):
        # Signed draws over the whole exponent range, subnormals included, and the special values.
        rng = np.random.default_rng(k + 4)
        x = np.ldexp(rng.uniform(1.0, 2.0, 20_000), rng.integers(-1075, 1024, 20_000))
        x *= rng.choice([-1.0, 1.0], x.shape)
        big, tiny = np.finfo(float).max, np.finfo(float).smallest_subnormal
        x = np.concatenate([x, [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, big, -big, 1.0, -1.0]])
        with np.errstate(all="ignore"):
            got, want = spectral._power(x, k), x**k
        assert np.array_equal(got, want, equal_nan=True)
        # Zeros and infinities keep their signs; a NaN's sign means nothing.
        number = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))


class TestResidualDefinitions:
    def test_h_residual_formula(self, ex41, rng):
        x = rng.uniform(-1.0, 1.0, 3)
        value = 2.0
        direct = np.linalg.norm(contract(ex41, x) - value * x**3)
        assert h_residual(ex41, value, x) == float(direct)

    def test_z_residual_formula(self, ex41, rng):
        x = rng.uniform(-1.0, 1.0, 3)
        value = 2.0
        s = float(x @ x) ** 1.0  # (m - 2) / 2 with m = 4
        direct = np.linalg.norm(contract(ex41, x) - value * x * s)
        assert z_residual(ex41, value, x) == float(direct)


class TestUnitStarts:
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_one_draw_gives_the_rows_of_one_draw_per_start(self, dim):
        # The generator fills a (starts, n) draw row by row, as n-draws one after another;
        # the rows are scaled as _unit_starts scales them, so the bits must match.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            rows = np.array([rng.standard_normal(dim) for _ in range(spectral.DEFAULT_STARTS)])
            rows /= np.sqrt(left_to_right_reduce(np.add, rows * rows))[:, None]
            got = spectral._unit_starts(np.random.default_rng(seed), spectral.DEFAULT_STARTS, dim)
            assert np.array_equal(got, rows), seed
