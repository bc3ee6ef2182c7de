import numpy as np
import pytest

from btensor import (
    ClassificationError,
    Tensor,
    eigenvalue_bounds,
    find_h_eigenpairs,
    find_z_eigenpairs,
    h_residual,
    random_b_tensor,
    verify_eigen_bounds,
    z_residual,
)
from btensor import spectral
from btensor.core import contract

from oracles import naive_contract


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

    def test_explicit_shift_matches_auto_on_symmetric_input(self, ex41):
        auto = find_z_eigenpairs(ex41, starts=8, seed=9)
        manual = find_z_eigenpairs(ex41, shift=1.0 + float(np.abs(ex41.entries).sum()), starts=8, seed=9)
        assert [p.value for p in auto] == [p.value for p in manual]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("order", [2, 3])
    def test_zero_iterate_start_is_dropped(self, order):
        # The power iteration's norm overflows, so every start reaches x = 0,
        # where the Jacobian's |x|^(m-4) factor is a division by zero for m < 4.
        pairs = find_z_eigenpairs(Tensor.diagonal_tensor(order, 2, [1e200, 1.0]), starts=8, seed=0)
        assert all(p.residual <= 1e-8 for p in pairs)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_power_iterate_stops_at_once(self, monkeypatch):
        # The shift 1 + sum |entries| is inf, so every update is non-finite and its start is
        # dropped after one round instead of running all 10 000 on NaN.
        calls = []
        for name in ("contract", "contract_batch"):
            kernel = getattr(spectral, name)
            monkeypatch.setattr(spectral, name, lambda *a, kernel=kernel: calls.append(1) or kernel(*a))
        assert find_z_eigenpairs(Tensor.diagonal_tensor(3, 2, [1e308, 1e308]), starts=4) == []
        assert len(calls) <= 4

    @pytest.mark.parametrize("search", [find_h_eigenpairs, find_z_eigenpairs])
    @pytest.mark.parametrize("starts", [0, -3])
    def test_starts_below_one_rejected(self, ex41, search, starts):
        with pytest.raises(ValueError, match="starts must be >= 1"):
            search(ex41, starts=starts)


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
