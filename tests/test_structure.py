import math

import numpy as np
import pytest

from btensor import (
    ClassificationError,
    GridTooLarge,
    Tensor,
    classify,
    membership_diagnostics,
    random_b0_tensor,
    random_b_tensor,
    row_profile,
    semipositivity_certificate,
    simplex_lattice,
)
from btensor.structure import _diag_flat_positions, require_membership

from oracles import naive_diag_flat_positions, naive_row_sums, naive_simplex_lattice


class TestRowProfile:
    def test_bundled_examples(self, ex41, ex42):
        profile = row_profile(ex41)
        np.testing.assert_allclose(profile.row_sums, [57.0, 55.5, 54.5], atol=1e-9)
        np.testing.assert_array_equal(profile.beta, [2.0, 2.0, 2.0])
        profile = row_profile(ex42)
        np.testing.assert_allclose(profile.row_sums, [65.7, 65.5, 64.5, 65.1], atol=1e-9)
        np.testing.assert_array_equal(profile.beta, [1.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("order,dim", [(2, 3), (3, 2), (4, 3)])
    def test_unit_diagonal(self, order, dim):
        profile = row_profile(Tensor.diagonal_tensor(order, dim))
        np.testing.assert_array_equal(profile.row_sums, np.ones(dim))
        np.testing.assert_array_equal(profile.beta, np.zeros(dim))

    def test_diag_flat_positions_match_oracle(self):
        # Every (order, dim) the suite builds, dimension 1 at every order included.
        shapes = [(m, n) for m in range(2, 7) for n in range(1, 10)] + [(26, 1)]
        for order, dim in shapes:
            assert _diag_flat_positions(order, dim).tolist() == naive_diag_flat_positions(order, dim), (order, dim)

    def test_row_sums_match_oracle(self, rng):
        tensor = Tensor(rng.uniform(-1, 1, size=(3,) * 4))
        np.testing.assert_allclose(
            row_profile(tensor).row_sums, naive_row_sums(tensor), rtol=1e-12, atol=1e-12
        )


class TestClassify:
    def test_bundled_examples_are_strict(self, ex41, ex42):
        assert classify(ex41).verdict == "B"
        assert classify(ex42).verdict == "B"

    def test_zero_tensor_is_nonstrict(self):
        assert classify(Tensor.zeros(3, 3)).verdict == "B0"

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_negative_or_nan_tol_rejected(self, tol):
        # A negative margin would loosen both definitions: the zero tensor would be strict.
        with pytest.raises(ValueError, match="tol must be >= 0"):
            classify(Tensor.zeros(3, 2), tol=tol)

    def test_negative_diagonal_breaks_membership(self):
        t = Tensor.diagonal_tensor(3, 3, [1.0, -1.0, 1.0])
        report = classify(t)
        assert report.verdict == "Neither"
        assert any(w.row == 2 and w.reason == "row_sum" for w in report.witnesses)

    def test_threshold_witness_points_at_offender(self):
        arr = np.zeros((3, 3))
        arr[0, 0] = 1.0
        arr[0, 1] = 5.0  # row average 2 < 5
        arr[1, 1] = 1.0
        arr[2, 2] = 1.0
        report = classify(Tensor(arr))
        assert report.verdict == "Neither"
        witness = report.witnesses[0]
        assert witness.row == 1
        assert witness.index == (2,)
        assert witness.reason == "threshold"

    def test_thresholds_field(self, ex41):
        report = classify(ex41)
        np.testing.assert_allclose(report.thresholds, np.array([57.0, 55.5, 54.5]) / 27.0)

    def test_tolerance_makes_marginal_rows_fail(self):
        t = Tensor.diagonal_tensor(2, 2, [1e-6, 1.0])
        assert classify(t).verdict == "B"
        assert classify(t, tol=1e-3).verdict == "B0"

    def test_single_dimension(self):
        assert classify(Tensor.from_flat(3, 1, [2.0])).verdict == "B"
        assert classify(Tensor.from_flat(3, 1, [0.0])).verdict == "B0"
        assert classify(Tensor.from_flat(3, 1, [-1.0])).verdict == "Neither"

    def test_scale_covariance(self, ex41, rng):
        for _ in range(5):
            t = float(rng.uniform(0.1, 50.0))
            assert classify(ex41.scaled(t)).verdict == "B"
        b0 = random_b0_tensor(3, 3, rng)
        # powers of two keep the zero-margin tie exact
        assert classify(b0.scaled(4.0)).verdict == classify(b0).verdict

    def test_adding_positive_diagonal_preserves_strict_class(self, rng):
        tensor = random_b_tensor(4, 3, rng)
        bump = Tensor.diagonal_tensor(4, 3, 0.37)
        assert classify(Tensor(tensor.array + bump.array)).verdict == "B"


class TestDiagnostics:
    def test_bundled_example_rows(self, ex41):
        diag = membership_diagnostics(ex41, strict=True)
        assert diag.all_hold()
        # row 1 numbers: diagonal 6 vs cap 2, row sum 57 vs 27 * 2, no negatives
        profile = row_profile(ex41)
        assert ex41.diagonal[0] == 6.0 > 2.0
        assert profile.row_sums[0] == 57.0 > 27.0 * profile.beta[0] == 54.0

    def test_second_example(self, ex42):
        assert membership_diagnostics(ex42, strict=True).all_hold()
        assert ex42.diagonal[0] == 3.0 > 1.0
        assert row_profile(ex42).row_sums[0] > 64.0 * 1.0

    def test_zero_tensor_nonstrict(self):
        diag = membership_diagnostics(Tensor.zeros(3, 2), strict=False)
        assert diag.all_hold()

    def test_rejects_nonmember(self):
        t = Tensor.diagonal_tensor(3, 2, [-1.0, 1.0])
        with pytest.raises(ClassificationError):
            membership_diagnostics(t, strict=False)

    def test_strict_needs_strict_class(self, rng):
        b0 = random_b0_tensor(3, 3, rng)
        with pytest.raises(ClassificationError):
            membership_diagnostics(b0, strict=True)
        assert membership_diagnostics(b0, strict=False).all_hold()

    def test_unknown_variant_rejected(self, ex41):
        with pytest.raises(ValueError, match="variant must be 'B' or 'B0', got 'C'"):
            require_membership(ex41, "C")


class TestSimplexLattice:
    def test_count_and_normalization(self):
        pts = simplex_lattice(12, 3)
        assert len(pts) == math.comb(14, 2) == 91
        np.testing.assert_allclose(pts.sum(axis=1), np.ones(len(pts)), atol=1e-12)
        assert np.all(pts >= 0)

    def test_lexicographic_order(self):
        pts = simplex_lattice(2, 3)
        expected = np.array(
            [[0, 0, 2], [0, 1, 1], [0, 2, 0], [1, 0, 1], [1, 1, 0], [2, 0, 0]]
        ) / 2.0
        np.testing.assert_array_equal(pts, expected)

    def test_size_guard(self):
        with pytest.raises(GridTooLarge):
            simplex_lattice(2000, 4)

    def test_resolution_below_one_rejected(self):
        with pytest.raises(ValueError, match="resolution must be >= 1, got 0"):
            simplex_lattice(0, 3)

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_matches_product_oracle(self, dim):
        for resolution in range(1, 10):
            expected = naive_simplex_lattice(resolution, dim)
            assert np.array_equal(simplex_lattice(resolution, dim), expected), (resolution, dim)


class TestSemiPositivity:
    def test_bundled_example_strict(self, ex41):
        cert = semipositivity_certificate(ex41, "strict", 12)
        assert not cert.violated
        assert cert.worst_value > 0

    @pytest.mark.parametrize("resolution", [1, 4, 8])
    def test_unit_diagonal_floor(self, resolution):
        t = Tensor.diagonal_tensor(3, 2)
        cert = semipositivity_certificate(t, "strict", resolution)
        assert not cert.violated
        assert cert.worst_value >= (1.0 / resolution) ** (t.order - 1) - 1e-15

    def test_negated_diagonal_is_violated(self):
        t = Tensor.diagonal_tensor(3, 2, -1.0)
        cert = semipositivity_certificate(t, "strict", 4)
        assert cert.violated
        assert cert.worst_value == -1.0
        assert sorted(cert.worst_point) == [0.0, 1.0]  # a simplex vertex

    def test_zero_tensor_weak_vs_strict(self):
        t = Tensor.zeros(3, 2)
        assert not semipositivity_certificate(t, "weak", 4).violated
        assert semipositivity_certificate(t, "strict", 4).violated

    def test_mode_validation(self, ex41):
        with pytest.raises(ValueError, match="mode"):
            semipositivity_certificate(ex41, "sloppy", 4)


class TestGenerators:
    @pytest.mark.parametrize("order,dim", [(3, 2), (3, 4), (4, 3)])
    def test_strict_generator_classifies_strict(self, order, dim, rng):
        for _ in range(10):
            assert classify(random_b_tensor(order, dim, rng)).verdict == "B"

    @pytest.mark.parametrize("order,dim", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_nonstrict_generator_is_exactly_borderline(self, order, dim, rng):
        for _ in range(10):
            tensor = random_b0_tensor(order, dim, rng)
            report = classify(tensor)
            assert report.verdict == "B0"
            # one row ties the threshold against its largest off-diagonal entry
            gaps = report.thresholds - report.max_offdiag
            assert np.min(gaps) == 0.0

    def test_generated_members_pass_diagnostics_and_grid(self, rng):
        for _ in range(5):
            b = random_b_tensor(3, 3, rng)
            assert membership_diagnostics(b, strict=True).all_hold()
            assert not semipositivity_certificate(b, "strict", 8).violated
            b0 = random_b0_tensor(3, 3, rng)
            assert membership_diagnostics(b0, strict=False).all_hold()
            assert not semipositivity_certificate(b0, "weak", 8).violated

    def test_single_dimension_generators(self, rng):
        assert classify(random_b_tensor(3, 1, rng)).verdict == "B"
        assert classify(random_b0_tensor(3, 1, rng)).verdict == "B0"
