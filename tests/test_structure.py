import itertools
import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btensor import (
    ClassificationError,
    GridTooLarge,
    Tensor,
    classify,
    membership_diagnostics,
    random_b0_tensor,
    random_b_tensor,
    random_tensor,
    row_profile,
    semipositivity_certificate,
    simplex_lattice,
)
from btensor import structure
from btensor.cli import main
from btensor.structure import _diag_flat_positions, require_membership
from btensor.tensorio import dump_tensor

from oracles import (
    loop_random_b_tensor,
    naive_diag_flat_positions,
    naive_row_sums,
    naive_simplex_lattice,
    reference_semipositivity_certificate,
)


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

    def test_infinite_tol_rejected(self, ex41):
        # An infinite margin meets no strict inequality: a strict member would read B0.
        with pytest.raises(ValueError, match="tol must be >= 0"):
            classify(ex41, tol=math.inf)

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

    def test_size_guard_allocates_nothing(self):
        # The points alone would take 8 * 10**6 * C(10**6 + 7, 7) bytes.
        tracemalloc.start()
        try:
            with pytest.raises(GridTooLarge):
                simplex_lattice(10**6, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_resolution_below_one_rejected(self):
        with pytest.raises(ValueError, match="resolution must be >= 1, got 0"):
            simplex_lattice(0, 3)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_matches_product_oracle(self, dim):
        for resolution in range(1, 13):
            expected = naive_simplex_lattice(resolution, dim)
            points = simplex_lattice(resolution, dim)
            assert points.dtype == expected.dtype == np.float64
            assert points.shape == expected.shape
            assert np.array_equal(points, expected), (resolution, dim)


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


def filter_everywhere(monkeypatch):
    """Make the certificate filter every lattice, one point per block."""
    monkeypatch.setattr(structure, "_FILTER_MIN_FLOATS", 0)
    monkeypatch.setattr(structure, "_BATCH_FLOATS", 1)


def assert_matches_reference(tensor, resolution):
    """Both modes of the certificate equal the whole-lattice reference in every bit, with no warning."""
    for mode in ("strict", "weak"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = semipositivity_certificate(tensor, mode, resolution)
        point, value, violated = reference_semipositivity_certificate(tensor, mode, resolution)
        where = (tensor.order, tensor.dim, resolution, mode)
        assert cert.worst_point.tolist() == point.tolist(), where
        assert cert.worst_value.hex() == value.hex(), where
        assert cert.violated == violated, where


def _resolutions(order, dim, budget):
    """The resolutions 1-12 whose lattice times the row length n**(m-1) stays within ``budget``."""
    return [r for r in range(1, 13) if math.comb(r + dim - 1, dim - 1) * dim ** (order - 1) <= budget]


def _diagonal_ulp_apart(order, dim, at, rng):
    """Diagonal -1, but -(1 + 2**-52) at ``at``, under small dyadic off-diagonal entries.

    A vertex's support max is its diagonal entry, and every other point's
    is above -1, so the minimum is the vertex ``at``, one ulp below the rest.
    """
    arr = rng.integers(-4, 5, size=(dim,) * order) / 1024.0
    diag = np.full(dim, -1.0)
    diag[at] = -(1.0 + 2.0**-52)
    arr[(np.arange(dim),) * order] = diag
    return Tensor(arr)


class TestSemiPositivityIsExact:
    """The filtered certificate against the whole-lattice kernel reference."""

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("order", range(2, 7))
    def test_random_members_and_nonmembers(self, order, forced, monkeypatch):
        if forced:
            filter_everywhere(monkeypatch)
        rng = np.random.default_rng(7000 + order)
        budget = 1 << 12 if forced else 1 << 17
        for dim in range(1, 9):
            for resolution in _resolutions(order, dim, budget)[::2]:
                for make in (random_tensor, random_b_tensor, random_b0_tensor):
                    assert_matches_reference(make(order, dim, rng), resolution)

    @pytest.mark.parametrize("order,dim", [(2, 8), (3, 8), (4, 8), (5, 5), (6, 4)])
    def test_filtered_shapes_at_bench_resolution(self, order, dim, rng):
        for make in (random_tensor, random_b_tensor, random_b0_tensor):
            assert_matches_reference(make(order, dim, rng), 8)

    # Shapes whose lattice at resolution 8 is filtered as it is, then small ones with the filter forced.
    TIE_SHAPES = [(3, 8, False), (4, 8, False), (5, 5, False), (3, 2, True), (3, 5, True), (4, 3, True), (6, 3, True)]

    @pytest.mark.parametrize("order,dim,forced", TIE_SHAPES)
    def test_zero_constant_and_dyadic_ties(self, order, dim, forced, monkeypatch):
        if forced:
            filter_everywhere(monkeypatch)
        rng = np.random.default_rng(order * 10 + dim)
        shape = (dim,) * order
        tensors = [
            Tensor.zeros(order, dim),
            Tensor(np.full(shape, 0.1)),
            Tensor(np.full(shape, -0.7)),
            Tensor.diagonal_tensor(order, dim, -1.0),  # every vertex ties at -1
            Tensor.diagonal_tensor(order, dim, 0.5),
            Tensor(rng.integers(-2, 3, size=shape) / 4.0),
        ]
        for tensor in tensors:
            for resolution in (1, 4, 8):
                assert_matches_reference(tensor, resolution)

    @pytest.mark.parametrize("order,dim,forced", TIE_SHAPES + [(2, 2, True)])
    def test_minima_one_ulp_apart(self, order, dim, forced, monkeypatch):
        if forced:
            filter_everywhere(monkeypatch)
        rng = np.random.default_rng(order + 100 * dim)
        for at in (0, dim // 2, dim - 1):
            tensor = _diagonal_ulp_apart(order, dim, at, rng)
            cert = semipositivity_certificate(tensor, "strict", 8)
            assert cert.worst_point.tolist() == np.eye(dim)[at].tolist()
            assert cert.worst_value == -(1.0 + 2.0**-52)
            assert_matches_reference(tensor, 8)
            # The nudge the other way: the vertex at is one ulp above the tie of the others.
            arr = np.array(tensor.array)
            arr[(at,) * order] = np.nextafter(-1.0, 0.0)
            assert_matches_reference(Tensor(arr), 8)

    @pytest.mark.parametrize("scale", [1e-300, 1e-310, 5e-324])
    @pytest.mark.parametrize("order,dim", [(3, 8), (4, 6), (5, 5)])
    def test_tiny_and_subnormal_entries(self, order, dim, scale):
        rng = np.random.default_rng(3)
        assert_matches_reference(Tensor(rng.integers(-3, 4, size=(dim,) * order) * scale), 8)
        assert_matches_reference(Tensor(random_b_tensor(order, dim, rng).array * scale), 8)

    @pytest.mark.parametrize("order,dim,seed", [(4, 6, 7), (4, 6, 8), (5, 5, 0), (5, 5, 7)])
    def test_subnormal_products(self, order, dim, seed):
        # The two paths differ here by whole subnormal steps while gamma_K * max|a|
        # underflows to 0, so only the bound's underflow term keeps the minimum a candidate.
        arr = np.random.default_rng(seed).integers(-40, 41, size=(dim,) * order) * 5e-324
        assert_matches_reference(Tensor(arr), 8)

    @pytest.mark.parametrize("fraction", [1.0, 0.5, 0.49])
    @pytest.mark.parametrize("order,dim", [(3, 8), (4, 8), (6, 4)])
    def test_entries_near_the_float_maximum(self, order, dim, fraction):
        rng = np.random.default_rng(11)
        big = fraction * sys.float_info.max
        assert_matches_reference(Tensor(rng.choice([-big, big], size=(dim,) * order)), 8)
        assert_matches_reference(Tensor(np.full((dim,) * order, big)), 8)

    @pytest.mark.parametrize("mode", ["strict", "weak"])
    def test_cli_at_the_float_maximum_prints_what_the_reference_gives(self, mode, tmp_path, capsys):
        rng = np.random.default_rng(12)
        big = sys.float_info.max
        # At grid 10 the kernel's scores of the two small constant tensors overflow to inf.
        for name, arr, grid in (
            ("signs", rng.choice([-big, big], size=(8, 8, 8)), 8),
            ("positive", np.full((8, 8, 8, 8), big), 8),
            ("order-2", np.full((8, 8), big), 10),
            ("order-3", np.full((3, 3, 3), big), 10),
        ):
            path = tmp_path / f"{name}.json"
            dump_tensor(Tensor(arr), path)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["semipositive", str(path), "--mode", mode, "--grid", str(grid)])
            out, err = capsys.readouterr()
            assert not caught
            with np.errstate(over="ignore", invalid="ignore"):
                point, value, violated = reference_semipositivity_certificate(Tensor(arr), mode, grid)
            assert json.loads(out) == {
                "mode": mode, "resolution": grid, "violated": violated,
                "worst_point": point.tolist(), "worst_value": value,
            }
            assert err == f"{mode} semi-positivity at grid {grid}: {'violated' if violated else 'no violation found'}\n"
            assert code == int(violated)

    def test_strict_member_scores_one_row_with_the_kernel(self, monkeypatch, rng):
        rows = []
        kernel = structure.contract_batch
        monkeypatch.setattr(structure, "contract_batch", lambda t, p: rows.append(len(p)) or kernel(t, p))
        tensor = random_b_tensor(4, 8, rng)
        cert = semipositivity_certificate(tensor, "strict", 8)
        assert rows == [1]
        point, value, _ = reference_semipositivity_certificate(tensor, "strict", 8)
        assert cert.worst_point.tolist() == point.tolist() and cert.worst_value.hex() == value.hex()

    def test_small_lattice_is_scored_whole(self, monkeypatch, rng):
        rows = []
        kernel = structure.contract_batch
        monkeypatch.setattr(structure, "contract_batch", lambda t, p: rows.append(len(p)) or kernel(t, p))
        semipositivity_certificate(random_b_tensor(3, 3, rng), "strict", 8)
        assert rows == [math.comb(10, 2)]


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

    @pytest.mark.parametrize("order", range(2, 8))
    def test_strict_generator_matches_per_row_loop(self, order):
        # The array-built generator gives the loop's tensor and leaves the generator where the
        # loop did, so later draws (random_b0_tensor's row) are the same too.
        for dim, seed in itertools.product(range(1, 9), range(30)):
            ours, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = loop_random_b_tensor(order, dim, loop).array
            assert np.array_equal(random_b_tensor(order, dim, ours).array, expected), (dim, seed)
            assert ours.random() == loop.random(), (dim, seed)

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_generators_classify_as_labelled(self, data, seed):
        # gen trusts this without re-classifying.  A B row's margin is at least 0.01, and the
        # float error of its row sum over n**(m-1) at most about 4 * n**(m-1) * 2**-53, below 2**-27
        # within the entry budget; the B0 tie row is dyadic, so its sum and quotient are exact.
        order = data.draw(st.integers(2, 24), label="order")
        dims = [dim for dim in range(1, 65) if dim**order <= 20_000]
        dim = data.draw(st.sampled_from(dims), label="dim")
        strict = classify(random_b_tensor(order, dim, np.random.default_rng(seed)))
        assert strict.verdict == "B"
        assert (strict.thresholds - strict.max_offdiag).min() > 0.005
        tie = classify(random_b0_tensor(order, dim, np.random.default_rng(seed)))
        assert tie.verdict == "B0"
        assert (tie.thresholds - tie.max_offdiag).min() == (0.0 if dim > 1 else math.inf)

    def test_single_dimension_generators(self, rng):
        assert classify(random_b_tensor(3, 1, rng)).verdict == "B"
        assert classify(random_b0_tensor(3, 1, rng)).verdict == "B0"
