import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btensor import (
    DimensionMismatch,
    Tensor,
    UnsupportedOrder,
    contract,
    contract_batch,
    contraction_jacobian,
    is_entry_symmetric,
    root_map,
    scaled_map,
    vector_norm,
)
from btensor import core
from btensor.core import _BATCH_FLOATS, ENTRY_LIMIT, Report, check_count, damped_newton
from btensor.structure import random_b_tensor, random_tensor, simplex_lattice

from oracles import (
    broadcast_jacobian,
    chain_contract,
    left_to_right_reduce,
    naive_contract,
    naive_is_symmetric,
    naive_matrix_contract,
)
from test_solver_golden import _general, _symmetric


class TestReport:
    def test_fields_in_order_with_plain_values(self):
        @dataclasses.dataclass(frozen=True)
        class Inner(Report):
            flags: np.ndarray
            index: tuple

        @dataclasses.dataclass(frozen=True)
        class Outer(Report):
            name: str
            values: np.ndarray
            inner: tuple
            best: Inner
            missing: object = None

        inner = Inner(flags=np.array([True, False]), index=(1, 2))
        outer = Outer(name="x", values=np.array([0.5, -0.0]), inner=(inner, inner), best=inner)
        payload = outer.to_dict()
        expected_inner = {"flags": [True, False], "index": [1, 2]}
        assert payload == {
            "name": "x", "values": [0.5, -0.0], "inner": [expected_inner, expected_inner],
            "best": expected_inner, "missing": None,
        }
        assert list(payload) == ["name", "values", "inner", "best", "missing"]
        assert type(payload["values"][0]) is float and type(payload["best"]["flags"][0]) is bool


class TestTensorType:
    def test_flat_storage_is_lexicographic(self):
        t = Tensor.from_flat(2, 2, [1.0, 2.0, 3.0, 4.0])
        assert t.array[0, 1] == 2.0
        assert t.array[1, 0] == 3.0
        assert list(t.entries) == [1.0, 2.0, 3.0, 4.0]

    def test_entry_count_must_match(self):
        with pytest.raises(ValueError, match="expected 8 entries"):
            Tensor.from_flat(3, 2, np.zeros(7))

    def test_order_and_dim_validation(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(3))  # order 1
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 3)))  # ragged axes

    def test_entries_are_immutable(self):
        t = Tensor.from_flat(2, 2, np.arange(4.0))
        with pytest.raises(ValueError):
            t.array[0, 0] = 5.0

    def test_diagonal_tensor(self):
        t = Tensor.diagonal_tensor(3, 2)
        assert list(t.diagonal) == [1.0, 1.0]
        assert t.entries.sum() == 2.0

    @pytest.mark.parametrize("order,dim", [(1, 2), (0, 2), (3, 0)])
    def test_diagonal_tensor_needs_a_shape(self, order, dim):
        with pytest.raises(ValueError, match="need order >= 2 and dim >= 1"):
            Tensor.diagonal_tensor(order, dim)

    def test_symmetry_check(self, ex41):
        assert is_entry_symmetric(ex41)
        lopsided = Tensor.from_flat(2, 2, [0.0, 1.0, 2.0, 3.0])
        assert not is_entry_symmetric(lopsided)

    def test_symmetric_is_read_from_the_entries(self, ex41, ex42, rng):
        symmetric = [
            Tensor.diagonal_tensor(4, 3, [1.0, -2.0, 3.0]), Tensor.zeros(3, 2),
            _symmetric(14, 4, 3).scaled(-0.5), ex41, ex42, _symmetric(13, 3, 3),
        ]
        general = [random_b_tensor(4, 3, rng), _general(11, 3, 3), _general(12, 4, 2)]
        assert all(t.symmetric is True for t in symmetric)
        assert all(t.symmetric is False for t in general)

    def test_symmetry_cannot_be_declared(self):
        with pytest.raises(TypeError):
            Tensor(np.eye(2), symmetric=True)
        with pytest.raises(TypeError):
            Tensor.from_flat(2, 2, [0.0, 1.0, 2.0, 3.0], symmetric=True)
        with pytest.raises(AttributeError):
            Tensor.zeros(2, 2).symmetric = False

    @pytest.mark.parametrize("order,dim", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
    def test_symmetry_check_matches_permutation_oracle(self, order, dim, rng):
        base = rng.integers(-9, 10, size=(dim,) * order).astype(float)  # exact sums

        def symmetrised(k):
            # Sum over the permutations that keep index positions 0..k-1 among
            # themselves: for k < order only the adjacent swap (k-1, k) fails.
            return sum(
                np.transpose(base, left + right)
                for left in itertools.permutations(range(k))
                for right in itertools.permutations(range(k, order))
            )

        sym = symmetrised(order)
        # Break symmetry at one entry and at its image under the swap of the
        # first and last index (a non-adjacent pair), so that swap still holds.
        broken = sym.copy()
        idx = (0,) * (order - 1) + (1,)
        broken[idx] += 1.0
        broken[idx[::-1]] += 1.0
        assert np.array_equal(broken, np.swapaxes(broken, 0, order - 1))
        cases = [(sym, True), (broken, False), (base, False)]
        cases += [(symmetrised(k), False) for k in range(1, order)]
        for arr, expected in cases:
            assert naive_is_symmetric(arr) is expected
            assert is_entry_symmetric(Tensor(arr)) is expected


class TestContract:
    def test_diagonal_gives_componentwise_power(self):
        t = Tensor.diagonal_tensor(3, 2)
        assert np.array_equal(contract(t, [2.0, 3.0]), [4.0, 9.0])

    def test_bundled_example_row_sums(self, ex41, ex42):
        np.testing.assert_allclose(contract(ex41, np.ones(3)), [57.0, 55.5, 54.5], atol=1e-9)
        np.testing.assert_allclose(
            contract(ex42, np.ones(4)), [65.7, 65.5, 64.5, 65.1], atol=1e-9
        )

    def test_dimension_mismatch(self, ex41):
        with pytest.raises(DimensionMismatch):
            contract(ex41, np.ones(4))

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (1, 2, 3)])
    def test_batch_shape_mismatch(self, ex41, shape):
        with pytest.raises(DimensionMismatch) as raised:
            contract_batch(ex41, np.ones(shape))
        assert str(raised.value) == f"expected shape (k, 3), got {shape}"

    @pytest.mark.parametrize("order,dim", [(2, 5), (3, 4), (4, 3), (5, 2)])
    def test_triple_check_against_oracle(self, order, dim, rng):
        tensor = random_tensor(order, dim, rng)
        x = rng.uniform(-2.0, 2.0, dim)
        expected = naive_contract(tensor, x)
        scale = 1.0 + float(np.max(np.abs(expected)))
        fast = contract(tensor, x)
        batched = contract_batch(tensor, x[None, :])[0]
        assert np.max(np.abs(fast - expected)) <= 1e-12 * scale
        assert np.max(np.abs(batched - expected)) <= 1e-12 * scale

    @given(t=st.floats(min_value=0.001, max_value=1000.0))
    @settings(max_examples=50, deadline=None)
    def test_positive_scaling_homogeneity(self, t):
        rng = np.random.default_rng(7)
        tensor = random_tensor(3, 3, rng)
        x = rng.uniform(-1.0, 1.0, 3)
        lhs = contract(tensor, t * x)
        rhs = t ** (tensor.order - 1) * contract(tensor, x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(rhs)))

    # contract is one row of contract_batch; these pin every batch row to the single-vector chain.
    def test_batch_matches_single(self, rng):
        for order, dim in [(2, 5), (3, 1), (3, 4), (4, 3), (6, 3), (3, 9), (4, 10), (3, 11)]:
            tensor = random_tensor(order, dim, rng)
            pts = rng.uniform(-1.0, 1.0, size=(11, dim))
            batched = contract_batch(tensor, pts)
            for row, point in zip(batched, pts):
                assert np.array_equal(row, chain_contract(tensor, point)), (order, dim)
                assert np.array_equal(row, contract(tensor, point)), (order, dim)

    def test_batch_matches_single_across_blocks(self, rng):
        tensor = random_tensor(4, 8, rng)
        pts = simplex_lattice(8, 8)
        assert len(pts) * 8**3 > 10 * _BATCH_FLOATS  # many row blocks
        batched = contract_batch(tensor, pts)
        for row, point in zip(batched, pts):
            assert np.array_equal(row, chain_contract(tensor, point))

    def test_batch_has_no_order_cap(self):
        tensor = Tensor(np.full((1,) * 26, 2.0))
        batched = contract_batch(tensor, np.array([[3.0], [-1.0], [0.0]]))
        assert np.array_equal(batched, [[2.0 * 3.0**25], [-2.0], [0.0]])
        assert np.array_equal(batched[0], chain_contract(tensor, [3.0]))

    def test_empty_batch(self, ex41):
        assert contract_batch(ex41, np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("order", range(2, 7))
    @pytest.mark.parametrize("dim", range(1, 6))
    def test_stage_is_the_matrix_contraction(self, order, dim, rng):
        # The chain stopped one product early gives A x^(m-2), and its product with x is the
        # ordinary output bit for bit, so a caller needing both makes one kernel call.
        tensor = random_tensor(order, dim, rng)
        for batch in (1, 3, 7):
            pts = rng.uniform(-1.0, 1.0, size=(batch, dim))
            stage = contract_batch(tensor, pts, matrix=True)
            expected = naive_matrix_contract(tensor, pts)
            assert stage.shape == (batch, dim, dim)
            assert np.max(np.abs(stage - expected)) <= 1e-14 * (1.0 + np.max(np.abs(expected)))
            assert np.array_equal((stage @ pts[:, :, None])[:, :, 0], contract_batch(tensor, pts))

    def test_stage_of_an_empty_batch(self, ex41):
        assert contract_batch(ex41, np.zeros((0, 3)), matrix=True).shape == (0, 3, 3)

    def test_stage_across_blocks(self, rng):
        tensor = random_tensor(4, 8, rng)
        pts = simplex_lattice(8, 8)
        assert len(pts) * 8**3 > 10 * _BATCH_FLOATS  # many row blocks
        stage = contract_batch(tensor, pts, matrix=True)
        assert np.array_equal((stage @ pts[:, :, None])[:, :, 0], contract_batch(tensor, pts))
        for row in range(0, len(pts), 997):
            want = naive_matrix_contract(tensor, pts[row : row + 1])[0]
            assert np.max(np.abs(stage[row] - want)) <= 1e-14 * (1.0 + np.max(np.abs(want)))

    def test_jacobian_matches_finite_differences(self, rng):
        tensor = random_tensor(4, 3, rng)
        x = rng.uniform(0.2, 1.0, 3)
        jac = contraction_jacobian(tensor, x)
        h = 1e-6
        for j in range(3):
            bump = np.zeros(3)
            bump[j] = h
            column = (contract(tensor, x + bump) - contract(tensor, x - bump)) / (2 * h)
            np.testing.assert_allclose(jac[:, j], column, rtol=1e-5, atol=1e-6)

    def test_jacobian_batch_rows_match_single_vectors(self, rng):
        for order in range(2, 7):
            for dim in range(1, 10):
                tensor = random_tensor(order, dim, rng)
                pts = rng.uniform(-1.0, 1.0, size=(3, dim))
                batched = contraction_jacobian(tensor, pts)
                assert batched.shape == (3, dim, dim)
                for row, point in zip(batched, pts):
                    single = contraction_jacobian(tensor, point)
                    assert single.shape == (dim, dim)
                    assert np.array_equal(row, single), (order, dim)

    @staticmethod
    def _signed_entries(rng, shape):
        """Normal draws at magnitudes 1e-5 .. 1e5, with a share of zeros and of -0.0."""
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6, shape)
        values[rng.random(shape) < 0.2] = 0.0
        values[rng.random(shape) < 0.1] = -0.0
        return values

    @staticmethod
    def _assert_same_bits(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    @staticmethod
    def _assert_jacobian(tensor, points):
        """The Jacobian is bit for bit the stage of A + moveaxis(A, 2, 1) + ... + moveaxis(A, m-1, 1),
        summed left to right, and agrees with the slot-by-slot reference within rounding: within
        gamma_K times |A| contracted with |x| (Higham 2002, section 3.1), where K = 2 (m-1) (n+1)
        covers the m-2 slot additions and the m-2 dot products of length n in either grouping."""
        m, n = tensor.order, tensor.dim
        jac = contraction_jacobian(tensor, points)
        total = tensor.array.copy()
        for slot in range(2, m):
            total = total + np.moveaxis(tensor.array, slot, 1)
        stage = contract_batch(Tensor(total), np.reshape(points, (-1, n)), matrix=True)
        TestContract._assert_same_bits(jac, stage.reshape(np.shape(points) + (n,)))
        k = 2 * (m - 1) * (n + 1)
        gamma = k * 2.0**-53 / (1 - k * 2.0**-53)
        scale = broadcast_jacobian(Tensor(np.abs(tensor.array)), np.abs(points))
        assert (np.abs(jac - broadcast_jacobian(tensor, points)) <= gamma * scale).all()

    @pytest.mark.parametrize("order", range(2, 7))
    def test_jacobian_bits_match_slot_sum_stage(self, order, rng):
        # At every batch size, on single vectors and on non-contiguous column slices of a wider stack.
        for dim in range(1, 9):
            tensor = Tensor(self._signed_entries(rng, (dim,) * order))
            for batch in (0, 1, 2, 7, 33, 130):
                if batch * dim ** (order - 1) > 1 << 22:
                    continue
                wide = self._signed_entries(rng, (batch, dim + 3))
                points = wide[:, 1 : dim + 1]
                self._assert_jacobian(tensor, points)
                for point in points[:2]:
                    self._assert_jacobian(tensor, point)

    @given(
        order=st.integers(2, 6),
        dim=st.integers(1, 8),
        batch=st.integers(0, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_jacobian_bits_match_slot_sum_stage_sampled(self, order, dim, batch, seed):
        rng = np.random.default_rng(seed)
        tensor = Tensor(self._signed_entries(rng, (dim,) * order))
        self._assert_jacobian(tensor, self._signed_entries(rng, (dim + 1, batch)).T[:, :dim])

    def test_jacobian_empty_batch(self, ex41):
        assert contraction_jacobian(ex41, np.zeros((0, 3))).shape == (0, 3, 3)

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (2, 2, 3), ()])
    def test_jacobian_rejects_wrong_shapes(self, ex41, shape):
        with pytest.raises(DimensionMismatch):
            contraction_jacobian(ex41, np.ones(shape))


def _hexes(*arrays):
    return [[float(v).hex() for v in np.ravel(a)] for a in arrays]


class TestDampedNewton:
    """The stacked driver on g(z) = (z0**2 + z1, z1**2 - 1), with roots (+-1, -1).

    On z1 = 1 the merit is at least 1 and is smallest at z0 = 0; at z0 = 0 the
    Jacobian [[2 z0, 1], [0, 2 z1]] is singular.
    """

    LIMITS = (40, 1e-12, 1e-10)  # max_iter, tol, min_step
    STARTS = np.array([
        [1.0, -1.0],  # a root: converged at z0
        [0.0, -2.0],  # singular Jacobian at every step: the lstsq fallback
        [np.nan, 1.0],  # NaN merit: no length helps
        [1e-9, 1.0],  # merit 1.0 at its floor: every length raises it
        [2.0, -3.0],
        [-0.5, -0.7],
        [0.8, -1.5],
    ])

    @staticmethod
    def evaluate(z):
        g = np.column_stack([z[:, 0] ** 2 + z[:, 1], z[:, 1] ** 2 - 1.0])
        return z, g, np.sqrt((g[:, None, :] @ g[:, :, None])[:, 0, 0])

    @staticmethod
    def jacobian(z, g):
        jac = np.zeros((len(z), 2, 2))
        jac[:, 0, 0] = 2.0 * z[:, 0]
        jac[:, 0, 1] = 1.0
        jac[:, 1, 1] = 2.0 * z[:, 1]
        return jac

    @pytest.mark.parametrize("trial_points", [1, 100, core._TRIAL_POINTS])
    @pytest.mark.parametrize("max_iter", [1, 2, 3, 40])
    def test_stack_rows_equal_rows_run_alone(self, monkeypatch, max_iter, trial_points):
        # Each line-search call scores max(1, trial_points // failing) lengths of every failing row.
        monkeypatch.setattr(core, "_TRIAL_POINTS", trial_points)
        lstsq_calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: lstsq_calls.append(1) or lstsq(*a, **k))
        limits = (max_iter,) + self.LIMITS[1:]
        z, g, merit = damped_newton(self.evaluate, self.jacobian, self.STARTS, *limits)
        assert lstsq_calls
        for k, start in enumerate(self.STARTS):
            alone = damped_newton(self.evaluate, self.jacobian, start[None], *limits)
            assert _hexes(z[k], g[k], merit[k]) == _hexes(*alone), k

    def test_row_outcomes(self):
        z, g, merit = damped_newton(self.evaluate, self.jacobian, self.STARTS, *self.LIMITS)
        assert merit[0] == 0.0 and np.array_equal(z[0], self.STARTS[0])
        assert z[1, 0] == 0.0 and merit[1] > 0.1  # stuck on the singular line z0 = 0
        assert np.isnan(merit[2])
        assert merit[3] == 1.0 and np.array_equal(z[3], self.STARTS[3])
        assert all(merit[k] <= self.LIMITS[1] for k in (4, 5, 6))
        np.testing.assert_allclose(np.abs(z[4:]), 1.0, rtol=1e-12)

    def test_non_finite_singular_system_takes_a_nan_step(self, monkeypatch):
        # lstsq is not called on a non-finite system: the row's step is NaN, so it stops.
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: pytest.fail("lstsq called"))
        steps = []

        def evaluate(z):
            steps.append(z.copy())
            return z, z + 1.0, np.abs(z + 1.0)[:, 0]

        def jacobian(z, g):
            return np.array([[[np.inf, 0.0], [0.0, 0.0]]])  # singular and not finite

        start = np.array([[1.0, 0.0]])
        z, g, merit = damped_newton(evaluate, jacobian, start, *self.LIMITS)
        assert np.array_equal(z, start) and merit.tolist() == [2.0]
        assert len(steps) > 1 and all(np.isnan(trial).all() for trial in steps[1:])

    def test_h_search_on_extreme_diagonal_returns(self):
        # np.linalg.lstsq never returned on this search's non-finite Jacobian (LAPACK reports
        # an illegal DLASCL parameter and keeps running), so it runs in a process of its own.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src") + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "from btensor import Tensor, find_h_eigenpairs\n"
            "print(find_h_eigenpairs(Tensor.diagonal_tensor(4, 2, [1e308, -1e308]), starts=5, seed=1))\n"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0 and run.stdout == "[]\n"

    def test_equal_merit_is_no_progress(self):
        # Projected onto z >= 0, the step from 0 along -1 lands back on 0 at every length.
        calls = []

        def evaluate(z):
            calls.append(len(z))
            z = np.maximum(z, 0.0)
            return z, z + 1.0, (z + 1.0)[:, 0]

        z, g, merit = damped_newton(evaluate, lambda z, g: np.ones((len(z), 1, 1)), np.zeros((1, 1)), *self.LIMITS)
        assert merit[0] == 1.0 and z[0, 0] == 0.0
        assert calls == [1, 1, 33]  # the start, length 1, then the 33 shorter lengths in one call

    def test_input_stack_is_not_modified(self):
        starts = self.STARTS.copy()
        damped_newton(self.evaluate, self.jacobian, starts, *self.LIMITS)
        assert np.array_equal(starts, self.STARTS, equal_nan=True)

    def test_empty_stack(self):
        calls = []

        def evaluate(z):
            calls.append(len(z))
            return self.evaluate(z)

        z, g, merit = damped_newton(evaluate, self.jacobian, np.zeros((0, 2)), *self.LIMITS)
        assert z.shape == g.shape == (0, 2) and merit.shape == (0,)
        assert calls == [0]  # no rounds on an empty stack


class TestCheckCount:
    @pytest.mark.parametrize("dim", [1, 3, 7, 2**24])
    def test_cap_is_count_times_dim(self, dim):
        # Only the arithmetic is checked: no start or sample is drawn here.
        check_count("starts", ENTRY_LIMIT // dim, dim)
        over = ENTRY_LIMIT // dim + 1
        with pytest.raises(ValueError, match=f"starts {over} at dim {dim} is over the limit of 16777216 entries"):
            check_count("starts", over, dim)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match=f"samples must be >= 1, got {count}"):
            check_count("samples", count, 3)


class TestVectorNorm:
    def test_euclidean(self):
        assert vector_norm([3.0, -4.0], 2) == 5.0

    def test_max_norm_of_ones(self):
        assert vector_norm(np.ones(6), math.inf) == 1.0

    @pytest.mark.parametrize("n,p", [(4, 1.0), (4, 2.0), (9, 3.0)])
    def test_ones_p_norm(self, n, p):
        assert abs(vector_norm(np.ones(n), p) - n ** (1 / p)) <= 1e-12

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            vector_norm([1.0], 0.5)

    @pytest.mark.parametrize("x", [1.0, [[1.0, 2.0]], np.ones((2, 2))])
    def test_non_vector_rejected(self, x):
        with pytest.raises(ValueError, match="expected a vector, got shape"):
            vector_norm(x)

    def test_nan_p_rejected(self):
        # NaN fails every comparison, so a plain p < 1 check let it through to a NaN norm.
        with pytest.raises(ValueError, match="norm exponent must be >= 1, got nan"):
            vector_norm(np.ones(3), math.nan)

    @given(
        dim=st.integers(1, 8),
        p=st.sampled_from([1, 2, 3, 4, 6, math.inf]),
        seed=st.integers(0, 2**32 - 1),
        reverse=st.booleans(),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_bits_match_numpy_norm(self, dim, p, seed, reverse):
        # Magnitudes 1e-300 .. 1e300 with a share of zeros and of subnormals, so the powers
        # overflow and underflow; a reversed view has negative strides.
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(dim) * 10.0 ** rng.integers(-300, 301, dim)
        share = rng.random(dim)
        v[share < 0.2] = 0.0
        tiny = (share >= 0.2) & (share < 0.35)
        v[tiny] = 5e-324 * rng.integers(1, 2**40, dim)[tiny]
        v = v[::-1] if reverse else v
        with np.errstate(over="ignore", under="ignore"):
            got, want = vector_norm(v, p), float(np.linalg.norm(v, p))
        assert got.hex() == want.hex()

    def test_monotone_in_p_and_limit(self, rng):
        x = rng.uniform(-3.0, 3.0, 6)
        values = [vector_norm(x, p) for p in (1, 2, 4, 8, 16, 32, 64)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        top = vector_norm(x, math.inf)
        assert abs(vector_norm(x, 64) - top) <= 0.05 * top


class TestHomogeneousMaps:
    def test_scaled_map_at_origin(self, ex41):
        assert np.array_equal(scaled_map(ex41, np.zeros(3)), np.zeros(3))

    def test_scaled_map_on_uniform_vector(self, ex41):
        expected = 3.0 ** ((2 - 4) / 2) * np.array([57.0, 55.5, 54.5])
        np.testing.assert_allclose(scaled_map(ex41, np.ones(3)), expected, rtol=1e-13)

    def test_scaled_map_diagonal_basis_vector(self):
        t = Tensor.diagonal_tensor(3, 2)
        np.testing.assert_allclose(scaled_map(t, [1.0, 0.0]), [1.0, 0.0])

    def test_root_map_on_uniform_vector(self, ex41):
        expected = np.array([57.0, 55.5, 54.5]) ** (1 / 3)
        np.testing.assert_allclose(root_map(ex41, np.ones(3)), expected, rtol=1e-13)

    def test_root_map_of_diagonal_is_identity(self, rng):
        t = Tensor.diagonal_tensor(4, 2)
        x = rng.uniform(-2.0, 2.0, 2)
        np.testing.assert_allclose(root_map(t, x), x, rtol=1e-12, atol=1e-12)

    def test_root_map_zero(self, ex41):
        assert np.array_equal(root_map(ex41, np.zeros(3)), np.zeros(3))

    def test_root_map_needs_even_order(self):
        t = Tensor.diagonal_tensor(3, 2)
        with pytest.raises(UnsupportedOrder):
            root_map(t, [1.0, 1.0])

    @pytest.mark.parametrize("order", [2, 3, 4, 6])
    def test_batch_rows_match_single_vectors(self, order, rng):
        tensor = random_tensor(order, 3, rng)
        pts = rng.uniform(-1.0, 1.0, size=(6, 3))
        pts[2] = 0.0
        mappings = (scaled_map, root_map) if order % 2 == 0 else (scaled_map,)
        for mapping in mappings:
            batched = mapping(tensor, pts)
            assert batched.shape == pts.shape
            assert np.array_equal(batched[2], np.zeros(3))
            for row, point in zip(batched, pts):
                assert np.array_equal(row, mapping(tensor, point))

    @pytest.mark.parametrize("order", [3, 4])
    def test_maps_give_a_vector_for_a_vector_and_a_stack_for_a_stack(self, order, rng):
        tensor = random_tensor(order, 3, rng)
        for mapping in (scaled_map, root_map) if order % 2 == 0 else (scaled_map,):
            assert mapping(tensor, [0.5, -1.0, 2.0]).shape == (3,)
            assert mapping(tensor, np.ones(3)).shape == (3,)
            assert mapping(tensor, np.ones((1, 3))).shape == (1, 3)
            assert mapping(tensor, [[0.5, -1.0, 2.0]] * 5).shape == (5, 3)
            assert mapping(tensor, np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (2, 2, 3), ()])
    def test_maps_reject_wrong_shapes(self, ex41, shape):
        for mapping in (scaled_map, root_map):
            with pytest.raises(DimensionMismatch):
                mapping(ex41, np.ones(shape))

    @given(t=st.floats(min_value=0.001, max_value=1000.0))
    @settings(max_examples=50, deadline=None)
    def test_degree_one_homogeneity(self, t):
        rng = np.random.default_rng(11)
        tensor = random_tensor(4, 3, rng)
        x = rng.uniform(-1.0, 1.0, 3)
        for mapping in (scaled_map, root_map):
            lhs = mapping(tensor, t * x)
            rhs = t * mapping(tensor, x)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1.0 + np.max(np.abs(rhs)))


class TestReduceRows:
    """``core._reduce_rows``: a stack's row sums and maxima, one column at a time."""

    @staticmethod
    def _stacks(k, n, seed):
        """Signed rows over the whole float range, with a zero row, a ±0 row and rows holding ±inf
        and NaN, and the ones the row norms reduce: their |x|**p for p = 1, 2, 3 and |x| (p = inf)."""
        rng = np.random.default_rng([k, n, seed])
        rows = rng.uniform(-2.0, 2.0, (k, n)) * 2.0 ** rng.integers(-1074, 1023, size=(k, n))
        specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan])
        for r in range(1, k, 3):
            cols = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            rows[r, cols] = rng.choice(specials, size=len(cols))
        rows[0] = 0.0
        if k > 1:
            rows[1] = np.where(np.arange(n) % 2, 0.0, -0.0)
        with np.errstate(over="ignore", under="ignore"):
            return {"signed": rows, math.inf: np.abs(rows), **{p: np.abs(rows) ** p for p in (1.0, 2.0, 3.0)}}

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=float).view(np.int64).tolist()

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("k", [1, 2, 68, 1028])
    def test_short_rows_give_numpys_bits(self, k, n):
        for seed in range(3):
            for name, rows in self._stacks(k, n, seed).items():
                with np.errstate(invalid="ignore", over="ignore"):
                    sums, sums_numpy = core._reduce_rows(np.add, rows), np.add.reduce(rows, axis=1)
                    if name != "signed":  # maxima of the norms' non-negative entries, so no ±0 tie
                        tops, tops_numpy = core._reduce_rows(np.maximum, rows), np.maximum.reduce(rows, axis=1)
                        assert self._bits(tops) == self._bits(tops_numpy), (k, n, name)
                assert sums.shape == (k,)
                if name == "signed":
                    # numpy adds a row to +0, so a row of -0 alone sums to +0 there and to -0 here.
                    sums = sums + 0.0
                assert self._bits(sums) == self._bits(sums_numpy), (k, n, name)

    @pytest.mark.parametrize("n", [8, 9, 16, 33])
    @pytest.mark.parametrize("k", [1, 68])
    def test_long_rows_add_left_to_right(self, k, n):
        # From n = 8 numpy sums a row pairwise, so the oracle is the plain left-to-right loop.
        for name, rows in self._stacks(k, n, 0).items():
            with np.errstate(invalid="ignore", over="ignore"):
                for ufunc in (np.add, np.maximum) if name != "signed" else (np.add,):
                    expected = left_to_right_reduce(ufunc, rows)
                    assert self._bits(core._reduce_rows(ufunc, rows)) == self._bits(expected), (k, n, name)

    def test_leaves_its_input_and_gives_a_new_array(self):
        rows = np.arange(12.0).reshape(4, 3)
        for ufunc in (np.add, np.maximum):
            out = core._reduce_rows(ufunc, rows)
            assert not np.shares_memory(out, rows)
        assert np.array_equal(rows, np.arange(12.0).reshape(4, 3))
        single = np.ones((2, 1))
        assert not np.shares_memory(core._reduce_rows(np.add, single), single)
        assert core._reduce_rows(np.add, np.empty((0, 4))).shape == (0,)


class TestRowNorms:
    """``core._row_norms``: a stack's 2-norms as ``sqrt(_row_dot(rows, rows))``."""

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("k", [1, 2, 68, 1028])
    def test_two_norm_is_the_root_of_the_left_to_right_sum_of_squares(self, k, n):
        # The row dot adds a row's squares in index order, so every 2-norm takes one rounding
        # order: on rows over the whole float range, with zero rows and rows holding ±inf and NaN,
        # and on rows of one scale, where a pairwise or reversed sum rounds apart.
        for seed in range(3):
            one_scale = np.random.default_rng([k, n, seed]).uniform(-2.0, 2.0, (k, n))
            one_scale[0] = 0.0
            for rows in (TestReduceRows._stacks(k, n, seed)["signed"], one_scale):
                with np.errstate(over="ignore", invalid="ignore"):
                    expected = np.sqrt(left_to_right_reduce(np.add, rows * rows))
                    got = core._row_norms(rows, 2.0)
                assert TestReduceRows._bits(got) == TestReduceRows._bits(expected), (k, n, seed)
