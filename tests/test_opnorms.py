import math

import numpy as np
import pytest

from btensor import (
    ClassificationError,
    Tensor,
    UnsupportedOrder,
    bound_report,
    estimate_norm,
    f_norm_bounds,
    general_upper_bound,
    random_b0_tensor,
    random_b_tensor,
    t_norm_bounds,
)

INF = math.inf


class TestGeneralUpperBound:
    def test_t_max_norm_is_row_abs_sum(self, ex41):
        assert general_upper_bound(ex41, "T", INF) == 57.0

    def test_t_one_norm(self, ex42):
        expected = 16.0 * (65.7 + 65.5 + 64.5 + 65.1)
        assert abs(general_upper_bound(ex42, "T", 1.0) - expected) <= 1e-9
        assert abs(expected - 4172.8) <= 1e-9

    def test_unit_diagonal(self):
        assert general_upper_bound(Tensor.diagonal_tensor(3, 4), "T", INF) == 1.0

    def test_f_needs_even_order(self):
        with pytest.raises(UnsupportedOrder):
            general_upper_bound(Tensor.diagonal_tensor(3, 2), "F", INF)

    def test_f_max_norm(self, ex41):
        assert abs(general_upper_bound(ex41, "F", INF) - 57.0 ** (1 / 3)) <= 1e-12


class TestTBounds:
    def test_bundled_example_max_norm(self, ex41):
        lower, upper = t_norm_bounds(ex41, INF, "B")
        # cap term 9 * 2 = 18 loses to the row-sum witness term 57 / 3 = 19
        assert abs(lower - 19.0) <= 1e-9
        assert upper == 54.0
        assert upper < general_upper_bound(ex41, "T", INF)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_second_example_diagonal_upper_is_48(self, ex42, p):
        _, upper = t_norm_bounds(ex42, p, "B")
        assert abs(upper - 48.0) <= 1e-9
        general = general_upper_bound(ex42, "T", p)
        assert general >= 64.0 * 4.0 ** (3.0 / p) - 1e-9
        assert upper < general

    def test_zero_tensor_nonstrict(self):
        assert t_norm_bounds(Tensor.zeros(3, 3), INF, "B0") == (0.0, 0.0)

    def test_variant_must_match_classification(self, rng):
        b0 = random_b0_tensor(3, 3, rng)
        with pytest.raises(ClassificationError):
            t_norm_bounds(b0, INF, "B")

    def test_strict_tensor_qualifies_for_nonstrict_variant(self, ex41):
        lower, upper = t_norm_bounds(ex41, INF, "B0")
        assert (lower, upper) == (18.0, 54.0)  # cap term only


class TestFBounds:
    def test_bundled_example_one_norm(self, ex41):
        lower, upper = f_norm_bounds(ex41, 1.0, "B")
        expected_upper = 6 ** (1 / 3) + 5 ** (1 / 3) + 6 ** (1 / 3)
        assert abs(upper - expected_upper) <= 1e-12
        general = general_upper_bound(ex41, "F", 1.0)
        expected_general = 57 ** (1 / 3) + 55.5 ** (1 / 3) + 54.5 ** (1 / 3)
        assert abs(general - expected_general) <= 1e-12
        assert lower <= upper < general

    def test_unit_diagonal_max_norm_is_pinned(self):
        t = Tensor.diagonal_tensor(4, 2)
        assert f_norm_bounds(t, INF, "B") == (1.0, 1.0)

    def test_zero_tensor(self):
        assert f_norm_bounds(Tensor.zeros(4, 2), 2.0, "B0") == (0.0, 0.0)

    def test_odd_order_rejected(self):
        with pytest.raises(UnsupportedOrder):
            f_norm_bounds(Tensor.diagonal_tensor(3, 2), INF, "B")

    def test_wrong_classification_rejected(self):
        t = Tensor.diagonal_tensor(4, 2, [-1.0, 1.0])
        with pytest.raises(ClassificationError):
            f_norm_bounds(t, INF, "B")


class TestEstimate:
    def test_unit_diagonal_root_map_norm_is_one(self):
        t = Tensor.diagonal_tensor(4, 2)
        estimate, witness = estimate_norm(t, "F", INF, samples=8, ascent_steps=5, seed=3)
        assert estimate == 1.0
        assert np.max(np.abs(witness)) == 1.0

    def test_bundled_example_lands_in_bracket(self, ex41):
        estimate, _ = estimate_norm(ex41, "T", INF, samples=64, ascent_steps=25, seed=5)
        assert 19.0 <= estimate <= 54.0

    def test_deterministic_given_seed(self, ex41):
        one = estimate_norm(ex41, "T", 2.0, samples=16, ascent_steps=10, seed=11)
        two = estimate_norm(ex41, "T", 2.0, samples=16, ascent_steps=10, seed=11)
        assert one[0] == two[0]
        assert np.array_equal(one[1], two[1])

    def test_single_sample_allowed(self, ex41):
        estimate, _ = estimate_norm(ex41, "T", INF, samples=1, ascent_steps=1, seed=0)
        assert estimate >= 19.0

    def test_sample_validation(self, ex41):
        with pytest.raises(ValueError):
            estimate_norm(ex41, "T", INF, samples=0)


class TestBoundReport:
    def test_bundled_example_report(self, ex41):
        report = bound_report(ex41, "T", INF, samples=32, ascent_steps=10, seed=1)
        assert report.strict and report.variant == "B"
        assert report.b_upper == 54.0 < report.general_upper == 57.0
        assert report.b_lower <= report.empirical_estimate <= report.b_upper + 1e-9

    def test_second_example_p2(self, ex42):
        report = bound_report(ex42, "T", 2.0, samples=32, ascent_steps=10, seed=1)
        assert abs(report.b_upper - 48.0) <= 1e-9
        assert report.general_upper > 512.0
        assert report.b_upper < report.general_upper

    def test_unit_diagonal_f_report(self):
        t = Tensor.diagonal_tensor(4, 2)
        report = bound_report(t, "F", INF, samples=8, ascent_steps=5, seed=2)
        assert report.b_lower == report.b_upper == report.empirical_estimate == 1.0

    def test_rejects_nonmember(self):
        t = Tensor.diagonal_tensor(3, 2, [-1.0, 1.0])
        with pytest.raises(ClassificationError):
            bound_report(t, "T", INF)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("p,name", [(INF, "b_upper"), (2.0, "general_upper")])
    def test_overflowing_bound_is_named(self, ex41, p, name):
        big = ex41.array.copy()
        big[0, 0, 0, 0] = 1e308
        with pytest.raises(ValueError, match=f"{name} is inf"):
            bound_report(Tensor(big), "T", p, samples=4, ascent_steps=2)

    def test_to_dict_is_json_friendly(self, ex41):
        report = bound_report(ex41, "T", INF, samples=8, ascent_steps=5, seed=1)
        payload = report.to_dict()
        assert payload["norm"] == "inf"
        assert isinstance(payload["estimate_witness"], list)


class TestSandwichProperty:
    @pytest.mark.parametrize("order,dim", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_strict_members(self, order, dim, rng):
        for _ in range(5):
            tensor = random_b_tensor(order, dim, rng)
            operators = ["T"] if order % 2 else ["T", "F"]
            for operator in operators:
                for p in (INF, 1.0, 2.0):
                    general = general_upper_bound(tensor, operator, p)
                    bounds = t_norm_bounds if operator == "T" else f_norm_bounds
                    lower, upper = bounds(tensor, p, "B")
                    estimate, _ = estimate_norm(
                        tensor, operator, p, samples=32, ascent_steps=12, seed=17
                    )
                    assert lower < upper
                    assert lower <= estimate <= min(general, upper) + 1e-9

    def test_nonstrict_members(self, rng):
        # The zero-margin row can attain its bracket ends exactly, so the
        # comparison allows for floating round-off of that tie.
        for _ in range(5):
            tensor = random_b0_tensor(4, 3, rng)
            for operator in ("T", "F"):
                for p in (INF, 1.0, 2.0):
                    general = general_upper_bound(tensor, operator, p)
                    bounds = t_norm_bounds if operator == "T" else f_norm_bounds
                    lower, upper = bounds(tensor, p, "B0")
                    estimate, _ = estimate_norm(
                        tensor, operator, p, samples=32, ascent_steps=12, seed=23
                    )
                    assert lower <= upper
                    assert lower <= estimate + 1e-9
                    assert estimate <= min(general, upper) + 1e-9

    def test_bounds_scale_linearly(self, rng):
        tensor = random_b_tensor(4, 2, rng)
        factor = 3.7
        scaled = tensor.scaled(factor)
        for p in (INF, 2.0):
            base_l, base_u = t_norm_bounds(tensor, p, "B")
            scaled_l, scaled_u = t_norm_bounds(scaled, p, "B")
            assert abs(scaled_l - factor * base_l) <= 1e-12 * max(1.0, scaled_l)
            assert abs(scaled_u - factor * base_u) <= 1e-12 * max(1.0, scaled_u)
            gen_base = general_upper_bound(tensor, "T", p)
            gen_scaled = general_upper_bound(scaled, "T", p)
            assert abs(gen_scaled - factor * gen_base) <= 1e-12 * max(1.0, gen_scaled)
