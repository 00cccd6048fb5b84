import json
import re

import numpy as np
import pytest

from l0landscape import (
    DimensionMismatchError,
    FeasiblePoint,
    Instance,
    InstanceFormatError,
    MeasurementBoundError,
    NonFiniteDataError,
    SparsityRangeError,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    objective,
    support_of,
    validate_instance,
)


class TestSupportOf:
    def test_all_zero(self):
        assert support_of([0.0, 0.0], 1e-9) == ()

    def test_single_nonzero(self):
        assert support_of([1.0, 0.0], 1e-9) == (0,)

    def test_thresholding(self):
        assert support_of([1e-12, 3.0], 1e-9) == (1,)

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent_under_zeroing(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(6)
        x[rng.integers(0, 6, size=2)] *= 1e-13
        supp = support_of(x, 1e-9)
        zeroed = np.zeros_like(x)
        zeroed[list(supp)] = x[list(supp)]
        assert support_of(zeroed, 1e-9) == supp


class TestObjective:
    def test_saddle_instance_values(self, saddle_instance):
        assert objective(saddle_instance, [1.0, 0.0]) == pytest.approx(0.5)
        assert objective(saddle_instance, [0.0, 0.0]) == pytest.approx(1.0)

    def test_exact_fit_is_zero(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        inst = Instance.from_arrays(A, A @ x, 2)
        assert objective(inst, x) == pytest.approx(0.0, abs=1e-24)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        inst = Instance.from_arrays(rng.standard_normal((3, 4)), rng.standard_normal(3), 2)
        for _ in range(20):
            assert objective(inst, rng.standard_normal(4)) >= 0.0

    def test_dimension_mismatch(self, saddle_instance):
        with pytest.raises(DimensionMismatchError):
            objective(saddle_instance, [1.0, 0.0, 0.0])


class TestValidateInstance:
    def test_small_square_shape_accepted(self):
        validate_instance(Instance.from_arrays(np.eye(2), [1.0, 1.0], 1))

    def test_s_equal_n_rejected(self):
        with pytest.raises(SparsityRangeError):
            validate_instance(Instance.from_arrays(np.eye(2), [1.0, 1.0], 2))

    def test_s_above_m_rejected(self):
        with pytest.raises(MeasurementBoundError):
            validate_instance(Instance.from_arrays(np.ones((1, 3)), [1.0], 2))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteDataError):
            validate_instance(Instance.from_arrays([[np.inf, 0.0], [0.0, 1.0]], [0.0, 0.0], 1))

    @pytest.mark.parametrize("A, b", [
        ([[1e160, 0.0], [0.0, 1.0]], [0.0, 0.0]),   # ||A||_F^2 overflows
        (np.eye(2), [1e160, 0.0]),                  # ||b||^2 overflows
        ([[1e100, 0.0], [0.0, 1.0]], [1e150, 0.0]),  # only the product overflows
    ], ids=["A", "b", "product"])
    def test_overflowing_norms_rejected(self, A, b):
        with pytest.raises(NonFiniteDataError, match="overflows float64"):
            validate_instance(Instance.from_arrays(A, b, 1))

    def test_large_finite_data_accepted(self):
        validate_instance(Instance.from_arrays([[1e100, 0.0], [0.0, 1.0]], [1e50, 0.0], 1))

    def test_b_shape_rejected(self):
        with pytest.raises(DimensionMismatchError):
            validate_instance(Instance.from_arrays(np.eye(2), [1.0, 1.0, 1.0], 1))

    def test_rank_tol_resolved_from_shape(self):
        inst = Instance.from_arrays(np.eye(2), [1.0, 1.0], 1)
        assert inst.tol.rank_tol == pytest.approx(2e-10)


class TestFeasiblePoint:
    def test_caches_support(self):
        fp = FeasiblePoint.from_vector([0.0, 2.0, 1e-12], 1e-9)
        assert fp.support == (1,)
        assert fp.sparsity == 1


class TestInstanceFiles:
    def test_json_round_trip(self, tmp_path, saddle_instance):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_to_dict(saddle_instance)))
        loaded = load_instance(path)
        np.testing.assert_allclose(loaded.A, saddle_instance.A)
        np.testing.assert_allclose(loaded.b, saddle_instance.b)
        assert loaded.s == saddle_instance.s

    def test_csv_format(self, tmp_path):
        path = tmp_path / "inst.csv"
        path.write_text("2,2,1\n1.0,0.0\n0.0,1.0\n1.0,1.0\n")
        inst = load_instance(path)
        np.testing.assert_allclose(inst.A, np.eye(2))
        np.testing.assert_allclose(inst.b, [1.0, 1.0])
        assert inst.s == 1

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 2,\n "n": }')
        with pytest.raises(InstanceFormatError, match="line 2"):
            load_instance(path)

    def test_csv_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,2,1\n1.0,0.0\n0.0,oops\n1.0,1.0\n")
        with pytest.raises(InstanceFormatError, match="line 3"):
            load_instance(path)

    def test_json_integers_are_numbers(self):
        inst = instance_from_dict({"m": 2, "n": 2, "s": 1, "A": [[1, 0], [0, 1]], "b": [1, 2],
                                   "tolerances": {"zero_tol": 0}})
        np.testing.assert_array_equal(inst.A, np.eye(2))
        np.testing.assert_array_equal(inst.b, [1.0, 2.0])
        assert inst.tol.zero_tol == 0.0

    @pytest.mark.parametrize("A", [[[1.0, [0.0]], [0.0, 1.0]], [[1.0, {}], [0.0, 1.0]], "eye"])
    def test_nested_non_number_rejected(self, A):
        data = {"m": 2, "n": 2, "s": 1, "A": A, "b": [0.0, 0.0]}
        with pytest.raises(InstanceFormatError):
            instance_from_dict(data)

    def test_json_shape_mismatch(self):
        data = {"m": 2, "n": 2, "s": 1, "A": [[1.0, 0.0]], "b": [0.0, 0.0]}
        with pytest.raises(DimensionMismatchError):
            instance_from_dict(data)

    def test_unknown_field_rejected(self):
        data = {"m": 2, "n": 2, "s": 1, "A": [[1.0, 0.0], [0.0, 1.0]],
                "b": [0.0, 0.0], "extra": 1}
        with pytest.raises(InstanceFormatError, match="extra"):
            instance_from_dict(data)

    def test_tolerance_overrides_apply(self, tmp_path, saddle_instance):
        path = tmp_path / "inst.json"
        payload = instance_to_dict(saddle_instance)
        payload["tolerances"] = {"zero_tol": 1e-10}
        path.write_text(json.dumps(payload))
        loaded = load_instance(path, {"stat_tol": 1e-6})
        assert loaded.tol.zero_tol == pytest.approx(1e-10)
        assert loaded.tol.stat_tol == pytest.approx(1e-6)

    # Older instance files may still set "dedupe_tol"; it is rejected like
    # any other unknown key.
    @pytest.mark.parametrize("key", ["wat", "dedupe_tol"])
    def test_unknown_tolerance_key_rejected(self, key):
        data = {"m": 2, "n": 2, "s": 1, "A": [[1.0, 0.0], [0.0, 1.0]],
                "b": [0.0, 0.0], "tolerances": {key: 1.0}}
        with pytest.raises(InstanceFormatError, match=f"unknown tolerance key '{key}'"):
            instance_from_dict(data)

    @pytest.mark.parametrize("value", ["abc", None, [1.0]])
    def test_non_numeric_tolerance_rejected(self, value):
        data = {"m": 2, "n": 2, "s": 1, "A": [[1.0, 0.0], [0.0, 1.0]],
                "b": [0.0, 0.0], "tolerances": {"zero_tol": value}}
        message = f"tolerance 'zero_tol' must be a number, got {value!r}"
        with pytest.raises(InstanceFormatError, match=re.escape(message)):
            instance_from_dict(data)
