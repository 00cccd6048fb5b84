import json
import re
from dataclasses import replace

import numpy as np
import pytest

from l0landscape import (
    DimensionMismatchError,
    Instance,
    InstanceFormatError,
    MeasurementBoundError,
    NonFiniteDataError,
    SparsityRangeError,
    ToleranceConfig,
    ToleranceError,
    ValidationError,
    enumerate_stationary,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    objective,
    probe_strong_stability,
    run_genericity_experiment,
    support_of,
    sweep_levels,
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

    @pytest.mark.parametrize("A, b, name", [
        ([[1e-160, 0.0], [0.0, 0.0]], [1.0, 0.0], "||A||_F^2"),
        (np.eye(2), [1e-160, 1e-160], "||b||^2"),
        ([[1.0, 5e-324], [0.0, 0.0]], [1.0, 0.0], "the squared norm of column 2 of A"),
    ], ids=["A", "b", "column"])
    def test_underflowing_norms_rejected(self, A, b, name):
        with pytest.raises(NonFiniteDataError, match=re.escape(f"{name} underflows float64")):
            validate_instance(Instance.from_arrays(A, b, 1))

    @pytest.mark.parametrize("A, b", [
        (np.zeros((2, 2)), np.zeros(2)),
        ([[1e-150, 0.0], [0.0, 0.0]], [1e-150, 0.0]),  # the squares are still normal
    ], ids=["zero", "small"])
    def test_zero_and_small_data_accepted(self, A, b):
        validate_instance(Instance.from_arrays(A, b, 1))

    def test_b_shape_rejected(self):
        with pytest.raises(DimensionMismatchError):
            validate_instance(Instance.from_arrays(np.eye(2), [1.0, 1.0, 1.0], 1))

    def test_rank_tol_resolved_from_shape(self):
        inst = Instance.from_arrays(np.eye(2), [1.0, 1.0], 1)
        assert inst.tol.rank_tol == pytest.approx(2e-10)


_TOL = ToleranceConfig(rank_tol=1e-10)
_SADDLE = Instance.from_arrays(np.eye(2), np.ones(2), 1)


def _probe(**kwargs):
    point = enumerate_stationary(_SADDLE).points[0]
    return probe_strong_stability(_SADDLE, point, epsilon=0.1, delta=1e-4, **kwargs)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Instance.from_arrays(np.ones(3), np.ones(3), 1), DimensionMismatchError,
     "A must be 2-dimensional, got ndim=1"),
    (lambda: validate_instance(Instance(np.ones(3), np.ones(3), 1, _TOL)), DimensionMismatchError,
     "A must be 2-dimensional, got ndim=1"),
    (lambda: validate_instance(Instance(np.zeros((0, 2)), np.zeros(0), 0, _TOL)),
     DimensionMismatchError, "A must be nonempty, got shape (0, 2)"),
    (lambda: validate_instance(Instance(np.eye(2), np.ones(2), 1, ToleranceConfig())),
     ToleranceError, "rank_tol is unresolved"),
    (lambda: validate_instance(Instance.from_arrays(np.eye(2), np.ones(2), 1,
                                                    ToleranceConfig(rank_tol=1.0))),
     ToleranceError, "rank_tol must be below 1, got 1.0"),
    (lambda: run_genericity_experiment(4, 6, 2, 2, 0, tol=ToleranceConfig(rank_tol=2.5)),
     ToleranceError, "rank_tol must be below 1, got 2.5"),
    (lambda: instance_from_dict([]), InstanceFormatError, "instance JSON must be an object"),
    (lambda: Instance.from_arrays(np.eye(3), np.ones(3), 1.9), SparsityRangeError,
     "s must be an integer, got 1.9"),
    (lambda: run_genericity_experiment(4, 6, 2.7, 2, 0), SparsityRangeError,
     "s must be an integer, got 2.7"),
    (lambda: validate_instance(replace(Instance.from_arrays(np.eye(3), np.ones(3), 2),
                                       s=np.int64(2))),
     SparsityRangeError, "s must lie in {0, ..., n-1} = {0, ..., 2}, got np.int64(2)"),
    (lambda: run_genericity_experiment(4.0, 6, 2, 2, 0), ValidationError,
     "m must be an integer, got 4.0"),
    (lambda: run_genericity_experiment(4, 6.0, 2, 2, 0), ValidationError,
     "n must be an integer, got 6.0"),
    (lambda: run_genericity_experiment(4, 6, 2, 2.5, 0), ValidationError,
     "trials must be an integer, got 2.5"),
    (lambda: run_genericity_experiment(4, 6, 2, 2, 0.5), ValidationError,
     "seed must be an integer, got 0.5"),
    (lambda: _probe(trials=2.5, seed=0), ValidationError, "trials must be an integer, got 2.5"),
    (lambda: _probe(trials=2, seed=0.7), ValidationError, "seed must be an integer, got 0.7"),
], ids=["from_arrays-1d", "validate-1d", "validate-empty", "validate-unresolved",
        "validate-rank-tol-1", "genericity-rank-tol-2.5",
        "from_dict-list", "from_arrays-float-s", "genericity-float-s", "validate-numpy-integer-s",
        "genericity-float-m", "genericity-float-n", "genericity-float-trials",
        "genericity-float-seed", "probe-float-trials", "probe-float-seed"])
def test_input_check_raises(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_numpy_integer_arguments_give_plain_ints():
    generic = run_genericity_experiment(np.int64(3), np.int64(5), 2, np.int64(2), np.int64(0))
    probe = _probe(trials=np.int64(2), seed=np.int64(0))
    assert [type(v) for v in (generic.trials, generic.seed, probe.trials)] == [int] * 3
    json.dumps([generic.to_dict(), probe.to_dict()])


class TestOneForm:
    """``from_arrays`` stores C-ordered float64 data and an ``int`` s, whatever it is given."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("variant", ["generic", "zero-column", "duplicate-column"])
    def test_analysis_does_not_depend_on_memory_layout(self, variant, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((6, 10))
        b = rng.standard_normal(6)
        if variant == "zero-column":
            A[:, 0] = 0.0
        elif variant == "duplicate-column":
            A[:, -1] = A[:, 0]
        reports = []
        for data in (A, np.asfortranarray(A), np.repeat(A, 2, axis=1)[:, ::2]):
            inst = Instance.from_arrays(data, b, 3)
            assert inst.A.flags.c_contiguous
            report = enumerate_stationary(inst)
            reports.append(json.dumps([report.to_dict(), sweep_levels(inst, report).to_dict()]))
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    def test_numpy_integer_s_becomes_int(self):
        inst = Instance.from_arrays(np.eye(3), [1.0, 0.5, 0.25], np.int64(2))
        assert type(inst.s) is int
        assert sweep_levels(inst, enumerate_stationary(inst)).to_dict()


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

    @pytest.mark.parametrize("name, raw", [("bad.json", b'\xff\xfe{"m":1}'),
                                           ("bad.csv", b"2,2,1\n1,0\n0,\xff1\n1,1\n")])
    def test_non_utf8_file_rejected(self, tmp_path, name, raw):
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(InstanceFormatError, match="not UTF-8 text"):
            load_instance(path)

    def test_csv_negative_dimension_rejected(self, tmp_path):
        # m = -1 asks for no data rows, so the header alone used to pass the row count.
        path = tmp_path / "neg.csv"
        path.write_text("-1,2,1\n")
        with pytest.raises(InstanceFormatError, match="line 1: m and n must be nonnegative"):
            load_instance(path)

    @pytest.mark.parametrize("depth", [995, 5000])
    def test_deeply_nested_json_file_rejected(self, tmp_path, depth):
        path = tmp_path / "deep.json"
        path.write_text('{"m": 1, "n": 1, "s": 0, "b": [1], "A": ' + "[" * depth + "]" * depth + "}")
        with pytest.raises(InstanceFormatError):
            load_instance(path)

    def test_deeply_nested_list_rejected_without_recursion(self):
        A = inner = []
        for _ in range(20000):
            inner.append([])
            inner = inner[0]
        with pytest.raises(InstanceFormatError):
            instance_from_dict({"m": 1, "n": 1, "s": 0, "A": A, "b": [1.0]})

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
