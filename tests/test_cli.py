import json
import warnings

import numpy as np
import pytest

from l0landscape.cli import build_parser, main


@pytest.fixture
def saddle_file(tmp_path):
    path = tmp_path / "saddle.json"
    path.write_text(json.dumps({
        "m": 2, "n": 2, "s": 1,
        "A": [[1.0, 0.0], [0.0, 1.0]],
        "b": [1.0, 1.0],
    }))
    return str(path)


@pytest.fixture
def instability_file(tmp_path):
    path = tmp_path / "instability.json"
    path.write_text(json.dumps({
        "m": 2, "n": 2, "s": 1,
        "A": [[1.0, 0.0], [0.0, 1.0]],
        "b": [0.0, 0.0],
    }))
    return str(path)


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestAnalyze:
    def test_saddle_landscape(self, capsys, saddle_file):
        rc, out, _ = run_cli(capsys, ["analyze", "--instance", saddle_file])
        assert rc == 0
        payload = json.loads(out)
        assert payload["r"] == 2
        assert payload["r1"] == 1
        assert payload["morse_holds"]
        assert payload["morse_lhs"] == payload["morse_rhs"] == 1

    def test_degenerate_landscape_flags_morse_not_applicable(self, capsys, instability_file):
        rc, out, _ = run_cli(capsys, ["analyze", "--instance", instability_file])
        assert rc == 0
        payload = json.loads(out)
        assert payload["degenerate"] == 1
        assert len(payload["points"]) == 1
        assert payload["hypothesis_violated"]
        assert not payload["morse_applicable"]

    def test_s_zero_instance(self, capsys, tmp_path):
        path = tmp_path / "szero.json"
        path.write_text(json.dumps({
            "m": 2, "n": 2, "s": 0,
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "b": [0.0, 0.0],
        }))
        rc, out, _ = run_cli(capsys, ["analyze", "--instance", str(path)])
        assert rc == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 1
        assert payload["points"][0]["x"] == [0.0, 0.0]
        assert payload["points"][0]["kind"] == "LocalMinimizer"

    def test_parser_is_built_once_and_keeps_no_state(self, capsys, saddle_file):
        assert build_parser() is build_parser()
        _, table, _ = run_cli(capsys, ["analyze", "--instance", saddle_file, "--csv"])
        _, report, _ = run_cli(capsys, ["analyze", "--instance", saddle_file])
        assert table.startswith("index,") and json.loads(report)["r"] == 2

    def test_byte_identical_reruns(self, capsys, saddle_file):
        _, first, _ = run_cli(capsys, ["analyze", "--instance", saddle_file])
        _, second, _ = run_cli(capsys, ["analyze", "--instance", saddle_file])
        assert first == second

    def test_csv_table(self, capsys, saddle_file):
        rc, out, _ = run_cli(capsys, ["analyze", "--instance", saddle_file, "--csv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,value,kind,support,nd1,nd2,x1,x2"
        assert len(lines) == 4

    def test_out_file(self, capsys, tmp_path, saddle_file):
        target = tmp_path / "report.json"
        rc, out, _ = run_cli(capsys, ["analyze", "--instance", saddle_file,
                                      "--out", str(target)])
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["r"] == 2

    def test_timestamp_flag_adds_field(self, capsys, saddle_file):
        _, out, _ = run_cli(capsys, ["analyze", "--instance", saddle_file, "--timestamp"])
        assert "timestamp" in json.loads(out)

    def test_tolerance_override_flag(self, capsys, saddle_file):
        rc, out, _ = run_cli(capsys, ["analyze", "--instance", saddle_file,
                                      "--stat-tol", "1e-6"])
        assert rc == 0

    def test_tolerance_overrides_apply(self, capsys, tmp_path):
        # The origin's off-support gradient is -b, inside (1e-9, 1e-8]: ND1
        # fails at the default stat_tol and holds at 1e-9.  The file's
        # zero_tol of 1e-8 hides the axis points, so the flag must replace
        # stat_tol alone and keep the file's zero_tol.
        data = {"m": 2, "n": 2, "s": 1, "A": [[1.0, 0.0], [0.0, 1.0]], "b": [5e-9, 3e-9]}
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(data))
        with_tol = tmp_path / "with_tol.json"
        with_tol.write_text(json.dumps({**data, "tolerances": {"zero_tol": 1e-8}}))

        def kinds(path, *flags):
            rc, out, err = run_cli(capsys, ["analyze", "--instance", str(path), *flags])
            assert rc == 0, err
            return [(p["support"], p["kind"]) for p in json.loads(out)["points"]]

        assert kinds(with_tol) == [([], "DegeneratePoint")]
        assert kinds(with_tol, "--stat-tol", "1e-9") == [([], "SaddlePoint")]
        assert len(kinds(plain, "--stat-tol", "1e-9")) == 3


class TestErrorPaths:
    def test_missing_file_exits_2(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, ["analyze", "--instance", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error" in err

    def test_malformed_json_is_line_precise(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 2,\n "n": oops}')
        rc, out, err = run_cli(capsys, ["analyze", "--instance", str(path)])
        assert rc == 2
        assert out == ""  # no partial output
        assert "line 2" in err

    def test_invalid_sparsity_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad_s.json"
        path.write_text(json.dumps({
            "m": 2, "n": 2, "s": 2,
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "b": [0.0, 0.0],
        }))
        rc, _, err = run_cli(capsys, ["analyze", "--instance", str(path)])
        assert rc == 2

    def test_non_numeric_tolerance_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad_tol.json"
        path.write_text(json.dumps({
            "m": 2, "n": 2, "s": 1,
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "b": [0.0, 0.0],
            "tolerances": {"zero_tol": "abc"},
        }))
        rc, out, err = run_cli(capsys, ["analyze", "--instance", str(path)])
        assert rc == 2
        assert out == ""
        assert "tolerance 'zero_tol' must be a number, got 'abc'" in err

    @pytest.mark.parametrize("key, value", [("s", 1.9), ("s", True), ("s", "1"), ("m", 2.7)])
    def test_non_integer_dimension_exits_2(self, capsys, tmp_path, key, value):
        data = {"m": 2, "n": 2, "s": 1, "A": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0]}
        data[key] = value
        path = tmp_path / "bad_dim.json"
        path.write_text(json.dumps(data))
        rc, out, err = run_cli(capsys, ["regularity", "--instance", str(path)])
        assert rc == 2
        assert out == ""
        assert f"'{key}' must be an integer, got {value!r}" in err

    @pytest.mark.parametrize("key, entry", [
        ("A", "1"), ("A", True), ("A", None), ("b", "1.0"), ("b", False), ("b", None)])
    @pytest.mark.parametrize("command", ["regularity", "analyze"])
    def test_non_number_entry_exits_2(self, capsys, tmp_path, command, key, entry):
        data = {"m": 2, "n": 2, "s": 1, "A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 1.0]}
        data[key] = [[entry, 0.0], [0.0, 1.0]] if key == "A" else [entry, 1.0]
        path = tmp_path / "bad_entry.json"
        path.write_text(json.dumps(data))
        rc, out, err = run_cli(capsys, [command, "--instance", str(path)])
        assert rc == 2
        assert out == ""
        assert f"'{key}' entries must be numbers, got {entry!r}" in err

    @pytest.mark.parametrize("key, value", [("zero_tol", True), ("stat_tol", "1e-8")])
    def test_non_number_tolerance_exits_2(self, capsys, tmp_path, key, value):
        path = tmp_path / "bad_tol.json"
        path.write_text(json.dumps({"m": 2, "n": 2, "s": 1, "A": [[1, 0], [0, 1]],
                                    "b": [1, 1], "tolerances": {key: value}}))
        rc, out, err = run_cli(capsys, ["analyze", "--instance", str(path)])
        assert rc == 2
        assert out == ""
        assert f"tolerance '{key}' must be a number, got {value!r}" in err

    def test_strings_and_booleans_are_not_the_identity(self, capsys, tmp_path):
        path = tmp_path / "coerced.json"
        path.write_text(json.dumps({
            "m": 2, "n": 2, "s": 1, "A": [["1", False], [False, True]], "b": ["1", "1.0"],
            "tolerances": {"zero_tol": True, "stat_tol": "1e-8"}}))
        for command in ("regularity", "analyze"):
            rc, out, err = run_cli(capsys, [command, "--instance", str(path)])
            assert (rc, out) == (2, "")
            assert err == "error: 'A' entries must be numbers, got '1'\n"

    @pytest.mark.parametrize("text", [
        '{"m": 2, "n": 2, "s": 1, "A": [[1%s, 0], [0, 1]], "b": [1, 1]}' % ("0" * 400),
        '{"m": 2, "n": 2, "s": 1, "A": [[1, 0], [0, 1]], "b": [1, 1],'
        ' "tolerances": {"stat_tol": 1%s}}' % ("0" * 400),
    ], ids=["A", "tolerance"])
    def test_integer_beyond_float_range_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "huge_int.json"
        path.write_text(text)
        rc, out, err = run_cli(capsys, ["analyze", "--instance", str(path)])
        assert (rc, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["analyze", "regularity", "sweep", "iht"])
    def test_data_near_float_limit_exits_2(self, capsys, tmp_path, command):
        # Every stationary value here would be Infinity in the report.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"m": 2, "n": 3, "s": 1, "A": [[1e308, 0, 2], [0, 1e308, 1]],
                                    "b": [1e308, 1e308]}))
        rc, out, err = run_cli(capsys, [command, "--instance", str(path)])
        assert (rc, out) == (2, "")
        assert err == "error: ||A||_F^2 * ||b||^2 overflows float64; rescale the data\n"

    @pytest.mark.parametrize("command", ["analyze", "regularity", "sweep", "iht"])
    def test_data_that_underflows_exits_2(self, capsys, tmp_path, command):
        # Every product of these entries rounds to zero, so the analysis
        # would report the landscape of zero data.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"m": 2, "n": 3, "s": 1,
                                    "A": [[1e-300, 0, 2e-300], [0, 1e-300, 1e-300]],
                                    "b": [1e-300, 1e-300]}))
        rc, out, err = run_cli(capsys, [command, "--instance", str(path)])
        assert (rc, out) == (2, "")
        assert err == "error: ||A||_F^2 underflows float64; rescale the data\n"

    @pytest.mark.parametrize("command", ["analyze", "sweep", "probe"])
    @pytest.mark.parametrize("entry", [5e-324, 1e-300])
    def test_column_that_underflows_exits_2(self, capsys, tmp_path, command, entry):
        # Found by tests/input_sweep.py: a column with one tiny entry gave a
        # coefficient near 1/entry, an infinite value (exit 1) or an overflow
        # inside probe.
        path = tmp_path / "tiny-column.json"
        path.write_text(json.dumps({"m": 2, "n": 3, "s": 1, "b": [1.0, 2.0],
                                    "A": [[1.0, entry, 0.5], [0.0, 0.0, 1.0]]}))
        argv = [command, "--instance", str(path)] + (["--seed", "0", "--trials", "2"]
                                                     if command == "probe" else [])
        rc, out, err = run_cli(capsys, argv)
        assert (rc, out) == (2, "")
        assert err == ("error: the squared norm of column 2 of A underflows float64; "
                       "rescale the data\n")

    @pytest.mark.parametrize("target", ["missing/dir/report.json", "."], ids=["missing", "dir"])
    def test_unwritable_out_path_exits_2(self, capsys, tmp_path, saddle_file, target):
        rc, out, err = run_cli(capsys, ["analyze", "--instance", saddle_file,
                                        "--out", str(tmp_path / target)])
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot write report: ")

    def test_probe_delta_beyond_float_range_names_delta(self, capsys, saddle_file):
        rc, out, err = run_cli(capsys, ["probe", "--instance", saddle_file,
                                        "--seed", "1", "--trials", "2", "--delta", "1e200"])
        assert (rc, out) == (2, "")
        assert err.startswith("error: delta=1e+200 ")

    @pytest.mark.parametrize("payload", [{"value": float("inf")},
                                         {"points": [{"x": [0.5, float("nan")]}]}],
                             ids=["inf", "nan-in-list"])
    def test_non_finite_report_is_an_internal_error(self, capsys, saddle_file, monkeypatch,
                                                    payload):
        import l0landscape.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_dispatch", lambda args: (payload, None))
        rc, out, err = run_cli(capsys, ["analyze", "--instance", saddle_file])
        assert (rc, out) == (1, "")
        assert err.startswith("internal error: ")

    def test_generic_requires_seed(self, saddle_file):
        with pytest.raises(SystemExit) as exc:
            main(["generic", "--m", "2", "--n", "2", "--s", "1", "--trials", "5"])
        assert exc.value.code == 2

    def test_probe_requires_seed(self, saddle_file):
        with pytest.raises(SystemExit) as exc:
            main(["probe", "--instance", saddle_file])
        assert exc.value.code == 2

    @pytest.mark.parametrize("point", range(4))
    def test_probe_near_the_coefficient_overflow_limit(self, capsys, tmp_path, point):
        # A column of norm 1.5e-154 gives a coefficient of 2e154, whose square
        # overflows: the default epsilon and the trials' distances overflowed
        # in multiply and dot (exit 1 with warnings as errors).
        path = tmp_path / "big-coefficient.json"
        path.write_text(json.dumps({"m": 2, "n": 3, "s": 1, "b": [3.0, 1.0],
                                    "A": [[1.5e-154, 1.0, 0.5], [0.0, 0.3, 1.0]]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run_cli(capsys, ["probe", "--instance", str(path), "--seed", "0",
                                            "--trials", "2", "--point", str(point)])
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert rc in (0, 2), err
        if rc == 0:
            assert json.loads(out)["point_index"] == point

    def test_probe_point_index_out_of_range(self, capsys, saddle_file):
        rc, _, err = run_cli(capsys, ["probe", "--instance", saddle_file,
                                      "--seed", "1", "--point", "9"])
        assert rc == 2
        assert "out of range" in err

    @pytest.mark.parametrize("flag, value", [
        ("--delta", "nan"), ("--delta", "inf"), ("--epsilon", "inf"), ("--epsilon", "nan")])
    def test_probe_rejects_non_finite_radius(self, capsys, saddle_file, flag, value):
        rc, out, err = run_cli(capsys, ["probe", "--instance", saddle_file,
                                        "--seed", "1", "--trials", "2", flag, value])
        assert rc == 2
        assert out == ""
        name = flag.lstrip("-")
        rule = "nonnegative" if name == "delta" else "positive"
        assert err == f"error: {name} must be finite and {rule}, got {value}\n"

    def test_internal_error_exits_1(self, capsys, saddle_file, monkeypatch):
        import l0landscape.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(cli_mod, "enumerate_stationary", boom)
        rc, out, err = run_cli(capsys, ["analyze", "--instance", saddle_file])
        assert rc == 1
        assert out == ""
        assert "internal error" in err


_GENERIC = ["generic", "--m", "3", "--n", "5", "--s", "2"]
_EYE = '"m": 2, "n": 2, "s": 1, "A": [[1.0, 0.0], [0.0, 1.0]]'


@pytest.mark.parametrize("argv, file_text, message", [
    (_GENERIC + ["--seed", "0", "--trials", "-1"], None, "trials must be nonnegative, got -1"),
    (_GENERIC + ["--seed", "-1"], None, "seed must be nonnegative, got -1"),
    (["probe", "--seed", "-1"], "{%s, \"b\": [1.0, 1.0]}" % _EYE,
     "seed must be nonnegative, got -1"),
    (["analyze"], "{%s}" % _EYE, "missing required field(s): b"),
    (["analyze"], "{%s, \"b\": [1.0, 1.0], \"tolerances\": [1]}" % _EYE,
     "'tolerances' must be an object"),
    (["analyze"], "{%s, \"b\": [1.0, 1.0, 1.0]}" % _EYE, "b has shape (3,), expected (2,)"),
    (["analyze"], "{%s, \"b\": [NaN, 1.0]}" % _EYE, "b contains non-finite entries"),
    (["analyze"], "", "line 1: empty instance file"),
    (["analyze"], "2,2\n1,0\n0,1\n1,1\n", "line 1: header must be 'm,n,s'"),
    (["analyze"], "2,x,1\n1,0\n0,1\n1,1\n", "line 1: header must be integers"),
    (["analyze"], "2,2,1\n1,0\n1,1\n",
     "line 1: expected 2 rows of A plus one row b, found 2 data rows"),
    (["analyze"], "2,2,1\n1,0\n0,1,3\n1,1\n", "line 3: expected 2 values, found 3"),
], ids=["generic-trials", "generic-seed", "probe-seed", "json-missing-b", "json-tolerances-list",
        "json-b-length", "json-b-nan", "csv-empty", "csv-header-cells", "csv-header-integer",
        "csv-row-count", "csv-row-width"])
def test_input_check_exits_2(capsys, tmp_path, argv, file_text, message):
    if file_text is not None:
        path = tmp_path / ("inst.json" if file_text.startswith("{") else "inst.csv")
        path.write_text(file_text)
        argv = argv + ["--instance", str(path)]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


class TestOtherCommands:
    def test_regularity(self, capsys, saddle_file):
        rc, out, _ = run_cli(capsys, ["regularity", "--instance", saddle_file])
        assert rc == 0
        assert json.loads(out) == {"s_regular": True, "witness": None}

    def test_regularity_witness(self, capsys, tmp_path):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({
            "m": 2, "n": 2, "s": 1,
            "A": [[1.0, 0.0], [0.0, 0.0]],
            "b": [1.0, 0.0],
        }))
        rc, out, _ = run_cli(capsys, ["regularity", "--instance", str(path)])
        assert rc == 0
        assert json.loads(out) == {"s_regular": False, "witness": [2]}

    @pytest.mark.parametrize("command, expected", [
        ("regularity", {"s_regular": True, "witness": None}),
        ("analyze", {"s_regular": True, "s_regularity_witness": None}),
    ])
    def test_near_duplicate_columns(self, capsys, tmp_path, command, expected):
        # A duplicated column, perturbed by 1e-6, leaves every size-3 subset
        # full rank but makes some support solves nearly rank deficient, with
        # stationarity residuals above stat_tol.  The solves are stationary by
        # construction, so the enumeration reports them instead of failing.
        import numpy as np

        from l0landscape import Instance, instance_to_dict, perturb_instance
        from l0landscape.util import spawn_seed

        rng = np.random.default_rng(np.random.SeedSequence((0, 5, 8, 3, 0)))
        A = rng.standard_normal((5, 8))
        b = rng.standard_normal(5)
        A[:, 7] = A[:, 0]
        inst = perturb_instance(Instance.from_arrays(A, b, 3), 1e-6, spawn_seed(3, 2))
        path = tmp_path / "near_duplicate.json"
        path.write_text(json.dumps(instance_to_dict(inst)))
        rc, out, err = run_cli(capsys, [command, "--instance", str(path)])
        assert rc == 0, err
        assert expected.items() <= json.loads(out).items()

    @pytest.mark.parametrize("rank_tol, duplicate, expected", [
        # Strict rule sigma > 0: the duplicated pair keeps a singular value of
        # order 1e-16, so every pair counts as full rank.
        ("0", True, True),
        # Rule sigma > (1 - 1e-6) sigma_max: no Gaussian pair is that close to
        # orthogonal with equal norms, so no pair passes.
        ("0.999999", False, False),
    ])
    def test_analyze_and_regularity_agree_at_extreme_rank_tol(
            self, capsys, tmp_path, rank_tol, duplicate, expected):
        import numpy as np

        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        if duplicate:
            A[:, 3] = A[:, 1]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"m": 3, "n": 4, "s": 2, "A": A.tolist(), "b": b.tolist()}))
        verdicts = []
        for command in ("analyze", "regularity"):
            rc, out, err = run_cli(
                capsys, [command, "--instance", str(path), "--rank-tol", rank_tol])
            assert rc == 0, err
            verdicts.append(json.loads(out)["s_regular"])
        assert verdicts == [expected, expected]

    # At rank_tol >= 1 no singular value exceeds rank_tol * sigma_max, so every
    # nonempty support would be rank-deficient: the smoke instance's point
    # x = (1, 0, 0), on one nonzero column, was reported with "nd2": false.
    # The largest value once overflowed the threshold (found by
    # tests/input_sweep.py); it is now rejected before any rank is counted.
    @pytest.mark.parametrize("rank_tol", ["1", "1.5", "1.7976931348623157e308"])
    @pytest.mark.parametrize("command", ["analyze", "regularity", "sweep", "generic"])
    def test_rank_tol_of_one_or_more_is_rejected(self, capsys, tmp_path, command, rank_tol):
        path = tmp_path / "smoke.csv"
        path.write_text("2,3,1\n1,0,0.5\n0,1,0.5\n1,0.25\n")
        source = (["--m", "2", "--n", "3", "--s", "1", "--seed", "0"] if command == "generic"
                  else ["--instance", str(path)])
        rc, out, err = run_cli(capsys, [command, *source, "--rank-tol", rank_tol])
        assert (rc, out) == (2, "")
        assert err == f"error: rank_tol must be below 1, got {float(rank_tol)}\n"

    def test_sweep_json(self, capsys, saddle_file):
        rc, out, _ = run_cli(capsys, ["sweep", "--instance", saddle_file])
        assert rc == 0
        payload = json.loads(out)
        assert [entry["q"] for entry in payload["intervals"]] == [0, 2, 1]
        assert payload["applicable"]
        assert [t["delta"] for t in payload["transitions"]] == [2, -1]
        assert all(t["admissible"] for t in payload["transitions"])

    def test_sweep_s_zero_instance(self, capsys, tmp_path):
        # s = 0: the only support is the empty one, with no swap links.
        path = tmp_path / "szero.json"
        path.write_text(json.dumps({
            "m": 2, "n": 2, "s": 0,
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "b": [0.0, 0.0],
        }))
        rc, out, _ = run_cli(capsys, ["sweep", "--instance", str(path)])
        assert rc == 0
        assert [iv["q"] for iv in json.loads(out)["intervals"]] == [0, 1]

    def test_sweep_csv(self, capsys, saddle_file):
        rc, out, _ = run_cli(capsys, ["sweep", "--instance", saddle_file, "--csv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lo,hi,q"
        assert len(lines) == 4

    def test_generic(self, capsys):
        rc, out, _ = run_cli(capsys, ["generic", "--m", "2", "--n", "2", "--s", "1",
                                      "--trials", "20", "--seed", "42"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["trials"] == 20
        assert payload["seed"] == 42
        assert payload["all_nondegenerate_fraction"] == 1.0
        assert payload["s_regular_fraction"] == 1.0

    def test_generic_honours_tolerance_flags(self, capsys):
        # ND1 needs off-support gradient entries above stat_tol in magnitude;
        # Gaussian data of this size gives entries of order 1, so ND1 fails
        # somewhere in every trial at a stat_tol of 10.
        argv = ["generic", "--m", "4", "--n", "6", "--s", "2", "--trials", "20", "--seed", "1"]
        rc, out, err = run_cli(capsys, argv + ["--stat-tol", "10"])
        assert rc == 0, err
        assert json.loads(out)["all_nondegenerate_fraction"] == 0.0

    def test_generic_rejects_negative_tolerance(self, capsys):
        rc, _, err = run_cli(capsys, ["generic", "--m", "4", "--n", "6", "--s", "2",
                                      "--trials", "2", "--seed", "1", "--stat-tol", "-1"])
        assert rc == 2
        assert "stat_tol" in err

    def test_probe_degenerate_point(self, capsys, instability_file):
        rc, out, _ = run_cli(capsys, ["probe", "--instance", instability_file,
                                      "--seed", "3", "--trials", "10"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["verdict"] == "UnstableEvidence"
        assert payload["agreement"] is True
        assert payload["point"]["kind"] == "DegeneratePoint"

    def test_probe_expects_the_reported_kind_on_a_continuum_point(self, capsys, tmp_path):
        # The origin passes ND1 and ND2 on its own, but the duplicated pair's
        # continuum passes through it, so it is reported degenerate; the
        # probe's expectation must follow that kind, not the certificate.
        path = tmp_path / "continuum.json"
        path.write_text(json.dumps({"m": 3, "n": 3, "s": 2,
                                    "A": [[10.0, 10.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
                                    "b": [1.5e-8, 1.0, 0.0]}))
        rc, out, err = run_cli(capsys, ["analyze", "--instance", str(path)])
        assert rc == 0, err
        origin = json.loads(out)["points"][5]
        assert (origin["support"], origin["kind"]) == ([], "DegeneratePoint")
        assert origin["nd1"] and origin["nd2"]
        argv = ["probe", "--instance", str(path), "--point", "5", "--seed", "0", "--trials", "20"]
        rc, out, err = run_cli(capsys, argv + ["--epsilon", "1e-9"])
        assert rc == 0, err
        payload = json.loads(out)
        assert payload["point"]["kind"] == "DegeneratePoint"
        assert payload["nondegenerate_expected"] is False
        assert payload["verdict"] == "UnstableEvidence"
        assert payload["agreement"] is True

    def test_probe_paper_mode(self, capsys, instability_file):
        rc, out, _ = run_cli(capsys, ["probe", "--instance", instability_file,
                                      "--seed", "3", "--trials", "5", "--paper-mode"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["verdict"] == "UnstableEvidence"

    def test_probe_duplicate_column_small_delta(self, capsys, tmp_path):
        # A perturbation of 1e-6 splits the duplicated columns' continuum into
        # nearly rank-deficient supports far from the probed point; the probe
        # must not depend on classifying them.
        m, n, s = 5, 8, 3
        rng = np.random.default_rng(np.random.SeedSequence((0, m, n, s, 0)))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        A[:, -1] = A[:, 0]
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps({"m": m, "n": n, "s": s, "A": A.tolist(), "b": b.tolist()}))
        rc, out, err = run_cli(capsys, ["probe", "--instance", str(path), "--seed", "3",
                                        "--trials", "5", "--delta", "1e-6"])
        assert rc == 0, err
        assert json.loads(out)["agreement"] is True

    def test_probe_default_delta_scales_with_epsilon(self, capsys, tmp_path):
        # The closest pair of points of this instance is about 4e-4 apart, so
        # the data-driven epsilon is about 1e-4; a fixed delta of 1e-3 moves
        # the nondegenerate minimizer farther than that in most trials.
        m, n, s = 5, 8, 3
        rng = np.random.default_rng(0)
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        path = tmp_path / "close_points.json"
        path.write_text(json.dumps({"m": m, "n": n, "s": s, "A": A.tolist(), "b": b.tolist()}))
        rc, out, err = run_cli(capsys, ["probe", "--instance", str(path), "--seed", "7"])
        assert rc == 0, err
        payload = json.loads(out)
        assert payload["nondegenerate_expected"] is True
        assert payload["agreement"] is True

    def test_iht(self, capsys, saddle_file):
        rc, out, _ = run_cli(capsys, ["iht", "--instance", saddle_file])
        assert rc == 0
        payload = json.loads(out)
        assert payload["converged"]
        assert payload["is_m_stationary"]
        assert payload["support"] in ([1], [2])
