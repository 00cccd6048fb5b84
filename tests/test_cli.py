import json

import numpy as np
import pytest

from l0landscape.cli import main


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

    def test_non_finite_report_is_an_internal_error(self, capsys, saddle_file, monkeypatch):
        import l0landscape.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_dispatch", lambda args: ({"value": float("inf")}, None))
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
        # Rule sigma > sigma_max: no singular value passes, so no pair does.
        ("1", False, False),
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
