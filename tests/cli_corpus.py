"""Run a fixed corpus of command lines through the CLI and record each outcome.

Usage::

    PYTHONPATH=src python tests/cli_corpus.py OUTDIR

Every command goes through ``l0landscape.cli.main`` in this process.  Its
standard output, standard error and exit code go to one file per command in
OUTDIR (which must be empty or absent), together with the report a ``--out``
command wrote.  ``diff -r`` of two such directories, made from two versions
of the program, then shows every report that changed.

The instances are seeded Gaussian data and its zero-column and
duplicate-column variants at three shapes and three seeds, plus a few small
hand-written files for the tolerance flags, a continuum, a coefficient at
``zero_tol`` and the error paths, malformed files among them.  They are
written to a scratch directory that is the working directory while the
commands run, and named by relative path, so no recorded byte depends on
where the corpus ran.

Exits 1 when any command ends in an internal error (exit 1), else 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from l0landscape.cli import main

SHAPES = [(4, 7, 2), (5, 8, 3), (6, 10, 3)]
VARIANTS = ["generic", "zero-column", "duplicate-column"]
SEEDS = range(3)


def _instance(shape, variant, seed) -> dict:
    m, n, s = shape
    rng = np.random.default_rng((seed, m, n, s))
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    if variant == "zero-column":
        A[:, 0] = 0.0
    elif variant == "duplicate-column":
        A[:, -1] = A[:, 0]
    return {"m": m, "n": n, "s": s, "A": A.tolist(), "b": b.tolist()}


def _write(path: str, payload) -> str:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    if isinstance(payload, bytes):
        Path(path).write_bytes(payload)
    else:
        Path(path).write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return path


def _commands() -> list[list[str]]:
    """The corpus; instance files are written as a side effect."""
    commands = []
    for shape in SHAPES:
        for variant in VARIANTS:
            for seed in SEEDS:
                name = f"inst/{variant}-{'x'.join(map(str, shape))}-s{seed}.json"
                path = _write(name, _instance(shape, variant, seed))
                commands += [
                    ["analyze", "--instance", path],
                    ["analyze", "--instance", path, "--csv"],
                    ["sweep", "--instance", path],
                    ["sweep", "--instance", path, "--csv"],
                    ["regularity", "--instance", path],
                    ["iht", "--instance", path],
                    ["probe", "--instance", path, "--seed", "0", "--trials", "5"],
                    ["probe", "--instance", path, "--seed", "1", "--trials", "5",
                     "--point", "1", "--delta", "1e-4"],
                ]

    # Tolerance flags, with and without tolerances in the file.
    for variant in VARIANTS:
        path = f"inst/{variant}-4x7x2-s0.json"
        commands += [
            ["analyze", "--instance", path, "--zero-tol", "1e-6"],
            ["analyze", "--instance", path, "--stat-tol", "1e-2"],
            ["analyze", "--instance", path, "--rank-tol", "1e-3"],
            ["regularity", "--instance", path, "--rank-tol", "0.5"],
            ["sweep", "--instance", path, "--zero-tol", "1e-3", "--stat-tol", "1e-1"],
        ]
    tiny = {"m": 2, "n": 2, "s": 1, "A": [[1.0, 0.0], [0.0, 1.0]], "b": [5e-9, 3e-9]}
    plain = _write("inst/tiny-gradient.json", tiny)
    with_tol = _write("inst/tiny-gradient-tol.json", {**tiny, "tolerances": {"zero_tol": 1e-8}})
    csv_file = _write("inst/saddle.csv", "2,2,1\n1,0\n0,1\n1,1\n")
    Path("reports").mkdir()
    commands += [
        ["analyze", "--instance", plain, "--stat-tol", "1e-9"],
        ["analyze", "--instance", with_tol],
        ["analyze", "--instance", with_tol, "--stat-tol", "1e-9"],
        ["analyze", "--instance", with_tol, "--zero-tol", "1e-10", "--rank-tol", "1e-6"],
        ["analyze", "--instance", csv_file, "--stat-tol", "1e-3"],
        ["generic", "--m", "3", "--n", "5", "--s", "2", "--trials", "5", "--seed", "0"],
        ["generic", "--m", "3", "--n", "5", "--s", "2", "--trials", "5", "--seed", "0",
         "--stat-tol", "10"],
        ["analyze", "--instance", csv_file, "--out", "reports/analyze.json"],
    ]
    # The benchmark's generic shape: with --stat-tol 0.05 every trial fails,
    # with --rank-tol 0.1 some do, so every verdict and log line is recorded.
    generic = ["generic", "--m", "5", "--n", "8", "--s", "3", "--trials", "50", "--seed", "0"]
    commands += [generic, generic + ["--stat-tol", "0.05"], generic + ["--rank-tol", "0.1"]]

    # A continuum through the origin, which passes ND1 and ND2 on its own
    # (point 5), and a solved coefficient exactly at zero_tol.
    continuum = _write("inst/continuum.json", {
        "m": 3, "n": 3, "s": 2, "A": [[10.0, 10.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
        "b": [1.5e-8, 1.0, 0.0]})
    probe = ["probe", "--instance", continuum, "--point", "5", "--seed", "0", "--trials", "20"]
    commands += [
        ["analyze", "--instance", continuum],
        ["sweep", "--instance", continuum],
        probe,
        probe + ["--epsilon", "1e-9"],
        ["analyze", "--instance", _write("inst/at-zero-tol.json", {
            "m": 2, "n": 2, "s": 1, "A": [[1.0, 0.0], [0.0, 1.0]], "b": [1e-9, 1.0]})],
    ]

    # Error paths.
    saddle = "inst/saddle.csv"
    commands += [
        ["analyze", "--instance", "inst/missing.json"],
        ["analyze", "--instance", _write("inst/malformed.json", '{"m": 2,\n "n": oops}')],
        ["analyze", "--instance", _write("inst/bad-s.json", {**tiny, "s": 2})],
        ["analyze", "--instance",
         _write("inst/bad-tol.json", {**tiny, "tolerances": {"zero_tol": "abc"}})],
        ["analyze", "--instance", _write("inst/overflow.json", {
            "m": 2, "n": 3, "s": 1, "A": [[1e308, 0, 2], [0, 1e308, 1]], "b": [1e308, 1e308]})],
        ["analyze", "--instance", _write("inst/underflow.json", {
            "m": 2, "n": 3, "s": 1, "A": [[1e-300, 0, 2e-300], [0, 1e-300, 1e-300]],
            "b": [1e-300, 1e-300]})],
        ["iht", "--instance", "inst/underflow.json"],
        ["analyze", "--instance", saddle, "--stat-tol", "-1"],
        ["generic", "--m", "3", "--n", "5", "--s", "2", "--trials", "2", "--seed", "0",
         "--rank-tol", "-1"],
        ["probe", "--instance", saddle, "--seed", "1", "--point", "99"],
        ["probe", "--instance", saddle, "--seed", "1", "--trials", "2", "--delta", "nan"],
        ["probe", "--instance", saddle, "--seed", "1", "--trials", "2", "--epsilon", "0"],
        ["probe", "--instance", saddle, "--seed", "1", "--trials", "2", "--delta", "1e200"],
        ["probe", "--instance", saddle],
        ["analyze", "--instance", saddle, "--out", "missing/dir/report.json"],
        ["analyze", "--instance", saddle, "--out", "inst"],
        # Malformed files that once ended in an internal error.
        ["analyze", "--instance", _write("inst/not-utf8.json", b'\xff\xfe{"m":1}')],
        ["analyze", "--instance", _write("inst/negative-m.csv", "-1,2,1\n")],
        ["analyze", "--instance", _write("inst/deep.json", '{"m": 1, "n": 1, "s": 0, "b": [1], '
                                         '"A": ' + "[" * 10000 + "]" * 10000 + "}")],
        # A coefficient of 2e154, whose square overflows float64: the default
        # epsilon once overflowed (exit 1 with warnings as errors).
        ["probe", "--instance", _write("inst/big-coefficient.json", {
            "m": 2, "n": 3, "s": 1, "A": [[1.5e-154, 1, 0.5], [0, 0.3, 1]], "b": [3, 1]}),
         "--seed", "0", "--trials", "2"],
    ]
    return commands


def _run(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:  # noqa: BLE001  -- an uncaught error is an exit 1
            # The record keeps no traceback, whose paths differ per checkout.
            traceback.print_exc(file=sys.__stderr__)
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, stdout.getvalue(), stderr.getvalue()


def _record(argv: list[str], code: int, out: str, err: str) -> str:
    text = f"argv: {' '.join(argv)}\nexit: {code}\n--- stdout\n{out}--- stderr\n{err}"
    if "--out" in argv:
        target = Path(argv[argv.index("--out") + 1])
        if target.is_file():
            text += f"--- out file\n{target.read_text()}"
    return text


def _file_name(argv: list[str]) -> str:
    parts = [(a[2:] if a.startswith("--") else a).replace("/", "~")
             for a in argv if a != "--instance"]
    return "_".join(parts) + ".txt"


def build(outdir: Path) -> dict[int, int]:
    """Write the corpus into ``outdir``; return the number of commands per exit code."""
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        raise SystemExit(f"{outdir} is not empty")
    codes: dict[int, int] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for argv in _commands():
                code, out, err = _run(argv)
                path = outdir / _file_name(argv)
                if path.exists():
                    raise SystemExit(f"two commands share the record {path.name}")
                path.write_text(_record(argv, code, out, err))
                codes[code] = codes.get(code, 0) + 1
        finally:
            os.chdir(cwd)
    return codes


def run() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    codes = build(Path(sys.argv[1]).resolve())
    summary = ", ".join(f"exit {code}: {count}" for code, count in sorted(codes.items()))
    print(f"{sum(codes.values())} commands ({summary})")
    return 1 if codes.get(1) else 0


if __name__ == "__main__":
    sys.exit(run())
