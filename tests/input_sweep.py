"""Seeded mutation sweep over instance files, run in-process through the CLI.

Usage::

    PYTHONPATH=src python tests/input_sweep.py SEED COUNT

Each case writes one small valid instance file, JSON or CSV, and runs one
command on it through ``l0landscape.cli.main`` in this process: ``analyze``,
``sweep``, ``regularity``, ``iht`` or ``probe --seed 0 --trials 2``.  One
mutation applies either to the file or to the command's flags.  The file
mutations cover keys (dropped, added, retyped), the dimensions ``m``, ``n``
and ``s``, extreme and non-finite entries, file structure (deep nesting,
truncation, a non-UTF-8 byte), the tolerances and, for CSV, the header, the
row count and width, non-numeric cells and blank lines.  The flag mutations
set ``--zero-tol``, ``--stat-tol`` or ``--rank-tol`` to 0, 1, infinite, NaN,
negative or extreme values, and give ``probe`` an out-of-range ``--point``,
``--epsilon`` and ``--delta`` at the edges of their ranges, or ``--trials``
at 0, -1 or a small count.  Every shape has ``n <= 7`` and no probe runs more
than 3 trials, so no case runs long.

A case passes when the command exits 0 or 2, never 1; on exit 0 its standard
output is JSON without ``NaN`` or ``Infinity``; on exit 2 its standard error
starts with ``error: ``; and it emits no ``RuntimeWarning``.  Case ``i`` of
seed ``S`` is drawn from ``numpy.random.default_rng((S, i))`` alone, so a
failure is reproduced by its seed and index.  Prints the failures and a
summary; exits 1 when any case fails, else 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from l0landscape.cli import main

COMMANDS = [["analyze"], ["sweep"], ["regularity"], ["iht"],
            ["probe", "--seed", "0", "--trials", "2"]]

# A JSON string that the serialised file replaces by raw text.
_LITERAL = "@literal@"
_JSON_LITERALS = ["1e400", "-1e400", "NaN", "Infinity", "-Infinity", "1" + "0" * 400,
                  "-" + "9" * 400]
_NUMBERS = [1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, -0.0]
_CSV_CELLS = ["1e400", "-1e400", "nan", "inf", "-inf", "-0.0", "5e-324", "1e-300", "1e300",
              "9" * 400, "abc", "", "0x10", "1e", "--1"]
_RETYPED = ["2", True, None, [[1.0]], 1.5]
# Flag values at the edges of each flag's range (and past them).
_EDGES = ["0", "-0.0", "1", "inf", "-inf", "nan", "-1e-3", "5e-324", "1e-300", "1e300",
          "1.7976931348623157e308"]
_FLAG_VALUES = {
    "--zero-tol": _EDGES,
    "--stat-tol": _EDGES,
    "--rank-tol": _EDGES,
    "--point": ["-1", "7", "64", "1000000", "10" * 20],
    "--epsilon": _EDGES,
    "--delta": _EDGES,
    "--trials": ["0", "-1", "1", "3"],
}
_PROBE_ONLY = ("--point", "--epsilon", "--delta", "--trials")


@dataclass(frozen=True)
class Case:
    label: str
    name: str
    data: bytes
    argv: list[str]


@dataclass(frozen=True)
class Outcome:
    code: int
    out: str
    err: str
    warned: list[str]


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _base(rng) -> dict:
    """A small valid instance: Gaussian, or with a zero or a duplicate column."""
    m = int(rng.integers(1, 6))
    n = int(rng.integers(2, 8))
    s = int(rng.integers(0, min(m, n - 1) + 1))
    A = rng.standard_normal((m, n))
    variant = int(rng.integers(3))
    if variant == 1:
        A[:, 0] = 0.0
    elif variant == 2:
        A[:, -1] = A[:, 0]
    return {"m": m, "n": n, "s": s, "A": A.tolist(), "b": rng.standard_normal(m).tolist()}


def _set_entry(rng, data: dict, value) -> str:
    key = _pick(rng, ["A", "b"])
    if key == "A":
        i, j = int(rng.integers(data["m"])), int(rng.integers(data["n"]))
        data["A"][i][j] = value
        return f"A[{i}][{j}]"
    i = int(rng.integers(data["m"]))
    data["b"][i] = value
    return f"b[{i}]"


def _mutate_json(rng, data: dict) -> tuple[str, str | bytes]:
    """One mutation of the JSON form of ``data``: its label and the file's content."""
    literal = None
    family = _pick(rng, ["drop", "add", "retype", "dims", "entry", "literal", "deep",
                         "truncate", "utf8", "tolerance"])
    if family == "drop":
        key = _pick(rng, ["m", "n", "s", "A", "b"])
        del data[key]
        label = f"drop {key}"
    elif family == "add":
        data["extra"] = 1
        label = "add extra"
    elif family == "retype":
        key = _pick(rng, ["m", "n", "s", "A", "b", "tolerances"])
        value = _pick(rng, _RETYPED)
        if key in ("m", "n", "s") and value == 1.5:
            value = float(data[key])  # a float for an integer
        data[key] = value
        label = f"retype {key}={value!r}"
    elif family == "dims":
        key = _pick(rng, ["m", "n", "s"])
        data[key] = _pick(rng, [-1, 0, data[key] - 1, data[key] + 1])
        label = f"{key}={data[key]}"
    elif family == "entry":
        value = _pick(rng, _NUMBERS)
        label = f"{_set_entry(rng, data, value)}={value!r}"
    elif family == "literal":
        literal = _pick(rng, _JSON_LITERALS)
        label = f"{_set_entry(rng, data, _LITERAL)}={literal[:12]}"
    elif family == "deep":
        depth = int(rng.integers(2, 5000))
        key = _pick(rng, ["A", "b"])
        data[key] = _LITERAL
        literal = "[" * depth + "]" * depth
        label = f"deep {key} {depth}"
    elif family == "tolerance":
        key = _pick(rng, ["zero_tol", "stat_tol", "rank_tol", "bogus"])
        value = _pick(rng, [0, -1e-3, "abc", 1.0, _LITERAL])
        literal = "Infinity" if value == _LITERAL else None
        data["tolerances"] = {key: value}
        label = f"tolerance {key}={literal or value!r}"
    text = json.dumps(data)
    if literal is not None:
        text = text.replace(json.dumps(_LITERAL), literal)
    if family == "truncate":
        cut = int(rng.integers(len(text)))
        text = text[:cut]
        label = f"truncate at {cut}"
    elif family == "utf8":
        raw = text.encode()
        at = int(rng.integers(len(raw) + 1))
        return f"0xff at byte {at}", raw[:at] + b"\xff" + raw[at:]
    return label, text


def _mutate_csv(rng, data: dict) -> tuple[str, str | bytes]:
    """One mutation of the CSV form of ``data``: its label and the file's content."""
    header = [str(data["m"]), str(data["n"]), str(data["s"])]
    rows = [[repr(v) for v in row] for row in data["A"]] + [[repr(v) for v in data["b"]]]
    family = _pick(rng, ["header", "dims", "count", "width", "cell", "blank", "truncate",
                         "utf8"])
    label = family
    if family == "header":
        header = header[:2] if rng.integers(2) else header + ["1"]
        label = f"header of {len(header)} cells"
    elif family == "dims":
        k = int(rng.integers(3))
        header[k] = str(_pick(rng, [-1, 0, int(header[k]) - 1, int(header[k]) + 1]))
        label = f"header {'mns'[k]}={header[k]}"
    elif family == "count":
        i = int(rng.integers(len(rows)))
        if rng.integers(2):
            rows.insert(i, rows[i])
        else:
            rows.pop(i)
        label = f"{len(rows)} data rows"
    elif family == "width":
        row = rows[int(rng.integers(len(rows)))]
        if rng.integers(2):
            row.append("1.0")
        else:
            row.pop()
        label = f"a row of {len(row)} cells"
    elif family == "cell":
        i = int(rng.integers(len(rows)))
        j = int(rng.integers(len(rows[i])))
        rows[i][j] = _pick(rng, _CSV_CELLS)
        label = f"cell ({i}, {j})={rows[i][j][:12]!r}"
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if family == "blank":
        for _ in range(int(rng.integers(1, 4))):
            lines.insert(int(rng.integers(len(lines) + 1)), _pick(rng, ["", "  ", ",,"]))
    text = "\n".join(lines) + "\n"
    if family == "truncate":
        cut = int(rng.integers(len(text)))
        text = text[:cut]
        label = f"truncate at {cut}"
    elif family == "utf8":
        raw = text.encode()
        at = int(rng.integers(len(raw) + 1))
        return f"0xff at byte {at}", raw[:at] + b"\xff" + raw[at:]
    return label, text


def _mutate_flags(rng, command: list[str]) -> tuple[str, list[str]]:
    """One or two flags at the edges of their ranges: the label and the new command."""
    flags = [f for f in _FLAG_VALUES if command[0] == "probe" or f not in _PROBE_ONLY]
    given = [f"{flag}={_pick(rng, _FLAG_VALUES[flag])}"
             for flag in rng.choice(flags, size=int(rng.integers(1, 3)), replace=False)]
    # A repeated flag overrides the command's own --trials 2.
    return "flags " + " ".join(given), command + given


def make_case(seed: int, index: int) -> Case:
    """Case ``index`` of the sweep with seed ``seed``."""
    rng = np.random.default_rng((seed, index))
    data = _base(rng)
    command = _pick(rng, COMMANDS)
    family = int(rng.integers(3))
    if family == 0:
        label, content = _mutate_json(rng, data)
        name = "inst.json"
    elif family == 1:
        label, content = _mutate_csv(rng, data)
        name = "inst.csv"
    else:
        label, command = _mutate_flags(rng, command)
        content = json.dumps(data)
        name = "inst.json"
    if isinstance(content, str):
        content = content.encode()
    return Case(f"{name[5:]}: {label}", name, content, command)


def run_case(case: Case, directory: Path) -> Outcome:
    """Run one case in-process, with its instance file written into ``directory``."""
    path = directory / case.name
    path.write_bytes(case.data)
    argv = case.argv[:1] + ["--instance", str(path)] + case.argv[1:]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        except Exception as exc:  # noqa: BLE001  -- an uncaught error counts as exit 1
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return Outcome(code, stdout.getvalue(), stderr.getvalue(), warned)


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def problems(outcome: Outcome) -> list[str]:
    """What is wrong with one outcome; empty when the case passes."""
    found = []
    if outcome.code not in (0, 2):
        found.append(f"exit {outcome.code}: {outcome.err.strip()[:200]}")
    elif outcome.code == 0:
        try:
            json.loads(outcome.out, parse_constant=_reject_constant)
        except ValueError as exc:
            found.append(f"stdout is not finite JSON: {exc}")
    elif not outcome.err.startswith("error: "):
        found.append(f"exit 2 without an 'error: ' line: {outcome.err[:200]!r}")
    found += [f"RuntimeWarning: {message}" for message in outcome.warned]
    return found


def sweep(seed: int, count: int) -> tuple[dict[int, int], list[str]]:
    """Run cases 0 to ``count - 1``; return the exit-code counts and the failures."""
    codes: dict[int, int] = {}
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        for index in range(count):
            case = make_case(seed, index)
            outcome = run_case(case, Path(scratch))
            codes[outcome.code] = codes.get(outcome.code, 0) + 1
            failures += [f"seed {seed} case {index} ({' '.join(case.argv)}, {case.label}): {p}"
                         for p in problems(outcome)]
    return codes, failures


def run() -> int:
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    seed, count = int(sys.argv[1]), int(sys.argv[2])
    codes, failures = sweep(seed, count)
    for line in failures:
        print(line)
    summary = ", ".join(f"exit {code}: {n}" for code, n in sorted(codes.items()))
    print(f"{count} cases ({summary}), {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
