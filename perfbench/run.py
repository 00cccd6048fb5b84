"""Benchmark of the l0landscape command-line program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload wide-analyze --seed 0 --seconds 30 --trace 0

Instances are generated from ``--seed`` and written as instance JSON files;
the program only receives those files.  Every command goes through
``l0landscape.cli.main`` in this process with ``--out``, from one thread,
with BLAS pinned to one thread.  A run repeats rounds of the workload's
commands (see ``workloads.py``) for about ``--seconds`` seconds, checks every
output (see ``checks.py``) and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, each the median over rounds.
Times are in nominal seconds (see ``calibration.py``): the host's speed
drifts by up to 1.4x within minutes, so each group of commands' wall time is
scaled by a calibration kernel timed around it.  The unscaled wall-clock
medians are printed beside them.

setup_s
    median over fresh processes of: import, instance generation and writing,
    and a warm-up pass of every command at toy size.
analyze_s, sweep_s
    time of the round's ``analyze`` / ``sweep`` commands.
iht_ms
    mean time of one ``iht`` command over the workload's fixed batch of
    instances (see ``workloads.py``).
probe_trials_per_s, generic_trials_per_s
    trials completed per second by the ``probe`` / ``generic`` commands.
ok_ops_frac
    share of the commands attempted that exited 0 and passed their checks.
peak_rss_mb
    peak resident memory of this process.

``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics from spans recorded around the package's cross-module calls (see
``tracing.py``), averaged per traced round, plus the tracing overhead.
A layer whose bindings no longer exist in the program is left out of the
metrics and named as absent on standard output.

Exits 2 without a result when the program's source is not in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported, here and in children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import checks
import tracing
import workloads
from instances import InstanceSet

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"
DEFAULT_SEED = 0
SETUP_REPEATS = 9
CALIBRATION_INTERVAL_S = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "analyze_s": "s",
    "iht_ms": "ms",
    "sweep_s": "s",
    "probe_trials_per_s": "1/s",
    "generic_trials_per_s": "1/s",
    "ok_ops_frac": "frac",
    "peak_rss_mb": "MB",
}

# Spans whose calls and/or self time are reported per traced round.
SPAN_METRICS = [
    ("enumeration.enumerate", ("calls", "self_s")),
    ("enumeration.s_regularity", ("self_s",)),
    ("enumeration.generic", ("self_s",)),
    ("levelsets.component_count", ("calls", "self_s")),
    ("levelsets.min_table", ("self_s",)),
    ("levelsets.sweep", ("self_s",)),
    ("linalg.solve", ("calls", "self_s")),
    ("linalg.rank", ("calls", "self_s")),
    ("linalg.gram_eig", ("self_s",)),
    ("stationarity.classify", ("calls", "self_s")),
    ("model.validate", ("calls", "self_s")),
    ("model.support_of", ("self_s",)),
    ("stability.perturb", ("self_s",)),
    ("stability.probe", ("self_s",)),
    ("stability.epsilon", ("self_s",)),
    ("iht.solve", ("self_s",)),
    ("cli", ("self_s",)),
]
# Counters reported per traced round: unit and the span they are read from.
COUNTER_METRICS = {
    "enumeration.points": ("count", "enumeration.enumerate"),
    "stability.trials": ("count", "stability.perturb"),
    "iht.iterations": ("count", "iht.solve"),
    "cli.bytes_out": ("B", tracing.ROOT_SPAN),
}

SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
here, src, workload, seed, directory = sys.argv[1:6]
sys.path[:0] = [here, src]
from l0landscape import cli
t1 = time.perf_counter()
from pathlib import Path
import instances, workloads
workloads.build_ops(workloads.WORKLOADS[workload], instances.InstanceSet(int(seed), Path(directory)), int(seed))
t2 = time.perf_counter()
warm = Path(directory) / "warmup"
warm.mkdir()
for op in workloads.build_ops(workloads.WARMUP, instances.InstanceSet(int(seed), warm), int(seed)):
    if cli.main([*op.argv, "--out", str(warm / "out.json")]) != 0:
        sys.exit(f"warm-up command failed: {op.argv}")
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "generate_s": t2 - t1, "warmup_s": t3 - t2}))
"""


class ProgramMissing(RuntimeError):
    """The checkout does not hold an importable l0landscape package."""


def import_program():
    """Import ``l0landscape.cli`` from the checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        from l0landscape import cli
    except ImportError as exc:
        raise ProgramMissing(f"cannot import l0landscape from {SRC}: {exc}") from exc
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ProgramMissing(f"l0landscape imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(workload: str, seed: int, directory: Path) -> tuple[list[float], list[float]]:
    """Wall and nominal set-up seconds of ``SETUP_REPEATS`` fresh processes."""
    raw, nominal = [], []
    before = calibration.sample()
    for k in range(SETUP_REPEATS):
        target = directory / f"setup{k}"
        target.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(HERE), str(SRC), workload, str(seed),
             str(target)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        shutil.rmtree(target)
        after = calibration.sample()
        total = sum(json.loads(proc.stdout.strip().splitlines()[-1]).values())
        raw.append(total)
        nominal.append(total * calibration.scale(before, after))
        before = after
    return raw, nominal


def remove_workdir(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    if WORK.exists() and not any(WORK.iterdir()):
        WORK.rmdir()


@dataclass
class Round:
    """Per-op wall times and nominal-second scale factors of one round."""

    times: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    failures: int = 0


def run_round(call, ops, directory: Path, reference: dict, tracer=None,
              reports: dict | None = None) -> Round:
    """Run every op once, checking each report.

    Reports are dropped once checked, so memory does not grow with the
    number of rounds; ``reports``, when given, collects them by op key.

    The calibration kernel runs before the first op, after the last op of
    each run of consecutive ops that feed the same metric, and after any op
    that ends ``CALIBRATION_INTERVAL_S`` of command time since the last
    kernel run.  The ops between two kernel runs are scaled by the kernel
    times measured at both ends.
    """
    analyzed: dict[Path, dict] = {}
    rnd = Round()
    before, chunk_start = calibration.sample(), 0
    for i, op in enumerate(ops):
        out_path = directory / f"op{i}.json"
        if tracer is not None:
            tracer.op += 1
        start = time.perf_counter()
        try:
            code = call([*op.argv, "--out", str(out_path)])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a raising command is a failed op
            code = f"exception {exc!r}"
        rnd.times.append(time.perf_counter() - start)
        out = None
        problems = [] if code == 0 else [f"exit status {code}"]
        if not problems:
            try:
                out = json.loads(out_path.read_text(encoding="utf-8"))
                problems = op.check(out, analyzed)
                if op.key in reference:
                    problems += checks.compare_reference(reference[op.key], out)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable report: {exc!r}")
            if op.metric == "analyze_s" and out is not None:
                analyzed[op.instance.path] = out
        if tracer is not None and out_path.exists():
            tracer.counters["cli.bytes_out"] += out_path.stat().st_size
        if problems:
            rnd.failures += 1
            print(f"FAILED {' '.join(op.argv[:3])}: {'; '.join(problems[:5])}",
                  file=sys.stderr)
        if reports is not None:
            reports[op.key] = out
        out_path.unlink(missing_ok=True)
        if (i + 1 == len(ops) or ops[i + 1].metric != op.metric
                or sum(rnd.times[chunk_start:]) >= CALIBRATION_INTERVAL_S):
            after = calibration.sample()
            rnd.scales.extend([calibration.scale(before, after)] * (i + 1 - chunk_start))
            before, chunk_start = after, i + 1
    return rnd


def round_metrics(ops, rnd: Round, nominal: bool = True) -> dict[str, float]:
    """End-to-end metrics of one round, in nominal or in wall seconds."""
    spent, trials, count = defaultdict(float), defaultdict(int), defaultdict(int)
    for op, t, scale in zip(ops, rnd.times, rnd.scales):
        spent[op.metric] += t * scale if nominal else t
        trials[op.metric] += op.trials
        count[op.metric] += 1
    return {
        "analyze_s": spent["analyze_s"],
        "iht_ms": 1000.0 * spent["iht_ms"] / count["iht_ms"],
        "sweep_s": spent["sweep_s"],
        "probe_trials_per_s": trials["probe_trials_per_s"] / spent["probe_trials_per_s"],
        "generic_trials_per_s": trials["generic_trials_per_s"] / spent["generic_trials_per_s"],
    }


def load_reference(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json.gz"
    if not path.exists():
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def layer_metrics(totals: dict, counters: dict, rounds: int,
                  absent: set[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced round, leaving out those of ``absent`` spans."""
    empty = {"calls": 0, "self_s": 0.0}
    metrics = {}
    for span, stats in SPAN_METRICS:
        for stat in stats:
            if span not in absent:
                unit = "count" if stat == "calls" else "s"
                metrics[f"{span}.{stat}"] = (totals.get(span, empty)[stat] / rounds, unit)
    for name, (unit, span) in COUNTER_METRICS.items():
        if span not in absent:
            metrics[name] = (counters[name] / rounds, unit)
    if not absent & {"linalg.solve", "enumeration.enumerate"}:
        supports = counters["enumeration.supports"]
        solves = totals.get("linalg.solve", empty)["calls"]
        metrics["linalg.solves_per_support"] = (solves / supports if supports else 0.0, "ratio")
    return metrics


def measure(cli, ops, seconds: float, directory: Path, reference: dict, trace: bool):
    """Repeat rounds for about ``seconds``; with ``trace`` every other round is traced."""
    tracer = tracing.Tracer() if trace else None
    traced_call = tracer.wrap(tracing.ROOT_SPAN, cli.main) if trace else None
    plain: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    while True:
        if trace and len(plain) > len(traced):
            with tracer:
                traced.append(run_round(traced_call, ops, directory, reference, tracer))
        else:
            plain.append(run_round(cli.main, ops, directory, reference))
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds and (not trace or traced):
            break
    return plain, traced, tracer


def describe(name: str, values: list[float], raw: list[float], unit: str) -> str:
    return (f"{name} = {statistics.median(values):.6g} {unit} (median of {len(values)}; "
            f"min {min(values):.6g}, max {max(values):.6g}; "
            f"unscaled wall-clock median {statistics.median(raw):.6g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    try:
        cli = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    directory = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    directory.mkdir(parents=True)
    try:
        setup = measure_setup(args.workload, args.seed, directory)
        ops = workloads.build_ops(workload, InstanceSet(args.seed, directory), args.seed)
        warm = directory / "warmup"
        warm.mkdir()
        warm_ops = workloads.build_ops(workloads.WARMUP, InstanceSet(args.seed, warm), args.seed)
        if run_round(cli.main, warm_ops, warm, {}).failures:
            print("error: warm-up commands failed", file=sys.stderr)
            return 1
        reference = load_reference(args.workload)
        compared = sum(op.key in reference for op in ops)
        plain, traced, tracer = measure(
            cli, ops, args.seconds, directory, reference, bool(args.trace))
    finally:
        remove_workdir(directory)

    attempted = len(ops) * (len(plain) + len(traced))
    failed = sum(r.failures for r in plain + traced)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced rounds of {len(ops)} commands; "
          f"failed_ops_frac = {failed}/{attempted} = {failed / attempted:.6g}; "
          f"{compared} of {len(ops)} commands compared against reference output")
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        nominal = [round_metrics(ops, r) for r in plain]
        raw = [round_metrics(ops, r, nominal=False) for r in plain]
        samples = {name: ([r[name] for r in nominal], [r[name] for r in raw])
                   for name in nominal[0]}
        samples["setup_s"] = (setup[1], setup[0])
        for name, unit in END_TO_END_UNITS.items():
            if name in samples:
                print(describe(name, *samples[name], unit))
                metrics[name] = (statistics.median(samples[name][0]), unit)
        metrics["ok_ops_frac"] = ((attempted - failed) / attempted, END_TO_END_UNITS["ok_ops_frac"])
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  END_TO_END_UNITS["peak_rss_mb"])
    else:
        totals = tracer.layer_totals()
        absent = tracer.absent_spans()
        metrics = layer_metrics(totals, tracer.counters, len(traced), absent)
        plain_s = statistics.median(sum(t * k for t, k in zip(r.times, r.scales)) for r in plain)
        traced_s = statistics.median(sum(t * k for t, k in zip(r.times, r.scales)) for r in traced)
        op_s = sum(sum(r.times) for r in traced) / len(traced)
        self_s = sum(v["self_s"] for v in totals.values()) / len(traced)
        metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "frac")
        metrics["trace.self_coverage"] = (self_s / op_s, "frac")
        if tracer.absent:
            print(f"absent bindings: {', '.join(tracer.absent)}; "
                  f"absent layers (left out): {', '.join(sorted(absent)) or 'none'}")
        for name, (value, unit) in metrics.items():
            share = f" ({100 * value / op_s:.1f}% of traced op time)" if unit == "s" else ""
            print(f"{name} = {value:.6g} {unit}{share}")
        path = SPANS / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(path)
        print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
