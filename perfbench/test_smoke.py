"""Smoke test of the benchmark harness itself, at toy sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench

Each workload runs once untraced and once traced, with its instance shapes
shrunk so the whole test takes seconds; every metric named in
``BENCHMARK.json`` must be printed, except the per-layer metrics of layers
whose bindings the program no longer has, and no command may fail.
"""

from __future__ import annotations

import json
from collections import defaultdict

import pytest

import checks
import run
import tracing
import workloads
from workloads import Workload

TOY = {
    "wide-analyze": Workload(analyze=(4, 7, 2), sweep=(3, 5, 2), probe=(3, 5, 2),
                             probe_trials=2, generic_trials=2, iht_batch=2),
    "sweep-audit": Workload(analyze=(3, 6, 2), sweep=(3, 6, 2), probe=(3, 5, 2),
                            probe_trials=2, generic_trials=2, iht_batch=2,
                            instances=((0, "generic"), (0, "zero-column"),
                                       (0, "duplicate-column"))),
    "probe-montecarlo": Workload(analyze=(3, 5, 2), sweep=(3, 5, 2), probe=(3, 5, 2),
                                 probe_trials=3, generic_trials=12, iht_batch=2),
}

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def absent_layer_metrics() -> set[str]:
    """Names of the per-layer metrics of bindings the program no longer has."""
    tracer = tracing.Tracer()
    with tracer:
        pass
    names = lambda absent: set(run.layer_metrics({}, defaultdict(float), 1, absent))
    return names(set()) - names(tracer.absent_spans())


def test_toy_shapes_cover_every_workload():
    assert set(TOY) == set(workloads.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TOY))
def test_run_prints_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, workload, TOY[workload])
    status = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert status == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    if trace:
        absent = absent_layer_metrics()
        declared = {name: unit for name, unit in declared.items() if name not in absent}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        assert result["metrics"]["ok_ops_frac"]["value"] == 1.0


def test_failed_check_is_counted_and_the_run_goes_on(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "probe-montecarlo", TOY["probe-montecarlo"])
    calls = []

    def failing_check(out, degenerate):
        # The warm-up round's sweep passes; the measured round's sweep fails.
        calls.append(out)
        return ["forced failure"] if len(calls) > 1 else []

    monkeypatch.setattr(checks, "check_sweep", failing_check)
    status = run.main(["--workload", "probe-montecarlo", "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["ok_ops_frac"]["value"] == (result["attempted"] - 1) / result["attempted"]


def test_absent_binding_leaves_its_layer_out(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "sweep-audit", TOY["sweep-audit"])
    monkeypatch.setattr(tracing, "BINDINGS", tuple(
        (module, "support_min_table_removed" if attr == "support_min_table" else attr, span)
        for module, attr, span in tracing.BINDINGS))
    status = run.main(["--workload", "sweep-audit", "--seed", "3", "--seconds", "0",
                       "--trace", "1"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert status == 0 and result["correct"]
    assert "levelsets.min_table" in out.split("absent layers (left out): ")[1]
    assert "levelsets.min_table.self_s" not in result["metrics"]
    assert "levelsets.component_count.self_s" in result["metrics"]
