"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs the same checks.
"""

import itertools
import math
import time

import numpy as np
import pytest

from l0landscape import (
    Instance,
    PointKind,
    component_count,
    enumerate_stationary,
    gradient,
    hard_threshold,
    largest_eigenvalue_gram,
    iht_solve,
    objective,
    probe_strong_stability,
    run_genericity_experiment,
    sweep_levels,
)

from _oracles import (
    grid_components,
    min_relative_value_gap,
    random_instance,
    stationarity_residual,
    table_level_counts,
)

COORD_TOL = 1e-10


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {number:2d} ({description}): {status}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def _find(report, coords):
    for p in report.points:
        if np.max(np.abs(p.x - np.asarray(coords))) <= COORD_TOL:
            return p
    return None


def test_criterion_01_zero_measurement_landscape():
    inst = Instance.from_arrays(np.eye(2), [0.0, 0.0], 1)
    enumerate_stationary(inst)  # warm the linear algebra path before timing
    start = time.perf_counter()
    rep = enumerate_stationary(inst)
    elapsed = time.perf_counter() - start
    origin = _find(rep, [0.0, 0.0])
    ok = (
        len(rep.points) == 1
        and origin is not None
        and origin.kind is PointKind.DEGENERATE
        and not origin.nd1_holds
        and elapsed < 0.1
    )
    _report(1, "single degenerate point for zero measurements", ok,
            f"runtime {elapsed * 1e3:.1f} ms")


def test_criterion_02_perturbed_landscape():
    inst = Instance.from_arrays(np.eye(2), [0.1, 0.1], 1)
    rep = enumerate_stationary(inst)
    min_a = _find(rep, [0.1, 0.0])
    min_b = _find(rep, [0.0, 0.1])
    saddle = _find(rep, [0.0, 0.0])
    ok = (
        len(rep.points) == 3
        and min_a is not None and min_a.kind is PointKind.LOCAL_MINIMIZER
        and min_a.nd1_holds and min_a.nd2_holds
        and min_b is not None and min_b.kind is PointKind.LOCAL_MINIMIZER
        and min_b.nd1_holds and min_b.nd2_holds
        and saddle is not None and saddle.kind is PointKind.SADDLE_POINT
        and saddle.nd1_holds and saddle.nd2_holds
        and rep.r == 2 and rep.r1 == 1
    )
    _report(2, "two minimizers plus a saddle after perturbation", ok)


def test_criterion_03_morse_equality():
    inst = Instance.from_arrays(np.eye(2), [1.0, 1.0], 1)
    rep = enumerate_stationary(inst)
    ok = (
        rep.r == 2
        and rep.r1 == 1
        and rep.morse_holds
        and rep.morse_lhs == 1
        and rep.morse_rhs == 1
    )
    _report(3, "Morse relation holds with equality 1 >= 1", ok)


def test_criterion_04_one_sided_measurements():
    inst = Instance.from_arrays(np.eye(2), [-1.0, 0.0], 1)
    rep = enumerate_stationary(inst)
    minimizer = _find(rep, [-1.0, 0.0])
    origin = _find(rep, [0.0, 0.0])
    ok = (
        len(rep.points) == 2
        and minimizer is not None
        and minimizer.kind is PointKind.LOCAL_MINIMIZER
        and minimizer.nd1_holds and minimizer.nd2_holds
        and origin is not None
        and origin.kind is PointKind.DEGENERATE
    )
    _report(4, "nondegenerate minimizer plus degenerate origin", ok)


def test_criterion_05_genericity_experiment():
    start = time.perf_counter()
    rep = run_genericity_experiment(4, 6, 2, trials=1000, seed=42)
    elapsed = time.perf_counter() - start
    ok = (
        rep.all_nondegenerate_fraction == 1.0
        and rep.minimizers_active_fraction == 1.0
        and rep.s_regular_fraction == 1.0
        and elapsed < 60.0
    )
    _report(5, "1000 Gaussian trials all nondegenerate and s-regular", ok,
            f"runtime {elapsed:.1f} s")


def test_criterion_06_morse_relation_property_suite():
    shapes = [(3, 4, 1), (4, 6, 2), (4, 5, 2), (5, 7, 3), (4, 8, 3),
              (6, 8, 2), (3, 6, 1), (5, 8, 3)]
    rng = np.random.default_rng(60606)
    checked = 0
    attempts = 0
    violations = 0
    miscounts = 0
    while checked < 500:
        attempts += 1
        assert attempts < 5000, "sampling did not produce enough clean instances"
        m, n, s = shapes[attempts % len(shapes)]
        inst = random_instance(rng, m, n, s)
        rep = enumerate_stationary(inst)
        if rep.hypothesis_violated:
            continue
        checked += 1
        if not (rep.morse_lhs >= rep.morse_rhs and rep.morse_holds):
            violations += 1
        # Under the hypothesis every support of size at most s is a point, so
        # the counts are binomials, and the cells the points attach
        # (cell_attachment) add up to the Euler characteristic of the
        # feasible set, a union of subspaces through 0: 1.
        euler = sum((-1) ** (s - len(p.support)) * math.comb(n - len(p.support) - 1,
                                                             s - len(p.support))
                    for p in rep.points)
        counts = (rep.r, rep.r1, rep.lower_order, len(rep.points), euler)
        if counts != (math.comb(n, s), math.comb(n, s - 1),
                      sum(math.comb(n, k) for k in range(s - 1)),
                      sum(math.comb(n, k) for k in range(s + 1)), 1):
            miscounts += 1
    _report(6, "Morse relation and point counts on 500 random s-regular landscapes",
            violations == 0 and miscounts == 0,
            f"{checked} instances, {violations} violations, {miscounts} miscounts")


def _five_levels(values):
    candidates = [0.5 * values[0]]
    candidates += [0.5 * (a + b) for a, b in zip(values, values[1:])]
    top = values[-1]
    candidates += [top + 0.05 * (1.0 + top), top + 0.15 * (1.0 + top)]
    idx = np.round(np.linspace(0, len(candidates) - 1, 5)).astype(int)
    return [candidates[i] for i in idx]


def _oracle_ready_instance(rng, m, n, s):
    """Instance whose level sets provably fit the oracle's grid box."""
    while True:
        inst = random_instance(rng, m, n, s, min_sigma=0.55, max_b_norm=1.4)
        if np.linalg.norm(inst.b) < 0.5:
            continue
        rep = enumerate_stationary(inst)
        if rep.hypothesis_violated:
            continue
        values = sorted({p.value for p in rep.points})
        if len(values) < 3 or min_relative_value_gap(values) < 2e-3:
            continue
        levels = _five_levels(values)
        box = 2.0 * (1.0 + float(np.linalg.norm(inst.b)))
        contained = True
        for S in itertools.combinations(range(n), s):
            A_S = inst.A[:, list(S)]
            sigma_min = float(np.linalg.svd(A_S, compute_uv=False)[-1])
            center, *_ = np.linalg.lstsq(A_S, inst.b, rcond=None)
            extent = float(np.linalg.norm(center)) + math.sqrt(2.0 * max(levels)) / sigma_min
            if extent > box - 0.05:
                contained = False
                break
        if contained:
            return inst, levels


def test_criterion_07_level_set_oracle_equivalence():
    rng = np.random.default_rng(70707)
    shape_plan = [(2, 2, 1)] * 8 + [(3, 3, 1)] * 6 + [(3, 3, 2)] * 6
    mismatches = 0
    comparisons = 0
    for m, n, s in shape_plan:
        inst, levels = _oracle_ready_instance(rng, m, n, s)
        for level in levels:
            comparisons += 1
            exact = component_count(inst, level)
            flooded = grid_components(inst, level, step=0.01)
            if exact != flooded:
                mismatches += 1
    _report(7, "component counts equal flood-fill oracle", mismatches == 0,
            f"{comparisons} comparisons, {mismatches} mismatches")


def test_criterion_08_sweep_transition_audit():
    shapes = [(2, 4, 1), (3, 5, 2), (4, 6, 2), (4, 8, 2), (5, 8, 2), (3, 8, 1)]
    rng = np.random.default_rng(80808)
    checked = 0
    attempts = 0
    bad = 0
    while checked < 100:
        attempts += 1
        assert attempts < 1000, "sampling did not produce enough clean instances"
        m, n, s = shapes[attempts % len(shapes)]
        inst = random_instance(rng, m, n, s)
        rep = enumerate_stationary(inst)
        if rep.hypothesis_violated:
            continue
        checked += 1
        sweep = sweep_levels(inst, rep)
        if not sweep.applicable:
            bad += 1
            continue
        for t in sweep.transitions:
            kind = t.kinds[0]
            assert len(t.kinds) == 1  # distinct values after the filter
            if kind is PointKind.LOCAL_MINIMIZER and t.delta != 1:
                bad += 1
            elif kind is PointKind.SADDLE_POINT and not (-(inst.n - inst.s) <= t.delta <= 0):
                bad += 1
            elif kind is PointKind.LOWER_ORDER and t.delta != 0:
                bad += 1
        counts = table_level_counts(inst, [
            iv.lo + f * (iv.hi - iv.lo) for iv in sweep.intervals for f in (0.25, 0.5, 0.75)],
            rep.table)
        for i, iv in enumerate(sweep.intervals):
            if set(counts[3 * i:3 * i + 3]) != {iv.q}:
                bad += 1
    _report(8, "sweep transitions within admissible ranges", bad == 0,
            f"{checked} instances, {bad} violations")


def test_criterion_09_stability_cross_check():
    fixtures = [
        Instance.from_arrays(np.eye(2), [0.0, 0.0], 1),
        Instance.from_arrays(np.eye(2), [0.1, 0.1], 1),
        Instance.from_arrays(np.eye(2), [1.0, 1.0], 1),
        Instance.from_arrays(np.eye(2), [-1.0, 0.0], 1),
    ]
    disagreements = 0
    probed = 0
    for i, inst in enumerate(fixtures):
        rep = enumerate_stationary(inst)
        for p in rep.points:
            probe = probe_strong_stability(inst, p, epsilon=0.02, delta=1e-3, trials=50,
                                           seed=900 + i)
            probed += 1
            if not probe.agreement:
                disagreements += 1
    _report(9, "probe verdicts agree with nondegeneracy on all fixture points",
            disagreements == 0, f"{probed} points probed")


def test_criterion_10_iht_validity():
    shapes = [(3, 4, 1), (4, 6, 2), (5, 6, 3), (4, 5, 2)]
    rng = np.random.default_rng(101010)
    failures = 0
    converged_runs = 0
    for trial in range(100):
        m, n, s = shapes[trial % len(shapes)]
        inst = random_instance(rng, m, n, s)
        x0 = rng.standard_normal(n)
        result = iht_solve(inst, x0)
        # replay the recurrence to observe the whole objective trajectory
        L = largest_eigenvalue_gram(inst.A) * (1.0 + 1e-9)
        x = hard_threshold(x0, s)
        values = [objective(inst, x)]
        for _ in range(result.iterations):
            x = hard_threshold(x - gradient(inst, x) / L, s)
            values.append(objective(inst, x))
        monotone = all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        replay_matches = np.max(np.abs(x - result.x)) <= 1e-12
        if not (monotone and replay_matches):
            failures += 1
        # every run's verdict, converged or not, is the pointwise rule's
        residual = stationarity_residual(inst, result.x, result.support)
        if result.is_m_stationary != (residual <= 10.0 * inst.tol.stat_tol):
            failures += 1
        if result.converged:
            converged_runs += 1
            if not result.is_m_stationary:
                failures += 1
    ok = failures == 0 and converged_runs > 0
    _report(10, "IHT runs descend monotonically and land on stationary points",
            ok, f"{converged_runs}/100 converged, {failures} failures")
