"""The benchmark workloads: which CLI commands run on which instances.

Every workload runs all five timed commands (``analyze``, ``iht``,
``sweep``, ``probe`` and ``generic``) once per round, so every end-to-end
metric is measured on every workload, but each workload puts its weight on
a different layer:

wide-analyze
    ``analyze`` on a generic (7, 12, 4) instance: 794 supports and 794
    stationary points, where the O(P^2) near-duplicate merge in
    ``enumeration`` does almost all the work.  The ROADMAP's (8, 14, 4)
    rung takes 5-7 s per ``analyze`` here, so a 40 s run holds only five
    samples and its median moved by 16% between seeds; (7, 12, 4) is the
    largest rung that gives a steady median.  ``iht`` runs on this instance
    and on a fixed batch of its shape.  The sweep and probe side commands use a small
    (4, 7, 2) instance, so ``levelsets`` does little work.
sweep-audit
    ``sweep`` (and ``analyze``) on two generic (6, 10, 3) instances plus the
    zero-column and duplicate-column variants of the first, where
    ``levelsets.component_count`` does the work and the degenerate variants
    take the rank-deficient, continuum and audit-not-applicable paths.  How
    much work a sweep does depends on the order of the stationary values, so
    two generic instances halve the spread that one instance's draw causes.
probe-montecarlo
    ``probe`` with 25 trials and ``generic`` with 50 trials at (5, 8, 3):
    thousands of small ``enumeration`` calls, where per-call overhead
    (validation, solves, classification, s-regularity, a small merge)
    matters instead of the big merge.

``iht_ms`` is the mean time of an ``iht`` command over a batch of 32
instances that is the same for every seed (drawn from ``IHT_POOL_SEED``).
IHT's iteration count is heavy-tailed over Gaussian instances (at
(7, 12, 4): mean 474, median 362, largest of 6400 draws 5870), so the mean
over a seeded batch would mostly measure which instances the seed drew: a
batch of 32 gave a spread of about 0.5 across seeds, and even 512 about
0.05.  On the fixed batch the work is the same in every run, so a change in
the iteration count (through the step size, say) moves ``iht_ms`` in full.
``iht`` also runs, unmeasured, on every generic instance that the round
analyzes, so that its iterate is checked against the enumerated points for
any seed.  Every command is kept under about 2 s, so that a 40 s run holds
ten or more rounds and the calibration around each command tracks the
host's speed (see ``calibration.py``).  The ``generic`` trials are split
into commands of ``GENERIC_TRIALS_PER_COMMAND`` (about 0.3 s each at
(5, 8, 3)), with seeds derived from the workload seed: as one 1.6 s
command, the host's drift within it gave the trial rate a spread of 0.10
over ten seeds.

The probe perturbs the data at radius ``delta = 1e-3 * epsilon``, where
``epsilon`` is the data-driven locality radius.  A fixed ``delta = 1e-3``
often exceeds the displacement a nondegenerate point tolerates before its
epsilon-ball loses it (two thirds of Gaussian (5, 8, 3) seeds), and the
probe then rightly reports instability evidence that disagrees with the
exact criterion.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

import checks
from instances import InstanceFile, InstanceSet

Shape = tuple[int, int, int]

# Seed of the instances behind iht_ms; never a workload seed's role.
IHT_POOL_SEED = 2002
GENERIC_TRIALS_PER_COMMAND = 10


@dataclass(frozen=True)
class Workload:
    analyze: Shape
    sweep: Shape
    probe: Shape
    probe_trials: int
    generic_trials: int
    iht_batch: int
    # (index, variant) of the instances that analyze and sweep run on.
    instances: tuple[tuple[int, str], ...] = ((0, "generic"),)


WORKLOADS = {
    "wide-analyze": Workload(
        analyze=(7, 12, 4), sweep=(4, 7, 2), probe=(4, 7, 2),
        probe_trials=10, generic_trials=10, iht_batch=32),
    "sweep-audit": Workload(
        analyze=(6, 10, 3), sweep=(6, 10, 3), probe=(4, 7, 2),
        probe_trials=10, generic_trials=10, iht_batch=32,
        instances=((0, "generic"), (1, "generic"), (0, "zero-column"),
                   (0, "duplicate-column"))),
    "probe-montecarlo": Workload(
        analyze=(5, 8, 3), sweep=(5, 8, 3), probe=(5, 8, 3),
        probe_trials=25, generic_trials=50, iht_batch=32),
}

# Warm-up commands in set-up run this workload's mix at toy size.
WARMUP = Workload(analyze=(3, 5, 2), sweep=(3, 5, 2), probe=(3, 5, 2),
                  probe_trials=2, generic_trials=2, iht_batch=1)


@dataclass
class Op:
    """One CLI command of a round, the metric its time feeds and its check.

    An op whose ``metric`` is ``None`` is run and checked but not measured.
    """

    metric: str | None
    argv: list[str]
    instance: InstanceFile | None
    check: Callable[[dict, dict], list[str]]
    trials: int = 0
    key: str = field(default="", init=False)

    def __post_init__(self):
        # Reference lookups key on the command and the instance's bytes, so a
        # recorded output is compared only against the very same input.
        tokens = list(self.argv)
        if self.instance is not None:
            data = self.instance.path.read_bytes()
            tokens[tokens.index(str(self.instance.path))] = hashlib.sha256(data).hexdigest()
        self.key = hashlib.sha256(json.dumps(tokens).encode()).hexdigest()[:24]


def build_ops(workload: Workload, instances: InstanceSet, seed: int) -> list[Op]:
    """The commands of one round, in order: analyze, iht, sweep, probe, generic.

    The check of an ``iht`` op on an analyzed instance reads that round's
    analyze report from ``analyzed`` (keyed by instance path), so analyze
    ops come first.
    """
    ops: list[Op] = []
    generic = []
    for index, variant in workload.instances:
        inst = instances.get(workload.analyze, index, variant)
        if variant == "generic":
            oracle = checks.Oracle(inst.A, inst.b, inst.s)
            check = (lambda out, analyzed, o=oracle:
                     checks.check_analyze_generic(out, o.s, o.points))
            generic.append(inst)
        else:
            check = lambda out, analyzed: checks.check_analyze_degenerate(out)
        ops.append(Op("analyze_s", ["analyze", "--instance", str(inst.path)], inst, check))
    pool_dir = instances.directory / "iht-pool"
    pool_dir.mkdir(exist_ok=True)
    pool = InstanceSet(IHT_POOL_SEED, pool_dir)
    iht_runs = ([(None, inst) for inst in generic]
                + [("iht_ms", pool.get(workload.analyze, index))
                   for index in range(workload.iht_batch)])
    for metric, inst in iht_runs:
        check = (lambda out, analyzed, i=inst:
                 checks.check_iht(out, i.A, i.b, i.s, analyzed.get(i.path)))
        ops.append(Op(metric, ["iht", "--instance", str(inst.path)], inst, check))
    for index, variant in workload.instances:
        inst = instances.get(workload.sweep, index, variant)
        check = (lambda out, analyzed, degenerate=variant != "generic":
                 checks.check_sweep(out, degenerate))
        ops.append(Op("sweep_s", ["sweep", "--instance", str(inst.path)], inst, check))
    inst = instances.get(workload.probe)
    epsilon = checks.probe_epsilon(checks.Oracle(inst.A, inst.b, inst.s).points)
    trials = workload.probe_trials
    ops.append(Op(
        "probe_trials_per_s",
        ["probe", "--instance", str(inst.path), "--seed", str(seed), "--point", "0",
         "--delta", repr(1e-3 * epsilon), "--trials", str(trials)],
        inst, lambda out, analyzed, t=trials: checks.check_probe(out, t), trials))
    m, n, s = workload.probe
    starts = range(0, workload.generic_trials, GENERIC_TRIALS_PER_COMMAND)
    for k, start in enumerate(starts):
        trials = min(GENERIC_TRIALS_PER_COMMAND, workload.generic_trials - start)
        generic_seed = seed * len(starts) + k
        ops.append(Op(
            "generic_trials_per_s",
            ["generic", "--m", str(m), "--n", str(n), "--s", str(s),
             "--trials", str(trials), "--seed", str(generic_seed)],
            None, lambda out, analyzed, t=trials, g=generic_seed: checks.check_generic(out, t, g),
            trials))
    return ops
