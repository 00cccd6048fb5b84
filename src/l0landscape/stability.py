"""Empirical strong-stability probe under random data perturbations.

Strong stability asks that every sufficiently small perturbation of the data
leaves exactly one M-stationary point near the original one.  Sampling cannot
prove that, so verdicts are labeled evidence; nondegeneracy supplies the
exact criterion, and the probe's role is cross-validation of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .model import Instance
from .enumeration import LandscapeReport, enumerate_stationary
from .stationarity import StationaryPoint
from .util import rng_for, spawn_seed


class StabilityVerdict(str, Enum):
    STABLE = "StableEvidence"
    UNSTABLE = "UnstableEvidence"


@dataclass(frozen=True)
class StabilityProbeConfig:
    """Probe parameters: locality radius, data radius, trial count, seed.

    ``delta = 0`` is allowed and makes every perturbation the identity.
    ``paper_mode`` replaces random sampling by the deterministic rank-one
    perturbation ``b + (delta / sqrt(m)) * ones`` with the matrix unchanged.
    """

    epsilon: float
    delta: float
    trials: int
    seed: int
    paper_mode: bool = False

    def validate(self) -> None:
        if not self.epsilon > 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        if self.delta < 0:
            raise ValidationError(f"delta must be nonnegative, got {self.delta}")
        if self.trials < 1:
            raise ValidationError(f"trials must be at least 1, got {self.trials}")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class StabilityReport:
    """Counts over all trials plus the agreement with the exact criterion."""

    trials: int
    exists_count: int
    unique_count: int
    verdict: StabilityVerdict
    nondegenerate_expected: bool
    agreement: bool
    perturbed_points_sample: list[list[list[float]]]

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "exists_count": self.exists_count,
            "unique_count": self.unique_count,
            "verdict": self.verdict.value,
            "nondegenerate_expected": self.nondegenerate_expected,
            "agreement": self.agreement,
            "perturbed_points_sample": self.perturbed_points_sample,
        }


def perturb_instance(
    inst: Instance, delta: float, sub_seed: int, *, paper_mode: bool = False
) -> Instance:
    """Perturbed copy of the instance at exact data distance ``delta``.

    The data-space norm is Frobenius on the matrix part plus Euclidean on the
    vector part, combined root-sum-square.  Random perturbations draw
    standard-normal directions from the given sub-seed and rescale to land on
    the radius exactly.
    """
    if delta < 0:
        raise ValidationError(f"delta must be nonnegative, got {delta}")
    if delta == 0.0:
        return inst
    if paper_mode:
        E = np.zeros_like(inst.A)
        e = np.full(inst.m, delta / np.sqrt(inst.m))
    else:
        rng = rng_for(sub_seed)
        E = rng.standard_normal(inst.A.shape)
        e = rng.standard_normal(inst.m)
        norm = np.sqrt(np.sum(E * E) + e @ e)
        E *= delta / norm
        e *= delta / norm
    return Instance.from_arrays(inst.A + E, inst.b + e, inst.s, inst.tol)


def default_probe_epsilon(report: LandscapeReport) -> float:
    """Quarter of the smallest distance between distinct stationary points."""
    xs = [p.point.x for p in report.points]
    if len(xs) < 2:
        return 1e-2
    gaps = [
        float(np.linalg.norm(a - b))
        for i, a in enumerate(xs)
        for b in xs[i + 1 :]
    ]
    return 0.25 * min(gaps)


def probe_strong_stability(
    inst: Instance,
    point: StationaryPoint,
    cfg: StabilityProbeConfig,
) -> StabilityReport:
    """Probe one stationary point against seeded perturbations of radius delta.

    A trial succeeds when some stationary point of the perturbed problem lies
    within ``epsilon`` of the probed point and is the only one within
    ``2 * epsilon``; the verdict is stable evidence exactly when every trial
    succeeds.  ``agreement`` records whether that matches the nondegeneracy
    certificate, which characterizes strong stability exactly.
    """
    cfg.validate()
    x_bar = point.point.x
    r = 2.0 * cfg.epsilon

    def one_trial(t: int) -> tuple[bool, bool, list[list[float]]]:
        perturbed = perturb_instance(
            inst, cfg.delta, spawn_seed(cfg.seed, t), paper_mode=cfg.paper_mode
        )
        rep = enumerate_stationary(perturbed)
        dists = [float(np.linalg.norm(p.point.x - x_bar)) for p in rep.points]
        exists = any(d <= cfg.epsilon for d in dists)
        in_r = [p for p, d in zip(rep.points, dists) if d <= r]
        unique = exists and len(in_r) == 1
        nearby = [[float(v) for v in p.point.x] for p in in_r]
        return exists, unique, nearby

    outcomes = [one_trial(t) for t in range(cfg.trials)]
    exists_count = sum(e for e, _, _ in outcomes)
    unique_count = sum(u for _, u, _ in outcomes)
    verdict = (
        StabilityVerdict.STABLE if unique_count == cfg.trials else StabilityVerdict.UNSTABLE
    )
    expected = point.cert.nondegenerate
    return StabilityReport(
        trials=cfg.trials,
        exists_count=exists_count,
        unique_count=unique_count,
        verdict=verdict,
        nondegenerate_expected=expected,
        agreement=(verdict is StabilityVerdict.STABLE) == expected,
        perturbed_points_sample=[nearby for _, _, nearby in outcomes[:10]],
    )
