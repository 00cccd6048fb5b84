"""Empirical strong-stability probe under random data perturbations.

Strong stability asks that every sufficiently small perturbation of the data
leaves exactly one M-stationary point near the original one.  Sampling cannot
prove that, so verdicts are labeled evidence; nondegeneracy supplies the
exact criterion, and the probe's role is cross-validation of the two.

A trial only needs the stationary points of the perturbed problem within
``r = 2 * epsilon`` of the probed point ``x_bar``, so it solves only the
supports that can hold one.  Every enumerated point is exactly zero off its
support, so a point within ``r`` of ``x_bar`` is nonzero on every index of
``C = {i : |x_bar_i| > r}``, and its support contains ``C``.  The candidates
are the supports ``T`` with ``C <= T`` and ``|T| <= s``; they are solved by
the support table's own per-size solver, and those within ``r`` go through
the enumerator's own selector of points and report order, ``_fixpoints``.
The result is the enumerator's points within ``r``, bit for bit and in
report order, without classifying any of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .model import Instance, complement_of, support_of, validate_instance
from .enumeration import LandscapeReport, _fixpoints, _solve_supports
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
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValidationError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValidationError(f"delta must be finite and nonnegative, got {self.delta}")
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
    if not (math.isfinite(delta) and delta >= 0):
        raise ValidationError(f"delta must be finite and nonnegative, got {delta}")
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
    """Quarter of the smallest distance between distinct stationary points.

    Points are sorted by norm; by the reverse triangle inequality a pair closer
    than the best gap so far has norms within that gap, so each point meets
    only the later points in that window, widened by a relative ``1e-9`` for
    rounded norms.  ``np.linalg.norm`` is taken only within a relative ``1e-9``
    of a window's smallest squared distance, far wider than their rounding, so
    the result is the all-pairs minimum of the ``norm`` values exactly.
    """
    if len(report.points) < 2:
        return 1e-2
    xs = np.array([p.point.x for p in report.points])
    norms = np.linalg.norm(xs, axis=1)
    order = np.argsort(norms)
    xs, norms = xs[order], norms[order]
    gap = math.inf
    for i in range(len(xs) - 1):
        end = np.searchsorted(norms, (norms[i] + gap) * (1.0 + 1e-9), side="right")
        if end > i + 1:
            diff = xs[i] - xs[i + 1 : end]
            sq = np.einsum("ij,ij->i", diff, diff)
            for j in np.nonzero(sq <= sq.min() * (1.0 + 1e-9))[0]:
                gap = min(gap, float(np.linalg.norm(diff[j])))
    return 0.25 * gap


def _near_stationary_points(inst: Instance, x_bar: np.ndarray, r: float) -> list[np.ndarray]:
    """The points of ``enumerate_stationary(inst)`` within ``r`` of ``x_bar``.

    Solves only the supports that contain ``C = support_of(x_bar, r)`` (see
    the module docstring for why no other support can hold such a point),
    all in one call of the support table's per-size solver, and returns those
    within ``r`` that ``_fixpoints`` keeps, in its order.  Nothing is classified.
    """
    validate_instance(inst)
    core = support_of(x_bar, r)
    rest = complement_of(core, inst.n)
    candidates = (tuple(sorted(core + extra))
                  for k in range(inst.s - len(core) + 1)
                  for extra in itertools.combinations(rest, k))
    near = _fixpoints(sub for sub in _solve_supports(inst, candidates)
                      if np.linalg.norm(sub.argmin - x_bar) <= r)
    return [sub.argmin for sub in near]


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
    certificate, which characterizes strong stability exactly.  A trial
    solves only the supports that can hold a point within ``2 * epsilon``
    (see the module docstring).
    """
    cfg.validate()
    x_bar = point.point.x
    r = 2.0 * cfg.epsilon
    exists_count = unique_count = 0
    sample: list[list[list[float]]] = []
    for t in range(cfg.trials):
        perturbed = perturb_instance(
            inst, cfg.delta, spawn_seed(cfg.seed, t), paper_mode=cfg.paper_mode
        )
        near = _near_stationary_points(perturbed, x_bar, r)
        exists = any(np.linalg.norm(x - x_bar) <= cfg.epsilon for x in near)
        exists_count += exists
        unique_count += exists and len(near) == 1
        if t < 10:
            sample.append([[float(v) for v in x] for x in near])
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
        perturbed_points_sample=sample,
    )
