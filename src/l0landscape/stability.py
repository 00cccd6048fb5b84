"""Empirical strong-stability probe under random data perturbations.

Strong stability asks that every sufficiently small perturbation of the data
leaves exactly one M-stationary point near the original one.  Sampling cannot
prove that, so verdicts are labeled evidence; nondegeneracy supplies the
exact criterion, read from the point's reported kind, and the probe's role is
cross-validation of the two.

A trial only needs the stationary points of the perturbed problem within
``r = 2 * epsilon`` of the probed point ``x_bar``, so it solves only the
supports that can hold one.  Every enumerated point is exactly zero off its
support, so a point within ``r`` of ``x_bar`` is nonzero on every index of
``C = {i : |x_bar_i| > r}``, and its support contains ``C``.  The candidates
are the supports ``T`` with ``C <= T`` and ``|T| <= s``; they are solved by
the support table's own per-size solver, and those within ``r`` go through
the enumerator's own selector of points and report order, ``_fixpoints``.
The result is the enumerator's points within ``r``, bit for bit and in
report order, without classifying any of them.  Nothing beyond ``r`` is
seen: a point made degenerate by a farther continuum gets stable evidence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import NonFiniteDataError, ValidationError
from .model import Instance, complement_of, support_of, validate_instance
from .enumeration import LandscapeReport, _fixpoints, _solve_supports
from .stationarity import PointKind, SupportSubspace
from .util import rng_for, spawn_seed


# Coefficients of magnitude in [_EXTREME, 1 / _EXTREME] have sums of squares
# well within float64; _rescaled scales others by a power of two.
_EXTREME = 2.0**-480


class StabilityVerdict(str, Enum):
    STABLE = "StableEvidence"
    UNSTABLE = "UnstableEvidence"


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
        return asdict(self)


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


def _rescaled(xs: np.ndarray) -> tuple[int, np.ndarray]:
    """``(shift, xs * 2 ** -shift)``, an exact scale that keeps ``xs`` in range.

    Sums of squares of coefficients, and of their differences, overflow
    float64 from magnitudes near ``1e154`` on and underflow below about
    ``1e-154``.  Scaled, the largest magnitude lies in ``[0.5, 1)``; the
    shift is 0, so nothing changes, when it lies in ``[_EXTREME, 1 / _EXTREME]``.
    """
    top = float(np.max(np.abs(xs), initial=0.0))
    shift = 0 if top == 0.0 or _EXTREME <= top <= 1.0 / _EXTREME else math.frexp(top)[1]
    return shift, np.ldexp(xs, -shift)


def _distances(xs: list[np.ndarray], y: np.ndarray) -> list[float]:
    """``np.linalg.norm(x - y)`` for each ``x``, all taken after one ``_rescaled``."""
    shift, P = _rescaled(np.array([*xs, y]))
    return [math.ldexp(float(np.linalg.norm(p - P[-1])), shift) for p in P[:-1]]


def default_probe_epsilon(report: LandscapeReport) -> float:
    """Quarter of the smallest distance between distinct stationary points.

    Points are sorted by norm; by the reverse triangle inequality a pair closer
    than the best gap so far has norms within that gap, so each point meets
    only the later points in that window, widened by a relative ``1e-9`` for
    rounded norms.  ``np.linalg.norm`` is taken only within a relative ``1e-9``
    of a window's smallest squared distance, far wider than their rounding, so
    the result is the all-pairs minimum of the ``norm`` values exactly.
    Extreme coefficients are first scaled by an exact power of two
    (``_rescaled``), and the gap scaled back.
    """
    if len(report.points) < 2:
        return 1e-2
    shift, xs = _rescaled(np.array([p.x for p in report.points]))
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
    return 0.25 * math.ldexp(gap, shift)


def _near_stationary_points(inst: Instance, x_bar: np.ndarray,
                            r: float) -> tuple[list[np.ndarray], list[float]]:
    """The points of ``enumerate_stationary(inst)`` within ``r`` of ``x_bar``.

    Solves only the supports that contain ``C = support_of(x_bar, r)`` (see
    the module docstring for why no other support can hold such a point),
    all in one call of the support table's per-size solver, and returns those
    within ``r`` that ``_fixpoints`` keeps, in its order, each with its
    ``_distances`` value to ``x_bar``.  Nothing is classified.
    """
    validate_instance(inst)
    core = support_of(x_bar, r)
    rest = complement_of(core, inst.n)
    candidates = (tuple(sorted(core + extra))
                  for k in range(inst.s - len(core) + 1)
                  for extra in itertools.combinations(rest, k))
    subs = _solve_supports(inst, candidates, margins=False)
    distance = _distances([sub.x for sub in subs], x_bar)
    within = {sub.support: d for sub, d in zip(subs, distance) if d <= r}
    near = _fixpoints(sub for sub in subs if sub.support in within)
    return [sub.x for sub in near], [within[sub.support] for sub in near]


def probe_strong_stability(
    inst: Instance,
    point: SupportSubspace,
    *,
    epsilon: float,
    delta: float,
    trials: int,
    seed: int,
    paper_mode: bool = False,
) -> StabilityReport:
    """Probe one stationary point against seeded perturbations of radius delta.

    A trial succeeds when some stationary point of the perturbed problem lies
    within ``epsilon`` of the probed point and is the only one within
    ``2 * epsilon``; the verdict is stable evidence exactly when every trial
    succeeds.  Stable evidence is expected exactly when the point's kind is
    not ``DegeneratePoint``, the one degenerate verdict: a point on a
    continuum is degenerate even when its own certificate passes.
    ``agreement`` records whether the verdict matches that.  A trial
    solves only the supports that can hold a point within ``2 * epsilon``
    (see the module docstring).

    Trial ``t`` perturbs the data by exactly ``delta`` (0 is the identity)
    from the sub-seed ``spawn_seed(seed, t)``; ``paper_mode`` shifts ``b``
    by ``(delta / sqrt(m)) * ones`` instead of a random direction.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValidationError(f"epsilon must be finite and positive, got {epsilon}")
    if not (math.isfinite(delta) and delta >= 0):
        raise ValidationError(f"delta must be finite and nonnegative, got {delta}")
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    x_bar = point.x
    r = 2.0 * epsilon
    exists_count = unique_count = 0
    sample: list[list[list[float]]] = []
    for t in range(trials):
        perturbed = perturb_instance(inst, delta, spawn_seed(seed, t), paper_mode=paper_mode)
        try:
            near, distance = _near_stationary_points(perturbed, x_bar, r)
        except NonFiniteDataError as exc:
            raise ValidationError(
                f"delta={delta} gives perturbed data outside float64 range: {exc}") from exc
        exists = any(d <= epsilon for d in distance)
        exists_count += exists
        unique_count += exists and len(near) == 1
        if t < 10:
            sample.append([[float(v) for v in x] for x in near])
    verdict = StabilityVerdict.STABLE if unique_count == trials else StabilityVerdict.UNSTABLE
    expected = point.kind is not PointKind.DEGENERATE
    return StabilityReport(
        trials=trials,
        exists_count=exists_count,
        unique_count=unique_count,
        verdict=verdict,
        nondegenerate_expected=expected,
        agreement=(verdict is StabilityVerdict.STABLE) == expected,
        perturbed_points_sample=sample,
    )
