"""Output checks for every benchmark operation.

Each check takes the parsed JSON report of one CLI command and returns a
list of problems (empty when the output is correct).  The checks hold for
any seed: they follow from the problem's structure and from an independent
least-squares oracle, never from recorded numbers.  For the default seed the
reports are also compared against reference output recorded from the seed
code (:func:`compare_reference`).

Generic Gaussian instances have, with probability one, exactly one
stationary point per support of size at most ``s``, all nondegenerate, with
the kind fixed by the support size.  Near-ties between stationary values do
occur at a rate of a few percent per instance (a tiny coefficient on a
nested support), so no check relies on values being distinct.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

# Floats compared against the oracle or the reference may differ by this
# much relative to max(1, |value|): the program and the oracle solve the same
# least-squares problems by different LAPACK paths.
FLOAT_TOL = 1e-9
# Iterates of IHT stop at a step of 1e-12 relative, so their coordinates are
# only that close to the exact subspace minimizer.
IHT_X_TOL = 1e-6

KIND_BY_GAP = {0: "LocalMinimizer", 1: "SaddlePoint"}


def _close(a: float, b: float, tol: float = FLOAT_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def objective(A: np.ndarray, b: np.ndarray, x) -> float:
    r = A @ np.asarray(x, dtype=float) - b
    return 0.5 * float(r @ r)


def subspace_minimum(A: np.ndarray, b: np.ndarray, support) -> tuple[np.ndarray, float]:
    """Least-squares minimizer over the coordinate subspace of ``support``."""
    x = np.zeros(A.shape[1])
    cols = list(support)
    if cols:
        x[cols] = np.linalg.lstsq(A[:, cols], b, rcond=None)[0]
    return x, objective(A, b, x)


class Oracle:
    """Stationary points of a generic instance, solved on first use."""

    def __init__(self, A: np.ndarray, b: np.ndarray, s: int):
        self.A, self.b, self.s = A, b, s

    @functools.cached_property
    def points(self) -> dict[tuple, tuple[np.ndarray, float]]:
        """Minimizer and value on every support of size at most s, keyed by 1-based support."""
        return {
            tuple(i + 1 for i in S): subspace_minimum(self.A, self.b, S)
            for k in range(self.s + 1)
            for S in itertools.combinations(range(self.A.shape[1]), k)
        }


def probe_epsilon(points: dict) -> float:
    """Quarter of the smallest distance between two stationary points.

    This is the data-driven locality radius the program uses by default.
    """
    xs = np.array([x for x, _ in points.values()])
    if len(xs) < 2:
        return 1e-2
    d = np.linalg.norm(xs[:, None, :] - xs[None, :, :], axis=2)
    return 0.25 * float(d[np.triu_indices(len(xs), 1)].min())


def check_analyze_generic(out: dict, s: int, oracle: dict) -> list[str]:
    problems = []
    supports = [tuple(p["support"]) for p in out["points"]]
    if sorted(supports) != sorted(oracle):
        problems.append(f"supports are not all {len(oracle)} supports of size <= s "
                        f"(got {len(supports)})")
        return problems
    for p, S in zip(out["points"], supports):
        expected = KIND_BY_GAP.get(s - len(S), "LowerOrderStationary")
        if p["kind"] != expected:
            problems.append(f"support {S} has kind {p['kind']}, expected {expected}")
        x, value = oracle[S]
        if not _close(p["value"], value):
            problems.append(f"support {S} value {p['value']!r} != oracle {value!r}")
        scale = max(1.0, float(np.max(np.abs(x), initial=0.0)))
        if np.max(np.abs(np.asarray(p["x"]) - x), initial=0.0) > FLOAT_TOL * scale:
            problems.append(f"support {S} x differs from the oracle")
    values = [p["value"] for p in out["points"]]
    if values != sorted(values):
        problems.append("points are not sorted by value")
    if out["degenerate"] != 0 or out["continuum_detected"]:
        problems.append("generic instance reported degenerate points or a continuum")
    if not out["morse_holds"]:
        problems.append("morse_holds is false")
    return problems


def check_analyze_degenerate(out: dict) -> list[str]:
    problems = []
    if not out["continuum_detected"]:
        problems.append("continuum_detected is false on a degenerate instance")
    if out["morse_applicable"]:
        problems.append("Morse audit reported applicable on a degenerate instance")
    return problems


def check_sweep(out: dict, degenerate: bool) -> list[str]:
    problems = []
    intervals = out["intervals"]
    if not intervals:
        return ["sweep reported no intervals"]
    if intervals[0]["q"] != 0:
        problems.append(f"q={intervals[0]['q']} below the lowest value, expected 0")
    if intervals[-1]["q"] != 1:
        problems.append(f"q={intervals[-1]['q']} above the highest value, expected 1")
    for a, c in zip(intervals, intervals[1:]):
        if a["interval"][1] != c["interval"][0] or not a["interval"][0] < a["interval"][1]:
            problems.append(f"intervals {a['interval']} and {c['interval']} are not contiguous")
            break
    if degenerate:
        if out["applicable"] or out["transitions"]:
            problems.append("transition audit applied to a degenerate instance")
    else:
        if not out["applicable"]:
            problems.append("transition audit not applicable on a generic instance")
        if len(out["transitions"]) != len(intervals) - 1:
            problems.append("one transition per stationary value expected")
        bad = [t["value"] for t in out["transitions"] if not t["admissible"]]
        if bad:
            problems.append(f"inadmissible transitions at {bad[:3]}")
    return problems


def check_iht(out: dict, A: np.ndarray, b: np.ndarray, s: int,
              analyzed: dict | None) -> list[str]:
    """A converged iterate is the stationary point of its own support.

    With ``analyzed`` (the analyze report of the same instance) it must also
    match one of the enumerated points in support and value.
    """
    problems = []
    support = tuple(out["support"])
    if len(support) > s:
        problems.append(f"iterate has {len(support)} nonzeros but s={s}")
    if not out["converged"]:
        return problems
    x_star, value = subspace_minimum(A, b, [i - 1 for i in support])
    if not out["is_m_stationary"]:
        problems.append("converged iterate is not M-stationary")
    if np.max(np.abs(np.asarray(out["x"]) - x_star)) > IHT_X_TOL * max(1.0, np.max(np.abs(x_star))):
        problems.append(f"iterate differs from the minimizer on its support {support}")
    if analyzed is not None:
        match = [p for p in analyzed["points"] if tuple(p["support"]) == support]
        if not match:
            problems.append(f"iterate support {support} is not an enumerated support")
        elif not _close(objective(A, b, out["x"]), match[0]["value"], IHT_X_TOL):
            problems.append(f"iterate value differs from the enumerated point on {support}")
    return problems


def check_probe(out: dict, trials: int) -> list[str]:
    problems = []
    if out["trials"] != trials:
        problems.append(f"probe ran {out['trials']} trials, asked for {trials}")
    if not out["agreement"]:
        problems.append(f"probe verdict {out['verdict']} disagrees with nondegeneracy "
                        f"(exists {out['exists_count']}, unique {out['unique_count']})")
    if out["point"]["kind"] != "LocalMinimizer":
        problems.append(f"point 0 has kind {out['point']['kind']}, expected LocalMinimizer")
    return problems


def check_generic(out: dict, trials: int, seed: int) -> list[str]:
    problems = []
    if out["trials"] != trials or out["seed"] != seed:
        problems.append(f"generic echoed trials={out['trials']} seed={out['seed']}")
    for key in ("all_nondegenerate_fraction", "minimizers_active_fraction",
                "s_regular_fraction"):
        if out[key] != 1.0:
            problems.append(f"{key} = {out[key]} on Gaussian data, expected 1.0")
    return problems


def compare_reference(ref, out, path: str = "$") -> list[str]:
    """Differences between a report and its recorded reference.

    Every key, list length and non-float value of the reference must be
    reproduced exactly, and floats within ``FLOAT_TOL``.  Keys the
    reference lacks are allowed, so reports may gain fields.
    """
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [f"{path}: expected an object"]
        problems = []
        for key, value in ref.items():
            if key not in out:
                problems.append(f"{path}.{key}: missing")
            else:
                problems.extend(compare_reference(value, out[key], f"{path}.{key}"))
        return problems
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: expected a list of length {len(ref)}"]
        problems = []
        for i, (r, o) in enumerate(zip(ref, out)):
            problems.extend(compare_reference(r, o, f"{path}[{i}]"))
            if len(problems) > 5:
                break
        return problems
    if isinstance(ref, float) and not isinstance(out, bool) and isinstance(out, (int, float)):
        if ref == out or (math.isfinite(ref) and _close(ref, float(out))):
            return []
        return [f"{path}: {out!r} != reference {ref!r}"]
    if type(ref) is not type(out) or ref != out:
        return [f"{path}: {out!r} != reference {ref!r}"]
    return []
