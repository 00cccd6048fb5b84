"""Connected components of lower level sets and the level-sweep audit.

A lower level set of the constrained problem is a finite union of sublevel
sets of convex quadratics, one per size-s support; each piece is connected
(an ellipsoid under full rank, a convex set in general) and two pieces meet
exactly on their common coordinate subspace, where the intersection is again
such a sublevel set.  Pieces that share less than s - 1 indices are joined by
a chain of one-index swaps below their common minimum, so one union-find pass
over the supports and their swap links, in value order, counts exactly.

The sweep reads that pass at the midpoint of every open interval between
consecutive stationary values and audits the observed jumps against the
admissible cell-attachment ranges: a minimizer crossing must create exactly
one component, a saddle crossing may merge away between zero and ``n - s``
components, and lower-order crossings change nothing.  Tied values are
audited jointly by summing the per-point ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, Support, validate_instance
from .stationarity import PointKind, StationaryPoint, cell_attachment
from .enumeration import LandscapeReport, SupportSubspace, support_min_table, values_tie

# Values within this relative band of the level still count as inside it.
LEVEL_BAND_REL = 1e-12


@dataclass
class SweepInterval:
    lo: float
    hi: float
    q: int


@dataclass
class Transition:
    value: float
    kinds: list[PointKind]
    delta: int
    admissible_lo: int
    admissible_hi: int
    admissible: bool


@dataclass
class SweepResult:
    """Interval counts and the transition audit, empty unless ``applicable``."""

    intervals: list[SweepInterval]
    applicable: bool
    transitions: list[Transition]
    all_admissible: bool | None

    def to_dict(self) -> dict:
        return {
            "intervals": [
                {"interval": [iv.lo, iv.hi], "q": iv.q} for iv in self.intervals
            ],
            "transitions": [
                {
                    "value": t.value,
                    "kind": ",".join(k.value for k in t.kinds),
                    "delta": t.delta,
                    "admissible": t.admissible,
                }
                for t in self.transitions
            ],
            "applicable": self.applicable,
        }


def _within_level(value: float, level: float) -> bool:
    return value <= level + LEVEL_BAND_REL * (1.0 + abs(level))


def _level_counts(inst: Instance, table: dict[Support, SupportSubspace],
                  levels: list[float]) -> list[int]:
    """Component count of the lower level set at each of the increasing ``levels``.

    Each size-s support enters at its subspace minimum; each superset of an
    (s-1)-support ``U`` is linked to the lowest one once it and ``U`` are both
    inside the level.  Nodes precede links of equal value.
    """
    supports = [S for S in table if len(S) == inst.s]
    value = [table[S].min_value for S in supports]
    stars: dict[Support, list[int]] = {}
    for i, S in enumerate(supports):
        for k in range(inst.s):
            stars.setdefault(S[:k] + S[k + 1:], []).append(i)
    events = [(v, 0, i, i) for i, v in enumerate(value)]
    for U, star in stars.items():
        low = min(star, key=value.__getitem__)
        events += [(max(table[U].min_value, value[i]), 1, low, i) for i in star if i != low]
    events.sort()
    parent = list(range(len(supports)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    counts, q, pos = [], 0, 0
    for level in levels:
        while pos < len(events) and _within_level(events[pos][0], level):
            _, is_link, i, j = events[pos]
            pos += 1
            if not is_link:
                q += 1
            elif (ri := find(i)) != (rj := find(j)):
                parent[rj] = ri
                q -= 1
        counts.append(q)
    return counts


def component_count(inst: Instance, level: float) -> int:
    """Exact number of connected components of the lower level set.

    Nodes are the size-s supports whose subspace minimum lies at or below the
    level; two of them are connected when the minimum over their common
    subspace does too.
    """
    validate_instance(inst)
    return _level_counts(inst, support_min_table(inst), [level])[0]


def _admissible_range(n: int, s: int, points) -> tuple[int, int]:
    """Admissible change of the component count across the points of one value."""
    lo = hi = 0
    for p in points:
        cell = cell_attachment(n, s, len(p.support))
        if cell.cell_dim == 0:
            lo, hi = lo + cell.cell_count, hi + cell.cell_count
        elif cell.cell_dim == 1:
            lo -= cell.cell_count
    return lo, hi


def _group_values(points) -> list[tuple[float, list[StationaryPoint]]]:
    """Runs of tied values among ``points``, which must come in report order."""
    groups: list[tuple[float, list[StationaryPoint]]] = []
    for p in points:
        if groups and values_tie(groups[-1][0], p.value):
            groups[-1][1].append(p)
        else:
            groups.append((p.value, [p]))
    return groups


def sweep_levels(inst: Instance, report: LandscapeReport) -> SweepResult:
    """Component counts between stationary values plus the transition audit.

    The counts are read from ``report.table``, so ``report`` must be the
    enumeration of ``inst``, whose report order lists its points by value
    (the empty support is always one).  The audit is not applicable when the
    report has a degenerate point; the interval counts are still emitted.
    """
    validate_instance(inst)
    groups = _group_values(report.points)
    bounds = [groups[0][0] - 1.0] + [v for v, _ in groups] + [groups[-1][0] + 1.0]
    midpoints = [0.5 * (lo + hi) for lo, hi in zip(bounds, bounds[1:])]
    counts = _level_counts(inst, report.table, midpoints)
    intervals = [
        SweepInterval(lo=lo, hi=hi, q=q) for (lo, hi), q in zip(zip(bounds, bounds[1:]), counts)
    ]

    applicable = report.degenerate == 0
    if not applicable:
        return SweepResult(intervals, applicable, [], None)

    transitions: list[Transition] = []
    for i, (value, members) in enumerate(groups):
        delta = counts[i + 1] - counts[i]
        lo, hi = _admissible_range(inst.n, inst.s, members)
        transitions.append(
            Transition(
                value=value,
                kinds=[p.kind for p in members],
                delta=delta,
                admissible_lo=lo,
                admissible_hi=hi,
                admissible=lo <= delta <= hi,
            )
        )
    return SweepResult(intervals, applicable, transitions, all(t.admissible for t in transitions))
