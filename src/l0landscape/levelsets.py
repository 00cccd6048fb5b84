"""Connected components of lower level sets and the level-sweep audit.

A lower level set of the constrained problem is a finite union of sublevel
sets of convex quadratics, one per size-s support; each piece is connected
(an ellipsoid under full rank, a convex set in general) and two pieces meet
exactly on their common coordinate subspace, where the intersection is again
such a sublevel set.  Components of the union therefore equal components of
the pairwise-intersection graph over size-s supports, which union-find counts
exactly, with no sampling.

The sweep walks the distinct stationary values in increasing order,
evaluates the component count on each open interval between them, and audits
the observed jumps against the admissible cell-attachment ranges: a minimizer
crossing must create exactly one component, a saddle crossing may merge away
between zero and ``n - s`` components, and lower-order crossings change
nothing.  Tied values are audited jointly by summing the per-point ranges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import Instance, Support, validate_instance
from .stationarity import PointKind, StationaryPoint, cell_attachment
from .enumeration import LandscapeReport, SupportSubspace, support_min_table, values_tie

# Values within this relative band of the level still count as inside it.
LEVEL_BAND_REL = 1e-12


@dataclass
class LevelSetGraph:
    """Intersection graph of the support pieces present at one level."""

    level: float
    nodes: list[Support]
    edges: list[tuple[Support, Support]]
    q: int


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
class TransitionAudit:
    applicable: bool
    transitions: list[Transition]
    all_admissible: bool | None


@dataclass
class SweepResult:
    intervals: list[SweepInterval]
    audit: TransitionAudit

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
                for t in self.audit.transitions
            ],
            "applicable": self.audit.applicable,
        }


def _within_level(value: float, level: float) -> bool:
    return value <= level + LEVEL_BAND_REL * (1.0 + abs(level))


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))
        self.components = size

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri
            self.components -= 1


def component_count(
    inst: Instance,
    level: float,
    *,
    table: dict[Support, SupportSubspace] | None = None,
) -> LevelSetGraph:
    """Exact number of connected components of the lower level set.

    Nodes are the size-s supports whose subspace minimum lies at or below the
    level; an edge joins two supports when the minimum over their common
    subspace does too.
    """
    validate_instance(inst)
    if table is None:
        table = support_min_table(inst)
    nodes = [
        S
        for S in itertools.combinations(range(inst.n), inst.s)
        if _within_level(table[S].min_value, level)
    ]
    index = {S: i for i, S in enumerate(nodes)}
    uf = _UnionFind(len(nodes))
    edges: list[tuple[Support, Support]] = []
    for S, T in itertools.combinations(nodes, 2):
        shared = tuple(sorted(set(S) & set(T)))
        if _within_level(table[shared].min_value, level):
            edges.append((S, T))
            uf.union(index[S], index[T])
    return LevelSetGraph(level=level, nodes=nodes, edges=edges, q=uf.components)


def _admissible_range(n: int, s: int, points) -> tuple[int, int]:
    """Admissible change of the component count across the points of one value."""
    lo = hi = 0
    for p in points:
        cell = cell_attachment(n, s, p.point.sparsity)
        if cell.cell_dim == 0:
            lo, hi = lo + cell.cell_count, hi + cell.cell_count
        elif cell.cell_dim == 1:
            lo -= cell.cell_count
    return lo, hi


def _group_values(points) -> list[tuple[float, list[StationaryPoint]]]:
    ordered = sorted(points, key=lambda p: p.value)
    groups: list[tuple[float, list[StationaryPoint]]] = []
    for p in ordered:
        if groups and values_tie(groups[-1][0], p.value):
            groups[-1][1].append(p)
        else:
            groups.append((p.value, [p]))
    return groups


def sweep_levels(inst: Instance, report: LandscapeReport) -> SweepResult:
    """Component counts between stationary values plus the transition audit.

    The counts are read from ``report.table``, so ``report`` must be the
    enumeration of ``inst``.  The audit is flagged not applicable when the
    report contains degenerate points or a continuum certificate; the
    interval counts are still emitted.
    """
    validate_instance(inst)
    groups = _group_values(report.points)
    if not groups:
        return SweepResult(intervals=[], audit=TransitionAudit(True, [], True))

    bounds = [groups[0][0] - 1.0] + [v for v, _ in groups] + [groups[-1][0] + 1.0]
    counts = [
        component_count(inst, 0.5 * (lo + hi), table=report.table).q
        for lo, hi in zip(bounds, bounds[1:])
    ]
    intervals = [
        SweepInterval(lo=lo, hi=hi, q=q) for (lo, hi), q in zip(zip(bounds, bounds[1:]), counts)
    ]

    applicable = report.degenerate == 0 and not report.continuum_detected
    if not applicable:
        return SweepResult(intervals=intervals, audit=TransitionAudit(False, [], None))

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
    return SweepResult(
        intervals=intervals,
        audit=TransitionAudit(
            applicable=True,
            transitions=transitions,
            all_admissible=all(t.admissible for t in transitions),
        ),
    )
