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

The sweep reads the report's per-size arrays, not its records: the stars
and links come from lex-rank arithmetic on the support indices, the events
are ordered by one ``np.lexsort`` and each level finds its place among them
by ``np.searchsorted``; only the union-find over the links is a Python loop.
A :class:`SweepResult` keeps its columns and writes its JSON rows from them
(``to_records``); its ``intervals`` and ``transitions`` are built on their
first read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import writer
from .model import Instance, validate_instance
from .stationarity import PointKind, cell_attachment
from .enumeration import (
    LandscapeReport,
    _combinations,
    _lex_rank,
    support_min_table,
    values_tie,
)

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


@dataclass(frozen=True)
class _Rows:
    """A list of dicts of one shape for ``writer.dumps``: ``write(level)`` is its text."""

    write: Callable[[int], str]

    def json_text(self, level: int) -> str:
        return self.write(level)


@dataclass(eq=False)
class SweepResult:
    """Interval counts and the transition audit, as columns.

    ``values`` holds the first value of each run of tied stationary values,
    in increasing order, and ``counts`` the component count of each of the
    ``len(values) + 1`` intervals they bound; the outer bounds are nominal,
    ``values[0] - 1`` and ``values[-1] + 1``.  Run ``g`` holds the points
    ``starts[g]`` up to ``starts[g + 1]`` of ``kinds`` (report order) and may
    change the count by ``admissible_lo[g]`` to ``admissible_hi[g]``.  The
    audit columns are empty unless ``applicable``.  ``intervals`` and
    ``transitions`` are built on their first read; ``to_records`` writes the
    report from the columns.
    """

    values: np.ndarray
    counts: np.ndarray
    applicable: bool
    all_admissible: bool | None
    kinds: list[PointKind]
    starts: np.ndarray
    admissible_lo: np.ndarray
    admissible_hi: np.ndarray

    def _bounds(self) -> list[float]:
        values = self.values.tolist()
        return [values[0] - 1.0, *values, values[-1] + 1.0]

    @functools.cached_property
    def intervals(self) -> list[SweepInterval]:
        bounds = self._bounds()
        return [SweepInterval(lo, hi, q)
                for lo, hi, q in zip(bounds, bounds[1:], self.counts.tolist())]

    @functools.cached_property
    def transitions(self) -> list[Transition]:
        if not self.applicable:
            return []
        ends = [*self.starts.tolist()[1:], len(self.kinds)]
        delta = np.diff(self.counts).tolist()
        return [Transition(value, self.kinds[start:end], d, lo, hi, lo <= d <= hi)
                for value, start, end, d, lo, hi in zip(
                    self.values.tolist(), self.starts.tolist(), ends, delta,
                    self.admissible_lo.tolist(), self.admissible_hi.tolist())]

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

    def to_records(self) -> dict:
        """``to_dict`` with the intervals and transitions as rows, for ``writer.dumps``."""
        return {"intervals": _Rows(self._interval_rows),
                "transitions": _Rows(self._transition_rows),
                "applicable": self.applicable}

    def _interval_rows(self, level: int) -> str:
        first1, separator1, last1 = writer.frame(level + 1)
        first2, separator2, last2 = writer.frame(level + 2)
        template = (f'{{{first1}"interval": [{first2}%s{separator2}%s{last2}]'
                    f'{separator1}"q": %d{last1}}}')
        bounds = writer.numbers(self._bounds())
        return writer.rows([template % row for row in zip(
            bounds, bounds[1:], self.counts.tolist())], level)

    def _transition_rows(self, level: int) -> str:
        if not self.applicable:
            return "[]"
        first1, separator1, last1 = writer.frame(level + 1)
        template = (f'{{{first1}"value": %s{separator1}"kind": %s{separator1}"delta": %d'
                    f'{separator1}"admissible": %s{last1}}}')
        # A run's kind is its first point's, unless it has several points.
        quoted = {kind: writer.string(kind.value) for kind in PointKind}
        starts = self.starts.tolist()
        kinds = [quoted[self.kinds[start]] for start in starts]
        ends = [*starts[1:], len(self.kinds)]
        for g in np.flatnonzero(np.diff(starts, append=len(self.kinds)) > 1).tolist():
            kinds[g] = writer.string(",".join(k.value for k in self.kinds[starts[g]:ends[g]]))
        delta = np.diff(self.counts)
        admissible = (self.admissible_lo <= delta) & (delta <= self.admissible_hi)
        return writer.rows([template % row for row in zip(
            writer.numbers(self.values.tolist()), kinds, delta.tolist(),
            np.where(admissible, "true", "false").tolist())], level)


def _level_counts(n: int, s: int, value: np.ndarray, lower: np.ndarray,
                  levels) -> list[int]:
    """Component count of the lower level set at each of the increasing ``levels``.

    ``value`` and ``lower`` hold the subspace minima of the size-s and the
    size-(s-1) supports in lex order (``lower`` is empty at s = 0).  Each
    size-s support enters at its minimum.  The star of an (s-1)-support
    ``U`` is the s-supports that contain it; each member is linked to the
    star's lowest, the first of them at the least value, once it and ``U``
    are both inside the level.  Events are ordered by value, nodes before
    links, then by their two supports' rows.
    """
    supports = _combinations(n, s)
    N = len(supports)
    if s:
        # Row i * s + k: support i without its k-th index.
        faces = np.broadcast_to(supports[:, None], (N, s, s))[:, ~np.eye(s, dtype=bool)]
        star = _lex_rank(n, faces.reshape(N * s, s - 1))
    else:
        star = np.zeros(0, dtype=int)
    member = np.arange(N).repeat(s)
    order = np.lexsort((member, value[member], star))
    first = np.ones(len(order), dtype=bool)
    first[1:] = star[order[1:]] != star[order[:-1]]
    low = np.empty(len(lower), dtype=int)
    low[star[order[first]]] = member[order[first]]
    linked = member != low[star]
    star, member = star[linked], member[linked]

    event = np.concatenate([value, np.maximum(lower[star], value[member])])
    is_link = np.repeat([False, True], [N, len(member)])
    head = np.concatenate([np.arange(N), low[star]])
    tail = np.concatenate([np.arange(N), member])
    order = np.lexsort((tail, head, is_link, event))
    levels = np.asarray(levels, dtype=float)
    with np.errstate(invalid="ignore"):
        bound = levels + LEVEL_BAND_REL * (1.0 + np.abs(levels))
    # The bound of a level of -inf or NaN is NaN, which no value is at or below.
    ends = np.where(np.isnan(bound), 0, np.searchsorted(event[order], bound, side="right"))

    # +1 per node, -1 per link that joins two components, in event order.
    step = np.where(is_link[order], 0, 1)
    parent = list(range(N))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    links = np.flatnonzero(is_link[order][:ends.max(initial=0)])
    joins = []
    for row, a, b in zip(links.tolist(), head[order[links]].tolist(),
                         tail[order[links]].tolist()):
        if (ra := find(a)) != (rb := find(b)):
            parent[rb] = ra
            joins.append(row)
    step[joins] = -1
    return np.concatenate([[0], np.cumsum(step)])[ends].tolist()


def component_count(inst: Instance, level: float) -> int:
    """Exact number of connected components of the lower level set.

    Nodes are the size-s supports whose subspace minimum lies at or below the
    level; two of them are connected when the minimum over their common
    subspace does too.
    """
    validate_instance(inst)
    table = support_min_table(inst)
    value, lower = (np.array([sub.value for sub in table.values() if len(sub.support) == k])
                    for k in (inst.s, inst.s - 1))
    return _level_counts(inst.n, inst.s, value, lower, [level])[0]


def _run_starts(values: list[float]) -> list[int]:
    """Where each run of tied ``values`` starts; a value joins a run that its first value ties."""
    starts: list[int] = []
    for i, v in enumerate(values):
        if not starts or not values_tie(values[starts[-1]], v):
            starts.append(i)
    return starts


def sweep_levels(inst: Instance, report: LandscapeReport) -> SweepResult:
    """Component counts between stationary values plus the transition audit.

    The counts are read from the report's per-size arrays, so ``report``
    must be the enumeration of ``inst``, whose report order lists its points
    by value (the empty support is always one).  The outer intervals are
    counted at ``-inf``, below every node, and ``+inf``, past every node and
    link; their printed bounds ``v_min - 1`` and ``v_max + 1`` are nominal.
    The audit is not applicable when the report has a degenerate point; the
    interval counts are still emitted.
    """
    validate_instance(inst)
    n, s, blocks, order = inst.n, inst.s, report._blocks, report._order
    value = np.concatenate([block.value for block in blocks])[order]
    starts = np.array(_run_starts(value.tolist()), dtype=int)
    values = value[starts]
    midpoints = 0.5 * (values[:-1] + values[1:])
    lower = blocks[s - 1].value if s else np.zeros(0)
    counts = np.array([0] + _level_counts(n, s, blocks[s].value, lower, [*midpoints, math.inf]))

    applicable = report.degenerate == 0
    if not applicable:
        empty = np.zeros(0, dtype=int)
        return SweepResult(values, counts, applicable, None, [], empty, empty, empty)

    # Admissible change per point, by its support size: a size-s point
    # attaches its 0-cells, a size-(s-1) point may merge away its 1-cells.
    lo, hi = np.zeros(s + 1, dtype=int), np.zeros(s + 1, dtype=int)
    for k in range(s + 1):
        cell = cell_attachment(n, s, k)
        if cell.cell_dim == 0:
            lo[k] = hi[k] = cell.cell_count
        elif cell.cell_dim == 1:
            lo[k] = -cell.cell_count
    size = np.concatenate([np.full(len(block.value), k) for k, block in enumerate(blocks)])[order]
    fixpoint = np.concatenate([block.fixpoint for block in blocks])
    kinds = np.concatenate([block.kind for block in blocks])[(np.cumsum(fixpoint) - 1)[order]]
    lo, hi = (np.add.reduceat(column[size], starts) for column in (lo, hi))
    delta = np.diff(counts)
    all_admissible = bool(((lo <= delta) & (delta <= hi)).all())
    return SweepResult(values, counts, applicable, all_admissible, kinds.tolist(), starts, lo, hi)
