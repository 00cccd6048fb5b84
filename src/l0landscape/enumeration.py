"""Exhaustive M-stationary-point enumeration and landscape reporting.

Every support of size at most ``s`` is solved once by least squares on its
column submatrix; the points, their ND2 verdicts, the s-regularity verdict
and the level sweep are all read from that one table.  The table is a list
of per-size blocks (``_Block``): the size-k block holds the ``(C(n, k), k)``
lex-ordered index array of the size-k supports and, row by row, their
``(N, n)`` argmins, values, fixpoint mask and rank verdicts, and, for its
fixpoints, their margins and kinds.  A block is built in chunks of at most
``_BLOCK`` supports, each by a few stacked calls rather than numpy calls per
support: one call of numpy's least-squares gufunc gives a chunk's argmins
and, from the singular values of the same LAPACK ``gelsd`` that solves each
support, their ranks; one stacked ``objective`` gives their values, one
stacked ``gradient`` over the chunk's fixpoints gives, through
``point_margins``, each point's stationarity residual and ND1 margin, and
one ``classify`` call their verdicts; no gradient is kept.  Each solution is
M-stationary by construction because its gradient vanishes on the solved
support, which contains the solution's own support.  Two solutions are the
same point exactly when their supports under ``zero_tol`` agree, so the
points are the fixpoints, the supports whose solve has exactly that support.
A solve vanishes off its support, so those are the supports all of whose
solved coefficients exceed ``zero_tol``: one mask per chunk.

Rank-deficient solves certify a continuum of stationary points; the point
each one chases to is made degenerate as the table is built, so every table
carries final kinds.  One summary (``_summarize``) reads every report fact
from the blocks with array reductions, and report order (value, then
support) is one ``np.lexsort``.  Records are built only where a caller reads
them: a report builds its ``table`` and ``points``, one
:class:`SupportSubspace` per support, on their first read, and a point is
its table entry, so ``report.table[p.support] is p``; ``support_min_table``
builds them at once.  ``analyze``'s report writes its points straight from
the blocks (``_PointRows``), ``sweep_levels`` reads the blocks, and the
genericity experiment and the stability probe build no record.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import writer
from .errors import ValidationError
from .linalg import numerical_rank, solve_normal_equations
from .model import (
    Instance,
    Support,
    ToleranceConfig,
    instance_to_dict,
    objective,
    support_of,
    support_to_json,
    validate_instance,
)
from .stationarity import PointKind, SupportSubspace, classify, point_margins
from .util import integer, rng_for

logger = logging.getLogger(__name__)

# Relative tolerance for detecting ties among stationary values.
VALUE_TIE_REL = 1e-9

# Supports per stacked call.  Larger blocks leave the per-support cost where
# it is but make the temporaries of the largest sizes (the (N, m, k) stack,
# the values' and gradients' products) tens of MB, which the allocator then
# keeps: peak RSS at (14, 20, 7) rose by about 40 MB without blocks.
_BLOCK = 4096


@dataclass(eq=False)
class LandscapeReport:
    """Full enumeration result for one instance.

    ``r`` counts local minimizers, ``r1`` saddle points.  The Morse relation
    compares ``morse_lhs = (n - s) * r1`` against ``morse_rhs = r - 1``; it is
    guaranteed only when the matrix is s-regular, all points are nondegenerate,
    and stationary values are pairwise distinct, so ``hypothesis_violated``
    records whenever any of that fails (the verdict is still computed).  Under
    that hypothesis every support of size at most s is a point, so
    ``r = C(n, s)``, ``r1 = C(n, s - 1)``, ``lower_order`` is the sum of
    ``C(n, k)`` over ``k < s - 1`` (``enumerate_stationary`` checks these
    three) and the relation holds by arithmetic; the data decide only the
    order of the values, which ``sweep_levels`` audits.
    The counts and verdicts are read from the per-size arrays of the support
    table, which the report keeps with its report order.  ``table`` holds
    their records, the subspace minimum of every support of size at most s,
    and ``points`` the fixpoint entries among them in report order, so
    ``table[p.support] is p``.  Both are built on their first read, once;
    ``to_records`` writes the points from the arrays and builds none.  The
    table is not serialized.
    """

    r: int
    r1: int
    lower_order: int
    degenerate: int
    s_regular: bool
    s_regularity_witness: Support | None
    morse_lhs: int
    morse_rhs: int
    morse_holds: bool
    continuum_detected: bool
    hypothesis_violated: bool
    _blocks: list[_Block] = field(repr=False)
    _order: np.ndarray = field(repr=False)

    @functools.cached_property
    def table(self) -> dict[Support, SupportSubspace]:
        return {sub.support: sub for sub in _records(self._blocks)}

    @functools.cached_property
    def points(self) -> list[SupportSubspace]:
        subs = list(self.table.values())
        return [subs[i] for i in self._order.tolist()]

    def to_dict(self) -> dict:
        """The points, as dicts, then every summary field, in field order."""
        d = self.to_records()
        d["points"] = [p.to_dict() for p in self.points]
        return d

    def to_records(self) -> dict:
        """``to_dict`` with the points as one ``_PointRows``, for ``writer.dumps``."""
        d = {"points": _PointRows(self._blocks, self._order)}
        d.update((f.name, getattr(self, f.name)) for f in fields(self)
                 if not f.name.startswith("_"))
        d["s_regularity_witness"] = support_to_json(self.s_regularity_witness)
        return d


@dataclass
class GenericityReport:
    """Monte-Carlo outcome over random Gaussian data."""

    trials: int
    all_nondegenerate_fraction: float
    minimizers_active_fraction: float
    s_regular_fraction: float
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


class _Block(NamedTuple):
    """The supports of one size k in a support table, row by row.

    ``supports`` is their ``(N, k)`` index array, ``x`` the ``(N, n)``
    argmins, and ``value``, ``fixpoint`` and ``full_rank`` hold one entry
    per row.  The last five fields hold one entry per fixpoint row, in row
    order: stationarity residuals, ND1 margins, ND1 verdicts, near-degenerate
    flags and kinds (``PointKind`` objects).  They are ``None`` when the
    block was solved without margins.
    """

    supports: np.ndarray
    x: np.ndarray
    value: np.ndarray
    fixpoint: np.ndarray
    full_rank: np.ndarray
    resid: np.ndarray | None
    nd1_min_abs: np.ndarray | None
    nd1_holds: np.ndarray | None
    near: np.ndarray | None
    kind: np.ndarray | None


def enumerate_supports(n: int, s: int) -> Iterator[Support]:
    """All subsets of {0, ..., n-1} with at most s elements, in (size, lex) order."""
    if not 0 <= s <= n:
        raise ValidationError(f"need 0 <= s <= n, got n={n}, s={s}")
    for k in range(s + 1):
        yield from itertools.combinations(range(n), k)


def _combinations(n: int, k: int) -> np.ndarray:
    """The ``(C(n, k), k)`` index array of the size-k subsets of {0, ..., n-1}, in lex order."""
    count = math.comb(n, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    return np.fromiter(flat, dtype=int, count=count * k).reshape(count, k)


def _size_indices(n: int, s: int) -> list[np.ndarray]:
    """The index arrays of a full table's blocks, sizes 0 to s."""
    return [_combinations(n, k) for k in range(s + 1)]


def _lex_rank(n: int, supports) -> np.ndarray:
    """Row of each support in its size's ``_combinations`` array.

    ``supports`` is one support of size k, or an ``(..., k)`` index array of
    them; the result has the shape of ``supports`` without its last axis.  In
    lex order, by the combinatorial number system: ``C(n, k) - 1`` minus the
    colex rank of the complemented indices ``n - 1 - c``.
    """
    S = np.asarray(supports, dtype=int)
    k = S.shape[-1]
    # binom[a, i] = C(a, k - i), the term of an index with n - 1 - c = a in place i.
    binom = np.array([[math.comb(a, k - i) for i in range(k)] for a in range(n)],
                     dtype=int).reshape(n, k)
    return math.comb(n, k) - 1 - binom[n - 1 - S, np.arange(k)].sum(axis=-1)


def _witness(supports: np.ndarray, full_rank: np.ndarray) -> Support | None:
    """The first support in ``supports`` short of full rank, if any."""
    deficient = np.flatnonzero(~full_rank)
    return tuple(supports[deficient[0]].tolist()) if deficient.size else None


def _column_stack(A: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """The ``(N, m, k)`` stack of the submatrices ``A[:, S]`` of N supports of one size k."""
    return A.T[supports].transpose(0, 2, 1)


def check_s_regularity(inst: Instance) -> tuple[bool, Support | None]:
    """Whether every size-s column subset of ``inst.A`` has rank s; returns the first failure.

    The size-s supports are decided in lex order, ``_BLOCK`` at a time.
    """
    validate_instance(inst)
    supports = _combinations(inst.n, inst.s)
    for start in range(0, len(supports), _BLOCK):
        chunk = supports[start:start + _BLOCK]
        ranks = numerical_rank(_column_stack(inst.A, chunk), inst.tol.rank_tol)
        witness = _witness(chunk, ranks == inst.s)
        if witness is not None:
            return False, witness
    return True, None


def _solve_chunk(inst: Instance, supports: np.ndarray, margins: bool) -> _Block:
    """The block of supports of one size, by one stacked call of each kernel."""
    k = supports.shape[1]
    Z, ranks = solve_normal_equations(_column_stack(inst.A, supports), inst.b, inst.tol.rank_tol)
    full_rank = ranks == k
    fixpoint = (np.abs(Z) > inst.tol.zero_tol).all(axis=1)
    X = np.zeros((len(supports), inst.n))
    X[np.arange(len(supports))[:, None], supports] = Z
    verdicts = (None,) * 5
    if margins:
        resid, nd1 = point_margins(inst, supports[fixpoint], X[fixpoint])
        verdicts = (resid, nd1, *classify(inst, k, full_rank[fixpoint], nd1))
    return _Block(supports, X, objective(inst, X), fixpoint, full_rank, *verdicts)


def _solve_supports(inst: Instance, indices: Iterable[np.ndarray],
                    margins: bool = True) -> list[_Block]:
    """One block per nonempty ``(N, k)`` index array, solved ``_BLOCK`` rows at a time.

    Without ``margins``, no margin or verdict is computed and the blocks'
    last five fields are ``None``.
    """
    blocks = []
    for supports in indices:
        chunks = [_solve_chunk(inst, supports[i:i + _BLOCK], margins)
                  for i in range(0, len(supports), _BLOCK)]
        blocks.append(chunks[0] if len(chunks) == 1 else _Block(*(
            None if column[0] is None else np.concatenate(column) for column in zip(*chunks))))
    return blocks


def _support_table(inst: Instance, indices: list[np.ndarray]) -> list[_Block]:
    """The full support table, from ``_size_indices(inst.n, inst.s)``, with final kinds.

    The point that each rank-deficient solve chases to, through its support
    map, is degenerate: the continuum the solve certifies passes through it.
    Each step strictly shrinks the support, so the chase ends in the table.
    A block's solves are chased together: each step ranks the supports of
    one size with one ``_lex_rank`` call.
    """
    blocks = _solve_supports(inst, indices)
    for block in blocks:
        X = block.x[~block.full_rank]
        while len(X):
            supports = [support_of(x, inst.tol.zero_tol) for x in X]
            chased = []
            for k in sorted(set(map(len, supports))):
                at = blocks[k]
                same = [S for S in supports if len(S) == k]
                rows = _lex_rank(inst.n, np.array(same, dtype=int).reshape(len(same), k))
                done = at.fixpoint[rows]
                at.kind[np.cumsum(at.fixpoint)[rows[done]] - 1] = PointKind.DEGENERATE
                chased.append(at.x[rows[~done]])
            X = np.concatenate(chased)
    return blocks


def _summarize(inst: Instance, blocks: list[_Block]) -> dict:
    """Every field of a full table's report but its points and table, read from its blocks.

    The kinds are counted with ``list.count``, which compares by identity
    first: ``==`` on an object array would turn a ``PointKind`` into a numpy
    string.  The tie verdict is ``values_tie`` on adjacent sorted fixpoint
    values, element for element: the values are nonnegative, so for
    ``a <= b`` it reads ``b - a <= VALUE_TIE_REL * (1 + b)``.
    """
    kinds = np.concatenate([block.kind for block in blocks]).tolist()
    r, r1, lower, degen = (kinds.count(kind) for kind in (
        PointKind.LOCAL_MINIMIZER, PointKind.SADDLE_POINT, PointKind.LOWER_ORDER,
        PointKind.DEGENERATE))
    values = np.sort(np.concatenate([block.value[block.fixpoint] for block in blocks]))
    ties = values[1:] - values[:-1] <= VALUE_TIE_REL * (1.0 + values[1:])
    witness = _witness(blocks[inst.s].supports, blocks[inst.s].full_rank)
    lhs = (inst.n - inst.s) * r1
    rhs = r - 1
    return dict(
        r=r, r1=r1, lower_order=lower, degenerate=degen,
        s_regular=witness is None, s_regularity_witness=witness,
        morse_lhs=lhs, morse_rhs=rhs, morse_holds=lhs >= rhs,
        continuum_detected=not all(block.full_rank.all() for block in blocks),
        hypothesis_violated=witness is not None or degen > 0 or bool(ties.any()),
    )


def _report_order(blocks: list[_Block], keep: np.ndarray) -> np.ndarray:
    """The rows that ``keep`` selects, in report order (value, then support).

    Rows and ``keep`` run over the blocks' concatenation, whose sizes
    increase.  The supports are padded with -1 to the largest size, so a
    support sorts before its extensions, as in tuple order.  A probe trial
    mostly keeps one row, which needs no sort.
    """
    rows = np.flatnonzero(keep)
    if len(rows) < 2:
        return rows
    pad = np.full((len(keep), blocks[-1].supports.shape[1]), -1)
    start = 0
    for block in blocks:
        pad[start:start + len(block.supports), :block.supports.shape[1]] = block.supports
        start += len(block.supports)
    value = np.concatenate([block.value for block in blocks])
    return rows[np.lexsort((*pad[rows].T[::-1], value[rows]))]


def _records(blocks: list[_Block]) -> list[SupportSubspace]:
    """One record per row of the blocks, in their order; only fixpoints get verdicts."""
    subs = []
    for block in blocks:
        verdicts = zip(*(column.tolist() for column in block[5:]))
        subs += [SupportSubspace(S, x, value, fixpoint, full_rank,
                                 *(next(verdicts) if fixpoint else (None,) * 5))
                 for S, x, value, fixpoint, full_rank in zip(
                     map(tuple, block.supports.tolist()), block.x, block.value.tolist(),
                     block.fixpoint.tolist(), block.full_rank.tolist())]
    return subs


@dataclass(frozen=True)
class _PointRows:
    """A report's points for ``writer.dumps``, written from the blocks' arrays.

    ``json_text`` writes exactly the list of the points' ``to_dict()`` in
    report order, without a record or dict.  Each block's fixpoint rows are
    gathered once: supports, on-support coefficients, values, verdicts and
    kinds, and each point is one ``%`` format of its size's template.  A
    point's coefficients off its support are the zeros its row was made of,
    so they are written as ``0.0``; only its support's coefficients and its
    value are formatted.
    """

    blocks: list[_Block]
    order: np.ndarray

    def json_text(self, level: int) -> str:
        first1, separator1, last1 = writer.frame(level + 1)
        first2, separator2, last2 = writer.frame(level + 2)
        n = self.blocks[0].x.shape[1]
        kinds = {kind: writer.string(kind.value) for kind in PointKind}
        rows = []
        for block in self.blocks:
            fixpoint = block.fixpoint
            S = block.supports[fixpoint]
            rows.append((S, np.take_along_axis(block.x[fixpoint], S, axis=1), block.value[fixpoint],
                         block.nd1_holds, block.full_rank[fixpoint], block.near, block.kind))
        # Each point's index among the fixpoints, in report order.
        fixpoints = np.cumsum(np.concatenate([block.fixpoint for block in self.blocks])) - 1
        report = fixpoints[self.order].tolist()
        if not all(np.isfinite(Z).all() and np.isfinite(value).all() for _, Z, value, *_ in rows):
            numbers = [z + [v] for _, Z, value, *_ in rows
                       for z, v in zip(Z.tolist(), value.tolist())]
            # ``number`` raises at the first non-finite number in writing order.
            for i in report:
                for v in numbers[i]:
                    writer.number(v)
        texts = []
        for S, Z, value, nd1, nd2, near, kind in rows:
            k = S.shape[1]
            support = "[" + first2 + separator2.join(["%d"] * k) + last2 + "]" if k else "[]"
            template = (f'{{{first1}"x": [{first2}%s{last2}]{separator1}"support": {support}'
                        f'{separator1}"kind": %s{separator1}"value": %s{separator1}"nd1": %s'
                        f'{separator1}"nd2": %s{separator1}"nd1_near_degenerate": %s{last1}}}')
            cells = np.empty((len(S), n), dtype=object)
            cells.fill("0.0")  # ``np.full`` would make one string per cell
            coefficients = list(map(float.__repr__, Z.ravel().tolist()))
            np.put_along_axis(cells, S, np.array(coefficients, dtype=object).reshape(Z.shape), 1)
            flags = [np.where(flag, "true", "false").tolist() for flag in (nd1, nd2, near)]
            texts += [template % (separator2.join(x), *indices, kinds[kind_], text, *verdicts)
                      for x, indices, kind_, text, *verdicts in zip(
                          cells.tolist(), (S + 1).tolist(), kind.tolist(),
                          map(float.__repr__, value.tolist()), *flags)]
        return writer.rows([texts[i] for i in report], level)


def support_min_table(inst: Instance) -> dict[Support, SupportSubspace]:
    """Subspace minima for every support of size at most s, with final kinds."""
    subs = _records(_support_table(inst, _size_indices(inst.n, inst.s)))
    return {sub.support: sub for sub in subs}


def values_tie(a: float, b: float) -> bool:
    """Whether two stationary values are equal within the relative tie band."""
    return abs(b - a) <= VALUE_TIE_REL * (1.0 + max(abs(a), abs(b)))


def enumerate_stationary(inst: Instance) -> LandscapeReport:
    """Enumerate and classify every M-stationary point.

    The points are the table's fixpoint entries, classified as the table
    was built, in report order.  The stationarity residual is reported, not
    gated, so the enumeration never raises on its own solves.  Under the
    Morse hypothesis, when every support is a point, the counts must be the
    binomials of the theory; any other counts are an internal contradiction
    and raise ``RuntimeError``.  A solve with a coefficient within
    ``zero_tol`` is no point, which a large ``zero_tol`` allows even when
    the hypothesis holds; such tables are not checked.
    """
    validate_instance(inst)
    n, s = inst.n, inst.s
    blocks = _support_table(inst, _size_indices(n, s))
    order = _report_order(blocks, np.concatenate([block.fixpoint for block in blocks]))
    summary = _summarize(inst, blocks)
    if not summary["hypothesis_violated"] and all(block.fixpoint.all() for block in blocks):
        found = (summary["r"], summary["r1"], summary["lower_order"])
        expected = (math.comb(n, s), math.comb(n, s - 1) if s else 0,
                    sum(math.comb(n, k) for k in range(s - 1)))
        if found != expected:
            raise RuntimeError(f"(r, r1, lower_order) = {found} under the Morse hypothesis, "
                               f"not the binomials {expected}")
    return LandscapeReport(**summary, _blocks=blocks, _order=order)


def run_genericity_experiment(
    m: int,
    n: int,
    s: int,
    trials: int,
    seed: int,
    *,
    tol: ToleranceConfig | None = None,
) -> GenericityReport:
    """Sample seeded Gaussian data and measure how often nondegeneracy holds.

    Per trial: draws (A, b) with independent standard-normal entries from a
    generator derived deterministically from (seed, trial index), builds the
    support table, and records from its summary whether (a) every point is
    nondegenerate, (b) no full-support point is degenerate, and (c) A is
    s-regular: the verdicts of ``enumerate_stationary``'s report, without
    its records.  Any failing trial is logged with its instance data for
    inspection.  ``m``, ``n``, ``s``, ``trials`` and ``seed`` must be
    integers (``operator.index``).
    """
    m, n, trials, seed = (integer(value, name) for value, name in
                          ((m, "m"), (n, "n"), (trials, "trials"), (seed, "seed")))
    shape = Instance.from_arrays(np.zeros((m, n)), np.zeros(m), s, tol)
    validate_instance(shape)
    s = shape.s
    if trials < 0:
        raise ValidationError(f"trials must be nonnegative, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")

    indices = _size_indices(n, s)
    nondeg_trials = active_trials = regular_trials = 0
    for t in range(trials):
        rng = rng_for(seed, t)
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        inst = Instance.from_arrays(A, b, s, tol)
        blocks = _support_table(inst, indices)
        summary = _summarize(inst, blocks)
        all_nondeg = summary["degenerate"] == 0
        active = PointKind.DEGENERATE not in blocks[s].kind.tolist()
        s_regular = summary["s_regular"]
        nondeg_trials += all_nondeg
        active_trials += active
        regular_trials += s_regular
        if not (all_nondeg and active and s_regular):
            logger.warning("genericity failure at trial %d (all_nondegenerate=%s, "
                           "minimizers_active=%s, s_regular=%s): %s", t, all_nondeg, active,
                           s_regular, json.dumps(instance_to_dict(inst)))
    if trials == 0:
        return GenericityReport(0, 1.0, 1.0, 1.0, seed)
    return GenericityReport(
        trials=trials,
        all_nondegenerate_fraction=nondeg_trials / trials,
        minimizers_active_fraction=active_trials / trials,
        s_regular_fraction=regular_trials / trials,
        seed=seed,
    )
