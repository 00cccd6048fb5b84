"""Problem data, tolerance policy, supports, and feasible points.

The problem under study is sparsity-constrained least squares:
minimize ``0.5 * ||A x - b||^2`` subject to ``||x||_0 <= s``.  This module is
the single home for index-set conventions: a support is a strictly increasing
tuple of 0-based column indices, converted to 1-based only at the JSON/CSV
boundary.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatchError,
    InstanceFormatError,
    MeasurementBoundError,
    NonFiniteDataError,
    SparsityRangeError,
    ToleranceError,
)
from .linalg import default_rank_tol

Support = tuple[int, ...]

_TOLERANCE_KEYS = ("zero_tol", "stat_tol", "rank_tol")


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy knobs.

    zero_tol
        entries with ``|x_i| <= zero_tol`` are treated as zero; two stationary
        points are the same point exactly when their supports under it agree.
    stat_tol
        strictness threshold for ND1; IHT also counts a converged iterate as
        M-stationary when its gradient on the support is at most ten times
        this.  Enumerated points are not gated on it: their residual is
        reported.
    rank_tol
        relative singular-value threshold for rank decisions; ``None`` means
        "resolve to ``1e-10 * max(m, n)`` for the instance at hand".
    """

    zero_tol: float = 1e-9
    stat_tol: float = 1e-8
    rank_tol: float | None = None

    def resolved(self, rows: int, cols: int) -> "ToleranceConfig":
        """Return a copy with ``rank_tol`` made concrete for an m-by-n matrix."""
        if self.rank_tol is not None:
            return self
        return replace(self, rank_tol=default_rank_tol(rows, cols))


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem data ``(A, b, s)`` plus the tolerance policy."""

    A: np.ndarray
    b: np.ndarray
    s: int
    tol: ToleranceConfig

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @classmethod
    def from_arrays(cls, A, b, s: int, tol: ToleranceConfig | None = None) -> "Instance":
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2:
            raise DimensionMismatchError(f"A must be 2-dimensional, got ndim={A.ndim}")
        tol = (tol or ToleranceConfig()).resolved(*A.shape)
        return cls(A=A, b=b, s=int(s), tol=tol)


def support_of(x, zero_tol: float) -> Support:
    """Indices i with ``|x_i| > zero_tol``, sorted increasingly (0-based)."""
    x = np.asarray(x, dtype=float)
    return tuple(int(i) for i in np.nonzero(np.abs(x) > zero_tol)[0])


def support_to_json(support: Support | None) -> list[int] | None:
    """1-based column indices of a support for JSON/CSV output (``None`` passes through)."""
    if support is None:
        return None
    return [i + 1 for i in support]


def complement_of(support: Support, n: int) -> Support:
    """Sorted indices of {0, ..., n-1} not in ``support``."""
    inside = set(support)
    return tuple(i for i in range(n) if i not in inside)


@dataclass(frozen=True, eq=False)
class FeasiblePoint:
    """A vector together with its cached support under ``zero_tol``."""

    x: np.ndarray
    support: Support

    @classmethod
    def from_vector(cls, x, zero_tol: float) -> "FeasiblePoint":
        x = np.asarray(x, dtype=float)
        return cls(x=x, support=support_of(x, zero_tol))

    @property
    def sparsity(self) -> int:
        return len(self.support)


def objective(inst: Instance, x) -> float:
    """Objective value ``0.5 * ||A x - b||^2``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.n,):
        raise DimensionMismatchError(f"x must have length {inst.n}, got shape {x.shape}")
    r = inst.A @ x - inst.b
    return 0.5 * float(r @ r)


def validate_instance(inst: Instance) -> None:
    """Check all instance invariants; each violation raises a distinct error."""
    A, b, s = inst.A, inst.b, inst.s
    if A.ndim != 2:
        raise DimensionMismatchError(f"A must be 2-dimensional, got ndim={A.ndim}")
    m, n = A.shape
    if m < 1 or n < 1:
        raise DimensionMismatchError(f"A must be nonempty, got shape {A.shape}")
    if b.shape != (m,):
        raise DimensionMismatchError(f"b must have length m={m}, got shape {b.shape}")
    if A.size and not np.isfinite(A).all():
        raise NonFiniteDataError("A contains non-finite entries")
    if b.size and not np.isfinite(b).all():
        raise NonFiniteDataError("b contains non-finite entries")
    # Every stationary value is at most ||b||^2 / 2 and every gradient entry
    # at most ||A||_F ||b||, so these bounds keep all reported numbers finite.
    # inf * 0 is nan, so the product is finite only when both factors are.
    with np.errstate(over="ignore"):
        a2, b2 = float(np.vdot(A, A)), float(b @ b)
    if not math.isfinite(a2 * b2):
        raise NonFiniteDataError("||A||_F^2 * ||b||^2 overflows float64; rescale the data")
    if not isinstance(s, (int, np.integer)) or not 0 <= s <= n - 1:
        raise SparsityRangeError(f"s must lie in {{0, ..., n-1}} = {{0, ..., {n - 1}}}, got {s}")
    if s > m:
        raise MeasurementBoundError(f"s={s} exceeds the number of measurements m={m}")
    t = inst.tol
    if t.rank_tol is None:
        raise ToleranceError("rank_tol is unresolved; build instances via Instance.from_arrays")
    for key in _TOLERANCE_KEYS:
        value = getattr(t, key)
        if not np.isfinite(value) or value < 0:
            raise ToleranceError(f"{key} must be finite and nonnegative, got {value}")


# ---------------------------------------------------------------------------
# Instance files.  JSON schema:
#   {"m": int, "n": int, "s": int, "A": [[...], ...], "b": [...],
#    "tolerances": {"zero_tol": ..., "stat_tol": ..., "rank_tol": ...}}
# CSV alternative: first line "m,n,s", then m rows of A, then one row b.
# ---------------------------------------------------------------------------


def _tolerances_from_mapping(raw, overrides: dict | None) -> ToleranceConfig:
    merged: dict = {}
    if raw is not None:
        if not isinstance(raw, dict):
            raise InstanceFormatError("'tolerances' must be an object")
        for key, value in raw.items():
            if key not in _TOLERANCE_KEYS:
                raise InstanceFormatError(f"unknown tolerance key '{key}'")
            if type(value) not in (int, float):  # a JSON number; bool is a subclass of int
                raise InstanceFormatError(f"tolerance '{key}' must be a number, got {value!r}")
            try:
                merged[key] = float(value)
            except OverflowError as exc:
                raise InstanceFormatError(f"tolerance '{key}': {exc}") from exc
    for key, value in (overrides or {}).items():
        if key not in _TOLERANCE_KEYS:
            raise InstanceFormatError(f"unknown tolerance override '{key}'")
        if value is not None:
            merged[key] = float(value)
    return ToleranceConfig(**merged)


def _check_numbers(key: str, value) -> None:
    """Reject any entry of a nested list that is not a JSON number."""
    if isinstance(value, list):
        for entry in value:
            _check_numbers(key, entry)
    elif type(value) not in (int, float):  # bool is a subclass of int
        raise InstanceFormatError(f"'{key}' entries must be numbers, got {value!r}")


def instance_from_dict(data: dict, tol_overrides: dict | None = None) -> Instance:
    """Build an Instance from the JSON object form, checking declared shapes."""
    if not isinstance(data, dict):
        raise InstanceFormatError("instance JSON must be an object")
    missing = [k for k in ("m", "n", "s", "A", "b") if k not in data]
    if missing:
        raise InstanceFormatError(f"missing required field(s): {', '.join(missing)}")
    unknown = [k for k in data if k not in ("m", "n", "s", "A", "b", "tolerances")]
    if unknown:
        raise InstanceFormatError(f"unknown field(s): {', '.join(sorted(unknown))}")
    for key in ("m", "n", "s"):
        if type(data[key]) is not int:  # a JSON integer; bool is a subclass of int
            raise InstanceFormatError(f"'{key}' must be an integer, got {data[key]!r}")
    m, n, s = data["m"], data["n"], data["s"]
    _check_numbers("A", data["A"])
    _check_numbers("b", data["b"])
    try:
        A = np.asarray(data["A"], dtype=float)
        b = np.asarray(data["b"], dtype=float)
    except (OverflowError, ValueError) as exc:
        raise InstanceFormatError(f"could not parse numeric data: {exc}") from exc
    if A.shape != (m, n):
        raise DimensionMismatchError(f"A has shape {A.shape}, expected ({m}, {n})")
    if b.shape != (m,):
        raise DimensionMismatchError(f"b has shape {b.shape}, expected ({m},)")
    tol = _tolerances_from_mapping(data.get("tolerances"), tol_overrides)
    return Instance.from_arrays(A, b, s, tol)


def parse_instance_json(text: str, tol_overrides: dict | None = None) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return instance_from_dict(data, tol_overrides)


def parse_instance_csv(text: str, tol_overrides: dict | None = None) -> Instance:
    rows = list(csv.reader(io.StringIO(text)))
    # Track original line numbers and drop blank lines.
    numbered = [(i + 1, row) for i, row in enumerate(rows) if any(cell.strip() for cell in row)]
    if not numbered:
        raise InstanceFormatError("line 1: empty instance file")
    header_line, header = numbered[0]
    if len(header) != 3:
        raise InstanceFormatError(f"line {header_line}: header must be 'm,n,s'")
    try:
        m, n, s = (int(cell) for cell in header)
    except ValueError as exc:
        raise InstanceFormatError(f"line {header_line}: header must be integers: {exc}") from exc
    body = numbered[1:]
    if len(body) != m + 1:
        raise InstanceFormatError(
            f"line {header_line}: expected {m} rows of A plus one row b, found {len(body)} data rows"
        )

    def parse_row(lineno: int, row: list[str], width: int) -> list[float]:
        if len(row) != width:
            raise InstanceFormatError(f"line {lineno}: expected {width} values, found {len(row)}")
        try:
            return [float(cell) for cell in row]
        except ValueError as exc:
            raise InstanceFormatError(f"line {lineno}: {exc}") from exc

    A = np.array([parse_row(lineno, row, n) for lineno, row in body[:m]], dtype=float)
    A = A.reshape(m, n)
    b_line, b_row = body[m]
    b = np.array(parse_row(b_line, b_row, m), dtype=float)
    tol = _tolerances_from_mapping(None, tol_overrides)
    return Instance.from_arrays(A, b, s, tol)


def load_instance(path, tol_overrides: dict | None = None) -> Instance:
    """Read an instance file, sniffing JSON ('{' first) versus CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_instance_json(text, tol_overrides)
    return parse_instance_csv(text, tol_overrides)


def instance_to_dict(inst: Instance) -> dict:
    """JSON object form of an instance (inverse of ``instance_from_dict``)."""
    return {
        "m": inst.m,
        "n": inst.n,
        "s": inst.s,
        "A": [[float(v) for v in row] for row in inst.A],
        "b": [float(v) for v in inst.b],
        "tolerances": {
            "zero_tol": inst.tol.zero_tol,
            "stat_tol": inst.tol.stat_tol,
            "rank_tol": inst.tol.rank_tol,
        },
    }
