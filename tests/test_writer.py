"""The report writer against ``json.dumps(obj, indent=2, allow_nan=False)``, byte for byte."""

import json
import math
import re

import numpy as np
import pytest

from l0landscape import Instance, ToleranceConfig, enumerate_stationary
from l0landscape.stability import StabilityVerdict
from l0landscape.stationarity import PointKind
from l0landscape.writer import dumps

from _oracles import landscape_instance

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e16, -1e16,
                  1e-7, 1e22, 3.0, -2.0, 1.7976931348623157e308, 0.1, 1 / 3]
STRINGS = ["", "plain", "café", "∞ ≤ \U0001f600", "\x00\x01\x1f\x7f",
           'quote " and \\ backslash', "tab\tnew\nline\r", "\ud800",
           PointKind.SADDLE_POINT, StabilityVerdict.UNSTABLE]


def _float(rng):
    pick = rng.integers(4)
    if pick == 0:
        return SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))]
    if pick == 1:
        return float(rng.integers(-10**6, 10**6))
    value = float(rng.standard_normal() * 10.0 ** rng.integers(-320, 300))
    return np.float64(value) if pick == 2 else value


def _int(rng):
    return int(rng.integers(-2**62, 2**62)) * int(rng.integers(1, 4)) ** int(rng.integers(40))


def _scalar(rng):
    pick = rng.integers(6)
    return (_float(rng), _int(rng), STRINGS[rng.integers(len(STRINGS))],
            bool(rng.integers(2)), None, int(rng.integers(-3, 4)))[pick]


def _payload(rng, depth=0):
    """A random report-like value: nested dicts, lists and tuples of the scalars above."""
    pick = rng.integers(8) if depth < 4 else 7
    size = int(rng.integers(0, 6))
    if pick == 0:
        return {STRINGS[rng.integers(len(STRINGS))] + str(i): _payload(rng, depth + 1)
                for i in range(size)}
    if pick == 1:
        return [_payload(rng, depth + 1) for _ in range(size)]
    if pick == 2:
        return tuple(_payload(rng, depth + 1) for _ in range(size))
    if pick == 3:  # the all-float fast path, sometimes with a bool mixed in
        items = [float(_float(rng)) for _ in range(size)]
        return items + [True] if rng.integers(3) == 0 else items
    if pick == 4:  # the all-int fast path, sometimes with a bool mixed in
        items = [_int(rng) for _ in range(size)]
        return items + [False] if rng.integers(3) == 0 else items
    if pick == 5:
        return [_scalar(rng) for _ in range(size)]
    if pick == 6:
        return {"x": [float(_float(rng)) for _ in range(size)], "support": list(range(1, size)),
                "kind": PointKind.LOCAL_MINIMIZER, "value": _float(rng), "nd1": None}
    return _scalar(rng)


def _with_non_finite(rng, payload, bad):
    """``payload`` with ``bad`` put in at a random place, at any depth."""
    if isinstance(payload, dict) and payload and rng.integers(2):
        key = list(payload)[rng.integers(len(payload))]
        return {**payload, key: _with_non_finite(rng, payload[key], bad)}
    if isinstance(payload, (list, tuple)) and payload and rng.integers(3):
        items = list(payload)
        i = int(rng.integers(len(items)))
        items[i] = _with_non_finite(rng, items[i], bad)
        return type(payload)(items)
    if isinstance(payload, list) and all(type(v) is float for v in payload):
        return payload + [bad]  # inside the all-float fast path
    return [payload, bad] if rng.integers(2) else {"bad": bad, "rest": payload}


@pytest.mark.parametrize("seed", range(20))
def test_random_payloads_match_json_dumps(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        payload = _payload(rng)
        assert dumps(payload) == json.dumps(payload, indent=2, allow_nan=False)


@pytest.mark.parametrize("payload", [
    [], {}, (), "", [[]], [{}], {"a": []}, {"a": {}}, SPECIAL_FLOATS,
    [np.float64(v) for v in SPECIAL_FLOATS], [1, True, 2.5, False, None], [True, False],
    [0, -1, 2**70], STRINGS, {s: s for s in STRINGS if isinstance(s, str)},
    PointKind.DEGENERATE, np.float64(-0.0), 2**100, None, True,
], ids=lambda payload: type(payload).__name__)
def test_edge_payloads_match_json_dumps(payload):
    assert dumps(payload) == json.dumps(payload, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                                 np.float64(-math.inf)], ids=["nan", "inf", "-inf",
                                                              "np-nan", "np--inf"])
@pytest.mark.parametrize("seed", range(5))
def test_non_finite_floats_raise_at_any_depth(seed, bad):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        payload = _with_non_finite(rng, _payload(rng), bad)
        with pytest.raises(ValueError):
            json.dumps(payload, indent=2, allow_nan=False)
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            dumps(payload)


@pytest.mark.parametrize("payload", [np.int64(1), [np.int64(1)], {"a": object()}, {1: "a"}],
                         ids=["numpy-int", "numpy-int-in-list", "object", "int-key"])
def test_other_values_are_type_errors(payload):
    with pytest.raises(TypeError):
        dumps(payload)


def _reports():
    yield from (landscape_instance((5, 8, 3), variant, seed)
                for variant in ["generic", "zero-column", "duplicate-column"] for seed in range(2))
    # A continuum through the origin, and s = 0, whose one point is the origin.
    yield Instance.from_arrays([[10.0, 10.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
                               [1.5e-8, 1.0, 0.0], 2)
    yield Instance.from_arrays([[1.0, 2.0], [0.5, -1.0]], [1.0, 0.25], 0)
    # Tolerances that fail ND1 with the near-degenerate flag set, and ND2.
    base = landscape_instance((5, 8, 3), "generic", 0)
    yield Instance.from_arrays(base.A, base.b, 3, ToleranceConfig(stat_tol=0.05))
    yield Instance.from_arrays(base.A, base.b, 3, ToleranceConfig(rank_tol=0.5))
    # Negative and subnormal coefficients, kept as points by zero_tol = 0.
    yield Instance.from_arrays([[1.0, 0.0, 0.5], [0.0, -2.0, 0.0]], [1e-310, 3.0], 2,
                               ToleranceConfig(zero_tol=0.0))
    # n = 1, where s = 0.
    yield Instance.from_arrays([[2.0], [-1.0]], [-1.0, 0.5], 0)


_REPORTS = list(_reports())
_REPORT_IDS = ["generic-0", "generic-1", "zero-column-0", "zero-column-1", "duplicate-column-0",
               "duplicate-column-1", "continuum", "s0", "stat-tol", "rank-tol", "subnormal", "n1"]


@pytest.mark.parametrize("inst", _REPORTS, ids=_REPORT_IDS)
def test_point_rows_match_json_dumps_of_to_dict(inst):
    report = enumerate_stationary(inst)
    text = dumps(report.to_records())
    assert text == json.dumps(report.to_dict(), indent=2, allow_nan=False)
    assert '"support": []' in text  # the origin, the one point with an empty support


def test_flag_and_sign_instances_reach_their_cases():
    texts = {name: dumps(enumerate_stationary(inst).to_records())
             for name, inst in zip(_REPORT_IDS, _REPORTS)}
    assert '"nd1_near_degenerate": true' in texts["stat-tol"]
    assert '"nd1": false' in texts["stat-tol"]
    assert '"nd2": false' in texts["rank-tol"]
    points = json.loads(texts["subnormal"])["points"]
    coefficients = [v for p in points for v in p["x"] if v != 0.0]
    assert any(v < 0.0 for v in coefficients)
    assert any(0.0 < abs(v) < 2.2250738585072014e-308 for v in coefficients)
    assert json.loads(texts["n1"])["points"] == [{
        "x": [0.0], "support": [], "kind": "LocalMinimizer", "value": 0.625, "nd1": True,
        "nd2": True, "nd1_near_degenerate": False}]


def _report_rows(report):
    """Each point's (block, row) in the report's blocks, in report order."""
    rows = [(block, i) for block in report._blocks for i in range(len(block.supports))]
    return [rows[i] for i in report._order.tolist()]


@pytest.mark.parametrize("earlier, later", [
    ((3, "value"), (5, "x")),
    ((4, "x"), (4, "value")),
    ((0, "x"), (-1, "value")),  # the first point is in the last block, the last in the first
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_point_number_raises_at_the_first_in_writing_order(bad, earlier, later):
    # Writing order: each point's x, then its value, point by point in report order.
    report = enumerate_stationary(landscape_instance((5, 8, 3), "generic", 0))
    points = _report_rows(report)
    for (point, where), number in [(earlier, bad), (later, math.inf if bad != bad else math.nan)]:
        block, i = points[point]
        if where == "value":
            block.value[i] = number
        else:
            block.x[i, block.supports[i][-1]] = number
    with pytest.raises(ValueError, match=re.escape(
            f"Out of range float values are not JSON compliant: {bad!r}")):
        dumps(report.to_records())
