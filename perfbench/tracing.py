"""Per-layer spans recorded from outside the program.

The package's modules call one another through module-level names (for
example ``enumeration.solve_normal_equations``).  :class:`Tracer` rebinds
those names at run time to wrappers that record a span per call, so no
source file changes, and restores every binding afterwards.  A binding that
no longer exists is reported as absent instead of failing the run.

Spans are kept in memory as ``[op, name, start, end, parent]`` rows and
written out when the run ends.  A layer's self time is its spans' duration
minus the part covered by their child spans; the root span of every CLI
operation is ``cli``, so the self times of all layers add up to the traced
operation time.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name).  Each attribute is a name through which one
# module of the package calls another (or a module calls its own top-level
# function by global lookup), so rebinding it intercepts exactly those calls.
BINDINGS = (
    ("cli", "enumerate_stationary", "enumeration.enumerate"),
    ("cli", "run_genericity_experiment", "enumeration.generic"),
    ("cli", "sweep_levels", "levelsets.sweep"),
    ("cli", "probe_strong_stability", "stability.probe"),
    ("cli", "default_probe_epsilon", "stability.epsilon"),
    ("cli", "iht_solve", "iht.solve"),
    ("enumeration", "enumerate_stationary", "enumeration.enumerate"),
    ("enumeration", "solve_normal_equations", "linalg.solve"),
    ("enumeration", "classify", "stationarity.classify"),
    ("enumeration", "check_s_regularity", "enumeration.s_regularity"),
    ("enumeration", "numerical_rank", "linalg.rank"),
    ("enumeration", "support_of", "model.support_of"),
    ("enumeration", "validate_instance", "model.validate"),
    ("stationarity", "numerical_rank", "linalg.rank"),
    ("levelsets", "solve_normal_equations", "linalg.solve"),
    ("levelsets", "component_count", "levelsets.component_count"),
    ("levelsets", "support_min_table", "levelsets.min_table"),
    ("levelsets", "validate_instance", "model.validate"),
    ("stability", "enumerate_stationary", "enumeration.enumerate"),
    ("stability", "perturb_instance", "stability.perturb"),
    ("iht", "largest_eigenvalue_gram", "linalg.gram_eig"),
    ("iht", "validate_instance", "model.validate"),
)

ROOT_SPAN = "cli"


def _supports_up_to(n: int, s: int) -> int:
    return sum(math.comb(n, k) for k in range(s + 1))


def _count_enumeration(counters, args, result):
    counters["enumeration.points"] += len(result.points)
    counters["enumeration.supports"] += _supports_up_to(args[0].n, args[0].s)


def _count_trial(counters, args, result):
    counters["stability.trials"] += 1


def _count_iterations(counters, args, result):
    counters["iht.iterations"] += result.iterations


# Counters read off a span's arguments or result, keyed by span name.
COUNTERS = {
    "enumeration.enumerate": _count_enumeration,
    "stability.perturb": _count_trial,
    "iht.solve": _count_iterations,
}


class Tracer:
    """Span recorder plus the rebinding of :data:`BINDINGS`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` recorded around every call."""
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            row = [self.op, name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(row)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                row[3] = clock()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every binding that exists; record the others as absent."""
        self.absent = []
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(f"l0landscape.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total duration and self time."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (_, name, start, end, _), children in zip(self.spans, child_time):
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return dict(totals)

    def absent_spans(self) -> set[str]:
        """Span names none of whose bindings exist."""
        present = {span for module, attr, span in BINDINGS
                   if f"{module}.{attr}" not in self.absent}
        return {span for _, _, span in BINDINGS} - present

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated row: op, id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart\tend\n")
            for i, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{op}\t{i}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
