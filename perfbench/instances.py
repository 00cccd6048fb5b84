"""Seeded instance generation for the benchmark workloads.

Every instance is drawn from the workload seed alone, so one seed always
gives the same files.  An instance is identified by its shape, an index (for
batches of same-shaped instances) and a variant:

generic
    ``A`` and ``b`` with independent standard-normal entries.
zero-column
    the generic instance with column 1 set to zero.
duplicate-column
    the generic instance with column ``n`` replaced by a copy of column 1.

The two degenerate variants keep ``b`` and every other column, so they
exercise the rank-deficient and continuum paths on otherwise the same data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class InstanceFile:
    """One generated instance: its data and the JSON file the CLI reads."""

    name: str
    path: Path
    A: np.ndarray
    b: np.ndarray
    s: int


def generate(seed: int, shape: tuple[int, int, int], index: int = 0,
             variant: str = "generic") -> tuple[np.ndarray, np.ndarray]:
    """Data ``(A, b)`` of one instance; a pure function of its arguments."""
    m, n, s = shape
    rng = np.random.default_rng(np.random.SeedSequence((seed, m, n, s, index)))
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    if variant == "zero-column":
        A[:, 0] = 0.0
    elif variant == "duplicate-column":
        A[:, -1] = A[:, 0]
    elif variant != "generic":
        raise ValueError(f"unknown variant {variant!r}")
    return A, b


class InstanceSet:
    """Instances of one seed, each generated and written once on first use."""

    def __init__(self, seed: int, directory: Path):
        self.seed = seed
        self.directory = directory
        self._files: dict[str, InstanceFile] = {}

    def get(self, shape: tuple[int, int, int], index: int = 0,
            variant: str = "generic") -> InstanceFile:
        m, n, s = shape
        name = f"g{m}x{n}s{s}-{index}-{variant}"
        if name not in self._files:
            A, b = generate(self.seed, shape, index, variant)
            path = self.directory / f"{name}.json"
            path.write_text(json.dumps({"m": m, "n": n, "s": s,
                                        "A": A.tolist(), "b": b.tolist()}))
            self._files[name] = InstanceFile(name, path, A, b, s)
        return self._files[name]
