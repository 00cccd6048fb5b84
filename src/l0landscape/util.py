"""Small shared helpers: integer arguments and deterministic seed derivation."""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from .errors import ValidationError


def integer(value, name: str, error: type[ValidationError] = ValidationError) -> int:
    """``value`` as an ``int`` through ``operator.index``; a non-integer raises ``error``."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise error(f"{name} must be an integer, got {value!r}") from exc


def spawn_seed(seed: int, *indices: int) -> int:
    """Deterministic sub-seed derived from a base seed and index path."""
    entropy: Sequence[int] = (int(seed), *[int(i) for i in indices])
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def rng_for(seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for the given seed and index path."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), *[int(i) for i in indices])))
