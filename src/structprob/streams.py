"""Seeded, keyed random streams.

Every stochastic entry point in the library takes an explicit
``numpy.random.Generator``.  Helpers here derive independent child streams
from a root seed so that estimators can hand out one stream per subtask
(run, ratio index, chain, ...) and stay bitwise reproducible; entry points
that need a stream call ``require_rng`` so that a missing one is refused by
name instead of failing deep inside a sampler.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator keyed by (seed, *key); equal keys yield equal streams."""
    return np.random.default_rng((int(seed),) + tuple(int(k) for k in key))


def require_rng(rng, caller: str) -> None:
    """Refuse a missing stream up front, naming the entry point."""
    if rng is None:
        raise ValueError(f"{caller} needs an explicit rng (numpy.random.Generator)")
