"""Child seeds derived from a master seed by fixed spawn keys."""

from __future__ import annotations

import numpy as np


def seed_int(seed: int, *key: int) -> int:
    """First 32-bit word of SeedSequence(seed, spawn_key=key)."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])
