"""Deterministic RNG stream derivation.

Every source of randomness in the package is a named stream derived from a
single root seed, so that independent components (graph construction,
Byzantine placement, per-subphase colors, adversary choices) draw from
non-overlapping generators and any run is reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]

# Fixed tags keep streams apart even when numeric arguments collide.
_TAGS = {
    "graph": 0x47,
    "ids": 0x1D,
    "placement": 0xB1,
    "colors": 0xC0,
    "adversary": 0xAD,
    "trial": 0x7A,
    "cell": 0xCE,
    "spectral": 0x5E,
}


def stream(seed: int, channel: str, *extra: int) -> np.random.Generator:
    """Return the generator for a named channel under a root seed.

    Parameters
    ----------
    seed : int
        Root seed of the run or artifact.
    channel : str
        One of the registered channel names (e.g. ``"colors"``).
    extra : int
        Additional counters (phase, subphase, trial index, ...) that
        split the channel into independent sub-streams.

    The seed and every counter must lie in [0, 2^64); anything else is a
    ``ValueError``, never the stream of some other seed.
    """
    if channel not in _TAGS:
        raise ValueError(f"unknown rng channel: {channel!r}")
    entropy = (int(seed), _TAGS[channel], *map(int, extra))
    if not all(0 <= x < 2**64 for x in entropy):
        raise ValueError(f"rng seed and counters: need integers in [0, 2^64), got {entropy}")
    return np.random.default_rng(np.random.SeedSequence(entropy))
