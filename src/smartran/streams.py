"""Seeded RNG substreams.

Every stochastic quantity in the simulator draws from its own numpy
Generator keyed by a tuple of non-negative integers (seed, stream id,
extra indices such as the slot or RRS index).  Substreams derived from
distinct keys are statistically independent, so any component can be
re-evaluated in isolation and the trajectory of one component never
shifts the draws of another.
"""

from __future__ import annotations

import numpy as np

# Environment streams (keyed by the scenario seed).
TOPOLOGY = 11
USER_PLACEMENT = 12
CHANNELS = 13
TRAFFIC = 14

# Agent streams (keyed by the agent seed).
SDN_AGENT = 21
CNT_AGENT = 22
DST_AGENT = 23


def substream(*key: int) -> np.random.Generator:
    """Independent generator for an integer key tuple.

    Keys must be non-negative; numpy's SeedSequence hashes the tuple so
    (seed, A) and (seed, B) are uncorrelated for A != B.
    """
    if any(int(k) < 0 for k in key):
        raise ValueError(f"substream key must be non-negative, got {key}")
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))
