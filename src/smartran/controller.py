"""Mode decision: the SDN agent that picks centralized vs distributed.

Every slot the engine computes both modes' rate, overhead, and
complexity and logs them in a SlotRecord. The controller's memory is a
deque of the last D records; their features plus the newest record's
per-site user counts form the state. A soft actor-critic agent with a
single scalar action picks the mode (action >= 0 means centralized, so
a zero action ties toward the pooled mode). The reward is the executed
mode's TOC, SlotRecord.toc_executed.

Record features are normalized by running mean/variance statistics that
freeze after a warm-up period, so the state distribution stops drifting
once learning is underway.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .learning import SacAgent, SacLosses, SacWork, sac_select_action, sac_update
from .metrics import Mode


@dataclass
class ModeDecision:
    """Exclusive mode indicators; exactly one of the two is set."""

    x_cnt: int
    x_dst: int

    def __post_init__(self):
        if (self.x_cnt, self.x_dst) not in ((1, 0), (0, 1)):
            raise ValueError(f"need exactly one mode set, got ({self.x_cnt}, {self.x_dst})")

    @property
    def mode(self) -> Mode:
        return Mode.CNT if self.x_cnt else Mode.DST


@dataclass
class SlotRecord:
    """Both modes' per-slot outcomes plus what was executed.

    Rates are in bits/s; overheads in bits; complexities in weight
    multiplications; TOC in the same units as rate.
    """

    slot: int
    r_cnt: float
    r_dst: float
    tau_cnt: int
    tau_dst_per_rrs: tuple[int, ...]
    gamma_cnt: int
    gamma_dst_per_rrs: tuple[int, ...]
    toc_cnt: float
    toc_dst: float
    executed: Mode
    user_counts: tuple[int, ...]

    @property
    def max_tau_dst(self) -> int:
        return max(self.tau_dst_per_rrs)

    @property
    def max_gamma_dst(self) -> int:
        return max(self.gamma_dst_per_rrs)

    @property
    def toc_executed(self) -> float:
        return self.toc_cnt if self.executed is Mode.CNT else self.toc_dst

    @property
    def rate_executed(self) -> float:
        return self.r_cnt if self.executed is Mode.CNT else self.r_dst


N_RECORD_FEATURES = 6


def record_features(record: SlotRecord) -> np.ndarray:
    """The six per-record state features, before normalization."""
    return np.array(
        [
            record.r_cnt,
            record.r_dst,
            float(record.tau_cnt),
            float(record.max_tau_dst),
            float(record.gamma_cnt),
            float(record.max_gamma_dst),
        ]
    )


class RunningNorm:
    """Per-feature running mean/variance (Welford), freezable."""

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self._m2 = np.zeros(dim)
        self.frozen = False

    def update(self, x: np.ndarray) -> None:
        if self.frozen:
            return
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    @property
    def std(self) -> np.ndarray:
        if self.count < 2:
            return np.ones(self.dim)
        return np.sqrt(np.maximum(self._m2 / self.count, 1e-12))

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.count == 0:
            return np.zeros_like(x)
        return (x - self.mean) / np.maximum(self.std, 1e-6)


def build_sdn_state(
    records: deque,
    rrs_count: int,
    max_users: int,
    norm: RunningNorm | None = None,
) -> np.ndarray:
    """Flatten the controller's memory into the agent's state vector.

    records is a deque bounded at the memory depth D. Layout: D blocks
    of the six record features, oldest first, zero-padded at the front
    while the memory is filling, followed by the newest record's
    per-site user counts scaled by the capacity (zeros while empty).
    Length is always 6 * D + rrs_count.
    """
    depth = records.maxlen
    state = np.zeros(N_RECORD_FEATURES * depth + rrs_count)
    offset = depth - len(records)
    for i, record in enumerate(records):
        feats = record_features(record)
        if norm is not None:
            feats = norm.apply(feats)
        j = (offset + i) * N_RECORD_FEATURES
        state[j : j + N_RECORD_FEATURES] = feats
    counts = records[-1].user_counts if records else (0,) * rrs_count
    if len(counts) != rrs_count:
        raise ValueError("user count summary does not match the site count")
    state[N_RECORD_FEATURES * depth :] = np.asarray(counts) / max(max_users, 1)
    return state


def decide_mode(agent: SacAgent, state: np.ndarray, rng, deterministic: bool = False):
    """Scalar action -> exclusive mode flags; a >= 0 picks centralized."""
    action = sac_select_action(agent, state, rng, deterministic=deterministic)
    x_cnt = 1 if action[0] >= 0.0 else 0
    return ModeDecision(x_cnt=x_cnt, x_dst=1 - x_cnt), action


class SdnController:
    """Owns the memory, the normalizer, and the decision agent.

    Call decide() then record_slot() once per slot; record_slot stores
    the transition (previous state, action, reward, new state) in the
    agent's replay buffer with done=0 (a continuing task).
    """

    def __init__(
        self,
        agent: SacAgent,
        rrs_count: int,
        depth: int,
        max_users: int,
        reward_scale: float = 1.0,
        norm_warmup: int = 50,
        batch_size: int = 64,
    ):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if reward_scale <= 0:
            raise ValueError("reward_scale must be positive")
        self.agent = agent
        self.rrs_count = rrs_count
        self.max_users = max_users
        self.memory: deque[SlotRecord] = deque(maxlen=depth)
        self.norm = RunningNorm(N_RECORD_FEATURES)
        self.reward_scale = reward_scale
        self.norm_warmup = norm_warmup
        self.batch_size = batch_size
        self._pending: tuple[np.ndarray, np.ndarray] | None = None
        self._work: SacWork | None = None  # built at the first update

    def build_state(self) -> np.ndarray:
        return build_sdn_state(self.memory, self.rrs_count, self.max_users, self.norm)

    def decide(self, rng, deterministic: bool = False) -> ModeDecision:
        state = self.build_state()
        decision, action = decide_mode(self.agent, state, rng, deterministic=deterministic)
        self._pending = (state, action)
        return decision

    def record_slot(self, record: SlotRecord, learn: bool = True) -> float:
        """Log the slot, emit the pending transition, return the raw
        reward. learn=False (evaluation) freezes the normalizer and
        discards the pending transition instead of storing it."""
        reward = record.toc_executed
        if not learn:
            self.norm.frozen = True
        self.norm.update(record_features(record))
        if self.norm.count >= self.norm_warmup:
            self.norm.frozen = True
        self.memory.append(record)
        if self._pending is not None and learn:
            state, action = self._pending
            self.agent.buffer.push(
                state, action, reward * self.reward_scale, self.build_state(), False
            )
        self._pending = None
        return reward

    def update(self, rng) -> SacLosses | None:
        """One SAC step when the buffer can fill a batch."""
        if len(self.agent.buffer) < self.batch_size:
            return None
        if self._work is None:
            self._work = SacWork(self.agent, self.batch_size)
        batch = self.agent.buffer.sample(self.batch_size, rng, out=self._work.batch)
        return sac_update(self.agent, batch, rng, self._work)
