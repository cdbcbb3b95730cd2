"""Fixed-capacity ring replay buffer.

Storage is allocated lazily from the first transition's shapes; pushes
past capacity overwrite the oldest entry. Sampling is uniform with
replacement from the stored prefix using the caller's Generator, into
the caller's TransitionBatch or a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TransitionBatch:
    states: np.ndarray  # (n, ds)
    actions: np.ndarray  # (n, da)
    rewards: np.ndarray  # (n,)
    next_states: np.ndarray  # (n, ds)
    dones: np.ndarray  # (n,) in {0.0, 1.0}


class ReplayBuffer:
    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._size = 0
        self._head = 0
        self._states = None
        self._actions = None
        self._rewards = None
        self._next_states = None
        self._dones = None

    def __len__(self) -> int:
        return self._size

    def _allocate(self, state: np.ndarray, action: np.ndarray) -> None:
        self._states = np.empty((self.capacity, state.shape[0]))
        self._actions = np.empty((self.capacity, action.shape[0]))
        self._rewards = np.empty(self.capacity)
        self._next_states = np.empty((self.capacity, state.shape[0]))
        self._dones = np.empty(self.capacity)

    def push(self, state, action, reward: float, next_state, done: bool) -> None:
        s = np.asarray(state, dtype=np.float64).ravel()
        a = np.asarray(action, dtype=np.float64).ravel()
        s2 = np.asarray(next_state, dtype=np.float64).ravel()
        if self._states is None:
            self._allocate(s, a)
        if s.shape[0] != self._states.shape[1] or a.shape[0] != self._actions.shape[1]:
            raise ValueError("transition shape differs from the buffer's layout")
        i = self._head
        self._states[i] = s
        self._actions[i] = a
        self._rewards[i] = float(reward)
        self._next_states[i] = s2
        self._dones[i] = 1.0 if done else 0.0
        self._head = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(
        self, batch_size: int, rng: np.random.Generator, out: TransitionBatch | None = None
    ) -> TransitionBatch:
        """batch_size rows drawn uniformly with replacement, written into
        out (whose arrays must have exactly the batch's shapes) or into a
        fresh batch. Returns the batch written."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        idx = rng.integers(0, self._size, size=batch_size)
        rows = (self._states, self._actions, self._rewards, self._next_states, self._dones)
        if out is None:
            out = TransitionBatch(*(np.empty((batch_size, *r.shape[1:])) for r in rows))
        # every index is in range, so "clip" never clips; the default
        # "raise" would gather into a temporary and then copy it to out
        for r, dst in zip(rows, (out.states, out.actions, out.rewards, out.next_states, out.dones)):
            np.take(r, idx, axis=0, mode="clip", out=dst)
        return out
