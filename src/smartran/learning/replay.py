"""Fixed-capacity ring replay buffer.

Storage is allocated lazily from the first transition's shapes; pushes
past capacity overwrite the oldest entry. Sampling is uniform with
replacement from the stored prefix using the caller's Generator, into
the caller's TransitionBatch or a fresh one.

A terminal transition (done true) stores no next state: every learner
multiplies its next-state value by (1 - done) = 0, so terminal rows
read as zeros. The next-state rows are allocated, zero-filled, only at
the first non-terminal push, so a buffer of terminal transitions (the
allocators' one-step bandits) holds none; sampling from it returns
zero next states. A caller's batch whose next_states is None receives
none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TransitionBatch:
    states: np.ndarray  # (n, ds)
    actions: np.ndarray  # (n, da)
    rewards: np.ndarray  # (n,)
    next_states: np.ndarray | None  # (n, ds); zeros on terminal rows
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
        self._next_states = None  # built at the first non-terminal push
        self._dones = None

    def __len__(self) -> int:
        return self._size

    def _allocate(self, state: np.ndarray, action: np.ndarray) -> None:
        self._states = np.empty((self.capacity, state.shape[0]))
        self._actions = np.empty((self.capacity, action.shape[0]))
        self._rewards = np.empty(self.capacity)
        self._dones = np.empty(self.capacity)

    def push(self, state, action, reward: float, next_state, done: bool) -> None:
        s = np.asarray(state, dtype=np.float64).ravel()
        a = np.asarray(action, dtype=np.float64).ravel()
        if self._states is None:
            self._allocate(s, a)
        if s.shape[0] != self._states.shape[1] or a.shape[0] != self._actions.shape[1]:
            raise ValueError("transition shape differs from the buffer's layout")
        i = self._head
        self._states[i] = s
        self._actions[i] = a
        self._rewards[i] = float(reward)
        if not done:
            if self._next_states is None:
                self._next_states = np.zeros(self._states.shape)
            self._next_states[i] = np.asarray(next_state, dtype=np.float64).ravel()
        elif self._next_states is not None:
            self._next_states[i] = 0.0
        self._dones[i] = 1.0 if done else 0.0
        self._head = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(
        self, batch_size: int, rng: np.random.Generator, out: TransitionBatch | None = None
    ) -> TransitionBatch:
        """batch_size rows drawn uniformly with replacement, written into
        out (whose arrays must have exactly the batch's shapes; its
        next_states may be None) or into a fresh batch. Returns the batch
        written."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        idx = rng.integers(0, self._size, size=batch_size)
        if out is None:
            ds = self._states.shape[1]
            out = TransitionBatch(
                states=np.empty((batch_size, ds)),
                actions=np.empty((batch_size, self._actions.shape[1])),
                rewards=np.empty(batch_size),
                next_states=np.empty((batch_size, ds)),
                dones=np.empty(batch_size),
            )
        fields = [
            (self._states, out.states),
            (self._actions, out.actions),
            (self._rewards, out.rewards),
            (self._dones, out.dones),
        ]
        if out.next_states is not None:
            if self._next_states is None:  # every stored row is terminal
                out.next_states.fill(0.0)
            else:
                fields.append((self._next_states, out.next_states))
        # every index is in range, so "clip" never clips; the default
        # "raise" would gather into a temporary and then copy it to out
        for rows, dst in fields:
            np.take(rows, idx, axis=0, mode="clip", out=dst)
        return out
