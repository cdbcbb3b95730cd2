"""DQN over a finite action set.

The Q network maps a state to one value per action; actions are stored
in the replay buffer as a single float index. Targets come from a
Polyak-tracked copy of the online network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adam import AdamState, adam_init, apply_gradients
from .mlp import Mlp, mlp_forward, mlp_forward_cached, mlp_gradient, mlp_init, polyak_update
from .replay import ReplayBuffer, TransitionBatch


@dataclass
class DqnAgent:
    state_dim: int
    n_actions: int
    qnet: Mlp
    target: Mlp
    opt: AdamState
    buffer: ReplayBuffer
    gamma: float
    polyak: float
    epsilon: float
    # optional codebook mapping each discrete index to a raw continuous
    # action vector, for callers that decode continuous actions
    candidates: np.ndarray | None = None


def make_dqn_agent(
    state_dim: int,
    n_actions: int,
    rng: np.random.Generator,
    hidden_sizes=(64, 64),
    lr: float = 3e-4,
    gamma: float = 0.99,
    polyak: float = 0.005,
    epsilon: float = 0.1,
    buffer_capacity: int = 100_000,
) -> DqnAgent:
    if state_dim < 1 or n_actions < 2:
        raise ValueError("need state_dim >= 1 and n_actions >= 2")
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must be in [0, 1]")
    hidden = tuple(int(h) for h in hidden_sizes)
    qnet = mlp_init((state_dim, *hidden, n_actions), rng)
    return DqnAgent(
        state_dim=state_dim,
        n_actions=n_actions,
        qnet=qnet,
        target=qnet.copy(),
        opt=adam_init(qnet.flat, lr),
        buffer=ReplayBuffer(buffer_capacity),
        gamma=float(gamma),
        polyak=float(polyak),
        epsilon=float(epsilon),
    )


def dqn_select_action(
    agent: DqnAgent,
    state,
    rng: np.random.Generator,
    greedy: bool = False,
) -> int:
    """Epsilon-greedy index; greedy=True disables exploration."""
    if not greedy and rng.random() < agent.epsilon:
        return int(rng.integers(agent.n_actions))
    q = mlp_forward(agent.qnet, np.asarray(state, dtype=np.float64))
    return int(np.argmax(q))


def dqn_update(agent: DqnAgent, batch: TransitionBatch) -> float:
    """One TD(0) regression step on the taken actions' Q values."""
    n = batch.states.shape[0]
    taken = batch.actions[:, 0].astype(np.int64)
    if taken.min() < 0 or taken.max() >= agent.n_actions:
        raise ValueError("action index out of range")
    q_next = mlp_forward(agent.target, batch.next_states).max(axis=1)
    y = batch.rewards + agent.gamma * (1.0 - batch.dones) * q_next
    q_all, cache = mlp_forward_cached(agent.qnet, batch.states)
    diff = q_all[np.arange(n), taken] - y
    loss = float(np.mean(diff * diff))
    upstream = np.zeros_like(q_all)
    upstream[np.arange(n), taken] = 2.0 * diff / n
    grads, _ = mlp_gradient(agent.qnet, upstream, cache, params="flat", input_grad=False)
    apply_gradients(agent.qnet, agent.opt, grads)
    polyak_update(agent.target, agent.qnet, agent.polyak)
    if not np.isfinite(loss):
        raise RuntimeError(f"non-finite DQN loss: {loss}")
    return loss
