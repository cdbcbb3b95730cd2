"""DDPG: deterministic tanh actor with a single critic.

The actor network ends in an identity layer; tanh is applied outside
the network so the chain rule picks up the (1 - a^2) factor explicitly.
Exploration adds clipped Gaussian noise to the squashed action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adam import AdamState, adam_init, apply_gradients
from .mlp import Mlp, mlp_forward, mlp_forward_cached, mlp_gradient, mlp_init, polyak_update
from .replay import ReplayBuffer, TransitionBatch


@dataclass
class DdpgAgent:
    state_dim: int
    action_dim: int
    actor: Mlp
    critic: Mlp
    actor_target: Mlp
    critic_target: Mlp
    actor_opt: AdamState
    critic_opt: AdamState
    buffer: ReplayBuffer
    gamma: float
    polyak: float
    noise_std: float


def make_ddpg_agent(
    state_dim: int,
    action_dim: int,
    rng: np.random.Generator,
    hidden_sizes=(64, 64),
    lr: float = 3e-4,
    gamma: float = 0.99,
    polyak: float = 0.005,
    noise_std: float = 0.2,
    buffer_capacity: int = 100_000,
) -> DdpgAgent:
    if state_dim < 1 or action_dim < 1:
        raise ValueError("state_dim and action_dim must be >= 1")
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    hidden = tuple(int(h) for h in hidden_sizes)
    actor = mlp_init((state_dim, *hidden, action_dim), rng, final_scale=0.01)
    critic = mlp_init((state_dim + action_dim, *hidden, 1), rng)
    return DdpgAgent(
        state_dim=state_dim,
        action_dim=action_dim,
        actor=actor,
        critic=critic,
        actor_target=actor.copy(),
        critic_target=critic.copy(),
        actor_opt=adam_init(actor.flat, lr),
        critic_opt=adam_init(critic.flat, lr),
        buffer=ReplayBuffer(buffer_capacity),
        gamma=float(gamma),
        polyak=float(polyak),
        noise_std=float(noise_std),
    )


def ddpg_select_action(
    agent: DdpgAgent,
    state,
    rng: np.random.Generator,
    deterministic: bool = False,
) -> np.ndarray:
    """tanh(actor(s)), plus clipped Gaussian noise unless deterministic."""
    a = np.tanh(mlp_forward(agent.actor, np.asarray(state, dtype=np.float64)))
    if not deterministic and agent.noise_std > 0.0:
        a = a + agent.noise_std * rng.standard_normal(a.shape)
    return np.clip(a, -1.0, 1.0)


def ddpg_update(agent: DdpgAgent, batch: TransitionBatch) -> tuple[float, float]:
    """One critic TD step and one deterministic policy-gradient step,
    then the Polyak blends. Returns (critic_loss, actor_loss)."""
    n = batch.states.shape[0]

    a2 = np.tanh(mlp_forward(agent.actor_target, batch.next_states))
    q2 = mlp_forward(agent.critic_target, np.concatenate([batch.next_states, a2], axis=1))[:, 0]
    y = batch.rewards + agent.gamma * (1.0 - batch.dones) * q2

    sa = np.concatenate([batch.states, batch.actions], axis=1)
    q, cache = mlp_forward_cached(agent.critic, sa)
    diff = q[:, 0] - y
    critic_loss = float(np.mean(diff * diff))
    grads, _ = mlp_gradient(
        agent.critic, (2.0 * diff / n)[:, None], cache, params="flat", input_grad=False
    )
    apply_gradients(agent.critic, agent.critic_opt, grads)

    # actor ascends Q(s, tanh(actor(s))) through the fresh critic
    raw, actor_cache = mlp_forward_cached(agent.actor, batch.states)
    a = np.tanh(raw)
    q_pi, c_pi = mlp_forward_cached(agent.critic, np.concatenate([batch.states, a], axis=1))
    actor_loss = float(-np.mean(q_pi[:, 0]))
    _, gin = mlp_gradient(agent.critic, np.full((n, 1), -1.0 / n), c_pi, params=None)
    dl_da = gin[:, agent.state_dim :]
    actor_grads, _ = mlp_gradient(
        agent.actor, dl_da * (1.0 - a * a), actor_cache, params="flat", input_grad=False
    )
    apply_gradients(agent.actor, agent.actor_opt, actor_grads)

    polyak_update(agent.actor_target, agent.actor, agent.polyak)
    polyak_update(agent.critic_target, agent.critic, agent.polyak)

    if not (np.isfinite(critic_loss) and np.isfinite(actor_loss)):
        raise RuntimeError(
            f"non-finite DDPG losses: critic={critic_loss} actor={actor_loss}"
        )
    return critic_loss, actor_loss
