"""Soft actor-critic with twin critics and learned temperature.

The actor outputs (mu, log_std) per action dimension; actions are
tanh-squashed Gaussian samples in [-1, 1]^d. log_std is hard-clamped to
[LOG_STD_MIN, LOG_STD_MAX] with the gradient masked wherever the clamp
is active.

Log-likelihood of a squashed sample a = tanh(u), u = mu + sigma*eps:

    log pi(a|s) = sum_j [ -eps_j^2/2 - log sigma_j - log(2 pi)/2
                          - log(1 - a_j^2 + SQUASH_EPS) ]

and the gradients used below, holding eps fixed (reparameterization):

    d log pi / d u_j       = 2 a_j (1 - a_j^2) / (1 - a_j^2 + SQUASH_EPS)
    d log pi / d mu_j      = d log pi / d u_j
    d log pi / d log std_j = -1 + (d log pi / d u_j) * sigma_j * eps_j
    d a_j / d u_j          = 1 - a_j^2

The actor loss mean(alpha * log pi - min_i Q_i(s, a)) backpropagates
through the minimum by routing each sample's Q-gradient through
whichever critic attains it, using the critics' input gradients with
respect to the action slice (their parameters are not updated there,
so no parameter gradients are formed).

Bandit skip: when gamma * (1 - done) is zero for every sampled row, as
for the allocators (zero discount, terminal transitions), the critic
target is the reward alone. sac_update then skips the next-state actor
pass and both target-critic forwards, but still draws the next-state
noise so the caller's Generator advances exactly as on the full path.
The Polyak blends of the targets run either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adam import AdamState, adam_init, adam_step, apply_gradients
from .mlp import Mlp, mlp_forward, mlp_forward_cached, mlp_gradient, mlp_init, polyak_update
from .replay import ReplayBuffer, TransitionBatch

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
SQUASH_EPS = 1e-6
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass
class SacLosses:
    critic1: float
    critic2: float
    actor: float
    temperature: float


@dataclass
class SacAgent:
    state_dim: int
    action_dim: int
    actor: Mlp  # state -> (mu, log_std_raw), width 2 * action_dim
    critic1: Mlp  # (state, action) -> scalar
    critic2: Mlp
    target1: Mlp
    target2: Mlp
    log_alpha: np.ndarray  # shape (1,)
    auto_alpha: bool
    target_entropy: float
    gamma: float
    polyak: float
    actor_opt: AdamState
    critic1_opt: AdamState
    critic2_opt: AdamState
    alpha_opt: AdamState
    buffer: ReplayBuffer

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha[0]))


def make_sac_agent(
    state_dim: int,
    action_dim: int,
    rng: np.random.Generator,
    hidden_sizes=(64, 64),
    lr: float = 3e-4,
    gamma: float = 0.99,
    polyak: float = 0.005,
    init_alpha: float = 0.2,
    auto_alpha: bool = True,
    target_entropy: float | None = None,
    buffer_capacity: int = 100_000,
    activation: str = "tanh",
) -> SacAgent:
    """Build actor, twin critics (targets start as copies), optimizers,
    and the replay buffer. target_entropy defaults to -action_dim."""
    if state_dim < 1 or action_dim < 1:
        raise ValueError("state_dim and action_dim must be >= 1")
    if init_alpha <= 0:
        raise ValueError("init_alpha must be positive")
    hidden = tuple(int(h) for h in hidden_sizes)
    actor = mlp_init((state_dim, *hidden, 2 * action_dim), rng, activation, final_scale=0.01)
    critic1 = mlp_init((state_dim + action_dim, *hidden, 1), rng, activation)
    critic2 = mlp_init((state_dim + action_dim, *hidden, 1), rng, activation)
    log_alpha = np.array([np.log(init_alpha)])
    return SacAgent(
        state_dim=state_dim,
        action_dim=action_dim,
        actor=actor,
        critic1=critic1,
        critic2=critic2,
        target1=critic1.copy(),
        target2=critic2.copy(),
        log_alpha=log_alpha,
        auto_alpha=auto_alpha,
        target_entropy=float(-action_dim if target_entropy is None else target_entropy),
        gamma=float(gamma),
        polyak=float(polyak),
        actor_opt=adam_init([actor.flat], lr),
        critic1_opt=adam_init([critic1.flat], lr),
        critic2_opt=adam_init([critic2.flat], lr),
        alpha_opt=adam_init([log_alpha], lr),
        buffer=ReplayBuffer(buffer_capacity),
    )


def _policy_stats(agent: SacAgent, states: np.ndarray):
    """Actor forward returning (mu, clamped log_std, clamp mask, cache)."""
    out, cache = mlp_forward_cached(agent.actor, states)
    d = agent.action_dim
    mu = out[:, :d]
    raw = out[:, d:]
    log_std = np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)
    active = ((raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)).astype(np.float64)
    return mu, log_std, active, cache


def _squash(mu: np.ndarray, log_std: np.ndarray, eps: np.ndarray):
    """Sample a = tanh(mu + sigma*eps) and its log-likelihood."""
    sigma = np.exp(log_std)
    u = mu + sigma * eps
    a = np.tanh(u)
    logp = (
        -0.5 * eps * eps - log_std - _HALF_LOG_2PI - np.log(1.0 - a * a + SQUASH_EPS)
    ).sum(axis=1)
    return a, logp, sigma


def sac_select_action(
    agent: SacAgent,
    state,
    rng: np.random.Generator,
    deterministic: bool = False,
) -> np.ndarray:
    """One action in [-1, 1]^d. Deterministic mode returns tanh(mu)."""
    s = np.asarray(state, dtype=np.float64)[None, :]
    out = mlp_forward(agent.actor, s)
    d = agent.action_dim
    mu = out[:, :d]
    if deterministic:
        return np.tanh(mu)[0]
    log_std = np.clip(out[:, d:], LOG_STD_MIN, LOG_STD_MAX)
    eps = rng.standard_normal(mu.shape)
    a, _, _ = _squash(mu, log_std, eps)
    return a[0]


def sac_update(agent: SacAgent, batch: TransitionBatch, rng: np.random.Generator) -> SacLosses:
    """One gradient step on critics, actor, and temperature, then a
    Polyak blend of the targets. Raises on non-finite losses."""
    n = batch.states.shape[0]
    alpha = agent.alpha

    # --- critic targets from the squashed policy at the next state
    discount = agent.gamma * (1.0 - batch.dones)
    if np.any(discount):
        mu2, log_std2, _, _ = _policy_stats(agent, batch.next_states)
        eps2 = rng.standard_normal(mu2.shape)
        a2, logp2, _ = _squash(mu2, log_std2, eps2)
        sa2 = np.concatenate([batch.next_states, a2], axis=1)
        q1t = mlp_forward(agent.target1, sa2)[:, 0]
        q2t = mlp_forward(agent.target2, sa2)[:, 0]
        y = batch.rewards + discount * (np.minimum(q1t, q2t) - alpha * logp2)
    else:  # bandit: the target is the reward; keep the noise draw
        rng.standard_normal((n, agent.action_dim))
        y = batch.rewards

    # --- twin critic regression
    sa = np.concatenate([batch.states, batch.actions], axis=1)
    losses = []
    for critic, opt in ((agent.critic1, agent.critic1_opt), (agent.critic2, agent.critic2_opt)):
        q, cache = mlp_forward_cached(critic, sa)
        diff = q[:, 0] - y
        losses.append(float(np.mean(diff * diff)))
        grads, _ = mlp_gradient(
            critic, (2.0 * diff / n)[:, None], cache, params="flat", input_grad=False
        )
        apply_gradients(critic, opt, grads)

    # --- actor: fresh reparameterized sample through the updated critics
    mu, log_std, active, actor_cache = _policy_stats(agent, batch.states)
    eps = rng.standard_normal(mu.shape)
    a, logp, sigma = _squash(mu, log_std, eps)
    sa_pi = np.concatenate([batch.states, a], axis=1)
    q1, c1 = mlp_forward_cached(agent.critic1, sa_pi)
    q2, c2 = mlp_forward_cached(agent.critic2, sa_pi)
    qmin = np.minimum(q1[:, 0], q2[:, 0])
    actor_loss = float(np.mean(alpha * logp - qmin))

    take1 = (q1[:, 0] <= q2[:, 0]).astype(np.float64)[:, None]
    _, gin1 = mlp_gradient(agent.critic1, -take1 / n, c1, params=None)
    _, gin2 = mlp_gradient(agent.critic2, -(1.0 - take1) / n, c2, params=None)
    dl_da = (gin1 + gin2)[:, agent.state_dim :]  # dL/da, already averaged

    one_minus_a2 = 1.0 - a * a
    dlogp_du = 2.0 * a * one_minus_a2 / (one_minus_a2 + SQUASH_EPS)
    g_u = (alpha / n) * dlogp_du + dl_da * one_minus_a2
    g_mu = g_u
    g_log_std = (-alpha / n) + g_u * sigma * eps
    upstream = np.concatenate([g_mu, g_log_std * active], axis=1)
    actor_grads, _ = mlp_gradient(
        agent.actor, upstream, actor_cache, params="flat", input_grad=False
    )
    apply_gradients(agent.actor, agent.actor_opt, actor_grads)

    # --- temperature toward the entropy target (logp is already detached)
    if agent.auto_alpha:
        gap = float(np.mean(logp) + agent.target_entropy)
        temp_loss = -float(agent.log_alpha[0]) * gap
        adam_step(agent.alpha_opt, [agent.log_alpha], [np.array([-gap])])
    else:
        temp_loss = 0.0

    polyak_update(agent.target1, agent.critic1, agent.polyak)
    polyak_update(agent.target2, agent.critic2, agent.polyak)

    out = SacLosses(
        critic1=losses[0], critic2=losses[1], actor=actor_loss, temperature=temp_loss
    )
    if not all(np.isfinite(v) for v in (out.critic1, out.critic2, out.actor, out.temperature)):
        raise RuntimeError(
            f"non-finite SAC losses: critic1={out.critic1} critic2={out.critic2} "
            f"actor={out.actor} temperature={out.temperature} alpha={alpha}"
        )
    return out
