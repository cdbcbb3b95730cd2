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
An agent built with gamma = 0 never reads a target, so it has none
(target1 and target2 are None) and its updates blend none; an agent
with gamma != 0 keeps both and blends them on every update.

Work buffers: every batch- or arena-sized intermediate of sac_update
lives in a SacWork, which a caller builds once and passes to every
update of agents of one shape; sac_update builds a fresh one when given
none. The buffered math performs the same float operations in the same
order as the formulas above, so the results do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adam import AdamState, adam_init, adam_step, apply_gradients
from .mlp import (
    Mlp,
    MlpBuffers,
    mlp_forward,
    mlp_forward_cached,
    mlp_gradient,
    mlp_init,
    polyak_update,
)
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
    target1: Mlp | None  # None when gamma == 0: no update reads a target
    target2: Mlp | None
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
    buffer_capacity: int = 100_000,
) -> SacAgent:
    """Build actor, twin critics (targets start as copies, and exist only
    when gamma != 0), optimizers, and the replay buffer. Hidden layers are
    tanh; the temperature targets an entropy of -action_dim."""
    if state_dim < 1 or action_dim < 1:
        raise ValueError("state_dim and action_dim must be >= 1")
    if init_alpha <= 0:
        raise ValueError("init_alpha must be positive")
    hidden = tuple(int(h) for h in hidden_sizes)
    actor = mlp_init((state_dim, *hidden, 2 * action_dim), rng, final_scale=0.01)
    critic1 = mlp_init((state_dim + action_dim, *hidden, 1), rng)
    critic2 = mlp_init((state_dim + action_dim, *hidden, 1), rng)
    log_alpha = np.array([np.log(init_alpha)])
    bootstraps = gamma != 0
    return SacAgent(
        state_dim=state_dim,
        action_dim=action_dim,
        actor=actor,
        critic1=critic1,
        critic2=critic2,
        target1=critic1.copy() if bootstraps else None,
        target2=critic2.copy() if bootstraps else None,
        log_alpha=log_alpha,
        auto_alpha=auto_alpha,
        target_entropy=float(-action_dim),
        gamma=float(gamma),
        polyak=float(polyak),
        actor_opt=adam_init(actor.flat, lr),
        critic1_opt=adam_init(critic1.flat, lr),
        critic2_opt=adam_init(critic2.flat, lr),
        alpha_opt=adam_init(log_alpha, lr),
        buffer=ReplayBuffer(buffer_capacity),
    )


class SacWork:
    """Reusable buffers for sac_update at one shape: the actor and
    critic layer sizes, the batch size n, and whether gamma is nonzero.
    Agents of one shape that are updated one after another can share a
    SacWork; each update overwrites all of it.

    batch receives ReplayBuffer.sample(..., out=work.batch); its
    next_states is None at gamma = 0, where no update reads them. sa
    holds the (state, action) rows: the sampled actions for the critic
    regression, then the policy's for the actor path. grads is one
    gradient arena, sized for the largest network and used by critic1,
    critic2 and the actor in turn. The rest is noise, policy scratch,
    the networks' forward buffers and the critics' input gradients.
    """

    def __init__(self, agent: SacAgent, n: int):
        ds, da = agent.state_dim, agent.action_dim
        self.shape = _work_shape(agent, n)
        self.batch = TransitionBatch(
            states=np.empty((n, ds)),
            actions=np.empty((n, da)),
            rewards=np.empty(n),
            next_states=np.empty((n, ds)) if agent.gamma != 0 else None,
            dones=np.empty(n),
        )
        self.sa = np.empty((n, ds + da))
        self.eps = np.empty((n, da))
        self.log_std, self.sigma, self.a, self.one_minus_a2, self.tmp, self.tmp2 = (
            np.empty((n, da)) for _ in range(6)
        )
        self.active = np.empty((n, da), dtype=bool)
        self.below = np.empty((n, da), dtype=bool)
        self.upstream = np.empty((n, 2 * da))
        self.actor = MlpBuffers(agent.actor.layer_sizes, n)
        self.critics = (
            MlpBuffers(agent.critic1.layer_sizes, n),
            MlpBuffers(agent.critic2.layer_sizes, n),
        )
        self.gin = (np.empty((n, ds + da)), np.empty((n, ds + da)))
        self.grads = np.empty(
            max(agent.actor.flat.size, agent.critic1.flat.size, agent.critic2.flat.size)
        )


def _work_shape(agent: SacAgent, n: int) -> tuple:
    return (
        agent.actor.layer_sizes, agent.critic1.layer_sizes, agent.critic2.layer_sizes, n,
        agent.gamma != 0,
    )


def _squash(mu, log_std, eps, sigma=None, a=None):
    """a = tanh(mu + sigma * eps) with sigma = exp(log_std), written into
    the given buffers (fresh ones when None). Returns (a, sigma)."""
    sigma = np.exp(log_std, out=sigma)
    a = np.multiply(sigma, eps, out=a)
    a += mu
    np.tanh(a, out=a)
    return a, sigma


def _sample_policy(agent: SacAgent, states: np.ndarray, rng: np.random.Generator, work: SacWork):
    """Actor forward at states, then a squashed reparameterized sample.
    Leaves the clamped log_std, its clamp mask (active), the noise, sigma,
    the action a and 1 - a^2 in work; returns (log pi(a|s), actor cache)."""
    out, cache = mlp_forward_cached(agent.actor, states, out=work.actor)
    d = agent.action_dim
    mu = out[:, :d]
    raw = out[:, d:]
    np.clip(raw, LOG_STD_MIN, LOG_STD_MAX, out=work.log_std)
    np.greater(raw, LOG_STD_MIN, out=work.active)
    np.less(raw, LOG_STD_MAX, out=work.below)
    work.active &= work.below
    rng.standard_normal(out=work.eps)
    a, _ = _squash(mu, work.log_std, work.eps, work.sigma, work.a)
    # -eps^2/2 - log_std - log(2 pi)/2 - log(1 - a^2 + SQUASH_EPS), summed
    terms = np.multiply(work.eps, -0.5, out=work.tmp)
    terms *= work.eps
    terms -= work.log_std
    terms -= _HALF_LOG_2PI
    np.multiply(a, a, out=work.one_minus_a2)
    np.subtract(1.0, work.one_minus_a2, out=work.one_minus_a2)
    log_term = np.add(work.one_minus_a2, SQUASH_EPS, out=work.tmp2)
    np.log(log_term, out=log_term)
    terms -= log_term
    return terms.sum(axis=1), cache


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
    a, _ = _squash(mu, log_std, eps)
    return a[0]


def sac_update(
    agent: SacAgent,
    batch: TransitionBatch,
    rng: np.random.Generator,
    work: SacWork | None = None,
) -> SacLosses:
    """One gradient step on critics, actor, and temperature, then a
    Polyak blend of the targets if the agent has them. Runs on `work`
    (fresh buffers when None), which may hold the batch itself. Raises
    on non-finite losses."""
    n = batch.states.shape[0]
    if work is None:
        work = SacWork(agent, n)
    elif work.shape != _work_shape(agent, n):
        raise ValueError("work buffers were built for another agent shape or batch size")
    alpha = agent.alpha
    ds, d = agent.state_dim, agent.action_dim
    sa = work.sa

    # --- critic targets from the squashed policy at the next state
    discount = agent.gamma * (1.0 - batch.dones)
    if np.any(discount):
        logp2, _ = _sample_policy(agent, batch.next_states, rng, work)
        sa[:, :ds] = batch.next_states
        sa[:, ds:] = work.a
        q1t = mlp_forward(agent.target1, sa)[:, 0]
        q2t = mlp_forward(agent.target2, sa)[:, 0]
        y = batch.rewards + discount * (np.minimum(q1t, q2t) - alpha * logp2)
    else:  # bandit: the target is the reward; keep the noise draw
        rng.standard_normal(out=work.eps)
        y = batch.rewards

    # --- twin critic regression
    sa[:, :ds] = batch.states
    sa[:, ds:] = batch.actions
    losses = []
    for critic, opt, buffers in (
        (agent.critic1, agent.critic1_opt, work.critics[0]),
        (agent.critic2, agent.critic2_opt, work.critics[1]),
    ):
        q, cache = mlp_forward_cached(critic, sa, out=buffers)
        diff = q[:, 0] - y
        losses.append(float(np.mean(diff * diff)))
        grads, _ = mlp_gradient(
            critic, (2.0 * diff / n)[:, None], cache, params="flat", input_grad=False,
            out=work.grads[: critic.flat.size],
        )
        apply_gradients(critic, opt, grads)

    # --- actor: fresh reparameterized sample through the updated critics
    logp, actor_cache = _sample_policy(agent, batch.states, rng, work)
    sa[:, ds:] = work.a  # the state columns still hold batch.states
    q1, c1 = mlp_forward_cached(agent.critic1, sa, out=work.critics[0])
    q2, c2 = mlp_forward_cached(agent.critic2, sa, out=work.critics[1])
    qmin = np.minimum(q1[:, 0], q2[:, 0])
    actor_loss = float(np.mean(alpha * logp - qmin))

    take1 = (q1[:, 0] <= q2[:, 0]).astype(np.float64)[:, None]
    _, gin1 = mlp_gradient(agent.critic1, -take1 / n, c1, params=None, input_out=work.gin[0])
    _, gin2 = mlp_gradient(
        agent.critic2, -(1.0 - take1) / n, c2, params=None, input_out=work.gin[1]
    )
    dl_da = gin1[:, ds:]  # dL/da, already averaged
    dl_da += gin2[:, ds:]

    a, one_minus_a2 = work.a, work.one_minus_a2
    dlogp_du = np.multiply(a, 2.0, out=work.tmp)
    dlogp_du *= one_minus_a2
    dlogp_du /= np.add(one_minus_a2, SQUASH_EPS, out=work.tmp2)
    g_u = np.multiply(dlogp_du, alpha / n, out=work.upstream[:, :d])  # = g_mu
    g_u += np.multiply(dl_da, one_minus_a2, out=work.tmp2)
    g_log_std = np.multiply(g_u, work.sigma, out=work.upstream[:, d:])
    g_log_std *= work.eps
    g_log_std += -alpha / n
    g_log_std *= work.active
    actor_grads, _ = mlp_gradient(
        agent.actor, work.upstream, actor_cache, params="flat", input_grad=False,
        out=work.grads[: agent.actor.flat.size],
    )
    apply_gradients(agent.actor, agent.actor_opt, actor_grads)

    # --- temperature toward the entropy target (logp is already detached)
    if agent.auto_alpha:
        gap = float(np.mean(logp) + agent.target_entropy)
        temp_loss = -float(agent.log_alpha[0]) * gap
        adam_step(agent.alpha_opt, agent.log_alpha, np.array([-gap]))
    else:
        temp_loss = 0.0

    if agent.target1 is not None:
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
