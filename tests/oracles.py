"""Independent reference implementations for the test suite.

Everything here is written as plain scalar loops (or textbook
recursions) on purpose: a vectorization or indexing bug in the package
cannot hide inside its own oracle. The one exception is the dense rate
section, a bit-exact reference for the package's grant-only rate
kernels. Keep this module free of smartran imports.
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# Two-state toy MDP with a known optimal action-value table.
#
# State 0, action 1 pays 1.0 and leads to state 1; every other (s, a)
# pays 0.25. Action 0 in state 1 returns to state 0, everything else
# lands in state 1. With gamma = 0.5 the optimal Q is small enough to
# verify by hand:
#   Q*(0,1) = 1.0  + 0.5 * max Q*(1,.) = 1.5
#   Q*(1,0) = 0.25 + 0.5 * max Q*(0,.) = 1.0
#   Q*(0,0) = 0.25 + 0.5 * max Q*(1,.) = 0.75
#   Q*(1,1) = 0.25 + 0.5 * max Q*(1,.) = 0.75

TOY_GAMMA = 0.5
TOY_REWARD = {(0, 0): 0.25, (0, 1): 1.0, (1, 0): 0.25, (1, 1): 0.25}
TOY_NEXT = {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 1}
TOY_STATES = 2
TOY_ACTIONS = 2


def toy_q_star(tol: float = 1e-13) -> np.ndarray:
    """Value iteration on the toy MDP until the Bellman residual dies."""
    q = np.zeros((TOY_STATES, TOY_ACTIONS))
    while True:
        residual = 0.0
        for s in range(TOY_STATES):
            for a in range(TOY_ACTIONS):
                target = TOY_REWARD[(s, a)] + TOY_GAMMA * q[TOY_NEXT[(s, a)]].max()
                residual = max(residual, abs(target - q[s, a]))
                q[s, a] = target
        if residual < tol:
            return q


# ---------------------------------------------------------------------------
# Signaling overhead and training complexity, recounted the dumb way.


def loop_overhead(bits_power: int, bits_csi: int, bits_subcarrier: int,
                  n_users: int, n_subcarriers: int) -> int:
    total = 0
    for _ in range(n_users):
        for _ in range(n_subcarriers):
            total += bits_power + bits_csi + bits_subcarrier
    return total


def loop_complexity(episodes: int, batch: int, layer_sizes) -> int:
    per_pass = 0
    for left, right in zip(layer_sizes[:-1], layer_sizes[1:]):
        per_pass += int(left) * int(right)
    return episodes * batch * per_pass


# ---------------------------------------------------------------------------
# Rates, both interference models, as scalar triple loops.


def loop_interference_centralized(h: np.ndarray, p: np.ndarray, rho: np.ndarray,
                                  b: int, u: int, k: int) -> float:
    """Interference at victim (b, u, k) from actual grants: every other
    site's granted power (excluding grants made to u itself) through the
    victim's own gain to that site."""
    n_rrs, n_users, _ = h.shape
    interference = 0.0
    for bp in range(n_rrs):
        if bp == b:
            continue
        for up in range(n_users):
            if up == u:
                continue
            interference += h[bp, u, k] * p[bp, up, k] * rho[bp, up, k]
    return interference


def loop_rate_centralized(h: np.ndarray, p: np.ndarray, rho: np.ndarray,
                          noise_w: float) -> float:
    """Sum-rate with cross-site interference from actual grants."""
    n_rrs, n_users, n_sub = h.shape
    total = 0.0
    for b in range(n_rrs):
        for u in range(n_users):
            for k in range(n_sub):
                if rho[b, u, k] == 0:
                    continue
                interference = loop_interference_centralized(h, p, rho, b, u, k)
                sinr = p[b, u, k] * h[b, u, k] / (noise_w + interference)
                total += np.log2(1.0 + sinr)
    return float(total)


def loop_interference_planning(h_large: np.ndarray, counts, p_max_w,
                               n_subcarriers: int, serving) -> np.ndarray:
    """Worst-case interference each user plans against: every foreign
    site spends its full budget in equal shares over its own
    (user, subcarrier) pairs, seen through large-scale gain only."""
    n_rrs, n_users = h_large.shape
    out = np.zeros(n_users)
    for u in range(n_users):
        for bp in range(n_rrs):
            if bp == serving[u]:
                continue
            n_bp = int(counts[bp])
            if n_bp == 0:
                continue
            share = float(p_max_w[bp]) / (n_bp * n_subcarriers)
            for _ in range(n_bp):
                out[u] += h_large[bp, u] * share
    return out


def loop_rate_distributed(h: np.ndarray, p: np.ndarray, rho: np.ndarray,
                          h_large: np.ndarray, counts, p_max_w,
                          serving, noise_w: float) -> float:
    n_rrs, n_users, n_sub = h.shape
    planning = loop_interference_planning(h_large, counts, p_max_w, n_sub, serving)
    total = 0.0
    for b in range(n_rrs):
        for u in range(n_users):
            if serving[u] != b:
                continue
            for k in range(n_sub):
                if rho[b, u, k] == 0:
                    continue
                sinr = p[b, u, k] * h[b, u, k] / (noise_w + planning[u])
                total += np.log2(1.0 + sinr)
    return float(total)


# ---------------------------------------------------------------------------
# Rates over the dense (site, user, subcarrier) tensor. Not loops: the
# package's grant-only kernels must reproduce these bit for bit, so they
# keep numpy's dense summation order.


def dense_interference_centralized(h: np.ndarray, p: np.ndarray,
                                   rho: np.ndarray) -> np.ndarray:
    """(B, U, K) interference at every potential victim link from the
    other sites' actual grants, minus anything granted to the victim."""
    pr = p * rho
    totals = pr.sum(axis=1)
    contrib = h * (totals[:, None, :] - pr)
    return contrib.sum(axis=0)[None, :, :] - contrib


def dense_rate_centralized(h: np.ndarray, p: np.ndarray, rho: np.ndarray,
                           noise_w: float) -> float:
    signal = h * p * rho
    interference = dense_interference_centralized(h, p, rho)
    return float(np.log2(1.0 + signal / (noise_w + interference)).sum())


def dense_rate_matrix_distributed(h: np.ndarray, p: np.ndarray, rho: np.ndarray,
                                  members, planning: np.ndarray,
                                  noise_w: float) -> np.ndarray:
    """(B, U, K) per-link rates of each site's own users under the
    planning interference vector (U,)."""
    rates = np.zeros_like(p)
    signal = h * p * rho
    for b, rows in enumerate(members):
        if len(rows) == 0:
            continue
        denom = noise_w + planning[rows]
        rates[b, rows, :] = np.log2(1.0 + signal[b, rows, :] / denom[:, None])
    return rates


# ---------------------------------------------------------------------------
# Action decoding and grant placement, one subcarrier at a time.


def loop_decode_place(raw_blocks, members, cap: int, n_users: int,
                      n_subcarriers: int, p_max_w):
    """(p, rho) of shape (B, n_users, K) from one raw block per site.

    A block is cap * K user logits then cap * K power scores, row-major
    over (member slot, subcarrier). On each subcarrier the member with
    the largest logit wins (the earliest on ties) and is granted under
    its global row; the winners' scores pass through a softmax scaled to
    the site's budget. Idle sites grant nothing."""
    n_rrs = len(members)
    k = n_subcarriers
    p = np.zeros((n_rrs, n_users, k))
    rho = np.zeros((n_rrs, n_users, k), dtype=np.int8)
    for b in range(n_rrs):
        raw, rows = raw_blocks[b], members[b]
        if len(rows) == 0:
            continue
        winners = []
        for j in range(k):
            best = 0
            for i in range(1, len(rows)):
                if raw[i * k + j] > raw[best * k + j]:
                    best = i
            winners.append(best)
        scores = [float(raw[cap * k + winners[j] * k + j]) for j in range(k)]
        top = max(scores)
        weights = [math.exp(s - top) for s in scores]
        total = sum(weights)
        for j in range(k):
            row = int(rows[winners[j]])
            rho[b, row, j] = 1
            p[b, row, j] = float(p_max_w[b]) * weights[j] / total
    return p, rho


# ---------------------------------------------------------------------------
# TOC recomputation.


def loop_toc(rate: float, taus, gammas, alpha: float, beta: float,
             centralized: bool) -> float:
    if centralized:
        tau, gamma = sum(taus), sum(gammas)
    else:
        tau, gamma = max(taus), max(gammas)
    return rate - beta * tau - alpha * gamma


# ---------------------------------------------------------------------------
# Central finite differences over arbitrary parameter lists.


def fd_gradients(loss_fn, params, eps: float = 1e-6):
    """Central-difference gradient of loss_fn() w.r.t. each entry of
    each array in params (perturbed in place, then restored)."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            keep = flat_p[i]
            flat_p[i] = keep + eps
            hi = loss_fn()
            flat_p[i] = keep - eps
            lo = loss_fn()
            flat_p[i] = keep
            flat_g[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


# ---------------------------------------------------------------------------
# The learning core as it was before the parameter arena: one array per
# weight and bias, per-layer Adam moments, a backward that always forms
# every parameter gradient and the full input gradient (recomputing the
# hidden activations), and a SAC update that always evaluates the
# next-state policy and both target critics (when the agent has them:
# one built with gamma = 0 has none). Bit-for-bit reference for the
# arena, the one-sided backward and the bandit skip.

SEED_LOG_STD_MIN = -20.0
SEED_LOG_STD_MAX = 2.0
SEED_SQUASH_EPS = 1e-6
SEED_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


class SeedNet:
    """Separate weight and bias arrays, copied from any network that
    exposes weights, biases and activation."""

    def __init__(self, net):
        self.weights = [np.array(w, dtype=np.float64) for w in net.weights]
        self.biases = [np.array(b, dtype=np.float64) for b in net.biases]
        self.activation = net.activation

    def params(self):
        return [x for pair in zip(self.weights, self.biases) for x in pair]

    def flat(self):
        return np.concatenate([p.ravel() for p in self.params()])


def _seed_act(name, z):
    return np.tanh(z) if name == "tanh" else np.maximum(z, 0.0)


def _seed_act_deriv(name, z, a):
    if name == "tanh":
        return 1.0 - a * a
    return (z > 0.0).astype(np.float64)


def seed_forward_cached(net, x):
    """2-D forward; returns (output, layer inputs, pre-activations)."""
    a = np.asarray(x, dtype=np.float64)
    inputs, preacts = [], []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(a)
        z = a @ w.T + b
        preacts.append(z)
        a = z if i == last else _seed_act(net.activation, z)
    return a, inputs, preacts


def seed_forward(net, x):
    return seed_forward_cached(net, x)[0]


def seed_mlp_gradient(net, grad_output, inputs, preacts):
    """(parameter gradients [dW0, db0, ...], dL/dx), 2-D in and out."""
    n_layers = len(net.weights)
    grads = [np.empty(0)] * (2 * n_layers)
    delta = np.asarray(grad_output, dtype=np.float64)
    for i in range(n_layers - 1, -1, -1):
        grads[2 * i] = delta.T @ inputs[i]
        grads[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ net.weights[i]
        if i > 0:
            z = preacts[i - 1]
            a = _seed_act(net.activation, z)
            delta = delta * _seed_act_deriv(net.activation, z, a)
    return grads, delta


class SeedAdam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def seed_adam_step(state, params, grads):
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient passed to adam_step")
    state.step += 1
    b1c = 1.0 - state.beta1**state.step
    b2c = 1.0 - state.beta2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + state.eps)


def seed_polyak(target, online, rho):
    for tp, op in zip(target.params(), online.params()):
        tp *= 1.0 - rho
        tp += rho * op


class SeedSac:
    """Copy of a SAC agent's networks, temperature and settings, with
    fresh per-layer optimizer state (as a newly built agent has). The
    targets are None when the agent has none."""

    NETS = ("actor", "critic1", "critic2", "target1", "target2")

    def __init__(self, agent, lr):
        for name in self.NETS:
            net = getattr(agent, name)
            setattr(self, name, None if net is None else SeedNet(net))
        self.log_alpha = np.array(agent.log_alpha, dtype=np.float64)
        self.state_dim, self.action_dim = agent.state_dim, agent.action_dim
        self.auto_alpha, self.target_entropy = agent.auto_alpha, agent.target_entropy
        self.gamma, self.polyak = agent.gamma, agent.polyak
        self.actor_opt = SeedAdam(self.actor.params(), lr)
        self.critic1_opt = SeedAdam(self.critic1.params(), lr)
        self.critic2_opt = SeedAdam(self.critic2.params(), lr)
        self.alpha_opt = SeedAdam([self.log_alpha], lr)


def _seed_policy_stats(agent, states):
    out, inputs, preacts = seed_forward_cached(agent.actor, states)
    d = agent.action_dim
    mu = out[:, :d]
    raw = out[:, d:]
    log_std = np.clip(raw, SEED_LOG_STD_MIN, SEED_LOG_STD_MAX)
    active = ((raw > SEED_LOG_STD_MIN) & (raw < SEED_LOG_STD_MAX)).astype(np.float64)
    return mu, log_std, active, (inputs, preacts)


def _seed_squash(mu, log_std, eps):
    sigma = np.exp(log_std)
    u = mu + sigma * eps
    a = np.tanh(u)
    logp = (
        -0.5 * eps * eps - log_std - SEED_HALF_LOG_2PI - np.log(1.0 - a * a + SEED_SQUASH_EPS)
    ).sum(axis=1)
    return a, logp, sigma


def seed_sac_update(agent, batch, rng):
    """Returns (critic1, critic2, actor, temperature) losses."""
    n = batch.states.shape[0]
    alpha = float(np.exp(agent.log_alpha[0]))

    mu2, log_std2, _, _ = _seed_policy_stats(agent, batch.next_states)
    eps2 = rng.standard_normal(mu2.shape)
    a2, logp2, _ = _seed_squash(mu2, log_std2, eps2)
    if agent.target1 is None:  # gamma = 0: the bootstrap term is zero
        y = batch.rewards + agent.gamma * (1.0 - batch.dones) * (-alpha * logp2)
    else:
        sa2 = np.concatenate([batch.next_states, a2], axis=1)
        q1t = seed_forward(agent.target1, sa2)[:, 0]
        q2t = seed_forward(agent.target2, sa2)[:, 0]
        y = batch.rewards + agent.gamma * (1.0 - batch.dones) * (
            np.minimum(q1t, q2t) - alpha * logp2
        )

    sa = np.concatenate([batch.states, batch.actions], axis=1)
    losses = []
    for critic, opt in ((agent.critic1, agent.critic1_opt), (agent.critic2, agent.critic2_opt)):
        q, inputs, preacts = seed_forward_cached(critic, sa)
        diff = q[:, 0] - y
        losses.append(float(np.mean(diff * diff)))
        grads, _ = seed_mlp_gradient(critic, (2.0 * diff / n)[:, None], inputs, preacts)
        seed_adam_step(opt, critic.params(), grads)

    mu, log_std, active, actor_cache = _seed_policy_stats(agent, batch.states)
    eps = rng.standard_normal(mu.shape)
    a, logp, sigma = _seed_squash(mu, log_std, eps)
    sa_pi = np.concatenate([batch.states, a], axis=1)
    q1, *c1 = seed_forward_cached(agent.critic1, sa_pi)
    q2, *c2 = seed_forward_cached(agent.critic2, sa_pi)
    qmin = np.minimum(q1[:, 0], q2[:, 0])
    actor_loss = float(np.mean(alpha * logp - qmin))

    take1 = (q1[:, 0] <= q2[:, 0]).astype(np.float64)[:, None]
    _, gin1 = seed_mlp_gradient(agent.critic1, -take1 / n, *c1)
    _, gin2 = seed_mlp_gradient(agent.critic2, -(1.0 - take1) / n, *c2)
    dl_da = (gin1 + gin2)[:, agent.state_dim :]

    one_minus_a2 = 1.0 - a * a
    dlogp_du = 2.0 * a * one_minus_a2 / (one_minus_a2 + SEED_SQUASH_EPS)
    g_u = (alpha / n) * dlogp_du + dl_da * one_minus_a2
    g_log_std = (-alpha / n) + g_u * sigma * eps
    upstream = np.concatenate([g_u, g_log_std * active], axis=1)
    actor_grads, _ = seed_mlp_gradient(agent.actor, upstream, *actor_cache)
    seed_adam_step(agent.actor_opt, agent.actor.params(), actor_grads)

    if agent.auto_alpha:
        gap = float(np.mean(logp) + agent.target_entropy)
        temp_loss = -float(agent.log_alpha[0]) * gap
        seed_adam_step(agent.alpha_opt, [agent.log_alpha], [np.array([-gap])])
    else:
        temp_loss = 0.0

    if agent.target1 is not None:
        seed_polyak(agent.target1, agent.critic1, agent.polyak)
        seed_polyak(agent.target2, agent.critic2, agent.polyak)
    return losses[0], losses[1], actor_loss, temp_loss
