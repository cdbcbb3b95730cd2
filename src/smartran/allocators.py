"""Allocation policies: encode channel state, decode network actions,
and build and train the learners behind them.

Observation layout. The centralized policy sees the gain of every
(site, user, subcarrier) triple as standardized log-gains, flattened
site-major then user-row then subcarrier; its action carries one block
per site, each block holding a user logit and a power score per
(member, subcarrier) pair, so every site schedules among its own
associated users. A site's local policy sees only its own users'
entries, with the worst-case planning interference folded into each one
as log10(h / (noise + I)), so the local vector length is exactly
|U_b| * |K_b|.

Capacity padding. Networks are built once per run for a fixed user
capacity cap, so every observation is a plain vector zero-padded to
capacity and every site's action block has 2 * cap * K entries. Entry i
of a block belongs to the site's i-th member, users.rrs_members[b][i];
entries past the site's member count are ignored.

Action decoding. Both modes decode each site's block the same way, into
an owner row and a power per subcarrier. The owner is the member with
the largest user logit (ties to the first member, the lowest row). The
owners' power scores pass through a softmax scaled by the site's budget,
so the site's power sums to p_max exactly and an all-zero action yields
equal powers. The equal-power baseline grants through the same helper.
"""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig
from .learning import (
    DdpgAgent,
    DqnAgent,
    SacAgent,
    SacWork,
    ddpg_select_action,
    ddpg_update,
    dqn_select_action,
    dqn_update,
    make_ddpg_agent,
    make_dqn_agent,
    make_sac_agent,
    sac_select_action,
    sac_update,
)
from .metrics import Allocation, equal_share_power, interference_vector_distributed
from .netmodel import ChannelTensor, Topology, UserSet

_STD_FLOOR = 1e-9


def _standardize(values: np.ndarray) -> np.ndarray:
    if values.size == 0:
        return values
    mean = values.mean()
    std = values.std()
    return (values - mean) / (std + _STD_FLOOR)


def build_centralized_observation(channels: ChannelTensor, cap_users: int) -> np.ndarray:
    """Standardized log10 gains of all (B, U, K) triples, zero-padded to
    (B, cap, K) and flattened for the network."""
    b, u, k = channels.h.shape
    if u > cap_users:
        raise ValueError(f"{u} users exceed the configured capacity {cap_users}")
    logs = _standardize(np.log10(channels.h))
    padded = np.zeros((b, cap_users, k))
    padded[:, :u, :] = logs
    return padded.ravel()


def build_distributed_observations(
    channels: ChannelTensor,
    users: UserSet,
    topology: Topology,
    noise_w: float,
    cap_users: int,
) -> list[np.ndarray]:
    """One local observation per site: standardized log10 of the
    planning SINR numerator h / (noise + I_worst) over own users,
    zero-padded to (cap, K) and flattened."""
    k = topology.subcarrier_count
    interference = interference_vector_distributed(channels, topology, users)
    out = []
    for b in range(topology.rrs_count):
        rows = users.rrs_members[b]
        if len(rows) > cap_users:
            raise ValueError(f"site {b}: {len(rows)} users exceed capacity {cap_users}")
        local = channels.h[b, rows, :] / (noise_w + interference[rows])[:, None]
        logs = _standardize(np.log10(local)) if len(rows) else np.empty((0, k))
        padded = np.zeros((cap_users, k))
        padded[: len(rows), :] = logs
        out.append(padded.ravel())
    return out


def decode_action(
    raw: np.ndarray, rows: np.ndarray, cap_users: int, k: int, p_max_w: float
) -> tuple[np.ndarray, np.ndarray]:
    """Turn one site's raw action block into (owner, power): the global
    row that wins each of the k subcarriers and the power it gets there.
    rows are the site's members in block order; only they can win.

    Always feasible: one owner per subcarrier, powers non-negative and
    summing to exactly p_max_w. An idle site (no rows) gets two empty
    arrays, so it grants nothing.
    """
    raw = np.asarray(raw, dtype=np.float64).ravel()
    if raw.shape[0] != 2 * cap_users * k:
        raise ValueError(f"action block of length {raw.shape[0]}, expected {2 * cap_users * k}")
    n = len(rows)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    logits = raw[: cap_users * k].reshape(cap_users, k)
    scores = raw[cap_users * k :].reshape(cap_users, k)
    winners = np.argmax(logits[:n, :], axis=0)  # first max -> lowest row on ties
    chosen = scores[winners, np.arange(k)]
    shifted = np.exp(chosen - chosen.max())
    return rows[winners], p_max_w * shifted / shifted.sum()


def _grant(alloc: Allocation, site: int, owner: np.ndarray, power) -> None:
    """Give subcarrier j of the site to global row owner[j] at power[j]
    (or at the scalar power on every subcarrier)."""
    cols = np.arange(len(owner))
    alloc.rho[site, owner, cols] = 1
    alloc.p[site, owner, cols] = power


def make_allocator(
    kind: str, state_dim: int, action_dim: int, rng: np.random.Generator, cfg: ScenarioConfig
):
    """A fresh allocator learner. A DQN allocator does not emit raw
    actions; it picks which of cfg.dqn_actions fixed raw-action vectors
    (its codebook, drawn after the network) fits the current channels."""
    common = dict(
        hidden_sizes=cfg.hidden_sizes,
        lr=cfg.learning_rate,
        gamma=cfg.alloc_discount,
        polyak=cfg.polyak,
        buffer_capacity=cfg.effective_buffer_capacity,
    )
    if kind == "sac":
        return make_sac_agent(
            state_dim, action_dim, rng, init_alpha=cfg.init_temperature, **common
        )
    if kind == "dqn":
        agent = make_dqn_agent(
            state_dim, cfg.dqn_actions, rng, epsilon=cfg.dqn_epsilon, **common
        )
        agent.candidates = rng.uniform(-1.0, 1.0, size=(cfg.dqn_actions, action_dim))
        return agent
    if kind == "ddpg":
        return make_ddpg_agent(state_dim, action_dim, rng, noise_std=cfg.ddpg_noise, **common)
    raise ValueError(f"unknown learner {kind!r}")


def update_allocator(
    agent, rng: np.random.Generator, batch_size: int, work: SacWork | None = None
) -> SacWork | None:
    """One gradient step on a replay batch, once the buffer holds one.

    A SAC step samples into and runs on `work`, built here at the first
    step when None. Returns the work so the caller can pass it to the
    next update of this agent or of any agent of the same shape."""
    if len(agent.buffer) < batch_size:
        return work
    if isinstance(agent, SacAgent):
        if work is None:
            work = SacWork(agent, batch_size)
        sac_update(agent, agent.buffer.sample(batch_size, rng, out=work.batch), rng, work)
    elif isinstance(agent, DqnAgent):
        dqn_update(agent, agent.buffer.sample(batch_size, rng))
    elif isinstance(agent, DdpgAgent):
        ddpg_update(agent, agent.buffer.sample(batch_size, rng))
    else:
        raise TypeError(f"unsupported allocator agent {type(agent).__name__}")
    return work


def _select_raw(
    agent, obs: np.ndarray, rng, deterministic: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Learner dispatch. Returns (raw action vector for the decoder,
    action as stored in the replay buffer). DQN stores its codebook
    index; the continuous learners store the vector itself."""
    if isinstance(agent, SacAgent):
        a = sac_select_action(agent, obs, rng, deterministic=deterministic)
        return a, a
    if isinstance(agent, DqnAgent):
        idx = dqn_select_action(agent, obs, rng, greedy=deterministic)
        return agent.candidates[idx], np.array([float(idx)])
    if isinstance(agent, DdpgAgent):
        a = ddpg_select_action(agent, obs, rng, deterministic=deterministic)
        return a, a
    raise TypeError(f"unsupported allocator agent {type(agent).__name__}")


def _blank_allocation(shape: tuple[int, int, int]) -> Allocation:
    return Allocation(p=np.zeros(shape), rho=np.zeros(shape, dtype=np.int8))


def allocate_centralized(
    agent,
    obs: np.ndarray,
    users: UserSet,
    topology: Topology,
    cap_users: int,
    rng: np.random.Generator,
    deterministic: bool = False,
) -> tuple[Allocation, np.ndarray]:
    """One joint action from the pool agent, decoded site by site.
    Returns the allocation and the replay-storable action."""
    b = topology.rrs_count
    k = topology.subcarrier_count
    alloc = _blank_allocation((b, users.n_users, k))
    if users.n_users == 0:
        return alloc, np.zeros(0)
    raw, stored = _select_raw(agent, obs, rng, deterministic)
    block = 2 * cap_users * k
    for site in range(b):
        owner, power = decode_action(
            raw[site * block : (site + 1) * block],
            users.rrs_members[site],
            cap_users,
            k,
            float(topology.p_max_w[site]),
        )
        _grant(alloc, site, owner, power)
    return alloc, np.asarray(stored, dtype=np.float64)


def allocate_distributed(
    agents: list,
    observations: list[np.ndarray],
    users: UserSet,
    topology: Topology,
    cap_users: int,
    rngs: list[np.random.Generator],
    deterministic: bool = False,
) -> tuple[Allocation, list[np.ndarray | None]]:
    """Each site's agent acts on its own observation with its own rng;
    a site's fragment depends only on its local inputs. Returns the
    assembled allocation and each site's stored action (None if idle)."""
    b = topology.rrs_count
    k = topology.subcarrier_count
    if not (len(agents) == len(observations) == len(rngs) == b):
        raise ValueError("need one agent, observation, and rng per site")
    alloc = _blank_allocation((b, users.n_users, k))
    actions: list[np.ndarray | None] = []
    for site in range(b):
        rows = users.rrs_members[site]
        if len(rows) == 0:
            actions.append(None)
            continue
        raw, stored = _select_raw(agents[site], observations[site], rngs[site], deterministic)
        owner, power = decode_action(raw, rows, cap_users, k, float(topology.p_max_w[site]))
        _grant(alloc, site, owner, power)
        actions.append(np.asarray(stored, dtype=np.float64))
    return alloc, actions


def allocate_equal_power(
    channels: ChannelTensor, users: UserSet, topology: Topology
) -> Allocation:
    """Learning-free baseline: every site splits its budget evenly over
    its own (user, subcarrier) pairs, assigning subcarriers round-robin
    by user row order. The same grant serves both modes."""
    b, u, k = channels.h.shape
    alloc = _blank_allocation((b, u, k))
    for site in range(b):
        rows = users.rrs_members[site]
        n = len(rows)
        if n == 0:
            continue
        share = equal_share_power(float(topology.p_max_w[site]), n, k)
        # round-robin one user per subcarrier; power on assigned pairs
        # scaled so the site spends its full budget
        _grant(alloc, site, rows[np.arange(k) % n], share * n)
    return alloc
