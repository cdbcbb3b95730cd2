"""Allocation policies: encode channel state, decode network actions.

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
capacity; when fewer users are active the observation is zero-padded at
the network boundary and the unused action entries are ignored by the
decoder.

Action decoding. For each (site, subcarrier) the assigned user is the
argmax of the user logits over active rows (ties to the lowest id, i.e.
the first row). Each site's power scores on its assigned pairs pass
through a softmax scaled by that site's budget, so the per-site power
sums to p_max exactly and an all-zero action yields equal powers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learning import (
    DdpgAgent,
    DqnAgent,
    SacAgent,
    ddpg_select_action,
    dqn_select_action,
    sac_select_action,
)
from .metrics import Allocation, equal_share_power
from .netmodel import ChannelTensor, Topology, UserSet

_STD_FLOOR = 1e-9


@dataclass
class AllocScope:
    """Active-layout descriptor the decoder needs for one site."""

    rrs: int
    user_rows: np.ndarray  # global rows of this site's associated users
    n_subcarriers: int
    cap_users: int  # padded row capacity of the network's action block

    @property
    def n_active(self) -> int:
        return int(len(self.user_rows))

    @property
    def block_len(self) -> int:
        return 2 * self.cap_users * self.n_subcarriers


@dataclass
class AllocObservation:
    """Observation for one policy: its padded network input and the
    per-site decode scopes."""

    padded: np.ndarray  # network input at capacity
    scopes: list[AllocScope]


def _standardize(values: np.ndarray) -> np.ndarray:
    if values.size == 0:
        return values
    mean = values.mean()
    std = values.std()
    return (values - mean) / (std + _STD_FLOOR)


def build_centralized_observation(
    channels: ChannelTensor, users: UserSet, topology: Topology, cap_users: int
) -> AllocObservation:
    """Standardized log10 gains of all (B, U, K) triples, zero-padded to
    (B, cap, K) for the network."""
    b, u, k = channels.h.shape
    if u > cap_users:
        raise ValueError(f"{u} users exceed the configured capacity {cap_users}")
    logs = _standardize(np.log10(channels.h))
    padded = np.zeros((b, cap_users, k))
    padded[:, :u, :] = logs
    scopes = [
        AllocScope(
            rrs=site,
            user_rows=users.rrs_members[site],
            n_subcarriers=k,
            cap_users=cap_users,
        )
        for site in range(b)
    ]
    return AllocObservation(padded=padded.ravel(), scopes=scopes)


def build_distributed_observations(
    channels: ChannelTensor,
    users: UserSet,
    topology: Topology,
    noise_w: float,
    cap_users: int,
) -> list[AllocObservation]:
    """One local observation per site: standardized log10 of the
    planning SINR numerator h / (noise + I_worst) over own users."""
    from .metrics import interference_vector_distributed

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
        scope = AllocScope(rrs=b, user_rows=rows, n_subcarriers=k, cap_users=cap_users)
        out.append(AllocObservation(padded=padded.ravel(), scopes=[scope]))
    return out


def decode_action(
    raw: np.ndarray, scope: AllocScope, p_max_w: float
) -> tuple[np.ndarray, np.ndarray]:
    """Turn one site's raw action block into (powers, assignment) over
    (cap_users, K); only rows listed in the scope can win a subcarrier.

    Always feasible: rho is one-hot per subcarrier across users, powers
    are non-negative and sum to exactly p_max_w (or 0 with no users).
    """
    raw = np.asarray(raw, dtype=np.float64).ravel()
    cap, k = scope.cap_users, scope.n_subcarriers
    if raw.shape[0] != 2 * cap * k:
        raise ValueError(f"action block of length {raw.shape[0]}, expected {2 * cap * k}")
    p = np.zeros((cap, k))
    rho = np.zeros((cap, k), dtype=np.int8)
    n = scope.n_active
    if n == 0:
        return p, rho
    logits = raw[: cap * k].reshape(cap, k)
    scores = raw[cap * k :].reshape(cap, k)
    winners = np.argmax(logits[:n, :], axis=0)  # first max -> lowest id on ties
    cols = np.arange(k)
    rho[winners, cols] = 1
    chosen = scores[winners, cols]
    shifted = np.exp(chosen - chosen.max())
    p[winners, cols] = p_max_w * shifted / shifted.sum()
    return p, rho


def make_dqn_allocator(
    state_dim: int,
    action_dim: int,
    rng: np.random.Generator,
    n_candidates: int = 32,
    **kwargs,
) -> DqnAgent:
    """DQN over a codebook of fixed raw-action vectors: the agent picks
    which of n_candidates decode patterns fits the current channels."""
    from .learning import make_dqn_agent

    agent = make_dqn_agent(state_dim, n_candidates, rng, **kwargs)
    agent.candidates = rng.uniform(-1.0, 1.0, size=(n_candidates, action_dim))
    return agent


def _select_raw(
    agent, padded_obs: np.ndarray, rng, deterministic: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Learner dispatch. Returns (raw action vector for the decoder,
    action as stored in the replay buffer). DQN stores its codebook
    index; the continuous learners store the vector itself."""
    if isinstance(agent, SacAgent):
        a = sac_select_action(agent, padded_obs, rng, deterministic=deterministic)
        return a, a
    if isinstance(agent, DqnAgent):
        idx = dqn_select_action(agent, padded_obs, rng, greedy=deterministic)
        return agent.candidates[idx], np.array([float(idx)])
    if isinstance(agent, DdpgAgent):
        a = ddpg_select_action(agent, padded_obs, rng, deterministic=deterministic)
        return a, a
    raise TypeError(f"unsupported allocator agent {type(agent).__name__}")


def _blank_allocation(shape: tuple[int, int, int]) -> Allocation:
    return Allocation(p=np.zeros(shape), rho=np.zeros(shape, dtype=np.int8))


def allocate_centralized(
    agent,
    obs: AllocObservation,
    topology: Topology,
    n_users: int,
    rng: np.random.Generator,
    deterministic: bool = False,
) -> tuple[Allocation, np.ndarray]:
    """One joint action from the pool agent, decoded site by site.
    Returns the allocation and the replay-storable action."""
    b = topology.rrs_count
    k = topology.subcarrier_count
    alloc = _blank_allocation((b, n_users, k))
    if n_users == 0:
        return alloc, np.zeros(0)
    raw, stored = _select_raw(agent, obs.padded, rng, deterministic)
    block = obs.scopes[0].block_len
    for site in range(b):
        scope = obs.scopes[site]
        p_pad, rho_pad = decode_action(
            raw[site * block : (site + 1) * block], scope, float(topology.p_max_w[site])
        )
        n = scope.n_active
        alloc.p[site, scope.user_rows, :] = p_pad[:n, :]
        alloc.rho[site, scope.user_rows, :] = rho_pad[:n, :]
    return alloc, np.asarray(stored, dtype=np.float64)


def allocate_distributed(
    agents: list,
    observations: list[AllocObservation],
    topology: Topology,
    n_users: int,
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
    alloc = _blank_allocation((b, n_users, k))
    actions: list[np.ndarray | None] = []
    for site in range(b):
        scope = observations[site].scopes[0]
        if scope.n_active == 0:
            actions.append(None)
            continue
        raw, stored = _select_raw(
            agents[site], observations[site].padded, rngs[site], deterministic
        )
        p_pad, rho_pad = decode_action(raw, scope, float(topology.p_max_w[site]))
        n = scope.n_active
        alloc.p[site, scope.user_rows, :] = p_pad[:n, :]
        alloc.rho[site, scope.user_rows, :] = rho_pad[:n, :]
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
        owner = rows[np.arange(k) % n]
        alloc.rho[site, owner, np.arange(k)] = 1
        alloc.p[site, owner, np.arange(k)] = share * n
    return alloc
