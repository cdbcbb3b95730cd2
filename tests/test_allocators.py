"""Action decoding, observations, baselines, and the trained
strong-user sanity toys."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from smartran.allocators import (
    allocate_centralized,
    allocate_distributed,
    allocate_equal_power,
    build_centralized_observation,
    build_distributed_observations,
    decode_action,
    make_allocator,
)
from smartran.config import ScenarioConfig
from smartran.learning import make_sac_agent, sac_update
from smartran.metrics import (
    centralized_shape,
    distributed_shape,
    rate_matrix_distributed,
    rate_total_centralized,
)
from smartran.netmodel import (
    ChannelTensor,
    PathLossModel,
    Topology,
    UserSet,
    generate_topology,
    sample_channels,
    spawn_users,
)

# ---------------------------------------------------------------------------
# decode_action and grant placement

# a site whose members are not the first rows of the user set
_ROWS = np.array([2, 5, 7])


def test_decode_all_zero_action_ties_to_lowest_row():
    owner, power = decode_action(np.zeros(2 * 4 * 5), _ROWS, 4, 5, p_max_w=2.0)
    # equal logits: every subcarrier goes to the first member, the lowest
    # row; equal scores: uniform power
    assert np.array_equal(owner, np.full(5, 2))
    assert np.allclose(power, 2.0 / 5.0)
    assert power.sum() == pytest.approx(2.0, abs=1e-12)


def test_decode_single_user_single_subcarrier_gets_full_budget():
    owner, power = decode_action(np.array([0.3, -0.7]), np.array([4]), 1, 1, p_max_w=3.5)
    assert np.array_equal(owner, [4])
    assert power[0] == pytest.approx(3.5, abs=1e-12)


def test_decode_idle_site_emits_nothing():
    owner, power = decode_action(np.ones(2 * 3 * 4), _ROWS[:0], 3, 4, p_max_w=1.0)
    assert owner.size == 0 and power.size == 0


def test_decode_rejects_wrong_block_length():
    with pytest.raises(ValueError, match="expected 24"):
        decode_action(np.zeros(7), _ROWS[:2], 3, 4, p_max_w=1.0)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    pad=st.integers(0, 3),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**31),
)
def test_decode_feasibility_property(n, pad, k, seed):
    rng = np.random.default_rng(seed)
    cap = n + pad
    rows = np.sort(rng.choice(3 * cap, size=n, replace=False))
    raw = rng.uniform(-1.0, 1.0, size=2 * cap * k)
    p_max = float(rng.uniform(0.1, 20.0))
    owner, power = decode_action(raw, rows, cap, k, p_max)
    assert owner.shape == power.shape == (k,)  # one winner per subcarrier
    assert np.all(np.isin(owner, rows))  # padding slots never win
    assert np.all(power >= 0.0)
    assert power.sum() == pytest.approx(p_max, abs=1e-9)


def _codebook_agent(state_dim, raw, rng):
    """A DQN allocator whose every codebook entry is raw, so its greedy
    action is raw whatever its network says."""
    cfg = ScenarioConfig(hidden_sizes=(4,), dqn_actions=2)
    agent = make_allocator("dqn", state_dim, raw.size, rng, cfg)
    agent.candidates[:] = raw
    return agent


@settings(max_examples=150, deadline=None)
@given(
    b=st.integers(1, 4),
    k=st.integers(1, 6),
    n_users=st.integers(0, 12),
    pad=st.integers(0, 2),
    ties=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_granted_allocations_match_loop_oracle(b, k, n_users, pad, ties, seed):
    """Both modes, decoded and placed, against the plain loop, on sites
    whose members are scattered global rows, with idle sites and
    capacity above the largest site."""
    rng = np.random.default_rng(seed)
    serving = rng.integers(0, b, size=n_users)
    members = [np.flatnonzero(serving == site) for site in range(b)]
    cap = max(1, max(len(rows) for rows in members) + pad)
    block = 2 * cap * k
    if ties:  # few distinct values, so logits tie often
        raw = rng.integers(-2, 3, size=b * block).astype(np.float64)
    else:
        raw = rng.uniform(-1.0, 1.0, size=b * block)
    blocks = [raw[site * block : (site + 1) * block] for site in range(b)]
    topo = Topology(
        area_radius_m=100.0,
        positions=np.zeros((b, 2)),
        cell_radius_m=100.0,
        p_max_w=rng.uniform(0.5, 20.0, size=b),
        subcarrier_count=k,
    )
    users = UserSet(
        ids=np.arange(n_users, dtype=np.int64),
        positions=np.zeros((n_users, 2)),
        serving=serving.astype(np.int64),
        rrs_members=members,
        next_id=n_users,
    )
    p_ref, rho_ref = oracles.loop_decode_place(blocks, members, cap, n_users, k, topo.p_max_w)

    agent = _codebook_agent(b * cap * k, raw, rng)
    cnt, _ = allocate_centralized(
        agent, np.zeros(b * cap * k), users, topo, cap, rng, deterministic=True
    )
    agents = [_codebook_agent(cap * k, blocks[site], rng) for site in range(b)]
    dst, actions = allocate_distributed(
        agents, [np.zeros(cap * k)] * b, users, topo, cap, [rng] * b, deterministic=True
    )
    for alloc in (cnt, dst):
        assert np.array_equal(alloc.rho, rho_ref)
        np.testing.assert_allclose(alloc.p, p_ref, rtol=1e-12, atol=0.0)
    assert [a is None for a in actions] == [len(rows) == 0 for rows in members]


# ---------------------------------------------------------------------------
# Observations


def test_observation_lengths_match_complexity_inputs(tiny_net):
    """The vectors the policies consume are the same sizes the
    complexity model charges for on that slot."""
    topo, users, channels, _, noise = tiny_net
    cap = users.n_users
    obs = build_centralized_observation(channels, cap)
    cnt_shape = centralized_shape(
        1, 1, (8,), users.n_users, topo.subcarrier_count, topo.rrs_count
    )
    assert obs.size == cnt_shape.input_size  # capacity is the population
    locals_ = build_distributed_observations(channels, users, topo, noise, cap)
    for b, lob in enumerate(locals_):
        dst_shape = distributed_shape(
            1, 1, (8,), len(users.rrs_members[b]), topo.subcarrier_count
        )
        active = len(users.rrs_members[b]) * topo.subcarrier_count
        assert active == dst_shape.input_size or (
            len(users.rrs_members[b]) == 0 and active == 0
        )
        # the site's own entries lead; the rest is padding to capacity
        assert lob.size == cap * topo.subcarrier_count
        assert np.all(lob[active:] == 0.0)


def test_observation_entries_finite_and_standardized(tiny_net):
    topo, users, channels, _, noise = tiny_net
    obs = build_centralized_observation(channels, users.n_users)
    assert np.all(np.isfinite(obs))
    # capacity equals the population, so nothing is padded
    assert obs.mean() == pytest.approx(0.0, abs=1e-9)
    assert obs.std() == pytest.approx(1.0, rel=1e-6)


def test_observation_rejects_overflow(tiny_net):
    topo, users, channels, _, noise = tiny_net
    with pytest.raises(ValueError, match="capacity"):
        build_centralized_observation(channels, users.n_users - 1)


def _manual_channels(h_large, k):
    h_small = np.ones((*h_large.shape, k))
    return ChannelTensor(h_large=h_large, h=h_large[:, :, None] * h_small)


def test_distributed_observation_ignores_other_cells_fading():
    """A site's observation depends on its own rows of the channel
    tensor and the large-scale summary only; other cells' small-scale
    fading must not leak in."""
    cfg = ScenarioConfig(rrs_count=2, subcarriers=4, n_users=6)
    topo = generate_topology(cfg, seed=1)
    users = spawn_users(topo, 6, seed=1)
    model = PathLossModel.from_config(cfg)
    base = sample_channels(topo, users, model, seed=1, slot=0)
    noise = cfg.noise_power_w

    perturbed_h = base.h.copy()
    rows_b1 = users.rrs_members[1]
    perturbed_h[:, rows_b1, :] *= 7.0  # fade site 1's users everywhere
    perturbed_h[1, :, :] *= 3.0  # and everything site 1 measures
    perturbed_h[0, users.rrs_members[0], :] = base.h[0, users.rrs_members[0], :]
    perturbed = ChannelTensor(h_large=base.h_large, h=perturbed_h)
    obs_a = build_distributed_observations(base, users, topo, noise, 6)[0]
    obs_b = build_distributed_observations(perturbed, users, topo, noise, 6)[0]
    assert np.array_equal(obs_a, obs_b)


def test_distributed_fragment_independent_of_other_agents_rng():
    cfg = ScenarioConfig(rrs_count=2, subcarriers=4, n_users=6)
    topo = generate_topology(cfg, seed=2)
    users = spawn_users(topo, 6, seed=2)
    model = PathLossModel.from_config(cfg)
    channels = sample_channels(topo, users, model, seed=2, slot=0)
    obs = build_distributed_observations(channels, users, topo, cfg.noise_power_w, 6)
    agents = [
        make_sac_agent(obs[b].size, 2 * 6 * 4, np.random.default_rng(b), hidden_sizes=(8,))
        for b in range(2)
    ]
    runs = []
    for other_seed in (100, 200):
        rngs = [np.random.default_rng(42), np.random.default_rng(other_seed)]
        alloc, _ = allocate_distributed(agents, obs, users, topo, 6, rngs)
        runs.append(alloc)
    assert np.array_equal(runs[0].p[0], runs[1].p[0])
    assert np.array_equal(runs[0].rho[0], runs[1].rho[0])
    # while site 1, whose rng changed, acted differently
    assert not np.array_equal(runs[0].p[1], runs[1].p[1])


# ---------------------------------------------------------------------------
# Equal-power baseline


def test_equal_power_hand_case():
    topo = Topology(
        area_radius_m=100.0,
        positions=np.zeros((1, 2)),
        cell_radius_m=100.0,
        p_max_w=np.array([8.0]),
        subcarrier_count=4,
    )
    users = UserSet(
        ids=np.arange(2, dtype=np.int64),
        positions=np.zeros((2, 2)) + 1.0,
        serving=np.zeros(2, dtype=np.int64),
        rrs_members=[np.arange(2)],
        next_id=2,
    )
    channels = _manual_channels(np.ones((1, 2)), 4)
    alloc = allocate_equal_power(channels, users, topo)
    # 2 users x 4 subcarriers: each user owns two subcarriers at p_max/4
    assert alloc.rho.sum() == 4
    assert np.all(alloc.rho.sum(axis=1) == 1)
    assert np.all(alloc.rho[0].sum(axis=1) == 2)
    assert np.all(alloc.p[alloc.rho == 1] == 2.0)
    assert alloc.p.sum() == pytest.approx(8.0, abs=1e-12)


def test_equal_power_single_pair_full_budget():
    topo = Topology(
        area_radius_m=100.0,
        positions=np.zeros((1, 2)),
        cell_radius_m=100.0,
        p_max_w=np.array([5.0]),
        subcarrier_count=1,
    )
    users = UserSet(
        ids=np.zeros(1, dtype=np.int64),
        positions=np.ones((1, 2)),
        serving=np.zeros(1, dtype=np.int64),
        rrs_members=[np.arange(1)],
        next_id=1,
    )
    channels = _manual_channels(np.ones((1, 1)), 1)
    alloc = allocate_equal_power(channels, users, topo)
    assert alloc.p[0, 0, 0] == 5.0


def test_equal_power_feasible_and_deterministic_random_scopes():
    rng = np.random.default_rng(3)
    for _ in range(200):
        b = int(rng.integers(1, 4))
        k = int(rng.integers(1, 9))
        n = int(rng.integers(0, 9))
        cfg = ScenarioConfig(rrs_count=b, subcarriers=k, n_users=n)
        topo = generate_topology(cfg, seed=int(rng.integers(0, 1000)))
        users = spawn_users(topo, n, seed=int(rng.integers(0, 1000)))
        channels = _manual_channels(rng.uniform(0.5, 2.0, size=(b, n)), k)
        one = allocate_equal_power(channels, users, topo)
        two = allocate_equal_power(channels, users, topo)
        one.validate(topo.p_max_w)
        assert np.array_equal(one.p, two.p) and np.array_equal(one.rho, two.rho)
        for site in range(b):
            if len(users.rrs_members[site]) == 0:
                assert np.all(one.p[site] == 0.0)
            else:
                assert one.p[site].sum() == pytest.approx(
                    float(topo.p_max_w[site]), rel=1e-12
                )


# ---------------------------------------------------------------------------
# Centralized / distributed degeneracy and emitted-allocation contract


def test_single_site_centralized_equals_distributed():
    """With one site, the same network weights acting on the global and
    the local observation must produce the same allocation."""
    cfg = ScenarioConfig(rrs_count=1, subcarriers=4, n_users=3)
    topo = generate_topology(cfg, seed=4)
    users = spawn_users(topo, 3, seed=4)
    model = PathLossModel.from_config(cfg)
    channels = sample_channels(topo, users, model, seed=4, slot=0)
    obs_cnt = build_centralized_observation(channels, 3)
    obs_dst = build_distributed_observations(channels, users, topo, cfg.noise_power_w, 3)
    # one site: planning interference is zero, so the local SINR summary
    # is the global gain map divided by a constant, which standardization
    # removes
    assert np.allclose(obs_cnt, obs_dst[0], atol=1e-9)
    agent = make_sac_agent(obs_cnt.size, 2 * 3 * 4, np.random.default_rng(5), hidden_sizes=(8,))
    a_cnt, _ = allocate_centralized(
        agent, obs_cnt, users, topo, 3, np.random.default_rng(9), deterministic=True
    )
    a_dst, _ = allocate_distributed(
        [agent], obs_dst, users, topo, 3, [np.random.default_rng(9)], deterministic=True
    )
    assert np.array_equal(a_cnt.rho, a_dst.rho)
    assert np.allclose(a_cnt.p, a_dst.p, rtol=1e-9)


def test_emitted_allocations_always_feasible(tiny_net):
    topo, users, channels, _, noise = tiny_net
    cap = users.n_users
    obs = build_centralized_observation(channels, cap)
    rng = np.random.default_rng(6)
    agent = make_sac_agent(obs.size, 2 * cap * topo.subcarrier_count * topo.rrs_count, rng, hidden_sizes=(8,))
    for _ in range(10):
        alloc, _ = allocate_centralized(agent, obs, users, topo, cap, rng)
        alloc.validate(topo.p_max_w)
    locals_ = build_distributed_observations(channels, users, topo, noise, cap)
    agents = [
        make_sac_agent(locals_[b].size, 2 * cap * topo.subcarrier_count, np.random.default_rng(b), hidden_sizes=(8,))
        for b in range(topo.rrs_count)
    ]
    rngs = [np.random.default_rng(10 + b) for b in range(topo.rrs_count)]
    for _ in range(10):
        alloc, _ = allocate_distributed(agents, locals_, users, topo, cap, rngs)
        alloc.validate(topo.p_max_w)


def test_allocate_distributed_rejects_count_mismatch(tiny_net):
    topo, users, channels, _, noise = tiny_net
    locals_ = build_distributed_observations(channels, users, topo, noise, users.n_users)
    with pytest.raises(ValueError, match="per site"):
        allocate_distributed([], locals_, users, topo, users.n_users, [])


def test_dqn_allocator_codebook_contract():
    rng = np.random.default_rng(7)
    cfg = ScenarioConfig(dqn_actions=8, hidden_sizes=(8,))
    agent = make_allocator("dqn", 6, 10, rng, cfg)
    assert agent.candidates.shape == (8, 10)
    assert np.all(np.abs(agent.candidates) <= 1.0)


# ---------------------------------------------------------------------------
# Trained strong-user toys: with one subcarrier and gains (1, 100), the
# exhaustive 2-choice oracle says the strong user is strictly optimal,
# so a trained policy should pick it nearly always.


def _single_site_toy():
    topo = Topology(
        area_radius_m=100.0,
        positions=np.zeros((1, 2)),
        cell_radius_m=100.0,
        p_max_w=np.array([1.0]),
        subcarrier_count=1,
    )
    users = UserSet(
        ids=np.arange(2, dtype=np.int64),
        positions=np.array([[10.0, 0.0], [-10.0, 0.0]]),
        serving=np.zeros(2, dtype=np.int64),
        rrs_members=[np.arange(2)],
        next_id=2,
    )
    channels = _manual_channels(np.array([[1.0, 100.0]]), 1)
    return topo, users, channels


def test_trained_centralized_picks_strong_user():
    topo, users, channels = _single_site_toy()
    noise = 1.0
    obs = build_centralized_observation(channels, cap_users=2)
    rng = np.random.default_rng(7)
    agent = make_sac_agent(
        state_dim=obs.size,
        action_dim=2 * 2 * 1,
        rng=rng,
        hidden_sizes=(16, 16),
        lr=3e-3,
        gamma=0.0,
        polyak=0.01,
        init_alpha=0.2,
    )
    for _ in range(700):
        alloc, action = allocate_centralized(agent, obs, users, topo, 2, rng)
        reward = rate_total_centralized(channels, alloc, noise) / 7.0
        agent.buffer.push(obs, action, reward, obs, True)
        if len(agent.buffer) >= 64:
            sac_update(agent, agent.buffer.sample(64, rng), rng)
    picks = sum(
        int(allocate_centralized(agent, obs, users, topo, 2, rng)[0].rho[0, 1, 0] == 1)
        for _ in range(100)
    )
    assert picks >= 90, f"strong user picked only {picks}/100 times"


def _two_site_toy():
    topo = Topology(
        area_radius_m=1000.0,
        positions=np.array([[-500.0, 0.0], [500.0, 0.0]]),
        cell_radius_m=100.0,
        p_max_w=np.array([1.0, 1.0]),
        subcarrier_count=1,
    )
    users = UserSet(
        ids=np.arange(4, dtype=np.int64),
        positions=np.array([[-510.0, 0.0], [510.0, 0.0], [-490.0, 0.0], [490.0, 0.0]]),
        serving=np.array([0, 1, 0, 1], dtype=np.int64),
        rrs_members=[np.array([0, 2]), np.array([1, 3])],
        next_id=4,
    )
    # per cell: weak local user at gain 1, strong at 100; cross gains tiny
    h_large = np.array([[1.0, 1e-9, 100.0, 1e-9], [1e-9, 1.0, 1e-9, 100.0]])
    return topo, users, _manual_channels(h_large, 1)


def test_trained_distributed_agents_pick_their_strong_users():
    topo, users, channels = _two_site_toy()
    noise = 1.0
    observations = build_distributed_observations(channels, users, topo, noise, cap_users=2)
    rngs = [np.random.default_rng(11), np.random.default_rng(12)]
    agents = [
        make_sac_agent(
            state_dim=observations[b].size,
            action_dim=2 * 2 * 1,
            rng=rngs[b],
            hidden_sizes=(16, 16),
            lr=3e-3,
            gamma=0.0,
            polyak=0.01,
            init_alpha=0.2,
        )
        for b in range(2)
    ]
    for _ in range(700):
        alloc, actions = allocate_distributed(agents, observations, users, topo, 2, rngs)
        rates = rate_matrix_distributed(channels, alloc, topo, users, noise)
        for b in range(2):
            local = float(rates[b].sum()) / 7.0
            agents[b].buffer.push(observations[b], actions[b], local, observations[b], True)
            if len(agents[b].buffer) >= 64:
                sac_update(agents[b], agents[b].buffer.sample(64, rngs[b]), rngs[b])
    picks = [0, 0]
    strong_row = {0: 2, 1: 3}
    for _ in range(100):
        alloc, _ = allocate_distributed(agents, observations, users, topo, 2, rngs)
        for b in range(2):
            picks[b] += int(alloc.rho[b, strong_row[b], 0] == 1)
    assert min(picks) >= 90, f"strong-user picks per site: {picks}"


def test_paper_scale_pool_agent_reserves_at_most_train_slots_rows():
    from dataclasses import replace

    from smartran.cli import make_preset

    preset = make_preset("rate", paper_scale=True)
    n = preset.counts[-1]
    # one hidden unit keeps the networks small; the buffer ignores them
    cfg = replace(preset.base, n_users=n, hidden_sizes=(1,), **preset.per_count(n))
    b, cap, k = cfg.rrs_count, cfg.effective_max_users, cfg.subcarriers
    agent = make_allocator("sac", b * cap * k, 2 * b * cap * k, np.random.default_rng(0), cfg)
    assert cfg.buffer_capacity > cfg.train_slots
    assert agent.buffer.capacity <= cfg.train_slots
