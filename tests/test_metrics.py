"""Overheads, interference models, rates, complexity, and TOC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from smartran.metrics import (
    Allocation,
    BitBudget,
    ComplexityShape,
    TocWeights,
    centralized_shape,
    complexity_centralized,
    complexity_distributed,
    complexity_forward_cost,
    distributed_shape,
    equal_share_power,
    interference_vector_distributed,
    overhead_centralized,
    overhead_distributed,
    rate_matrix_distributed,
    rate_total_centralized,
    toc_centralized,
    toc_distributed,
)
from smartran.netmodel import ChannelTensor, Topology, UserSet


def _random_case(rng, n_rrs=3, n_users=5, n_sub=4):
    """Random channels plus a feasible random allocation."""
    h_large = rng.uniform(0.1, 2.0, size=(n_rrs, n_users))
    h_small = rng.exponential(1.0, size=(n_rrs, n_users, n_sub)) + 1e-6
    channels = ChannelTensor(h_large=h_large, h=h_large[:, :, None] * h_small)
    p = np.zeros((n_rrs, n_users, n_sub))
    rho = np.zeros((n_rrs, n_users, n_sub), dtype=np.int8)
    for b in range(n_rrs):
        for k in range(n_sub):
            u = int(rng.integers(0, n_users))
            rho[b, u, k] = 1
            p[b, u, k] = rng.uniform(0.0, 1.0)
    return channels, Allocation(p=p, rho=rho)


# ---------------------------------------------------------------------------
# Overheads


def test_overhead_hand_values():
    budget = BitBudget(power=4, csi=16, subcarriers=4)
    assert budget.per_pair == 24
    assert overhead_distributed(budget, 2, 8) == 384
    assert overhead_centralized([384, 384, 384, 384]) == 1536


def test_overhead_matches_loop_recount():
    rng = np.random.default_rng(1)
    for _ in range(300):
        bits = [int(x) for x in rng.integers(0, 33, size=3)]
        users, sub = int(rng.integers(0, 41)), int(rng.integers(0, 65))
        budget = BitBudget(power=bits[0], csi=bits[1], subcarriers=bits[2])
        assert overhead_distributed(budget, users, sub) == oracles.loop_overhead(
            bits[0], bits[1], bits[2], users, sub
        )


@settings(max_examples=100, deadline=None)
@given(
    per_site=st.lists(st.integers(0, 10_000), min_size=1, max_size=10),
)
def test_overhead_centralized_is_sum_property(per_site):
    assert overhead_centralized(per_site) == sum(per_site)


def test_overhead_rejects_negative():
    with pytest.raises(ValueError):
        overhead_distributed(BitBudget(4, 16, 4), -1, 8)
    with pytest.raises(ValueError):
        overhead_centralized([10, -1])
    with pytest.raises(ValueError):
        BitBudget(power=-1, csi=16, subcarriers=4)


# ---------------------------------------------------------------------------
# Interference and rates


def test_equal_share_power():
    assert equal_share_power(10.0, 2, 4) == 1.25
    assert equal_share_power(10.0, 0, 4) == 0.0
    assert equal_share_power(10.0, 1, 1) == 10.0


def test_interference_matrix_matches_scalar_definition():
    rng = np.random.default_rng(2)
    channels, alloc = _random_case(rng)
    mat = oracles.dense_interference_centralized(channels.h, alloc.p, alloc.rho)
    n_rrs, n_users, n_sub = channels.h.shape
    for b in range(n_rrs):
        for u in range(n_users):
            for k in range(n_sub):
                want = oracles.loop_interference_centralized(
                    channels.h, alloc.p, alloc.rho, b, u, k
                )
                assert mat[b, u, k] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_rate_centralized_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        channels, alloc = _random_case(rng)
        got = rate_total_centralized(channels, alloc, noise_w=0.05)
        want = oracles.loop_rate_centralized(channels.h, alloc.p, alloc.rho, 0.05)
        assert got == pytest.approx(want, rel=1e-12)


def test_rate_centralized_single_cell_closed_form():
    rng = np.random.default_rng(4)
    channels, alloc = _random_case(rng, n_rrs=1, n_users=3, n_sub=4)
    noise = 0.1
    got = rate_total_centralized(channels, alloc, noise)
    want = np.log2(1.0 + channels.h * alloc.p * alloc.rho / noise).sum()
    assert got == pytest.approx(float(want), rel=1e-12)


def test_rate_rejects_nonpositive_noise(tiny_net):
    topo, users, channels, _, _ = tiny_net
    alloc = Allocation(
        p=np.zeros_like(channels.h),
        rho=np.zeros(channels.h.shape, dtype=np.int8),
    )
    with pytest.raises(ValueError):
        rate_total_centralized(channels, alloc, 0.0)
    with pytest.raises(ValueError):
        rate_matrix_distributed(channels, alloc, topo, users, -1.0)


def test_planning_interference_matches_loop_oracle(tiny_net):
    topo, users, channels, _, _ = tiny_net
    got = interference_vector_distributed(channels, topo, users)
    want = oracles.loop_interference_planning(
        channels.h_large,
        users.user_counts(),
        topo.p_max_w,
        topo.subcarrier_count,
        users.serving,
    )
    assert np.allclose(got, want, rtol=1e-12)


def test_planning_interference_excludes_own_site_and_empty_sites():
    # two sites; all users in site 0, site 1 empty: nobody plans against
    # anything (own site excluded, empty foreign site contributes zero)
    h_large = np.array([[1.0, 1.0], [5.0, 5.0]])
    h_small = np.ones((2, 2, 4))
    channels = ChannelTensor(h_large=h_large, h=h_large[:, :, None] * h_small)
    topo = Topology(
        area_radius_m=100.0,
        positions=np.array([[-50.0, 0.0], [50.0, 0.0]]),
        cell_radius_m=60.0,
        p_max_w=np.array([10.0, 10.0]),
        subcarrier_count=4,
    )
    users = UserSet(
        ids=np.arange(2, dtype=np.int64),
        positions=np.array([[-50.0, 1.0], [-50.0, -1.0]]),
        serving=np.zeros(2, dtype=np.int64),
        rrs_members=[np.arange(2), np.empty(0, dtype=np.int64)],
        next_id=2,
    )
    assert np.array_equal(
        interference_vector_distributed(channels, topo, users), np.zeros(2)
    )
    # populate site 1: now each site-0 user plans against p_max/K through
    # its large-scale gain to site 1, regardless of how many users live there
    users2 = UserSet(
        ids=np.arange(2, dtype=np.int64),
        positions=np.array([[-50.0, 1.0], [50.0, -1.0]]),
        serving=np.array([0, 1], dtype=np.int64),
        rrs_members=[np.array([0]), np.array([1])],
        next_id=2,
    )
    vec = interference_vector_distributed(channels, topo, users2)
    assert vec[0] == pytest.approx(h_large[1, 0] * 10.0 / 4.0, rel=1e-12)
    assert vec[1] == pytest.approx(h_large[0, 1] * 10.0 / 4.0, rel=1e-12)


def test_planning_interference_ignores_the_memory_order_of_h_large():
    # from 8 sites up numpy sums an F-ordered (B, U) array over its sites
    # pairwise and a C-ordered one row after another; the kernel must give
    # the row-after-row sum for either layout
    for n_rrs in range(8, 16):
        channels, _, topo, users, _ = _grant_case(n_rrs, 3 * n_rrs, 2, "owner", False, n_rrs)
        load = np.where(users.user_counts() > 0, topo.p_max_w / topo.subcarrier_count, 0.0)
        per_site = channels.h_large * load[:, None]
        total = per_site[0].copy()
        for row in per_site[1:]:
            total += row
        want = total - per_site[users.serving, np.arange(users.n_users)]
        for layout in (np.ascontiguousarray, np.asfortranarray):
            ordered = ChannelTensor(h_large=layout(channels.h_large), h=channels.h)
            assert np.array_equal(interference_vector_distributed(ordered, topo, users), want)


def test_rate_distributed_matches_loop_oracle(tiny_net):
    topo, users, channels, _, noise = tiny_net
    rng = np.random.default_rng(5)
    p = np.zeros_like(channels.h)
    rho = np.zeros(channels.h.shape, dtype=np.int8)
    for b in range(topo.rrs_count):
        rows = users.rrs_members[b]
        for k in range(topo.subcarrier_count):
            u = int(rng.choice(rows))
            rho[b, u, k] = 1
            p[b, u, k] = rng.uniform(0.0, 1.0)
    alloc = Allocation(p=p, rho=rho)
    got = float(rate_matrix_distributed(channels, alloc, topo, users, noise).sum())
    want = oracles.loop_rate_distributed(
        channels.h, p, rho, channels.h_large, users.user_counts(),
        topo.p_max_w, users.serving, noise,
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_rate_matrix_distributed_zero_off_grant(tiny_net):
    topo, users, channels, _, noise = tiny_net
    alloc = Allocation(
        p=np.ones_like(channels.h),
        rho=np.zeros(channels.h.shape, dtype=np.int8),
    )
    rows = users.rrs_members[0]
    alloc.rho[0, rows[0], 0] = 1
    rates = rate_matrix_distributed(channels, alloc, topo, users, noise)
    assert rates[0, rows[0], 0] > 0
    mask = np.ones_like(rates, dtype=bool)
    mask[0, rows[0], 0] = False
    assert np.all(rates[mask] == 0.0)


def _grant_case(n_rrs, n_users, n_sub, grants, leak, seed):
    """Channels, users and a grant that need not be feasible: sites
    without users, one grant or none, several users on one (site,
    subcarrier), grants to another site's user, power on ungranted
    pairs, and gains over eight decades."""
    rng = np.random.default_rng(seed)
    shape = (n_rrs, n_users, n_sub)
    serving = rng.integers(0, n_rrs, n_users)
    members = [np.flatnonzero(serving == b) for b in range(n_rrs)]
    rho = np.zeros(shape, dtype=np.int8)
    if n_users and grants == "owner":  # the allocators' one owner per (site, subcarrier)
        for b, rows in enumerate(members):
            if len(rows):
                rho[b, rng.choice(rows, n_sub), np.arange(n_sub)] = 1
    elif n_users and grants == "single":
        rho[tuple(int(rng.integers(0, n)) for n in shape)] = 1
    else:
        rho[...] = rng.random(shape) < rng.uniform(0.0, 1.0)
    p = rng.uniform(0.0, 2.0, shape) * (rho if not leak else 1.0)
    h_large = 10.0 ** rng.uniform(-6.0, 2.0, (n_rrs, n_users))
    h_small = rng.exponential(1.0, shape) + 1e-9
    channels = ChannelTensor(h_large=h_large, h=h_large[:, :, None] * h_small)
    topo = Topology(
        area_radius_m=100.0,
        positions=np.zeros((n_rrs, 2)),
        cell_radius_m=50.0,
        p_max_w=rng.uniform(1.0, 10.0, n_rrs),
        subcarrier_count=n_sub,
    )
    users = UserSet(
        ids=np.arange(n_users, dtype=np.int64),
        positions=np.zeros((n_users, 2)),
        serving=serving,
        rrs_members=members,
        next_id=n_users,
    )
    return channels, Allocation(p=p, rho=rho), topo, users, 10.0 ** rng.uniform(-3.0, 0.0)


@settings(max_examples=400, deadline=None)
@given(
    case=st.builds(
        _grant_case,
        n_rrs=st.integers(1, 10),
        n_users=st.integers(0, 12),
        n_sub=st.integers(1, 5),
        grants=st.sampled_from(["owner", "single", "random"]),
        leak=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
)
def test_grant_only_rates_equal_dense_reference_bitwise(case):
    channels, alloc, topo, users, noise = case
    h, p, rho = channels.h, alloc.p, alloc.rho
    assert rate_total_centralized(channels, alloc, noise) == oracles.dense_rate_centralized(
        h, p, rho, noise
    )
    planning = interference_vector_distributed(channels, topo, users)
    assert np.array_equal(
        rate_matrix_distributed(channels, alloc, topo, users, noise),
        oracles.dense_rate_matrix_distributed(h, p, rho, users.rrs_members, planning, noise),
    )


@pytest.mark.parametrize("n_sub", [1, 2])
def test_grant_only_centralized_rate_equals_dense_reference_on_crowded_cells(n_sub):
    # nine to twelve users granted on every (site, subcarrier). numpy sums
    # the dense spend over users pairwise at K = 1 (more than eight
    # contiguous terms) and one user after another at K = 2; a kernel that
    # summed the grants in their own order would miss the K = 1 bits
    for seed in range(40):
        rng = np.random.default_rng(seed)
        shape = (3, 12, n_sub)
        rho = np.ones(shape, dtype=np.int8)
        rho[:, 9:, :] = rng.random((3, 3, n_sub)) < 0.5
        p = 10.0 ** rng.uniform(-3.0, 0.0, shape) * rho
        h = rng.uniform(0.1, 2.0, shape)
        channels = ChannelTensor(h_large=np.ones(shape[:2]), h=h)
        assert rate_total_centralized(
            channels, Allocation(p=p, rho=rho), 1e-3
        ) == oracles.dense_rate_centralized(h, p, rho, 1e-3)


# ---------------------------------------------------------------------------
# Allocation invariants


def test_allocation_validate_accepts_feasible(tiny_net):
    topo, users, channels, _, _ = tiny_net
    from smartran.allocators import allocate_equal_power

    alloc = allocate_equal_power(channels, users, topo)
    alloc.validate(topo.p_max_w)


def test_allocation_validate_rejects_violations(tiny_net):
    topo, users, channels, _, _ = tiny_net
    shape = channels.h.shape
    # two users on one (site, subcarrier)
    rho = np.zeros(shape, dtype=np.int8)
    rho[0, 0, 0] = 1
    rho[0, 1, 0] = 1
    with pytest.raises(ValueError):
        Allocation(p=np.zeros(shape), rho=rho).validate(topo.p_max_w)
    # power above the site budget
    rho2 = np.zeros(shape, dtype=np.int8)
    rho2[0, 0, 0] = 1
    p2 = np.zeros(shape)
    p2[0, 0, 0] = float(topo.p_max_w[0]) * 2.0
    with pytest.raises(ValueError):
        Allocation(p=p2, rho=rho2).validate(topo.p_max_w)
    # negative power
    p3 = np.zeros(shape)
    p3[0, 0, 0] = -0.1
    with pytest.raises(ValueError):
        Allocation(p=p3, rho=rho2).validate(topo.p_max_w)


# ---------------------------------------------------------------------------
# Complexity


def test_complexity_hand_values():
    shape = ComplexityShape(1, 1, 3, (4, 4), 2)
    assert shape.layer_chain == (3, 4, 4, 2)
    assert complexity_forward_cost(shape) == 36  # 3*4 + 4*4 + 4*2
    assert complexity_centralized(shape) == 36
    assert complexity_centralized(ComplexityShape(100, 32, 3, (4, 4), 2)) == 115200


def test_complexity_matches_loop_recount():
    rng = np.random.default_rng(6)
    for _ in range(100):
        chain = [int(x) for x in rng.integers(1, 50, size=int(rng.integers(3, 6)))]
        episodes, batch = int(rng.integers(0, 200)), int(rng.integers(0, 64))
        shape = ComplexityShape(episodes, batch, chain[0], tuple(chain[1:-1]), chain[-1])
        assert complexity_distributed(shape) == oracles.loop_complexity(
            episodes, batch, chain
        )


def test_network_shapes_span_the_channel_tensor():
    cnt = centralized_shape(10, 32, (64, 64), n_users=5, n_subcarriers=8, n_rrs=2)
    assert cnt.input_size == 5 * 8 * 2
    assert cnt.output_size == 2 * 5 * 8 * 2
    dst = distributed_shape(10, 32, (64, 64), n_users_b=3, n_subcarriers_b=8)
    assert dst.input_size == 24
    assert dst.output_size == 48


def test_zero_user_site_clamps_to_sentinel_layer():
    dst = distributed_shape(10, 32, (64,), n_users_b=0, n_subcarriers_b=8)
    assert dst.input_size == 1
    assert dst.output_size == 2
    assert complexity_distributed(dst) == 10 * 32 * (1 * 64 + 64 * 2)
    cnt = centralized_shape(10, 32, (64,), n_users=0, n_subcarriers=8, n_rrs=2)
    assert cnt.input_size == 1


def test_complexity_shape_rejects_bad_sizes():
    with pytest.raises(ValueError):
        ComplexityShape(-1, 1, 3, (4,), 2)
    with pytest.raises(ValueError):
        ComplexityShape(1, 1, 0, (4,), 2)
    with pytest.raises(ValueError):
        ComplexityShape(1, 1, 3, (), 2)


# ---------------------------------------------------------------------------
# TOC


def test_toc_hand_values():
    assert toc_centralized(
        100.0, 1536.0, 115200.0, TocWeights(alpha=1e-6, beta=0.01)
    ) == pytest.approx(84.5248, rel=1e-12)
    assert toc_distributed(
        100.0, [384.0, 200.0], [36.0, 40.0], TocWeights(alpha=0.1, beta=0.01)
    ) == pytest.approx(92.16, rel=1e-12)


def test_toc_distributed_charges_bottleneck_site():
    w = TocWeights(alpha=1.0, beta=1.0)
    base = toc_distributed(50.0, [10.0, 3.0], [5.0, 2.0], w)
    assert base == 50.0 - 10.0 - 5.0
    # raising a non-bottleneck site below the max changes nothing
    assert toc_distributed(50.0, [10.0, 9.0], [5.0, 4.9], w) == base
    assert toc_distributed(50.0, [10.0, 3.0], [5.0, 2.0], w) == oracles.loop_toc(
        50.0, [10.0, 3.0], [5.0, 2.0], 1.0, 1.0, centralized=False
    )


def test_toc_centralized_matches_loop():
    got = toc_centralized(80.0, 1000.0, 2000.0, TocWeights(alpha=1e-3, beta=1e-2))
    assert got == pytest.approx(
        oracles.loop_toc(80.0, [1000.0], [2000.0], 1e-3, 1e-2, centralized=True),
        rel=1e-15,
    )


def test_toc_weights_reject_negative():
    with pytest.raises(ValueError):
        TocWeights(alpha=-1e-6, beta=0.01)
