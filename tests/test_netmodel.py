"""Geometry, path loss, user population, channels, and traffic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartran import streams
from smartran.config import ScenarioConfig
from smartran.netmodel import (
    PathLossModel,
    UserSet,
    generate_topology,
    sample_channels,
    spawn_users,
    step_traffic,
)


def test_path_gain_clamped_inside_exclusion_zone():
    model = PathLossModel(exponent=3.0, reference_gain=2.0, min_distance_m=35.0)
    assert model.gain(1.0) == model.gain(35.0)
    assert model.gain(34.9) == model.gain(35.0)
    assert model.gain(36.0) < model.gain(35.0)
    # beyond the clamp: plain power law
    assert model.gain(70.0) == pytest.approx(2.0 * 70.0**-3.0, rel=1e-15)
    with pytest.raises(ValueError):
        model.gain(0.0)


def test_path_gain_monotone_beyond_clamp():
    model = PathLossModel(exponent=2.5, reference_gain=1.0, min_distance_m=10.0)
    d = np.linspace(10.0, 500.0, 200)
    g = model.gain(d)
    assert np.all(np.diff(g) < 0)


def test_calibration_hits_edge_snr():
    cfg = ScenarioConfig(cell_edge_snr_db=17.0)
    model = PathLossModel.from_config(cfg)
    snr = cfg.p_max_w * model.gain(cfg.cell_radius_m) / cfg.noise_power_w
    assert snr == pytest.approx(10.0 ** (17.0 / 10.0), rel=1e-12)


def test_topology_ring_layout():
    cfg = ScenarioConfig(rrs_count=4, area_radius_m=500.0)
    topo = generate_topology(cfg, seed=0)
    radii = np.linalg.norm(topo.positions, axis=1)
    assert np.allclose(radii, 250.0)
    assert topo.rrs_count == 4
    topo.validate()
    # deterministic per seed, rotated differently across seeds
    again = generate_topology(cfg, seed=0)
    assert np.array_equal(topo.positions, again.positions)
    other = generate_topology(cfg, seed=1)
    assert not np.allclose(topo.positions, other.positions)


def test_topology_validate_rejects_out_of_area_site():
    cfg = ScenarioConfig(rrs_count=2)
    topo = generate_topology(cfg, seed=0)
    topo.positions[0] = (topo.area_radius_m + 1.0, 0.0)
    with pytest.raises(ValueError, match="inside the service area"):
        topo.validate()


def test_spawn_round_robin_home_cells():
    cfg = ScenarioConfig(rrs_count=2, n_users=5)
    topo = generate_topology(cfg, seed=1)
    users = spawn_users(topo, 5, seed=1)
    # home cell is id modulo the site count
    assert np.array_equal(users.serving, np.array([0, 1, 0, 1, 0]))
    assert users.user_counts().tolist() == [3, 2]
    assert np.array_equal(users.rrs_members[0], np.array([0, 2, 4]))
    assert np.array_equal(users.rrs_members[1], np.array([1, 3]))
    users.validate(topo)


def test_spawn_inside_home_disc():
    cfg = ScenarioConfig(rrs_count=3, n_users=30)
    topo = generate_topology(cfg, seed=2)
    users = spawn_users(topo, 30, seed=2)
    d = np.linalg.norm(users.positions - topo.positions[users.serving], axis=1)
    assert np.all(d <= topo.cell_radius_m + 1e-9)


def test_spawn_prefix_nesting_at_shared_capacity():
    cfg = ScenarioConfig(rrs_count=2)
    topo = generate_topology(cfg, seed=3)
    small = spawn_users(topo, 4, seed=3, draw_capacity=16)
    large = spawn_users(topo, 12, seed=3, draw_capacity=16)
    assert np.array_equal(small.positions, large.positions[:4])
    assert np.array_equal(small.serving, large.serving[:4])


def test_spawn_zero_users():
    cfg = ScenarioConfig(rrs_count=2)
    topo = generate_topology(cfg, seed=0)
    users = spawn_users(topo, 0, seed=0)
    assert users.n_users == 0
    assert users.user_counts().tolist() == [0, 0]
    users.validate(topo)


def test_channels_pure_in_seed_and_slot():
    cfg = ScenarioConfig(rrs_count=2, subcarriers=4, n_users=3)
    topo = generate_topology(cfg, seed=4)
    users = spawn_users(topo, 3, seed=4)
    model = PathLossModel.from_config(cfg)
    a = sample_channels(topo, users, model, seed=4, slot=7)
    # consuming unrelated randomness must not shift the draw
    np.random.default_rng(0).standard_normal(1000)
    b = sample_channels(topo, users, model, seed=4, slot=7)
    assert np.array_equal(a.h, b.h)
    c = sample_channels(topo, users, model, seed=4, slot=8)
    assert not np.allclose(a.h, c.h, rtol=1e-3, atol=0.0)
    # h is the path gain times the slot's unit-mean exponential fading draw
    fading = streams.substream(4, streams.CHANNELS, 7).exponential(1.0, size=(2, 3, 4))
    assert np.array_equal(a.h, a.h_large[:, :, None] * fading)


def test_channels_nested_in_draw_capacity():
    cfg = ScenarioConfig(rrs_count=2, subcarriers=4)
    topo = generate_topology(cfg, seed=5)
    model = PathLossModel.from_config(cfg)
    few = spawn_users(topo, 3, seed=5, draw_capacity=10)
    many = spawn_users(topo, 9, seed=5, draw_capacity=10)
    ch_few = sample_channels(topo, few, model, seed=5, slot=2, draw_capacity=10)
    ch_many = sample_channels(topo, many, model, seed=5, slot=2, draw_capacity=10)
    assert np.array_equal(ch_few.h, ch_many.h[:, :3, :])


def test_step_traffic_departures_and_arrivals():
    cfg = ScenarioConfig(rrs_count=2, n_users=6)
    topo = generate_topology(cfg, seed=6)
    users = spawn_users(topo, 6, seed=6)
    # no traffic: population unchanged
    same = step_traffic(topo, users, 0.0, 0.0, seed=6, slot=0)
    assert np.array_equal(same.ids, users.ids)
    assert np.array_equal(same.positions, users.positions)
    # certain departure, no arrivals: empty
    gone = step_traffic(topo, users, 0.0, 1.0, seed=6, slot=1)
    assert gone.n_users == 0
    assert gone.next_id == users.next_id
    # heavy arrivals get fresh increasing ids
    grown = step_traffic(topo, users, 5.0, 0.0, seed=6, slot=2)
    assert grown.n_users > users.n_users
    assert np.all(np.diff(grown.ids) > 0)
    assert grown.next_id == users.next_id + (grown.n_users - users.n_users)
    grown.validate(topo)


def test_step_traffic_survivors_keep_identity():
    cfg = ScenarioConfig(rrs_count=2, n_users=8)
    topo = generate_topology(cfg, seed=7)
    users = spawn_users(topo, 8, seed=7)
    stepped = step_traffic(topo, users, 2.0, 0.4, seed=7, slot=3)
    for row, uid in enumerate(stepped.ids):
        if uid < users.next_id:  # survivor
            old = int(np.flatnonzero(users.ids == uid)[0])
            assert np.array_equal(stepped.positions[row], users.positions[old])
            assert stepped.serving[row] == users.serving[old]


def test_step_traffic_blocking_respects_capacity():
    cfg = ScenarioConfig(rrs_count=2, n_users=4)
    topo = generate_topology(cfg, seed=8)
    users = spawn_users(topo, 4, seed=8)
    for slot in range(20):
        users = step_traffic(topo, users, 10.0, 0.1, seed=8, slot=slot, max_users=6)
        assert users.n_users <= 6



@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    rrs_count=st.integers(1, 4),
    n_users=st.integers(0, 8),
    slots=st.integers(1, 8),
    arrival_rate=st.sampled_from([0.0, 0.5, 2.0, 6.0]),
    departure_prob=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    max_users=st.integers(0, 10),
)
def test_step_traffic_chain_keeps_population_invariants(
    seed, rrs_count, n_users, slots, arrival_rate, departure_prob, max_users
):
    # step_traffic does not validate its output; this chain holds it to
    # UserSet.validate and to the birth-death rules at every slot
    topo = generate_topology(ScenarioConfig(rrs_count=rrs_count), seed=seed)
    if max_users > 0:
        n_users = min(n_users, max_users)
    users = spawn_users(topo, n_users, seed=seed)
    for slot in range(slots):
        out = step_traffic(
            topo, users, arrival_rate, departure_prob, seed=seed, slot=slot, max_users=max_users
        )
        out.validate(topo)
        for b, rows in enumerate(out.rrs_members):  # each site's rows, ascending
            assert np.array_equal(rows, np.flatnonzero(out.serving == b))
        old = out.ids < users.next_id
        rows = np.searchsorted(users.ids, out.ids[old])
        assert np.array_equal(users.ids[rows], out.ids[old])  # survivors existed
        assert np.array_equal(out.positions[old], users.positions[rows])
        assert np.array_equal(out.serving[old], users.serving[rows])
        arrivals = out.ids[~old]
        assert np.array_equal(arrivals, np.arange(users.next_id, out.next_id))
        if max_users > 0:
            assert out.n_users <= max_users
        users = out

def test_step_traffic_rejects_bad_rates():
    cfg = ScenarioConfig(rrs_count=2, n_users=2)
    topo = generate_topology(cfg, seed=9)
    users = spawn_users(topo, 2, seed=9)
    with pytest.raises(ValueError):
        step_traffic(topo, users, -1.0, 0.0, seed=9, slot=0)
    with pytest.raises(ValueError):
        step_traffic(topo, users, 0.0, 1.5, seed=9, slot=0)


def test_user_set_validate_rejects_broken_partition():
    cfg = ScenarioConfig(rrs_count=2, n_users=4)
    topo = generate_topology(cfg, seed=10)
    users = spawn_users(topo, 4, seed=10)
    members = list(users.rrs_members)
    users.rrs_members[0] = users.rrs_members[0][:-1]  # drop a row
    with pytest.raises(ValueError, match="partition"):
        users.validate(topo)
    # a partition of the rows, but each site holds its neighbour's users
    users.rrs_members = members[1:] + members[:1]
    with pytest.raises(ValueError, match="partition"):
        users.validate(topo)
    # one member list more than there are sites
    users.rrs_members = members + [np.empty(0, np.int64)]
    with pytest.raises(ValueError, match="partition"):
        users.validate(topo)
    users.rrs_members = members
    users.validate(topo)
