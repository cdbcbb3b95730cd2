"""Mode decisions, slot records, memory/state assembly, and the
switching controller's learning plumbing."""

from collections import deque

import numpy as np
import pytest

from smartran.controller import (
    ModeDecision,
    RunningNorm,
    SdnController,
    SlotRecord,
    build_sdn_state,
    decide_mode,
    record_features,
)
from smartran.learning import make_sac_agent
from smartran.metrics import Mode, TocWeights, toc_centralized, toc_distributed


def _record(slot=0, executed=Mode.CNT, r_cnt=100.0, r_dst=90.0, counts=(2, 2)):
    w = TocWeights(alpha=1e-6, beta=1e-3)
    tau_dst = (192, 384)
    gamma_dst = (1_000, 2_000)
    return SlotRecord(
        slot=slot,
        r_cnt=r_cnt,
        r_dst=r_dst,
        tau_cnt=576,
        tau_dst_per_rrs=tau_dst,
        gamma_cnt=5_000,
        gamma_dst_per_rrs=gamma_dst,
        toc_cnt=toc_centralized(r_cnt, 576, 5_000, w),
        toc_dst=toc_distributed(r_dst, tau_dst, gamma_dst, w),
        executed=executed,
        user_counts=counts,
    )


def test_mode_decision_exclusivity():
    assert ModeDecision(1, 0).mode is Mode.CNT
    assert ModeDecision(0, 1).mode is Mode.DST
    for bad in ((0, 0), (1, 1), (2, 0), (-1, 2)):
        with pytest.raises(ValueError, match="exactly one"):
            ModeDecision(*bad)


def test_record_properties():
    rec = _record(executed=Mode.CNT)
    assert rec.max_tau_dst == 384
    assert rec.max_gamma_dst == 2_000
    assert rec.toc_executed == rec.toc_cnt
    assert rec.rate_executed == rec.r_cnt
    dst = _record(executed=Mode.DST)
    assert dst.toc_executed == dst.toc_dst
    assert dst.rate_executed == dst.r_dst


def test_record_features_order():
    rec = _record()
    feats = record_features(rec)
    assert np.array_equal(
        feats, [rec.r_cnt, rec.r_dst, rec.tau_cnt, 384.0, rec.gamma_cnt, 2_000.0]
    )


def test_memory_fifo_and_traffic_summary():
    ctrl = _controller(depth=2)
    state = ctrl.build_state()
    assert np.all(state == 0.0)  # empty memory: no features, zero counts
    for slot, counts in enumerate(((1, 1), (2, 3), (4, 0))):
        ctrl.record_slot(_record(slot=slot, counts=counts))
    assert [r.slot for r in ctrl.memory] == [1, 2]
    state = ctrl.build_state()
    assert np.array_equal(state[12:], [4 / 8, 0 / 8])  # the newest record's counts
    agent = make_sac_agent(26, 1, np.random.default_rng(7), hidden_sizes=(8,))
    for depth in (0, -1):
        with pytest.raises(ValueError, match="depth"):
            SdnController(agent, 2, depth, max_users=8)


def test_build_state_layout_and_padding():
    mem = deque(maxlen=3)
    mem.append(_record(slot=0, counts=(4, 6)))
    state = build_sdn_state(mem, rrs_count=2, max_users=12)
    assert state.shape == (6 * 3 + 2,)
    # one record: two leading zero blocks, then its features
    assert np.all(state[:12] == 0.0)
    assert np.array_equal(state[12:18], record_features(mem[0]))
    assert np.array_equal(state[18:], [4 / 12, 6 / 12])
    # oldest first once full
    for slot in (1, 2, 3):
        mem.append(_record(slot=slot))
    state = build_sdn_state(mem, rrs_count=2, max_users=12)
    assert [r.slot for r in mem] == [1, 2, 3]
    for i, record in enumerate(mem):
        assert np.array_equal(state[6 * i : 6 * i + 6], record_features(record))


def test_build_state_rejects_count_mismatch():
    mem = deque([_record(counts=(1, 2, 3))], maxlen=2)
    with pytest.raises(ValueError, match="site count"):
        build_sdn_state(mem, rrs_count=2, max_users=8)


def test_running_norm_standardizes_then_freezes():
    rng = np.random.default_rng(0)
    norm = RunningNorm(3)
    data = rng.normal(loc=5.0, scale=2.0, size=(500, 3))
    for row in data:
        norm.update(row)
    out = np.stack([norm.apply(row) for row in data])
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)
    norm.frozen = True
    mean_before = norm.mean.copy()
    norm.update(np.array([1e9, 1e9, 1e9]))
    assert np.array_equal(norm.mean, mean_before)


def test_decide_mode_sign_rule():
    rng = np.random.default_rng(1)
    agent = make_sac_agent(4, 1, rng, hidden_sizes=(8,))
    state = np.zeros(4)
    agent.actor.biases[-1][0] = 50.0  # push the action mean to +1
    decision, action = decide_mode(agent, state, rng, deterministic=True)
    assert action[0] > 0 and decision.x_cnt == 1
    agent.actor.biases[-1][0] = -50.0
    decision, action = decide_mode(agent, state, rng, deterministic=True)
    assert action[0] < 0 and decision.x_dst == 1


def _controller(depth=4, warmup=5, batch=8):
    agent = make_sac_agent(6 * depth + 2, 1, np.random.default_rng(2), hidden_sizes=(8,))
    return SdnController(
        agent, rrs_count=2, depth=depth, max_users=8,
        reward_scale=0.5, norm_warmup=warmup, batch_size=batch,
    )


def test_controller_stores_one_transition_per_decided_slot():
    ctrl = _controller()
    rng = np.random.default_rng(3)
    ctrl.decide(rng)
    reward = ctrl.record_slot(_record(slot=0))
    assert reward == _record(slot=0).toc_executed
    assert len(ctrl.agent.buffer) == 1
    # the stored reward is scaled
    batch = ctrl.agent.buffer.sample(1, rng)
    assert batch.rewards[0] == pytest.approx(reward * 0.5)
    assert np.all(batch.dones == 0.0)
    # recording without a pending decision stores nothing
    ctrl.record_slot(_record(slot=1))
    assert len(ctrl.agent.buffer) == 1


def test_controller_eval_slots_do_not_train():
    ctrl = _controller()
    rng = np.random.default_rng(4)
    ctrl.decide(rng, deterministic=True)
    ctrl.record_slot(_record(slot=0), learn=False)
    assert len(ctrl.agent.buffer) == 0
    assert ctrl.norm.frozen  # evaluation freezes the normalizer


def test_controller_norm_freezes_after_warmup():
    ctrl = _controller(warmup=3)
    rng = np.random.default_rng(5)
    for slot in range(3):
        ctrl.decide(rng)
        ctrl.record_slot(_record(slot=slot))
        assert ctrl.norm.frozen is (slot >= 2)


def test_controller_update_waits_for_batch():
    ctrl = _controller(batch=8)
    rng = np.random.default_rng(6)
    for slot in range(7):
        ctrl.decide(rng)
        ctrl.record_slot(_record(slot=slot))
        assert ctrl.update(rng) is None
    ctrl.decide(rng)
    ctrl.record_slot(_record(slot=7))
    losses = ctrl.update(rng)
    assert losses is not None and np.isfinite(losses.actor)


def test_controller_rejects_bad_reward_scale():
    agent = make_sac_agent(26, 1, np.random.default_rng(7), hidden_sizes=(8,))
    with pytest.raises(ValueError):
        SdnController(agent, 2, 4, max_users=8, reward_scale=0.0)
