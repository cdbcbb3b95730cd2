"""Episode loop, aggregates, determinism, and sweep plumbing."""

import hashlib
import os
import pickle
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from smartran import allocators, engine
from smartran.cli import make_preset
from smartran.config import ConfigError, ScenarioConfig
from smartran.engine import (
    Aggregates,
    aggregate_records,
    decision_trace,
    run_episode,
    run_sweep,
)
from smartran.metrics import Mode, TocWeights, toc_centralized, toc_distributed


def _cfg(**overrides):
    base = dict(
        rrs_count=2,
        subcarriers=4,
        n_users=4,
        cell_edge_snr_db=20.0,
        train_slots=12,
        eval_slots=8,
        batch_size=8,
        hidden_sizes=(8,),
        memory_depth=3,
        norm_warmup_slots=4,
        complexity_episodes=10,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_zero_slot_run_yields_zero_aggregates():
    result = run_episode(_cfg(train_slots=0, eval_slots=0))
    assert result.records == []
    assert result.aggregates == Aggregates(0, *([0.0] * 11))


def test_fixed_schemes_pin_the_mode():
    cnt = run_episode(_cfg(scheme="fixed-centralized"))
    assert all(r.executed is Mode.CNT for r in cnt.records)
    assert cnt.aggregates.frac_cnt == 1.0
    dst = run_episode(_cfg(scheme="fixed-distributed"))
    assert all(r.executed is Mode.DST for r in dst.records)
    assert dst.aggregates.frac_cnt == 0.0


def test_records_cover_every_slot_and_roundtrip():
    cfg = _cfg(scheme="smart")
    result = run_episode(cfg)
    assert [r.slot for r in result.records] == list(range(cfg.total_slots))
    assert result.eval_start == cfg.train_slots
    weights = TocWeights(alpha=cfg.toc_alpha, beta=cfg.toc_beta)
    for r in result.records:
        assert r.toc_cnt == toc_centralized(r.r_cnt, r.tau_cnt, r.gamma_cnt, weights)
        assert r.toc_dst == toc_distributed(
            r.r_dst, r.tau_dst_per_rrs, r.gamma_dst_per_rrs, weights
        )
    for slot, x_cnt, *_ in decision_trace(result):
        assert x_cnt in (0, 1)
    # both hypothetical outcomes are recorded every slot
    assert all(np.isfinite(r.r_cnt) and np.isfinite(r.r_dst) for r in result.records)
    assert all(r.r_cnt >= 0 and r.r_dst >= 0 for r in result.records)


def test_aggregates_use_only_the_eval_window():
    result = run_episode(_cfg(scheme="equal-power-baseline"))
    agg = aggregate_records(result.records, result.eval_start)
    assert agg == result.aggregates
    assert agg.slots == 8
    window = result.records[result.eval_start:]
    assert agg.mean_rate_cnt == pytest.approx(np.mean([r.r_cnt for r in window]))
    assert agg.mean_max_tau_dst == pytest.approx(np.mean([r.max_tau_dst for r in window]))


def test_episode_deterministic_per_seed():
    cfg = _cfg(scheme="smart", seed=5)
    a = run_episode(cfg)
    b = run_episode(cfg)
    assert decision_trace(a) == decision_trace(b)
    assert a.aggregates == b.aggregates
    c = run_episode(_cfg(scheme="smart", seed=6))
    assert decision_trace(c) != decision_trace(a)


def test_agent_seed_isolates_learning_from_environment():
    """Same environment seed, different agent seeds: the channel and
    traffic draws (hence the overhead fields) match slot for slot while
    the learned allocations differ."""
    a = run_episode(_cfg(scheme="smart", seed=3, agent_seed=1))
    b = run_episode(_cfg(scheme="smart", seed=3, agent_seed=2))
    assert [r.tau_cnt for r in a.records] == [r.tau_cnt for r in b.records]
    assert [r.user_counts for r in a.records] == [r.user_counts for r in b.records]
    assert any(
        ra.r_cnt != rb.r_cnt or ra.r_dst != rb.r_dst
        for ra, rb in zip(a.records, b.records)
    )


def test_equal_power_baseline_needs_no_training():
    result = run_episode(_cfg(scheme="equal-power-baseline", train_slots=0, eval_slots=6))
    assert result.aggregates.slots == 6
    assert result.aggregates.mean_rate_cnt > 0.0
    assert result.aggregates.mean_rate_dst > 0.0


def test_run_episode_validates_config():
    with pytest.raises(ConfigError):
        run_episode(_cfg(subcarriers=0))


def test_run_episode_seed_override():
    result = run_episode(_cfg(scheme="equal-power-baseline"), seed=9)
    assert result.seed == 9


def test_traffic_changes_population_during_run():
    cfg = _cfg(
        scheme="equal-power-baseline",
        train_slots=0,
        eval_slots=40,
        arrival_rate=1.0,
        departure_prob=0.3,
        max_users=10,
    )
    result = run_episode(cfg)
    totals = {sum(r.user_counts) for r in result.records}
    assert len(totals) > 1  # population actually moved
    assert max(totals) <= 10


def test_run_sweep_isolates_cell_errors():
    cfg = _cfg(scheme="equal-power-baseline", train_slots=0, eval_slots=4)
    cells = run_sweep(
        cfg,
        user_counts=(2, 4),
        schemes=("equal-power-baseline",),
        seeds=(0,),
        per_count=lambda n: {"subcarriers": 0} if n == 4 else {},
    )
    by_count = {c.user_count: c for c in cells}
    assert by_count[2].error is None and by_count[2].aggregates is not None
    assert by_count[4].error is not None and by_count[4].aggregates is None
    assert "subcarriers" in by_count[4].error


def test_run_sweep_deterministic_across_worker_counts():
    cfg = _cfg(scheme="equal-power-baseline", train_slots=0, eval_slots=6)
    kwargs = dict(
        user_counts=(2, 3), schemes=("equal-power-baseline",), seeds=(0, 1)
    )
    serial = run_sweep(cfg, workers=1, **kwargs)
    parallel = run_sweep(cfg, workers=2, **kwargs)
    assert [(c.scheme, c.learner, c.user_count, c.seed) for c in serial] == [
        (c.scheme, c.learner, c.user_count, c.seed) for c in parallel
    ]
    for a, b in zip(serial, parallel):
        assert a.aggregates == b.aggregates


def test_run_sweep_applies_per_count_overrides():
    cfg = _cfg(scheme="equal-power-baseline", train_slots=0)
    cells = run_sweep(
        cfg,
        user_counts=(2, 4),
        schemes=("equal-power-baseline",),
        seeds=(0,),
        per_count=lambda n: {"eval_slots": n},
    )
    assert {c.user_count: c.aggregates.slots for c in cells} == {2: 2, 4: 4}


def test_run_sweep_smart_cells_match_across_worker_counts():
    cfg = _cfg(scheme="smart")
    kwargs = dict(user_counts=(2, 3), schemes=("smart",), seeds=(0,))
    serial = run_sweep(cfg, workers=1, **kwargs)
    parallel = run_sweep(cfg, workers=2, **kwargs)
    assert all(c.error is None for c in serial + parallel)
    assert [c.aggregates for c in serial] == [c.aggregates for c in parallel]


def _records_sha256(records) -> str:
    h = hashlib.sha256()
    for r in records:
        fields = [
            str(r.slot), r.r_cnt.hex(), r.r_dst.hex(), str(r.tau_cnt),
            repr(r.tau_dst_per_rrs), str(r.gamma_cnt), repr(r.gamma_dst_per_rrs),
            r.toc_cnt.hex(), r.toc_dst.hex(), r.executed.name, repr(r.user_counts),
        ]
        h.update((";".join(fields) + "\n").encode())
    return h.hexdigest()


def test_learned_path_records_are_pinned():
    # a small smart SAC episode whose allocators and SDN agent both train,
    # and an equal-power baseline under churn that empties sites and puts
    # more users on a site than it has subcarriers; the smart digest was
    # taken from the per-layer learning core, the baseline one from the
    # engine that built one equal-power grant per mode. The 8-site smart
    # episode (churn idles sites) and the paper-geometry baseline pin the
    # rate kernels where B >= 8 and at paper scale.
    paper = make_preset("rate", paper_scale=True)
    cases = [
        (
            _cfg(scheme="smart", learner="sac", n_users=2, train_slots=30, eval_slots=10),
            "2db68192b46ca8e6bd3597f896b01a4af7a036d6492b4f7e4e519643826131e6",
        ),
        (
            _cfg(
                scheme="equal-power-baseline", train_slots=10, eval_slots=30,
                arrival_rate=1.2, departure_prob=0.2, max_users=10,
            ),
            "4db6c1d4196f24c6cc1722beee68325532fab2560b97d1fdfd1b64c49c0a712b",
        ),
        (
            _cfg(
                scheme="smart", learner="sac", rrs_count=8, n_users=12, train_slots=30,
                eval_slots=10, arrival_rate=1.2, departure_prob=0.2, max_users=20,
            ),
            "6f7dac8ec977218255ee59b4b9fcf7d1ceebac51f62dea250730e165b27d4e65",
        ),
        (
            replace(
                paper.base, scheme="equal-power-baseline", n_users=200, train_slots=0,
                eval_slots=40, seed=1, **paper.per_count(200),
            ),
            "e82fee484dc55d8adc848c077ee2b8d0872e932c5303de045dd5535150b048cd",
        ),
    ]
    for cfg, digest in cases:
        result = run_episode(cfg)
        if cfg.scheme == "smart":
            assert {r.executed for r in result.records} == {Mode.CNT, Mode.DST}
        assert _records_sha256(result.records) == digest


# the rate preset's 24-user smart cell at agent seed 1; run in a child
# interpreter, it writes its pickled records to stdout
_RATE_CELL_24 = """
import pickle, sys
from dataclasses import replace
from smartran.cli import make_preset
from smartran.engine import run_episode
preset = make_preset("rate")
cfg = replace(preset.base, scheme="smart", n_users=24, agent_seed=1, **preset.per_count(24))
sys.stdout.buffer.write(pickle.dumps(run_episode(cfg).records))
"""


def test_records_do_not_depend_on_the_blas_thread_environment():
    # at this cell's per-site shape (208 inputs, 416 outputs) OpenBLAS
    # sums some products in another order at two threads than at one;
    # records taken at its default thread count differed from
    # OPENBLAS_NUM_THREADS=1 until episodes ran on one BLAS thread
    src = str(Path(engine.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("SMARTRAN_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("OMP_NUM_THREADS", None)
    digests = [
        _records_sha256(pickle.loads(subprocess.run(
            [sys.executable, "-c", _RATE_CELL_24],
            env={**env, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE, timeout=120, check=True,
        ).stdout))
        for threads in ("1", "2")
    ]
    assert digests[0] == digests[1]


def test_pool_update_error_propagates_and_leaves_no_thread(monkeypatch):
    # the pool agent learns on a helper thread: its error must surface
    # from run_episode, the helper must be joined, and the caller's BLAS
    # thread count must come back after a raise and after a return
    cfg = _cfg(scheme="smart")
    pool_dim = 2 * cfg.rrs_count * cfg.effective_max_users * cfg.subcarriers
    real = allocators.sac_update

    def failing(agent, *args, **kwargs):
        if agent.action_dim == pool_dim:
            raise RuntimeError("pool update failed")
        return real(agent, *args, **kwargs)

    blas = engine._openblas_thread_count()
    if blas is not None:
        get, set_ = blas
        caller = get()
        set_(2)
    threads = threading.active_count()
    try:
        run_episode(cfg)
        assert threading.active_count() == threads
        assert blas is None or get() == 2
        monkeypatch.setattr(allocators, "sac_update", failing)
        with pytest.raises(RuntimeError, match="pool update failed"):
            run_episode(cfg)
        assert threading.active_count() == threads
        assert blas is None or get() == 2
    finally:
        if blas is not None:
            set_(caller)


@pytest.mark.parametrize("learner, update", [("dqn", "dqn_update"), ("ddpg", "ddpg_update")])
def test_dqn_and_ddpg_episodes_train_and_repeat(monkeypatch, learner, update):
    real = getattr(allocators, update)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(allocators, update, counted)
    for scheme in ("smart", "fixed-distributed"):
        cfg = _cfg(scheme=scheme, learner=learner, batch_size=4, train_slots=12, eval_slots=4)
        before = len(calls)
        first, second = run_episode(cfg), run_episode(cfg)
        assert len(calls) > before
        assert _records_sha256(first.records) == _records_sha256(second.records)
