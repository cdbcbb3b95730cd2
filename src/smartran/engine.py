"""Discrete-time simulation engine.

run_episode executes one configured scenario: every slot it steps
traffic, draws channels, lets both coordination modes produce an
allocation, scores both on rate / overhead / complexity, asks the
scheme for the executed mode, and (during the training phase) lets
every learner take one gradient step. The evaluation phase freezes all
learning and switches every policy to its deterministic head; the
aggregates are computed over that window.

Fixed schemes pin the executed mode but still log both modes' metrics,
so a single run yields both curves. The equal-power baseline replaces
the learned allocators with the round-robin equal-power rule.

run_sweep runs the cross product of schemes x learners x user counts x
seeds, optionally across processes; a failing cell records its error
string instead of poisoning the rest.
"""

from __future__ import annotations

import os
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import streams
from .allocators import (
    allocate_centralized,
    allocate_distributed,
    allocate_equal_power,
    build_centralized_observation,
    build_distributed_observations,
    make_allocator,
    update_allocator,
)
from .config import ScenarioConfig
from .controller import ModeDecision, SdnController, SlotRecord, toc_roundtrip_errors
from .learning import make_sac_agent
from .metrics import (
    BitBudget,
    Mode,
    TocWeights,
    centralized_shape,
    complexity_centralized,
    complexity_distributed,
    distributed_shape,
    overhead_centralized,
    overhead_distributed,
    rate_matrix_distributed,
    rate_total_centralized,
    toc_centralized,
    toc_distributed,
)
from .netmodel import PathLossModel, generate_topology, sample_channels, spawn_users, step_traffic


@dataclass
class Aggregates:
    """Means over the evaluation window (all slots if eval_slots = 0)."""

    slots: int
    mean_rate: float  # executed mode
    mean_toc: float  # executed mode
    mean_rate_cnt: float
    mean_rate_dst: float
    mean_toc_cnt: float
    mean_toc_dst: float
    mean_tau_cnt: float
    mean_max_tau_dst: float
    mean_gamma_cnt: float
    mean_max_gamma_dst: float
    frac_cnt: float


@dataclass
class RunResult:
    scheme: str
    learner: str
    n_users: int
    seed: int
    agent_seed: int
    records: list[SlotRecord]
    eval_start: int
    aggregates: Aggregates


def aggregate_records(records: list[SlotRecord], eval_start: int) -> Aggregates:
    window = records[eval_start:] if records else []
    if not window:
        return Aggregates(0, *([0.0] * 11))

    def mean(fn):
        return float(np.mean([fn(r) for r in window]))

    return Aggregates(
        slots=len(window),
        mean_rate=mean(lambda r: r.rate_executed),
        mean_toc=mean(lambda r: r.toc_executed),
        mean_rate_cnt=mean(lambda r: r.r_cnt),
        mean_rate_dst=mean(lambda r: r.r_dst),
        mean_toc_cnt=mean(lambda r: r.toc_cnt),
        mean_toc_dst=mean(lambda r: r.toc_dst),
        mean_tau_cnt=mean(lambda r: r.tau_cnt),
        mean_max_tau_dst=mean(lambda r: r.max_tau_dst),
        mean_gamma_cnt=mean(lambda r: r.gamma_cnt),
        mean_max_gamma_dst=mean(lambda r: r.max_gamma_dst),
        frac_cnt=mean(lambda r: 1.0 if r.executed is Mode.CNT else 0.0),
    )


def run_episode(config: ScenarioConfig, seed: int | None = None) -> RunResult:
    """Run one scenario to completion and aggregate its eval window."""
    config.validate()
    cfg = config if seed is None else replace(config, seed=seed)
    env_seed = cfg.seed
    agent_seed = cfg.effective_agent_seed
    cap = cfg.effective_max_users

    topology = generate_topology(cfg, env_seed)
    users = spawn_users(topology, cfg.n_users, env_seed, draw_capacity=cfg.effective_draw_capacity)
    model = PathLossModel.from_config(cfg)
    noise_w = cfg.noise_power_w
    budget = BitBudget(power=cfg.bits_power, csi=cfg.bits_csi, subcarriers=cfg.bits_subcarrier)
    weights = TocWeights(alpha=cfg.toc_alpha, beta=cfg.toc_beta)
    b = topology.rrs_count
    k = topology.subcarrier_count
    episodes = cfg.effective_complexity_episodes

    learned = cfg.scheme != "equal-power-baseline"
    cnt_agent = None
    dst_agents: list = []
    rng_cnt = streams.substream(agent_seed, streams.CNT_AGENT)
    rng_dst = [streams.substream(agent_seed, streams.DST_AGENT, site) for site in range(b)]
    rng_sdn = streams.substream(agent_seed, streams.SDN_AGENT)
    if learned:
        cnt_agent = make_allocator(cfg.learner, b * cap * k, 2 * b * cap * k, rng_cnt, cfg)
        dst_agents = [
            make_allocator(cfg.learner, cap * k, 2 * cap * k, rng_dst[site], cfg)
            for site in range(b)
        ]

    controller = None
    if cfg.scheme == "smart":
        sdn_agent = make_sac_agent(
            state_dim=6 * cfg.memory_depth + b,
            action_dim=1,
            rng=rng_sdn,
            hidden_sizes=cfg.hidden_sizes,
            lr=cfg.learning_rate,
            gamma=cfg.sdn_discount,
            polyak=cfg.polyak,
            init_alpha=cfg.init_temperature,
            buffer_capacity=cfg.effective_buffer_capacity,
        )
        controller = SdnController(
            agent=sdn_agent,
            rrs_count=b,
            depth=cfg.memory_depth,
            max_users=cap,
            # keep learning rewards near unit scale regardless of bandwidth
            reward_scale=1.0 / (cfg.bandwidth_hz * k * b),
            norm_warmup=cfg.norm_warmup_slots,
            batch_size=cfg.batch_size,
        )

    # SAC update buffers, built at the first update: one for the pool
    # agent, one shared by the same-shape site agents
    cnt_work = dst_work = None
    records: list[SlotRecord] = []
    traffic_on = cfg.arrival_rate > 0.0 or cfg.departure_prob > 0.0

    for slot in range(cfg.total_slots):
        training = slot < cfg.train_slots
        if traffic_on and slot > 0:
            users = step_traffic(
                topology,
                users,
                cfg.arrival_rate,
                cfg.departure_prob,
                env_seed,
                slot,
                max_users=cap,
            )
        channels = sample_channels(topology, users, model, env_seed, slot, draw_capacity=cfg.effective_draw_capacity)
        n_users = users.n_users

        # --- both modes allocate on the same channel draw
        if learned:
            obs_cnt = build_centralized_observation(channels, cap)
            obs_dst = build_distributed_observations(channels, users, topology, noise_w, cap)
            alloc_cnt, act_cnt = allocate_centralized(
                cnt_agent, obs_cnt, users, topology, cap, rng_cnt, deterministic=not training
            )
            alloc_dst, act_dst = allocate_distributed(
                dst_agents, obs_dst, users, topology, cap, rng_dst, deterministic=not training
            )
        else:
            # one grant scored under both interference models; neither
            # rate kernel writes to it
            obs_cnt = obs_dst = None
            alloc_cnt = alloc_dst = allocate_equal_power(channels, users, topology)
            act_cnt, act_dst = None, None

        # --- score both modes
        rate_cnt_se = rate_total_centralized(channels, alloc_cnt, noise_w)
        dst_matrix = rate_matrix_distributed(channels, alloc_dst, topology, users, noise_w)
        rate_dst_se = float(dst_matrix.sum())
        r_cnt = rate_cnt_se * cfg.bandwidth_hz
        r_dst = rate_dst_se * cfg.bandwidth_hz

        counts = users.user_counts()
        tau_dst = tuple(
            overhead_distributed(budget, int(counts[site]), k) for site in range(b)
        )
        tau_cnt = overhead_centralized(tau_dst)
        gamma_dst = tuple(
            complexity_distributed(
                distributed_shape(episodes, cfg.batch_size, cfg.hidden_sizes, int(counts[site]), k)
            )
            for site in range(b)
        )
        gamma_cnt = complexity_centralized(
            centralized_shape(episodes, cfg.batch_size, cfg.hidden_sizes, n_users, k, b)
        )
        toc_cnt = toc_centralized(r_cnt, tau_cnt, gamma_cnt, weights)
        toc_dst = toc_distributed(r_dst, tau_dst, gamma_dst, weights)

        # --- executed mode per scheme
        if cfg.scheme == "smart":
            decision = controller.decide(rng_sdn, deterministic=not training)
        elif cfg.scheme == "fixed-distributed":
            decision = ModeDecision(x_cnt=0, x_dst=1)
        else:  # fixed-centralized and the equal-power baseline
            decision = ModeDecision(x_cnt=1, x_dst=0)
        assert decision.x_cnt + decision.x_dst == 1

        record = SlotRecord(
            slot=slot,
            r_cnt=r_cnt,
            r_dst=r_dst,
            tau_cnt=tau_cnt,
            tau_dst_per_rrs=tau_dst,
            gamma_cnt=gamma_cnt,
            gamma_dst_per_rrs=gamma_dst,
            toc_cnt=toc_cnt,
            toc_dst=toc_dst,
            executed=decision.mode,
            user_counts=tuple(int(c) for c in counts),
        )
        records.append(record)

        if controller is not None:
            controller.record_slot(record, learn=training)
            if training:
                controller.update(rng_sdn)

        # --- allocator learning (spectral-scale rewards, bandit style)
        if learned and training and n_users > 0:
            cnt_agent.buffer.push(obs_cnt, act_cnt, rate_cnt_se, obs_cnt, True)
            cnt_work = update_allocator(cnt_agent, rng_cnt, cfg.batch_size, cnt_work)
            per_site_rate = dst_matrix.sum(axis=(1, 2))
            for site in range(b):
                if act_dst[site] is None:
                    continue
                dst_agents[site].buffer.push(
                    obs_dst[site], act_dst[site], float(per_site_rate[site]), obs_dst[site], True
                )
                dst_work = update_allocator(
                    dst_agents[site], rng_dst[site], cfg.batch_size, dst_work
                )

    eval_start = cfg.train_slots if cfg.eval_slots > 0 else 0
    result = RunResult(
        scheme=cfg.scheme,
        learner=cfg.learner,
        n_users=cfg.n_users,
        seed=env_seed,
        agent_seed=agent_seed,
        records=records,
        eval_start=eval_start,
        aggregates=aggregate_records(records, eval_start),
    )
    errors = toc_roundtrip_errors(records, weights)
    if errors:
        raise RuntimeError("TOC bookkeeping drifted: " + "; ".join(errors[:3]))
    return result


def decision_trace(result: RunResult) -> list[tuple]:
    """(slot, x_cnt, toc_cnt, toc_dst, reward) per slot."""
    rows = []
    for r in result.records:
        x_cnt = 1 if r.executed is Mode.CNT else 0
        rows.append((r.slot, x_cnt, r.toc_cnt, r.toc_dst, r.toc_executed))
    return rows


@dataclass
class SweepCell:
    scheme: str
    learner: str
    user_count: int
    seed: int
    aggregates: Aggregates | None
    error: str | None = None


def _run_cell(payload) -> SweepCell:
    scheme, learner, n_users, seed, cfg, extra = payload
    try:
        run_cfg = replace(cfg, scheme=scheme, learner=learner, n_users=n_users, seed=seed, **extra)
        result = run_episode(run_cfg)
        return SweepCell(scheme, learner, n_users, seed, result.aggregates)
    except Exception:
        return SweepCell(scheme, learner, n_users, seed, None, error=traceback.format_exc(limit=3))


# BLAS thread-count variables that sweep workers default to 1
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@contextmanager
def _single_blas_thread_env():
    """Processes started inside the block run one BLAS thread each,
    unless the user already set either variable, in which case both are
    left alone; the environment is restored on exit. Workers that each
    ran BLAS at the machine's full thread count would oversubscribe the
    cores the pool already fills."""
    user_set = any(name in os.environ for name in _BLAS_THREAD_VARS)
    added = [] if user_set else list(_BLAS_THREAD_VARS)
    for name in added:
        os.environ[name] = "1"
    try:
        yield
    finally:
        for name in added:
            os.environ.pop(name, None)


def run_sweep(
    config: ScenarioConfig,
    user_counts,
    schemes,
    seeds,
    learners=("sac",),
    workers: int = 1,
    per_count=None,
) -> list[SweepCell]:
    """Cross product of cells, in deterministic order regardless of
    worker count. Cells that raise keep their error string.

    per_count, if given, maps a user count to extra config overrides
    (e.g. traffic rates or network capacity that should scale with the
    sweep variable). Overrides are materialized up front so payloads
    stay picklable. Workers are spawned, not forked, so each loads BLAS
    afresh with the single-thread setting; as with any spawned pool, a
    script that calls this with workers > 1 must do so under an
    ``if __name__ == "__main__":`` guard."""
    payloads = [
        (scheme, learner, int(n), int(seed), config, dict(per_count(int(n))) if per_count else {})
        for scheme in schemes
        for learner in learners
        for n in user_counts
        for seed in seeds
    ]
    if workers <= 1 or len(payloads) <= 1:
        return [_run_cell(p) for p in payloads]
    # imported here, their only use, so that importing the engine stays cheap
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with _single_blas_thread_env(), ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        return list(pool.map(_run_cell, payloads))
