"""Command-line front end: presets, sweeps, and CSV export.

Subcommands:
  run       one episode from a config file, writes the result row and
            the per-slot mode-decision trace
  figure    a preset sweep (overhead | rate | toc) over user counts,
            seeds, schemes, and learners; writes a result table plus a
            plot-ready long-format file
  validate  the fast invariant suite with one timed PASS/FAIL line per
            check

Exit codes: 0 success, 1 config error, 2 runtime failure, 3 validation
failure. CSV schemas are pinned (see RESULT_HEADER / LONG_HEADER); all
floats are rendered with repr-stable %.12g so identical seeds yield
byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .config import (
    ConfigError,
    ScenarioConfig,
    apply_env_overrides,
    load_config,
)
from .engine import RunResult, SweepCell, decision_trace, run_episode, run_sweep

RESULT_HEADER = (
    "scheme,learner,user_count,seed,mean_rate,mean_tau_cnt,mean_max_tau_dst,"
    "mean_gamma_cnt,mean_max_gamma_dst,mean_toc"
)
LONG_HEADER = "scheme,learner,user_count,metric,mean,stderr"
TRACE_HEADER = "slot,x_cnt,toc_cnt,toc_dst,toc_executed"

LONG_METRICS = (
    "mean_rate",
    "mean_rate_cnt",
    "mean_rate_dst",
    "mean_toc",
    "mean_toc_cnt",
    "mean_toc_dst",
    "mean_tau_cnt",
    "mean_max_tau_dst",
    "mean_gamma_cnt",
    "mean_max_gamma_dst",
    "frac_cnt",
)


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


# ---------------------------------------------------------------------------
# Presets


def _churn_overrides(n: int) -> dict:
    # population churn scaled to the sweep point: stationary mean ~= n
    return {"max_users": n + 2, "arrival_rate": 0.15 * n}


class Preset:
    def __init__(self, base, counts, schemes, learners, per_count=None):
        self.base = base
        self.counts = counts
        self.schemes = schemes
        self.learners = learners
        self.per_count = per_count


def _desk_base(**overrides) -> ScenarioConfig:
    common = dict(
        rrs_count=2,
        subcarriers=8,
        complexity_episodes=200,
        departure_prob=0.15,
        draw_capacity=26,
        learning_rate=1e-4,
        area_radius_m=160.0,
        min_distance_m=60.0,
        cell_edge_snr_db=30.0,
        train_slots=200,
        eval_slots=300,
    )
    common.update(overrides)
    return ScenarioConfig(**common)


def make_preset(name: str, paper_scale: bool = False) -> Preset:
    """Sweep definitions behind `figure --preset`.

    Desk scale keeps every preset in CI territory; --paper-scale widens
    the network and the sweep to the reference setup (hours, not CI).
    """
    if name == "overhead":
        base = _desk_base()
        preset = Preset(
            base,
            counts=tuple(range(2, 25, 2)),
            schemes=("equal-power-baseline", "smart"),
            learners=("sac",),
            per_count=_churn_overrides,
        )
    elif name == "rate":
        base = _desk_base()
        preset = Preset(
            base,
            counts=(2, 4, 8, 12, 16, 20, 24),
            schemes=("smart", "equal-power-baseline"),
            learners=("sac",),
            per_count=_churn_overrides,
        )
    elif name == "toc":
        # static populations: the analytic overhead/complexity gaps stay exact
        base = _desk_base(
            departure_prob=0.0,
            draw_capacity=24,
            area_radius_m=200.0,
            min_distance_m=35.0,
            cell_edge_snr_db=20.0,
            train_slots=0,
        )
        preset = Preset(
            base,
            counts=tuple(range(2, 25, 2)),
            schemes=("equal-power-baseline",),
            # the baseline builds no learner, so a second one would
            # only repeat every cell
            learners=("sac",),
            per_count=None,
        )
    else:
        raise ConfigError(f"unknown preset {name!r} (choose overhead | rate | toc)")

    if paper_scale:
        preset.base = replace(
            preset.base,
            rrs_count=4,
            subcarriers=32,
            draw_capacity=208,
            train_slots=2000 if preset.base.train_slots else 0,
            eval_slots=500,
            complexity_episodes=2000,
        )
        preset.counts = tuple(range(20, 201, 20))
        if preset.per_count is not None:
            preset.per_count = lambda n: {"max_users": n + 8, "arrival_rate": 0.15 * n}
    return preset


# ---------------------------------------------------------------------------
# CSV export


def result_rows(cells: list[SweepCell]) -> list[str]:
    rows = []
    for c in sorted(cells, key=lambda c: (c.scheme, c.learner, c.user_count, c.seed)):
        if c.error is not None or c.aggregates is None:
            raise ValueError(
                f"failed cell in results: scheme={c.scheme} users={c.user_count} seed={c.seed}"
            )
        a = c.aggregates
        rows.append(
            ",".join(
                [
                    c.scheme,
                    c.learner,
                    str(c.user_count),
                    str(c.seed),
                    _fmt(a.mean_rate),
                    _fmt(a.mean_tau_cnt),
                    _fmt(a.mean_max_tau_dst),
                    _fmt(a.mean_gamma_cnt),
                    _fmt(a.mean_max_gamma_dst),
                    _fmt(a.mean_toc),
                ]
            )
        )
    return rows


def long_rows(cells: list[SweepCell]) -> list[str]:
    """Seed-aggregated rows: one (scheme, learner, count, metric) per line."""
    groups: dict[tuple, list] = {}
    for c in cells:
        groups.setdefault((c.scheme, c.learner, c.user_count), []).append(c.aggregates)
    rows = []
    for (scheme, learner, count) in sorted(groups):
        aggs = groups[(scheme, learner, count)]
        for metric in LONG_METRICS:
            vals = np.array([getattr(a, metric) for a in aggs], dtype=np.float64)
            stderr = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
            rows.append(
                ",".join([scheme, learner, str(count), metric, _fmt(float(vals.mean())), _fmt(stderr)])
            )
    return rows


def write_csv(path: str, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def _apply_flag_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    overrides = {}
    if args.slots is not None:
        overrides["train_slots"] = args.slots
        overrides["eval_slots"] = args.slots
    if getattr(args, "scheme", None):
        overrides["scheme"] = args.scheme
    if getattr(args, "learner", None):
        overrides["learner"] = args.learner
    return replace(cfg, **overrides) if overrides else cfg


def cmd_run(args) -> int:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    cfg = apply_env_overrides(cfg)
    cfg = _apply_flag_overrides(cfg, args)
    cfg.validate()
    result: RunResult = run_episode(cfg)
    os.makedirs(args.out, exist_ok=True)
    cell = SweepCell(
        result.scheme, result.learner, result.n_users, result.seed, result.aggregates
    )
    write_csv(os.path.join(args.out, "run_results.csv"), RESULT_HEADER, result_rows([cell]))
    trace = [
        ",".join([str(s), str(x), _fmt(tc), _fmt(td), _fmt(te)])
        for (s, x, tc, td, te) in decision_trace(result)
    ]
    write_csv(os.path.join(args.out, "run_trace.csv"), TRACE_HEADER, trace)
    print(f"wrote {args.out}/run_results.csv and run_trace.csv ({len(trace)} slots)")
    return 0


def cmd_figure(args) -> int:
    preset = make_preset(args.preset, paper_scale=args.paper_scale)
    base = load_config(args.config) if args.config else preset.base
    base = apply_env_overrides(base)
    base = _apply_flag_overrides(base, args)
    schemes = (args.scheme,) if args.scheme else preset.schemes
    learners = (args.learner,) if args.learner else preset.learners
    seeds = range(args.seeds)
    workers = args.workers if args.workers else (os.cpu_count() or 1)

    cells = run_sweep(
        base,
        preset.counts,
        schemes,
        seeds,
        learners=learners,
        workers=workers,
        per_count=preset.per_count,
    )
    failed = [c for c in cells if c.error is not None]
    if failed:
        sys.stderr.write(f"{len(failed)} sweep cell(s) failed\n")
        for c in failed:
            sys.stderr.write(
                f"scheme={c.scheme} learner={c.learner} users={c.user_count} "
                f"seed={c.seed}\n{c.error}\n"
            )
        return 2

    os.makedirs(args.out, exist_ok=True)
    results = os.path.join(args.out, f"{args.preset}_results.csv")
    longf = os.path.join(args.out, f"{args.preset}_long.csv")
    write_csv(results, RESULT_HEADER, result_rows(cells))
    write_csv(longf, LONG_HEADER, long_rows(cells))
    print(f"wrote {results} ({len(cells)} cells) and {longf}")
    return 0


# ---------------------------------------------------------------------------
# validate: fast invariant suite


def check_overhead_identity(rng: np.random.Generator) -> None:
    from .metrics import BitBudget, overhead_centralized, overhead_distributed

    for _ in range(300):
        budget = BitBudget(
            power=int(rng.integers(1, 32)),
            csi=int(rng.integers(1, 32)),
            subcarriers=int(rng.integers(1, 32)),
        )
        per_rrs = [
            overhead_distributed(budget, int(rng.integers(0, 40)), int(rng.integers(1, 64)))
            for _ in range(int(rng.integers(1, 8)))
        ]
        if overhead_centralized(per_rrs) != sum(per_rrs):
            raise AssertionError("centralized overhead != sum of per-site overheads")


def check_hand_values(rng: np.random.Generator) -> None:
    from .metrics import (
        BitBudget,
        ComplexityShape,
        TocWeights,
        complexity_centralized,
        overhead_centralized,
        overhead_distributed,
        toc_centralized,
        toc_distributed,
    )

    checks = [
        (overhead_distributed(BitBudget(4, 16, 4), 2, 8), 384),
        (overhead_centralized([384, 384, 384, 384]), 1536),
        (complexity_centralized(ComplexityShape(1, 1, 3, (4, 4), 2)), 36),
        (complexity_centralized(ComplexityShape(100, 32, 3, (4, 4), 2)), 115200),
        (toc_centralized(100.0, 1536.0, 115200.0, TocWeights(alpha=1e-6, beta=0.01)), 84.5248),
        (toc_distributed(100.0, [384.0, 200.0], [36.0, 40.0], TocWeights(alpha=0.1, beta=0.01)), 92.16),
    ]
    for got, want in checks:
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            raise AssertionError(f"hand value mismatch: got {got!r}, want {want!r}")


def check_gradients(rng: np.random.Generator) -> None:
    from .learning import mlp_forward, mlp_forward_cached, mlp_gradient, mlp_init

    for _ in range(3):
        sizes = tuple(int(rng.integers(2, 6)) for _ in range(3))
        net = mlp_init(sizes, rng, activation="tanh")
        x = rng.normal(size=(4, sizes[0]))
        grad_out = rng.normal(size=(4, sizes[-1]))
        _, cache = mlp_forward_cached(net, x)
        grads, _ = mlp_gradient(net, grad_out, cache)
        eps = 1e-6
        for p, g in zip(net.params(), grads):
            idx = tuple(int(rng.integers(0, s)) for s in p.shape)
            base = p[idx]
            p[idx] = base + eps
            up = float(np.sum(mlp_forward(net, x) * grad_out))
            p[idx] = base - eps
            down = float(np.sum(mlp_forward(net, x) * grad_out))
            p[idx] = base
            fd = (up - down) / (2 * eps)
            if abs(fd - g[idx]) > 1e-4 * max(1.0, abs(fd)):
                raise AssertionError(f"gradient mismatch: backprop {g[idx]!r} vs fd {fd!r}")


def check_decode_feasibility(rng: np.random.Generator) -> None:
    from .allocators import decode_action

    for _ in range(200):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(0, 7))
        cap = max(n + int(rng.integers(0, 4)), 1)
        rows = np.sort(rng.choice(2 * cap, size=n, replace=False))
        raw = rng.normal(size=2 * cap * k)
        p_max = float(rng.uniform(0.5, 20.0))
        owner, power = decode_action(raw, rows, cap, k, p_max)
        if n == 0:
            if owner.size or power.size:
                raise AssertionError("idle site must not transmit")
            continue
        if owner.shape != (k,) or not np.all(np.isin(owner, rows)):
            raise AssertionError("each subcarrier must go to exactly one of the site's users")
        if abs(power.sum() - p_max) > 1e-9 * p_max:
            raise AssertionError("decoded power must spend the full site budget")


def check_determinism(rng: np.random.Generator) -> None:
    cfg = ScenarioConfig(
        rrs_count=2,
        subcarriers=4,
        n_users=4,
        train_slots=20,
        eval_slots=10,
        norm_warmup_slots=5,
        seed=7,
    )
    a = run_episode(cfg)
    b = run_episode(cfg)
    ta = [(r.slot, r.executed, r.r_cnt, r.r_dst, r.toc_cnt, r.toc_dst) for r in a.records]
    tb = [(r.slot, r.executed, r.r_cnt, r.r_dst, r.toc_cnt, r.toc_dst) for r in b.records]
    if ta != tb:
        raise AssertionError("two identical runs diverged")


VALIDATION_CHECKS = (
    ("overhead-identity", check_overhead_identity),
    ("hand-values", check_hand_values),
    ("gradients", check_gradients),
    ("decode-feasibility", check_decode_feasibility),
    ("determinism", check_determinism),
)


def cmd_validate(args) -> int:
    rng = np.random.default_rng(0)
    failures = 0
    for name, check in VALIDATION_CHECKS:
        t0 = time.perf_counter()
        try:
            check(rng)
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            status, detail = "FAIL", f"  ({exc})"
        else:
            status, detail = "PASS", ""
        wall = time.perf_counter() - t0
        print(f"{status} {name:20s} {wall:7.3f}s{detail}")
    if failures:
        print(f"{failures} check(s) failed")
        return 3
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smartran",
        description="Multi-cell downlink simulator with a learned centralized/distributed mode switch",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one episode from a config file")
    run.add_argument("--config", help="flat key = value config file")
    run.add_argument("--slots", type=int, help="override train_slots and eval_slots")
    run.add_argument("--scheme", help="override the mode-selection scheme")
    run.add_argument("--learner", help="override the allocator learner")
    run.add_argument("--out", default="results", help="output directory")
    run.set_defaults(func=cmd_run)

    fig = sub.add_parser("figure", help="run a preset sweep and export CSV")
    fig.add_argument("--preset", required=True, help="overhead | rate | toc")
    fig.add_argument("--config", help="replace the preset base config with this file")
    fig.add_argument("--seeds", type=int, default=5, help="number of seeds (0..N-1)")
    fig.add_argument("--slots", type=int, help="override train_slots and eval_slots")
    fig.add_argument("--scheme", help="restrict to one scheme")
    fig.add_argument("--learner", help="restrict to one learner")
    fig.add_argument("--out", default="results", help="output directory")
    fig.add_argument("--workers", type=int, default=0, help="sweep processes (0 = cores)")
    fig.add_argument("--paper-scale", action="store_true", help="reference-scale sweep (slow)")
    fig.set_defaults(func=cmd_figure)

    val = sub.add_parser("validate", help="fast invariant suite")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"runtime failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
