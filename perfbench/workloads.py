"""The three workloads. Each one is built from a seed during set-up and
then runs whole rounds of identical operations.

figure-rate     `smartran figure --preset rate --seeds 1 --workers 1`, in
                process: 14 cells (smart and the equal-power baseline at
                2..24 users), 500 slots each. The workload seed becomes
                the learners' seed (SMARTRAN_AGENT_SEED); the figure's
                environment seed stays 0, as the preset defines it.
sites-8         one smart episode on the rate preset's desk base with 8
                sites, 4 subcarriers and 16 users under the preset's
                churn model: eight small per-site SAC updates per
                training slot.
baseline-paper  the equal-power baseline at the --paper-scale geometry (4
                sites, 32 subcarriers, 200 users, paper-scale churn) for
                3000 evaluation-only slots: no learner runs.

For the two episode workloads the seed is the scenario seed.
"""

from __future__ import annotations

import os
import shutil
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks

BASELINE_SLOTS = 3000
# slots of one baseline-paper episode whose rates are rebuilt independently
RATE_SAMPLES = 6


@dataclass
class Round:
    attempted: int
    failed: int
    slots: int
    output: object  # None when an operation failed


class FigureRate:
    name = "figure-rate"

    def __init__(self, seed: int, out_dir: Path):
        from smartran import cli

        self._cli = cli
        self.out_dir = out_dir
        preset = cli.make_preset("rate")
        configs = [
            replace(preset.base, scheme=s, n_users=n, seed=0, agent_seed=seed, **preset.per_count(n))
            for s in preset.schemes
            for n in preset.counts
        ]
        for cfg in configs:
            cfg.validate()
        self.cells = len(configs)
        self.slots = sum(cfg.total_slots for cfg in configs)
        base = preset.base
        self.spec = SimpleNamespace(
            schemes=preset.schemes, counts=preset.counts, sites=base.rrs_count, eval_slots=base.eval_slots,
            subcarriers=base.subcarriers, per_pair_bits=checks.per_pair_bits(base),
            alpha=base.toc_alpha, beta=base.toc_beta,
        )
        os.environ["SMARTRAN_AGENT_SEED"] = str(seed)

    def run_round(self, tag: str) -> Round:
        out = self.out_dir / tag
        shutil.rmtree(out, ignore_errors=True)
        argv = ["figure", "--preset", "rate", "--seeds", "1", "--workers", "1", "--out", str(out)]
        code = self._cli.main(argv)
        if code != 0:
            # the figure writes nothing when a cell fails
            return Round(self.cells, self.cells, self.slots, None)
        texts = tuple((out / f"rate_{kind}.csv").read_text(encoding="utf-8") for kind in ("results", "long"))
        return Round(self.cells, 0, self.slots, texts)

    def check(self, output) -> list[str]:
        return checks.check_figure(*output, self.spec)

    def corruptions(self, output) -> dict:
        results, long = output
        lines = results.splitlines(keepends=True)
        header = lines[0].rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in lines[1:]]

        def with_rows(rows):
            return "".join([lines[0]] + [",".join(r) + "\n" for r in rows]), long

        def edit(scheme, column, fn):
            i = header.index(column)
            out = [list(r) for r in rows]
            for r in out:
                if r[0] == scheme:
                    r[i] = "%.12g" % fn(float(r[i]))
                    break
            return with_rows(out)

        swapped = [list(r) for r in rows]
        first_smart = next(i for i, r in enumerate(swapped) if r[0] == "smart")
        swapped[0][0], swapped[first_smart][0] = swapped[first_smart][0], swapped[0][0]
        return {
            "rate off by 1e-6 relative": edit(checks.BASELINE, "mean_rate", lambda v: v * (1 + 1e-6)),
            "overhead off by one bit": edit("smart", "mean_tau_cnt", lambda v: v + 1.0 / self.spec.eval_slots),
            "swapped scheme rows": with_rows(swapped),
        }

    def same(self, a, b) -> bool:
        return a == b


class Episode:
    """One run_episode per operation."""

    def __init__(self, name: str, cfg):
        from smartran import engine

        cfg.validate()
        self._engine = engine
        self.name = name
        self.cfg = cfg

    def run_round(self, tag: str) -> Round:
        try:
            result = self._engine.run_episode(self.cfg)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            return Round(1, 1, self.cfg.total_slots, None)
        return Round(1, 0, len(result.records), result)

    def check(self, output) -> list[str]:
        return checks.check_records(output, self.cfg)

    def corruptions(self, output) -> dict:
        records = output.records
        mid = len(records) // 2
        r = records[mid]
        tau = list(r.tau_dst_per_rrs)
        tau[0] += 1
        last = records[-1]
        flipped = type(last.executed)("dst" if str(last.executed) == "cnt" else "cnt")
        return {
            "rate off by 1e-6 relative": self._with(output, mid, r_cnt=r.r_cnt * (1 + 1e-6)),
            "per-site overhead off by one bit": self._with(output, mid, tau_dst_per_rrs=tuple(tau)),
            "executed mode flipped": self._with(output, len(records) - 1, executed=flipped),
        }

    @staticmethod
    def _with(result, index: int, **changes):
        records = list(result.records)
        records[index] = replace(records[index], **changes)
        return replace(result, records=records)

    def same(self, a, b) -> bool:
        return a.records == b.records and a.aggregates == b.aggregates


class BaselinePaper(Episode):
    """Adds an independent rebuild of sampled slots' rates."""

    def __init__(self, name: str, cfg, seed: int):
        super().__init__(name, cfg)
        rng = np.random.default_rng(seed)
        self.slots_checked = sorted(int(s) for s in rng.choice(cfg.total_slots, RATE_SAMPLES, replace=False))
        self._reference = None

    def reference_rates(self) -> dict:
        """slot -> (r_cnt, r_dst) from netmodel's draws, the benchmark's
        equal-power rule and its own SINR loops."""
        if self._reference is None:
            from smartran import netmodel

            cfg = self.cfg
            topo = netmodel.generate_topology(cfg, cfg.seed)
            model = netmodel.PathLossModel.from_config(cfg)
            users = netmodel.spawn_users(topo, cfg.n_users, cfg.seed, draw_capacity=cfg.effective_draw_capacity)
            noise = cfg.noise_power_w
            wanted = set(self.slots_checked)
            out = {}
            for slot in range(max(wanted) + 1):
                if slot > 0:
                    users = netmodel.step_traffic(
                        topo, users, cfg.arrival_rate, cfg.departure_prob, cfg.seed, slot,
                        max_users=cfg.effective_max_users,
                    )
                if slot not in wanted:
                    continue
                ch = netmodel.sample_channels(topo, users, model, cfg.seed, slot, draw_capacity=cfg.effective_draw_capacity)
                p, rho = checks.equal_power_grant(users.serving, topo.p_max_w, cfg.subcarriers)
                out[slot] = (
                    checks.loop_rate_centralized(ch.h, p, rho, noise) * cfg.bandwidth_hz,
                    checks.loop_rate_distributed(ch.h, ch.h_large, p, rho, users.serving, topo.p_max_w, noise)
                    * cfg.bandwidth_hz,
                )
            self._reference = out
        return self._reference

    def check(self, output) -> list[str]:
        errors = super().check(output)
        return errors + checks.check_reference_rates(output.records, self.reference_rates())

    def corruptions(self, output) -> dict:
        cases = super().corruptions(output)
        slot = self.slots_checked[0]
        r = output.records[slot]
        cases["sampled-slot rate off by 1e-6 relative"] = self._with(
            output, slot, r_dst=r.r_dst * (1 + 1e-6), toc_dst=r.toc_dst + r.r_dst * 1e-6
        )
        return cases


def build(name: str, seed: int, out_dir: Path):
    """Set-up: import the simulator, build and validate the workload."""
    from smartran import cli

    if name == "figure-rate":
        return FigureRate(seed, out_dir)
    rate = cli.make_preset("rate")
    if name == "sites-8":
        cfg = replace(rate.base, rrs_count=8, subcarriers=4, n_users=16, scheme="smart", seed=seed,
                      **rate.per_count(16))
        return Episode(name, cfg)
    if name == "baseline-paper":
        paper = cli.make_preset("rate", paper_scale=True)
        cfg = replace(paper.base, scheme="equal-power-baseline", n_users=200, train_slots=0,
                      eval_slots=BASELINE_SLOTS, seed=seed, **paper.per_count(200))
        return BaselinePaper(name, cfg, seed)
    raise ValueError(f"unknown workload {name!r}")
