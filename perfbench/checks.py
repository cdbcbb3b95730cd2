"""Output checks, computed apart from the simulator.

Every check returns a list of human-readable errors; an empty list
means the output passed. The formulas here are the benchmark's own
(the paper's overhead and complexity counts, an explicit SINR loop, the
equal-power rule) and do not call the simulator's metric or allocator
code. Only the environment is rebuilt with ``smartran.netmodel``'s
public functions, because the channel draws are the simulator's input.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Pinned CSV schemas of `smartran figure`.
RESULT_HEADER = (
    "scheme,learner,user_count,seed,mean_rate,mean_tau_cnt,mean_max_tau_dst,"
    "mean_gamma_cnt,mean_max_gamma_dst,mean_toc"
)
LONG_HEADER = "scheme,learner,user_count,metric,mean,stderr"
LONG_METRICS = (
    "mean_rate", "mean_rate_cnt", "mean_rate_dst", "mean_toc", "mean_toc_cnt",
    "mean_toc_dst", "mean_tau_cnt", "mean_max_tau_dst", "mean_gamma_cnt",
    "mean_max_gamma_dst", "frac_cnt",
)
ENV_COLUMNS = ("mean_tau_cnt", "mean_max_tau_dst", "mean_gamma_cnt", "mean_max_gamma_dst")
BASELINE = "equal-power-baseline"

RATE_RTOL = 1e-9
# %.12g keeps 12 significant digits; identities over printed values get this slack
PRINT_RTOL = 1e-11


def _close(got: float, want: float, scale: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(scale), 1e-300)


# ---------------------------------------------------------------------------
# Paper formulas


def per_pair_bits(cfg) -> int:
    return int(cfg.bits_power) + int(cfg.bits_csi) + int(cfg.bits_subcarrier)


def site_overhead(cfg, n_users: int) -> int:
    """(power + CSI + subcarrier bits) * |U_b| * |K_b|."""
    return per_pair_bits(cfg) * n_users * cfg.subcarriers


def training_complexity(cfg, pairs: int) -> int:
    """E * M * sum of consecutive layer products for the chain
    pairs -> hidden... -> 2 * pairs (at least one pair)."""
    pairs = max(pairs, 1)
    chain = [pairs, *cfg.hidden_sizes, 2 * pairs]
    episodes = cfg.complexity_episodes if cfg.complexity_episodes > 0 else cfg.train_slots
    return episodes * cfg.batch_size * sum(a * b for a, b in zip(chain, chain[1:]))


# ---------------------------------------------------------------------------
# figure --preset rate


def _parse(text: str, header: str, name: str, errors: list[str]) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        errors.append(f"{name}: header {lines[0] if lines else ''!r} != pinned {header!r}")
        return []
    return list(csv.DictReader(io.StringIO(text)))


def check_figure(results_text: str, long_text: str, spec) -> list[str]:
    """Checks on `figure --preset rate --seeds 1` output. spec carries
    schemes, counts, sites, eval_slots, subcarriers, per_pair_bits,
    alpha and beta."""
    errors: list[str] = []
    rows = _parse(results_text, RESULT_HEADER, "results", errors)
    long = _parse(long_text, LONG_HEADER, "long", errors)
    if errors:
        return errors

    want_keys = sorted((s, "sac", n, 0) for s in spec.schemes for n in spec.counts)
    got_keys = [(r["scheme"], r["learner"], int(r["user_count"]), int(r["seed"])) for r in rows]
    if got_keys != want_keys:
        errors.append(f"results rows {got_keys} != expected cells in order {want_keys}")
        return errors
    cell = {(r["scheme"], int(r["user_count"])): r for r in rows}
    val = {k: {c: float(v) for c, v in r.items() if c.startswith("mean_")} for k, r in cell.items()}

    want_long = sorted((s, "sac", n) for s in spec.schemes for n in spec.counts)
    got_long = [(r["scheme"], r["learner"], int(r["user_count"])) for r in long[:: len(LONG_METRICS)]]
    metrics_ok = all(
        r["metric"] == LONG_METRICS[i % len(LONG_METRICS)] for i, r in enumerate(long)
    )
    if got_long != want_long or not metrics_ok or len(long) != len(want_long) * len(LONG_METRICS):
        errors.append("long rows do not cover every cell with the pinned metric list in order")
        return errors
    lval = {(r["scheme"], int(r["user_count"]), r["metric"]): r for r in long}

    for n in spec.counts:
        smart, base = cell[("smart", n)], cell[(BASELINE, n)]
        for col in ENV_COLUMNS:
            if smart[col] != base[col]:
                errors.append(f"n={n}: {col} differs between schemes ({smart[col]} vs {base[col]})")
        for scheme in spec.schemes:
            v = val[(scheme, n)]
            tau, max_tau = v["mean_tau_cnt"], v["mean_max_tau_dst"]
            # the pool's overhead is the sum over sites, so between the max and sites * max
            if not (max_tau * (1 - PRINT_RTOL) <= tau <= spec.sites * max_tau * (1 + PRINT_RTOL)):
                errors.append(f"{scheme} n={n}: mean_tau_cnt {tau} outside [max_dst, sites * max_dst]")
            user_slots = tau * spec.eval_slots / (spec.per_pair_bits * spec.subcarriers)
            if abs(user_slots - round(user_slots)) > 1e-6:
                errors.append(f"{scheme} n={n}: mean_tau_cnt implies {user_slots} user-slots")
            for metric, text in cell[(scheme, n)].items():
                if metric.startswith("mean_"):
                    entry = lval[(scheme, n, metric)]
                    if entry["mean"] != text or float(entry["stderr"]) != 0.0:
                        errors.append(f"{scheme} n={n}: long {metric} {entry['mean']} != results {text}")
        b = val[(BASELINE, n)]
        toc = b["mean_rate"] - spec.beta * b["mean_tau_cnt"] - spec.alpha * b["mean_gamma_cnt"]
        scale = abs(b["mean_rate"]) + spec.beta * b["mean_tau_cnt"] + spec.alpha * b["mean_gamma_cnt"]
        if not _close(b["mean_toc"], toc, scale, PRINT_RTOL):
            errors.append(f"baseline n={n}: mean_toc {b['mean_toc']} != rate - beta tau - alpha gamma = {toc}")
        if float(lval[(BASELINE, n, "frac_cnt")]["mean"]) != 1.0:
            errors.append(f"baseline n={n}: frac_cnt is not 1")
        for executed, cnt in (("mean_rate", "mean_rate_cnt"), ("mean_toc", "mean_toc_cnt")):
            if lval[(BASELINE, n, executed)]["mean"] != lval[(BASELINE, n, cnt)]["mean"]:
                errors.append(f"baseline n={n}: {executed} != {cnt} although only CNT executes")
    return errors


# ---------------------------------------------------------------------------
# One episode, from RunResult.records


def check_records(result, cfg) -> list[str]:
    """Overhead, complexity, population cap, TOC and aggregates of one
    episode, recomputed from each record's per-site user counts."""
    errors: list[str] = []
    records = result.records
    if len(records) != cfg.train_slots + cfg.eval_slots:
        return [f"{len(records)} records for {cfg.train_slots + cfg.eval_slots} slots"]
    cap = cfg.max_users if cfg.max_users > 0 else None
    for r in records:
        counts = list(r.user_counts)
        if len(counts) != cfg.rrs_count or min(counts) < 0:
            errors.append(f"slot {r.slot}: user counts {counts} for {cfg.rrs_count} sites")
            continue
        if cap is not None and sum(counts) > cap:
            errors.append(f"slot {r.slot}: {sum(counts)} users exceed max_users {cap}")
        tau = [site_overhead(cfg, n) for n in counts]
        if list(r.tau_dst_per_rrs) != tau or r.tau_cnt != sum(tau):
            errors.append(f"slot {r.slot}: overheads {r.tau_dst_per_rrs}/{r.tau_cnt} != {tau}/{sum(tau)}")
        gamma = [training_complexity(cfg, n * cfg.subcarriers) for n in counts]
        gamma_cnt = training_complexity(cfg, sum(counts) * cfg.subcarriers * cfg.rrs_count)
        if list(r.gamma_dst_per_rrs) != gamma or r.gamma_cnt != gamma_cnt:
            errors.append(f"slot {r.slot}: complexities differ from E*M*chain")
        for name, stored, rate, t, g in (
            ("toc_cnt", r.toc_cnt, r.r_cnt, r.tau_cnt, r.gamma_cnt),
            ("toc_dst", r.toc_dst, r.r_dst, max(r.tau_dst_per_rrs), max(r.gamma_dst_per_rrs)),
        ):
            want = rate - cfg.toc_beta * t - cfg.toc_alpha * g
            scale = abs(rate) + cfg.toc_beta * t + cfg.toc_alpha * g
            if not _close(stored, want, scale, RATE_RTOL):
                errors.append(f"slot {r.slot}: {name} {stored!r} != {want!r}")
        if cfg.scheme == BASELINE and str(r.executed) != "cnt":
            errors.append(f"slot {r.slot}: the baseline executed {r.executed}")
        if len(errors) > 20:
            break

    window = records[result.eval_start:]
    cnt = [str(r.executed) == "cnt" for r in window]
    if not window:
        return errors + ["empty evaluation window"]
    per_slot = {
        "mean_rate_cnt": [r.r_cnt for r in window],
        "mean_rate_dst": [r.r_dst for r in window],
        "mean_rate": [r.r_cnt if c else r.r_dst for r, c in zip(window, cnt)],
        "mean_toc": [r.toc_cnt if c else r.toc_dst for r, c in zip(window, cnt)],
        "mean_toc_cnt": [r.toc_cnt for r in window],
        "mean_toc_dst": [r.toc_dst for r in window],
        "mean_tau_cnt": [r.tau_cnt for r in window],
        "mean_max_tau_dst": [max(r.tau_dst_per_rrs) for r in window],
        "mean_gamma_cnt": [r.gamma_cnt for r in window],
        "mean_max_gamma_dst": [max(r.gamma_dst_per_rrs) for r in window],
        "frac_cnt": [1.0 if c else 0.0 for c in cnt],
    }
    agg = result.aggregates
    if agg.slots != len(window):
        errors.append(f"aggregates over {agg.slots} slots, window has {len(window)}")
    for name, values in per_slot.items():
        got = getattr(agg, name)
        want = math.fsum(values) / len(values)
        scale = math.fsum(abs(v) for v in values) / len(values)
        if not _close(got, want, scale, RATE_RTOL) and got != want:
            errors.append(f"aggregate {name} {got!r} != {want!r} recomputed from records")
    return errors


# ---------------------------------------------------------------------------
# Rates, recomputed with an explicit loop


def equal_power_grant(serving: np.ndarray, p_max: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin: at site b, subcarrier j goes to the (j mod n_b)-th of
    its users in row order, each at p_max_b / K, so a site with users
    spends exactly p_max_b."""
    b_count, u = len(p_max), len(serving)
    p = np.zeros((b_count, u, k))
    rho = np.zeros((b_count, u, k), dtype=np.int8)
    for b in range(b_count):
        rows = [i for i in range(u) if serving[i] == b]
        for j in range(k):
            if rows:
                owner = rows[j % len(rows)]
                rho[b, owner, j] = 1
                p[b, owner, j] = p_max[b] / k
    return p, rho


def loop_rate_centralized(h: np.ndarray, p: np.ndarray, rho: np.ndarray, noise: float) -> float:
    """Sum of log2(1 + SINR) over granted links; interference at (b, u, j)
    is every other site's power on j to users other than u, through u's
    gain to that site."""
    b_count, _, k = h.shape
    granted = p * rho
    total = 0.0
    for b in range(b_count):
        for j in range(k):
            for u in np.flatnonzero(rho[b, :, j]):
                interference = 0.0
                for other in range(b_count):
                    if other != b:
                        power = float(granted[other, :, j].sum()) - float(granted[other, u, j])
                        interference += float(h[other, u, j]) * power
                total += math.log2(1.0 + float(h[b, u, j]) * float(granted[b, u, j]) / (noise + interference))
    return total


def loop_rate_distributed(
    h: np.ndarray, h_large: np.ndarray, p: np.ndarray, rho: np.ndarray,
    serving: np.ndarray, p_max: np.ndarray, noise: float,
) -> float:
    """Planning model: a user's interference is p_max_b' / K from every
    other site b' that has users, through the large-scale gain only."""
    b_count, _, k = h.shape
    loaded = [bool(np.any(serving == b)) for b in range(b_count)]
    total = 0.0
    for b in range(b_count):
        for j in range(k):
            for u in np.flatnonzero(rho[b, :, j]):
                interference = sum(
                    float(h_large[o, u]) * float(p_max[o]) / k
                    for o in range(b_count)
                    if o != int(serving[u]) and loaded[o]
                )
                total += math.log2(1.0 + float(h[b, u, j]) * float(p[b, u, j]) / (noise + interference))
    return total


def shannon_bound(h: np.ndarray, p: np.ndarray, rho: np.ndarray, noise: float) -> float:
    """Interference-free sum rate of the same grant."""
    return float(np.log2(1.0 + h * p * rho / noise).sum())


def allocation_errors(p: np.ndarray, rho: np.ndarray, serving: np.ndarray, p_max: np.ndarray) -> list[str]:
    """Feasibility of a (B, U, K) grant: 0/1 assignment, one user per
    subcarrier per loaded site, only the site's own users, power only on
    granted pairs, and exactly p_max at every site that has users."""
    errors = []
    if p.shape != rho.shape or p.shape[1] != len(serving):
        return [f"grant shapes {p.shape}/{rho.shape} for {len(serving)} users"]
    if not np.all((rho == 0) | (rho == 1)):
        errors.append("assignment is not 0/1")
    if np.any(p < 0) or np.any(p[rho == 0] != 0):
        errors.append("power on an ungranted pair or negative power")
    for b in range(p.shape[0]):
        own = serving == b
        if np.any(rho[b][~own]):
            errors.append(f"site {b} grants a user it does not serve")
        if own.any():
            if not np.all(rho[b].sum(axis=0) == 1):
                errors.append(f"site {b}: a subcarrier without exactly one user")
            if not _close(float(p[b].sum()), float(p_max[b]), float(p_max[b]), RATE_RTOL):
                errors.append(f"site {b}: power {float(p[b].sum())!r} != p_max {float(p_max[b])!r}")
        elif np.any(rho[b]) or np.any(p[b]):
            errors.append(f"site {b} has no users but transmits")
    return errors


def rate_sample_errors(sample) -> list[str]:
    """Compare one captured rate-kernel call with the loop and the bound."""
    a = sample
    errors = allocation_errors(a.p, a.rho, a.serving, a.p_max)
    if a.kind == "cnt":
        want = loop_rate_centralized(a.h, a.p, a.rho, a.noise)
    else:
        want = loop_rate_distributed(a.h, a.h_large, a.p, a.rho, a.serving, a.p_max, a.noise)
    if not _close(a.rate, want, want, RATE_RTOL):
        errors.append(f"slot {a.slot} {a.kind}: kernel rate {a.rate!r} != loop {want!r}")
    bound = shannon_bound(a.h, a.p, a.rho, a.noise)
    if a.rate > bound * (1 + RATE_RTOL):
        errors.append(f"slot {a.slot} {a.kind}: rate {a.rate!r} above the interference-free bound {bound!r}")
    return errors


def check_reference_rates(records, reference: dict) -> list[str]:
    """reference maps slot -> (r_cnt, r_dst) in bit/s."""
    errors = []
    for slot, (r_cnt, r_dst) in reference.items():
        rec = records[slot]
        for name, got, want in (("r_cnt", rec.r_cnt, r_cnt), ("r_dst", rec.r_dst, r_dst)):
            if not _close(got, want, want, RATE_RTOL):
                errors.append(f"slot {slot}: {name} {got!r} != independent {want!r}")
    return errors
