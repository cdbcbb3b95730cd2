"""Workload process started by run.py: set up, measure, check, trace.

    PYTHONPATH=src python3 perfbench/measure.py --workload sites-8 --seed 1 --seconds 20 --trace 0

Set-up ends once the simulator is imported and the workload's configs
are built and validated; the monotonic time of that instant goes to
run.py, which started the clock before this process. Then whole rounds
of the workload run, untraced, for about --seconds: at least one round,
and another only while one more of the last round's length fits. The
run reports the median round's slot rate. Every round must reproduce
the first one exactly, the first round's output must pass the
workload's checks, and each deliberately corrupted copy of it must
fail them.

With --trace 1 one more round runs with every layer in layers.py
wrapped. Its output must equal the untraced one; every grant reaching a
rate kernel is checked for feasibility and sampled slots' rates are
recomputed. The spans go to perfbench/out/<workload>.spans.csv.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# every n-th slot's rates are recomputed by the loop in the traced round
SAMPLE_EVERY = 50


def parse_args():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args()


def output_errors(workload, output) -> list[str]:
    errors = workload.check(output)
    for label, corrupted in workload.corruptions(output).items():
        if not workload.check(corrupted):
            errors.append(f"self-test: the checks accepted '{label}'")
    return errors


def traced_round(workload, untraced_output, untraced_wall: float) -> tuple[dict, list[str]]:
    import layers
    from tracing import Tracer

    tracer, audit = Tracer(), layers.Audit(SAMPLE_EVERY)
    layers.instrument(tracer, audit)
    try:
        t0 = time.perf_counter()
        rnd = workload.run_round("traced")
        wall = time.perf_counter() - t0 - tracer.untimed_s
    finally:
        tracer.restore()

    errors = list(audit.errors)
    if rnd.failed or not workload.same(rnd.output, untraced_output):
        errors.append("the traced round's output differs from the untraced round's")
    if audit.grants_checked == 0 or not audit.samples:
        errors.append("no grant reached a rate kernel in the traced round")
    errors += audit.self_test()
    totals = tracer.totals()
    if "learning.sac_update.other" in totals:
        errors.append("sac_update ran for an agent of no known role")

    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"{workload.name}.spans.csv", t0)
    summary = {name: {"calls": c, "busy_s": b, "self_s": s} for name, (c, b, s) in sorted(totals.items())}
    (OUT / f"{workload.name}.layers.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    metrics = layers.per_layer_metrics(tracer, audit)
    metrics["trace.overhead_pct"] = {"value": 100.0 * (wall / untraced_wall - 1.0), "unit": "%"}
    return metrics, errors


def main() -> int:
    args = parse_args()
    import smartran

    src = (ROOT / "src").resolve()
    if src not in Path(smartran.__file__).resolve().parents:
        print(f"measure: imported smartran from {smartran.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.build(args.workload, args.seed, OUT / args.workload)
    ready = time.monotonic()

    walls, slot_rates, good_walls = [], [], []
    attempted = failed = 0
    first = None
    errors = []
    start = time.perf_counter()
    # another round only if one more of the last round's length still fits
    while not walls or time.perf_counter() - start + walls[-1] <= args.seconds:
        t0 = time.perf_counter()
        rnd = workload.run_round("untraced")
        wall = time.perf_counter() - t0
        walls.append(wall)
        slot_rates.append(rnd.slots / wall)
        attempted += rnd.attempted
        failed += rnd.failed
        if rnd.output is not None:
            good_walls.append(wall)
            if first is None:
                first = rnd.output
            elif not workload.same(rnd.output, first):
                errors.append("rounds with the same inputs gave different outputs")
        # keep only the first output, so memory does not grow with the round count
        del rnd
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if first is not None:
        errors += output_errors(workload, first)

    if args.trace == 0:
        metrics = {
            "slots_per_s": {
                "value": statistics.median(slot_rates),
                "unit": "slot/s",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    elif first is not None:
        metrics, trace_errors = traced_round(workload, first, statistics.median(good_walls))
        errors += trace_errors
    else:
        metrics = {}
        errors.append("no untraced round succeeded, so there is nothing to trace against")

    for line in errors[:40]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "ready_monotonic": ready,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
