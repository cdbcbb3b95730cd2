"""Benchmark entry point: run one workload in a fresh process, print its result.

    python3 perfbench/run.py --workload figure-rate --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout of the repository; it imports the
simulator from ``src/`` next to this directory. The workload runs in a
child interpreter (``measure.py``) so that set-up time counts from that
process's start and peak memory is the workload's own. The child gets
no ``SMARTRAN_*`` variables from the caller's environment: the inputs
come from ``--seed`` alone.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones (see README.md). The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("figure-rate", "sites-8", "baseline-paper")
# The whole run must end within 180 s; leave room for this process.
CHILD_TIMEOUT_S = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "smartran" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'smartran'} not found; run from a checkout", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("SMARTRAN_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # numpy asks for transparent huge pages on large arrays; whether the
    # host grants them varies from run to run and moved peak RSS by 4.5 MB
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    started = time.monotonic()
    try:
        # stderr passes straight through; run() kills and reaps the child on timeout
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload did not finish within {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 3

    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        child = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        child = None
    if not isinstance(child, dict):
        print(lines[-1] if lines else "", file=sys.stderr)
        print(f"perfbench: workload exited with code {proc.returncode} and no result", file=sys.stderr)
        return proc.returncode or 1

    metrics = child["metrics"]
    if args.trace == 0:
        # measure.py reports the monotonic instant its set-up finished;
        # CLOCK_MONOTONIC is shared by both processes
        setup_s = child["ready_monotonic"] - started
        metrics = {
            "slots_per_s": metrics["slots_per_s"],
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": metrics["peak_rss_mb"],
        }
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if child["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
