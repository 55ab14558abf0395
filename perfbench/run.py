"""Benchmark of the ksrays reproduction workloads.

Usage:
    python3 perfbench/run.py --workload {tropical,reduce,capacity,colour}
        --seed N --seconds S --trace {0,1}

Runs the workload in a fresh Python process (``worker.py``) and prints,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: from the worker's process start until its built-in
  configurations are ready (import plus ``builtin`` calls);
- ``solve_s``: time spent in calls into ``ksrays`` per round, the
  run's total over its fixed number of rounds; input generation and
  output checks are excluded;
- ``peak_rss_mb``: the worker's peak resident set (``ru_maxrss``).

With ``--trace 1`` they are the per-layer metrics from ``spans.py``:
call counts and self times of one cold run of one round, and a summary
is written to ``perfbench/out/``.  Exits 1 when an output check fails
and 2 when the worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import layer_names  # noqa: E402

WORKLOADS = ("tropical", "reduce", "capacity", "colour")
TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_worker(args) -> tuple[dict, float]:
    """The worker's result and its process start time (monotonic)."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace)]
    # One BLAS thread: with two, the entropy search burns a second core
    # for no gain in wall time and its timings scatter far more.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1]), spawned


def layer_metrics(layers: dict) -> dict:
    values: dict[str, float] = {name: 0.0 for name in layer_names()}
    for key, got in layers.items():
        module = key.split(".")[0]
        values[f"{key}.calls"] = got["calls"]
        values[f"{key}.self_s"] = got["self_s"]
        values[f"{module}.self_s"] += got["self_s"]
    return {
        name: {"value": value, "unit": "count" if name.endswith(".calls") else "s"}
        for name, value in values.items()
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        got, spawned = run_worker(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not got["correct"]:
        print(f"perfbench: check failed: {got['message']}", file=sys.stderr)
        if not got["solve_s"]:
            return 1
    setup_s = got["ready"] - spawned
    solve_s = statistics.fmean(got["solve_s"])
    prepared_mb = got["prepared_kib"] / 1024 if got["prepared_kib"] else None
    if args.trace:
        metrics = layer_metrics(got["layers"])
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        summary = {"workload": args.workload, "seed": args.seed, "rounds": len(got["solve_s"]),
                   "setup_s": setup_s, "solve_s": solve_s, "prepared_mb": prepared_mb,
                   "layers": got["layers"]}
        path = out / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(summary, indent=1) + "\n")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": solve_s, "unit": "s"},
            "peak_rss_mb": {"value": got["maxrss_kib"] / 1024, "unit": "MiB"},
        }
    print(f"perfbench: {args.workload} seed {args.seed}: {len(got['solve_s'])} rounds, "
          f"peak RSS before the first round {prepared_mb or 0:.1f} MiB", file=sys.stderr)
    print(json.dumps({"correct": got["correct"], "attempted": got["attempted"],
                      "failed": got["failed"], "metrics": metrics}))
    return 0 if got["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
