"""Steadiness recipe: repeat every workload over seeds, report quartiles.

Usage:
    python3 perfbench/steady.py [--workloads tropical,reduce,...]
        [--seeds 1-10] [--seconds S] [--traced]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

Runs ``run.py`` once per workload and seed, one run at a time, and
prints for each end-to-end metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) /
median, next to the metric's bound in ``BENCHMARK.json``.  With
``--traced`` each seed also gets a traced run; the table then shows the
traced ``solve_s`` median, the tracing overhead against the untraced
median, and the median self time of every layer.  Results are written
to ``perfbench/out/steady-<time>.json``.

``--compare`` reads two such reports, made one after the other on the
same code, and prints for every workload and metric how far the second
median lies from the first, as a share of the first, against the
metric's bound, and whether the failed shares are the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        dump = json.loads((HERE / "out" / f"trace-{workload}-{seed}.json").read_text())
        got["traced_solve_s"] = dump["solve_s"]
    return got


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(first: Path, second: Path, bounds: dict[str, float]) -> int:
    """Median shifts between two reports; 1 if any exceeds its bound."""
    a, b = (json.loads(Path(f).read_text())["workloads"] for f in (first, second))
    worst = 0
    for workload in [w for w in a if w in b]:
        same = a[workload]["failed_shares"] == b[workload]["failed_shares"]
        print(f"{workload}: failed shares {'equal' if same else 'DIFFER'}")
        worst |= not same
        for name, bound in bounds.items():
            m1, m2 = a[workload]["metrics"][name]["median"], b[workload]["metrics"][name]["median"]
            shift = m2 / m1 - 1
            ok = abs(shift) <= bound
            worst |= not ok
            print(f"  {name:12s} {m1:.4f} -> {m2:.4f}  shift {shift:+.3f}  bound {bound}"
                  f"{'' if ok else '  OUT OF BOUND'}")
    return int(worst)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--traced", action="store_true")
    p.add_argument("--compare", nargs=2, metavar="REPORT")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.compare:
        return compare(*args.compare, bounds)

    report = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            got = run_once(workload, seed, args.seconds, 0)
            if args.traced:
                traced = run_once(workload, seed, args.seconds, 1)
                got["traced_solve_s"] = traced["traced_solve_s"]
                got["layers"] = traced["metrics"]
            runs.append(got)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in got["metrics"].items()),
                  file=sys.stderr, flush=True)
        rows = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": bounds[name]}
        shares = {r["failed"] / r["attempted"] for r in runs}
        entry = {"metrics": rows, "failed_shares": sorted(shares),
                 "correct": all(r["correct"] for r in runs), "runs": runs}
        print(f"\n{workload}: correct={entry['correct']} failed shares={sorted(shares)}")
        for name, row in rows.items():
            print(f"  {name:12s} median {row['median']:.4f}  Q1 {row['q1']:.4f}  "
                  f"Q3 {row['q3']:.4f}  spread {row['spread']:.3f}  bound {row['bound']}")
        if args.traced:
            traced = statistics.median(r["traced_solve_s"] for r in runs)
            entry["traced_solve_s"] = traced
            entry["overhead"] = traced / rows["solve_s"]["median"] - 1
            print(f"  traced solve_s median {traced:.4f}  overhead {entry['overhead']:+.1%}")
            layers = [k for k in runs[0]["layers"] if k.endswith("self_s")]
            for k in layers:
                med = statistics.median(r["layers"][k]["value"] for r in runs)
                if med:
                    print(f"    {k:52s} {med:.4f} s")
        report["workloads"][workload] = entry

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwritten {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
