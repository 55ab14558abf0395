"""One workload in one fresh process; started by ``run.py``.

Usage: worker.py WORKLOAD SEED SECONDS TRACE

Imports ``ksrays`` from the checkout's ``src``, builds the workload's
built-in configurations, prepares the oracle data, then runs a fixed
number of whole rounds: SECONDS over the workload's nominal round time
``ROUND_S``, at least one.  The count depends on SECONDS only, never on
how fast the rounds go, so a seed fixes the whole body of work.  The
last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    sys.path.insert(0, str(SRC))
    import ksrays

    if not Path(ksrays.__file__).resolve().is_relative_to(SRC):
        print(f"ksrays imported from {ksrays.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.active = True
    workload = workloads.WORKLOADS[name]()
    workload.setup()
    ready = time.monotonic()
    if tracer is not None:
        tracer.active = False
        setup_calls, setup_self = tracer.snapshot()

    correct, message = True, ""
    solve, attempted, failed = [], 0, 0
    prepared_kib = None
    try:
        workload.prepare(random.Random(seed))
        prepared_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for k in range(max(1, round(seconds / workload.ROUND_S))):
            run = workloads.Round(tracer)
            try:
                workload.round(k, random.Random(seed * 1_000_003 + k), run)
            finally:
                attempted += run.attempted
                failed += run.failed
                solve.append(run.solve_s)
    except workloads.CheckFailed as exc:
        correct, message = False, str(exc)

    result = {
        "ready": ready,
        "solve_s": solve,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "message": message,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        # Diagnostic: the high-water mark before the first round, which
        # holds set-up and the oracle data of ``prepare``.
        "prepared_kib": prepared_kib,
    }
    if tracer is not None:
        calls, self_s = tracer.snapshot()
        rounds = max(len(solve), 1)
        # A cold run of one round: all of set-up plus a mean round.
        result["layers"] = {
            key: {
                "calls": setup_calls.get(key, 0) + (calls[key] - setup_calls.get(key, 0)) / rounds,
                "self_s": setup_self.get(key, 0.0) + (self_s[key] - setup_self.get(key, 0.0)) / rounds,
            }
            for key in calls
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
