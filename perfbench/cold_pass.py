"""One cold pass: a fresh interpreter imports the package, runs one
workload's operations once, checks every output, and prints one JSON line.

    python3 -E -s perfbench/cold_pass.py --workload classes --seed 1 [--trace]
    python3 -E -s perfbench/cold_pass.py --probe

``ready`` is ``time.monotonic()`` just after ``motivecount`` and
``motivecount.cli`` are imported; the parent, which noted the same clock
before spawning, takes the difference as the set-up time.  ``--probe`` stops
there.  Expected answers are computed after ``ready`` and before the timed
region; ``wall_s`` covers running the operations and comparing outputs.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import motivecount  # noqa: E402
import motivecount.cli  # noqa: E402,F401

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    source = os.path.join(ROOT, "src", "motivecount", "")
    if not os.path.abspath(motivecount.__file__).startswith(source):
        print(f"motivecount imported from {motivecount.__file__}, not {source}", file=sys.stderr)
        return 3
    if args.probe:
        print(json.dumps({"ready": READY}))
        return 0

    import tracing
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer().install() if args.trace else None
    failed = 0
    problems = []
    start = time.perf_counter()
    for op in ops:
        try:
            output = op.run()
        except Exception as exc:  # a crashing operation is counted, not fatal
            failed += 1
            problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        problems += op.check(output)
    wall = time.perf_counter() - start
    doc = {
        "ready": READY,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
    }
    if tracer is not None:
        doc["layers"] = tracer.metrics()
        doc["absent"] = tracer.absent
        doc["details"] = tracer.details
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
