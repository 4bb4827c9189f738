"""Cold-process benchmark of motivecount.

    python3 perfbench/run.py --workload punctual --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; the package is imported from
``src/``.  A run spawns cold passes (``cold_pass.py``), one at a time, each a
fresh single-threaded interpreter that runs the workload's operations once
and checks every output, until the next pass would end after ``--seconds``
(at least ``MIN_PASSES`` passes).  Before the passes it spawns
``SETUP_PROBES`` interpreters that only import the package.

``--trace 0`` prints the end-to-end metrics, each the median over the run:
``wall_s`` (one pass's operations), ``setup_s`` (spawn until the package and
its command line are imported; passes and probes), ``peak_rss_mb`` (a pass's
peak resident memory).  ``--trace 1`` wraps each layer's public names from
outside (see ``tracing.py``), prints the per-layer metrics as medians over
the passes and import times from ``python -X importtime`` probes, and lists
the per-cell times on standard error.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PASS = os.path.join(HERE, "cold_pass.py")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 8
IMPORT_PROBES = 5
#: a pass that takes longer than this is stopped and counted as failed
PASS_TIMEOUT_S = 120.0
PYTHON = [sys.executable, "-E", "-s"]


class PassFailed(RuntimeError):
    pass


def spawn(argv: list[str]) -> tuple[float, dict, str]:
    """Run one child interpreter; return (spawn time, its JSON line, stderr)."""
    spawned = time.monotonic()
    proc = subprocess.run(PYTHON + argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise PassFailed(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return spawned, json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def probe_setup() -> float:
    spawned, doc, _ = spawn([PASS, "--probe"])
    return doc["ready"] - spawned


def probe_imports() -> dict[str, float]:
    _, _, stderr = spawn(["-X", "importtime", PASS, "--probe"])
    return tracing.import_times(stderr)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    probe_setup()  # compiles the bytecode caches of a fresh checkout; not counted
    setups = [probe_setup() for _ in range(SETUP_PROBES)]
    imports = [probe_imports() for _ in range(IMPORT_PROBES)] if trace else []
    passes, durations, problems = [], [], []
    attempted = failed = 0
    argv = [PASS, "--workload", workload, "--seed", str(seed)] + (["--trace"] if trace else [])
    start = time.monotonic()
    while True:
        began = time.monotonic()
        try:
            spawned, doc, _ = spawn(argv)
        except (PassFailed, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"pass failed: {exc}", file=sys.stderr)
            return {"correct": False, "attempted": max(attempted, 1), "failed": max(attempted, 1),
                    "metrics": {}}
        durations.append(time.monotonic() - began)
        setups.append(doc["ready"] - spawned)
        passes.append(doc)
        attempted += doc["attempted"]
        failed += doc["failed"]
        problems += doc["problems"]
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed + max(durations) > seconds:
            break
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)

    if trace:
        metrics = {"traced.wall_s": (median(p["wall_s"] for p in passes), "s")}
        for key, value in tracing.median_metrics([p["layers"] for p in passes]).items():
            metrics[key] = (value, _unit(key))
        for key, value in tracing.median_metrics(imports).items():
            metrics[key] = (value, "s")
        _print_details(passes[0])
    else:
        metrics = {
            "wall_s": (median(p["wall_s"] for p in passes), "s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    print(f"{workload}: {len(passes)} passes, {len(setups)} set-ups, "
          f"{time.monotonic() - start:.1f} s; pass wall_s "
          + " ".join(f"{p['wall_s']:.3f}" for p in passes), file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def _print_details(doc: dict) -> None:
    for span, args, secs in doc["details"]:
        print(f"{span}\t{args}\t{secs:.4f} s", file=sys.stderr)
    for name in doc["absent"]:
        print(f"absent: {name}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "motivecount", "__init__.py")):
        print(f"no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
