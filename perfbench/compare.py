"""Compare two sets of benchmark results.

Each file holds result lines as ``run.py`` prints them (one JSON object per
line, other lines ignored), for one workload, e.g.

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload punctual --seed $s --seconds 30 --trace 0 \\
        | tail -n 1 >> perfbench/results/before.jsonl
    done
    python3 perfbench/compare.py perfbench/results/before.jsonl perfbench/results/after.jsonl

For every metric it prints each side's median and quartile spread (as a
share of the median), the change of the median, and, for end-to-end
metrics, whether that change stays within the bound in ``BENCHMARK.json``.
Exit status 1 when a bound is exceeded or the failed shares differ.
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list[dict]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("{"):
                doc = json.loads(line)
                if "metrics" in doc:
                    out.append(doc)
    if not out:
        raise SystemExit(f"{path}: no result lines")
    return out


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}

    ok = True
    shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in (before, after)]
    print(f"runs: {len(before)} vs {len(after)}; failed share {shares[0]:.6f} vs {shares[1]:.6f}")
    if shares[0] != shares[1]:
        ok = False
    if not all(r["correct"] for r in before + after):
        print("some run reported correct = false")
        ok = False
    print(f"{'metric':40} {'before':>12} {'spread':>7} {'after':>12} {'spread':>7} {'change':>8}")
    names = [n for n in before[0]["metrics"] if all(n in r["metrics"] for r in before + after)]
    for name in names:
        a = [r["metrics"][name]["value"] for r in before]
        b = [r["metrics"][name]["value"] for r in after]
        ma, mb = median(a), median(b)
        change = (mb - ma) / ma if ma else 0.0
        verdict = ""
        if name in bounds:
            bound, direction = bounds[name]
            worse = change if direction == "lower" else -change
            if max(spread(a), spread(b)) > bound:
                verdict = "unresolved (spread over bound)"
            elif worse > bound:
                verdict = f"WORSE than bound {bound}"
                ok = False
            else:
                verdict = f"within bound {bound}"
        elif name in better:
            verdict = f"({better[name]} is better)"
        print(f"{name:40} {ma:12.6g} {spread(a):7.1%} {mb:12.6g} {spread(b):7.1%} {change:+8.1%} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
