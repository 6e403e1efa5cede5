"""Compare benchmark runs of two commits, or report the spread of one.

    python3 perfbench/compare.py BASE_RUNS [NEW_RUNS]

Each argument is a directory of run records written by run.py (its
.bench_out/runs/), holding `--trace 0` runs of one commit on several seeds.
Runs of the two commits are paired by workload and seed.

With one directory, prints per workload and end-to-end metric the median,
the quartiles and the spread (interquartile distance over the median) next
to the metric's bound from BENCHMARK.json.

With two, prints one row per workload and end-to-end metric with both
medians and quartiles, the pairwise wins of the new commit and a verdict:

  better      the new commit wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the base's
              interquartile distance
  worse       the new median is worse than the base median by more than the
              metric's bound
  unresolved  the base's spread is wider than the bound, unless every new run
              reads better than every base run
  unchanged   otherwise
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        runs[rec["workload"], rec["seed"]] = {k: v["value"] for k, v in rec["metrics"].items()}
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], pairs: list, metric: dict) -> tuple[int, str]:
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    gain = sign * (nmed - bmed)
    if pairs and wins >= 0.9 * len(pairs) and gain > b3 - b1:
        return wins, "better"
    if -gain > metric["bound"] * abs(bmed):
        return wins, "worse"
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if (b3 - b1) > metric["bound"] * abs(bmed) and not all_better:
        return wins, "unresolved"
    return wins, "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base = load(argv[0])
    new = load(argv[1]) if len(argv) == 2 else None
    workloads = sorted({w for w, _ in base})
    for w in workloads:
        seeds = sorted(s for ww, s in base if ww == w)
        for m in metrics:
            name = m["name"]
            bv = [base[w, s][name] for s in seeds]
            q1, med, q3 = quartiles(bv)
            if new is None:
                spread = (q3 - q1) / med
                print(
                    f"{w:12s} {name:12s} n={len(bv):<3d} median {med:12.6g}"
                    f"  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f}"
                    f"  bound {m['bound']:.2f}  spread/bound {spread / m['bound']:.2f}"
                )
                continue
            nseeds = sorted(s for ww, s in new if ww == w)
            nv = [new[w, s][name] for s in nseeds]
            pairs = [(base[w, s][name], new[w, s][name]) for s in seeds if (w, s) in new]
            wins, v = verdict(bv, nv, pairs, m)
            n1, nmed, n3 = quartiles(nv)
            print(
                f"{w:12s} {name:12s} base {med:11.5g} [{q1:.5g}, {q3:.5g}]"
                f"  new {nmed:11.5g} [{n1:.5g}, {n3:.5g}]"
                f"  wins {wins}/{len(pairs)}  {v}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
