"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the <workload>.jsonl files that `run.py --out DIR`
appends to, from untraced runs of one commit; both commits run the same
seeds.  For every workload and end-to-end metric in BENCHMARK.json the
script prints both sides' median and quartiles and a verdict:

  better      the change wins at least 9 of 10 runs paired by seed (ties
              count for neither side) and the medians differ by more than
              the parent's quartile spread; or every change run beats
              every parent run
  unresolved  the parent's quartile spread is wider than the metric's bound
  worse       the change's median is worse than the parent's by more than
              the bound
  unchanged   otherwise
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{workload: {seed: {metric: value}}} from untraced runs."""
    runs = {}
    for path in sorted(directory.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            meta = record.get("meta", {})
            if meta.get("trace") != 0:
                continue
            values = {k: m["value"] for k, m in record["result"]["metrics"].items()}
            runs.setdefault(meta["workload"], {})[meta["seed"]] = values
    return runs


def verdict(parent, change, better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (p_med,) * 3
    spread = q3 - q1
    pairs = list(zip(parent, change))
    wins = sum((c - p) * sign > 0 for p, c in pairs)
    gap = (c_med - p_med) * sign
    if (wins >= 0.9 * len(pairs) and gap > spread) or \
            min(v * sign for v in change) > max(v * sign for v in parent):
        return "better"
    if spread > bound * abs(p_med):
        return "unresolved"
    if -gap > bound * abs(p_med):
        return "worse"
    return "unchanged"


def summary(values) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return f"{med:12.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load(Path(a)) for a in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"{'workload':18} {'metric':16} {'n':>3} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34}  verdict")
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            print(f"{workload}: no seed was run on both commits", file=sys.stderr)
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[workload][s][name] for s in seeds]
            c = [change[workload][s][name] for s in seeds]
            print(f"{workload:18} {name:16} {len(seeds):3} {summary(p):>34} {summary(c):>34}  "
                  f"{verdict(p, c, metric['better'], metric['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
