"""Compare two benchmark results files metric by metric.

    python3 perfbench/compare.py .bench_out/OLD.json .bench_out/NEW.json

Prints every metric the two files share with its relative change, and
lists each one that got worse by more than its bound: the bound in
BENCHMARK.json for an end-to-end metric, 10% otherwise.  Metrics with no
preferred direction (counts) are shown but never flagged.  It only
reports: the exit code is 0 whatever the numbers say.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

DEFAULT_BOUND = 0.10


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    old, new = (json.loads(Path(p).read_text()) for p in (args.old, args.new))
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for key in ("workload", "seed", "trace", "nproc", "cpu_model", "python", "numpy"):
        a, b = old["facts"].get(key), new["facts"].get(key)
        print(f"fact {key}: {a}" + ("" if a == b else f" -> {b}"))
    worse = []
    for name in sorted(old["metrics"].keys() & new["metrics"].keys()):
        a, b = old["metrics"][name], new["metrics"][name]
        change = (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
        print(f"{name:32} {a['value']:12.6g} -> {b['value']:12.6g} {a['unit']:6} {change:+8.1%}")
        bound = bounds.get(name, DEFAULT_BOUND)
        if (a["better"] == "lower" and change > bound) or (a["better"] == "higher" and change < -bound):
            worse.append(f"{name} {change:+.1%} (bound {bound:.0%})")
    print(f"failed ops: {len(old['failures'])} -> {len(new['failures'])}")
    print("worse than bound: " + ("none" if not worse else ""))
    for line in worse:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
