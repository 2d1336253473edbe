"""Benchmark of the dynmatch simulator.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It imports ``dynmatch`` from ``src/`` next
to this directory and from nowhere else, and exits with code 2 without a
result when that source tree is missing.

``--workload`` is one of paper-grid, large-pool, verify-suite,
sweep-parallel (see workloads.py and README.md), or ``all`` to run the four
in turn in this one process.  Passes of the workload repeat while the next
one is predicted to end within ``--seconds`` (at least one), and every
timing is a median over passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, then re-runs the traced pass's engine calls
with their outputs kept to rebuild exact counts and replay the core layers,
and reports the per-layer metrics and the tracing overhead.

Output: one ``metric``/``fact``/``fail`` line per item, a results file in
``.bench_out/`` (compare two with compare.py) and, last, one JSON line with
the metrics named in BENCHMARK.json.  Exit code 0 when every checked op
passed, 1 when some failed, 2 when the benchmark could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("core", "engine", "analytics", "oracles", "cli")
SETUP_REPEATS = 15

# name -> (unit, better); better is None where no direction is preferred.
METRICS = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "agents_per_s": ("1/s", "higher"),
    "run_s.p50": ("s", "lower"),
    "run_s.p90": ("s", "lower"),
    "cells_per_s.jobs1": ("1/s", "higher"),
    "cells_per_s.jobs2": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "core.seed_streams_us": ("us", "lower"),
    "core.query_block_s": ("s", "lower"),
    "core.compat_draws": ("count", "lower"),
    "core.sample_s": ("s", "lower"),
    "engine.run_s": ("s", "lower"),
    "engine.residual_s": ("s", "lower"),
    "engine.arrivals": ("count", None),
    "engine.events": ("count", "lower"),
    "engine.stale_events": ("count", "lower"),
    "engine.peak_pool": ("count", "lower"),
    "engine.peak_alloc_mb": ("MB", "lower"),
    "engine.run_coupled_s": ("s", "lower"),
    "engine.instrument_s": ("s", "lower"),
    "oracles.ruin_mc_s": ("s", "lower"),
    "oracles.dominance_check_s": ("s", "lower"),
    "cli.analyze_s": ("s", "lower"),
    "cli.summarize_s": ("s", "lower"),
    "cli.csv_s": ("s", "lower"),
    "cli.pool_overhead_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
}
for _check in ("coupling", "ruin", "urn", "dominance", "identities", "timechange"):
    METRICS[f"cli.verify.{_check}_s"] = ("s", "lower")
for _m in ("m1e3", "m1e4", "m1e5", "m1e6"):
    METRICS[f"analytics.stationary_s.{_m}"] = ("s", "lower")
    METRICS[f"analytics.stationary_K.{_m}"] = ("count", None)

# Per-layer metric -> the span whose per-pass total it is.
SPAN_METRICS = {
    "engine.run_s": "engine.run",
    "engine.run_coupled_s": "engine.run_coupled",
    "engine.instrument_s": "engine.instrument_patient_k1",
    "oracles.ruin_mc_s": "oracles.ruin_hit_monte_carlo",
    "oracles.dominance_check_s": "oracles.dominance_check",
    "cli.analyze_s": "cli.analyze",
    "cli.summarize_s": "cli.summarize",
    "cli.csv_s": "cli.csv",
}
for _check in ("coupling", "ruin", "urn", "dominance", "identities", "timechange"):
    SPAN_METRICS[f"cli.verify.{_check}_s"] = f"cli.verify.{_check}"
for _m in ("m1e3", "m1e4", "m1e5", "m1e6"):
    SPAN_METRICS[f"analytics.stationary_s.{_m}"] = f"analytics.stationary.{_m}"

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import dynmatch
from dynmatch import Constant, MarketConfig, PolicyKind, RngStreams
config = MarketConfig(m=1000.0, d=5.0, T=100.0, policy=PolicyKind.GREEDY,
                      departure=Constant(1.0), seed={seed})
RngStreams.from_seed(config.seed)
print(time.perf_counter() - t0)
"""


class Ops:
    """Checked operations of a run: attempts and named failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)


def median_setup_s(seed: int) -> float:
    """Median over fresh interpreters of: import dynmatch, then build one
    MarketConfig and its RngStreams."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE.format(seed=seed + i)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def source_lines() -> dict[str, int]:
    return {
        f"{mod}.lines": sum(1 for line in (SRC / "dynmatch" / f"{mod}.py").open() if line.strip())
        for mod in MODULES
    }


def facts(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, Ops, list]:
    """Run the passes of one workload; returns (metrics, ops, traced spans).

    ``metrics`` maps a name to ``(value, sample count)``.
    """
    from dynmatch import analytics, engine, oracles
    from tracing import Recorder, record_layers
    from workloads import WORKLOADS, Pass

    untraced = {"engine.run": engine.run, "engine.run_coupled": engine.run_coupled}
    traced = untraced | {
        "engine.instrument_patient_k1": engine.instrument_patient_k1,
        "analytics.stationary": analytics.stationary,
        "oracles.ruin_hit_monte_carlo": oracles.ruin_hit_monte_carlo,
        "oracles.dominance_check": oracles.dominance_check,
    }
    workload = WORKLOADS[name]
    ops = Ops()
    modes = (False, True) if trace else (False,)
    passes: dict[bool, list] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        for is_traced in modes:
            rec = Recorder(capture=is_traced)
            p = Pass(name, seed, rec, ops, OUT / "csv" / name)
            t0 = time.perf_counter()
            with rec.intercept(traced if is_traced else untraced):
                extras = workload(p)
            passes[is_traced].append((time.perf_counter() - t0, rec, extras))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(passes[False])) > seconds:
            break

    metrics: dict[str, tuple] = {}

    def put(metric: str, values: list) -> None:
        if values:
            metrics[metric] = (statistics.median(values), len(values))

    plain = passes[False]
    put("wall_s", [w for w, _, _ in plain])
    put("agents_per_s", [(rec.arrivals + ex.get("arrivals", 0)) / w for w, rec, ex in plain])
    runs = [d for _, rec, _ in plain for d in rec.durations("engine.run")]
    put("run_s.p50", runs)
    if len(runs) >= 100:
        metrics["run_s.p90"] = (statistics.quantiles(runs, n=10)[8], len(runs))
    for key in ("cells_per_s.jobs1", "cells_per_s.jobs2"):
        put(key, [ex[key] for _, _, ex in plain if key in ex])
    if not trace:
        metrics["peak_rss_mb"] = (peak_rss_mb(), 1)
        metrics["setup_s"] = (median_setup_s(seed), SETUP_REPEATS)

    spans = []
    if trace:
        traced_passes = passes[True]
        spans = [rec.spans for _, rec, _ in traced_passes]
        put("trace.wall_s", [w for w, _, _ in traced_passes])
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - metrics["wall_s"][0], len(traced_passes))
        for metric, span in SPAN_METRICS.items():
            if any(rec.durations(span) for _, rec, _ in traced_passes):
                put(metric, [rec.total(span) for _, rec, _ in traced_passes])
        put("cli.self_s", [rec.self_time("cli.") for _, rec, _ in traced_passes])
        for key in {k for _, _, ex in traced_passes for k in ex} - {"arrivals", "cells_per_s.jobs1", "cells_per_s.jobs2"}:
            put(key, [ex[key] for _, _, ex in traced_passes if key in ex])

        _, last, _ = traced_passes[-1]
        layers = record_layers(engine.run, last.runs, Pass(name, seed, last, ops, None).check)
        replayed = layers.pop("replayed_s")
        for key, value in layers.items():
            metrics[key] = (value, 1)
        metrics["engine.residual_s"] = (last.total("engine.run") - replayed, 1)
    attempted = max(ops.attempted, 1)
    metrics["error_rate"] = (len(ops.failures) / attempted, attempted)
    return metrics, ops, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dynmatch benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dynmatch" / "__init__.py").is_file():
        print(f"error: no dynmatch package under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    # Sweep workers started by spawn or forkserver import dynmatch afresh.
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import dynmatch
    from workloads import WORKLOADS

    if Path(dynmatch.__file__).resolve().parent != (SRC / "dynmatch").resolve():
        print(f"error: imported dynmatch from {dynmatch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    OUT.mkdir(exist_ok=True)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        info = facts(name, args.seed, args.seconds, args.trace) | source_lines()
        metrics, ops, spans = run_workload(name, args.seed, args.seconds, args.trace)
        for key, value in info.items():
            print(f"fact {name} {key} = {value}")
        for key, (value, n) in sorted(metrics.items()):
            print(f"metric {name} {key} = {value:.6g} {METRICS[key][0]} (n={n})")
        for message in ops.failures:
            print(f"fail {message}")
        tag = f"{name}.seed{args.seed}.trace{args.trace}"
        with open(OUT / f"{tag}.json", "w") as fh:
            json.dump(
                {
                    "facts": info,
                    "attempted": ops.attempted,
                    "failures": ops.failures,
                    "metrics": {
                        k: {"value": v, "unit": METRICS[k][0], "better": METRICS[k][1], "n": n}
                        for k, (v, n) in metrics.items()
                    },
                },
                fh,
                indent=1,
            )
        if spans:
            with open(OUT / f"{tag}.spans.json", "w") as fh:
                json.dump(spans, fh)
        final["correct"] &= not ops.failures
        final["attempted"] += max(ops.attempted, 1)
        final["failed"] += len(ops.failures)
        prefix = "" if len(names) == 1 else f"{name}/"
        for key in wanted:
            if key not in metrics:
                print(f"error: {name} did not measure {key}", file=sys.stderr)
                return 2
            final["metrics"][prefix + key] = {"value": metrics[key][0], "unit": METRICS[key][0]}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
