"""Command-line front end: single runs, replication sweeps, analytic
reports, and the self-verification suite.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 output I/O error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analytics, oracles
from .core import (
    ConfigError,
    Constant,
    DepartureSpec,
    DomainError,
    Exponential,
    FormatError,
    MarketConfig,
    NeverPerish,
    NumericError,
    PolicyKind,
    RangeError,
    Uniform,
    check_seed,
    departure_cdf,
    departure_to_dict,
    mix_seed,
    parse_departure_flag,
)
from .engine import ENGINE_VERSION, RUN_CSV_COLUMNS, RunStats, run

CSV_SCHEMA_HEADER = "#schema=1"

SUMMARY_CSV_COLUMNS = (
    "d",
    "mean_loss",
    "std_loss",
    "min_loss",
    "q1_loss",
    "median_loss",
    "q3_loss",
    "max_loss",
    "mean_avg_wait",
    "n",
)


@dataclass(frozen=True)
class SweepSpec:
    """Replication grid over density values with derived per-cell seeds.

    The cell (d_values[i], rep) runs with seed mix_seed(master_seed, i, rep),
    so a sweep is reproducible cell by cell and cells are independent.
    """

    m: float
    T: float
    policy: PolicyKind
    departure: DepartureSpec
    d_values: tuple[float, ...]
    replications: int
    master_seed: int

    def __post_init__(self) -> None:
        check_seed(self.master_seed)
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if not self.d_values:
            raise ConfigError("d_values must be nonempty")
        if len(set(self.d_values)) != len(self.d_values):
            raise ConfigError(f"d_values must be distinct, got {self.d_values}")
        for i in range(len(self.d_values)):  # MarketConfig checks m, T and each d
            self.cell_config(i, 0)

    def cell_config(self, d_index: int, rep: int) -> MarketConfig:
        return MarketConfig(
            m=self.m,
            d=self.d_values[d_index],
            T=self.T,
            policy=self.policy,
            departure=self.departure,
            seed=mix_seed(self.master_seed, d_index, rep),
        )


def _run_cell(cell: tuple[int, int, MarketConfig]) -> RunStats:
    """Run one sweep cell; a numeric or configuration failure names its cell."""
    d_index, rep, config = cell
    try:
        return run(config)
    except (NumericError, ConfigError) as exc:
        cell_name = f"d_index={d_index} d={config.d} rep={rep} seed={config.seed}"
        raise type(exc)(f"sweep cell {cell_name}: {exc}") from exc


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[RunStats]:
    """Run all (d, replication) cells; rows come back in cell order
    regardless of execution order or parallelism."""
    cells = [
        (i, rep, spec.cell_config(i, rep))
        for i in range(len(spec.d_values))
        for rep in range(spec.replications)
    ]
    if jobs == 1:
        return [_run_cell(cell) for cell in cells]
    # the executor rejects jobs < 1 before any cell runs, and forks all its
    # workers at the first submit, so it gets no more than can be kept busy
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells), os.cpu_count() or 1)) as pool:
        return list(pool.map(_run_cell, cells, chunksize=4))


def summarize(rows: list[RunStats]) -> list[dict]:
    """Per-d summary rows; quartiles use linear interpolation between
    order statistics."""
    by_d: dict[float, list[RunStats]] = {}
    for row in rows:
        by_d.setdefault(row.d, []).append(row)
    out = []
    for d in sorted(by_d):
        losses = np.array([r.loss for r in by_d[d]])
        q1, med, q3 = np.quantile(losses, [0.25, 0.5, 0.75])
        out.append(
            {
                "d": d,
                "mean_loss": float(losses.mean()),
                "std_loss": float(losses.std(ddof=1)) if losses.size > 1 else 0.0,
                "min_loss": float(losses.min()),
                "q1_loss": float(q1),
                "median_loss": float(med),
                "q3_loss": float(q3),
                "max_loss": float(losses.max()),
                "mean_avg_wait": float(np.mean([r.avg_wait for r in by_d[d]])),
                "n": len(by_d[d]),
            }
        )
    return out


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a schema-tagged CSV whole or not at all: the rows go to a temp
    file beside ``path``, which replaces ``path`` once complete."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, "w", newline="")  # no temp file to remove if this fails
    try:
        with fh:
            fh.write(CSV_SCHEMA_HEADER + "\n")
            csv.writer(fh).writerows(itertools.chain([header], rows))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def write_raw_csv(rows: list[RunStats], path: Path) -> None:
    _write_csv(path, RUN_CSV_COLUMNS, (row.csv_row() for row in rows))


def write_summary_csv(summary: list[dict], path: Path) -> None:
    _write_csv(path, SUMMARY_CSV_COLUMNS, ([r[c] for c in SUMMARY_CSV_COLUMNS] for r in summary))


# --------------------------------------------------------------------------
# Subcommands


def _config_from_args(args: argparse.Namespace) -> MarketConfig:
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"cannot parse {args.config} as JSON: {exc}") from None
        return MarketConfig.from_dict(data)
    if args.m is None or args.d is None or args.T is None:
        raise ConfigError("either --config or all of --m/--d/--T are required")
    return MarketConfig(
        m=args.m,
        d=args.d,
        T=args.T,
        policy=PolicyKind(args.policy),
        departure=parse_departure_flag(args.departure),
        seed=args.seed,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.trace_out:
        config = replace(config, pool_trace=True)
    stats = run(config)
    if args.trace_out:
        _write_csv(Path(args.trace_out), ("time", "size"), stats.pool_trajectory)
    json.dump(stats.to_json_dict() | {"engine_version": ENGINE_VERSION}, sys.stdout, indent=2)
    print()
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        m=args.m,
        T=args.T,
        policy=PolicyKind(args.policy),
        departure=parse_departure_flag(args.departure),
        d_values=tuple(args.d_list),
        replications=args.reps,
        master_seed=args.seed,
    )
    if args.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = run_sweep(spec, jobs=args.jobs)
    write_raw_csv(rows, out / "raw.csv")
    write_summary_csv(summarize(rows), out / "summary.csv")
    print(f"wrote {out / 'raw.csv'} and {out / 'summary.csv'}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    departure = parse_departure_flag(args.departure)
    params = analytics.ChainParams(m=args.m, d=args.d)
    consts = analytics.bound_constants(args.m, args.d)
    heur = analytics.heuristic_predictions(args.m, args.d) if args.d >= 1 else None

    eps = departure.support_min()
    gdy_upper = None
    if args.d >= 2 and math.isfinite(eps) and eps > 0:
        gdy_upper = analytics.gdy_loss_upper(args.d, eps)
    eps_lb = max(eps, 1.0 / args.d) if math.isfinite(eps) else 1.0 / args.d
    delta = departure_cdf(departure, eps_lb)
    gdy_lower = analytics.gdy_loss_lower(args.d, eps_lb, delta)
    pat_upper = analytics.pat_loss_upper(args.d) if departure == Constant(1.0) else None
    wait_lower, wait_upper = analytics.waiting_bounds(args.m, args.T, args.d, eps)
    # every input is checked above, before the one chain is built
    dist = analytics.stationary(params, tail_tol=args.tail_tol)

    report = {
        "m": args.m,
        "d": args.d,
        "T": args.T,
        "departure": departure_to_dict(departure),
        "stationary": {
            "mean": analytics.stationary_mean(dist),
            "median": dist.quantile(0.5),
            "q99": dist.quantile(0.99),
            "truncation_K": dist.truncation_K,
            "tail_bound": dist.tail_bound,
            "mass_above_c1_threshold": dist.mass_above(
                consts.c1 * math.log(2) * args.m / args.d
            ),
        },
        "constants": {"c1": consts.c1, "c2": consts.c2, "c3": consts.c3},
        "loss_bounds": {
            "gdy_upper": gdy_upper,
            "gdy_lower": gdy_lower,
            "gdy_lower_eps": eps_lb,
            "gdy_lower_delta": delta,
            "pat_upper": pat_upper,
        },
        "waiting_bounds": {
            "total_lower": wait_lower,
            "total_upper": wait_upper,
            "per_agent_lower": None if wait_lower is None else wait_lower / (args.m * args.T),
            "per_agent_upper": wait_upper / (args.m * args.T),
        },
        "heuristic": None if heur is None else heur._asdict(),
    }
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


# --------------------------------------------------------------------------
# Verification matrix


def _identity_configs(seed: int) -> list[MarketConfig]:
    cases = itertools.product(
        PolicyKind, (Constant(1.0), Exponential(1.0), Uniform(0.5, 1.5), NeverPerish())
    )
    return [
        MarketConfig(m=200.0, d=3.0, T=10.0, policy=p, departure=dep, seed=mix_seed(seed, i))
        for i, (p, dep) in enumerate(cases)
    ]


# name -> check(runs, seed), which builds the default inputs of one
# oracles.check_*; checks run in this order under "all", otherwise once
# each in the order given
_VERIFY = {
    "coupling": lambda runs, seed: oracles.check_coupling(
        [[mix_seed(seed, i, rep) for rep in range(max(runs // 3, 1))] for i in range(3)]
    ),
    "ruin": lambda runs, seed: oracles.check_ruin(
        (
            oracles.WalkSpec(p_up=0.4, M=1, N=3, start=1),
            oracles.WalkSpec(p_up=0.45, M=2, N=8, start=2),
            oracles.WalkSpec(p_up=0.5, M=1, N=5, start=2),
        ),
        max(runs * 1000, 10_000),
        seed,
    ),
    "urn": lambda runs, seed: oracles.check_urn(
        ((2, 2, 2), (40, 60, 50), (30, 80, 40), (5, 5, 10)), seed
    ),
    "dominance": lambda runs, seed: oracles.check_dominance(
        [mix_seed(seed, rep) for rep in range(runs)]
    ),
    "identities": lambda runs, seed: oracles.check_identities(_identity_configs(seed)),
    "timechange": lambda runs, seed: oracles.check_timechange(max(runs, 50), seed),
}
VERIFY_CHECKS = tuple(_VERIFY)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.runs < 1:
        raise ConfigError(f"runs must be >= 1, got {args.runs}")
    check_seed(args.seed)
    selected = VERIFY_CHECKS if "all" in args.check else dict.fromkeys(args.check)
    results = [_VERIFY[name](args.runs, args.seed) for name in selected]
    ok = all(r["pass"] for r in results)
    json.dump({"pass": ok, "checks": results}, sys.stdout, indent=2)
    print()
    return 0 if ok else 1


# --------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynmatch",
        description="Simulate and analyze continuous-time dynamic matching markets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_market_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m", type=float, help="arrival rate (agents per time unit)")
        p.add_argument("--T", type=float, help="horizon")
        p.add_argument(
            "--policy",
            choices=[k.value for k in PolicyKind],
            default="greedy",
        )
        p.add_argument(
            "--departure",
            default="const:1",
            help="const:<c> | exp:<rate> | unif:<a>:<b> | never | mix:<w>*<spec>,...",
        )
        p.add_argument("--seed", type=int, default=1)

    p_sim = sub.add_parser("simulate", help="one run, JSON stats on stdout")
    add_market_flags(p_sim)
    p_sim.add_argument("--d", type=float, help="density parameter")
    p_sim.add_argument("--config", help="JSON market config (overrides flags)")
    p_sim.add_argument("--trace-out", help="write the pool trajectory CSV here")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="replication sweep over d, CSV output")
    add_market_flags(p_sweep)
    p_sweep.add_argument("--d-list", type=float, nargs="+", required=True)
    p_sweep.add_argument("--reps", type=int, default=10)
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analyze", help="stationary chain, bounds, predictions")
    p_an.add_argument("--m", type=float, required=True)
    p_an.add_argument("--d", type=float, required=True)
    p_an.add_argument("--T", type=float, default=100.0)
    p_an.add_argument("--departure", default="const:1")
    p_an.add_argument("--tail-tol", type=float, default=1e-12)
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="run the oracle verification matrix")
    p_ver.add_argument(
        "--check",
        action="append",
        choices=VERIFY_CHECKS + ("all",),
        default=None,
        help="repeatable; default all",
    )
    p_ver.add_argument("--runs", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=20240801)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.check is None:
        args.check = ["all"]
    try:
        return args.func(args)
    except (ConfigError, DomainError, RangeError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
