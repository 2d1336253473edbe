"""The four benchmark workloads.  Each is one pass: a function of a ``Pass``
that makes its calls through ``Pass.call`` (one span and one checked op
each), checks the outputs, and returns pass-level measurements.

Every input derives from the workload seed; a pass with a given seed does
the same work each time it runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

from dynmatch import Constant, Exponential, PolicyKind, cli
from dynmatch.analytics import ChainParams, stationary

# Published datapoints (figure coordinates, mean of 10 runs at m=1000, T=100,
# const:1), as in tests/test_acceptance.py.
FIG_LOSS = {
    PolicyKind.GREEDY: {2: 0.12320273815034577, 5: 0.013360191811966633, 10: 0.0003769513732728478},
    PolicyKind.PATIENT: {2: 0.12215991443508162, 5: 0.013119507311595042, 10: 0.00036888970197910826},
    PolicyKind.GREEDY_SOJOURN: {5: 0.006517210633848713, 10: 3.804885472947264e-05},
}
# One run's perished count against a published mean E: accept within
# FIG_Z * sqrt(FIG_DISPERSION * E).  Run-to-run variance measured over six
# seeds per cell was at most 2x the Poisson variance E, so a correct engine
# sits more than 8 standard deviations inside this band.
FIG_Z = 6.0
FIG_DISPERSION = 4.0

VERIFY_CHECKS = ("coupling", "ruin", "urn", "dominance", "identities", "timechange")
STATIONARY_M = {"m1e3": 1e3, "m1e4": 1e4, "m1e5": 1e5, "m1e6": 1e6}


class Pass:
    """One pass of a workload: its seed, spans and op accounting."""

    def __init__(self, workload: str, seed: int, rec, ops, csv_dir) -> None:
        self.workload = workload
        self.seed = seed
        self.rec = rec
        self.ops = ops
        self.csv_dir = csv_dir

    def call(self, span: str, label: str, fn, *args, **kwargs):
        """One op: ``fn(*args, **kwargs)`` inside a span; None if it raised."""
        self.ops.attempted += 1
        try:
            with self.rec.span(span):
                return fn(*args, **kwargs)
        except Exception as exc:  # a failing op is counted and named, not fatal
            self.ops.fail(f"{self.workload} {label} seed={self.seed}: {type(exc).__name__}: {exc}")
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.ops.attempted += 1
        if not ok:
            self.ops.fail(f"{self.workload} {label}: {detail}")

    def check_rows(self, rows) -> None:
        for r in rows:
            self.check(
                f"run policy={r.policy} d={r.d:g} seed={r.seed}",
                r.arrivals == r.matched + r.perished + r.pool_at_T and 0.0 <= r.loss <= 1.0,
                f"arrivals={r.arrivals} matched={r.matched} perished={r.perished} "
                f"pool_at_T={r.pool_at_T} loss={r.loss}",
            )

    def sweep(self, spec, jobs: int, label: str, out_dir):
        """``dynmatch sweep`` as a library: cells, summary, both CSVs."""
        rows = self.call("cli.run_sweep", f"sweep {label}", cli.run_sweep, spec, jobs=jobs)
        if rows is None:
            return None
        self.check_rows(rows)
        summary = self.call("cli.summarize", f"summarize {label}", cli.summarize, rows)
        out_dir.mkdir(parents=True, exist_ok=True)
        for stale in ("raw.csv", "summary.csv"):
            (out_dir / stale).unlink(missing_ok=True)
        self.call("cli.csv", f"raw csv {label}", cli.write_raw_csv, rows, out_dir / "raw.csv")
        if summary is not None:
            self.call("cli.csv", f"summary csv {label}", cli.write_summary_csv, summary, out_dir / "summary.csv")
        return rows

    def cli_main(self, span: str, label: str, argv: list[str]):
        """``dynmatch <argv>`` in-process; returns its parsed JSON output."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = self.call(span, label, cli.main, argv)
        self.check(f"{label} exit", code == 0, f"exit code {code}")
        try:
            return json.loads(buf.getvalue())
        except ValueError:
            self.check(f"{label} output", False, "stdout is not JSON")
            return None


def paper_grid(p: Pass) -> dict:
    """The published figure protocol: every policy x d in {2, 5, 10} at
    m=1000, T=100, const:1, one replication per cell, each policy as one
    serial sweep followed by its summary and CSVs."""
    for policy in PolicyKind:
        spec = cli.SweepSpec(
            m=1000.0, T=100.0, policy=policy, departure=Constant(1.0),
            d_values=(2.0, 5.0, 10.0), replications=1, master_seed=p.seed,
        )
        rows = p.sweep(spec, 1, f"policy={policy.value}", p.csv_dir / policy.value)
        for r in rows or ():
            fig = FIG_LOSS[policy].get(int(r.d))
            if fig is None:
                continue
            expected = fig * r.m * r.T
            tol = FIG_Z * math.sqrt(FIG_DISPERSION * expected)
            p.check(
                f"figure policy={r.policy} d={r.d:g} seed={r.seed}",
                abs(r.perished - expected) <= tol,
                f"perished {r.perished} vs published {expected:.1f} +- {tol:.1f}",
            )
    return {}


def large_pool(p: Pass) -> dict:
    """About 1e5 arrivals at m=10000, d=2, T=10: greedy and patient under
    const:1, greedy-sojourn under exp:1, one serial single-cell sweep each."""
    for policy, departure in (
        (PolicyKind.GREEDY, Constant(1.0)),
        (PolicyKind.PATIENT, Constant(1.0)),
        (PolicyKind.GREEDY_SOJOURN, Exponential(1.0)),
    ):
        spec = cli.SweepSpec(
            m=10000.0, T=10.0, policy=policy, departure=departure,
            d_values=(2.0,), replications=1, master_seed=p.seed,
        )
        rows = p.call("cli.run_sweep", f"sweep policy={policy.value}", cli.run_sweep, spec, jobs=1)
        p.check_rows(rows or ())
    return {}


def verify_suite(p: Pass) -> dict:
    """``dynmatch verify`` at its defaults (one check per call), ``dynmatch
    analyze``, and ``analytics.stationary`` at m = 1e3 ... 1e6.

    ``verify`` keeps its default seed: its checks are statistical tests at
    about three standard errors, so fresh seeds would fail a correct engine
    in a few percent of passes.  The workload seed picks ``analyze``'s d.
    """
    for check in VERIFY_CHECKS:
        out = p.cli_main(f"cli.verify.{check}", f"verify {check}", ["verify", "--check", check])
        if out is not None:
            p.check(f"verify {check} pass", bool(out["pass"]), json.dumps(out["checks"])[:300])
    d = 2 + p.seed % 9
    out = p.cli_main("cli.analyze", f"analyze m=1000 d={d}", ["analyze", "--m", "1000", "--d", str(d)])
    if out is not None:
        st = out["stationary"]
        p.check(f"analyze d={d}", st["mean"] > 0 and st["tail_bound"] <= 1e-12, json.dumps(st))
    out = {}
    for key, m in STATIONARY_M.items():
        dist = p.call(f"analytics.stationary.{key}", f"stationary m={m:g}", stationary, ChainParams(m, 5.0))
        if dist is not None:
            total = float(dist.probs.sum()) + dist.tail_bound
            p.check(f"stationary m={m:g}", abs(total - 1.0) <= 1e-9 and dist.truncation_K > 0, f"mass {total}")
            out[f"analytics.stationary_K.{key}"] = dist.truncation_K
    return out


SWEEP_CELLS = dict(
    m=1000.0, T=10.0, policy=PolicyKind.GREEDY, departure=Constant(1.0),
    d_values=(2.0, 5.0, 10.0), replications=12,
)


def sweep_parallel(p: Pass) -> dict:
    """36 short paper-scale cells (m=1000, T=10) as one sweep at jobs=1 and
    again at jobs=2, each with its summary and CSVs; the two CSV pairs must
    be byte-identical.  The jobs=2 sweep pickles ``run`` into its workers,
    so it runs with the span interception paused."""
    spec = cli.SweepSpec(**SWEEP_CELLS, master_seed=p.seed)
    p.sweep(spec, 1, "jobs=1", p.csv_dir / "jobs1")
    with p.rec.paused():
        rows = p.sweep(spec, 2, "jobs=2", p.csv_dir / "jobs2")
    for name in ("raw.csv", "summary.csv"):
        a, b = (p.csv_dir / f"jobs{j}" / name for j in (1, 2))
        same = a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
        p.check(f"{name} jobs=1 vs jobs=2", same, "CSV outputs differ")
    sweeps = p.rec.durations("cli.run_sweep")
    if rows is None or len(sweeps) != 2:
        return {}
    cells = len(spec.d_values) * spec.replications
    return {
        "arrivals": sum(r.arrivals for r in rows),
        "cells_per_s.jobs1": cells / sweeps[0],
        "cells_per_s.jobs2": cells / sweeps[1],
        "cli.pool_overhead_s": sweeps[1] - p.rec.total("engine.run") / 2,
    }


WORKLOADS = {
    "paper-grid": paper_grid,
    "large-pool": large_pool,
    "verify-suite": verify_suite,
    "sweep-parallel": sweep_parallel,
}
