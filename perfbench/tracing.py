"""Spans around public dynmatch calls, and the recorded-input replays of a
traced run.

Nothing here changes ``src/``: spans are opened by the benchmark around
the calls it makes, and around calls one dynmatch module makes into
another by rebinding the callee's public name for the duration of a pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import sys
import time
import tracemalloc

import numpy as np

from dynmatch import (
    AgentOutcome,
    PairCompatibilityOracle,
    PolicyKind,
    RngStreams,
    sample_interarrival,
    sample_sojourn,
)


class Recorder:
    """In-memory spans of one pass: ``[name, start, end, parent_index]``.

    Also counts the arrivals simulated in-process and, when ``capture`` is
    set, keeps ``(config, stats)`` of every ``engine.run`` call so
    the traced run can rebuild its counts and replay its core layers.
    """

    def __init__(self, capture: bool = False) -> None:
        self.spans: list[list] = []
        self.capture = capture
        self.runs: list[tuple] = []
        self.arrivals = 0
        self._stack: list[int] = []
        self._bound: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, prefix: str) -> float:
        """Time inside spans named ``prefix*`` not covered by their child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return sum(
            end - start - child[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name.startswith(prefix)
        )

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "engine.run":
                self.arrivals += result.arrivals
                if self.capture:
                    self.runs.append((args[0], result))
            elif name == "engine.run_coupled":
                self.arrivals += result[0].arrivals
            return result

        return wrapper

    @contextlib.contextmanager
    def intercept(self, targets: dict):
        """Rebind every name under which a dynmatch module holds a target
        function to a span-recording wrapper; restore them on exit."""
        modules = [m for k, m in list(sys.modules.items()) if k == "dynmatch" or k.startswith("dynmatch.")]
        for name, fn in targets.items():
            wrapper = self._wrap(name, fn)
            for mod in modules:
                self._bound += [(mod, a, fn, wrapper) for a, v in vars(mod).items() if v is fn]
        self._rebind(wrapped=True)
        try:
            yield
        finally:
            self._rebind(wrapped=False)
            self._bound = []

    @contextlib.contextmanager
    def paused(self):
        """Restore the original functions for calls that cross a process
        boundary (a parallel sweep pickles the function it maps)."""
        self._rebind(wrapped=False)
        try:
            yield
        finally:
            self._rebind(wrapped=True)

    def _rebind(self, wrapped: bool) -> None:
        for mod, attr, fn, wrapper in self._bound:
            setattr(mod, attr, wrapper if wrapped else fn)


@dataclasses.dataclass
class RunCounts:
    """Exact counts of one run, rebuilt from its trajectory and agents."""

    arrivals: int
    events: int
    stale_events: int
    peak_pool: int
    query_sizes: list[int]


def rebuild_counts(config, stats) -> RunCounts:
    """Rebuild event, stale-event, query and pool counts of one run.

    Needs ``stats`` from ``run(config with pool_trace=True, keep_agents=True)``
    and ``burn_in = 0``.  The engine processes every arrival up to T and every
    criticality event up to T of an agent that entered the pool; that event
    is stale when the agent was matched earlier.  Greedy flavours query the
    whole pool at each arrival, patient the rest of the pool at each live
    criticality.  Pool sizes before an event come from the trajectory's last
    change point strictly before it.
    """
    traj = np.asarray(stats.pool_trajectory, dtype=float)
    times, sizes = traj[:, 0], traj[:, 1].astype(np.int64)
    agents = stats.agents
    n = len(agents)
    arrival = np.fromiter((a.arrival_time for a in agents), float, n)
    critical = np.fromiter((a.critical_time for a in agents), float, n)
    exit_time = np.fromiter(
        (np.nan if a.outcome_time is None else a.outcome_time for a in agents), float, n
    )
    matched = np.fromiter((a.outcome == AgentOutcome.MATCHED for a in agents), bool, n)

    def size_before(t: np.ndarray) -> np.ndarray:
        return sizes[np.searchsorted(times, t, side="left") - 1]

    patient = config.policy is PolicyKind.PATIENT
    entered = np.ones(n, bool) if patient else ~(matched & (exit_time == arrival))
    due = entered & (critical <= config.T)
    stale = due & matched & (exit_time < critical)
    if patient:
        ks = size_before(critical[due & ~stale]) - 1
    else:
        ks = size_before(arrival)
    return RunCounts(
        arrivals=n,
        events=n + int(due.sum()),
        stale_events=int(stale.sum()),
        peak_pool=int(sizes.max()),
        query_sizes=ks[ks > 0].tolist(),
    )


def replay_core(config, counts: RunCounts) -> tuple[float, float]:
    """Time the core calls of one run alone, on its recorded inputs.

    Returns ``(query_block_s, sample_s)``: every recorded query size through
    ``PairCompatibilityOracle.query_block`` plus ``np.flatnonzero``, then the
    run's ``arrivals + 1`` interarrival and ``arrivals`` sojourn draws.
    """
    streams = RngStreams.from_seed(config.seed)
    query = PairCompatibilityOracle(streams.compatibility, config.p).query_block
    flat = np.flatnonzero
    t0 = time.perf_counter()
    for k in counts.query_sizes:
        flat(query(0, range(k)))
    t1 = time.perf_counter()
    m, rng = config.m, streams.interarrival
    for _ in range(counts.arrivals + 1):
        sample_interarrival(m, rng)
    spec, rng = config.departure, streams.sojourn
    for _ in range(counts.arrivals):
        sample_sojourn(spec, rng)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


def seed_streams_us(seeds: list[int], repeats: int = 5) -> float:
    """Median microseconds per ``RngStreams.from_seed`` call."""
    samples = []
    for seed in seeds:
        for _ in range(repeats):
            t0 = time.perf_counter()
            RngStreams.from_seed(seed)
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


def peak_alloc_mb(run, config) -> float:
    """``tracemalloc`` peak of one run, in MB."""
    tracemalloc.start()
    try:
        run(config)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def record_layers(run, captured: list[tuple], check) -> dict[str, float]:
    """Per-layer metrics of the engine and core from a pass's captured runs.

    Each captured ``engine.run`` call is run again with its trajectory and
    agents kept (same seed, so the same sample path; ``check`` verifies that
    its counters match), its counts are rebuilt, and its core calls replayed.
    ``replayed_s`` is the replayed core time, for the engine residual.
    """
    out = dict.fromkeys(("engine.events", "engine.stale_events", "engine.peak_pool", "core.compat_draws"), 0)
    out["core.query_block_s"] = out["core.sample_s"] = 0.0
    largest = None
    for config, first in captured:
        label = f"policy={config.policy.value} d={config.d:g} seed={config.seed}"
        stats = run(dataclasses.replace(config, pool_trace=True), keep_agents=True)
        fields = ("arrivals", "matched", "perished", "pool_at_T")
        check(f"rerun {label}", all(getattr(stats, f) == getattr(first, f) for f in fields), "counters differ from the traced call")
        counts = rebuild_counts(config, stats)
        check(f"rebuild {label}", counts.arrivals == stats.arrivals, f"rebuilt {counts.arrivals} arrivals, run reported {stats.arrivals}")
        out["engine.events"] += counts.events
        out["engine.stale_events"] += counts.stale_events
        out["core.compat_draws"] += sum(counts.query_sizes)
        if largest is None or counts.peak_pool > out["engine.peak_pool"]:
            largest = config
            out["engine.peak_pool"] = counts.peak_pool
        query_s, sample_s = replay_core(config, counts)
        out["core.query_block_s"] += query_s
        out["core.sample_s"] += sample_s
    out["engine.arrivals"] = sum(first.arrivals for _, first in captured)
    out["core.seed_streams_us"] = seed_streams_us([c.seed for c, _ in captured])
    out["engine.peak_alloc_mb"] = peak_alloc_mb(run, largest)
    out["replayed_s"] = (
        out["core.query_block_s"] + out["core.sample_s"] + out["core.seed_streams_us"] * 1e-6 * len(captured)
    )
    return out
