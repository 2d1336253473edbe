"""Exact event-driven simulation of one market run.

Exactly one arrival is pending at any time, held as a plain float; only
criticality events sit in a heap, as ``(critical_time, agent_id)`` tuples.
The pending arrival goes first iff ``(next_arrival, len(agents)) <=
heap[0]``: on an exact float time tie an arrival comes after the
criticality of every older agent but before the criticality of the agent
who arrived last.  This deterministic order realizes the almost-sure
uniqueness of event times in the continuous model.  Processing stops at
the first event strictly after the horizon T: the pending arrival is
discarded and still-pooled agents are counted at the horizon.

``_Pool`` is the single owner of pool accounting (members, waiting sums,
counts, trajectory, the conservation and waiting-time checks, and the
``RunStats`` they build); ``run`` keeps one pool and ``run_coupled`` two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .core import (
    Agent,
    AgentOutcome,
    ConfigError,
    Constant,
    FormatError,
    MarketConfig,
    NumericError,
    PairCompatibilityOracle,
    PolicyKind,
    RangeError,
    RngStreams,
    departure_kind,
    sample_interarrival,
    sample_sojourn,
)

# One CSV row per run; fixed schema, versioned in the file header.
RUN_CSV_COLUMNS = (
    "seed",
    "m",
    "d",
    "T",
    "policy",
    "departure_kind",
    "loss",
    "avg_wait",
    "arrivals",
    "matched",
    "perished",
    "pool_at_T",
)


class _Kahan:
    """Compensated float accumulator; keeps run identities tight at 1e-9."""

    __slots__ = ("total", "_c")

    def __init__(self) -> None:
        self.total = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        y = x - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


@dataclass
class RunStats:
    """Counters and aggregates of one run."""

    seed: int
    m: float
    d: float
    T: float
    policy: str
    departure_kind: str
    arrivals: int
    matched: int
    perished: int
    pool_at_T: int
    total_wait: float
    pool_trajectory: list[tuple[float, int]] | None = None
    agents: list[Agent] | None = None

    @property
    def loss(self) -> float:
        return self.perished / (self.m * self.T)

    @property
    def avg_wait(self) -> float:
        return self.total_wait / self.arrivals if self.arrivals else 0.0

    def to_json_dict(self) -> dict:
        return {col: getattr(self, col) for col in (*RUN_CSV_COLUMNS, "total_wait")}

    def csv_row(self) -> list:
        return [getattr(self, col) for col in RUN_CSV_COLUMNS]


class _Pool:
    """Members and accounting of one pool.

    ``wait`` integrates the pool size over time and ``agent_wait`` sums the
    waits of the counted agents; over a full run they are the same total
    (the waiting-time identity).
    """

    __slots__ = ("ids", "wait", "agent_wait", "matched", "perished", "traj", "t_last")

    def __init__(self, trace: bool) -> None:
        self.ids: list[int] = []
        self.wait = _Kahan()
        self.agent_wait = _Kahan()
        self.matched = 0
        self.perished = 0
        self.traj: list[tuple[float, int]] | None = [(0.0, 0)] if trace else None
        self.t_last = 0.0

    def advance(self, t: float) -> None:
        """Integrate the pool size up to time ``t``."""
        if t > self.t_last:
            self.wait.add(len(self.ids) * (t - self.t_last))
            self.t_last = t

    def mark(self, t: float) -> None:
        """Record a trajectory change point at ``t`` if the size changed."""
        if self.traj is not None and self.traj[-1][1] != len(self.ids):
            self.traj.append((t, len(self.ids)))

    def stats(self, config: MarketConfig, kind: str, arrivals: int, pool_at_T: int,
              warm: bool = False, agents: list[Agent] | None = None) -> RunStats:
        """Check conservation and the waiting-time identity, then build the stats.

        A ``warm`` (burn-in) run skips the identity: only window agents count,
        so the pool integral is not their wait."""
        if arrivals != self.matched + self.perished + pool_at_T:
            raise NumericError(f"conservation violated in the {kind} pool")
        wait, agent_wait = self.wait.total, self.agent_wait.total
        if not warm and abs(wait - agent_wait) > 1e-9:
            raise NumericError(
                f"waiting-time identity violated in the {kind} pool: {wait} vs {agent_wait}"
            )
        return RunStats(
            seed=config.seed,
            m=config.m,
            d=config.d,
            T=config.T,
            policy=config.policy.value,
            departure_kind=kind,
            arrivals=arrivals,
            matched=self.matched,
            perished=self.perished,
            pool_at_T=pool_at_T,
            total_wait=agent_wait if warm else wait,
            pool_trajectory=self.traj,
            agents=agents,
        )


def pool_integral(trajectory: list[tuple[float, int]], T: float) -> float:
    """Exact integral of a piecewise-constant pool trajectory over [0, T].

    The trajectory is the list of (time, size) change points, sorted and
    starting at (0, 0); the size holds from each point until the next.
    """
    if not trajectory or trajectory[0] != (0.0, 0):
        raise FormatError("trajectory must start at (0, 0)")
    times = [t for t, _ in trajectory]
    if any(b < a for a, b in zip(times, times[1:])):
        raise FormatError("trajectory times must be sorted")
    pieces = []
    for (t0, size), t1 in zip(trajectory, times[1:] + [max(T, times[-1])]):
        lo, hi = min(t0, T), min(t1, T)
        if hi > lo:
            pieces.append(size * (hi - lo))
    return math.fsum(pieces)


def _pool_remove(pool: list[int], pos: dict[int, int], agent_id: int) -> None:
    # Swap-remove keeps O(1); pool order is irrelevant here because every
    # pair draw is fresh (see PairCompatibilityOracle).
    i = pos.pop(agent_id)
    last = pool[-1]
    if last != agent_id:
        pool[i] = last
        pos[last] = i
    pool.pop()


def run(config: MarketConfig, *, keep_agents: bool = False, burn_in: float = 0.0) -> RunStats:
    """Simulate one run under the configured policy and return its stats.

    Greedy flavors query each pool member once at every arrival and match
    immediately when possible (uniform partner, or the compatible member
    closest to departure under greedy-sojourn, ties to the lower id);
    critical agents simply perish.  Patient matching defers everything to
    the critical moment: the critical agent queries each other pool member
    once and matches uniformly among compatibles, or perishes.

    ``burn_in`` is an exploratory warm-up: the market runs over
    [0, burn_in + T] but the stats cover only agents arriving after
    ``burn_in`` (their waits truncated at the horizon).  Conservation
    holds within that window; the matched count may then be odd and
    total_wait is the window agents' waiting sum, not the full pool
    integral.  It is zero in every reference protocol.
    """
    if burn_in < 0 or not math.isfinite(burn_in):
        raise ConfigError(f"burn_in must be finite and >= 0, got {burn_in}")
    streams = RngStreams.from_seed(config.seed)
    rng_arrival = streams.interarrival
    rng_sojourn = streams.sojourn
    rng_tb = streams.tiebreak
    oracle = PairCompatibilityOracle(streams.compatibility, config.p)

    m = config.m
    horizon = burn_in + config.T
    warm = burn_in > 0.0
    patient = config.policy is PolicyKind.PATIENT
    by_sojourn = config.policy is PolicyKind.GREEDY_SOJOURN
    departure = config.departure

    next_arrival = sample_interarrival(m, rng_arrival)
    heap: list[tuple[float, int]] = []

    agents: list[Agent] = []
    ledger = _Pool(config.pool_trace)
    pool = ledger.ids
    pos: dict[int, int] = {}
    arrivals = 0

    def in_window(agent: Agent) -> bool:
        return not warm or agent.arrival_time > burn_in

    while True:
        arriving = not heap or (next_arrival, len(agents)) <= heap[0]
        t = next_arrival if arriving else heap[0][0]
        if t > horizon:
            break
        if arriving:
            aid = len(agents) + 1
            sojourn = sample_sojourn(departure, rng_sojourn)
            agent = Agent(aid, t, sojourn, t + sojourn)
            agents.append(agent)
            if in_window(agent):
                arrivals += 1
            next_arrival = t + sample_interarrival(m, rng_arrival)
        else:
            aid = heappop(heap)[1]
            agent = agents[aid - 1]
            if agent.outcome != AgentOutcome.UNRESOLVED:
                continue  # already matched; stale event
        ledger.advance(t)
        if not arriving:
            _pool_remove(pool, pos, aid)

        # greedy flavors search at arrival, patient matching at criticality
        partner_id = -1
        if arriving != patient and pool:
            hits = np.flatnonzero(oracle.query_block(aid, pool))
            if hits.size:
                if by_sojourn:
                    j = min(hits, key=lambda h: (agents[pool[h] - 1].critical_time, pool[h]))
                else:
                    j = hits[int(rng_tb.integers(hits.size))]
                partner_id = pool[j]

        if partner_id >= 0:
            partner = agents[partner_id - 1]
            _pool_remove(pool, pos, partner_id)
            partner.resolve(AgentOutcome.MATCHED, t, aid)
            agent.resolve(AgentOutcome.MATCHED, t, partner_id)
            if in_window(partner):
                ledger.agent_wait.add(t - partner.arrival_time)
                ledger.matched += 1
            if in_window(agent):
                if not arriving:  # an arriving agent leaves at once, with no wait
                    ledger.agent_wait.add(t - agent.arrival_time)
                ledger.matched += 1
        elif arriving:
            pos[aid] = len(pool)
            pool.append(aid)
            if math.isfinite(agent.critical_time):
                heappush(heap, (agent.critical_time, aid))
        else:
            agent.resolve(AgentOutcome.PERISHED, t)
            if in_window(agent):
                ledger.agent_wait.add(t - agent.arrival_time)
                ledger.perished += 1

        ledger.mark(t)

    ledger.advance(horizon)
    pool_at_T = 0
    for aid in pool:
        agent = agents[aid - 1]
        agent.resolve(AgentOutcome.IN_POOL_AT_HORIZON, horizon)
        if in_window(agent):
            ledger.agent_wait.add(horizon - agent.arrival_time)
            pool_at_T += 1
    return ledger.stats(config, departure_kind(departure), arrivals, pool_at_T,
                        warm, agents if keep_agents else None)


def run_coupled(config: MarketConfig) -> tuple[RunStats, RunStats, int]:
    """Run two greedy pools on shared randomness and report the size gap.

    Both pools see the identical arrival stream and, per arriving agent,
    the identical vector of compatibility components: component j answers
    the query against the j-th pool member in arrival order, so the two
    pools consume the same draw wherever their prefixes overlap.  The
    first pool perishes according to the configured departure
    distribution; the second never perishes.  Returns the two run stats
    and ``max_gap``, the maximum over event times of (first pool size
    minus second pool size).
    """
    if config.policy is not PolicyKind.GREEDY:
        raise ConfigError("coupled mode is defined for the greedy policy only")

    streams = RngStreams.from_seed(config.seed)
    rng_arrival = streams.interarrival
    rng_sojourn = streams.sojourn
    rng_compat = streams.compatibility
    rng_tb = streams.tiebreak
    p = config.p
    m, T = config.m, config.T
    departure = config.departure

    next_arrival = sample_interarrival(m, rng_arrival)
    heap: list[tuple[float, int]] = []  # criticality events of the perishing pool

    agents: list[Agent] = []
    # both pools keep arrival order; the perishing one draws its tie-break first
    perishing = _Pool(config.pool_trace)
    never = _Pool(config.pool_trace)
    sides = (perishing, never)
    max_gap = 0

    while True:
        arriving = not heap or (next_arrival, len(agents)) <= heap[0]
        t = next_arrival if arriving else heap[0][0]
        if t > T:
            break
        for side in sides:
            side.advance(t)

        if arriving:
            aid = len(agents) + 1
            sojourn = sample_sojourn(departure, rng_sojourn)
            agent = Agent(aid, t, sojourn, t + sojourn)
            agents.append(agent)
            next_arrival = t + sample_interarrival(m, rng_arrival)

            need = max(len(perishing.ids), len(never.ids))
            bits = rng_compat.random(need) < p if need else np.empty(0, dtype=bool)
            for side in sides:
                hits = np.flatnonzero(bits[: len(side.ids)])
                if hits.size:
                    partner_id = side.ids[hits[int(rng_tb.integers(hits.size))]]
                    side.ids.remove(partner_id)
                    partner = agents[partner_id - 1]
                    side.agent_wait.add(t - partner.arrival_time)
                    side.matched += 2
                    if side is perishing:
                        partner.resolve(AgentOutcome.MATCHED, t, aid)
                        agent.resolve(AgentOutcome.MATCHED, t, partner_id)
                else:
                    side.ids.append(aid)
                    if side is perishing and math.isfinite(agent.critical_time):
                        heappush(heap, (agent.critical_time, aid))
        else:
            agent = agents[heappop(heap)[1] - 1]
            if agent.outcome != AgentOutcome.UNRESOLVED:
                continue
            perishing.ids.remove(agent.id)
            agent.resolve(AgentOutcome.PERISHED, t)
            perishing.agent_wait.add(t - agent.arrival_time)
            perishing.perished += 1

        max_gap = max(max_gap, len(perishing.ids) - len(never.ids))
        for side in sides:
            side.mark(t)

    for side in sides:
        side.advance(T)
        for aid in side.ids:
            side.agent_wait.add(T - agents[aid - 1].arrival_time)
    for aid in perishing.ids:
        agents[aid - 1].resolve(AgentOutcome.IN_POOL_AT_HORIZON, T)

    return (
        perishing.stats(config, departure_kind(departure), len(agents), len(perishing.ids)),
        never.stats(config, "never", len(agents), len(never.ids)),
        max_gap,
    )


def instrument_patient_k1(
    config: MarketConfig, t: float
) -> tuple[int, int, int, int, int]:
    """Patient-run snapshot of the recent past of time ``t``.

    Runs the configured patient market (unit constant sojourn required)
    and returns ``(k1, k2, k3, l, K1)``: the arrival counts of the three
    thirds of [t-4/3, t-1/3), the number of those arrivals still pooled at
    t-1/3, and how many of the first third's arrivals are still pooled at
    t-1/3.
    """
    if config.policy is not PolicyKind.PATIENT:
        raise ConfigError("instrumentation requires the patient policy")
    if config.departure != Constant(1.0):
        raise ConfigError("instrumentation requires a constant unit sojourn")
    if not (4.0 / 3.0 <= t <= config.T - 1.0 / 3.0):
        raise RangeError(f"t={t} outside [4/3, T - 1/3] for T={config.T}")

    stats = run(config, keep_agents=True)
    snap = t - 1.0 / 3.0
    k = [0, 0, 0]
    l = 0
    K1 = 0
    lo = t - 4.0 / 3.0
    for agent in stats.agents:
        at = agent.arrival_time
        if at < lo or at >= snap:
            continue
        band = min(int((at - lo) * 3.0), 2)
        k[band] += 1
        if agent.outcome_time > snap:
            l += 1
            if band == 0:
                K1 += 1
    return k[0], k[1], k[2], l, K1
