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
    loss: float
    total_wait: float
    avg_wait: float
    n_runs: int = 1
    pool_trajectory: list[tuple[float, int]] | None = None
    agents: list[Agent] | None = None

    def to_json_dict(self) -> dict:
        return {col: getattr(self, col) for col in RUN_CSV_COLUMNS} | {
            "total_wait": self.total_wait,
            "n_runs": self.n_runs,
        }

    def csv_row(self) -> list:
        return [getattr(self, col) for col in RUN_CSV_COLUMNS]


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

    m, T = config.m, config.T
    horizon = burn_in + T
    warm = burn_in > 0.0
    policy = config.policy
    patient = policy is PolicyKind.PATIENT
    by_sojourn = policy is PolicyKind.GREEDY_SOJOURN
    departure = config.departure

    next_arrival = sample_interarrival(m, rng_arrival)
    heap: list[tuple[float, int]] = []

    agents: list[Agent] = []
    pool: list[int] = []
    pos: dict[int, int] = {}
    traj: list[tuple[float, int]] | None = [(0.0, 0)] if config.pool_trace else None

    arrivals = 0
    matched = 0
    perished = 0
    wait = _Kahan()
    agent_wait = _Kahan()
    t_last = 0.0

    def advance(t: float) -> None:
        nonlocal t_last
        if t > t_last:
            wait.add(len(pool) * (t - t_last))
            t_last = t

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
        advance(t)
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
                agent_wait.add(t - partner.arrival_time)
                matched += 1
            if in_window(agent):
                if not arriving:  # an arriving agent leaves at once, with no wait
                    agent_wait.add(t - agent.arrival_time)
                matched += 1
        elif arriving:
            pos[aid] = len(pool)
            pool.append(aid)
            if math.isfinite(agent.critical_time):
                heappush(heap, (agent.critical_time, aid))
        else:
            agent.resolve(AgentOutcome.PERISHED, t)
            if in_window(agent):
                agent_wait.add(t - agent.arrival_time)
                perished += 1

        if traj is not None and traj[-1][1] != len(pool):
            traj.append((t, len(pool)))

    advance(horizon)
    pool_at_T = 0
    for aid in pool:
        agent = agents[aid - 1]
        agent.resolve(AgentOutcome.IN_POOL_AT_HORIZON, horizon)
        if in_window(agent):
            agent_wait.add(horizon - agent.arrival_time)
            pool_at_T += 1

    if arrivals != matched + perished + pool_at_T:
        raise NumericError("conservation violated: arrivals != matched + perished + pool_at_T")
    if not warm and abs(wait.total - agent_wait.total) > 1e-9:
        raise NumericError(
            f"waiting-time identity violated: {wait.total} vs {agent_wait.total}"
        )
    total_wait = agent_wait.total if warm else wait.total

    return RunStats(
        seed=config.seed,
        m=m,
        d=config.d,
        T=T,
        policy=policy.value,
        departure_kind=departure_kind(departure),
        arrivals=arrivals,
        matched=matched,
        perished=perished,
        pool_at_T=pool_at_T,
        loss=perished / (m * T),
        total_wait=total_wait,
        avg_wait=total_wait / arrivals if arrivals else 0.0,
        pool_trajectory=traj,
        agents=agents if keep_agents else None,
    )


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
    heap: list[tuple[float, int]] = []  # criticality events of the first pool

    agents: list[Agent] = []
    pool_a: list[int] = []  # perishing pool, kept in arrival order
    pool_b: list[int] = []  # never-perish pool, kept in arrival order
    matched_a = matched_b = perished_a = 0
    wait_a = _Kahan()
    wait_b = _Kahan()
    agent_wait_a = _Kahan()
    agent_wait_b = _Kahan()
    t_last = 0.0
    max_gap = 0
    traj_a: list[tuple[float, int]] | None = [(0.0, 0)] if config.pool_trace else None
    traj_b: list[tuple[float, int]] | None = [(0.0, 0)] if config.pool_trace else None

    def advance(t: float) -> None:
        nonlocal t_last
        if t > t_last:
            wait_a.add(len(pool_a) * (t - t_last))
            wait_b.add(len(pool_b) * (t - t_last))
            t_last = t

    def match_in(pool: list[int], hits: np.ndarray) -> int:
        return pool[hits[int(rng_tb.integers(hits.size))]]

    while True:
        arriving = not heap or (next_arrival, len(agents)) <= heap[0]
        t = next_arrival if arriving else heap[0][0]
        if t > T:
            break
        advance(t)

        if arriving:
            aid = len(agents) + 1
            sojourn = sample_sojourn(departure, rng_sojourn)
            agent = Agent(aid, t, sojourn, t + sojourn)
            agents.append(agent)
            next_arrival = t + sample_interarrival(m, rng_arrival)

            ka, kb = len(pool_a), len(pool_b)
            need = max(ka, kb)
            bits = rng_compat.random(need) < p if need else np.empty(0, dtype=bool)

            hits_a = np.flatnonzero(bits[:ka])
            if hits_a.size:
                partner_id = match_in(pool_a, hits_a)
                pool_a.remove(partner_id)
                partner = agents[partner_id - 1]
                partner.resolve(AgentOutcome.MATCHED, t, aid)
                agent.resolve(AgentOutcome.MATCHED, t, partner_id)
                agent_wait_a.add(t - partner.arrival_time)
                matched_a += 2
            else:
                pool_a.append(aid)
                if math.isfinite(agent.critical_time):
                    heappush(heap, (agent.critical_time, aid))

            hits_b = np.flatnonzero(bits[:kb])
            if hits_b.size:
                partner_id = match_in(pool_b, hits_b)
                pool_b.remove(partner_id)
                agent_wait_b.add(t - agents[partner_id - 1].arrival_time)
                matched_b += 2
            else:
                pool_b.append(aid)
        else:
            agent = agents[heappop(heap)[1] - 1]
            if agent.outcome != AgentOutcome.UNRESOLVED:
                continue
            pool_a.remove(agent.id)
            agent.resolve(AgentOutcome.PERISHED, t)
            agent_wait_a.add(t - agent.arrival_time)
            perished_a += 1

        gap = len(pool_a) - len(pool_b)
        if gap > max_gap:
            max_gap = gap
        if traj_a is not None:
            if traj_a[-1][1] != len(pool_a):
                traj_a.append((t, len(pool_a)))
            if traj_b[-1][1] != len(pool_b):
                traj_b.append((t, len(pool_b)))

    advance(T)
    for aid in pool_a:
        agent = agents[aid - 1]
        agent.resolve(AgentOutcome.IN_POOL_AT_HORIZON, T)
        agent_wait_a.add(T - agent.arrival_time)
    for aid in pool_b:
        agent_wait_b.add(T - agents[aid - 1].arrival_time)

    arrivals = len(agents)
    if arrivals != matched_a + perished_a + len(pool_a):
        raise NumericError("conservation violated in coupled perishing pool")
    if arrivals != matched_b + len(pool_b):
        raise NumericError("conservation violated in coupled never-perish pool")
    if abs(wait_a.total - agent_wait_a.total) > 1e-9:
        raise NumericError("waiting-time identity violated in coupled perishing pool")
    if abs(wait_b.total - agent_wait_b.total) > 1e-9:
        raise NumericError("waiting-time identity violated in coupled never-perish pool")

    def stats(kind: str, matched: int, perished: int, pool: list[int], wait: _Kahan, traj) -> RunStats:
        return RunStats(
            seed=config.seed,
            m=m,
            d=config.d,
            T=T,
            policy=PolicyKind.GREEDY.value,
            departure_kind=kind,
            arrivals=arrivals,
            matched=matched,
            perished=perished,
            pool_at_T=len(pool),
            loss=perished / (m * T),
            total_wait=wait.total,
            avg_wait=wait.total / arrivals if arrivals else 0.0,
            pool_trajectory=traj,
        )

    return (
        stats(departure_kind(departure), matched_a, perished_a, pool_a, wait_a, traj_a),
        stats("never", matched_b, 0, pool_b, wait_b, traj_b),
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
