"""Exact event-driven simulation of one market run.

Exactly one arrival is pending at any time, held as a plain float; only
criticality events sit in a heap, as tuples led by ``(critical_time, id)``.
The next event is picked on floats first: with ``head = heap[0]`` and n the
agents so far, the pending arrival goes first iff ``next_arrival < head[0]``
or ``next_arrival == head[0] and n == head[1]``.  So on an exact float time
tie an arrival comes after the criticality of every older agent but before
the criticality of the agent who arrived last.  This deterministic order
realizes the almost-sure uniqueness of event times in the continuous model.
Processing stops at the first event strictly after the horizon T: the
pending arrival is discarded and still-pooled agents are counted at the
horizon.  Under a ``Constant`` sojourn the critical times ``t + c`` never
decrease with the id, so a FIFO ``deque`` replaces the heap and pops in
exactly its ``(critical_time, id)`` order, ties included.

The loops keep pool accounting in locals (members, sizes, counts,
trajectory, and Kahan sums of the pool integral and of the agent waits, in
event order); ``_close_out`` finishes both sums at T, checks conservation
and the waiting-time identity and builds the ``RunStats``.  ``run`` keeps
one pool of entries ``(critical_time, id, arrival_time)`` and no
per-arrival state; ``run_coupled`` keeps two pools of ids.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush

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
    arrival_times,
    tiebreaks,
    uniforms,
)

# Version of the engine's sample paths: within one version a seed fixes every
# output bit.  2 draws compatibility as geometric gaps between hits, where 1
# drew one uniform per pair.
ENGINE_VERSION = 2

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


def _close_out(config: MarketConfig, kind: str, arrivals: int, matched: int, perished: int,
               pooled: list[float], t_last: float, wait: float, wait_c: float,
               agent_wait: float, agent_c: float, traj: list[tuple[float, int]] | None,
               agents: list[Agent] | None = None) -> RunStats:
    """The ledger of one pool at the horizon T, checked, as ``RunStats``.

    ``wait`` (compensation ``wait_c``) integrates the pool size up to
    ``t_last`` and ``agent_wait`` (``agent_c``) sums the waits of the agents
    who left; both Kahan sums continue to T with the loops' update, the
    second over the still-pooled agents, who arrived at the times ``pooled``.
    Conservation and the waiting-time identity raise ``NumericError``.
    """
    T = config.T
    if T > t_last:
        wait += len(pooled) * (T - t_last) - wait_c
    for arrived in pooled:
        y = T - arrived - agent_c
        agent_wait, agent_c = agent_wait + y, (agent_wait + y - agent_wait) - y
    if arrivals != matched + perished + len(pooled):
        raise NumericError(f"conservation violated in the {kind} pool")
    if abs(wait - agent_wait) > 1e-9:
        raise NumericError(
            f"waiting-time identity violated in the {kind} pool: {wait} vs {agent_wait}"
        )
    return RunStats(
        seed=config.seed,
        m=config.m,
        d=config.d,
        T=T,
        policy=config.policy.value,
        departure_kind=kind,
        arrivals=arrivals,
        matched=matched,
        perished=perished,
        pool_at_T=len(pooled),
        total_wait=wait,
        pool_trajectory=traj,
        agents=agents,
    )


def _criticality_queue(departure) -> tuple:
    """``(queue, push, pop)`` for criticality events: ``run``'s pool entries
    ``(critical_time, id, arrival_time)``, ``run_coupled``'s ``(critical_time, id)``.

    A FIFO ``deque`` under ``Constant`` (its events are pushed in heap
    order), else a heap, with ``heappush``/``heappop`` bound by ``partial``."""
    if isinstance(departure, Constant):
        queue = deque()
        return queue, queue.append, queue.popleft
    heap: list[tuple] = []
    return heap, partial(heappush, heap), partial(heappop, heap)


def run(config: MarketConfig, *, keep_agents: bool = False) -> RunStats:
    """Simulate one run under the configured policy and return its stats.

    Greedy flavors query each pool member once at every arrival and match
    immediately when possible (uniform partner, or the compatible member
    closest to departure under greedy-sojourn, ties to the lower id);
    critical agents simply perish.  Patient matching defers everything to
    the critical moment: the critical agent queries each other pool member
    once and matches uniformly among compatibles, or perishes.

    A pooled agent is its entry ``(critical_time, id, arrival_time)``, in
    the pool (``pos`` maps id to index) and in the criticality queue; an
    event whose id left ``pos`` is stale.  A leaving agent is swap-removed
    from the pool in O(1); pool order is irrelevant because every pair draw
    is fresh (see ``PairCompatibilityOracle``).  ``Agent`` records, kept only for
    ``keep_agents``, count ``matched`` and ``perished`` by construction: each count's
    update sits beside its outcome writes, a leaving agent leaves ``pos`` (its later
    events are stale) and the horizon loop writes only still-pooled entries.
    """
    streams = RngStreams.from_seed(config.seed)
    arrivals = arrival_times(config.m, streams.interarrival).__next__
    sojourns = uniforms(streams.sojourn).__next__
    tiebreak = tiebreaks(streams.tiebreak)
    query = PairCompatibilityOracle(streams.compatibility, config.p).query_block

    T = config.T
    patient = config.policy is PolicyKind.PATIENT
    by_sojourn = config.policy is PolicyKind.GREEDY_SOJOURN
    departure = config.departure
    draw_sojourn = departure.sample
    queue, push, pop = _criticality_queue(departure)

    agents: list[Agent] | None = [] if keep_agents else None  # agent id is index + 1
    n = size = 0  # agents so far, agents pooled
    pool: list[tuple[float, int, float]] = []
    pos: dict[int, int] = {}
    traj = [(0.0, 0)] if config.pool_trace else None
    # Kahan sums (total, compensation) of the pool integral and the agent waits
    wait = wait_c = agent_wait = agent_c = t_last = 0.0
    matched = perished = 0
    next_arrival = arrivals()

    while True:
        arriving = not queue or next_arrival < (head := queue[0])[0] or (
            next_arrival == head[0] and n == head[1])
        t = next_arrival if arriving else head[0]
        if t > T:
            break
        if arriving:
            aid = n = n + 1
            s = draw_sojourn(sojourns)
            entry = (t + s, n, t)
            if agents is not None:
                agents.append(Agent(n, t, t + s))
            next_arrival = arrivals()
        else:
            entry = pop()
            aid = entry[1]
            if aid not in pos:
                continue  # already matched; stale event
        if t > t_last:
            y = size * (t - t_last) - wait_c
            wait, wait_c = wait + y, (wait + y - wait) - y
            t_last = t
        if not arriving:
            i, last = pos.pop(aid), pool.pop()
            size -= 1
            if i < size:
                pool[i], pos[last[1]] = last, i

        # greedy flavors search at arrival, patient matching at criticality
        hits = arriving != patient and size and query(aid, pool)
        if hits:
            j = hits[0]
            if len(hits) > 1:
                j = min(hits, key=pool.__getitem__) if by_sojourn else hits[tiebreak(len(hits))]
            partner, last = pool[j], pool.pop()
            del pos[partner[1]]
            size -= 1
            if j < size:
                pool[j], pos[last[1]] = last, j
            y = t - partner[2] - agent_c
            agent_wait, agent_c = agent_wait + y, (agent_wait + y - agent_wait) - y
            matched += 2
            if agents is not None:
                me, other = agents[aid - 1], agents[partner[1] - 1]
                me.outcome, me.partner_id, me.outcome_time = AgentOutcome.MATCHED, other.id, t
                other.outcome, other.partner_id, other.outcome_time = AgentOutcome.MATCHED, aid, t
        elif arriving:
            pos[aid] = size
            size += 1
            pool.append(entry)
            if entry[0] != math.inf:
                push(entry)
        else:
            perished += 1
            if agents is not None:
                agents[aid - 1].outcome, agents[aid - 1].outcome_time = AgentOutcome.PERISHED, t
        if not arriving:  # an arriving agent leaves at once, with no wait
            y = t - entry[2] - agent_c
            agent_wait, agent_c = agent_wait + y, (agent_wait + y - agent_wait) - y

        if traj is not None and traj[-1][1] != size:
            traj.append((t, size))

    if agents is not None:
        for entry in pool:
            agents[entry[1] - 1].outcome = AgentOutcome.IN_POOL_AT_HORIZON
            agents[entry[1] - 1].outcome_time = T
    return _close_out(config, departure.kind, n, matched, perished, [e[2] for e in pool],
                      t_last, wait, wait_c, agent_wait, agent_c, traj, agents)


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
    arrivals = arrival_times(config.m, streams.interarrival).__next__
    sojourns = uniforms(streams.sojourn).__next__
    tiebreak = tiebreaks(streams.tiebreak)
    query = PairCompatibilityOracle(streams.compatibility, config.p).query_block
    T = config.T
    departure = config.departure
    draw_sojourn = departure.sample
    queue, push, pop = _criticality_queue(departure)  # events of the perishing pool

    arrival = array("d", [0.0])  # indexed by id (slot 0 unused)
    matched = bytearray(1)  # matched in the perishing pool
    n = 0
    next_arrival = arrivals()

    # the perishing pool (a) and the never-perishing one (b) keep ascending ids
    # (arrival order), and a draws its tie-break first; sums as in ``run``
    a_ids: list[int] = []
    b_ids: list[int] = []
    a_traj = [(0.0, 0)] if config.pool_trace else None
    b_traj = [(0.0, 0)] if config.pool_trace else None
    a_wait = a_wait_c = b_wait = b_wait_c = a_agent = a_agent_c = b_agent = b_agent_c = t_last = 0.0
    a_matched = b_matched = perished = max_gap = 0

    while True:
        arriving = not queue or next_arrival < (head := queue[0])[0] or (
            next_arrival == head[0] and n == head[1])
        t = next_arrival if arriving else head[0]
        if t > T:
            break
        if t > t_last:
            y = len(a_ids) * (t - t_last) - a_wait_c
            a_wait, a_wait_c = a_wait + y, (a_wait + y - a_wait) - y
            y = len(b_ids) * (t - t_last) - b_wait_c
            b_wait, b_wait_c = b_wait + y, (b_wait + y - b_wait) - y
            t_last = t

        if arriving:
            n += 1
            s = draw_sojourn(sojourns)
            arrival.append(t)
            matched.append(0)
            next_arrival = arrivals()

            # each pool's hits are the shared offsets below its size
            hits = query(n, a_ids if len(a_ids) >= len(b_ids) else b_ids)
            k = bisect_left(hits, len(a_ids))
            if k:
                partner_id = a_ids.pop(hits[0] if k == 1 else hits[tiebreak(k)])
                matched[partner_id] = 1
                y = t - arrival[partner_id] - a_agent_c
                a_agent, a_agent_c = a_agent + y, (a_agent + y - a_agent) - y
                a_matched += 2
            else:
                a_ids.append(n)
                if math.isfinite(t + s):
                    push((t + s, n))
            k = bisect_left(hits, len(b_ids))
            if k:
                partner_id = b_ids.pop(hits[0] if k == 1 else hits[tiebreak(k)])
                y = t - arrival[partner_id] - b_agent_c
                b_agent, b_agent_c = b_agent + y, (b_agent + y - b_agent) - y
                b_matched += 2
            else:
                b_ids.append(n)
        else:
            aid = pop()[1]
            if matched[aid]:
                continue
            del a_ids[bisect_left(a_ids, aid)]
            y = t - arrival[aid] - a_agent_c
            a_agent, a_agent_c = a_agent + y, (a_agent + y - a_agent) - y
            perished += 1

        gap = len(a_ids) - len(b_ids)
        if gap > max_gap:
            max_gap = gap
        if a_traj is not None:
            if a_traj[-1][1] != len(a_ids):
                a_traj.append((t, len(a_ids)))
            if b_traj[-1][1] != len(b_ids):
                b_traj.append((t, len(b_ids)))

    return (
        _close_out(config, departure.kind, n, a_matched, perished, [arrival[i] for i in a_ids],
                   t_last, a_wait, a_wait_c, a_agent, a_agent_c, a_traj),
        _close_out(config, "never", n, b_matched, 0, [arrival[i] for i in b_ids],
                   t_last, b_wait, b_wait_c, b_agent, b_agent_c, b_traj),
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
