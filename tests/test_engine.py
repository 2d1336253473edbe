"""Engine behavior: event ordering, conservation, waiting identities,
coupled pools, and the patient-run instrumentation."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynmatch.engine as engine
from conftest import ReferenceOracle, ks_critical, ks_two_sample, pooled_se
from dynmatch import (
    AgentOutcome,
    ConfigError,
    Constant,
    Exponential,
    FormatError,
    MarketConfig,
    Mixture,
    NeverPerish,
    NumericError,
    PairCompatibilityOracle,
    PolicyKind,
    RangeError,
    Uniform,
    instrument_patient_k1,
    mix_seed,
    pool_integral,
    run,
    run_coupled,
)
from dynmatch.oracles import UrnSpec, check_timechange, urn_exceedance


def config(**overrides) -> MarketConfig:
    kwargs = dict(
        m=200.0,
        d=3.0,
        T=10.0,
        policy=PolicyKind.GREEDY,
        departure=Constant(1.0),
        seed=1,
        pool_trace=True,
    )
    kwargs.update(overrides)
    return MarketConfig(**kwargs)


ALL_POLICIES = list(PolicyKind)
SOME_DEPARTURES = [
    Constant(1.0),
    Exponential(1.0),
    Uniform(0.5, 1.5),
    NeverPerish(),
    Mixture(((0.7, Constant(1.0)), (0.3, Constant(4.0)))),
]


class TestRunBasics:
    def test_empty_market(self):
        # seed 0 gives a first interarrival far beyond this tiny horizon
        stats = run(config(m=1.0, d=0.5, T=1e-9, seed=0))
        assert stats.arrivals == stats.matched == stats.perished == stats.pool_at_T == 0
        assert stats.loss == 0.0 and stats.total_wait == 0.0 and stats.avg_wait == 0.0

    def test_determinism(self):
        a = run(config(seed=77))
        b = run(config(seed=77))
        assert a == b

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("departure", SOME_DEPARTURES, ids=lambda s: type(s).__name__)
    def test_conservation_and_wait_identity(self, policy, departure):
        stats = run(config(policy=policy, departure=departure, seed=5), keep_agents=True)
        assert stats.arrivals == stats.matched + stats.perished + stats.pool_at_T
        assert stats.matched % 2 == 0
        assert stats.loss == stats.perished / (stats.m * stats.T)
        integral = pool_integral(stats.pool_trajectory, stats.T)
        per_agent = math.fsum(
            min(a.outcome_time, stats.T) - a.arrival_time for a in stats.agents
        )
        assert abs(integral - per_agent) <= 1e-9
        assert abs(stats.total_wait - integral) <= 1e-9

    def test_never_perish_never_perishes(self):
        stats = run(config(departure=NeverPerish(), seed=3))
        assert stats.perished == 0

    def test_pair_queries_at_most_once(self, monkeypatch):
        seen: set[tuple[int, int]] = set()
        queries = []
        query_block = PairCompatibilityOracle.query_block

        def recording(self, agent_id, member_ids):
            for member in member_ids:  # run's pool entries (critical_time, id, arrival_time)
                mid = member[1]
                pair = (min(agent_id, mid), max(agent_id, mid))
                if pair in seen:
                    raise AssertionError(f"pair {pair} queried twice")
                seen.add(pair)
            queries.append(len(member_ids))
            return query_block(self, agent_id, member_ids)

        monkeypatch.setattr(PairCompatibilityOracle, "query_block", recording)
        for policy in ALL_POLICIES:
            seen.clear()
            queries.clear()
            run(config(policy=policy, m=100.0, T=5.0, seed=9))
            assert queries, f"no compatibility query recorded under {policy.value}"

        seen.clear()
        oracle = PairCompatibilityOracle(np.random.default_rng(0), 0.5)
        oracle.query_block(1, [(0.0, 2, 0.0), (0.0, 3, 0.0)])
        with pytest.raises(AssertionError, match="queried twice"):
            oracle.query_block(3, [(0.0, 1, 0.0)])

    def test_matched_pairs_are_consistent(self):
        stats = run(config(policy=PolicyKind.PATIENT, seed=11), keep_agents=True)
        partners = {}
        for agent in stats.agents:
            if agent.outcome == AgentOutcome.MATCHED:
                partners[agent.id] = agent.partner_id
        assert len(partners) == stats.matched
        for aid, pid in partners.items():
            assert partners[pid] == aid
            a, b = stats.agents[aid - 1], stats.agents[pid - 1]
            assert a.outcome_time == b.outcome_time
            # both were alive: matched within both agents' sojourn windows
            assert a.outcome_time <= min(a.critical_time, b.critical_time) + 1e-12

    def test_full_density_pool_alternates(self):
        # p = 1: everyone matches the single pool member, sizes stay in {0, 1}
        stats = run(config(m=10.0, d=10.0, T=50.0, departure=NeverPerish(), seed=21), keep_agents=True)
        sizes = {size for _, size in stats.pool_trajectory}
        assert sizes <= {0, 1}
        assert stats.perished == 0
        # under never-perish, matched count is maximal: floor(arrivals / 2) pairs
        assert stats.matched == 2 * (stats.arrivals // 2)

    def test_full_density_with_perishing_stays_binary(self):
        stats = run(config(m=10.0, d=10.0, T=50.0, departure=Constant(0.3), seed=22))
        assert {size for _, size in stats.pool_trajectory} <= {0, 1}

    def test_agents_not_kept_by_default(self):
        assert run(config(seed=2)).agents is None


class TestLedgerChecks:
    """The end-of-run ledger raises ``NumericError`` when an invariant breaks."""

    @staticmethod
    def close_out(arrivals: int, agent_wait: float):
        # 4 matched, 1 perished and agents 1 and 2 (arrived at 1 and 3) still
        # pooled at T = 10; a pool integral of 12 up to t = 8 plus the horizon
        # step 2 * (10 - 8) equals the pooled waits 9 + 7 on top of agent_wait = 0
        return engine._close_out(config(T=10.0), "constant", arrivals, 4, 1, [1.0, 3.0],
                                 8.0, 12.0, 0.0, agent_wait, 0.0, None)

    def test_balanced_ledger_passes(self):
        stats = self.close_out(7, 0.0)
        assert (stats.arrivals, stats.pool_at_T, stats.total_wait) == (7, 2, 16.0)

    def test_conservation_breach_raises(self):
        with pytest.raises(NumericError, match="conservation"):
            self.close_out(8, 0.0)

    def test_waiting_time_identity_breach_raises(self):
        with pytest.raises(NumericError, match="waiting-time identity"):
            self.close_out(7, 1e-6)


class TestRunMemory:
    """A plain run keeps state only for pooled agents, so its memory follows
    the pool, not the horizon."""

    @staticmethod
    def peak(cfg: MarketConfig) -> int:
        tracemalloc.start()
        try:
            run(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("policy, departure", [
        (PolicyKind.GREEDY, Constant(1.0)),
        (PolicyKind.PATIENT, Exponential(1.0)),
        (PolicyKind.GREEDY_SOJOURN, Exponential(1.0)),
    ])
    def test_peak_does_not_grow_with_the_horizon(self, policy, departure):
        # no trajectory: it grows with T by design
        cfg = config(m=300.0, d=5.0, T=20.0, policy=policy, departure=departure, pool_trace=False)
        run(cfg)  # warm-up, so one-off first-call allocations count for neither horizon
        short = self.peak(cfg)
        long = self.peak(dataclasses.replace(cfg, T=100.0))
        assert long <= 1.2 * short, f"tracemalloc peak {short} B at T=20 but {long} B at T=100"


PROPERTY_DEPARTURES = [
    Constant(0.0),
    Exponential(1.0),
    Uniform(0.5, 1.5),
    NeverPerish(),
    Mixture(((0.4, NeverPerish()), (0.6, Mixture(((0.5, Constant(0.5)), (0.5, Exponential(2.0))))))),
]


@st.composite
def small_markets(draw) -> MarketConfig:
    m = draw(st.floats(min_value=0.5, max_value=80.0))
    d = draw(st.one_of(st.just(m), st.floats(min_value=0.02, max_value=1.0).map(lambda f: f * m)))
    return MarketConfig(
        m=m,
        d=d,
        T=draw(st.one_of(st.just(1e-6), st.floats(min_value=0.01, max_value=5.0))),
        policy=draw(st.sampled_from(ALL_POLICIES)),
        departure=draw(st.sampled_from(PROPERTY_DEPARTURES)),
        seed=draw(st.integers(min_value=0, max_value=(1 << 64) - 1)),
        pool_trace=True,
    )


class TestRunProperties:
    @given(small_markets())
    @settings(max_examples=150, deadline=None)
    def test_invariants_on_random_markets(self, cfg):
        # under the engine's oracle and the v1 reference; Hypothesis refuses
        # function-scoped fixtures, so the patch is made here
        for oracle in (PairCompatibilityOracle, ReferenceOracle):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "PairCompatibilityOracle", oracle)
                self.check_invariants(cfg)

    @staticmethod
    def check_invariants(cfg: MarketConfig) -> None:
        stats = run(cfg, keep_agents=True)
        assert stats.arrivals == stats.matched + stats.perished + stats.pool_at_T
        assert stats.matched % 2 == 0
        assert run(cfg, keep_agents=True) == stats
        # every final outcome is the one the ledger counted (Counter equality
        # drops zero counts)
        assert Counter(a.outcome for a in stats.agents) == Counter({
            AgentOutcome.MATCHED: stats.matched,
            AgentOutcome.PERISHED: stats.perished,
            AgentOutcome.IN_POOL_AT_HORIZON: stats.pool_at_T,
        })
        for agent in stats.agents:
            if agent.outcome == AgentOutcome.MATCHED:
                other = stats.agents[agent.partner_id - 1]
                assert other.partner_id == agent.id
                assert other.outcome == AgentOutcome.MATCHED
                assert other.outcome_time == agent.outcome_time
            else:
                assert agent.partner_id is None
        per_agent = math.fsum(min(a.outcome_time, cfg.T) - a.arrival_time for a in stats.agents)
        assert abs(pool_integral(stats.pool_trajectory, cfg.T) - per_agent) <= 1e-9


class TestPrefixConsistency:
    @given(small_markets(), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=100, deadline=None)
    def test_shorter_horizon_is_a_prefix(self, cfg, fraction):
        # a run to T1 < T2 is the run to T2 cut at T1, so the counts of the
        # longer run's records up to T1 are the shorter run's exact ledger
        T1 = fraction * cfg.T
        short = run(dataclasses.replace(cfg, T=T1))
        full = run(cfg, keep_agents=True)
        assert short.pool_trajectory == [p for p in full.pool_trajectory if p[0] <= T1]
        assert short.arrivals == sum(a.arrival_time <= T1 for a in full.agents)
        ended = Counter(a.outcome for a in full.agents if a.outcome_time <= T1)
        assert (short.matched, short.perished) == (ended[AgentOutcome.MATCHED], ended[AgentOutcome.PERISHED])


class TestEquivalenceToReference:
    """Engine v2 against the v1 reference oracle, in law: over 200 seeds of a
    small market per policy and departure, a two-sample KS test at level
    1e-3 and a z-test of the means on each statistic.  The two sides take
    disjoint seeds, so their samples are independent."""

    SEEDS = 200
    MARKET = dict(m=40.0, d=3.0, T=5.0, pool_trace=False)
    DEPARTURES = {
        "const:1": Constant(1.0),
        "exp:1": Exponential(1.0),
        "unif:0.5:1.5": Uniform(0.5, 1.5),
        "mix": Mixture(((0.6, Constant(0.5)), (0.4, Exponential(2.0)))),
    }

    @staticmethod
    def assert_same_law(name: str, v2: np.ndarray, v1: np.ndarray) -> None:
        n = v2.size * v1.size / (v2.size + v1.size)
        assert ks_two_sample(v2, v1) < ks_critical(n, 1e-3), name
        se = pooled_se(v2, v1)
        assert (abs(v2.mean() - v1.mean()) < 4 * se) if se > 0 else v2.mean() == v1.mean(), name

    def samples(self, request, call, **cfg) -> tuple[np.ndarray, np.ndarray]:
        """``call(config(seed=...))`` over SEEDS seeds on v2, then on the reference."""
        v2 = [call(config(**self.MARKET, **cfg, seed=mix_seed(1, i))) for i in range(self.SEEDS)]
        request.getfixturevalue("reference_oracle")
        v1 = [call(config(**self.MARKET, **cfg, seed=mix_seed(2, i))) for i in range(self.SEEDS)]
        return np.array(v2, dtype=float), np.array(v1, dtype=float)

    @pytest.mark.parametrize("departure", sorted(DEPARTURES))
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.value)
    def test_run_statistics(self, policy, departure, request):
        def statistics(cfg):
            stats = run(cfg)
            return stats.loss, stats.avg_wait, stats.pool_at_T

        v2, v1 = self.samples(request, statistics, policy=policy, departure=self.DEPARTURES[departure])
        for col, name in enumerate(("loss", "avg_wait", "pool_at_T")):
            self.assert_same_law(name, v2[:, col], v1[:, col])

    @pytest.mark.parametrize("departure", ["const:1", "exp:1"])
    def test_coupled_gap(self, departure, request):
        v2, v1 = self.samples(request, lambda cfg: run_coupled(cfg)[2], departure=self.DEPARTURES[departure])
        self.assert_same_law("gap", v2, v1)


class TestEventOrder:
    """Event order under exact float ties, and pinned sample paths.

    With unit interarrivals every arrival coincides with the criticality of
    an earlier agent.  An arrival comes after the criticality of every older
    agent but before that of the agent who arrived last.
    """

    @pytest.fixture
    def unit_gaps(self, monkeypatch):
        monkeypatch.setattr(engine, "arrival_times", lambda m, rng: itertools.count(1.0))

    @staticmethod
    def pairs(stats) -> list[tuple[int, int, float]]:
        return [
            (a.id, a.partner_id, a.outcome_time)
            for a in stats.agents
            if a.outcome == AgentOutcome.MATCHED and a.id < a.partner_id
        ]

    def test_greedy_arrival_precedes_criticality_of_the_last_arrival(self, unit_gaps):
        stats = run(config(m=5.0, d=5.0, T=10.5), keep_agents=True)
        assert stats.arrivals == 10 and stats.perished == 0 and stats.pool_at_T == 0
        assert self.pairs(stats) == [(k, k + 1, float(k + 1)) for k in range(1, 10, 2)]

    def test_patient_criticality_of_an_older_agent_precedes_the_arrival(self, unit_gaps):
        stats = run(
            config(m=5.0, d=5.0, T=10.5, policy=PolicyKind.PATIENT, departure=Constant(2.0)),
            keep_agents=True,
        )
        assert stats.arrivals == 10 and stats.perished == 0 and stats.pool_at_T == 2
        assert self.pairs(stats) == [(k, k + 1, float(k + 2)) for k in range(1, 8, 2)]
        assert [a.outcome for a in stats.agents[8:]] == [AgentOutcome.IN_POOL_AT_HORIZON] * 2

    def test_coupled_greedy_arrival_precedes_criticality_of_the_last_arrival(self, unit_gaps):
        stats_a, stats_b, gap = run_coupled(config(m=5.0, d=5.0, T=10.5))
        alternating = [(0.0, 0)] + [(float(t), t % 2) for t in range(1, 11)]
        for stats in (stats_a, stats_b):
            assert (stats.arrivals, stats.matched, stats.perished, stats.pool_at_T) == (10, 10, 0, 0)
            assert stats.pool_trajectory == alternating
        assert gap == 0

    # A Constant sojourn sends criticality events through a FIFO queue, any
    # other departure through the heap.  A one-component mixture of the same
    # constant spends one sojourn-stream uniform on its pick, which no other
    # draw reads, so its sample path is the same and only its kind differs.
    @staticmethod
    def fifo_and_heap(c: float, ties: bool, request) -> list[MarketConfig]:
        if ties:
            request.getfixturevalue("unit_gaps")
        market = dict(m=5.0, d=2.0, T=40.5) if ties else dict(m=200.0, d=3.0, T=10.0)
        return [config(departure=dep, seed=3, **market) for dep in (Constant(c), Mixture(((1.0, Constant(c)),)))]

    @pytest.mark.parametrize("ties", [False, True], ids=["poisson", "unit-gaps"])
    @pytest.mark.parametrize("c", [0.0, 1.0])
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.value)
    def test_fifo_queue_equals_heap(self, policy, c, ties, request):
        fifo, heap = (
            run(dataclasses.replace(cfg, policy=policy), keep_agents=True)
            for cfg in self.fifo_and_heap(c, ties, request)
        )
        assert (fifo.departure_kind, heap.departure_kind) == ("constant", "mixture")
        assert fifo.total_wait.hex() == heap.total_wait.hex()
        # repr shows every float exactly: counts, trajectory and agents bit for bit
        assert repr(dataclasses.replace(fifo, departure_kind="mixture")) == repr(heap)

    @pytest.mark.parametrize("ties", [False, True], ids=["poisson", "unit-gaps"])
    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_coupled_fifo_queue_equals_heap(self, c, ties, request):
        fifo, heap = (run_coupled(cfg) for cfg in self.fifo_and_heap(c, ties, request))
        assert (fifo[0].departure_kind, heap[0].departure_kind) == ("constant", "mixture")
        assert fifo[0].total_wait.hex() == heap[0].total_wait.hex()
        assert repr((dataclasses.replace(fifo[0], departure_kind="mixture"), *fifo[1:])) == repr(heap)

    # (arrivals, matched, perished, pool_at_T, total_wait.hex(), trajectory
    # length) at m=200, d=3, T=10, seed 7.  A change of engine that alters
    # a sample path updates these together with its version.  The unsuffixed
    # tables pin engine v1 and run on the reference oracle; the _V2 tables pin
    # the engine as it is.
    GOLDEN_DEPARTURES = {
        "const:1": Constant(1.0),
        "exp:1": Exponential(1.0),
        "unif:0.5:1.5": Uniform(0.5, 1.5),
        "never": NeverPerish(),
        "mix": Mixture(((0.7, Constant(1.0)), (0.3, Constant(4.0)))),
    }
    GOLDEN_RUN = {
        ("greedy", "const:1"): (2070, 1948, 81, 41, "0x1.9d6ddc7c8cf7cp+8", 2152),
        ("greedy", "exp:1"): (2070, 1704, 329, 37, "0x1.54b14056d3ab9p+8", 2400),
        ("greedy", "unif:0.5:1.5"): (2070, 1918, 115, 37, "0x1.909c2baff037ap+8", 2186),
        ("greedy", "never"): (2070, 2020, 0, 50, "0x1.aee9f06e31533p+8", 2071),
        ("greedy", "mix"): (2070, 1962, 64, 44, "0x1.9c32513c33f82p+8", 2135),
        ("patient", "const:1"): (2070, 1804, 104, 162, "0x1.74a859d6cf0c1p+10", 3077),
        ("patient", "exp:1"): (2070, 1702, 230, 138, "0x1.0567ce1de5560p+10", 3152),
        ("patient", "unif:0.5:1.5"): (2070, 1776, 135, 159, "0x1.66dc4f8949fe8p+10", 3094),
        ("patient", "never"): (2070, 0, 0, 2070, "0x1.457bc01cf7f99p+13", 2071),
        ("patient", "mix"): (2070, 1796, 48, 226, "0x1.053b9e0728cafp+11", 3017),
        ("greedy-sojourn", "const:1"): (2070, 1960, 67, 43, "0x1.9d71508004f90p+8", 2138),
        ("greedy-sojourn", "exp:1"): (2070, 1750, 279, 41, "0x1.61fe9fb8d2fffp+8", 2350),
        ("greedy-sojourn", "unif:0.5:1.5"): (2070, 1956, 86, 28, "0x1.9626231cc64e8p+8", 2157),
        ("greedy-sojourn", "never"): (2070, 2020, 0, 50, "0x1.aee9f06e31533p+8", 2071),
        ("greedy-sojourn", "mix"): (2070, 1990, 37, 43, "0x1.a77cdd9ce0eccp+8", 2108),
    }
    GOLDEN_RUN_V2 = {
        ("greedy", "const:1"): (2070, 1932, 96, 42, "0x1.9f03dabbd1318p+8", 2167),
        ("greedy", "exp:1"): (2070, 1694, 334, 42, "0x1.5e0c7d89bc71bp+8", 2405),
        ("greedy", "unif:0.5:1.5"): (2070, 1900, 124, 46, "0x1.a44217d3d6600p+8", 2195),
        ("greedy", "never"): (2070, 2028, 0, 42, "0x1.cc07a5e239aeap+8", 2071),
        ("greedy", "mix"): (2070, 1948, 73, 49, "0x1.ad2dd7dc3ae07p+8", 2144),
        ("patient", "const:1"): (2070, 1804, 105, 161, "0x1.718c9918e811fp+10", 3078),
        ("patient", "exp:1"): (2070, 1710, 230, 130, "0x1.059eb16a016ecp+10", 3156),
        ("patient", "unif:0.5:1.5"): (2070, 1780, 120, 170, "0x1.6a79e4fc8b018p+10", 3081),
        ("patient", "never"): (2070, 0, 0, 2070, "0x1.457bc01cf7f99p+13", 2071),
        ("patient", "mix"): (2070, 1778, 45, 247, "0x1.05f9f645299a3p+11", 3005),
        ("greedy-sojourn", "const:1"): (2070, 1956, 69, 45, "0x1.b0d6c9ebd7413p+8", 2140),
        ("greedy-sojourn", "exp:1"): (2070, 1740, 292, 38, "0x1.65ad82c2c8e74p+8", 2363),
        ("greedy-sojourn", "unif:0.5:1.5"): (2070, 1934, 90, 46, "0x1.b33817be7292ep+8", 2161),
        ("greedy-sojourn", "never"): (2070, 2028, 0, 42, "0x1.cc07a5e239aeap+8", 2071),
        ("greedy-sojourn", "mix"): (2070, 1980, 42, 48, "0x1.bb692a683a440p+8", 2113),
    }
    NEVER_SIDE = (2070, 2020, 0, 50, "0x1.aee9f06e31533p+8", 2071)
    GOLDEN_COUPLED = {
        "const:1": (2070, 1926, 96, 48, "0x1.8ffa0d7565159p+8", 2167),
        "exp:1": (2070, 1686, 344, 40, "0x1.4db8b36456e7fp+8", 2415),
        "unif:0.5:1.5": (2070, 1898, 126, 46, "0x1.8738fffc9e3bcp+8", 2197),
        "never": NEVER_SIDE,
        "mix": (2070, 1954, 67, 49, "0x1.984b560bff4ecp+8", 2138),
    }
    # (perishing side, never side, gap): where the perishing pool is the
    # larger one, its longer query moves the never side off a plain run's path
    NEVER_SIDE_V2 = (2070, 2028, 0, 42, "0x1.cc07a5e239aeap+8", 2071)
    GOLDEN_COUPLED_V2 = {
        "const:1": ((2070, 1914, 112, 44, "0x1.acf1ae315743bp+8", 2183),
                    (2070, 2022, 0, 48, "0x1.ce191df739023p+8", 2071), 1),
        "exp:1": ((2070, 1666, 367, 37, "0x1.5deba1260c3c1p+8", 2438), NEVER_SIDE_V2, 0),
        "unif:0.5:1.5": ((2070, 1896, 136, 38, "0x1.a117fb57fc4f0p+8", 2207), NEVER_SIDE_V2, 0),
        "never": (NEVER_SIDE_V2, NEVER_SIDE_V2, 0),
        "mix": ((2070, 1960, 65, 45, "0x1.b53119b614988p+8", 2136),
                (2070, 2022, 0, 48, "0x1.c69d90e80b946p+8", 2071), 1),
    }

    @staticmethod
    def fingerprint(stats) -> tuple:
        return (
            stats.arrivals,
            stats.matched,
            stats.perished,
            stats.pool_at_T,
            stats.total_wait.hex(),
            len(stats.pool_trajectory),
        )

    # sha256 of the repr of the per-agent records (id, arrival_time.hex(),
    # critical_time.hex(), outcome, partner_id, outcome_time.hex()) with
    # keep_agents=True at m=200, d=3, T=10, const:1, seed 7
    GOLDEN_AGENTS = {
        "greedy": "4774ae01f57d82505d152c6e5ac1bac41f605afdbbd66be4b2bdff5fe0e4739c",
        "patient": "0adbeed2630c50f2fb363ba7c6ad2bd9ff5e783241f7225ed82ab510ac6e4784",
        "greedy-sojourn": "48485001f9176bdc0e874623a4269f673fdf46c19c6147c22b279eaf5dde0461",
    }
    GOLDEN_AGENTS_V2 = {
        "greedy": "ee0ac11c5066fdaf7029d080183e54abbaa0a40e263bdfa19ce5c75fd0b598bb",
        "patient": "883feb6ace3e6be2123eb2fb2b10a2ca25add1208a55da3fe5754e9cf97cdee4",
        "greedy-sojourn": "66dd101ed19d9f30a9f7efec5404e268501c68c08e9fcc91cabe8920707d7cde",
    }

    @staticmethod
    def agents_digest(policy: str) -> str:
        stats = run(config(policy=PolicyKind(policy), seed=7), keep_agents=True)
        records = [
            (a.id, a.arrival_time.hex(), a.critical_time.hex(), int(a.outcome), a.partner_id,
             a.outcome_time.hex())
            for a in stats.agents
        ]
        assert len(records) == stats.arrivals == 2070
        return hashlib.sha256(repr(records).encode()).hexdigest()

    def golden_run(self, policy: str, departure: str) -> tuple:
        cfg = config(policy=PolicyKind(policy), departure=self.GOLDEN_DEPARTURES[departure], seed=7)
        return self.fingerprint(run(cfg))

    def golden_coupled(self, departure: str) -> tuple:
        stats_a, stats_b, gap = run_coupled(config(departure=self.GOLDEN_DEPARTURES[departure], seed=7))
        return self.fingerprint(stats_a), self.fingerprint(stats_b), gap

    @pytest.mark.usefixtures("reference_oracle")
    @pytest.mark.parametrize("policy", sorted(GOLDEN_AGENTS))
    def test_run_golden_agents(self, policy):
        assert self.agents_digest(policy) == self.GOLDEN_AGENTS[policy]

    @pytest.mark.usefixtures("reference_oracle")
    @pytest.mark.parametrize("policy, departure", sorted(GOLDEN_RUN))
    def test_run_golden(self, policy, departure):
        assert self.golden_run(policy, departure) == self.GOLDEN_RUN[policy, departure]

    @pytest.mark.usefixtures("reference_oracle")
    @pytest.mark.parametrize("departure", sorted(GOLDEN_COUPLED))
    def test_run_coupled_golden(self, departure):
        assert self.golden_coupled(departure) == (self.GOLDEN_COUPLED[departure], self.NEVER_SIDE, 0)

    @pytest.mark.parametrize("policy", sorted(GOLDEN_AGENTS_V2))
    def test_run_golden_agents_v2(self, policy):
        assert self.agents_digest(policy) == self.GOLDEN_AGENTS_V2[policy]

    @pytest.mark.parametrize("policy, departure", sorted(GOLDEN_RUN_V2))
    def test_run_golden_v2(self, policy, departure):
        assert self.golden_run(policy, departure) == self.GOLDEN_RUN_V2[policy, departure]

    @pytest.mark.parametrize("departure", sorted(GOLDEN_COUPLED_V2))
    def test_run_coupled_golden_v2(self, departure):
        assert self.golden_coupled(departure) == self.GOLDEN_COUPLED_V2[departure]

    # sha256 of repr(run(...)) with pool_trace=True at the paper's scale of
    # pool, m=1000, d=5, T=20, seed 7: 11k-35k compatibility hits, so 11-35
    # blocks of geometric gaps, where the tables above draw 1-3
    GOLDEN_PAPER_SCALE_V2 = {
        ("greedy", "const:1"): "d364a84a084d07e5ea056d273fa1c3fcb9ae8d7ab9bfeab7352d9f5f15e5074d",
        ("greedy", "exp:1"): "0cca216a12382440369f11e351ecaf0a44a23217b361c764c2258e26d3f50862",
        ("patient", "const:1"): "f8d1a75a420337c8fdd3dbcf09fc09b6b4d1bc333ce37a701d45aa0cf9ea8fb2",
        ("patient", "exp:1"): "153dc5804ce8ce0b54bc824def96fe8a9d0217a2f2befead916ac4d738a9026e",
        ("greedy-sojourn", "const:1"): "9628dde221bf31ce37afe7f42a324752ff1f68afdb966d2d07e5d0b10b6a09f4",
        ("greedy-sojourn", "exp:1"): "82dc5d899e0761d67ea25ee5988efedd641bea43cbfde6419840bead0b33b1a8",
    }

    @pytest.mark.parametrize("policy, departure", sorted(GOLDEN_PAPER_SCALE_V2))
    def test_run_golden_paper_scale_v2(self, policy, departure):
        cfg = config(m=1000.0, d=5.0, T=20.0, policy=PolicyKind(policy),
                     departure=self.GOLDEN_DEPARTURES[departure], seed=7)
        digest = hashlib.sha256(repr(run(cfg)).encode()).hexdigest()
        assert digest == self.GOLDEN_PAPER_SCALE_V2[policy, departure]


class TestPoolIntegral:
    def test_empty_trajectory(self):
        assert pool_integral([(0.0, 0)], 5.0) == 0.0

    def test_rectangle_sum(self):
        assert pool_integral([(0.0, 0), (1.0, 2), (3.0, 1)], 4.0) == pytest.approx(5.0)

    def test_unsorted_rejected(self):
        with pytest.raises(FormatError):
            pool_integral([(0.0, 0), (2.0, 1), (1.0, 2)], 4.0)

    def test_bad_start_rejected(self):
        with pytest.raises(FormatError):
            pool_integral([(1.0, 0)], 4.0)
        with pytest.raises(FormatError):
            pool_integral([], 4.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.001, max_value=2.0),
                st.integers(min_value=0, max_value=20),
            ),
            min_size=0,
            max_size=20,
        ),
        st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_riemann_oracle(self, increments, T):
        times = np.cumsum([dt for dt, _ in increments])
        trajectory = [(0.0, 0)] + [(float(t), size) for t, (_, size) in zip(times, increments)]
        expected = 0.0
        for (t0, size), (t1, _) in zip(trajectory, trajectory[1:]):
            expected += size * (min(t1, T) - min(t0, T))
        if trajectory[-1][0] < T:
            expected += trajectory[-1][1] * (T - trajectory[-1][0])
        assert pool_integral(trajectory, T) == pytest.approx(expected, abs=1e-9)


class TestRunStats:
    def test_csv_row_and_json_shape(self):
        stats = run(config(seed=4))
        row = stats.csv_row()
        assert len(row) == len(engine.RUN_CSV_COLUMNS)
        payload = stats.to_json_dict()
        assert payload["arrivals"] == stats.arrivals
        assert payload["policy"] == "greedy"


class TestCoupledPools:
    def test_gap_at_most_one_constant_departure(self):
        _, _, gap = run_coupled(config(m=200.0, d=4.0, T=20.0, seed=13))
        assert gap <= 1

    def test_never_perish_sides_are_identical(self):
        stats_a, stats_b, gap = run_coupled(config(departure=NeverPerish(), seed=17))
        assert gap == 0
        assert stats_a.pool_trajectory == stats_b.pool_trajectory
        assert stats_a == stats_b

    def test_gap_bound_across_hundred_seeds(self):
        for seed in range(100):
            _, _, gap = run_coupled(
                config(m=100.0, d=3.0, T=10.0, departure=Exponential(1.0), seed=seed, pool_trace=False)
            )
            assert gap <= 1

    def test_requires_greedy_policy(self):
        with pytest.raises(ConfigError):
            run_coupled(config(policy=PolicyKind.PATIENT))

    def test_sides_conserve_and_track_wait(self):
        stats_a, stats_b, _ = run_coupled(config(seed=23))
        for stats in (stats_a, stats_b):
            assert stats.arrivals == stats.matched + stats.perished + stats.pool_at_T
            assert pool_integral(stats.pool_trajectory, stats.T) == pytest.approx(
                stats.total_wait, abs=1e-9
            )
        assert stats_b.perished == 0


class TestTimeChange:
    def test_loss_invariant_under_time_rescaling(self):
        assert check_timechange(runs=200, seed=101)["pass"]


class TestHeterogeneousSojourns:
    def test_mixture_with_unit_floor_meets_greedy_upper_bound(self):
        # urgent/patient mixture: both components keep sojourns >= 1, so the
        # exponential loss guarantee applies to the blended market too
        from dynmatch.analytics import gdy_loss_upper

        mixture = Mixture(((0.5, Constant(1.0)), (0.5, Constant(3.0))))
        losses = np.array(
            [
                run(config(m=300.0, d=4.0, T=20.0, departure=mixture,
                           seed=mix_seed(61, rep), pool_trace=False)).loss
                for rep in range(10)
            ]
        )
        se = losses.std(ddof=1) / math.sqrt(losses.size)
        assert losses.mean() <= gdy_loss_upper(4.0, 1.0) + 3 * se


class TestPerishRateStationarity:
    def test_window_perish_rates_agree_away_from_boundaries(self):
        # empirical form of the loss integral: the perish probability of an
        # agent arriving at time t is flat in t away from warm-up and horizon
        windows = [(2.0, 8.0), (8.0, 14.0)]
        perished = np.zeros(len(windows))
        arrived = np.zeros(len(windows))
        for rep in range(30):
            stats = run(config(T=20.0, seed=mix_seed(7, rep), pool_trace=False), keep_agents=True)
            for agent in stats.agents:
                for w, (lo, hi) in enumerate(windows):
                    if lo <= agent.arrival_time < hi:
                        arrived[w] += 1
                        perished[w] += agent.outcome == AgentOutcome.PERISHED
        rates = perished / arrived
        se = math.sqrt(sum(r * (1 - r) / n for r, n in zip(rates, arrived)))
        assert abs(rates[0] - rates[1]) <= 3.0 * se


class TestInstrumentation:
    def test_rejects_wrong_policy_departure_and_time(self):
        base = config(policy=PolicyKind.PATIENT, m=100.0, T=5.0)
        with pytest.raises(ConfigError):
            instrument_patient_k1(config(policy=PolicyKind.GREEDY, T=5.0), 2.0)
        with pytest.raises(ConfigError):
            instrument_patient_k1(
                config(policy=PolicyKind.PATIENT, departure=Constant(2.0), T=5.0), 2.0
            )
        with pytest.raises(RangeError):
            instrument_patient_k1(base, 1.0)
        with pytest.raises(RangeError):
            instrument_patient_k1(base, 4.9)

    def test_empty_first_interval_gives_zero_k1(self):
        # rate low enough that some seeds see no arrivals in [t-4/3, t-1)
        found = False
        for seed in range(40):
            k1, k2, k3, l, K1 = instrument_patient_k1(
                config(policy=PolicyKind.PATIENT, m=3.0, d=1.0, T=4.0, seed=seed, pool_trace=False),
                t=2.0,
            )
            assert K1 <= min(k1, l)
            assert l <= k1 + k2 + k3
            if k1 == 0:
                assert K1 == 0
                found = True
        assert found

    def test_first_interval_share_and_urn_dominance(self):
        ratios = []
        exceed_obs = []
        exceed_urn = []
        for rep in range(200):
            k1, k2, k3, l, K1 = instrument_patient_k1(
                config(
                    policy=PolicyKind.PATIENT,
                    m=300.0,
                    d=5.0,
                    T=3.0,
                    seed=mix_seed(55, rep),
                    pool_trace=False,
                ),
                t=2.0,
            )
            if l == 0:
                continue
            ratios.append(K1 / l)
            half = (l + 1) // 2
            exceed_obs.append(1.0 if K1 >= half else 0.0)
            exceed_urn.append(urn_exceedance(UrnSpec(k1, k2 + k3, l), half))
        ratios = np.array(ratios)
        se = ratios.std(ddof=1) / math.sqrt(ratios.size)
        assert ratios.mean() <= 0.4 + 3.0 * se
        obs, urn = np.array(exceed_obs), np.array(exceed_urn)
        diff = obs - urn
        se_diff = diff.std(ddof=1) / math.sqrt(diff.size)
        assert diff.mean() <= 3.0 * se_diff + 1e-12
