"""Domain types, departure sampling, and the seeding contract."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynmatch.core as core
import scipy.stats
from conftest import REFERENCE_BLOCK, ReferenceOracle, ks_critical, ks_statistic
from dynmatch.core import (
    DEPARTURE_VARIANTS,
    ConfigError,
    Constant,
    DomainError,
    Exponential,
    FormatError,
    MarketConfig,
    Mixture,
    NeverPerish,
    PairCompatibilityOracle,
    PolicyKind,
    RngStreams,
    Uniform,
    arrival_times,
    departure_cdf,
    departure_from_dict,
    departure_to_dict,
    exponential_icdf,
    hit_positions,
    mix_seed,
    parse_departure_flag,
    sample_interarrival,
    sample_sojourn,
    tiebreaks,
    uniforms,
)


def rng(seed: int = 1) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


_positive = st.floats(min_value=1e-3, max_value=1e3)
departures = st.recursive(
    st.one_of(
        st.builds(Constant, st.floats(min_value=0.0, max_value=1e4)),
        st.builds(Exponential, _positive),
        st.builds(lambda a, width: Uniform(a, a + width), st.floats(min_value=0.0, max_value=1e3), _positive),
        st.just(NeverPerish()),
    ),
    lambda inner: st.lists(st.tuples(_positive, inner), min_size=1, max_size=4).map(
        lambda components: Mixture(tuple(components))
    ),
    max_leaves=8,
)


class TestDepartureSpecs:
    def test_constant_is_point_mass(self):
        assert sample_sojourn(Constant(1.0), rng()) == 1.0

    def test_never_perish_is_infinite(self):
        assert sample_sojourn(NeverPerish(), rng()) == math.inf

    def test_mixture_mean_matches_law_of_large_numbers(self):
        spec = Mixture(((0.5, Constant(1.0)), (0.5, Constant(3.0))))
        g = rng(7)
        draws = np.array([sample_sojourn(spec, g) for _ in range(100_000)])
        assert abs(draws.mean() - 2.0) < 0.02

    def test_mixture_weights_normalized(self):
        spec = Mixture(((2.0, Constant(1.0)), (6.0, Constant(3.0))))
        weights = [w for w, _ in spec.components]
        assert abs(sum(weights) - 1.0) < 1e-12
        assert weights == [0.25, 0.75]

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: Constant(-1.0),
            lambda: Exponential(0.0),
            lambda: Uniform(2.0, 1.0),
            lambda: Uniform(-1.0, 1.0),
            lambda: Mixture(()),
            lambda: Mixture(((0.0, Constant(1.0)),)),
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            bad()

    def test_each_variant_has_its_own_names(self):
        assert len({v.kind for v in DEPARTURE_VARIANTS}) == len(DEPARTURE_VARIANTS)
        assert len({v.flag for v in DEPARTURE_VARIANTS}) == len(DEPARTURE_VARIANTS)

    def test_support_min(self):
        assert Constant(2.0).support_min() == 2.0
        assert Exponential(1.0).support_min() == 0.0
        assert Uniform(0.5, 1.5).support_min() == 0.5
        assert NeverPerish().support_min() == math.inf
        assert Mixture(((0.5, Constant(1.0)), (0.5, Uniform(0.25, 2.0)))).support_min() == 0.25


class TestDepartureCdf:
    def test_constant_point_mass_values(self):
        assert departure_cdf(Constant(1.0), 0.5) == 0.0
        assert departure_cdf(Constant(1.0), 1.0) == 1.0

    def test_exponential_cdf_value(self):
        assert departure_cdf(Exponential(1.0), 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    def test_never_perish_has_no_finite_mass(self):
        assert departure_cdf(NeverPerish(), 1e12) == 0.0

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            departure_cdf(Constant(1.0), -0.1)

    @given(departures, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_no_mass_below_the_support_minimum(self, spec, seed):
        # the greedy loss and waiting bounds take support_min() as the least sojourn
        low = spec.support_min()
        below = [x for x in (0.0, 0.5 * low, math.nextafter(low, 0.0)) if x < low]
        assert all(departure_cdf(spec, x) == 0.0 for x in below)
        u = uniforms(rng(seed)).__next__
        assert all(spec.sample(u) >= low for _ in range(200))

    @given(st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_cdf_monotone_and_bounded(self, x, y):
        spec = Mixture(
            ((0.3, Constant(1.0)), (0.3, Exponential(0.7)), (0.4, Uniform(0.5, 2.5)))
        )
        lo, hi = sorted((x, y))
        a, b = departure_cdf(spec, lo), departure_cdf(spec, hi)
        assert 0.0 <= a <= b <= 1.0

    @pytest.mark.parametrize(
        "spec",
        [
            Constant(1.0),
            Exponential(1.3),
            Uniform(0.5, 1.5),
            Mixture(((0.5, Constant(1.0)), (0.5, Constant(3.0)))),
            Mixture(((0.4, Exponential(2.0)), (0.6, Uniform(0.0, 1.0)))),
        ],
        ids=["constant", "exponential", "uniform", "two-point", "mixed"],
    )
    def test_samples_match_cdf_by_ks(self, spec):
        g = rng(11)
        n = 100_000
        samples = np.array([sample_sojourn(spec, g) for _ in range(n)])
        d = ks_statistic(samples, lambda x: departure_cdf(spec, x))
        assert d < ks_critical(n, alpha=1e-3)


class TestInterarrival:
    def test_inverse_cdf_values(self):
        u = 1.0 - math.exp(-1.0)
        assert exponential_icdf(u, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert exponential_icdf(u, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_unit_window_counts_are_poisson(self):
        # counts of arrivals per unit window over 1e4 windows at rate 1000
        m, windows = 1000.0, 10_000
        g = rng(5)
        total = int(m * windows * 1.02)
        gaps = -np.log1p(-g.random(total)) / m
        times = np.cumsum(gaps)
        assert times[-1] > windows
        counts = np.bincount(times[times < windows].astype(np.int64), minlength=windows)
        assert counts.size == windows
        mean = counts.mean()
        assert abs(mean - m) < 3.0 * math.sqrt(m / windows)
        assert 0.95 < counts.var(ddof=1) / mean < 1.05

    def test_scalar_draws_match_bulk_inverse_cdf(self):
        g1, g2 = rng(3), rng(3)
        scalar = [sample_interarrival(2.0, g1) for _ in range(100)]
        uniforms = g2.random(100)
        # identical stream consumption; the transform may differ by one ulp
        # between math.log1p and np.log1p
        assert np.array_equal([g1.random() for _ in range(5)], g2.random(5))
        assert np.allclose(scalar, -np.log1p(-uniforms) / 2.0, rtol=1e-14, atol=0)


class TestCompatibilityOracle:
    def test_empirical_rate_within_three_se(self):
        p = 0.05
        oracle = PairCompatibilityOracle(rng(2), p)
        n = 100_000
        hits = 0
        block = list(range(2, 102))
        for i in range(n // 100):
            hits += len(oracle.query_block(1_000_000 + i, block))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * se

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigError):
            PairCompatibilityOracle(rng(1), 0.0)

    @pytest.mark.parametrize("p", [0.05, 1.0, 1e-4, 1e-6])
    def test_hit_offsets_equal_scalar_reference(self, p):
        # the v1 reference oracle: one query larger than a block, the rest
        # crossing block boundaries; the small p leave whole blocks without a hit
        sizes = [0, 1, 5, 300, 3, REFERENCE_BLOCK + 1000, 0, 2, 4000, 7000, 17, 9000, 1]
        assert sum(sizes) > 3 * REFERENCE_BLOCK
        oracle = ReferenceOracle(rng(6), p)
        reference = rng(6)
        for k in sizes:
            offsets = oracle.query_block(1, range(k))
            assert offsets == np.flatnonzero(reference.random(k) < p).tolist()

    def test_draws_at_most_one_block_past_the_queries(self):
        class NoHits:
            calls = 0

            def random(self, n):
                self.calls += 1
                return np.ones(n)

        stub = NoHits()
        oracle = ReferenceOracle(stub, 0.5)
        drawn = 0
        for k in [0, 1, REFERENCE_BLOCK - 1, 0, 1, 5, 3 * REFERENCE_BLOCK, 2, REFERENCE_BLOCK]:
            assert oracle.query_block(1, range(k)) == []
            drawn += k
            assert stub.calls == math.ceil(drawn / REFERENCE_BLOCK)

    @pytest.mark.parametrize("p", [1.0, 0.05, 1e-4, 1e-6])
    def test_hit_positions_equal_cumulative_geometric_gaps(self, p):
        # queries of len(range(k)) members, crossing gap blocks; a query of
        # about a block's span, the rest small or splitting blocks
        span = core._COMPAT_BLOCK / p
        sizes = [0, 1, 5, 300, 3, round(1.2 * span), 0, 2, round(0.01 * span), round(0.9 * span), 17,
                 round(1.5 * span), 1]
        assert sum(sizes) > 3 * span
        oracle = PairCompatibilityOracle(rng(6), p)
        gaps = rng(6)
        hit = gaps.geometric(p) - 1  # absolute position of the next hit
        begin = 0
        for k in sizes:
            expected = []
            while hit < begin + k:
                expected.append(hit - begin)
                hit += gaps.geometric(p)
            assert oracle.query_block(1, range(k)) == expected
            begin += k

    def test_draws_at_most_one_block_of_gaps_past_the_queries(self):
        class EveryThird:
            calls = 0

            def geometric(self, p, n):
                self.calls += 1
                return np.full(n, 3)

        stub = EveryThird()
        oracle = PairCompatibilityOracle(stub, 0.5)
        span = 3 * core._COMPAT_BLOCK  # positions one block of gaps decides
        drawn = 0
        for k in [0, 1, span - 1, span, 0, 1, 5, 3 * span, 2, span, 4]:
            assert oracle.query_block(1, range(k)) == [h for h in range(k) if (drawn + h) % 3 == 2]
            drawn += k
            assert stub.calls == math.ceil(drawn / span)

    @pytest.mark.parametrize("p", [1e-18, 1e-300, 5e-324])
    def test_tiny_probability_finds_no_hit(self, p):
        # numpy caps such gaps at 2^63 - 1, and int64 running sums of them wrap
        oracle = PairCompatibilityOracle(rng(3), p)
        for k in [0, 1, 5, core._COMPAT_BLOCK, 2 * core._COMPAT_BLOCK + 7, 10**12, 3]:
            assert oracle.query_block(1, range(k)) == []
        hits = list(itertools.islice(hit_positions(rng(3), p), 2 * core._COMPAT_BLOCK + 7))
        assert hits[0] >= 0 and all(a < b for a, b in zip(hits, hits[1:]))

    @pytest.mark.parametrize("p", [0.5, 0.05, 1e-3])
    def test_gaps_are_geometric(self, p):
        oracle, sizes = PairCompatibilityOracle(rng(12), p), rng(13)
        positions, begin = [], 0
        while len(positions) < 20_000:
            k = int(sizes.integers(1, 5 / p))
            positions += [begin + h for h in oracle.query_block(1, range(k))]
            begin += k
        gaps = np.diff(np.array(positions), prepend=-1)
        cdf = lambda x: -math.expm1(math.floor(x) * math.log1p(-p))  # noqa: E731
        assert ks_statistic(gaps, cdf) < ks_critical(gaps.size, 1e-3)

    @pytest.mark.parametrize("p, n", [(0.5, 10), (0.05, 60), (1e-3, 3000)])
    def test_hits_per_query_are_binomial(self, p, n):
        oracle = PairCompatibilityOracle(rng(14), p)
        queries = 4000
        counts = np.bincount([len(oracle.query_block(1, range(n))) for _ in range(queries)], minlength=n + 1)
        # pool the tail where the expected count falls below 5
        expected = queries * scipy.stats.binom.pmf(np.arange(n + 1), n, p)
        keep = np.flatnonzero(expected >= 5)
        lo, hi = keep[0], keep[-1]
        observed = np.r_[counts[:lo + 1].sum(), counts[lo + 1:hi], counts[hi:].sum()]
        expected = np.r_[expected[:lo + 1].sum(), expected[lo + 1:hi], expected[hi:].sum()]
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < scipy.stats.chi2.ppf(1 - 1e-3, observed.size - 1)

    def test_full_density_returns_every_offset(self):
        oracle = PairCompatibilityOracle(rng(15), 1.0)
        for k in [0, 1, 7, core._COMPAT_BLOCK + 3, 0, 2 * core._COMPAT_BLOCK, 5]:
            assert oracle.query_block(1, range(k)) == list(range(k))


class TestBlockUniforms:
    def test_same_values_as_scalar_draws_across_refills(self):
        n = 3 * core._UNIFORM_BLOCK + 17
        block, scalar = uniforms(rng(5)), rng(5)
        assert [next(block) for _ in range(n)] == [scalar.random() for _ in range(n)]

    def test_samplers_accept_it_as_rng(self):
        spec = Mixture(((0.5, Exponential(2.0)), (0.5, Uniform(0.2, 3.0))))
        block, scalar = uniforms(rng(8)).__next__, rng(8)
        for _ in range(2 * core._UNIFORM_BLOCK):
            assert exponential_icdf(block(), 3.0) == sample_interarrival(3.0, scalar)
            assert spec.sample(block) == sample_sojourn(spec, scalar)

    def test_arrival_times_are_running_sums_of_scalar_gaps(self):
        n = 3 * core._UNIFORM_BLOCK + 17
        times, scalar = arrival_times(3.0, rng(4)), rng(4)
        t = 0.0
        for _ in range(n):
            t = t + sample_interarrival(3.0, scalar)
            assert next(times) == t

    @pytest.mark.parametrize("p", [1.0, 0.05, 1e-6])
    def test_hit_positions_are_running_sums_of_scalar_gaps(self, p):
        n = 3 * core._COMPAT_BLOCK + 17
        hits, scalar = hit_positions(rng(9), p), rng(9)
        hit = -1
        for _ in range(n):
            hit += int(scalar.geometric(p))
            assert next(hits) == hit


class TestTiebreaks:
    # numpy's bounded-integer path is not part of its stable API: if an
    # upgrade changes it, these tests fail and the engine's tie-breaks with them
    FIXED_K = [1, 2, 3, 1000, 2**31 + 1, 2**32 - 1]

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    def test_equal_to_generator_integers_across_refills(self, seed):
        ks = np.random.default_rng(seed).integers(1, 2**32, 4000).tolist()
        ks = [k for pair in zip(itertools.cycle(self.FIXED_K), ks) for k in pair]
        draw, reference = tiebreaks(rng(seed)), rng(seed)
        # one 32-bit half per draw (more on a redraw): past three blocks of raw words
        assert len(ks) > 3 * 2 * core._UNIFORM_BLOCK
        assert [draw(k) for k in ks] == [int(reference.integers(k)) for k in ks]

    @pytest.mark.parametrize("k", [0, -1, 2**32, 2**40])
    def test_out_of_range_refused(self, k):
        with pytest.raises(DomainError):
            tiebreaks(rng(1))(k)


class TestSeeding:
    def test_same_seed_reproduces_sequences(self):
        a, b = RngStreams.from_seed(99), RngStreams.from_seed(99)
        assert np.array_equal(a.interarrival.random(1000), b.interarrival.random(1000))
        assert np.array_equal(a.sojourn.random(1000), b.sojourn.random(1000))

    def test_streams_are_distinct(self):
        s = RngStreams.from_seed(99)
        assert not np.array_equal(s.interarrival.random(100), s.compatibility.random(100))

    def test_mix_seed_is_deterministic_and_spreads(self):
        assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
        seen = {mix_seed(42, i, j) for i in range(30) for j in range(30)}
        assert len(seen) == 900

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=50, deadline=None)
    def test_mix_seed_stays_in_64_bits(self, seed):
        assert 0 <= mix_seed(seed, 7) < 1 << 64


class TestMarketConfig:
    def good(self, **overrides) -> MarketConfig:
        kwargs = dict(
            m=100.0,
            d=5.0,
            T=10.0,
            policy=PolicyKind.GREEDY,
            departure=Constant(1.0),
            seed=1,
        )
        kwargs.update(overrides)
        return MarketConfig(**kwargs)

    def test_density_above_rate_rejected(self):
        with pytest.raises(ConfigError):
            self.good(d=101.0)

    @pytest.mark.parametrize("field, value", [("m", 0.0), ("T", -1.0), ("d", 0.0), ("seed", -1), ("seed", 1 << 64)])
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ConfigError):
            self.good(**{field: value})

    def test_json_round_trip(self):
        config = self.good(
            policy=PolicyKind.GREEDY_SOJOURN,
            departure=Mixture(
                ((0.5, Constant(1.0)), (0.5, Mixture(((1.0, Uniform(0.0, 2.0)),))))
            ),
        )
        restored = MarketConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config

    def test_departure_dict_round_trip(self):
        for spec in (Constant(2.0), Exponential(0.5), Uniform(1.0, 4.0), NeverPerish()):
            assert departure_from_dict(departure_to_dict(spec)) == spec

    def test_departure_dict_key_order(self):
        assert list(departure_to_dict(Uniform(1.0, 4.0))) == ["kind", "a", "b"]
        assert list(departure_to_dict(Mixture(((1.0, NeverPerish()),)))) == ["kind", "components"]
        assert list(self.good().to_dict()) == ["m", "d", "T", "policy", "departure", "seed", "pool_trace"]

    def test_malformed_departure_dict_rejected(self):
        with pytest.raises(ConfigError):
            departure_from_dict({"kind": "gamma", "shape": 1.0})

    @pytest.mark.parametrize(
        "data",
        [
            {"kind": ["constant"]},
            {"kind": "uniform", "a": 1.0},
            {"kind": "constant", "c": None},
            {"kind": "exponential", "rate": True},
            {"kind": "mixture", "components": [{"weight": 1.0}]},
            [],
            {"kind": "constant", "c": "1"},
            {"kind": "constant", "c": 1.0, "extra": 1},
            {"kind": "never", "c": 1.0},
            {"kind": "mixture", "components": [{"weight": 1.0, "spec": {"kind": "never"}}], "weights": [1.0]},
            {"kind": "mixture", "components": [{"weight": 1.0, "spec": {"kind": "never"}, "w": 1.0}]},
        ],
    )
    def test_wrong_or_missing_fields_rejected(self, data):
        with pytest.raises(ConfigError):
            departure_from_dict(data)


class TestDepartureFlagSyntax:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("const:1", Constant(1.0)),
            ("exp:1.5", Exponential(1.5)),
            ("unif:0.5:1.5", Uniform(0.5, 1.5)),
            ("never", NeverPerish()),
            ("mix:0.5*const:1,0.5*const:3", Mixture(((0.5, Constant(1.0)), (0.5, Constant(3.0))))),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_departure_flag(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["", "gamma:1", "const:", "unif:1", "mix:const:1",
         "const", "const:1:2", "unif:1:2:3", "never:", "never:1", "mix", "mix:1*mix:1*never"],
    )
    def test_rejected_forms(self, text):
        with pytest.raises(FormatError):
            parse_departure_flag(text)
