"""Exact oracle computations: ruin probabilities, urn tails, dominance."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmatch.core import DomainError, FormatError
from dynmatch.oracles import (
    UrnSpec,
    WalkSpec,
    dominance_check,
    ruin_hit_monte_carlo,
    ruin_hit_probability,
    urn_exceedance,
    urn_pmf,
    urn_sample_many,
)


def rng(seed: int = 1) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class TestRuin:
    def test_symmetric_walk_is_linear(self):
        exact = ruin_hit_probability(WalkSpec(p_up=0.5, M=1, N=3, start=1))
        assert exact == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_downward_drift_closed_form(self):
        exact = ruin_hit_probability(WalkSpec(p_up=0.4, M=1, N=3, start=1))
        # (r - 1) / (r^3 - 1) with r = 0.6 / 0.4
        assert exact == pytest.approx(0.5 / 2.375, rel=1e-12)
        assert exact <= 0.8**2

    @given(
        st.floats(min_value=0.01, max_value=0.5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=2000),
    )
    @settings(max_examples=300, deadline=None)
    def test_drift_bound_from_the_stop_level(self, p_up, M, span):
        # p_up = 1/2 - eps: hitting N from M has probability at most
        # (1 - 2 eps)^(N - M), as proven in ruin_hit_probability's docstring
        exact = ruin_hit_probability(WalkSpec(p_up, M, M + span, M))
        assert exact <= (2 * p_up) ** span * (1 + 1e-12) + 1e-300

    def test_monte_carlo_agrees(self):
        spec = WalkSpec(p_up=0.45, M=2, N=7, start=3)
        exact = ruin_hit_probability(spec)
        trials = 200_000
        emp = ruin_hit_monte_carlo(spec, trials, rng(5))
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(emp - exact) <= 3 * se

    def test_monte_carlo_counts_a_start_at_the_target_as_a_hit(self):
        spec = WalkSpec(p_up=0.4, M=1, N=3, start=3)
        assert ruin_hit_probability(spec) == 1.0
        assert ruin_hit_monte_carlo(spec, 1000, rng(5)) == 1.0

    def test_no_overflow_for_long_intervals(self):
        exact = ruin_hit_probability(WalkSpec(p_up=0.3, M=0, N=500, start=0))
        assert 0.0 < exact < 0.6**500 < 1e-100

    @given(
        # keep r = p_down/p_up >= 1/3 so successive values differ by more
        # than float resolution and strict comparisons are meaningful
        st.floats(min_value=0.1, max_value=0.75),
        st.integers(min_value=2, max_value=15),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_p_start_and_target(self, p_up, span, offset):
        M, N = 1, 1 + span
        start = min(M + offset, N - 1)
        base = ruin_hit_probability(WalkSpec(p_up, M, N, start))
        assert ruin_hit_probability(WalkSpec(p_up + 0.02, M, N, start)) > base
        if start + 1 < N:
            assert ruin_hit_probability(WalkSpec(p_up, M, N, start + 1)) > base
        assert ruin_hit_probability(WalkSpec(p_up, M, N + 1, start)) < base

    def test_invalid_specs_rejected(self):
        with pytest.raises(DomainError):
            WalkSpec(p_up=0.0, M=1, N=3, start=1)
        with pytest.raises(DomainError):
            WalkSpec(p_up=0.4, M=3, N=3, start=3)
        with pytest.raises(DomainError):
            WalkSpec(p_up=0.4, M=1, N=3, start=4)


class TestUrnExceedance:
    def test_enumeration_oracle_two_of_each(self):
        # all C(4,2) = 6 equally likely draws of two balls from {R, R, B, B}
        draws = list(combinations(["R1", "R2", "B1", "B2"], 2))
        expected = sum(1 for pair in draws if any(x.startswith("R") for x in pair)) / len(draws)
        assert expected == pytest.approx(5.0 / 6.0)
        assert urn_exceedance(UrnSpec(2, 2, 2), 1) == pytest.approx(expected, rel=1e-12)

    def test_threshold_zero_is_certain(self):
        assert urn_exceedance(UrnSpec(3, 5, 4), 0) == 1.0

    def test_no_red_balls(self):
        assert urn_exceedance(UrnSpec(0, 4, 2), 1) == 0.0

    def test_threshold_above_draws_rejected(self):
        with pytest.raises(DomainError):
            urn_exceedance(UrnSpec(3, 5, 4), 5)

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=60),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_pmf_sums_to_one(self, red, blue, data):
        total = red + blue
        if total == 0:
            return
        draws = data.draw(st.integers(min_value=0, max_value=total))
        spec = UrnSpec(red, blue, draws)
        mass = math.fsum(urn_pmf(spec, k) for k in range(draws + 1))
        assert abs(mass - 1.0) < 1e-12

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_exchangeability_symmetry(self, red, blue, data):
        draws = data.draw(st.integers(min_value=0, max_value=red + blue))
        t = data.draw(st.integers(min_value=0, max_value=draws))
        # red count >= t  <=>  blue count <= draws - t
        lhs = urn_exceedance(UrnSpec(red, blue, draws), t)
        swapped = UrnSpec(blue, red, draws)
        rhs = (
            1.0 - urn_exceedance(swapped, draws - t + 1)
            if draws - t + 1 <= draws
            else 1.0
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_matches_scipy(self):
        for red, blue, draws, t in ((40, 60, 50, 25), (7, 3, 5, 2), (100, 300, 50, 10)):
            ours = urn_exceedance(UrnSpec(red, blue, draws), t)
            ref = float(scipy.stats.hypergeom.sf(t - 1, red + blue, red, draws))
            assert ours == pytest.approx(ref, rel=1e-10)


class TestUrnBound:
    @pytest.mark.parametrize("draws", [400, 600, 800, 1000])
    def test_half_exceedance_within_its_cap_where_the_cap_binds(self, draws):
        # red fraction 2/5: P(red count >= draws/2) <= (N+1)(2 sqrt(0.24))^draws,
        # by Hoeffding's comparison of the urn with binomial draws and a
        # Chernoff bound; these urns are large enough for the cap to be below 1
        spec = UrnSpec(400, 600, draws)
        cap = (spec.total + 1) * (2.0 * math.sqrt(0.24)) ** draws
        assert cap < 1.0
        assert urn_exceedance(spec, (draws + 1) // 2) <= cap


class TestUrnSampling:
    def test_exhaustive_draw_takes_all_red(self):
        assert urn_sample_many(UrnSpec(3, 4, 7), 1, rng(1))[0] == 3

    def test_sample_mean_matches_hypergeometric(self):
        samples = urn_sample_many(UrnSpec(40, 60, 50), 100_000, rng(9))
        assert abs(samples.mean() - 20.0) < 0.1

    def test_empirical_exceedance_matches_exact(self):
        spec = UrnSpec(40, 60, 50)
        n = 100_000
        samples = urn_sample_many(spec, n, rng(13))
        exact = urn_exceedance(spec, 25)
        emp = float((samples >= 25).mean())
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(emp - exact) <= 3 * se



class TestDominance:
    def test_all_zero_records_pass(self):
        assert dominance_check([(5, 5, 5, 0, 0)] * 10) == ([], None)

    def test_adversarial_records_flagged(self):
        # observed counts pinned at the maximum cannot be dominated
        violations, max_z = dominance_check([(60, 20, 20, 50, 50)] * 40)
        assert violations
        assert max_z > 3

    def test_honest_hypergeometric_records_pass(self):
        g = rng(3)
        records = []
        for _ in range(300):
            k1, k2, k3, l = 30, 35, 35, 40
            K1 = int(urn_sample_many(UrnSpec(k1, k2 + k3, l), 1, g)[0])
            records.append((k1, k2, k3, l, K1))
        violations, max_z = dominance_check(records)
        assert violations == []
        assert max_z <= 3

    def test_malformed_records_rejected(self):
        with pytest.raises(FormatError):
            dominance_check([(1, 1, 1, 4, 0)])
        with pytest.raises(FormatError):
            dominance_check([(2, 2, 2, 3, 3)])
        with pytest.raises(FormatError):
            dominance_check([])

    def test_verdict_matches_direct_urn_exceedances(self):
        n = 50
        k1, k2, k3, l, K1 = 10, 12, 14, 9, 3
        z_scores, expected = [], []
        for tau in range(1, l + 1):
            p = urn_exceedance(UrnSpec(k1, k2 + k3, l), tau)
            mean = (K1 >= tau) - p
            se = math.sqrt(n * p * (1 - p)) / n
            z_scores.append(mean / se)
            if mean > 3 * se:
                expected.append(tau)
        violations, max_z = dominance_check([(k1, k2, k3, l, K1)] * n)
        # 50 counts pinned at 3 reach tau = 2 and 3 every time, far more often
        # than the urn's 0.80 and 0.49 allow
        assert expected == [2, 3]
        assert violations == expected
        assert max_z == pytest.approx(max(z_scores), rel=1e-9)
