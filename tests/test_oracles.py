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
    urn_half_exceedance_bound,
    urn_pmf,
    urn_sample_many,
)


def rng(seed: int = 1) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class TestRuin:
    def test_symmetric_walk_is_linear(self):
        result = ruin_hit_probability(WalkSpec(p_up=0.5, M=1, N=3, start=1))
        assert result.exact == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_downward_drift_closed_form(self):
        result = ruin_hit_probability(WalkSpec(p_up=0.4, M=1, N=3, start=1))
        # (r - 1) / (r^3 - 1) with r = 0.6 / 0.4
        assert result.exact == pytest.approx(0.5 / 2.375, rel=1e-12)
        assert result.drift_bound == pytest.approx(0.8**2, rel=1e-12)
        assert result.exact <= result.drift_bound

    def test_bound_only_reported_from_the_stop_level(self):
        assert ruin_hit_probability(WalkSpec(p_up=0.4, M=1, N=3, start=2)).drift_bound is None
        assert ruin_hit_probability(WalkSpec(p_up=0.6, M=1, N=3, start=1)).drift_bound is None

    def test_monte_carlo_agrees(self):
        spec = WalkSpec(p_up=0.45, M=2, N=7, start=3)
        exact = ruin_hit_probability(spec).exact
        trials = 200_000
        emp = ruin_hit_monte_carlo(spec, trials, rng(5))
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(emp - exact) <= 3 * se

    def test_monte_carlo_counts_a_start_at_the_target_as_a_hit(self):
        spec = WalkSpec(p_up=0.4, M=1, N=3, start=3)
        assert ruin_hit_probability(spec).exact == 1.0
        assert ruin_hit_monte_carlo(spec, 1000, rng(5)) == 1.0

    def test_no_overflow_for_long_intervals(self):
        result = ruin_hit_probability(WalkSpec(p_up=0.3, M=0, N=500, start=0))
        assert 0.0 < result.exact < result.drift_bound < 1e-100

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
        base = ruin_hit_probability(WalkSpec(p_up, M, N, start)).exact
        assert ruin_hit_probability(WalkSpec(p_up + 0.02, M, N, start)).exact > base
        if start + 1 < N:
            assert ruin_hit_probability(WalkSpec(p_up, M, N, start + 1)).exact > base
        assert ruin_hit_probability(WalkSpec(p_up, M, N + 1, start)).exact < base

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
    def test_bound_holds_on_precondition_grid(self):
        m = 280.0
        for k1 in (20, 40, 80):
            for blue_factor in (2, 3, 5):
                for extra in (0, 5, 15):
                    spec = UrnSpec(k1, blue_factor * k1, min(int(m / 8) + extra, k1 * (1 + blue_factor)))
                    check = urn_half_exceedance_bound(spec, m)
                    if check.preconditions_hold:
                        assert check.exact <= check.sharp_bound * (1 + 1e-12)
                        assert check.sharp_bound <= check.coarse_bound * (1 + 1e-12)

    def test_reports_even_when_preconditions_fail(self):
        check = urn_half_exceedance_bound(UrnSpec(50, 10, 30), m=280.0)
        assert not check.preconditions_hold
        assert 0.0 <= check.exact <= 1.0


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
        report = dominance_check([(5, 5, 5, 0, 0)] * 10)
        assert report.passed
        assert report.violations == ()

    def test_adversarial_records_flagged(self):
        # observed counts pinned at the maximum cannot be dominated
        report = dominance_check([(60, 20, 20, 50, 50)] * 40)
        assert not report.passed
        assert report.violations

    def test_honest_hypergeometric_records_pass(self):
        g = rng(3)
        records = []
        for _ in range(300):
            k1, k2, k3, l = 30, 35, 35, 40
            K1 = int(urn_sample_many(UrnSpec(k1, k2 + k3, l), 1, g)[0])
            records.append((k1, k2, k3, l, K1))
        report = dominance_check(records)
        assert report.passed
        assert report.n_records == 300

    def test_malformed_records_rejected(self):
        with pytest.raises(FormatError):
            dominance_check([(1, 1, 1, 4, 0)])
        with pytest.raises(FormatError):
            dominance_check([(2, 2, 2, 3, 3)])
        with pytest.raises(FormatError):
            dominance_check([])

    def test_per_record_exceedance_matches_direct_calls(self):
        records = [(10, 12, 14, 9, 3), (8, 8, 8, 6, 2)]
        report = dominance_check(records)
        for row, (k1, k2, k3, l, K1) in zip(report.per_record_exceedance, records):
            assert row == pytest.approx(urn_exceedance(UrnSpec(k1, k2 + k3, l), K1), rel=1e-12)
