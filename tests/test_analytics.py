"""Stationary chain computations and closed-form bound calculators."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_stationary_solve, stationary_by_steps
from dynmatch.analytics import (
    ChainParams,
    DomainError,
    NumericError,
    StationaryDistribution,
    bound_constants,
    gdy_loss_lower,
    gdy_loss_upper,
    heuristic_predictions,
    log_balance_ratio,
    pat_loss_upper,
    stationary,
    stationary_mean,
    waiting_bounds,
)


class TestStationary:
    def test_two_state_chain_at_full_density(self):
        dist = stationary(ChainParams(10.0, 10.0))
        assert dist.probs == pytest.approx([0.5, 0.5])
        assert dist.tail_bound == 0.0
        assert stationary_mean(dist) == pytest.approx(0.5)

    def test_matches_dense_solve(self):
        params = ChainParams(20.0, 2.0)
        dist = stationary(params, tail_tol=1e-13)
        oracle = dense_stationary_solve(params, K=200)
        k = dist.probs.size
        tv = 0.5 * (np.abs(dist.probs - oracle[:k]).sum() + oracle[k:].sum())
        assert tv < 1e-10
        oracle_mean = float(np.arange(201) @ oracle)
        assert stationary_mean(dist) == pytest.approx(oracle_mean, abs=1e-9)

    def test_detailed_balance_holds(self):
        for m, d in ((20.0, 2.0), (100.0, 7.0), (1000.0, 5.0)):
            params = ChainParams(m, d)
            dist = stationary(params)
            q = params.q
            for j in range(dist.probs.size - 1):
                up = q**j if j else 1.0
                down = 1.0 - q ** (j + 1)
                lhs = dist.probs[j] * up
                rhs = dist.probs[j + 1] * down
                if lhs > 0:
                    assert abs(lhs - rhs) / lhs < 1e-12

    def test_mass_plus_tail_is_one(self):
        for m, d in ((20.0, 2.0), (300.0, 4.0), (50.0, 50.0)):
            dist = stationary(ChainParams(m, d))
            assert abs(dist.probs.sum() + dist.tail_bound - 1.0) < 1e-12

    def test_tail_tol_validated(self):
        with pytest.raises(DomainError):
            stationary(ChainParams(10.0, 1.0), tail_tol=0.0)

    def test_chain_beyond_the_hard_cap_rejected_up_front(self):
        # p_up stays >= 1/3 for the first 5.49e6 sizes, so no truncation fits
        with pytest.raises(DomainError, match="more than 5000000 states"):
            stationary(ChainParams(5e6, 1.0))

    # (m, d, tail_tol) -> truncation_K, tail_bound.hex(), sha256 of
    # log_probs.tobytes(); taken from the size-by-size recursion it replaced.
    # The ids keep the rows' names from when the table had a fourth column,
    # a smallest truncation, that was None in every row kept.
    GOLDEN = [
        (1e6, 5.0, 1e-12, 219722, "0x0.0p+0",
         "55c28aa031f16ab5efcc2d7b68c0c008b6229490fd71f693f92ec671f6ff374a"),
        (1e3, 5.0, 1e-12, 220, "0x1.285506f1b2c51p-48",
         "f52f9b50f55a5f51e01ff3eae9305d87d3c1da27c65c66148a8de946cb523426"),
        (1e3, 5.0, 1e-3, 220, "0x1.285506f1b2c51p-48",
         "f52f9b50f55a5f51e01ff3eae9305d87d3c1da27c65c66148a8de946cb523426"),
        (1e3, 1e3, 1e-12, 1, "0x0.0p+0",
         "693a74bb8bcc67b1697a86d996f1c592290f2c3a080d5f613232f0bef6169b37"),
        (1e3, math.nextafter(1e3, 0.0), 1e-12, 1, "0x1.ffffffffffff5p-55",
         "0756500f65247181da86fc1581575802decc3e84fe2d5082dfc2062b75cf0f00"),
        (10.0, 1.0, 1e-3, 14, "0x1.6d7e2f92b7125p-11",
         "fb8267d977eee8b2c3b0fbbe99def08ab867dafc12fc7dc3cdd019ca5ed2c125"),
        (10.0, 1.0, 1e-12, 25, "0x1.95297afc4f166p-43",
         "c540b345fa83b0f88a1204fe7461363fc6d808b370397cd28a8f8eb015128a4d"),
    ]

    @given(
        st.floats(min_value=1.5, max_value=3000.0),
        st.floats(min_value=1e-3, max_value=1.0),
        st.sampled_from([1e-300, 1e-50, 1e-12, 1e-3, 0.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_the_step_recursion(self, m, fraction, tail_tol):
        params = ChainParams(m, min(fraction * m, math.nextafter(m, 0.0)))
        K, tail_bound, log_probs = stationary_by_steps(params, tail_tol)
        dist = stationary(params, tail_tol=tail_tol)
        assert dist.truncation_K == K
        assert dist.tail_bound.hex() == tail_bound.hex()
        assert dist.log_probs.tobytes() == log_probs.tobytes()

    @pytest.mark.parametrize(
        "m,d,tail_tol,K,tail_hex,digest",
        GOLDEN,
        ids=[f"{m}-{d}-{tol}-None-{K}-{h}-{g}" for m, d, tol, K, h, g in GOLDEN],
    )
    def test_golden_outputs(self, m, d, tail_tol, K, tail_hex, digest):
        dist = stationary(ChainParams(m, d), tail_tol=tail_tol)
        assert dist.truncation_K == K
        assert dist.tail_bound.hex() == tail_hex
        assert hashlib.sha256(dist.log_probs.tobytes()).hexdigest() == digest

    def test_density_within_rounding_of_rate(self):
        # p_up underflows immediately; the tail certificate must not choke
        dist = stationary(ChainParams(1.0, 1.0 - 1e-13))
        assert dist.probs[:2] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert abs(dist.probs.sum() + dist.tail_bound - 1.0) < 1e-12

    def test_mean_cap_at_large_market(self):
        dist = stationary(ChainParams(1e4, 5.0))
        mean = stationary_mean(dist)
        assert mean <= 1.01 * math.ceil(math.log(3) * 1e4 / 5.0) + 11
        # mean sits near the equilibrium heuristic log(2) m / d
        assert mean == pytest.approx(math.log(2) * 1e4 / 5.0, rel=0.05)

    def test_mean_above_cap_raises(self):
        K = 10_000
        probs = np.zeros(K + 1)
        probs[K] = 1.0
        with np.errstate(divide="ignore"):
            log_probs = np.log(probs)
        dist = StationaryDistribution(ChainParams(1e4, 5.0), probs, log_probs, K, 0.0)
        with pytest.raises(NumericError, match="exceeds its cap"):
            stationary_mean(dist)


def tail_threshold(m: float, d: float) -> tuple[float, float]:
    """A = c1*log(2)*m/d and ext = A + 1.5*ln(m)^2, as in the analytics module's proof."""
    A = bound_constants(m, d).c1 * math.log(2) * m / d
    return A, A + 1.5 * math.log(m) ** 2


# The tail-decay verdicts recorded when the check still built its own longer
# chain (past the extended threshold, at tail_tol 1e-12) on the grid of m and
# the densities below plus d = m: every one of the 95 points passed.
_GRID_M = (2.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1e3, 1e4, 1e5, 1e6)
_GRID_D = (0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 20.0, 50.0, 100.0, 300.0, 1000.0)
RECORDED_VERDICTS = {(m, d): True for m in _GRID_M for d in sorted({*_GRID_D, m}) if d <= m}


class TestTailDecayCertificate:
    # the module docstring proves that past A every ratio is below
    # exp(-10/ln m) and the mass above ext is at most m^-9; these tests can
    # fail where that proof or the computed tail does not hold

    @given(st.floats(min_value=10.0, max_value=1e300), st.floats(min_value=1e-12, max_value=1.0, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_closed_form_mass_past_the_extended_threshold(self, m, fraction):
        # n log r(t) - log(1 - r(t)) bounds the log of the mass above ext;
        # in log space m^-9 cannot underflow
        d = fraction * m
        A, ext = tail_threshold(m, d)
        t = math.ceil(A)
        n = math.floor(ext) + 1 - t
        log_r = log_balance_ratio(t, math.log1p(-d / m))
        assert log_r < -10.0 / math.log(m)
        assert n * log_r - math.log(-math.expm1(log_r)) <= -9.0 * math.log(m)

    @given(
        st.floats(min_value=100.0, max_value=1e5),
        st.one_of(st.just(1.0), st.floats(min_value=1e-4, max_value=1.0)),
        st.sampled_from([1e-300, 1e-12, 1e-3, 0.5]),
    )
    @settings(max_examples=100, deadline=None)
    def test_computed_mass_past_the_extended_threshold(self, m, fraction, tail_tol):
        # the value mass_above returns, whichever branch computes it
        d = fraction * m
        _, ext = tail_threshold(m, d)
        assert stationary(ChainParams(m, d), tail_tol=tail_tol).mass_above(ext) <= m**-9

    @pytest.mark.parametrize("tail_tol", [1e-12, 1e-3, 0.5])
    def test_verdicts_as_recorded(self, tail_tol):
        # a point passes when the ratio at A is below exp(-10/ln m) (0 at
        # d = m) and mass_above(ext) is at most m^-9
        assert len(RECORDED_VERDICTS) == 95
        for (m, d), passed in RECORDED_VERDICTS.items():
            A, ext = tail_threshold(m, d)
            max_ratio = math.exp(log_balance_ratio(math.ceil(A), math.log1p(-d / m))) if d < m else 0.0
            mass = stationary(ChainParams(m, d), tail_tol=tail_tol).mass_above(ext)
            verdict = max_ratio <= math.exp(-10.0 / math.log(m)) and mass <= m**-9
            assert verdict is passed, (m, d)

    @pytest.mark.parametrize("m,d", [(10.0, 1.0), (100.0, 5.0), (1e3, 5.0), (1e3, 300.0), (1e4, 20.0)])
    def test_max_ratio_is_the_closed_form_ratio_at_the_threshold(self, m, d):
        # r falls in k, so no ratio of a longer chain past t exceeds r(t)
        t = math.ceil(tail_threshold(m, d)[0])
        r_t = math.exp(log_balance_ratio(t, math.log1p(-d / m)))
        longer = stationary(ChainParams(m, d), tail_tol=1e-300)
        ratios = np.exp(np.diff(longer.log_probs[t:]))
        assert ratios.size > 0
        assert ratios.max() <= r_t * (1.0 + 1e-9)

    def test_two_state_chain(self):
        dist = stationary(ChainParams(300.0, 300.0))
        assert dist.mass_above(1e9) == 0.0

    @given(
        st.floats(min_value=1.5, max_value=3000.0),
        st.floats(min_value=1e-3, max_value=1.0),
        st.sampled_from([1e-12, 1e-3, 0.5]),
        st.one_of(st.floats(min_value=0.0, max_value=60.0), st.floats(min_value=0.0, max_value=3000.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_mass_past_the_truncation_bounded_by_a_longer_chain(self, m, fraction, tail_tol, past):
        params = ChainParams(m, min(fraction * m, math.nextafter(m, 0.0)))
        dist = stationary(params, tail_tol=tail_tol)
        x = dist.truncation_K + past
        mass = dist.mass_above(x)
        longer = stationary(params, tail_tol=1e-300).mass_above(x)
        assert mass <= dist.tail_bound
        assert mass >= longer * (1.0 - 1e-9)
        # the longer chain counts at least pi(k0), and the bound is below 2 pi(k0)
        # over the mass up to K
        assert mass <= 2.0 * longer / (1.0 - dist.tail_bound) * (1.0 + 1e-9)


class TestBoundConstants:
    def test_ordering_for_all_reasonable_m(self):
        for m in (3.0, 10.0, 1e3, 1e8):
            c = bound_constants(m, 5.0)
            assert c.c1 < c.c2 < c.c3

    def test_correction_vanishes_for_large_m(self):
        gaps = [bound_constants(m, 5.0).c1 - 1.0 for m in (1e3, 1e12, 1e100, 1e300)]
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.025

    def test_exp_ten_value(self):
        c = bound_constants(math.exp(10.0), 5.0)
        assert c.c1 == pytest.approx(1.0 + 1.0 / math.log(2), rel=1e-12)

    def test_requires_m_above_one(self):
        with pytest.raises(DomainError):
            bound_constants(1.0, 5.0)


class TestLossBounds:
    def test_gdy_upper_direct_values(self):
        assert gdy_loss_upper(5.0, 1.0) == pytest.approx(0.027140244867765204, rel=1e-12)
        # exponent -1 whenever eps * d = 2 log 2
        assert gdy_loss_upper(2.0, math.log(2)) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert gdy_loss_upper(4.0, 0.5) == gdy_loss_upper(2.0, 1.0)

    def test_gdy_upper_domain(self):
        with pytest.raises(DomainError):
            gdy_loss_upper(1.9, 1.0)
        with pytest.raises(DomainError):
            gdy_loss_upper(3.0, 0.0)

    def test_gdy_lower_direct_values(self):
        assert gdy_loss_lower(5.0, 1.0, 1.0) == pytest.approx(0.0033689734995427335, rel=1e-12)
        assert gdy_loss_lower(4.0, 1.0, 0.0) == 0.0
        assert gdy_loss_lower(6.0, 1.0 / 6.0, 1.0 / 6.0) == pytest.approx(
            math.exp(-1.0) / 12.0, rel=1e-12
        )

    def test_pat_upper_values(self):
        assert pat_loss_upper(5.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert pat_loss_upper(0.0) == 1.0
        assert pat_loss_upper(10.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    @given(st.floats(min_value=2.0, max_value=40.0), st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_upper_bounds_decrease_in_d(self, d, delta):
        assert gdy_loss_upper(d + delta, 1.0) < gdy_loss_upper(d, 1.0)
        assert pat_loss_upper(d + delta) < pat_loss_upper(d)

    def test_sandwich_brackets_heuristic(self):
        for d in np.linspace(2.0, 15.0, 27):
            lower = gdy_loss_lower(float(d), 1.0, 1.0)
            mid = heuristic_predictions(1e6, float(d)).loss_both
            upper = gdy_loss_upper(float(d), 1.0)
            assert lower < mid < upper


class TestWaitingBounds:
    def test_reference_values(self):
        lower, upper = waiting_bounds(1000.0, 100.0, 5.0, c_min=1.0, mass_at_least_c=1.0)
        assert (lower, upper) == (2500.0, 24000.0)
        assert lower / (1000.0 * 100.0) == pytest.approx(0.025)
        assert upper / (1000.0 * 100.0) == pytest.approx(0.24)

    def test_lower_requires_certification(self):
        lower, _ = waiting_bounds(1000.0, 100.0, 5.0, c_min=1.0, mass_at_least_c=0.5)
        assert lower is None
        lower, _ = waiting_bounds(1000.0, 100.0, 5.0, c_min=0.1, mass_at_least_c=1.0)
        assert lower is None

    def test_bounds_shrink_with_density(self):
        prev = math.inf
        for d in (2.0, 5.0, 20.0, 200.0):
            _, upper = waiting_bounds(1000.0, 100.0, d, 1.0, 1.0)
            assert upper < prev
            prev = upper


class TestHeuristics:
    def test_reference_point(self):
        pred = heuristic_predictions(1000.0, 5.0)
        assert pred.pool_gdy == pytest.approx(138.62943611198904, rel=1e-12)
        assert pred.pool_pat == pytest.approx(721.3475204444817, rel=1e-12)
        assert pred.loss_both == pytest.approx(0.013570122433882602, rel=1e-12)

    def test_special_density(self):
        pred = heuristic_predictions(100.0, 2.0 * math.log(2))
        assert pred.loss_both == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)

    def test_published_point_within_ten_percent(self):
        observed = 0.013360191811966633
        pred = heuristic_predictions(1000.0, 5.0).loss_both
        assert abs(observed - pred) / pred < 0.10

    def test_domain(self):
        with pytest.raises(DomainError):
            heuristic_predictions(1000.0, 0.5)

