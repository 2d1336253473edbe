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
    pat_loss_upper,
    stationary,
    stationary_mean,
    stationary_tail_decay,
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

    def test_min_K_beyond_the_hard_cap_rejected_up_front(self):
        # p_up < 1/3 from k0 = 4.39e6, inside the cap, but min_K starts past it
        with pytest.raises(DomainError, match="more than 5000000 states"):
            stationary(ChainParams(4e6, 1.0), min_K=6_000_000)

    # (m, d, tail_tol, min_K) -> truncation_K, tail_bound.hex(), sha256 of
    # log_probs.tobytes(); taken from the size-by-size recursion it replaced
    GOLDEN = [
        (1e6, 5.0, 1e-12, None, 219722, "0x0.0p+0",
         "55c28aa031f16ab5efcc2d7b68c0c008b6229490fd71f693f92ec671f6ff374a"),
        (1e3, 5.0, 1e-12, None, 220, "0x1.285506f1b2c51p-48",
         "f52f9b50f55a5f51e01ff3eae9305d87d3c1da27c65c66148a8de946cb523426"),
        (1e3, 5.0, 1e-3, None, 220, "0x1.285506f1b2c51p-48",
         "f52f9b50f55a5f51e01ff3eae9305d87d3c1da27c65c66148a8de946cb523426"),
        (1e3, 5.0, 1e-12, 300, 300, "0x1.93bb179d770d9p-163",
         "b66c180d12bb4cc21713b10889e8ec946e71e3362f8a31e4690a40510ecced47"),
        (1e3, 1e3, 1e-12, None, 1, "0x0.0p+0",
         "693a74bb8bcc67b1697a86d996f1c592290f2c3a080d5f613232f0bef6169b37"),
        (1e3, 1e3, 1e-3, 300, 1, "0x0.0p+0",
         "693a74bb8bcc67b1697a86d996f1c592290f2c3a080d5f613232f0bef6169b37"),
        (1e3, math.nextafter(1e3, 0.0), 1e-12, None, 1, "0x1.ffffffffffff5p-55",
         "0756500f65247181da86fc1581575802decc3e84fe2d5082dfc2062b75cf0f00"),
        (1e3, math.nextafter(1e3, 0.0), 1e-3, 300, 300, "0x0.0p+0",
         "20b13301aecbcb2f75edc53c1fc3f09ec867e1006c3ac788b7280e71d6db9d6b"),
        (20.0, 2.0, 1e-3, 300, 300, "0x0.0p+0",
         "8c18cc9967626b3f4f899df33ba09270562c36273959f2efe9fb79628d4db329"),
        (10.0, 1.0, 1e-3, None, 14, "0x1.6d7e2f92b7125p-11",
         "fb8267d977eee8b2c3b0fbbe99def08ab867dafc12fc7dc3cdd019ca5ed2c125"),
        (10.0, 1.0, 1e-12, None, 25, "0x1.95297afc4f166p-43",
         "c540b345fa83b0f88a1204fe7461363fc6d808b370397cd28a8f8eb015128a4d"),
    ]

    @given(
        st.floats(min_value=1.5, max_value=3000.0),
        st.floats(min_value=1e-3, max_value=1.0),
        st.sampled_from([1e-300, 1e-50, 1e-12, 1e-3, 0.5]),
        st.sampled_from([None, 0, 5, 300]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_the_step_recursion(self, m, fraction, tail_tol, min_K):
        params = ChainParams(m, min(fraction * m, math.nextafter(m, 0.0)))
        K, tail_bound, log_probs = stationary_by_steps(params, tail_tol, min_K)
        dist = stationary(params, tail_tol=tail_tol, min_K=min_K)
        assert dist.truncation_K == K
        assert dist.tail_bound.hex() == tail_bound.hex()
        assert dist.log_probs.tobytes() == log_probs.tobytes()

    @pytest.mark.parametrize("m,d,tail_tol,min_K,K,tail_hex,digest", GOLDEN)
    def test_golden_outputs(self, m, d, tail_tol, min_K, K, tail_hex, digest):
        dist = stationary(ChainParams(m, d), tail_tol=tail_tol, min_K=min_K)
        assert dist.truncation_K == K
        assert dist.tail_bound.hex() == tail_hex
        assert hashlib.sha256(dist.log_probs.tobytes()).hexdigest() == digest

    def test_density_within_rounding_of_rate(self):
        # p_up underflows immediately; the tail certificate must not choke
        dist = stationary(ChainParams(1.0, 1.0 - 1e-13))
        assert dist.probs[:2] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert abs(dist.probs.sum() + dist.tail_bound - 1.0) < 1e-12

    def test_tail_decay_certificate_at_thousand(self):
        report = stationary_tail_decay(ChainParams(1e3, 5.0))
        assert report.passed
        assert report.max_ratio_beyond <= report.decay_bound
        assert report.mass_beyond <= report.mass_cap

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

