"""Shared test helpers: independent oracles and statistical utilities."""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence

import numpy as np
import pytest

import dynmatch.engine as engine
from dynmatch.analytics import ChainParams
from dynmatch.core import ConfigError

# Uniforms per block of the reference oracle's stream; they change no output bit.
REFERENCE_BLOCK = 8192


class ReferenceOracle:
    """The engine-v1 compatibility oracle, kept as the reference for v2.

    All queries share one stream of scalar ``rng.random()`` draws: a query
    of n members uses the next n, and its hits are the draws below ``p``.
    Draws come a block at a time, at most one block past the queried
    positions, so the oracle must be the only consumer of ``rng``.
    """

    __slots__ = ("rng", "p", "_hits", "_next", "_pos", "_drawn")

    def __init__(self, rng: np.random.Generator, p: float) -> None:
        if not 0 < p <= 1:
            raise ConfigError(f"compatibility probability must be in (0, 1], got {p}")
        self.rng = rng
        self.p = p
        self._hits: list[int] = []  # ascending positions of the hits drawn so far
        self._next = 0  # index in _hits of the first hit at or after _pos
        self._pos = 0  # position of the next draw to use
        self._drawn = 0  # draws made so far

    def query_block(self, agent_id: int, member_ids: Sequence[int]) -> list[int]:
        """Query one agent against a block of pool members, one draw each.

        Returns the ascending offsets into ``member_ids`` of the compatible
        members: the positions of ``rng.random(len(member_ids)) < p``."""
        begin = self._pos
        end = self._pos = begin + len(member_ids)
        if self._drawn < end:  # drop the used hits, then add the next blocks' hits
            self._hits, self._next = self._hits[self._next:], 0
            while self._drawn < end:
                self._hits += (np.flatnonzero(self.rng.random(REFERENCE_BLOCK) < self.p) + self._drawn).tolist()
                self._drawn += REFERENCE_BLOCK
        hits, i = self._hits, self._next
        if i == len(hits) or hits[i] >= end:
            return []
        j = self._next = bisect_left(hits, end, i)
        return [h - begin for h in hits[i:j]]


@pytest.fixture
def reference_oracle(monkeypatch):
    """Run the engine on the v1 (one uniform per pair) compatibility oracle."""
    monkeypatch.setattr(engine, "PairCompatibilityOracle", ReferenceOracle)


def dense_stationary_solve(params: ChainParams, K: int) -> np.ndarray:
    """Stationary law of the truncated pool-size chain by a dense linear
    solve of the global balance system (independent of the detailed-balance
    recursion used by analytics.stationary).

    The chain is truncated at K by turning the up-move out of K into a
    self-loop, which leaves the restricted stationary vector unchanged.
    """
    q = 1.0 - params.d / params.m
    P = np.zeros((K + 1, K + 1))
    P[0, 1] = 1.0
    for k in range(1, K + 1):
        up = q**k
        P[k, k - 1] = 1.0 - up
        if k < K:
            P[k, k + 1] = up
        else:
            P[k, k] = up
    A = P.T - np.eye(K + 1)
    A[-1, :] = 1.0  # replace one redundant balance row with normalization
    b = np.zeros(K + 1)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi[np.abs(pi) < 1e-300] = 0.0
    return pi


def stationary_by_steps(params: ChainParams, tail_tol: float) -> tuple[int, float, np.ndarray]:
    """(K, tail_bound, log_probs) of analytics.stationary by its original
    size-by-size recursion, with the same float operations in the same
    order, for a chain with d < m that fits under the hard cap."""
    log_q = math.log1p(-params.d / params.m)
    logs = [0.0]
    k = 0
    log_total = 0.0
    while True:
        log_ratio = k * log_q - math.log(-math.expm1((k + 1) * log_q))
        logs.append(logs[-1] + log_ratio)
        k += 1
        log_total = float(np.logaddexp(log_total, logs[-1]))
        if math.exp(k * log_q) < 1.0 / 3.0:
            r = math.exp(k * log_q - math.log(-math.expm1((k + 1) * log_q)))
            log_tail = logs[-1] + math.log(r) - math.log1p(-r) if r > 0.0 else -math.inf
            if log_tail - log_total <= math.log(tail_tol):
                break
    log_arr = np.array(logs)
    peak = float(log_arr.max())
    log_Z = peak + math.log(np.exp(log_arr - peak).sum() + math.exp(log_tail - peak))
    return k, math.exp(log_tail - log_Z), log_arr - log_Z


def ks_statistic(samples: np.ndarray, cdf, tol: float = 1e-9) -> float:
    """Two-sided KS distance of samples against a CDF, valid for laws with
    atoms: compares the empirical CDF just before and at each distinct
    sample value."""
    xs = np.sort(samples)
    n = xs.size
    values = np.unique(xs)
    ecdf_at = np.searchsorted(xs, values, side="right") / n
    ecdf_before = np.searchsorted(xs, values, side="left") / n
    f = np.array([cdf(v) for v in values])
    f_before = np.array([cdf(max(v - tol, 0.0)) for v in values])
    return max(
        float(np.max(np.abs(ecdf_at - f))), float(np.max(np.abs(ecdf_before - f_before)))
    )


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS distance: the largest gap between the two empirical
    CDFs, taken at every sample value (ties included)."""
    values = np.union1d(a, b)
    fa = np.searchsorted(np.sort(a), values, side="right") / a.size
    fb = np.searchsorted(np.sort(b), values, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def ks_critical(n: float, alpha: float) -> float:
    """Conservative two-sided KS critical value (DKW inequality); for two
    samples of sizes n1 and n2, pass n = n1 n2 / (n1 + n2)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def pooled_se(a: np.ndarray, b: np.ndarray) -> float:
    return math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
