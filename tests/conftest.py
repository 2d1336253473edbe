"""Shared test helpers: independent oracles and statistical utilities."""

from __future__ import annotations

import math

import numpy as np

from dynmatch.analytics import ChainParams


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


def stationary_by_steps(
    params: ChainParams, tail_tol: float, min_K: int | None
) -> tuple[int, float, np.ndarray]:
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
        if math.exp(k * log_q) < 1.0 / 3.0 and (min_K is None or k >= min_K):
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


def ks_critical(n: int, alpha: float) -> float:
    """Conservative two-sided KS critical value (DKW inequality)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def pooled_se(a: np.ndarray, b: np.ndarray) -> float:
    return math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
