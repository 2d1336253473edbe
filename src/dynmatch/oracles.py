"""Independent exact computations backing the simulator's statistical checks.

These oracles deliberately share no helpers with the analytics bound
formulas: hitting probabilities come from the harmonic-function closed
form of the gambler's ruin, urn tail probabilities from log-gamma
binomials, and the dominance check compares instrumented patient-run
counts against the exact hypergeometric law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import DomainError, FormatError, NumericError


# --------------------------------------------------------------------------
# Random walk with drift


@dataclass(frozen=True)
class WalkSpec:
    """Nearest-neighbour walk: steps up with probability p_up above M,
    stops on reaching N (success) or M - 1 (failure), starting in [M, N]."""

    p_up: float
    M: int
    N: int
    start: int

    def __post_init__(self) -> None:
        if not 0 < self.p_up < 1:
            raise DomainError(f"p_up must be in (0, 1), got {self.p_up}")
        if not self.M < self.N:
            raise DomainError(f"need M < N, got M={self.M}, N={self.N}")
        if not self.M <= self.start <= self.N:
            raise DomainError(f"start must lie in [M, N], got {self.start}")


class RuinResult(NamedTuple):
    exact: float
    drift_bound: float | None


def ruin_hit_probability(spec: WalkSpec) -> RuinResult:
    """Exact probability of hitting N before M - 1.

    Uses the harmonic function f(j) = sum of r^i, r = p_down/p_up: the
    hit probability from ``start`` is f(start - M + 1) / f(N - M + 1).
    When the walk starts at M and drifts down (p_up <= 1/2, so
    p_up = 1/2 - eps), also returns the drift bound (1 - 2 eps)^(N - M)
    and verifies the exact value against it.
    """
    j = spec.start - spec.M + 1
    n = spec.N - spec.M + 1
    r = (1.0 - spec.p_up) / spec.p_up
    if abs(r - 1.0) < 1e-15:
        exact = j / n
    elif r > 1.0:
        # (r^j - 1) / (r^n - 1), folded to avoid overflow for large n
        exact = r ** (j - n) * (1.0 - r**-j) / (1.0 - r**-n)
    else:
        exact = (r**j - 1.0) / (r**n - 1.0)

    bound = None
    if spec.start == spec.M and spec.p_up <= 0.5:
        eps = 0.5 - spec.p_up
        bound = (1.0 - 2.0 * eps) ** (spec.N - spec.M)
        if exact > bound * (1 + 1e-12) + 1e-300:
            raise NumericError(f"ruin probability {exact} exceeds drift bound {bound}")
    return RuinResult(exact, bound)


def ruin_hit_monte_carlo(spec: WalkSpec, trials: int, rng: np.random.Generator) -> float:
    """Empirical hit frequency from vectorized walk simulation; a walk that
    starts at N has already hit it and takes no step."""
    position = np.full(trials, spec.start, dtype=np.int64)
    hit = position >= spec.N
    active = ~hit
    while active.any():
        idx = np.flatnonzero(active)
        steps = np.where(rng.random(idx.size) < spec.p_up, 1, -1)
        position[idx] += steps
        reached = position[idx] >= spec.N
        dead = position[idx] < spec.M
        hit[idx[reached]] = True
        active[idx[reached | dead]] = False
    return float(hit.mean())


# --------------------------------------------------------------------------
# Urn (hypergeometric) oracle


@dataclass(frozen=True)
class UrnSpec:
    """Urn with ``red`` + ``blue`` balls from which ``draws`` are taken
    uniformly without replacement."""

    red: int
    blue: int
    draws: int

    def __post_init__(self) -> None:
        if self.red < 0 or self.blue < 0:
            raise DomainError("ball counts must be >= 0")
        if not 0 <= self.draws <= self.red + self.blue:
            raise DomainError(f"draws must lie in [0, {self.red + self.blue}], got {self.draws}")

    @property
    def total(self) -> int:
        return self.red + self.blue


def _log_comb(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def urn_pmf(spec: UrnSpec, k: int) -> float:
    """P(exactly k red among the draws), via log-gamma binomials."""
    log_p = (
        _log_comb(spec.red, k)
        + _log_comb(spec.blue, spec.draws - k)
        - _log_comb(spec.total, spec.draws)
    )
    return math.exp(log_p) if math.isfinite(log_p) else 0.0


def urn_exceedance(spec: UrnSpec, threshold: int) -> float:
    """Exact P(red count among the draws >= threshold)."""
    if threshold > spec.draws:
        raise DomainError(f"threshold {threshold} exceeds draws {spec.draws}")
    lo = max(threshold, 0, spec.draws - spec.blue)
    hi = min(spec.red, spec.draws)
    if lo <= max(0, spec.draws - spec.blue):
        return 1.0
    return min(1.0, math.fsum(urn_pmf(spec, k) for k in range(lo, hi + 1)))


@dataclass(frozen=True)
class UrnBoundCheck:
    """Exact half-threshold exceedance against its two closed-form caps."""

    spec: UrnSpec
    m: float
    threshold: int
    exact: float
    sharp_bound: float
    coarse_bound: float
    preconditions_hold: bool
    satisfied: bool


def urn_half_exceedance_bound(spec: UrnSpec, m: float) -> UrnBoundCheck:
    """Check P(red count >= draws/2) against (N+1)(2 sqrt(0.24))^l and
    2m * 0.98^(m/8).

    The caps are valid when the red fraction is at most 2/5 and at least
    m/8 balls are drawn (the coarse cap additionally needs N + 1 <= 2m);
    outside those preconditions the exact value is still returned but not
    asserted.  Odd draw counts use the threshold ceil(draws/2).
    """
    threshold = (spec.draws + 1) // 2
    exact = urn_exceedance(spec, threshold)
    sharp = (spec.total + 1) * (2.0 * math.sqrt(0.24)) ** spec.draws
    coarse = 2.0 * m * 0.98 ** (m / 8.0)
    preconds = (
        spec.total > 0
        and spec.red / spec.total <= 0.4
        and spec.draws >= m / 8.0
        and spec.total + 1 <= 2 * m
    )
    satisfied = exact <= sharp * (1 + 1e-12) + 1e-300
    if preconds and not satisfied:
        raise NumericError(f"urn exceedance {exact} violates its cap {sharp}")
    return UrnBoundCheck(
        spec=spec,
        m=m,
        threshold=threshold,
        exact=exact,
        sharp_bound=sharp,
        coarse_bound=coarse,
        preconditions_hold=preconds,
        satisfied=satisfied,
    )


def urn_sample_many(spec: UrnSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` red counts by sequential without-replacement simulation, one
    uniform per urn and draw."""
    red = np.full(n, spec.red, dtype=np.int64)
    taken = np.zeros(n, dtype=np.int64)
    total = spec.total
    for _ in range(spec.draws):
        is_red = rng.random(n) * total < red
        red -= is_red
        taken += is_red
        total -= 1
    return taken


# --------------------------------------------------------------------------
# Stochastic dominance of the urn count over instrumented patient counts


@dataclass(frozen=True)
class DominanceReport:
    """Threshold-wise comparison of observed counts with the urn law."""

    n_records: int
    thresholds: np.ndarray
    empirical: np.ndarray
    expected: np.ndarray
    z_scores: np.ndarray
    per_record_exceedance: np.ndarray
    violations: tuple[int, ...]
    passed: bool


def dominance_check(records: Sequence[tuple[int, int, int, int, int]]) -> DominanceReport:
    """Check that urn draws stochastically dominate the observed counts.

    Each record is (k1, k2, k3, l, K1) from an instrumented patient run.
    For every integer threshold tau the empirical frequency of K1 >= tau
    must not exceed the record-averaged exact urn exceedance (red = k1,
    blue = k2 + k3, draws = l) by more than three pooled standard errors,
    where the pooled error is taken under the boundary law (each indicator
    Bernoulli with its record's urn exceedance).
    """
    if not records:
        raise FormatError("need at least one record")
    for rec in records:
        k1, k2, k3, l, K1 = rec
        if min(k1, k2, k3, l, K1) < 0 or l > k1 + k2 + k3 or K1 > min(k1, l):
            raise FormatError(f"malformed record {rec}")

    n = len(records)
    max_l = max(rec[3] for rec in records)
    # survival[i, tau] = P(urn count >= tau) for record i
    survival = np.zeros((n, max_l + 1))
    per_record = np.zeros(n)
    for i, (k1, k2, k3, l, K1) in enumerate(records):
        spec = UrnSpec(red=k1, blue=k2 + k3, draws=l)
        pmf = np.array([urn_pmf(spec, k) for k in range(min(k1, l) + 1)])
        sf = np.concatenate([np.cumsum(pmf[::-1])[::-1], np.zeros(max_l + 1 - pmf.size)])
        survival[i] = np.minimum(sf, 1.0)
        per_record[i] = survival[i][K1]

    k1_obs = np.array([rec[4] for rec in records])
    thresholds = np.arange(1, max_l + 1)
    violations = []
    z_scores = np.zeros(thresholds.size)
    empirical = np.zeros(thresholds.size)
    expected = np.zeros(thresholds.size)
    for idx, tau in enumerate(thresholds):
        p = survival[:, tau]
        mean = float(((k1_obs >= tau) - p).mean())
        se = math.sqrt(float((p * (1.0 - p)).sum())) / n
        empirical[idx] = float((k1_obs >= tau).mean())
        expected[idx] = float(p.mean())
        z_scores[idx] = mean / se if se > 0 else (math.inf if mean > 1e-12 else 0.0)
        if mean > 3.0 * se and mean > 1e-12:
            violations.append(int(tau))

    return DominanceReport(
        n_records=n,
        thresholds=thresholds,
        empirical=empirical,
        expected=expected,
        z_scores=z_scores,
        per_record_exceedance=per_record,
        violations=tuple(violations),
        passed=not violations,
    )
