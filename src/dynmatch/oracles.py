"""Independent exact computations backing the simulator's statistical checks,
and the catalogue of checks that ``dynmatch verify`` and the acceptance
suite run on them.

These oracles deliberately share no helpers with the analytics bound
formulas: hitting probabilities come from the harmonic-function closed
form of the gambler's ruin, urn tail probabilities from log-gamma
binomials, and the dominance check compares instrumented patient-run
counts against the exact hypergeometric law.

A check's verdict goes into its JSON, never into an exception.  The ruin
drift bound (proven in ``ruin_hit_probability``'s docstring) and the urn
half-exceedance cap are not re-checked at run time: they are property
tests in ``tests/test_oracles.py``, on inputs where they bind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (
    Constant,
    DomainError,
    Exponential,
    FormatError,
    MarketConfig,
    PolicyKind,
    Uniform,
    mix_seed,
)
from .engine import instrument_patient_k1, pool_integral, run, run_coupled


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


def ruin_hit_probability(spec: WalkSpec) -> float:
    """Exact probability of hitting N before M - 1.

    Uses the harmonic function f(j) = sum of r^i for i < j, r = p_down/p_up:
    the hit probability from ``start`` is f(start - M + 1) / f(N - M + 1).

    Drift bound: from M with p_up = 1/2 - eps <= 1/2, the hit probability is
    at most (1 - 2 eps)^(N - M).  Proof: r = (1 + 2 eps)/(1 - 2 eps) >=
    1/(1 - 2 eps) and, with n = N - M + 1, P = 1/f(n) <= r^-(n - 1) <=
    (1 - 2 eps)^(N - M).
    """
    j = spec.start - spec.M + 1
    n = spec.N - spec.M + 1
    r = (1.0 - spec.p_up) / spec.p_up
    if abs(r - 1.0) < 1e-15:
        return j / n
    if r > 1.0:
        # (r^j - 1) / (r^n - 1), folded to avoid overflow for large n
        return r ** (j - n) * (1.0 - r**-j) / (1.0 - r**-n)
    return (r**j - 1.0) / (r**n - 1.0)


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


def dominance_check(
    records: Sequence[tuple[int, int, int, int, int]],
) -> tuple[list[int], float | None]:
    """Check that urn draws stochastically dominate the observed counts.

    Each record is (k1, k2, k3, l, K1) from an instrumented patient run.
    For every integer threshold tau in [1, max l] the empirical frequency of
    K1 >= tau must not exceed the record-averaged exact urn exceedance
    (red = k1, blue = k2 + k3, draws = l) by more than three pooled standard
    errors, where the pooled error is taken under the boundary law (each
    indicator Bernoulli with its record's urn exceedance).  Returns the
    violating thresholds and the largest z (None when every l is 0).
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
    for i, (k1, k2, k3, l, _) in enumerate(records):
        spec = UrnSpec(red=k1, blue=k2 + k3, draws=l)
        pmf = np.array([urn_pmf(spec, k) for k in range(min(k1, l) + 1)])
        survival[i, : pmf.size] = np.minimum(np.cumsum(pmf[::-1])[::-1], 1.0)

    k1_obs = np.array([rec[4] for rec in records])
    violations = []
    z_scores = []
    for tau in range(1, max_l + 1):
        p = survival[:, tau]
        mean = float(((k1_obs >= tau) - p).mean())
        se = math.sqrt(float((p * (1.0 - p)).sum())) / n
        z_scores.append(mean / se if se > 0 else (math.inf if mean > 1e-12 else 0.0))
        if mean > 3.0 * se and mean > 1e-12:
            violations.append(tau)
    return violations, max(z_scores, default=None)


# --------------------------------------------------------------------------
# Verification catalogue: one implementation per check.  Each takes only
# the inputs in which its callers (``dynmatch verify`` and the acceptance
# suite) differ, and returns a JSON-ready dict with its statistic, its
# threshold and ``pass``.


def check_coupling(seeds: Sequence[Sequence[int]]) -> dict:
    """Largest pool-size gap (perishing pool minus never-perishing pool, see
    ``run_coupled``) over coupled greedy runs at m=200, d=4, T=20, which
    must not exceed 1; ``seeds`` holds one seed list per departure law
    (constant, exponential, uniform)."""
    departures = (Constant(1.0), Exponential(1.0), Uniform(0.5, 1.5))
    gaps = [
        run_coupled(MarketConfig(200.0, 4.0, 20.0, PolicyKind.GREEDY, departure, seed))[2]
        for departure, runs in zip(departures, seeds, strict=True)
        for seed in runs
    ]
    worst = max(gaps, default=0)
    return {
        "name": "coupling",
        "runs": len(gaps),
        "max_gap": worst,
        "threshold": 1,
        "pass": worst <= 1,
    }


def check_ruin(specs: Sequence[WalkSpec], trials: int, seed: int) -> dict:
    """Monte Carlo hit frequency of each walk against its exact value, in
    standard errors: a walk fails when |z| > 3."""
    rng = np.random.Generator(np.random.PCG64(seed))
    results = []
    for spec in specs:
        exact = ruin_hit_probability(spec)
        emp = ruin_hit_monte_carlo(spec, trials, rng)
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
        z = (emp - exact) / se
        results.append({"spec": vars(spec), "exact": exact, "empirical": emp, "se": se, "z": z})
    failures = [r for r in results if abs(r["empirical"] - r["exact"]) > 3 * r["se"]]
    return {
        "name": "ruin",
        "trials": trials,
        "specs": results,
        "threshold": 3,
        "failures": failures,
        "pass": not failures,
    }


def check_urn(pmf_urns: Sequence[tuple[int, int, int]], seed: int) -> dict:
    """Urn oracle self-consistency.

    The pmf of every ``(red, blue, draws)`` urn in ``pmf_urns`` must sum to
    1 within 1e-12, and the mean of 20,000 sampled red counts of the
    (40, 60, 50) urn must lie within 0.2 of its exact value 20.
    """
    failures = []
    max_pmf_error = 0.0
    for urn in pmf_urns:
        spec = UrnSpec(*urn)
        total = math.fsum(urn_pmf(spec, k) for k in range(spec.draws + 1))
        max_pmf_error = max(max_pmf_error, abs(total - 1.0))
        if abs(total - 1.0) > 1e-12:
            failures.append({"spec": vars(spec), "pmf_total": total})
    rng = np.random.Generator(np.random.PCG64(seed))
    sample_mean = float(urn_sample_many(UrnSpec(40, 60, 50), 20_000, rng).mean())
    if abs(sample_mean - 20.0) > 0.2:
        failures.append({"urn_sample_mean": sample_mean})
    return {
        "name": "urn",
        "max_pmf_error": max_pmf_error,
        "sample_mean_deviation": abs(sample_mean - 20.0),
        "threshold": {"max_pmf_error": 1e-12, "sample_mean_deviation": 0.2},
        "failures": failures,
        "pass": not failures,
    }


def check_dominance(seeds: Sequence[int]) -> dict:
    """``dominance_check`` over instrumented patient runs at m=300, d=5,
    T=3, t=2, one per seed: a threshold is a violation when its z > 3."""
    market = (300.0, 5.0, 3.0, PolicyKind.PATIENT, Constant(1.0))
    records = [instrument_patient_k1(MarketConfig(*market, seed), t=2.0) for seed in seeds]
    violations, max_z = dominance_check(records)
    return {
        "name": "dominance",
        "runs": len(records),
        "violations": violations,
        "max_z": max_z,
        "threshold": 3,
        "pass": not violations,
    }


def check_identities(configs: Sequence[MarketConfig]) -> dict:
    """The waiting-time identity (pool integral = per-agent waiting sum,
    within 1e-9) on one traced run per config; ``run`` itself refuses a
    ledger that breaks conservation."""
    failures = []
    worst = 0.0
    for i, config in enumerate(configs):
        stats = run(replace(config, pool_trace=True), keep_agents=True)
        integral = pool_integral(stats.pool_trajectory, config.T)
        per_agent = math.fsum(min(a.outcome_time, config.T) - a.arrival_time for a in stats.agents)
        worst = max(worst, abs(integral - per_agent))
        if abs(integral - per_agent) > 1e-9:
            failures.append({"case": i, "reason": "waiting-identity"})
    return {
        "name": "identities",
        "cases": len(configs),
        "max_residual": worst,
        "threshold": 1e-9,
        "failures": failures,
        "pass": not failures,
    }


def check_timechange(runs: int, seed: int) -> dict:
    """Greedy loss law under a change of time scale: rescaling every clock by
    c is an exact bijection of sample paths, so (Exp(1), d, m, T) and
    (Exp(c), c*d, c*m, T/c) share the loss law; the mean gap must be within
    3 pooled standard errors."""

    def losses(m: float, d: float, T: float, rate: float, stream: int) -> np.ndarray:
        market = (m, d, T, PolicyKind.GREEDY, Exponential(rate))
        seeds = [mix_seed(seed, stream, rep) for rep in range(runs)]
        return np.array([run(MarketConfig(*market, s)).loss for s in seeds])

    c = 2.0
    base = losses(50.0, 2.0, 20.0, 1.0, 0)
    scaled = losses(c * 50.0, c * 2.0, 20.0 / c, c, 1)
    se = math.sqrt(scaled.var(ddof=1) / runs + base.var(ddof=1) / runs)
    gap = abs(float(scaled.mean() - base.mean()))
    return {
        "name": "timechange",
        "runs": runs,
        "mean_scaled": float(scaled.mean()),
        "mean_base": float(base.mean()),
        "gap": gap,
        "se": se,
        "threshold": 3 * se,
        "pass": gap <= 3 * se,
    }
