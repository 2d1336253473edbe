"""Closed-form market quantities: the no-perishing pool-size chain, loss
and waiting bounds, and steady-state heuristic predictions.

Without perishing the pool size is a birth-death chain: from size k an
arrival joins with probability (1 - d/m)^k and matches (size k-1)
otherwise, so the embedded discrete chain has p(k, k+1) = (1 - d/m)^k,
p(k, k-1) = 1 - (1 - d/m)^k, and p(0, 1) = 1.  Its stationary
distribution is computed by the detailed-balance recursion in log space
with a certified geometric tail.

The tail decay the loss and waiting bounds rest on holds for every m >= 10
and 0 < d < m (at d = m every ratio is 0), so nothing checks it at run time.
Let L = ln m, x = 10/L, b = e^-x, A = c1*log(2)*m/d, t = ceil(A), ext = A + 1.5*L^2.
1. q^t <= e^(-t*d/m) <= 2^-c1 = b/2, so r(t) <= rho := b/(2 - b) < b; r falls
   in k, so past A every balance ratio is below b.
2. -ln rho = x + ln(2 - e^-x) >= x, so rho <= e^-x and 1/(1 - rho) <= 1 + 1/x.
3. pi(t) <= 1, so pi(k) <= rho^(k-t) for k >= t, and the mass above ext is at
   most rho^n/(1 - rho) with n = floor(ext) + 1 - t > 1.5*L^2 - 1.
4. rho^n <= e^(-x*(1.5*L^2 - 1)) = m^-15 * e^x, so that mass is at most
   m^-15 * e^(10/L) * (1 + L/10) <= m^-9, as 10/L + L/10 <= 6L for L >= ln 10.
``mass_above`` walks the same falling ratios from a size whose mass is at most
1, so the value it returns obeys the same bound while m^-9 stays above its
e^-800 underflow floor (m below about 1e38).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import DomainError, NumericError


@dataclass(frozen=True)
class ChainParams:
    """Arrival rate and density of the no-perishing pool-size chain."""

    m: float
    d: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and math.isfinite(self.d) and 0 < self.d <= self.m):
            raise DomainError(f"need 0 < d <= m, got d={self.d}, m={self.m}")

    @property
    def q(self) -> float:
        return 1.0 - self.d / self.m


def log_balance_ratio(k: int, log_q: float) -> float:
    """log pi(k+1)/pi(k) = log(q^k / (1 - q^(k+1))), falling in k; stable near q = 0 and 1."""
    return k * log_q - math.log(-math.expm1((k + 1) * log_q))


@dataclass(frozen=True)
class StationaryDistribution:
    """Truncated stationary law of the pool-size chain.

    ``probs[k]`` is the stationary mass at size k for k <= truncation_K;
    ``tail_bound`` is a certified upper bound on the (normalized) mass
    above the truncation, so probs sum to 1 - tail_bound.
    """

    params: ChainParams
    probs: np.ndarray = field(repr=False)
    log_probs: np.ndarray = field(repr=False)
    truncation_K: int
    tail_bound: float

    def mass_above(self, x: float) -> float:
        """Upper bound on the stationary mass of (x, inf).  From k0 = floor(x) + 1 > K it is
        pi(k0) / (1 - r(k0)) over the mass up to K, as past K the ratios r fall below 1/2."""
        k0 = int(math.floor(x)) + 1
        if k0 <= self.truncation_K or self.tail_bound == 0.0:
            return float(self.probs[max(k0, 0) :].sum()) + self.tail_bound
        log_q = math.log1p(-self.params.d / self.params.m)
        k, log_pi = self.truncation_K, float(self.log_probs[self.truncation_K])
        while k < k0 and log_pi > -800.0:  # exp underflows to 0 below about -745
            log_pi += log_balance_ratio(k, log_q)
            k += 1
        bound = math.exp(log_pi) / (1.0 - math.exp(log_balance_ratio(k, log_q)))
        return min(self.tail_bound, bound / (1.0 - self.tail_bound))

    def quantile(self, q: float) -> int:
        if not 0 < q < 1:
            raise DomainError(f"quantile level must be in (0, 1), got {q}")
        return int(np.searchsorted(np.cumsum(self.probs), q))


def stationary(params: ChainParams, tail_tol: float = 1e-12) -> StationaryDistribution:
    """Stationary distribution by detailed balance, in log space.

    K is the first size, from the first one with p_up < 1/3, whose certified
    geometric tail is below ``tail_tol`` relative to the total mass.  Past
    p_up < 1/3 every balance ratio is below 1/2, so K is at most
    ceil(-log2(tail_tol)) + 1 sizes past that start.
    """
    if not 0 < tail_tol < 1:
        raise DomainError(f"tail_tol must be in (0, 1), got {tail_tol}")

    if params.d == params.m:
        # p_up(1) = 0: the chain flips between sizes 0 and 1.
        probs = np.array([0.5, 0.5])
        return StationaryDistribution(params, probs, np.log(probs), 1, 0.0)

    log_q = math.log1p(-params.d / params.m)
    hard_cap = 5_000_000
    # k0, the first size with p_up = q^k < 1/3, walked up to from just below
    # log(3)/-log(q); that start is past the cap anyway when -log(q) <= 1e-7
    k0 = max(int(math.log(3.0) / -log_q) - 1, 1) if log_q < -1e-7 else hard_cap + 1
    while k0 <= hard_cap + 1 and math.exp(k0 * log_q) >= 1.0 / 3.0:
        k0 += 1
    if k0 > hard_cap + 1:
        raise DomainError(
            f"stationary chain at m={params.m}, d={params.d} needs more than {hard_cap} states"
        )
    stop = k0 + math.ceil(-math.log2(tail_tol)) + 1
    log_ratios = np.fromiter((log_balance_ratio(k, log_q) for k in range(stop + 1)), float, stop + 1)
    logs = np.zeros(stop + 1)
    np.cumsum(log_ratios[:-1], out=logs[1:])
    log_totals = np.logaddexp.accumulate(logs)
    for k in range(k0, stop + 1):
        r = math.exp(log_ratios[k])
        log_tail = logs[k] + math.log(r) - math.log1p(-r) if r > 0.0 else -math.inf
        if log_tail - log_totals[k] <= math.log(tail_tol):
            break
    else:
        raise NumericError(f"stationary tail missed its bound at m={params.m}, d={params.d}")

    log_arr = logs[: k + 1]
    peak = float(log_arr.max())
    log_Z = peak + math.log(np.exp(log_arr - peak).sum() + math.exp(log_tail - peak))
    if not math.isfinite(log_Z):
        raise NumericError("stationary normalization is not finite")
    log_probs = log_arr - log_Z
    return StationaryDistribution(params, np.exp(log_probs), log_probs, k, math.exp(log_tail - log_Z))


def stationary_mean(dist: StationaryDistribution) -> float:
    """Mean pool size: sum of k * probs[k] plus the tail remainder bound."""
    k = np.arange(dist.probs.size)
    mean = float((k * dist.probs).sum())
    K = dist.truncation_K
    tb = dist.tail_bound
    m, d = dist.params.m, dist.params.d
    if tb > 0:
        # tail mass is dominated by a geometric with the ratio at K
        r = math.exp(log_balance_ratio(K, math.log1p(-d / m)))
        mean += tb * K + math.exp(dist.log_probs[K]) * r / (1.0 - r) ** 2
    if m >= 1e3 and mean > 1.01 * math.ceil(math.log(3) * m / d) + 11:
        raise NumericError(f"stationary mean {mean} exceeds its cap at m={m}, d={d}")
    return mean


@dataclass(frozen=True)
class BoundConstants:
    """The three pool-size threshold constants; c1 < c2 < c3, c1 -> 1."""

    c1: float
    c2: float
    c3: float


def bound_constants(m: float, d: float) -> BoundConstants:
    if m <= 1:
        raise DomainError(f"constants need m > 1, got {m}")
    c1 = 1.0 + 10.0 / (math.log(2) * math.log(m))
    step = d * math.log(m) ** 2 / (m * math.log(2))
    return BoundConstants(c1, c1 + 2 * step, c1 + 4 * step)


# --------------------------------------------------------------------------
# Loss and waiting bounds


def gdy_loss_upper(d: float, eps_min_sojourn: float) -> float:
    """Greedy loss upper bound exp(-eps*d / (2 log 2)).

    Valid when d >= 2 and the departure distribution puts no mass below
    ``eps_min_sojourn`` (the caller certifies this, e.g. via
    ``departure_cdf``).
    """
    if d < 2:
        raise DomainError(f"upper bound requires d >= 2, got {d}")
    if eps_min_sojourn <= 0:
        raise DomainError(f"minimum sojourn must be > 0, got {eps_min_sojourn}")
    return math.exp(-eps_min_sojourn * d / (2 * math.log(2)))


def gdy_loss_lower(d: float, eps: float, delta: float) -> float:
    """Greedy loss lower bound (delta/2) * exp(-eps*d).

    Valid when the departure distribution puts mass at least ``delta`` on
    [0, eps] (caller certifies).  Holds for any matching policy that
    leaves at least half of the agents unmatched at arrival.
    """
    if d <= 0 or eps <= 0:
        raise DomainError(f"need d > 0 and eps > 0, got d={d}, eps={eps}")
    if not 0 <= delta <= 1:
        raise DomainError(f"delta must be a probability, got {delta}")
    return 0.5 * delta * math.exp(-eps * d)


def pat_loss_upper(d: float) -> float:
    """Patient loss upper bound exp(-d/5) under unit constant sojourn."""
    if d < 0:
        raise DomainError(f"need d >= 0, got {d}")
    return math.exp(-d / 5.0)


def waiting_bounds(
    m: float, T: float, d: float, c_min: float, mass_at_least_c: float
) -> tuple[float | None, float]:
    """(lower, upper) bounds on the expected total waiting time under greedy.

    Upper bound 6mT/(5d) holds for any departure distribution (m large).
    The lower bound mT/(8d) needs mass more than 9/10 on [c, inf] with
    c > 1/d; when that certification fails the lower bound is None.
    """
    if not all(math.isfinite(x) and x > 0 for x in (m, T, d)):
        raise DomainError(f"need finite m, T, d > 0, got m={m}, T={T}, d={d}")
    upper = 6.0 * m * T / (5.0 * d)
    if not math.isfinite(upper):
        raise DomainError(f"waiting bound 6mT/(5d) overflows at m={m}, T={T}, d={d}")
    lower = m * T / (8.0 * d) if (mass_at_least_c > 0.9 and c_min > 1.0 / d) else None
    return lower, upper


class HeuristicPrediction(NamedTuple):
    """Equilibrium pool sizes and the common loss level of both policies."""

    pool_gdy: float
    pool_pat: float
    loss_both: float


def heuristic_predictions(m: float, d: float) -> HeuristicPrediction:
    """Equilibrium pool sizes and the common loss level 0.5*exp(-d/(2 ln 2)).

    At equilibrium a greedy pool holds log(2)*m/d agents and a patient
    pool m/(2 log 2); both policies then lose about half of
    exp(-d/(2 log 2)) of their agents.
    """
    if d < 1:
        raise DomainError(f"prediction requires d >= 1, got {d}")
    if m <= 0:
        raise DomainError(f"need m > 0, got {m}")
    pool_gdy = math.log(2) * m / d
    pool_pat = m / (2 * math.log(2))
    loss_both = 0.5 * math.exp(-d / (2 * math.log(2)))
    return HeuristicPrediction(pool_gdy, pool_pat, loss_both)

