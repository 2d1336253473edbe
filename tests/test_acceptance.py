"""Acceptance suite: published-figure reproduction and bound guarantees.

Every criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them) and asserts at its stated tolerance.  The replication protocols
follow the published experiments: 10 runs per datapoint at m=1000,
T=100 for the figure grids, 200 runs at m=500 for the box plot.  All
seeds derive from one fixed master seed, with cells keyed by
(1000*d, replication) so paired-policy comparisons share seeds.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import dense_stationary_solve, pooled_se
from dynmatch import (
    Constant,
    Exponential,
    MarketConfig,
    NeverPerish,
    PolicyKind,
    Uniform,
    mix_seed,
    run,
)
from dynmatch.analytics import (
    ChainParams,
    bound_constants,
    gdy_loss_lower,
    gdy_loss_upper,
    heuristic_predictions,
    pat_loss_upper,
    stationary,
)
from dynmatch.oracles import (
    WalkSpec,
    check_coupling,
    check_dominance,
    check_identities,
    check_ruin,
    check_urn,
)

MASTER_SEED = 108
JOBS = 2

# Published datapoints (figure coordinates), mean of 10 runs at m=1000, T=100.
FIG_LOSS_GREEDY = {2: 0.12320273815034577, 5: 0.013360191811966633, 10: 0.0003769513732728478}
FIG_LOSS_PATIENT = {2: 0.12215991443508162, 5: 0.013119507311595042, 10: 0.00036888970197910826}
FIG_LOSS_SOJOURN = {5: 0.006517210633848713, 10: 3.804885472947264e-05}
FIG_AVG_WAIT_D5 = 0.1355

GDY_DENSITIES = tuple(range(2, 13)) + (20,)
GDY_REPS = {d: (20 if d <= 12 else 10) for d in GDY_DENSITIES}
PAT_DENSITIES = (2, 4, 5, 6, 7, 8, 10)
GS_DENSITIES = tuple(range(3, 11))


def _parallel(configs: list[MarketConfig]):
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(run, configs, chunksize=2))


def _grid(policy: PolicyKind, densities, reps) -> dict[int, list]:
    configs = []
    for d in densities:
        for rep in range(reps[d] if isinstance(reps, dict) else reps):
            configs.append(
                MarketConfig(
                    m=1000.0,
                    d=float(d),
                    T=100.0,
                    policy=policy,
                    departure=Constant(1.0),
                    seed=mix_seed(MASTER_SEED, 1000 * d, rep),
                )
            )
    stats = _parallel(configs)
    out: dict[int, list] = {d: [] for d in densities}
    for s in stats:
        out[int(s.d)].append(s)
    return out


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def gdy_grid():
    return _grid(PolicyKind.GREEDY, GDY_DENSITIES, GDY_REPS)


@pytest.fixture(scope="module")
def pat_grid():
    return _grid(PolicyKind.PATIENT, PAT_DENSITIES, 10)


@pytest.fixture(scope="module")
def gs_grid():
    return _grid(PolicyKind.GREEDY_SOJOURN, GS_DENSITIES, 10)


@pytest.fixture(scope="module")
def box_runs():
    configs = [
        MarketConfig(
            m=500.0,
            d=5.0,
            T=100.0,
            policy=PolicyKind.GREEDY,
            departure=Constant(1.0),
            seed=mix_seed(MASTER_SEED, 999, rep),
        )
        for rep in range(200)
    ]
    return _parallel(configs)


def mean_loss(runs, first: int | None = None) -> float:
    losses = [r.loss for r in runs]
    if first is not None:
        losses = losses[:first]
    return float(np.mean(losses))


def loss_se(runs) -> float:
    losses = np.array([r.loss for r in runs])
    return float(losses.std(ddof=1) / math.sqrt(losses.size))


def test_criterion_01_figure_greedy_loss(gdy_grid):
    details = []
    ok = True
    for d, expected in FIG_LOSS_GREEDY.items():
        mean = mean_loss(gdy_grid[d], first=10)
        rel = abs(mean - expected) / expected
        details.append(f"d={d}: {mean:.3e} vs {expected:.3e} ({rel:+.1%})")
        ok &= rel <= 0.25
    report(1, "figure-loss-greedy", ok, "; ".join(details))
    assert ok


def test_criterion_02_figure_patient_loss(pat_grid):
    details = []
    ok = True
    for d, expected in FIG_LOSS_PATIENT.items():
        mean = mean_loss(pat_grid[d])
        rel = abs(mean - expected) / expected
        details.append(f"d={d}: {mean:.3e} vs {expected:.3e} ({rel:+.1%})")
        ok &= rel <= 0.25
    report(2, "figure-loss-patient", ok, "; ".join(details))
    assert ok


def test_criterion_03_sojourn_tiebreak(gdy_grid, gs_grid):
    details = []
    ok = True
    for d, expected in FIG_LOSS_SOJOURN.items():
        mean = mean_loss(gs_grid[d])
        rel = abs(mean - expected) / expected
        details.append(f"d={d}: {mean:.3e} vs {expected:.3e} ({rel:+.1%})")
        ok &= rel <= 0.30
    for d in GS_DENSITIES:
        gs = mean_loss(gs_grid[d])
        gdy = mean_loss(gdy_grid[d], first=10)
        if gs > gdy:
            details.append(f"d={d}: sojourn {gs:.3e} > greedy {gdy:.3e}")
            ok = False
    report(3, "sojourn-tiebreak", ok, "; ".join(details))
    assert ok


def test_criterion_04_box_plot_spread(box_runs):
    losses = np.array([r.loss for r in box_runs])
    q1, median, q3 = np.quantile(losses, [0.25, 0.5, 0.75])
    ok = 0.0125 <= median <= 0.0140 and q1 >= 0.0115 and q3 <= 0.0150
    report(
        4,
        "box-plot-spread",
        ok,
        f"median={median:.5f} in [0.0125, 0.0140], IQR=[{q1:.5f}, {q3:.5f}] in [0.0115, 0.0150]",
    )
    assert ok


def test_criterion_05_loss_sandwich(gdy_grid):
    details = []
    ok = True
    for d in range(2, 13):
        runs = gdy_grid[d]
        mean, se = mean_loss(runs), loss_se(runs)
        lower = gdy_loss_lower(float(d), 1.0, 1.0)
        upper = gdy_loss_upper(float(d), 1.0)
        good = lower - 3 * se <= mean <= upper + 3 * se
        if not good:
            details.append(f"d={d}: {lower:.2e} <= {mean:.2e} <= {upper:.2e} violated")
        ok &= good
    report(5, "loss-sandwich", ok, details[0] if details else "bounds hold for d=2..12 (20 reps)")
    assert ok


def test_criterion_06_patient_bound(pat_grid):
    details = []
    ok = True
    for d in (5, 10):
        runs = pat_grid[d]
        mean, se = mean_loss(runs), loss_se(runs)
        bound = pat_loss_upper(float(d))
        good = mean <= bound + 3 * se
        details.append(f"d={d}: {mean:.3e} <= {bound:.3e}")
        ok &= good
    report(6, "patient-bound", ok, "; ".join(details))
    assert ok


def test_criterion_07_waiting_time(gdy_grid):
    details = []
    ok = True
    for d in (2, 5, 10, 20):
        waits = np.array([r.avg_wait for r in gdy_grid[d][:10]])
        mean = float(waits.mean())
        lo, hi = 1.0 / (8.0 * d), 6.0 / (5.0 * d)
        good = lo <= mean <= hi
        details.append(f"d={d}: {mean:.4f} in [{lo:.4f}, {hi:.4f}]")
        ok &= good
    mean5 = float(np.mean([r.avg_wait for r in gdy_grid[5][:10]]))
    rel = abs(mean5 - FIG_AVG_WAIT_D5) / FIG_AVG_WAIT_D5
    details.append(f"d=5: {mean5:.4f} vs {FIG_AVG_WAIT_D5} ({rel:+.1%})")
    ok &= rel <= 0.10
    report(7, "waiting-time", ok, "; ".join(details))
    assert ok


def test_criterion_08_heuristic_agreement(gdy_grid, pat_grid):
    details = []
    ok = True
    for d in (4, 5, 6, 7, 8):
        gdy = gdy_grid[d][:10]
        mean = mean_loss(gdy)
        predicted = heuristic_predictions(1000.0, float(d)).loss_both
        rel = abs(mean - predicted) / mean
        good = rel <= 0.15
        details.append(f"d={d}: pred {rel:+.1%}")
        ok &= good

        pat = pat_grid[d]
        a = np.array([r.loss for r in gdy])
        b = np.array([r.loss for r in pat])
        gap = abs(float(a.mean() - b.mean()))
        good = gap <= 3.0 * pooled_se(a, b)
        if not good:
            details.append(f"d={d}: |gdy-pat|={gap:.2e} > 3se")
        ok &= good
    report(8, "heuristic-agreement", ok, "; ".join(details))
    assert ok


def test_criterion_09_coupling_gap():
    result = check_coupling(
        [[mix_seed(MASTER_SEED, 777 + i, rep) for rep in range(67 if i else 66)] for i in range(3)]
    )
    detail = f"max gap {result['max_gap']} over {result['runs']} coupled runs"
    report(9, "coupling-gap", result["pass"], detail)
    assert result["pass"]


def test_criterion_10_stationary_oracle():
    worst_tv, worst_balance = 0.0, 0.0
    for m in range(1, 51):
        for d in range(1, m + 1):
            params = ChainParams(float(m), float(d))
            dist = stationary(params, tail_tol=1e-13)
            oracle = dense_stationary_solve(params, K=dist.truncation_K)
            tv = 0.5 * float(np.abs(dist.probs - oracle).sum()) + dist.tail_bound
            worst_tv = max(worst_tv, tv)
            if d < m:
                q = params.q
                j = np.arange(dist.probs.size - 1)
                lhs = dist.probs[:-1] * np.where(j == 0, 1.0, q**j)
                rhs = dist.probs[1:] * (1.0 - q ** (j + 1))
                mask = lhs > 0
                worst_balance = max(
                    worst_balance, float(np.max(np.abs(lhs[mask] - rhs[mask]) / lhs[mask]))
                )
    # the computed mass above c1*log(2)*m/d + 1.5*ln(m)^2 is at most m^-9; the
    # analytics module docstring proves this and the ratio half, which reads
    # no computed value
    decay_ok = all(
        stationary(ChainParams(m, 5.0)).mass_above(
            bound_constants(m, 5.0).c1 * math.log(2) * m / 5.0 + 1.5 * math.log(m) ** 2
        )
        <= m**-9
        for m in (1e3, 1e4)
    )
    ok = worst_tv <= 1e-9 and worst_balance <= 1e-12 and decay_ok
    report(
        10,
        "stationary-oracle",
        ok,
        f"max TV {worst_tv:.2e}, max balance dev {worst_balance:.2e}, tail decay {decay_ok}",
    )
    assert ok


def test_criterion_11_oracle_suite():
    ruin = check_ruin([WalkSpec(p_up=0.4, M=1, N=4, start=2)], 1_000_000, MASTER_SEED)
    urn = check_urn(
        ((40, 60, 50), (7, 3, 5), (25, 75, 33), (3, 3, 6)),
        [(k1, f * k1, x) for k1 in (18, 25, 35, 45, 60) for f in (2, 3) for x in (0, 4, 8, 12, 16)],
        MASTER_SEED,
    )
    dom = check_dominance([mix_seed(MASTER_SEED, 555, rep) for rep in range(500)])
    walk = ruin["specs"][0]
    details = [
        f"ruin {walk['empirical']:.5f} vs {walk['exact']:.5f}",
        "urn pmf normalized",
        f"urn bound grid ({urn['bound_points']} points)",
        f"dominance over {dom['runs']} runs, violations {dom['violations']}",
    ]
    ok = ruin["pass"] and urn["pass"] and dom["pass"]
    report(11, "oracle-suite", ok, "; ".join(details))
    assert ok


def test_criterion_12_run_identities():
    departures = (Constant(1.0), Exponential(1.0), Uniform(0.5, 1.5), NeverPerish())
    configs = [
        MarketConfig(
            m=300.0,
            d=4.0,
            T=20.0,
            policy=policy,
            departure=departure,
            seed=mix_seed(MASTER_SEED, 333, i, j),
        )
        for i, policy in enumerate(PolicyKind)
        for j, departure in enumerate(departures)
    ]
    result = check_identities(configs)
    detail = f"max |integral - per-agent sum| = {result['max_residual']:.2e}"
    report(12, "run-identities", result["pass"], detail)
    assert result["pass"]
