"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is also part of the plain ``pytest`` run.
"""

import time

import numpy as np
import pytest

from conftest import (
    oracle_hhat_quadrature,
    oracle_mfg_hhat_quadrature,
    random_distribution,
    random_population,
    replicated_population,
)
from relperf import (
    AgentType,
    ExponentialDiscount,
    GridStrategyN,
    HyperbolicDiscount,
    MeanFieldEquilibrium,
    MFGridStrategy,
    NAgentEquilibrium,
    Population,
    SimConfig,
    TabulatedDiscount,
    TimeGrid,
    TypeDistribution,
    fixed_point_mfg,
    fixed_point_nagent,
    gaussian_moments,
    meanfield_consistency,
    simulate_paths,
    single_stock_strategy,
    spike_grid,
)
from relperf.diagnostics import foc_residuals

T = 2.0
GRID = TimeGrid(0.0, T, 200)
HYP = HyperbolicDiscount(0.1, 1.0)


def record(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_fixed_point_agreement_nagent():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for trial in range(20):
        pop = random_population(rng, n=int(rng.integers(2, 11)))
        d = HYP if trial % 2 else ExponentialDiscount(float(rng.uniform(0.0, 0.4)))
        final, report = fixed_point_nagent(pop, d, GridStrategyN.zeros(GRID, pop.n),
                                           tol=1e-11, max_iter=500)
        assert report.converged, f"trial {trial} did not converge"
        closed = GridStrategyN.from_equilibrium(NAgentEquilibrium(pop, d, T), GRID)
        worst = max(worst, final.sup_distance(closed))
    elapsed = time.time() - start
    record(1, worst <= 1e-8 and elapsed < 30.0,
           f"20 populations, max sup-gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_fixed_point_agreement_mfg():
    rng = np.random.default_rng(202)
    start = time.time()
    worst = 0.0
    for trial in range(20):
        dist = random_distribution(rng, k=int(rng.integers(1, 6)))
        d = HYP if trial % 2 else ExponentialDiscount(float(rng.uniform(0.0, 0.4)))
        final, report = fixed_point_mfg(dist, d, MFGridStrategy.zeros(GRID, dist),
                                        tol=1e-11, max_iter=500)
        assert report.converged, f"trial {trial} did not converge"
        closed = MFGridStrategy.from_equilibrium(MeanFieldEquilibrium(dist, d, T),
                                                 GRID)
        worst = max(worst, final.sup_distance(closed))
    elapsed = time.time() - start
    record(2, worst <= 1e-8 and elapsed < 30.0,
           f"20 distributions, max sup-gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_single_stock_reductions():
    ts = np.linspace(0.0, T, 50)
    worst = 0.0
    pop = Population([AgentType(1.0, 0.5, 0.9, 0.0, 1.1),
                      AgentType(2.0, 0.2, 0.9, 0.0, 1.1),
                      AgentType(0.6, 0.7, 0.9, 0.0, 1.1)])
    agg = NAgentEquilibrium(pop, HYP, T).aggregates
    for d in (HYP, ExponentialDiscount(0.1)):
        for i, a in enumerate(pop.agents):
            eq = NAgentEquilibrium(pop, d, T)
            for t in ts:
                ss = single_stock_strategy(a.delta, a.theta, agg.e_delta,
                                           agg.e_theta, a.mu, a.sigma, d,
                                           float(t), T)
                worst = max(worst, abs(float(eq.pi(i, t)) - ss.pi),
                            abs(float(eq.consumption(i, float(t), 4.0))
                                - ss.consumption(4.0)))
    dist = TypeDistribution([(AgentType(1.0, 0.5, 0.9, 0.0, 1.1), 0.4),
                             (AgentType(2.0, 0.2, 0.9, 0.0, 1.1), 0.6)])
    magg = MeanFieldEquilibrium(dist, HYP, T).aggregates
    for d in (HYP, ExponentialDiscount(0.1)):
        meq = MeanFieldEquilibrium(dist, d, T)
        for xi0 in dist.types:
            for t in ts:
                ss = single_stock_strategy(xi0.delta, xi0.theta, magg.e_delta,
                                           magg.e_theta, xi0.mu, xi0.sigma, d,
                                           float(t), T)
                worst = max(worst,
                            abs(float(meq.pi(xi0, float(t))) - ss.pi),
                            abs(float(meq.consumption(xi0, float(t), 4.0))
                                - ss.consumption(4.0)))
    record(3, worst <= 1e-12, f"max reduction gap {worst:.2e} at 50 grid points")


def test_criterion_04_merton_reduction():
    rho = 0.1
    dist = TypeDistribution([(AgentType(1.0, 0.4, 1.0, 0.0, 1.0), 1.0)])
    xi0 = dist.types[0]
    dhat = 1.0 + 0.4 * 1.0 / 0.6
    ts = np.linspace(0.0, T, 50)

    def merton_display(t, x):
        rem = T + 1.0 - t
        return x / rem + dhat / 2 * (0.5 * 1.0 + rho) * (rem - 1.0 / rem)

    exp_eq = MeanFieldEquilibrium(dist, ExponentialDiscount(rho), T)
    hyp_eq = MeanFieldEquilibrium(dist, HyperbolicDiscount(rho, 1e-6), T)
    worst_exp = max(
        abs(float(exp_eq.consumption(xi0, float(t), 7.0))
            - merton_display(float(t), 7.0))
        for t in ts
    )
    worst_hyp = max(
        abs(float(hyp_eq.consumption(xi0, float(t), 7.0))
            - merton_display(float(t), 7.0))
        for t in ts
    )
    record(4, worst_exp <= 1e-10 and worst_hyp <= 1e-4,
           f"exponential gap {worst_exp:.2e}, near-exponential gap {worst_hyp:.2e}")


def test_criterion_05_first_order_conditions():
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(10):
        pop = random_population(rng, n=int(rng.integers(2, 7)))
        d = HYP if trial % 2 else ExponentialDiscount(0.2)
        eq = NAgentEquilibrium(pop, d, T)
        i = int(rng.integers(0, pop.n))
        for t in rng.uniform(0.0, T, size=20):
            xs = rng.normal(5.0, 4.0, size=(50, pop.n))
            ri, rc = foc_residuals(eq, i, float(t), xs)
            worst = max(worst, float(np.max(ri)), float(np.max(rc)))
    record(5, worst <= 1e-9,
           f"max relative residual {worst:.2e} over 10 x 1000 states")


def test_criterion_06_h_quadrature_all_discount_variants():
    rng = np.random.default_rng(606)
    knots = np.linspace(0.0, 3.0, 241)
    quasi = TabulatedDiscount(knots, (1 + 0.3 * knots) * np.exp(-0.25 * knots))
    variants = [ExponentialDiscount(0.15), HYP, quasi]
    worst = 0.0
    for trial in range(9):
        d = variants[trial % 3]
        pop = random_population(rng, n=int(rng.integers(2, 5)))
        i = int(rng.integers(0, pop.n))
        t = float(rng.uniform(0.0, T - 0.1))
        kinks = ([T - u for u in knots if 0.0 < u < T - t]
                 if d is quasi else ())
        want = oracle_hhat_quadrature(pop, d, i, t, T, kinks=kinks)
        worst = max(worst, abs(float(NAgentEquilibrium(pop, d, T).hhat(i, t)) - want))
        dist = random_distribution(rng, k=int(rng.integers(1, 4)))
        xi0 = dist.types[0]
        want = oracle_mfg_hhat_quadrature(dist, d, xi0, t, T, kinks=kinks)
        worst = max(worst, abs(float(MeanFieldEquilibrium(dist, d, T).hhat(xi0, t)) - want))
    record(6, worst <= 1e-8, f"max closed-form vs quadrature gap {worst:.2e}")


SPIKE_TIMES = [0.0, 0.5, 1.0, 1.5]
SPIKE_VS = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
SPIKE_EPS = [0.1, 0.05, 0.025]


def test_criterion_07_spike_pass_and_fail():
    start = time.time()
    cfg = SimConfig(n_paths=100_000, dt=1e-3, seed=42)
    pops = {
        2: Population([AgentType(1.0, 0.5, 1.0, 0.0, 1.0),
                       AgentType(1.4, 0.3, 0.8, 0.5, 0.9)]),
        3: Population([AgentType(1.0, 0.5, 1.0, 0.0, 1.0),
                       AgentType(1.4, 0.3, 0.8, 0.5, 0.9),
                       AgentType(0.8, 0.6, 1.2, 0.0, 1.2)]),
    }
    all_pass = True
    for n, pop in pops.items():
        eq = NAgentEquilibrium(pop, HYP, T)
        rep = spike_grid(pop, HYP, eq, SPIKE_TIMES, SPIKE_VS, SPIKE_EPS, cfg,
                         0.0, T)
        all_pass = all_pass and rep.passed

    # counterexample: both agents play the solo policy despite theta = 0.5
    pop = Population([AgentType(1.0, 0.5, 1.0, 0.0, 1.0)] * 2)
    times = GRID.times
    pi = np.zeros((2, GRID.n_points))
    p = np.zeros((2, 2, GRID.n_points))
    q = np.zeros((2, GRID.n_points))
    for i, a in enumerate(pop.agents):
        pi[i] = a.delta * a.mu / a.sigma**2 * (T + 1.0 - times)
        p[i, i] = 1.0 / (T + 1.0 - times)
        solo = Population([AgentType(a.delta, 0.0, a.mu, a.nu, a.sigma)] * 2)
        q[i] = NAgentEquilibrium(solo, HYP, T).intercepts_at(times)[0]
    wrong = GridStrategyN(GRID, pi, p, q)
    rep_bad = spike_grid(pop, HYP, wrong, [0.5, 1.0], [(1, 0), (0, 1)], [0.1],
                         cfg, 0.0, T)
    elapsed = time.time() - start
    record(7, all_pass and not rep_bad.passed and elapsed < 300.0,
           f"equilibria PASS={all_pass}, counterexample FAIL={not rep_bad.passed}, "
           f"{elapsed:.0f}s")


def test_criterion_08_limit_convergence_rates():
    dist = TypeDistribution([(AgentType(1.0, 0.5, 1.0, 0.5, 1.0), 0.5),
                             (AgentType(2.0, 0.3, 0.8, 0.0, 1.0), 0.5)])
    xi0 = dist.types[0]
    meq = MeanFieldEquilibrium(dist, HYP, T)
    pi_target = float(meq.pi(xi0, 0.0))
    h_target = float(meq.hhat(xi0, 0.0))
    pi_gaps, h_gaps = [], []
    for n in (100, 1000):
        eq = NAgentEquilibrium(replicated_population(dist, n), HYP, T)
        pi_gaps.append(abs(float(eq.pi(0, 0.0)) - pi_target))
        h_gaps.append(abs(float(eq.hhat(0, 0.0)) - h_target))
    r_pi = pi_gaps[0] / pi_gaps[1]
    r_h = h_gaps[0] / h_gaps[1]
    record(8, 5.0 <= r_pi <= 20.0 and 5.0 <= r_h <= 20.0,
           f"gap ratios n=100 vs n=1000: investment {r_pi:.1f}, drift {r_h:.1f}")


def test_criterion_09_meanfield_consistency():
    dist = TypeDistribution([(AgentType(1.0, 0.4, 1.0, 0.8, 0.6), 1.0)])
    rep = meanfield_consistency(dist, HYP, 10_000, SimConfig(1, 1e-3, 99), 0.0,
                                10.0, T)
    worst = max(cp.gap - 5.0 * cp.cross_se for cp in rep.wealth_checkpoints)
    record(9, worst <= 1e-12,
           f"M=10000, worst (gap - 5 SE) = {worst:.2e} over "
           f"{len(rep.wealth_checkpoints)} checkpoints")


def test_criterion_10_consumption_figures():
    # The beta ordering cannot extend to the whole horizon: consumption equals
    # wealth exactly at t = T and the more patient type ends strictly richer,
    # so any two curves cross late.  The ordering is asserted pointwise on
    # [0, 1], which contains the comparison anchor t = 1.
    start = time.time()
    grid = TimeGrid(0.0, T, 201)
    merton = TypeDistribution([(AgentType(1.0, 0.0, 1.0, 0.0, 1.0), 1.0)])

    curves = [MeanFieldEquilibrium(merton, HyperbolicDiscount(0.1, b), T)
              .average_consumption(grid, 10.0) for b in (0.5, 1.0, 2.0)]
    early = grid.times <= 1.0 + 1e-12
    beta_monotone = bool(np.all(curves[0][early] > curves[1][early])
                         and np.all(curves[1][early] > curves[2][early]))

    dh_curves = []
    for dh in (1.0, 1.5, 2.0):
        dist = TypeDistribution([(AgentType(1.0, 1.0 - 1.0 / dh, 1.0, 0.0, 1.0),
                                  1.0)])
        dh_curves.append(MeanFieldEquilibrium(dist, HYP, T)
                         .average_consumption(grid, 10.0))
    dh_monotone = bool(np.all(dh_curves[0] < dh_curves[1])
                       and np.all(dh_curves[1] < dh_curves[2]))

    exp_level = MeanFieldEquilibrium(merton, ExponentialDiscount(0.1), T) \
        .average_consumption(grid, 10.0)[0]
    level_ok = abs(exp_level - 62.0 / 15.0) <= 1e-6
    elapsed = time.time() - start
    record(10, beta_monotone and dh_monotone and level_ok and elapsed < 10.0,
           f"beta-monotone={beta_monotone}, tolerance-monotone={dh_monotone}, "
           f"E[C](0)={exp_level:.7f} (target 4.1333333), {elapsed:.1f}s")


def test_criterion_11_gaussian_law_oracle():
    pop = Population([AgentType(1.0, 0.5, 1.0, 1.0, 1.0),
                      AgentType(2.0, 0.2, 0.5, 0.0, 1.0)])
    eq = NAgentEquilibrium(pop, HYP, T)
    cfg = SimConfig(100_000, 1e-3, 7)
    checkpoints = np.linspace(0.0, T, 5)
    bundle = simulate_paths(pop, eq, 0.0, 10.0, T, cfg, record_times=checkpoints)
    means, covs = gaussian_moments(pop, eq, 0.0, 10.0, checkpoints, T)
    ok = True
    worst = 0.0
    for j in range(1, len(checkpoints)):
        xs = bundle.wealth[:, j, :]
        var = np.diag(covs[j])
        se_mean = np.sqrt(var / cfg.n_paths)
        gap_mean = np.abs(xs.mean(axis=0) - means[j]) / se_mean
        se_var = var * np.sqrt(2.0 / (cfg.n_paths - 1))
        gap_var = np.abs(xs.var(axis=0, ddof=1) - var) / se_var
        worst = max(worst, float(gap_mean.max()), float(gap_var.max()))
        ok = ok and bool(np.all(gap_mean < 4.0) and np.all(gap_var < 4.0))
    record(11, ok, f"max |sample-exact|/SE = {worst:.2f} over 4 checkpoints "
                   f"(means and variances, 1e5 paths)")
