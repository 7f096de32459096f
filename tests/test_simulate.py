import csv
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import dense_consumption
from relperf import (
    AgentType,
    ExponentialDiscount,
    GridStrategyN,
    HyperbolicDiscount,
    MeanFieldEquilibrium,
    NAgentEquilibrium,
    PathBundle,
    Population,
    SimConfig,
    SpikeSpec,
    TimeGrid,
    TypeDistribution,
    ValidationError,
    best_response_profile,
    expected_payoff,
    export_paths_csv,
    gaussian_moments,
    meanfield_consistency,
    simulate_paths,
    spike_grid,
    spike_test,
)
from relperf import simulate

T = 2.0
GRID = TimeGrid(0.0, T, 100)
EXP = ExponentialDiscount(0.1)
HYP = HyperbolicDiscount(0.1, 1.0)

PAIR = Population([AgentType(1.0, 0.0, 1.0, 0.0, 1.0)] * 2)
HET2 = Population([AgentType(1.0, 0.5, 1.0, 1.0, 1.0),
                   AgentType(2.0, 0.2, 0.5, 0.0, 1.0)])


def constant_strategy(pi_level, n=2, grid=GRID):
    m = grid.n_points
    return GridStrategyN(grid, np.full((n, m), float(pi_level)),
                         np.zeros((n, n, m)), np.zeros((n, m)))


def merton_ignoring_competition(pop, d, grid=GRID):
    """Wrong profile: each agent solves her solo problem at theta = 0."""
    times = grid.times
    n, m = pop.n, grid.n_points
    pi = np.zeros((n, m))
    p = np.zeros((n, n, m))
    q = np.zeros((n, m))
    for i, a in enumerate(pop.agents):
        pi[i] = a.delta * a.mu / (a.sigma**2 + a.nu**2) * (grid.T + 1.0 - times)
        p[i, i] = 1.0 / (grid.T + 1.0 - times)
        solo = Population([AgentType(a.delta, 0.0, a.mu, a.nu, a.sigma)] * 2)
        q[i] = NAgentEquilibrium(solo, d, grid.T).intercepts_at(times)[0]
    return GridStrategyN(grid, pi, p, q)


def test_simconfig_validation():
    with pytest.raises(ValidationError):
        SimConfig(0, 0.01, 1)
    with pytest.raises(ValidationError):
        SimConfig(10, 0.0, 1)
    with pytest.raises(ValidationError):
        SimConfig(11, 0.01, 1, antithetic=True)


def test_zero_strategy_paths_are_constant():
    cfg = SimConfig(50, 0.01, 4)
    bundle = simulate_paths(PAIR, GridStrategyN.zeros(GRID, 2), 0.0, 3.0, T, cfg)
    assert np.all(bundle.wealth == 3.0)
    assert np.all(bundle.consumption == 0.0)


def test_paths_start_at_initial_wealth():
    cfg = SimConfig(64, 0.01, 5)
    eq = NAgentEquilibrium(HET2, HYP, T)
    bundle = simulate_paths(HET2, eq, 0.0, [2.0, -1.0], T, cfg,
                            record_times=[0.0, 1.0, 2.0])
    assert np.all(bundle.wealth[:, 0, 0] == 2.0)
    assert np.all(bundle.wealth[:, 0, 1] == -1.0)
    assert bundle.times.tolist() == [0.0, 1.0, 2.0]


def test_dt_larger_than_horizon_rejected():
    with pytest.raises(ValidationError):
        simulate_paths(PAIR, GridStrategyN.zeros(GRID, 2), 0.0, 0.0, T,
                       SimConfig(10, 5.0, 1))


def test_determinism_bit_identical():
    cfg = SimConfig(32, 0.01, 99)
    eq = NAgentEquilibrium(HET2, HYP, T)
    a = simulate_paths(HET2, eq, 0.0, 1.0, T, cfg, store_noise=True)
    b = simulate_paths(HET2, eq, 0.0, 1.0, T, cfg, store_noise=True)
    assert np.array_equal(a.wealth, b.wealth)
    assert np.array_equal(a.consumption, b.consumption)
    assert np.array_equal(a.common_noise, b.common_noise)
    assert np.array_equal(a.idio_noise, b.idio_noise)


def test_antithetic_pairs_mirror_noise():
    cfg = SimConfig(16, 0.05, 7, antithetic=True)
    bundle = simulate_paths(PAIR, constant_strategy(1.0), 0.0, 0.0, T, cfg,
                            store_noise=True)
    assert np.array_equal(bundle.common_noise[:8], -bundle.common_noise[8:])
    assert np.array_equal(bundle.idio_noise[:8], -bundle.idio_noise[8:])


def test_constant_investment_moments_match_ito_isometry():
    # pi = 1, no consumption: X_t - x0 has mean mu t and variance (nu^2+sigma^2) t
    cfg = SimConfig(40_000, 0.005, 21)
    bundle = simulate_paths(PAIR, constant_strategy(1.0), 0.0, 0.0, T, cfg,
                            record_times=[1.0, 2.0])
    for j, t in enumerate((1.0, 2.0)):
        xs = bundle.wealth[:, j, 0]
        se_mean = np.sqrt(t / cfg.n_paths)
        assert abs(xs.mean() - 1.0 * t) < 4 * se_mean
        se_var = t * np.sqrt(2.0 / (cfg.n_paths - 1))
        assert abs(xs.var(ddof=1) - t) < 4 * se_var


def test_gaussian_moments_zero_strategy():
    means, covs = gaussian_moments(PAIR, GridStrategyN.zeros(GRID, 2), 0.0, 5.0,
                                   [0.5, 2.0], T)
    assert np.allclose(means, 5.0, rtol=0, atol=1e-12)
    assert np.abs(covs).max() < 1e-14


def test_gaussian_moments_constant_strategy_closed_form():
    means, covs = gaussian_moments(PAIR, constant_strategy(1.0), 0.0, 0.0,
                                   [0.7, 2.0], T)
    for j, t in enumerate((0.7, 2.0)):
        assert np.allclose(means[j], t, rtol=1e-9)
        # var = t, cross-covariance = sigma^2 t (common noise only)
        assert covs[j][0, 0] == pytest.approx(t, rel=1e-9)
        assert covs[j][0, 1] == pytest.approx(t, rel=1e-9)  # sigma = 1, nu = 0


def test_gaussian_moments_psd_at_equilibrium():
    eq = NAgentEquilibrium(HET2, HYP, T)
    _, covs = gaussian_moments(HET2, eq, 0.0, 10.0, np.linspace(0.0, T, 6), T)
    for c in covs:
        assert np.linalg.eigvalsh(c).min() >= -1e-10


def test_equilibrium_sample_mean_matches_gaussian_oracle():
    cfg = SimConfig(30_000, 0.002, 31)
    eq = NAgentEquilibrium(HET2, HYP, T)
    checkpoints = np.linspace(0.0, T, 5)
    bundle = simulate_paths(HET2, eq, 0.0, 10.0, T, cfg, record_times=checkpoints)
    means, covs = gaussian_moments(HET2, eq, 0.0, 10.0, checkpoints, T)
    for j in range(1, 5):
        se = np.sqrt(np.diag(covs[j]) / cfg.n_paths)
        gap = np.abs(bundle.wealth[:, j, :].mean(axis=0) - means[j])
        assert np.all(gap < 4 * se + 1e-12)


def test_euler_mean_bias_first_order():
    # deterministic closed loop (pi = 0, time-varying affine consumption):
    # Euler bias at the terminal mean scales like dt
    grid = TimeGrid(0.0, T, 200)
    m = grid.n_points
    times = grid.times
    q = np.vstack([np.sin(times), np.cos(times)])
    p = np.zeros((2, 2, m))
    p[0, 0] = 0.4 + 0.1 * times
    p[1, 1] = 0.2 * np.ones(m)
    strat = GridStrategyN(grid, np.zeros((2, m)), p, q)

    def rhs(t, x):
        return -np.array([(0.4 + 0.1 * t) * x[0] + np.sin(t),
                          0.2 * x[1] + np.cos(t)])

    exact = solve_ivp(rhs, (0.0, T), [1.0, 1.0], rtol=1e-12, atol=1e-13).y[:, -1]
    biases = []
    for dt in (1e-2, 1e-3):
        bundle = simulate_paths(PAIR, strat, 0.0, 1.0, T, SimConfig(1, dt, 0),
                                record_times=[T])
        biases.append(np.abs(bundle.wealth[0, -1, :] - exact).max())
    assert biases[0] / biases[1] == pytest.approx(10.0, rel=0.2)


def test_expected_payoff_deterministic_case():
    # zero controls, unit discount: running utility -1 for two years plus
    # terminal utility -1
    cfg = SimConfig(100, 0.01, 1)
    est = expected_payoff(PAIR, ExponentialDiscount(0.0),
                          GridStrategyN.zeros(GRID, 2), 0, 0.0, 0.0, T, cfg)
    assert est.value == pytest.approx(-3.0, abs=1e-12)
    assert est.std_error < 1e-12
    assert est.n_clamped == 0


def test_expected_payoff_spike_requires_matching_time_and_agent():
    cfg = SimConfig(10, 0.01, 1)
    with pytest.raises(ValidationError):
        expected_payoff(PAIR, EXP, GridStrategyN.zeros(GRID, 2), 0, 0.0, 0.0, T,
                        cfg, spike=SpikeSpec(agent=0, time=0.5, eps=0.1, v=(1, 0)))
    with pytest.raises(ValidationError):
        expected_payoff(PAIR, EXP, GridStrategyN.zeros(GRID, 2), 0, 0.0, 0.0, T,
                        cfg, spike=SpikeSpec(agent=1, time=0.0, eps=0.1, v=(1, 0)))


def test_spike_delta_matches_two_full_runs():
    # the CRN shortcut must equal expected_payoff(perturbed) - expected_payoff(base)
    cfg = SimConfig(500, 0.01, 17)
    eq = NAgentEquilibrium(HET2, HYP, T)
    base = expected_payoff(HET2, HYP, eq, 0, 0.5, 1.0, T, cfg)
    pert = expected_payoff(HET2, HYP, eq, 0, 0.5, 1.0, T, cfg,
                           spike=SpikeSpec(0, 0.5, 0.1, (0.7, -0.4)))
    rep = spike_test(HET2, HYP, eq, 0, 0.5, (0.7, -0.4), [0.1], cfg, 1.0, T)
    assert rep.results[0].slope * 0.1 == pytest.approx(pert.value - base.value,
                                                       abs=1e-12)


def test_spike_zero_perturbation_is_exactly_zero():
    cfg = SimConfig(200, 0.01, 3)
    eq = NAgentEquilibrium(HET2, HYP, T)
    rep = spike_test(HET2, HYP, eq, 0, 0.0, (0.0, 0.0), [0.1, 0.05], cfg, 0.0, T)
    for r in rep.results:
        assert r.slope == 0.0
        assert r.std_error == 0.0
    assert rep.passed


def test_spike_bounded_v_enforced():
    cfg = SimConfig(10, 0.01, 3)
    eq = NAgentEquilibrium(HET2, HYP, T)
    with pytest.raises(ValidationError):
        spike_test(HET2, HYP, eq, 0, 0.0, (100.0, 0.0), [0.1], cfg, 0.0, T)
    with pytest.raises(ValidationError):
        spike_test(HET2, HYP, eq, 0, 0.0, (1.0, 0.0), [3.0], cfg, 0.0, T)


def test_spike_passes_at_equilibrium_small_grid():
    pop = Population([AgentType(1.0, 0.5, 1.0, 0.0, 1.0)] * 2)
    eq = NAgentEquilibrium(pop, HYP, T)
    cfg = SimConfig(8_000, 0.005, 23)
    rep = spike_grid(pop, HYP, eq, [0.0, 1.0], [(1, 0), (0, 1), (-1, -1)],
                     [0.1, 0.05], cfg, 0.0, T)
    assert rep.passed


def test_spike_fails_on_merton_ignoring_competition():
    pop = Population([AgentType(1.0, 0.5, 1.0, 0.0, 1.0)] * 2)
    wrong = merton_ignoring_competition(pop, HYP)
    cfg = SimConfig(20_000, 0.005, 23)
    rep = spike_grid(pop, HYP, wrong, [0.5, 1.0], [(1, 0), (0, 1)], [0.1], cfg,
                     0.0, T)
    assert not rep.passed
    worst = rep.worst()
    assert worst.slope > 3 * worst.std_error


# Reference Euler loop: (N, n) state, one (N, n+1) standard normal draw per
# step (n idiosyncratic factors, then the common one), the update formula
# written out per step, and the spike simulated as an open-loop deviation.
REF_T0 = 1.0
REF_X0 = np.array([1.0, 2.0, 0.5])


def ref_x0(n):
    return np.resize(REF_X0, n)


def reference_paths(pop, strategy, cfg):
    n, N = pop.n, cfg.n_paths
    mu, nu, sigma = (np.array([getattr(a, f) for a in pop.agents])
                     for f in ("mu", "nu", "sigma"))
    steps = int(round((T - REF_T0) / cfg.dt))
    dt = (T - REF_T0) / steps
    times = REF_T0 + dt * np.arange(steps + 1)
    times[-1] = T
    PI = strategy.pi_at(times)
    P, q = dense_consumption(strategy, times)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    X = np.tile(ref_x0(n), (N, 1))
    xs, cs, zs = [], [], []
    for k in range(steps + 1):
        c = X @ P[k].T + q[k]
        xs.append(X)
        cs.append(c)
        if k == steps:
            break
        if cfg.antithetic:
            half = rng.standard_normal((N // 2, n + 1))
            Z = np.concatenate([half, -half])
        else:
            Z = rng.standard_normal((N, n + 1))
        zs.append(Z)
        dW, dB = Z[:, :n] * np.sqrt(dt), Z[:, n:] * np.sqrt(dt)
        X = X + (PI[k] * mu - c) * dt + PI[k] * nu * dW + PI[k] * sigma * dB
    return (times, dt, PI, np.stack(xs, axis=1), np.stack(cs, axis=1),
            np.stack(zs, axis=1) * np.sqrt(dt))


def reference_payoff(pop, discount, strategy, agent, cfg, spike=None):
    """Per-path payoff of ``agent``; with ``spike`` (eps, (v1, v2)) the agent's
    controls are shifted on the window while all other control processes,
    and her own consumption after it, keep their base values."""
    times, dt, PI, X, C, noise = reference_paths(pop, strategy, cfg)
    a = pop.agents[agent]
    n = pop.n

    def utility(y):
        return -np.exp(-(y[:, agent] - a.theta * y.mean(axis=1)) / a.delta)

    eps, (v1, v2) = (0.0, (0.0, 0.0)) if spike is None else spike
    ks = round(eps / dt)
    x_dev = X[:, 0, agent].copy()
    total = np.zeros(cfg.n_paths)
    for k in range(times.size - 1):
        on = k < ks
        c = C[:, k].copy()
        c[:, agent] += v2 * on
        total += discount.value(times[k] - REF_T0) * utility(c) * dt
        pi = PI[k, agent] + v1 * on
        x_dev = x_dev + (pi * a.mu - c[:, agent]) * dt \
            + pi * (a.nu * noise[:, k, agent] + a.sigma * noise[:, k, n])
    x_T = X[:, -1].copy()
    x_T[:, agent] = x_dev
    return total + discount.value(T - REF_T0) * utility(x_T)


def cross_coupled_strategy():
    """Three agents whose consumption loads on every agent's wealth."""
    grid = TimeGrid(0.0, T, 9)
    t = grid.times
    pi = np.vstack([1.0 + 0.2 * t, 0.8 - 0.1 * t, np.full_like(t, 0.5)])
    p = np.empty((3, 3, t.size))
    for i in range(3):
        for k in range(3):
            p[i, k] = (0.5 if i == k else 0.1 * (k - i)) + 0.05 * t
    q = np.vstack([0.1 * t, np.full_like(t, -0.2), np.cos(t)])
    return GridStrategyN(grid, pi, p, q)


TRIO = Population([AgentType(1.0, 0.5, 1.0, 1.0, 1.0),
                   AgentType(2.0, 0.2, 0.5, 0.0, 1.0),
                   AgentType(0.8, 0.6, 1.2, 0.7, 0.0)])
# 64 agents of HET2's two types, interleaved 2:1.
MIXED64 = Population([HET2.agents[k % 3 == 1] for k in range(64)])


def two_class_strategy():
    """MIXED64's reply to the zero profile: (2, 2) class blocks, so every
    agent's consumption loads on every other agent's wealth, within its
    class and across."""
    strat = best_response_profile(MIXED64, HYP,
                                  GridStrategyN.zeros(TimeGrid(0.0, T, 9), 64))
    labels, blocks = strat.classes()
    assert np.bincount(labels).tolist() == [43, 21] and np.all(blocks.off != 0.0)
    return strat


REFERENCE_CASES = {
    "closed_form": (HET2, lambda: NAgentEquilibrium(HET2, HYP, T),
                    SimConfig(48, 0.05, 11)),
    "cross_coupled": (TRIO, cross_coupled_strategy, SimConfig(48, 0.05, 12)),
    "antithetic": (HET2, lambda: NAgentEquilibrium(HET2, HYP, T),
                   SimConfig(48, 0.05, 13, antithetic=True)),
    "two_classes": (MIXED64, two_class_strategy, SimConfig(48, 0.05, 14)),
}


def rel_gap(a, b):
    return np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b))


REFERENCE_SPIKES = ((0, None), (-1, (0.1, (0.7, -0.4))))


def kernel_run(pop, strategy, cfg):
    """The paths with their noise, and the payoff estimates of
    REFERENCE_SPIKES (agent -1 is the last agent)."""
    bundle = simulate_paths(pop, strategy, REF_T0, ref_x0(pop.n), T, cfg,
                            store_noise=True)
    estimates = []
    for agent, spike in REFERENCE_SPIKES:
        agent %= pop.n
        spec = None if spike is None else SpikeSpec(agent, REF_T0, *spike)
        estimates.append(expected_payoff(pop, HYP, strategy, agent, REF_T0,
                                         ref_x0(pop.n), T, cfg, spike=spec))
    return bundle, estimates


def payoff_paths(pop, strategy, cfg):
    """Per-path payoff and spike payoff change of the last agent alone."""
    agent, (eps, v) = pop.n - 1, REFERENCE_SPIKES[1][1]
    sim = simulate._PayoffSim(pop, HYP, strategy, REF_T0, ref_x0(pop.n), T, cfg,
                              [agent], [eps])
    return sim.payoff_paths(agent), sim.delta_payoff(agent, 0, v)


def assert_matches_reference_loop(pop, strategy, cfg):
    times, _, _, X, C, noise = reference_paths(pop, strategy, cfg)
    bundle, estimates = kernel_run(pop, strategy, cfg)
    assert np.array_equal(bundle.times, times)
    assert np.array_equal(bundle.idio_noise, noise[:, :, :pop.n])
    assert np.array_equal(bundle.common_noise, noise[:, :, pop.n])
    assert rel_gap(bundle.wealth, X) < 1e-12
    assert rel_gap(bundle.consumption, C) < 1e-12

    for (agent, spike), est in zip(REFERENCE_SPIKES, estimates):
        ref = reference_payoff(pop, HYP, strategy, agent % pop.n, cfg, spike)
        assert rel_gap(est.value, ref.mean()) < 1e-12
        assert rel_gap(est.std_error, ref.std(ddof=1) / np.sqrt(ref.size)) < 1e-12


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_kernel_matches_reference_loop(case):
    pop, make, cfg = REFERENCE_CASES[case]
    assert_matches_reference_loop(pop, make(), cfg)


def block_widths(pop, cfg):
    return [hi - lo for lo, hi in simulate._blocks(pop.n, cfg)[1]]


# Paths a block: 5 divides neither the 48 paths of a reference case nor the
# 24 drawn for its antithetic run; 1 gives the smallest block, two paths.
BLOCK_PATHS = {"ragged": 5, "smallest": 1}


@pytest.mark.parametrize("block", sorted(BLOCK_PATHS))
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_path_blocks_leave_the_kernel_unchanged(case, block, monkeypatch):
    pop, make, cfg = REFERENCE_CASES[case]
    strategy = make()
    assert len(block_widths(pop, cfg)) == 1
    bundle, estimates = kernel_run(pop, strategy, cfg)
    paths = payoff_paths(pop, strategy, cfg)
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", BLOCK_PATHS[block] * (3 * pop.n + 1))
    widths = block_widths(pop, cfg)
    assert set(widths[:-1]) == {max(2, BLOCK_PATHS[block])} and 2 <= widths[-1] <= 5
    if pop.n > 7:
        # a BLAS product may group its sums differently at this size
        assert_matches_reference_loop(pop, strategy, cfg)
        return
    blocked, blocked_estimates = kernel_run(pop, strategy, cfg)
    for name in ("idio_noise", "common_noise", "wealth", "consumption"):
        assert np.array_equal(getattr(blocked, name), getattr(bundle, name))
    assert blocked_estimates == estimates
    for got, want in zip(payoff_paths(pop, strategy, cfg), paths):
        assert np.array_equal(got, want)


def test_path_blocks_leave_spike_grid_unchanged(monkeypatch):
    eq = NAgentEquilibrium(HET2, HYP, T)
    args = ([0.5, 1.5], [(1, 0), (-1, 1)], [0.1, 0.04])
    for antithetic in (False, True):
        cfg = SimConfig(202, 0.02, 19, antithetic)
        whole = spike_grid(HET2, HYP, eq, *args, cfg, 1.0, T).to_dict()
        # 202 paths, or the 101 drawn for an antithetic run, in blocks of 10
        # or of two paths; a lone last path joins the block before it
        for paths, last in ((10, 11 if antithetic else 2), (1, 3 if antithetic else 2)):
            monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", paths * (3 * HET2.n + 1))
            assert block_widths(HET2, cfg)[-1] == last
            assert spike_grid(HET2, HYP, eq, *args, cfg, 1.0, T).to_dict() == whole


def test_one_path_spike_errors_are_finite_and_shared():
    cfg = SimConfig(1, 0.01, 5)
    eq = NAgentEquilibrium(HET2, HYP, T)
    single = spike_test(HET2, HYP, eq, 1, 0.5, (1.0, 0.0), [0.1], cfg, 1.0, T)
    grid = spike_grid(HET2, HYP, eq, [0.5], [(1.0, 0.0)], [0.1], cfg, 1.0, T,
                      agents=[1])
    # spike_grid draws from a child seed, so only the error rule is shared
    assert single.results[0].std_error == grid.results[0].std_error == 0.0
    grid_tol = 1e-2 * abs(grid.base_payoffs[0.5][1])
    for rep, tol in ((single, single.slope_tol), (grid, grid_tol)):
        assert rep.passed == (rep.results[0].slope <= tol)


def test_spike_reports_count_clamped_exponents():
    cfg = SimConfig(50, 0.05, 2)
    eq = NAgentEquilibrium(HET2, HYP, T)
    calm = spike_grid(HET2, HYP, eq, [1.0], [(1, 0)], [0.1], cfg, 10.0, T)
    assert calm.n_clamped == 0
    hot = spike_test(HET2, HYP, eq, 0, 1.0, (1, 0), [0.1], cfg, 1e4, T)
    grid = spike_grid(HET2, HYP, eq, [1.0, 1.5], [(1, 0)], [0.1], cfg, 1e4, T,
                      agents=[0])
    every = spike_grid(HET2, HYP, eq, [1.0], [(1, 0)], [0.1], cfg, 1e4, T)
    # At x0 = 1e4 every U(c) exponent (20 Euler steps from t = 1) and every
    # U(X_T) exponent is clamped; only the priced agents' exponents are
    # computed, and the grid sums its base simulations.
    assert hot.n_clamped == cfg.n_paths * 21
    assert grid.n_clamped == cfg.n_paths * (21 + 11)
    assert every.n_clamped == 2 * cfg.n_paths * 21
    assert hot.to_dict()["n_clamped"] == hot.n_clamped
    assert grid.to_dict()["n_clamped"] == grid.n_clamped


def test_payoff_second_moments_stable_across_seeds():
    eq = NAgentEquilibrium(HET2, HYP, T)
    ests = [expected_payoff(HET2, HYP, eq, 0, 0.0, 10.0, T,
                            SimConfig(4_000, 0.01, seed))
            for seed in (1, 2)]
    for est in ests:
        assert np.isfinite(est.value) and np.isfinite(est.std_error)
    assert ests[0].std_error == pytest.approx(ests[1].std_error, rel=0.5)
    assert ests[0].value == pytest.approx(
        ests[1].value, abs=4 * (ests[0].std_error + ests[1].std_error))


def test_meanfield_consistency_exact_without_idiosyncratic_noise():
    dist = TypeDistribution([(AgentType(1.0, 0.4, 1.0, 0.0, 1.0), 1.0)])
    rep = meanfield_consistency(dist, HYP, 200, SimConfig(1, 0.01, 3), 0.0, 10.0, T)
    assert rep.max_gap < 1e-10


def test_meanfield_consistency_clt_scaling():
    dist = TypeDistribution([(AgentType(1.0, 0.4, 1.0, 0.8, 0.6), 1.0)])
    gaps = [meanfield_consistency(dist, HYP, m, SimConfig(1, 0.005, 12), 0.0,
                                  10.0, T).max_gap
            for m in (100, 10_000)]
    assert gaps[1] / gaps[0] == pytest.approx(0.1, rel=0.5)


def test_meanfield_consumption_consistency():
    dist = TypeDistribution([
        (AgentType(1.0, 0.4, 1.0, 0.8, 0.6), 0.5),
        (AgentType(2.0, 0.2, 0.7, 0.5, 1.0), 0.5),
    ])
    rep = meanfield_consistency(dist, HYP, 4_000, SimConfig(1, 0.005, 8), 0.0,
                                10.0, T)
    for cp in rep.consumption_checkpoints:
        assert cp.gap <= 5 * cp.cross_se + 1e-9


def test_meanfield_consistency_needs_enough_agents():
    dist = TypeDistribution([(AgentType(1.0, 0.4, 1.0, 0.0, 1.0), 1.0)])
    with pytest.raises(ValidationError):
        meanfield_consistency(dist, HYP, 50, SimConfig(1, 0.01, 3), 0.0, 10.0, T)


# ---------------------------------------------------------------------------
# The two Monte Carlo oracles against their earlier loops


def reference_gaussian_moments(pop, strategy, t0, x0, times, horizon, n_steps=2000):
    """Stage-by-stage RK4 form of gaussian_moments, the profile evaluated
    separately at the nodes and at the midpoints."""
    n = pop.n
    p = pop._params
    x0 = simulate._x0_vector(x0, n)
    query = np.atleast_1d(np.asarray(times, dtype=float))
    base = np.linspace(t0, horizon, n_steps + 1)
    all_t = np.union1d(base, query)
    mids = (all_t[:-1] + all_t[1:]) / 2.0

    def coeffs(ts):
        PI = strategy.pi_at(ts)
        Pmat, qv = dense_consumption(strategy, ts)
        b = PI * p["mu"] - qv
        pn = PI * p["nu"]
        ps = PI * p["sigma"]
        dd = pn[:, :, None] ** 2 * np.eye(n)[None, :, :] \
            + ps[:, :, None] * ps[:, None, :]
        return -Pmat, b, dd

    A_n, b_n, dd_n = coeffs(all_t)
    A_m, b_m, dd_m = coeffs(mids)

    mean = x0.copy()
    cov = np.zeros((n, n))
    where = {float(t): j for j, t in enumerate(all_t)}
    out_idx = [where[float(t)] for t in query]
    means = np.empty((query.size, n))
    covs = np.empty((query.size, n, n))

    def store(j_all, mean, cov):
        for jq, ja in enumerate(out_idx):
            if ja == j_all:
                means[jq] = mean
                covs[jq] = cov

    store(0, mean, cov)
    for k in range(all_t.size - 1):
        h = all_t[k + 1] - all_t[k]
        stages = ((A_n[k], b_n[k], dd_n[k]),
                  (A_m[k], b_m[k], dd_m[k]),
                  (A_m[k], b_m[k], dd_m[k]),
                  (A_n[k + 1], b_n[k + 1], dd_n[k + 1]))
        km = []
        kc = []
        for s, (A, b, dd) in enumerate(stages):
            if s == 0:
                mm, cc = mean, cov
            elif s == 3:
                mm, cc = mean + h * km[2], cov + h * kc[2]
            else:
                mm, cc = mean + h / 2.0 * km[s - 1], cov + h / 2.0 * kc[s - 1]
            km.append(A @ mm + b)
            kc.append(A @ cc + cc @ A.T + dd)
        mean = mean + h / 6.0 * (km[0] + 2 * km[1] + 2 * km[2] + km[3])
        cov = cov + h / 6.0 * (kc[0] + 2 * kc[1] + 2 * kc[2] + kc[3])
        store(k + 1, mean, cov)
    return means, covs


MOMENT_CASES = {
    "closed_form": (HET2, lambda: NAgentEquilibrium(HET2, HYP, T), 10.0,
                    np.linspace(0.0, T, 5)),
    "cross_coupled": (TRIO, cross_coupled_strategy, [1.0, -2.0, 0.5],
                      [0.0, 0.35, 1.1, T]),
    "zeros": (PAIR, lambda: GridStrategyN.zeros(GRID, 2), 5.0, [0.5, 2.0]),
    # off the RK4 nodes, unsorted and repeated, and ending before the horizon
    "unsorted": (HET2, lambda: NAgentEquilibrium(HET2, HYP, T), [3.0, -1.0],
                 [1.3, 0.0, 0.7, 1.3, 1e-4 / 3.0, 0.7, 1.0 / 3.0]),
    "unsorted_cross": (TRIO, cross_coupled_strategy, 2.0, [T, 1.0 / 7.0, T, 0.0]),
    "two_classes": (MIXED64, two_class_strategy, ref_x0(64), [0.0, 0.35, 1.1, T]),
}
# At 64 agents the (n, n) coefficients of 2000 RK4 steps take 130 MB an array.
MOMENT_STEPS = {"two_classes": 200}


@pytest.mark.parametrize("case", sorted(MOMENT_CASES))
def test_gaussian_moments_match_reference_loop(case, monkeypatch):
    pop, make, x0, query = MOMENT_CASES[case]
    steps = MOMENT_STEPS.get(case, simulate.RK4_STEPS)
    monkeypatch.setattr(simulate, "RK4_STEPS", steps)
    strategy = make()
    means, covs = gaussian_moments(pop, strategy, 0.0, x0, query, T)
    ref_means, ref_covs = reference_gaussian_moments(pop, strategy, 0.0, x0, query, T,
                                                     steps)
    assert means.shape == (len(query), pop.n) and covs.shape == (len(query), pop.n, pop.n)
    assert np.array_equal(means, ref_means)
    assert np.array_equal(covs, ref_covs)


def reference_meanfield_consistency(dist, discount, m_agents, cfg, t0, x0, horizon,
                                    n_checkpoints=9):
    """meanfield_consistency with a recording closure called after each step."""
    eq = MeanFieldEquilibrium(dist, discount, horizon)
    times, dt, steps = simulate._euler_times(t0, horizon, cfg.dt)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))

    idx = rng.choice(dist.n_atoms, size=m_agents, p=dist.weights)
    mu = dist.field("mu")[idx]
    nu = dist.field("nu")[idx]
    sigma = dist.field("sigma")[idx]
    coef = eq.atom_coefficients[idx]

    q_atoms = np.asarray(eq.atom_intercepts(times))
    q_agents = q_atoms[idx]
    e_pi_mu = eq._core.e_mu * (horizon + 1.0 - times)
    e_pi_sig = eq._core.e_sig * (horizon + 1.0 - times)
    e_q = dist.weights @ q_atoms

    X = np.full(m_agents, float(x0))
    xbar_ref = float(x0)
    check_idx = np.unique(np.linspace(0, steps, n_checkpoints).round().astype(int))
    wealth_cp, cons_cp = [], []
    max_gap = 0.0
    sqdt = np.sqrt(dt)
    sq_m = np.sqrt(m_agents)

    def record(k):
        nonlocal max_gap
        rem = horizon + 1.0 - times[k]
        gap = abs(float(X.mean()) - xbar_ref)
        max_gap = max(max_gap, gap)
        if k in check_set:
            wealth_cp.append(simulate.CheckpointGap(times[k], gap, float(X.std() / sq_m)))
            c_agents = X / rem + q_agents[:, k]
            c_ref = xbar_ref / rem + float(e_q[k])
            cons_cp.append(simulate.CheckpointGap(
                times[k], abs(float(c_agents.mean()) - c_ref),
                float(c_agents.std() / sq_m)))

    check_set = set(int(k) for k in check_idx)
    record(0)
    for k in range(steps):
        rem = horizon + 1.0 - times[k]
        pi_k = coef * rem
        c_k = X / rem + q_agents[:, k]
        dB = rng.standard_normal() * sqdt
        dW = rng.standard_normal(m_agents) * sqdt
        X = X + (pi_k * mu - c_k) * dt + pi_k * nu * dW + pi_k * sigma * dB
        xbar_ref = xbar_ref + (float(e_pi_mu[k]) - xbar_ref / rem - float(e_q[k])) * dt \
            + float(e_pi_sig[k]) * dB
        record(k + 1)

    predicted = np.sqrt(max(eq._core.e_nu2, 1e-300) * (horizon - t0)) / sq_m
    return simulate.MeanFieldConsistencyReport(m_agents, max_gap, float(predicted),
                                               wealth_cp, cons_cp)


@pytest.mark.parametrize("atoms, m_agents, cfg", [
    ([(AgentType(1.0, 0.4, 1.0, 0.8, 0.6), 1.0)], 300, SimConfig(1, 0.01, 12)),
    ([(AgentType(1.0, 0.4, 1.0, 0.8, 0.6), 0.3),
      (AgentType(2.0, 0.2, 0.7, 0.5, 1.0), 0.7)], 500, SimConfig(1, 0.007, 8)),
])
def test_meanfield_consistency_matches_reference_loop(atoms, m_agents, cfg):
    dist = TypeDistribution(atoms)
    got = meanfield_consistency(dist, HYP, m_agents, cfg, 0.5, 10.0, T)
    want = reference_meanfield_consistency(dist, HYP, m_agents, cfg, 0.5, 10.0, T)
    assert len(got.wealth_checkpoints) == len(got.consumption_checkpoints) == 9
    assert got.to_dict() == want.to_dict()


def test_export_paths_csv(tmp_path):
    cfg = SimConfig(3, 0.5, 4)
    bundle = simulate_paths(PAIR, constant_strategy(1.0), 0.0, 0.0, T, cfg)
    out = tmp_path / "paths.csv"
    export_paths_csv(bundle, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path_id,t,agent_id,wealth,consumption"
    assert len(lines) == 1 + 3 * len(bundle.times) * 2


def reference_paths_csv(bundle, path, header_comment=None):
    """Cell-by-cell csv.writer form of export_paths_csv."""
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["path_id", "t", "agent_id", "wealth", "consumption"])
        for pid in range(bundle.n_paths):
            for j, t in enumerate(bundle.times):
                for a in range(bundle.n_agents):
                    writer.writerow([pid, f"{t:.10g}", a,
                                     f"{bundle.wealth[pid, j, a]:.12g}",
                                     f"{bundle.consumption[pid, j, a]:.12g}"])


def test_export_paths_csv_matches_cell_writer(tmp_path, monkeypatch, rng):
    times = np.array([0.0, 1.0 / 3.0, 1.0, 2.0])
    shape = (5, times.size, 3)
    wealth = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    wealth.flat[:8] = [0.0, -0.0, 1e-300, -1e300, np.nan, np.inf, -np.inf, 123456789012345.0]
    bundle = PathBundle(times, wealth, -wealth[::-1].copy(), seed=0)
    # 24 rows a block: blocks of two paths, the last one partial; then one block
    for block_rows in (24, simulate._CSV_BLOCK_ROWS):
        monkeypatch.setattr(simulate, "_CSV_BLOCK_ROWS", block_rows)
        for comment in (None, "generated-at: now"):
            export_paths_csv(bundle, tmp_path / "got.csv", header_comment=comment)
            reference_paths_csv(bundle, tmp_path / "want.csv", header_comment=comment)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_simulate_paths_refuses_oversized_bundle():
    # every Euler node of 1e5 paths at dt = 1e-3 over T = 2 (6.4 GB), and the
    # noise of that run (4.8 GB): refused before anything is allocated
    cfg = SimConfig(100_000, 1e-3, 0)
    tracemalloc.start()
    try:
        for kwargs in ({}, {"record_times": [0.0, T], "store_noise": True}):
            with pytest.raises(ValidationError, match=r"would take \d.* GiB"):
                simulate_paths(PAIR, constant_strategy(1.0), 0.0, 0.0, T, cfg, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_simulate_paths_refuses_record_times_outside_the_horizon():
    cfg = SimConfig(4, 0.1, 0)
    for record in ([0.5, 7.0, -3.0], [T + 1e-9], [-1e-9]):
        with pytest.raises(ValidationError, match=r"must lie in \[t0, horizon\]"):
            simulate_paths(PAIR, constant_strategy(1.0), 0.0, 0.0, T, cfg,
                           record_times=record)
    bundle = simulate_paths(PAIR, constant_strategy(1.0), 0.0, 0.0, T, cfg,
                            record_times=[T + 1e-13, -1e-13])
    assert bundle.times.tolist() == [0.0, T]


def test_payoff_calls_refuse_agents_out_of_range():
    cfg = SimConfig(4, 0.1, 0)
    eq = NAgentEquilibrium(HET2, HYP, T)
    for bad in (-1, 2, 0.5):
        with pytest.raises(ValidationError, match=f"agent index {bad} out of range"):
            spike_grid(HET2, HYP, eq, [1.0], [(1, 0)], [0.1], cfg, 1.0, T,
                       agents=[0, bad])
        with pytest.raises(ValidationError, match=f"agent index {bad} out of range"):
            spike_test(HET2, HYP, eq, bad, 1.0, (1, 0), [0.1], cfg, 1.0, T)
        with pytest.raises(ValidationError, match=f"agent index {bad} out of range"):
            expected_payoff(HET2, HYP, eq, bad, 1.0, 1.0, T, cfg)


def test_closed_form_paths_build_no_dense_slopes():
    # the closed form's consumption is one class with no cross slopes, so 256
    # agents over 200 steps allocate no (201, 256, 256) slopes (105 MB)
    pop = Population([HET2.agents[k % 2] for k in range(256)])
    eq = NAgentEquilibrium(pop, HYP, T)
    tracemalloc.start()
    try:
        simulate_paths(pop, eq, 0.0, 1.0, T, SimConfig(8, T / 200, 0),
                       record_times=[0.0, 1.0, T])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def traced_peak(fn, *args, **kwargs):
    """The call's result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SPIKE_PAIR = Population([AgentType(1.0, 0.5, 1.0, 0.0, 1.0),
                         AgentType(1.4, 0.3, 0.8, 0.5, 0.9)])


def test_spike_test_temporaries_are_block_sized():
    # 1e5 paths, 30 Euler steps, three spike windows: the full-width arrays
    # are the wealth, the running and terminal payoffs, the per-window payoff
    # and noise and, until the last window closes, the window noise sums
    eq = NAgentEquilibrium(SPIKE_PAIR, HYP, T)
    rep, peak = traced_peak(spike_test, SPIKE_PAIR, HYP, eq, 0, 1.625, (1, 0),
                            (0.1, 0.05, 0.025), SimConfig(100_000, 0.0125, 3), 10.0, T)
    assert len(rep.results) == 3
    assert peak < 13e6


def test_payoff_without_spike_keeps_no_window_sums():
    # 1e5 paths from t = 1.625 with no spike window: the full-width arrays are
    # the wealth and the running and terminal payoffs (3.2 MB), and the step
    # buffers are freed before the terminal payoffs are allocated (3.8 MB in
    # all); the (n + 1, N) window noise sums (2.4 MB) would lift it to 6.2 MB.
    # A first small call keeps the imports it triggers out of the peak.
    eq = NAgentEquilibrium(SPIKE_PAIR, HYP, T)
    expected_payoff(SPIKE_PAIR, HYP, eq, 0, 1.625, 10.0, T, SimConfig(10, 0.0125, 3))
    est, peak = traced_peak(expected_payoff, SPIKE_PAIR, HYP, eq, 0, 1.625, 10.0, T,
                            SimConfig(100_000, 0.0125, 3))
    assert est.n_paths == 100_000
    assert peak < 4.1e6


def test_simulate_paths_keeps_one_full_width_state():
    # four Euler steps recorded at two times: beside the bundle, the (n, N)
    # wealth and block-sized buffers
    n, N = 256, 2048
    pop = Population([HET2.agents[k % 2] for k in range(n)])
    eq = NAgentEquilibrium(pop, HYP, T)
    bundle, peak = traced_peak(simulate_paths, pop, eq, 0.0, 1.0, T,
                               SimConfig(N, T / 4, 0), record_times=[0.0, T])
    assert bundle.wealth.shape == (N, 2, n)
    assert peak <= bundle.wealth.nbytes + bundle.consumption.nbytes + 1.5 * 8 * n * N


def test_gaussian_moments_refuses_oversized_coefficients():
    # 256 agents over 2000 RK4 steps: three (4001, 256, 256) arrays (6.3 GB),
    # refused before anything large is allocated
    pop = Population([HET2.agents[k % 2] for k in range(256)])
    eq = NAgentEquilibrium(pop, HYP, T)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"of 256 agents would take 5.86 GiB"):
            gaussian_moments(pop, eq, 0.0, 1.0, [T], T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_spike_grid_does_not_depend_on_the_pool(monkeypatch):
    eq = NAgentEquilibrium(HET2, HYP, T)
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("RELPERF_THREADS", threads)
        rep = spike_grid(HET2, HYP, eq, [0.5, 1.0, 1.5], [(1, 0), (0, -1)], [0.1, 0.05],
                         SimConfig(2_000, 0.02, 9), 1.0, T)
        reports.append(rep.to_dict())
    assert reports[0] == reports[1]


def test_thread_count_respects_env(monkeypatch):
    from relperf._util import thread_count

    monkeypatch.setenv("RELPERF_THREADS", "1")
    assert thread_count() == 1
    monkeypatch.setenv("RELPERF_THREADS", "not-a-number")
    assert thread_count() >= 1
    monkeypatch.delenv("RELPERF_THREADS")
    assert thread_count(upper=2) <= 2
