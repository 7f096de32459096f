import csv
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from relperf import (
    AgentType,
    ExponentialDiscount,
    GridStrategyN,
    HyperbolicDiscount,
    NAgentEquilibrium,
    PathBundle,
    Population,
    SimConfig,
    SpikeSpec,
    TimeGrid,
    TypeDistribution,
    ValidationError,
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


def reference_paths(pop, strategy, cfg):
    n, N = pop.n, cfg.n_paths
    mu, nu, sigma = (np.array([getattr(a, f) for a in pop.agents])
                     for f in ("mu", "nu", "sigma"))
    steps = int(round((T - REF_T0) / cfg.dt))
    dt = (T - REF_T0) / steps
    times = REF_T0 + dt * np.arange(steps + 1)
    times[-1] = T
    PI = strategy.pi_at(times)
    P, q = strategy.consumption_at(times)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    X = np.tile(REF_X0[:n], (N, 1))
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
REFERENCE_CASES = {
    "closed_form": (HET2, lambda: NAgentEquilibrium(HET2, HYP, T),
                    SimConfig(48, 0.05, 11)),
    "cross_coupled": (TRIO, cross_coupled_strategy, SimConfig(48, 0.05, 12)),
    "antithetic": (HET2, lambda: NAgentEquilibrium(HET2, HYP, T),
                   SimConfig(48, 0.05, 13, antithetic=True)),
}


def rel_gap(a, b):
    return np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_kernel_matches_reference_loop(case):
    pop, make, cfg = REFERENCE_CASES[case]
    strategy = make()
    times, _, _, X, C, noise = reference_paths(pop, strategy, cfg)
    bundle = simulate_paths(pop, strategy, REF_T0, REF_X0[:pop.n], T, cfg,
                            store_noise=True)
    assert np.array_equal(bundle.times, times)
    assert np.array_equal(bundle.idio_noise, noise[:, :, :pop.n])
    assert np.array_equal(bundle.common_noise, noise[:, :, pop.n])
    assert rel_gap(bundle.wealth, X) < 1e-12
    assert rel_gap(bundle.consumption, C) < 1e-12

    for agent, spike in ((0, None), (pop.n - 1, (0.1, (0.7, -0.4)))):
        ref = reference_payoff(pop, HYP, strategy, agent, cfg, spike)
        spec = None if spike is None else SpikeSpec(agent, REF_T0, *spike)
        est = expected_payoff(pop, HYP, strategy, agent, REF_T0, REF_X0[:pop.n], T,
                              cfg, spike=spec)
        assert rel_gap(est.value, ref.mean()) < 1e-12
        assert rel_gap(est.std_error, ref.std(ddof=1) / np.sqrt(ref.size)) < 1e-12


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
    # At x0 = 1e4 every U(c) exponent (2 agents, 20 Euler steps from t = 1) and
    # every U(X_T) exponent is clamped; the grid sums its base simulations.
    assert hot.n_clamped == 2 * cfg.n_paths * 21
    assert grid.n_clamped == 2 * cfg.n_paths * (21 + 11)
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


def test_thread_count_respects_env(monkeypatch):
    from relperf._util import thread_count

    monkeypatch.setenv("RELPERF_THREADS", "1")
    assert thread_count() == 1
    monkeypatch.setenv("RELPERF_THREADS", "not-a-number")
    assert thread_count() >= 1
    monkeypatch.delenv("RELPERF_THREADS")
    assert thread_count(upper=2) <= 2
