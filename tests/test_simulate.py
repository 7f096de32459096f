import csv
import dataclasses
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import dense_consumption
from relperf import (
    AgentType,
    ExponentialDiscount,
    GridStrategyN,
    HyperbolicDiscount,
    MeanFieldEquilibrium,
    MFGridStrategy,
    NAgentEquilibrium,
    PathBundle,
    Population,
    SimConfig,
    TabulatedDiscount,
    TimeGrid,
    TypeDistribution,
    ValidationError,
    best_response_profile,
    expected_payoff,
    export_paths_csv,
    fixed_point_mfg,
    fixed_point_nagent,
    gaussian_moments,
    meanfield_consistency,
    simulate_paths,
    spike_grid,
)
from relperf import simulate

T = 2.0
GRID = TimeGrid(0.0, T, 100)
EXP = ExponentialDiscount(0.1)
HYP = HyperbolicDiscount(0.1, 1.0)
TAB = TabulatedDiscount([0.0, 0.37, 1.13, 1.71, 2.5], [1.0, 0.93, 0.71, 0.69, 0.5])

PAIR = Population([AgentType(1.0, 0.0, 1.0, 0.0, 1.0)] * 2)
HET2 = Population([AgentType(1.0, 0.5, 1.0, 1.0, 1.0),
                   AgentType(2.0, 0.2, 0.5, 0.0, 1.0)])
# Every noise factor loads: all nu > 0 and some sigma > 0.
ALL_LOAD = Population([AgentType(1.0, 0.5, 1.0, 1.0, 1.0),
                       AgentType(2.0, 0.2, 0.5, 0.4, 1.0),
                       AgentType(0.8, 0.6, 1.2, 0.7, 0.0)])
# No common noise: every sigma = 0.
NO_COMMON = Population([AgentType(1.0, 0.5, 1.0, 1.0, 0.0),
                        AgentType(1.5, 0.3, 0.8, 0.6, 0.0)])


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
    # one double a path past the address space: refused before any chunk
    with pytest.raises(ValidationError, match=r"at most 2\*\*45"):
        SimConfig(2**45 + 2, 0.01, 1)
    assert SimConfig(2**45, 0.01, 1).n_paths == 2**45
    with pytest.raises(ValidationError):
        SimConfig(10, 0.0, 1)
    with pytest.raises(ValidationError):
        SimConfig(11, 0.01, 1, antithetic=True)
    # refused and named here, not later by numpy's SeedSequence or a raw TypeError
    for args, name in (((2.5, 0.01, 1), "n_paths"), (("10", 0.01, 1), "n_paths"),
                       ((10, 0.01, -1), "seed"), ((10, 0.01, 1.5), "seed")):
        with pytest.raises(ValidationError, match=f"sim field '{name}'"):
            SimConfig(*args)


@pytest.mark.parametrize("dt", ["0.1", True, np.inf, np.nan])
def test_simconfig_refuses_a_dt_that_is_not_a_finite_number(dt):
    # a string used to end in a raw TypeError, and a bool or inf was accepted
    with pytest.raises(ValidationError, match=re.escape(
            f"sim field 'dt' must be a finite number > 0 (got {dt!r})")):
        SimConfig(8, dt, 1)


# Every entry point that takes x0, called with a given x0.
X0_CALLS = {
    "simulate_paths": lambda x0: simulate_paths(
        HET2, NAgentEquilibrium(HET2, HYP, T), 0.0, x0, T, SimConfig(8, 0.1, 1)),
    "expected_payoff": lambda x0: expected_payoff(
        HET2, HYP, NAgentEquilibrium(HET2, HYP, T), 0, 0.0, x0, T, SimConfig(8, 0.1, 1)),
    "spike_grid": lambda x0: spike_grid(
        HET2, HYP, NAgentEquilibrium(HET2, HYP, T), [0.5], [(1, 0)], [0.1],
        SimConfig(8, 0.1, 1), x0, T),
    "gaussian_moments": lambda x0: gaussian_moments(
        HET2, NAgentEquilibrium(HET2, HYP, T), 0.0, x0, [0.0, 1.0], T),
    "meanfield_consistency": lambda x0: meanfield_consistency(
        TypeDistribution([(HET2.agents[0], 1.0)]), HYP, 100, SimConfig(1, 0.1, 0), 0.0,
        x0, T),
}


@pytest.mark.parametrize("x0", [np.nan, np.inf, [1.0, -np.inf]])
@pytest.mark.parametrize("call", sorted(X0_CALLS))
def test_non_finite_x0_is_refused_before_anything_is_simulated(call, x0, monkeypatch):
    # a NaN x0 used to run in full: spike_grid passed with every slope NaN and
    # meanfield_consistency reported a zero gap
    schemes = []
    monkeypatch.setattr(simulate._EulerScheme, "__init__",
                        lambda self, *args: schemes.append(args))
    with pytest.raises(ValidationError, match="x0 must be a finite"):
        X0_CALLS[call](x0)
    assert schemes == []


# Every entry point that takes a horizon (or, for simulate_paths_t0, a start
# time), called with a given value.
HORIZON_CALLS = {
    "NAgentEquilibrium": lambda h: NAgentEquilibrium(HET2, HYP, h),
    "hhat": lambda h: NAgentEquilibrium(HET2, HYP, h).hhat(0, 1.0),
    "MeanFieldEquilibrium": lambda h: MeanFieldEquilibrium(
        TypeDistribution([(HET2.agents[0], 1.0)]), HYP, h),
    "simulate_paths": lambda h: simulate_paths(
        HET2, NAgentEquilibrium(HET2, HYP, T), 0.0, 1.0, h, SimConfig(8, 0.1, 1)),
    "simulate_paths_t0": lambda t0: simulate_paths(
        HET2, NAgentEquilibrium(HET2, HYP, T), t0, 1.0, T, SimConfig(8, 0.1, 1)),
    "expected_payoff": lambda h: expected_payoff(
        HET2, HYP, NAgentEquilibrium(HET2, HYP, T), 0, 0.0, 1.0, h, SimConfig(8, 0.1, 1)),
    "meanfield_consistency": lambda h: meanfield_consistency(
        TypeDistribution([(HET2.agents[0], 1.0)]), HYP, 100, SimConfig(1, 0.1, 0), 0.0,
        1.0, h),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("call", sorted(HORIZON_CALLS))
def test_non_finite_horizon_is_refused_with_its_value(call, value, monkeypatch):
    # an infinite horizon used to give inf or NaN curves without an error,
    # and the Euler grid a raw ValueError or OverflowError
    schemes = []
    monkeypatch.setattr(simulate._EulerScheme, "__init__",
                        lambda self, *args: schemes.append(args))
    with pytest.raises(ValidationError, match=f"{value!r}\\)"):
        HORIZON_CALLS[call](value)
    assert schemes == []


# Python-API scalars of the wrong type, each with the value its refusal names.
MF_LAW = TypeDistribution([(HET2.agents[0], 1.0)])
WRONG_TYPE_CALLS = {
    "TimeGrid_t0": (lambda: TimeGrid("0", 2.0, 3), "0"),
    "TimeGrid_T": (lambda: TimeGrid(0.0, True, 3), True),
    "NAgentEquilibrium_str": (lambda: NAgentEquilibrium(HET2, HYP, "2"), "2"),
    "NAgentEquilibrium_bool": (lambda: NAgentEquilibrium(HET2, HYP, True), True),
    "MeanFieldEquilibrium": (lambda: MeanFieldEquilibrium(MF_LAW, HYP, "2"), "2"),
    "simulate_paths_horizon": (lambda: simulate_paths(
        HET2, NAgentEquilibrium(HET2, HYP, T), 0.0, 1.0, "2", SimConfig(8, 0.1, 1)), "2"),
    "simulate_paths_t0": (lambda: simulate_paths(
        HET2, NAgentEquilibrium(HET2, HYP, T), "0", 1.0, T, SimConfig(8, 0.1, 1)), "0"),
    "expected_payoff": (lambda: expected_payoff(
        HET2, HYP, NAgentEquilibrium(HET2, HYP, T), 0, 0.0, 1.0, "2",
        SimConfig(8, 0.1, 1)), "2"),
    "spike_grid": (lambda: spike_grid(
        HET2, HYP, NAgentEquilibrium(HET2, HYP, T), [0.0], [(1.0, 0.0)], [0.1],
        SimConfig(8, 0.1, 1), 1.0, "2"), "2"),
    "fixed_point_nagent": (lambda: fixed_point_nagent(
        HET2, HYP, GridStrategyN.zeros(GRID, 2), tol="1e-10"), "1e-10"),
    "fixed_point_mfg": (lambda: fixed_point_mfg(
        MF_LAW, HYP, MFGridStrategy.zeros(GRID, MF_LAW), tol="1e-10"), "1e-10"),
    "meanfield_consistency": (lambda: meanfield_consistency(
        MF_LAW, HYP, 100.5, SimConfig(1, 0.1, 0), 0.0, 1.0, T), 100.5),
    "mean_wealth_nan": (lambda: MeanFieldEquilibrium(MF_LAW, HYP, T).mean_wealth(
        GRID, np.nan), np.nan),
    "mean_wealth_str": (lambda: MeanFieldEquilibrium(MF_LAW, HYP, T).mean_wealth(
        GRID, "1"), "1"),
    "average_consumption": (lambda: MeanFieldEquilibrium(MF_LAW, HYP, T).average_consumption(
        GRID, np.inf), np.inf),
}


@pytest.mark.parametrize("call", sorted(WRONG_TYPE_CALLS))
def test_a_scalar_of_the_wrong_type_is_refused_with_its_value(call, monkeypatch):
    # a string, a bool, a fractional agent count or a non-finite x0 used to
    # end in a raw TypeError, or to run as a number
    schemes = []
    monkeypatch.setattr(simulate._EulerScheme, "__init__",
                        lambda self, *args: schemes.append(args))
    make, value = WRONG_TYPE_CALLS[call]
    with pytest.raises(ValidationError, match=re.escape(f"(got {value!r})")):
        make()
    assert schemes == []


@pytest.mark.parametrize("eps_list", [(), (0.1, 0.05)])
def test_payoff_simulation_evaluates_the_strategy_once(eps_list):
    # one Euler scheme samples the paths and gives their exact law
    calls = {"pi_at": 0, "consumption_at": 0}
    eq = NAgentEquilibrium(SPIKE_PAIR, HYP, T)

    class Counted:
        def pi_at(self, times):
            calls["pi_at"] += 1
            return eq.pi_at(times)

        def consumption_at(self, times):
            calls["consumption_at"] += 1
            return eq.consumption_at(times)

    simulate._PayoffSim(SPIKE_PAIR, HYP, Counted(), 0.5, 1.0, T, SimConfig(20, 0.05, 3),
                        [0, 1], eps_list)
    assert calls == {"pi_at": 1, "consumption_at": 1}


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


def kernel_draws(pop, strategy, t0, cfg):
    """The standard normals that the Euler sampler draws from t0 to T, chunk
    by chunk, as (n_paths, steps, d): one column per noise factor that loads,
    gathered from each step's (d, B) factor-major buffer."""
    times, dt, steps = simulate._euler_times(t0, T, cfg.dt)
    scheme = simulate._EulerScheme(pop, strategy, times, dt)
    draws = np.empty((cfg.n_paths, steps, scheme.unit.shape[1]))
    for chunk, drawn, paths in simulate._chunks(pop.n, cfg):
        for k, _, _, Z in simulate._EulerScheme.lockstep([scheme], [steps], np.zeros(pop.n),
                                                         cfg, chunk, drawn):
            if Z is not None:
                draws[paths, k] = Z.T
    return draws


def substream(seed, chunk):
    """The SFC64 generator of chunk ``chunk``'s substream of ``seed``, child
    ``chunk`` of ``SeedSequence(seed).spawn``."""
    child = np.random.SeedSequence(seed).spawn(chunk + 1)[chunk]
    return np.random.Generator(np.random.SFC64(child))


def test_determinism_bit_identical():
    cfg = SimConfig(32, 0.01, 99)
    eq = NAgentEquilibrium(HET2, HYP, T)
    a = simulate_paths(HET2, eq, 0.0, 1.0, T, cfg)
    b = simulate_paths(HET2, eq, 0.0, 1.0, T, cfg)
    assert np.array_equal(a.wealth, b.wealth)
    assert np.array_equal(a.consumption, b.consumption)
    assert np.array_equal(kernel_draws(HET2, eq, 0.0, cfg), kernel_draws(HET2, eq, 0.0, cfg))


def test_antithetic_pairs_mirror_noise():
    cfg = SimConfig(16, 0.05, 7, antithetic=True)
    draws = kernel_draws(PAIR, constant_strategy(1.0), 0.0, cfg)
    assert np.array_equal(draws[:8], -draws[8:])


@pytest.mark.parametrize("pop", [ALL_LOAD, HET2, NO_COMMON], ids=["all", "het2", "no_common"])
def test_antithetic_runs_mirror_every_stored_column(pop):
    cfg = SimConfig(16, 0.05, 7, antithetic=True)
    draws = kernel_draws(pop, NAgentEquilibrium(pop, HYP, T), 0.0, cfg)
    assert np.array_equal(draws[:8], -draws[8:])
    loads = [a.nu != 0 for a in pop.agents] + [any(a.sigma != 0 for a in pop.agents)]
    assert draws.shape[2] == sum(loads) and np.all(draws != 0)


def test_a_population_where_every_factor_loads_keeps_the_full_stream():
    # (n + 1, N) normals a step, factor-major: n idiosyncratic rows then the
    # common one, from the SFC64 substream of the one chunk
    N, n, seed = 20, ALL_LOAD.n, 31
    cfg = SimConfig(N, 0.1, seed)
    draws = kernel_draws(ALL_LOAD, NAgentEquilibrium(ALL_LOAD, HYP, T), 0.0, cfg)
    steps = draws.shape[1]
    rng = substream(seed, 0)
    want = np.stack([rng.standard_normal((n + 1, N)).T for _ in range(steps)], axis=1)
    assert np.array_equal(draws, want)


def test_an_antithetic_run_where_every_factor_loads_mirrors_row_fills():
    # each step, every factor's row of the drawn paths is filled in turn from
    # the chunk's substream, and the mirrored paths take their negation
    N, n, seed = 20, ALL_LOAD.n, 31
    cfg = SimConfig(N, 0.1, seed, antithetic=True)
    draws = kernel_draws(ALL_LOAD, NAgentEquilibrium(ALL_LOAD, HYP, T), 0.0, cfg)
    assert np.array_equal(draws[N // 2:], -draws[:N // 2])
    rng = substream(seed, 0)
    for k in range(draws.shape[1]):
        rows = [rng.standard_normal(N // 2) for _ in range(n + 1)]
        assert np.array_equal(draws[:N // 2, k], np.stack(rows, axis=1))


def test_unit_loading_has_one_column_per_factor_that_loads():
    # nu_i in agent i's W_i column where nu_i != 0, in agent order, then
    # sigma_i in the common B column if some sigma_i != 0
    cases = (
        (HET2, [[1.0, 1.0],
                [0.0, 1.0]]),
        (TRIO, [[1.0, 0.0, 1.0],
                [0.0, 0.0, 1.0],
                [0.0, 0.7, 0.0]]),
        (NO_COMMON, [[1.0, 0.0],
                     [0.0, 0.6]]),
        (ALL_LOAD, [[1.0, 0.0, 0.0, 1.0],
                    [0.0, 0.4, 0.0, 1.0],
                    [0.0, 0.0, 0.7, 0.0]]),
    )
    for pop, want in cases:
        assert np.array_equal(simulate._unit_loading(pop._params), np.array(want))


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


def full_mean_se(values):
    """Mean and standard error of per-path values, from the whole array."""
    return values.mean(), values.std(ddof=1) / np.sqrt(values.size)


def test_spike_delta_matches_two_full_runs():
    # the CRN slope times eps is the mean payoff change of its simulation,
    # and matches the perturbed payoff less the base payoff of two full
    # reference runs on the same draws in paired standard errors; the base is
    # the exact law's, and expected_payoff's full run lands within 4 SE of it
    cfg = SimConfig(2_000, 0.01, 17)
    eq = NAgentEquilibrium(HET2, HYP, T)
    x0, v = ref_x0(2), (0.7, -0.4)
    base = expected_payoff(HET2, HYP, eq, 0, REF_T0, x0, T, cfg)
    sim = simulate._PayoffSim(HET2, HYP, eq, REF_T0, x0, T, cfg, [0], [0.1], [v])
    delta = priced_paths(sim, cfg)["delta"][0][0]
    rep = spike_grid(HET2, HYP, eq, [REF_T0], [v], [0.1], cfg, x0, T, agents=[0])
    exact, row = rep.base_payoffs[REF_T0][0], rep.results[0]
    assert exact == sim.base[0]
    assert abs(exact - base.value) < 4 * base.std_error
    assert row.slope * 0.1 == pytest.approx(delta.mean(), abs=1e-12)
    assert row.std_error * 0.1 == pytest.approx(full_mean_se(delta)[1], abs=1e-12)
    gap = delta - (reference_payoff(HET2, HYP, eq, 0, cfg, (0.1, v))
                   - reference_payoff(HET2, HYP, eq, 0, cfg))
    assert abs(gap.mean()) < 4 * gap.std(ddof=1) / np.sqrt(gap.size)


def test_spike_zero_perturbation_is_exactly_zero():
    cfg = SimConfig(200, 0.01, 3)
    eq = NAgentEquilibrium(HET2, HYP, T)
    rep = spike_grid(HET2, HYP, eq, [0.0], [(0.0, 0.0)], [0.1, 0.05], cfg, 0.0, T,
                     agents=[0])
    for r in rep.results:
        assert r.slope == 0.0
        assert r.std_error == 0.0
    assert rep.passed


def test_spike_bounded_v_enforced():
    cfg = SimConfig(10, 0.01, 3)
    eq = NAgentEquilibrium(HET2, HYP, T)
    with pytest.raises(ValidationError):
        spike_grid(HET2, HYP, eq, [0.0], [(100.0, 0.0)], [0.1], cfg, 0.0, T, agents=[0])
    with pytest.raises(ValidationError):
        spike_grid(HET2, HYP, eq, [0.0], [(1.0, 0.0)], [3.0], cfg, 0.0, T, agents=[0])


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
    # one column per factor that loads: W_i where nu_i != 0, then B if any
    # sigma_i != 0; a factor that does not load gets zeros.  Chunk i draws
    # its paths step by step from SFC64 substream i, factor-major, one row of
    # drawn paths per factor, mirrored after them when antithetic.
    cols = [*np.flatnonzero(nu != 0), *[n] * bool(np.any(sigma != 0))]
    draws = np.empty((N, steps, len(cols)))
    for chunk, drawn, paths in simulate._chunks(n, cfg):
        rng = substream(cfg.seed, chunk)
        for k in range(steps):
            half = rng.standard_normal((len(cols), drawn)).T
            draws[paths, k] = np.concatenate([half, -half]) if cfg.antithetic else half
    X = np.tile(ref_x0(n), (N, 1))
    xs, cs, zs = [], [], []
    for k in range(steps + 1):
        c = X @ P[k].T + q[k]
        xs.append(X)
        cs.append(c)
        if k == steps:
            break
        Z = np.zeros((N, n + 1))
        Z[:, cols] = draws[:, k]
        zs.append(Z)
        dW, dB = Z[:, :n] * np.sqrt(dt), Z[:, n:] * np.sqrt(dt)
        X = X + (PI[k] * mu - c) * dt + PI[k] * nu * dW + PI[k] * sigma * dB
    return (times, dt, PI, np.stack(xs, axis=1), np.stack(cs, axis=1),
            np.stack(zs, axis=1) * np.sqrt(dt), draws)


def reference_utility(pop, agent, y):
    """CARA utility of ``agent`` for the (N, n) values y, per path."""
    a = pop.agents[agent]
    return -np.exp(-(y[:, agent] - a.theta * y.mean(axis=1)) / a.delta)


def reference_payoff(pop, discount, strategy, agent, cfg, spike=None):
    """Per-path payoff of ``agent``; with ``spike`` (eps, (v1, v2)) the agent's
    controls are shifted on the window while all other control processes,
    and her own consumption after it, keep their base values."""
    times, dt, PI, X, C, noise, _ = reference_paths(pop, strategy, cfg)
    a = pop.agents[agent]
    n = pop.n
    eps, (v1, v2) = (0.0, (0.0, 0.0)) if spike is None else spike
    ks = round(eps / dt)
    x_dev = X[:, 0, agent].copy()
    total = np.zeros(cfg.n_paths)
    for k in range(times.size - 1):
        on = k < ks
        c = C[:, k].copy()
        c[:, agent] += v2 * on
        total += discount.value(times[k] - REF_T0) * reference_utility(pop, agent, c) * dt
        pi = PI[k, agent] + v1 * on
        x_dev = x_dev + (pi * a.mu - c[:, agent]) * dt \
            + pi * (a.nu * noise[:, k, agent] + a.sigma * noise[:, k, n])
    x_T = X[:, -1].copy()
    x_T[:, agent] = x_dev
    return total + discount.value(T - REF_T0) * reference_utility(pop, agent, x_T)


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
    "no_common": (NO_COMMON, lambda: NAgentEquilibrium(NO_COMMON, HYP, T),
                  SimConfig(48, 0.05, 15)),
}


def rel_gap(a, b):
    return np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b))


# The last agent's spike (eps, v) that the kernel tests price.
REFERENCE_SPIKE = (0.1, (0.7, -0.4))


def reference_window(pop, strategy, agent, cfg, eps):
    """Per path, ``agent``'s discounted running utility and nu dW + sigma dB,
    each summed over the first ``eps`` of the reference loop."""
    times, dt, _, _, C, noise, _ = reference_paths(pop, strategy, cfg)
    a, ks = pop.agents[agent], round(eps / dt)
    run = sum(HYP.value(times[k] - REF_T0) * reference_utility(pop, agent, C[:, k]) * dt
              for k in range(ks))
    return run, a.nu * noise[:, :ks, agent].sum(axis=1) + a.sigma * noise[:, :ks, pop.n].sum(axis=1)


def reference_tail(pop, strategy, agent, cfg, w):
    """-E[exp(e X_T) | X_w] per path of the reference loop, for ``agent``'s
    terminal exponent e, by the backward recursion on dense (n, n) maps:
    g_k = D_k' g_{k+1}, h_k = h_{k+1} + g_{k+1} b_k + |L_k' g_{k+1}|^2 / 2,
    with D_k = I - dt P_k, b_k = (pi_k mu - q_k) dt, L_k = diag(pi_k) [diag(nu), sigma] sqrt(dt)."""
    times, dt, PI, X, _, _, _ = reference_paths(pop, strategy, cfg)
    n, a = pop.n, pop.agents[agent]
    mu, nu, sigma = (np.array([getattr(b, f) for b in pop.agents])
                     for f in ("mu", "nu", "sigma"))
    P, q = dense_consumption(strategy, times)
    g = np.full(n, a.theta / a.delta / n)
    g[agent] = -(1.0 - a.theta / n) / a.delta
    h = 0.0
    for k in range(times.size - 2, w - 1, -1):
        L = PI[k][:, None] * np.column_stack([np.diag(nu), sigma]) * np.sqrt(dt)
        h += g @ ((PI[k] * mu - q[k]) * dt) + 0.5 * np.sum((L.T @ g) ** 2)
        g = (np.eye(n) - dt * P[k]).T @ g
    return -np.exp(X[:, w] @ g + h)


def reference_exponents(pop, strategy, e, t0, x0, dt):
    """The exact law of the Euler scheme from x0 at t0 for the rows of e, node
    by node on dense (n, n) maps: the (r, steps + 1) exponents of E[exp(e c_k)]
    at each node k < steps and of E[exp(e X_T)], carrying the mean m and
    covariance C forward (m = D_k m + b_k, C = D_k C D_k' + L_k L_k'), and
    {w: (g, h)} with E[exp(e X_T) | X_w] = exp(g X_w + h) at every node w."""
    times, dt, steps = simulate._euler_times(t0, T, dt)
    n = pop.n
    mu, nu, sigma = (np.array([getattr(b, f) for b in pop.agents])
                     for f in ("mu", "nu", "sigma"))
    PI = strategy.pi_at(times)
    P, q = dense_consumption(strategy, times)
    D = np.eye(n) - dt * P
    b = (PI * mu - q) * dt
    L = PI[:, :, None] * np.column_stack([np.diag(nu), sigma]) * np.sqrt(dt)
    m, C = np.array(x0, dtype=float), np.zeros((n, n))
    out = np.empty((len(e), steps + 1))
    for k in range(steps + 1):
        F = e if k == steps else e @ P[k]
        out[:, k] = F @ m + (0.0 if k == steps else e @ q[k]) + 0.5 * np.diag(F @ C @ F.T)
        if k < steps:
            m, C = D[k] @ m + b[k], D[k] @ C @ D[k].T + L[k] @ L[k].T
    g, h = e.copy(), np.zeros(len(e))
    tails = {steps: (g, h)}
    for k in range(steps - 1, -1, -1):
        h = h + g @ b[k] + 0.5 * np.sum((g @ L[k]) ** 2, axis=1)
        g = g @ D[k]
        tails[k] = g, h
    return out, tails


def partly_cross_strategy():
    """TRIO's consumption with cross slopes only from t = 1.25 on: before it
    every node steps on the diagonal decay alone."""
    strat = cross_coupled_strategy()
    p = strat.p.copy()
    off = ~np.eye(3, dtype=bool)
    p[off] *= (strat.grid.times >= 1.25)[None]
    return GridStrategyN(strat.grid, strat.pi, p, strat.q)


def steep_strategy():
    """HET2 consuming 30 X_i + q on the grid point t = 1.5, so that dt own
    passes 1 at the Euler nodes around it (dt = 0.05): there the decay
    1 - dt own is 0 or below."""
    grid = TimeGrid(0.0, T, 9)
    slope = np.where(grid.times == 1.5, 30.0, 0.4)
    p = np.zeros((2, 2, grid.times.size))
    p[0, 0], p[1, 1] = slope, 0.5 * slope
    return GridStrategyN(grid, np.vstack([1.0 + 0.1 * grid.times, np.full(grid.times.size, 0.7)]),
                         p, np.vstack([0.1 * grid.times, np.full(grid.times.size, -0.2)]))


LAW_CASES = {**{case: (pop, make, cfg.dt) for case, (pop, make, cfg) in REFERENCE_CASES.items()},
             "cross_on_part_of_the_grid": (TRIO, partly_cross_strategy, 0.05),
             "decay_past_zero": (HET2, steep_strategy, 0.05)}


def assert_law_matches_the_dense_loop(pop, strategy, e, t0, dt):
    times, dt, steps = simulate._euler_times(t0, T, dt)
    scheme = simulate._EulerScheme(pop, strategy, times, dt)
    x0 = ref_x0(pop.n)
    want, want_tails = reference_exponents(pop, strategy, e, t0, x0, dt)
    assert rel_gap(scheme.exponents(e, x0), want) < 1e-12
    tails = scheme.tails(e, set(range(steps + 1)))
    assert sorted(tails) == list(range(steps + 1))
    g, h = (np.array([tails[w][i] for w in range(steps + 1)]) for i in (0, 1))
    want_g, want_h = (np.array([want_tails[w][i] for w in range(steps + 1)]) for i in (0, 1))
    assert rel_gap(g, want_g) < 1e-12 and rel_gap(h, want_h) < 1e-12


@pytest.mark.parametrize("case", sorted(LAW_CASES))
def test_exact_law_matches_the_dense_node_loop(case):
    # the law summed over runs of nodes without cross slopes, against the
    # dense per-node recursion, from two start times and on three rows
    pop, make, dt = LAW_CASES[case]
    strategy = make()
    e = np.random.default_rng(5).normal(size=(3, pop.n))
    if case == "decay_past_zero":
        decay = 1.0 - dt * strategy.consumption_at(simulate._euler_times(0.0, T, dt)[0])[1]
        assert np.any(decay <= 0.0)
    for t0 in (0.0, REF_T0):
        assert_law_matches_the_dense_loop(pop, strategy, e, t0, dt)


def test_exact_law_blocks_of_nodes_match_the_dense_node_loop(monkeypatch):
    # runs of nodes cut into blocks of three nodes, each scanned apart and
    # carried into the next
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 3 * 3 * (3 + 2))
    e = np.random.default_rng(6).normal(size=(2, 3))
    for make in (cross_coupled_strategy, partly_cross_strategy,
                 lambda: NAgentEquilibrium(TRIO, HYP, T)):
        assert_law_matches_the_dense_loop(TRIO, make(), e, REF_T0, 0.05)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_exact_law_of_random_profiles_matches_the_dense_node_loop(n, points, seed):
    # small random GridStrategyN profiles, cross slopes and all, on a
    # population of random types
    rng = np.random.default_rng(seed)
    pop = Population([AgentType(*rng.uniform([0.5, 0.0, 0.1, 0.0, 0.0], [2.0, 0.9, 2.0, 1.0, 1.0]))
                      for _ in range(n)])
    grid = TimeGrid(0.0, T, points)
    strategy = GridStrategyN(grid, rng.uniform(-1.0, 2.0, (n, points)),
                             rng.uniform(-1.0, 2.0, (n, n, points)),
                             rng.uniform(-1.0, 1.0, (n, points)))
    e = rng.normal(size=(2, n))
    assert_law_matches_the_dense_loop(pop, strategy, e, float(rng.uniform(0.0, 1.5)), 0.05)


def kernel_run(pop, strategy, cfg):
    """The paths, the kernel's draws, agent 0's expected_payoff as (mean,
    standard error), and the last agent's spike arrays of spike_run."""
    bundle = simulate_paths(pop, strategy, REF_T0, ref_x0(pop.n), T, cfg)
    draws = kernel_draws(pop, strategy, REF_T0, cfg)
    base = expected_payoff(pop, HYP, strategy, 0, REF_T0, ref_x0(pop.n), T, cfg)
    return bundle, draws, (base.value, base.std_error), spike_run(pop, strategy, cfg)


def priced_paths(sim, cfg):
    """Run ``sim`` alone, chunk by chunk, and gather, per window, what its
    pricer forms on each path: the priced agents' running payoff, window noise
    and terminal utility at the window's close, each (A, N), and the CRN
    deltas, (A len(vs), N); and as "payoff" the (A, N) running payoffs where
    the paths stop, each path's payoff for a simulation without windows."""
    E, N, A = len(sim.eps_steps), cfg.n_paths, sim.priced.size
    got = {name: [np.full((rows, N), np.nan) for _ in range(E)] for name, rows in (
        ("run", A), ("noise", A), ("term", A), ("delta", A * len(sim.vs)))}
    got["payoff"] = np.full((A, N), np.nan)
    for chunk, drawn, paths in simulate._chunks(sim.x0.size, cfg):
        part = simulate._PayoffChunk([sim], paths.size, sim.window_buffers(paths.size))

        def spy_deltas(j, e, *arrays, deltas=part._deltas, paths=paths):
            for name, value in zip(("run", "noise", "term"), arrays):
                got[name][e][:, paths] = value
            for r, rows in enumerate(deltas(j, e, *arrays)):
                got["delta"][e][r * len(sim.vs):(r + 1) * len(sim.vs), paths] = rows
                yield rows

        part._deltas = spy_deltas
        for node in simulate._EulerScheme.lockstep([sim.scheme], [sim.stop], sim.x0, cfg,
                                                   chunk, drawn):
            part.visit(*node)
        got["payoff"][:, paths] = part.run[0]
    return got


def spike_run(pop, strategy, cfg):
    """Per path, the last agent's window payoff and noise, terminal utility
    at the window's close and payoff change for REFERENCE_SPIKE."""
    agent, (eps, v) = pop.n - 1, REFERENCE_SPIKE
    sim = simulate._PayoffSim(pop, HYP, strategy, REF_T0, ref_x0(pop.n), T, cfg,
                              [agent], [eps], [v])
    got = priced_paths(sim, cfg)
    return tuple(got[name][0][0] for name in ("run", "noise", "term", "delta"))


def assert_matches_reference_loop(pop, strategy, cfg):
    times, dt, _, X, C, _, ref_draws = reference_paths(pop, strategy, cfg)
    bundle, draws, (value, se), (run, noise, term_u, _) = kernel_run(pop, strategy, cfg)
    assert np.array_equal(bundle.times, times)
    assert np.array_equal(draws, ref_draws)
    assert rel_gap(bundle.wealth, X) < 1e-12
    assert rel_gap(bundle.consumption, C) < 1e-12

    ref = reference_payoff(pop, HYP, strategy, 0, cfg)
    assert rel_gap(value, ref.mean()) < 1e-12
    assert rel_gap(se, ref.std(ddof=1) / np.sqrt(ref.size)) < 1e-12

    # the spike simulation: its window, and its tail where the window closes
    agent, eps = pop.n - 1, REFERENCE_SPIKE[0]
    ref_run, ref_noise = reference_window(pop, strategy, agent, cfg, eps)
    assert rel_gap(run, ref_run) < 1e-12
    assert rel_gap(noise, ref_noise) < 1e-12
    assert rel_gap(term_u, reference_tail(pop, strategy, agent, cfg, round(eps / dt))) < 1e-12


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_kernel_matches_reference_loop(case):
    pop, make, cfg = REFERENCE_CASES[case]
    assert_matches_reference_loop(pop, make(), cfg)


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_truncated_spike_slopes_match_the_full_path_reference(case):
    # paths that stop where the spike window closes, with the tail priced on
    # the Euler law, against the full-path reference loop on the same draws:
    # the slopes agree within 4 standard errors of their paired difference.
    # The reference keeps every node of every path, so 64 agents get fewer.
    pop, make, cfg = REFERENCE_CASES[case]
    cfg = dataclasses.replace(cfg, n_paths=20_000 if pop.n < 8 else 2_000)
    strategy, agent, spike = make(), pop.n - 1, REFERENCE_SPIKE
    delta = spike_run(pop, strategy, cfg)[-1]
    ref = (reference_payoff(pop, HYP, strategy, agent, cfg, spike)
           - reference_payoff(pop, HYP, strategy, agent, cfg))
    gap = (delta - ref) / spike[0]
    assert abs(gap.mean()) < 4 * gap.std(ddof=1) / np.sqrt(gap.size)


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_truncated_spike_slopes_of_three_windows_match_the_full_path_reference(case):
    # three windows on one simulation, each priced where it closes, the
    # longest where the paths stop: every window's slopes agree with the
    # full-path reference on the same draws within 4 standard errors of
    # their paired difference
    pop, make, cfg = REFERENCE_CASES[case]
    cfg = dataclasses.replace(cfg, n_paths=20_000 if pop.n < 8 else 2_000)
    strategy, agent, v = make(), pop.n - 1, REFERENCE_SPIKE[1]
    eps_list = (0.05, 0.2, 0.1)
    sim = simulate._PayoffSim(pop, HYP, strategy, REF_T0, ref_x0(pop.n), T, cfg,
                              [agent], eps_list, [v])
    deltas = priced_paths(sim, cfg)["delta"]
    base = reference_payoff(pop, HYP, strategy, agent, cfg)
    for eps, delta in zip(eps_list, deltas):
        gap = (delta[0] - (reference_payoff(pop, HYP, strategy, agent, cfg, (eps, v))
                           - base)) / eps
        assert abs(gap.mean()) < 4 * gap.std(ddof=1) / np.sqrt(gap.size)


# Exact base payoffs against expected_payoff's Monte Carlo: (population,
# strategy, discount, antithetic) over two and three agents, a cross-slope
# profile and both discount families.
EXACT_PAYOFF_CASES = {
    "pair_hyperbolic": (HET2, lambda: NAgentEquilibrium(HET2, HYP, T), HYP, False),
    "pair_antithetic_tabulated": (HET2, lambda: NAgentEquilibrium(HET2, TAB, T), TAB, True),
    "trio_cross_coupled_tabulated": (TRIO, cross_coupled_strategy, TAB, False),
    "trio_closed_form_hyperbolic": (TRIO, lambda: NAgentEquilibrium(TRIO, HYP, T), HYP, True),
    "two_classes": (MIXED64, two_class_strategy, HYP, False),
}


@pytest.mark.parametrize("case", sorted(EXACT_PAYOFF_CASES))
def test_exact_base_payoff_matches_expected_payoff(case):
    # spike_grid's base payoffs come from the exact law of the Euler scheme
    # and do not depend on its draws; expected_payoff's full Monte Carlo run
    # at the same dt lands within 4 of its standard errors
    pop, make, discount, antithetic = EXACT_PAYOFF_CASES[case]
    strategy, agents, x0 = make(), [0, pop.n - 1], ref_x0(pop.n)
    bases = [spike_grid(pop, discount, strategy, [REF_T0], [(1, 0)], [0.1],
                        SimConfig(2, 0.05, seed), x0, T, agents=agents).base_payoffs[REF_T0]
             for seed in (1, 2)]
    assert bases[0] == bases[1]
    for agent in agents:
        est = expected_payoff(pop, discount, strategy, agent, REF_T0, x0, T,
                              SimConfig(20_000, 0.05, 3, antithetic))
        assert abs(bases[0][agent] - est.value) < 4 * est.std_error


def test_exact_base_payoff_of_zero_controls():
    # zero controls, unit discount: running utility -1 for two years plus
    # terminal utility -1, exactly at any number of paths
    rep = spike_grid(PAIR, ExponentialDiscount(0.0), GridStrategyN.zeros(GRID, 2), [0.0],
                     [(1, 0)], [0.1], SimConfig(2, 0.01, 1), 0.0, T)
    assert rep.base_payoffs[0.0] == {0: pytest.approx(-3.0, abs=1e-12),
                                     1: pytest.approx(-3.0, abs=1e-12)}
    assert rep.n_clamped == 0


def chunk_widths(pop, cfg):
    return [drawn for _, drawn, _ in simulate._chunks(pop.n, cfg)]


def test_the_production_chunk_layout_keeps_the_seed_to_draws_map():
    # _BLOCK_ELEMENTS // (3n + 1) paths a chunk: at n = 2, 1e5 paths are six
    # chunks of 16,384 and one of 1,696, each on its own substream
    assert chunk_widths(HET2, SimConfig(100_000, 0.01, 0)) == [16_384] * 6 + [1_696]


@pytest.mark.parametrize("case", ["cross_coupled", "two_classes"])
def test_sparse_records_are_rows_of_the_every_node_bundle(case):
    # consumption is formed only at the recorded nodes: the dense slopes on
    # the recorded wealth plus the intercepts, and the wealth rows are those
    # of the bundle that records every node, bit for bit
    pop, make, cfg = REFERENCE_CASES[case]
    strategy, x0 = make(), ref_x0(pop.n)
    full = simulate_paths(pop, strategy, REF_T0, x0, T, cfg)
    sparse = simulate_paths(pop, strategy, REF_T0, x0, T, cfg,
                            record_times=[1.0, 1.05, 1.35, 1.4, 1.95, 2.0])
    idx = np.round((sparse.times - REF_T0) / 0.05).astype(int)
    assert idx.tolist() == [0, 1, 7, 8, 19, 20]
    assert np.array_equal(sparse.times, full.times[idx])
    assert np.array_equal(sparse.wealth, full.wealth[:, idx])
    P, q = dense_consumption(strategy, sparse.times)
    assert rel_gap(sparse.consumption, np.einsum("kij,pkj->pki", P, sparse.wealth) + q) < 1e-12


# Paths a chunk: 5 divides neither the 48 paths of a reference case nor the
# 24 drawn for its antithetic run; 1 gives the smallest chunk, two paths.
BLOCK_PATHS = {"ragged": 5, "smallest": 1}


@pytest.mark.parametrize("block", sorted(BLOCK_PATHS))
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_path_blocks_leave_the_kernel_unchanged(case, block, monkeypatch):
    # cut into ragged or two-path chunks, each on its own substream, the
    # drawn paths lie in order and the mirrored ones of an antithetic run
    # after them, and the kernel matches the reference loop on those draws
    pop, make, cfg = REFERENCE_CASES[case]
    assert len(chunk_widths(pop, cfg)) == 1
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", BLOCK_PATHS[block] * (3 * pop.n + 1))
    widths = chunk_widths(pop, cfg)
    assert set(widths[:-1]) == {max(2, BLOCK_PATHS[block])} and 2 <= widths[-1] <= 5
    total = sum(widths)
    assert total == (cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths)
    drawn_paths = []
    for _, drawn, paths in simulate._chunks(pop.n, cfg):
        mirrored = paths[drawn:]
        assert np.array_equal(mirrored, paths[:drawn] + total if cfg.antithetic else [])
        drawn_paths.append(paths[:drawn])
    assert np.array_equal(np.concatenate(drawn_paths), np.arange(total))
    assert_matches_reference_loop(pop, make(), cfg)


def test_one_path_spike_errors_are_finite_and_shared():
    cfg = SimConfig(1, 0.01, 5)
    eq = NAgentEquilibrium(HET2, HYP, T)
    grid = spike_grid(HET2, HYP, eq, [0.5], [(1.0, 0.0)], [0.1], cfg, 1.0, T,
                      agents=[1])
    assert grid.results[0].std_error == 0.0
    grid_tol = 1e-2 * abs(grid.base_payoffs[0.5][1])
    assert grid.passed == (grid.results[0].slope <= grid_tol)


def test_spike_reports_count_clamped_exponents():
    cfg = SimConfig(50, 0.05, 2)
    eq = NAgentEquilibrium(HET2, HYP, T)
    calm = spike_grid(HET2, HYP, eq, [1.0], [(1, 0)], [0.1], cfg, 10.0, T)
    assert calm.n_clamped == 0
    hot = spike_grid(HET2, HYP, eq, [1.0], [(1, 0)], [0.1], cfg, 1e4, T, agents=[0])
    grid = spike_grid(HET2, HYP, eq, [1.0, 1.5], [(1, 0)], [0.1], cfg, 1e4, T,
                      agents=[0])
    every = spike_grid(HET2, HYP, eq, [1.0], [(1, 0)], [0.1], cfg, 1e4, T)
    # At x0 = 1e4 every exponent is clamped; only the priced agents' are
    # computed, and the grid sums its base simulations.  A base simulation
    # from t = 1 stops at node 2, where the 0.1 window closes: per path, 2
    # U(c) exponents and 1 tail exponent.  The exact law adds one exponent
    # per Euler node for each priced agent: 20 U(c) and 1 U(X_T) from t = 1,
    # 10 and 1 from t = 1.5.
    assert hot.n_clamped == cfg.n_paths * 3 + 21
    assert grid.n_clamped == cfg.n_paths * (3 + 3) + 21 + 11
    assert every.n_clamped == 2 * (cfg.n_paths * 3 + 21)
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


def test_meanfield_consistency_refuses_more_than_one_path():
    # it simulates one common-noise path, so n_paths and antithetic would be ignored
    dist = TypeDistribution([(AgentType(1.0, 0.4, 1.0, 0.0, 1.0), 1.0)])
    for cfg in (SimConfig(2, 0.01, 3), SimConfig(2, 0.01, 3, antithetic=True)):
        with pytest.raises(ValidationError, match="it needs n_paths = 1"):
            meanfield_consistency(dist, HYP, 200, cfg, 0.0, 10.0, T)


# ---------------------------------------------------------------------------
# The two Monte Carlo oracles against their earlier loops


def reference_gaussian_moments(pop, strategy, t0, x0, times, horizon, n_steps=2000):
    """The mean and covariance ODEs integrated stage by stage with classic RK4,
    the profile evaluated separately at the nodes and at the midpoints."""
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


# Queries for the closed form; "unsorted" is off the reference's RK4 nodes,
# unsorted and repeated, and ends before the horizon.
EXACT_LAW_CASES = {
    "closed_form": (10.0, np.linspace(0.0, T, 5)),
    "unsorted": ([3.0, -1.0], [1.3, 0.0, 0.7, 1.3, 1e-4 / 3.0, 0.7, 1.0 / 3.0]),
}


@pytest.mark.parametrize("discount", [HYP, TAB], ids=["hyperbolic", "tabulated"])
@pytest.mark.parametrize("case", sorted(EXACT_LAW_CASES))
def test_gaussian_moments_of_the_closed_form_are_exact(case, discount):
    # the exact law against the reference RK4 loop, and x0 with a zero
    # covariance at t0, exactly
    x0, query = EXACT_LAW_CASES[case]
    eq = NAgentEquilibrium(HET2, discount, T)
    means, covs = gaussian_moments(HET2, eq, 0.0, x0, query, T)
    ref_means, ref_covs = reference_gaussian_moments(HET2, eq, 0.0, x0, query, T)
    assert means.shape == ref_means.shape and covs.shape == ref_covs.shape
    assert np.abs(means - ref_means).max() <= 1e-13 * np.abs(ref_means).max()
    assert np.abs(covs - ref_covs).max() <= 1e-13 * np.abs(ref_covs).max()
    at_t0 = np.asarray(query) == 0.0
    assert np.array_equal(means[at_t0], np.broadcast_to(x0, (at_t0.sum(), 2)))
    assert not covs[at_t0].any()


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
    coef = eq.coefficients[idx]

    q_atoms = np.asarray(eq.intercepts_at(times))
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


def test_export_paths_csv_block_is_capped_at_the_bundle(tmp_path):
    # 2 paths of a 5-node pair are 20 rows: a block of 2^16 rows of object
    # cells would take about 4.8 MB
    cfg = SimConfig(2, 0.5, 4)
    bundle = simulate_paths(PAIR, constant_strategy(1.0), 0.0, 0.0, T, cfg)
    assert bundle.wealth.shape == (2, 5, 2)
    _, peak = traced_peak(export_paths_csv, bundle, tmp_path / "paths.csv")
    assert peak < 2e5
    assert len((tmp_path / "paths.csv").read_text().splitlines()) == 1 + 20


def test_simulate_paths_refuses_oversized_bundle():
    # every Euler node of 1e5 paths at dt = 1e-3 over T = 2 (6.4 GB): refused
    # before anything is allocated
    cfg = SimConfig(100_000, 1e-3, 0)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"would take \d.* GiB"):
            simulate_paths(PAIR, constant_strategy(1.0), 0.0, 0.0, T, cfg)
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


def test_non_finite_query_times_are_refused_before_simulating():
    # 1e5 paths at dt = 1e-3 would take seconds and megabytes: the NaN or
    # infinite time is refused before any of it
    eq = NAgentEquilibrium(HET2, HYP, T)
    cfg = SimConfig(100_000, 1e-3, 0)
    for bad in ([0.5, np.nan], [np.nan], [np.inf, 0.5], [-np.inf]):
        with pytest.raises(ValidationError, match=r"must lie in \[t0, horizon\]"):
            simulate_paths(HET2, eq, 0.0, 1.0, T, cfg, record_times=bad)
        with pytest.raises(ValidationError, match=r"must lie in \[t0, horizon\]"):
            gaussian_moments(HET2, eq, 0.0, 1.0, bad, T)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError):
            simulate_paths(HET2, eq, 0.0, 1.0, T, cfg, record_times=[0.5, np.nan])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_payoff_calls_refuse_agents_out_of_range():
    cfg = SimConfig(4, 0.1, 0)
    eq = NAgentEquilibrium(HET2, HYP, T)
    for bad in (-1, 2, 0.5):
        with pytest.raises(ValidationError, match=f"agent index {bad} out of range"):
            spike_grid(HET2, HYP, eq, [1.0], [(1, 0)], [0.1], cfg, 1.0, T,
                       agents=[0, bad])
        with pytest.raises(ValidationError, match=f"agent index {bad} out of range"):
            expected_payoff(HET2, HYP, eq, bad, 1.0, 1.0, T, cfg)


def test_start_times_before_zero_are_refused(monkeypatch):
    # the model lives on [0, T]: every Euler entry point and gaussian_moments
    # refuse t0 < 0, and spike_grid does before any simulation starts
    cfg = SimConfig(4, 0.1, 0)
    eq = NAgentEquilibrium(HET2, HYP, T)
    sims = []
    monkeypatch.setattr(simulate._PayoffSim, "__init__",
                        lambda self, *args, **kw: sims.append(args))
    calls = [
        lambda: simulate_paths(HET2, eq, -1.0, 1.0, T, cfg),
        lambda: gaussian_moments(HET2, eq, -1.0, 1.0, [0.0, 1.0], T),
        lambda: gaussian_moments(HET2, constant_strategy(1.0), -1.0, 1.0, [0.0, 1.0], T),
        lambda: meanfield_consistency(TypeDistribution([(HET2.agents[0], 1.0)]), HYP, 100,
                                      SimConfig(1, 0.1, 0), -1.0, 1.0, T),
        lambda: spike_grid(HET2, HYP, eq, [0.5, -1.0], [(1, 0)], [0.1], cfg, 1.0, T),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=">= 0"):
            call()
    assert sims == []
    monkeypatch.undo()
    with pytest.raises(ValidationError, match=">= 0"):
        expected_payoff(HET2, HYP, eq, 0, -1.0, 1.0, T, cfg)


def test_spike_grid_refuses_repeated_times():
    # one base payoff per time: a repeated time would key two simulations'
    # rows to one entry
    eq = NAgentEquilibrium(HET2, HYP, T)
    for times in ([0.5, 0.5], [0.0, 1.0, -0.0]):
        with pytest.raises(ValidationError, match="distinct"):
            spike_grid(HET2, HYP, eq, times, [(1, 0)], [0.1], SimConfig(4, 0.1, 0), 1.0, T)


# spike_grid arguments (times, vs, agents) that leave nothing or a repeat to
# price, with the name its refusal gives
EMPTY_OR_REPEATED = {
    "no_vs": (([0.5], [], [0, 1]), "at least one entry in vs"),
    "no_agents": (([0.5], [(1, 0)], []), "at least one entry in agents"),
    "no_times": (([], [(1, 0)], [0, 1]), "at least one entry in times"),
    "repeated_agents": (([0.5], [(1, 0)], [0, 0]), "agents must be distinct"),
}


@pytest.mark.parametrize("case", sorted(EMPTY_OR_REPEATED))
def test_spike_grid_refuses_empty_or_repeated_inputs(case, monkeypatch):
    (times, vs, agents), message = EMPTY_OR_REPEATED[case]
    sims = []
    monkeypatch.setattr(simulate._PayoffSim, "__init__",
                        lambda self, *args, **kw: sims.append(args))
    eq = NAgentEquilibrium(SPIKE_PAIR, HYP, T)
    with pytest.raises(ValidationError, match=message):
        spike_grid(SPIKE_PAIR, HYP, eq, times, vs, [0.1], SimConfig(4, 0.1, 0), 1.0, T,
                   agents=agents)
    assert sims == []


def test_spike_grid_takes_eps_as_an_array():
    eq = NAgentEquilibrium(SPIKE_PAIR, HYP, T)
    reports = [spike_grid(SPIKE_PAIR, HYP, eq, [0.5], [(1, 0)], eps_list,
                          SimConfig(200, 0.02, 5), 1.0, T).to_dict()
               for eps_list in ([0.1, 0.04], np.array([0.1, 0.04]))]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name, value", [
    ("times", [0.5, "0.5"]), ("times", [[0.5]]), ("eps_list", ["0.1"]),
    ("vs", [(1, 0), ("a", 0)]), ("vs", [(1, 0), ([1, 2], 0)]), ("agents", [None])])
def test_spike_grid_refuses_entries_that_are_not_numbers(name, value, monkeypatch):
    # each used to end in a raw TypeError or ValueError, the agents in _PayoffSim
    sims = []
    monkeypatch.setattr(simulate._PayoffSim, "__init__",
                        lambda self, *args, **kw: sims.append(args))
    eq = NAgentEquilibrium(SPIKE_PAIR, HYP, T)
    args = {"times": [0.5], "vs": [(1, 0)], "eps_list": [0.1], "agents": [0], name: value}
    with pytest.raises(ValidationError, match=f"spike_grid {name} must be numbers"):
        spike_grid(SPIKE_PAIR, HYP, eq, cfg=SimConfig(4, 0.1, 0), x0=1.0, horizon=T, **args)
    assert sims == []


@pytest.mark.parametrize("v", [(1, 0, 3), (1,), 1.0])
def test_spike_grid_refuses_a_v_that_is_not_a_pair(v, monkeypatch):
    sims = []
    monkeypatch.setattr(simulate._PayoffSim, "__init__",
                        lambda self, *args, **kw: sims.append(args))
    eq = NAgentEquilibrium(SPIKE_PAIR, HYP, T)
    with pytest.raises(ValidationError, match="each v must be a pair"):
        spike_grid(SPIKE_PAIR, HYP, eq, [0.5], [(1, 0), v], [0.1], SimConfig(4, 0.1, 0),
                   1.0, T)
    assert sims == []


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
    rep, peak = traced_peak(spike_grid, SPIKE_PAIR, HYP, eq, [1.625], [(1, 0)],
                            (0.1, 0.05, 0.025), SimConfig(100_000, 0.0125, 3), 10.0, T,
                            agents=[0])
    assert len(rep.results) == 3
    assert peak < 13e6


def test_a_four_time_grid_of_256_agents_shares_one_load():
    # four stacked times on one (d, B) draw buffer, loaded once a step: a
    # (steps, J, n, d + 1) load of every time would alone take 106 MB
    pop = Population([SPIKE_PAIR.agents[k % 2] for k in range(256)])
    eq = NAgentEquilibrium(pop, HYP, T)
    rep, peak = traced_peak(spike_grid, pop, HYP, eq, [1.6, 1.7, 1.8, 1.9], [(1, 0), (0, 1)],
                            [0.1], SimConfig(600, 1e-3, 0), 1.0, T, agents=[0, 1])
    assert len(rep.results) == 16
    assert peak < 40e6


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


def test_gaussian_moments_refuses_a_horizon_other_than_the_strategys():
    # a time past the strategy's horizon used to end in the discount's raw
    # ValueError("log_integral requires t <= T")
    eq = NAgentEquilibrium(HET2, HYP, T)
    with pytest.raises(ValidationError, match=r"horizon 2\.0 \(got 3\.0\)"):
        gaussian_moments(HET2, eq, 0.0, 1.0, [2.5], 3.0)


def test_gaussian_moments_refuses_oversized_coefficients():
    # a sampled profile, even one sampled from the closed form, has no exact
    # law and is refused before anything is allocated; the closed form's exact
    # law of 256 agents allocates little beyond its 5.8 MB output
    pop = Population([HET2.agents[k % 2] for k in range(256)])
    eq = NAgentEquilibrium(pop, HYP, T)
    for p, sampled in ((PAIR, GridStrategyN.zeros(GRID, 2)),
                       (pop, GridStrategyN.from_equilibrium(eq, GRID))):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="needs an NAgentEquilibrium"):
                gaussian_moments(p, sampled, 0.0, 1.0, [T], T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
    (means, covs), peak = traced_peak(gaussian_moments, pop, eq, 0.0, 1.0,
                                      np.linspace(0.0, T, 11), T)
    assert means.shape == (11, 256) and covs.shape == (11, 256, 256)
    assert np.all(np.isfinite(means)) and np.all(np.isfinite(covs))
    assert peak < 10e6


def test_spike_grid_does_not_depend_on_the_pool(monkeypatch):
    eq = NAgentEquilibrium(HET2, HYP, T)
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("RELPERF_THREADS", threads)
        rep = spike_grid(HET2, HYP, eq, [0.5, 1.0, 1.5], [(1, 0), (0, -1)], [0.1, 0.05],
                         SimConfig(2_000, 0.02, 9), 1.0, T)
        reports.append(rep.to_dict())
    assert reports[0] == reports[1]


def one_time_reports(report):
    """A spike_grid report's rows and base payoffs, split by time."""
    full = report.to_dict()
    return {t: (base, [r for r in full["results"] if str(r["t"]) == t])
            for t, base in full["base_payoffs"].items()}


LOCKSTEP_CASES = {
    "closed_form": (HET2, lambda: NAgentEquilibrium(HET2, HYP, T)),
    "cross_coupled": (TRIO, cross_coupled_strategy),
}


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_each_time_of_a_grid_gets_the_rows_of_a_one_time_call(case, antithetic, monkeypatch):
    # every time runs on the same draws, so its rows and base payoff are
    # those of a spike_grid call on that time alone, whatever the pool size,
    # on one chunk of paths or on ragged 5-path chunks
    pop, make = LOCKSTEP_CASES[case]
    strategy, times = make(), [0.5, 1.0, 1.5]
    cfg = SimConfig(202, 0.02, 21, antithetic)
    args = ([(1, 0), (-1, 1)], [0.1, 0.04, 0.3], cfg, ref_x0(pop.n), T)
    alone = {}
    for t in times:
        alone.update(one_time_reports(spike_grid(pop, HYP, strategy, [t], *args)))
    assert len(alone) == 3 and all(len(rows) == 2 * pop.n * 3 for _, rows in alone.values())
    for elements in (simulate._BLOCK_ELEMENTS, 5 * (3 * pop.n + 1)):
        monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", elements)
        alone = {}
        for t in times:
            alone.update(one_time_reports(spike_grid(pop, HYP, strategy, [t], *args)))
        for threads in ("1", "2"):
            monkeypatch.setenv("RELPERF_THREADS", threads)
            assert one_time_reports(spike_grid(pop, HYP, strategy, times, *args)) == alone


def sparse_cross_strategy():
    """TRIO's consumption with cross slopes at every third point of a 0.05
    grid only: an Euler node strictly between two slope-free points steps
    on the decay alone, so each spike time meets its cross nodes at its own k."""
    grid = TimeGrid(0.0, T, 41)
    t = grid.times
    pi = np.vstack([1.0 + 0.2 * t, 0.8 - 0.1 * t, np.full_like(t, 0.5)])
    p = np.empty((3, 3, t.size))
    for i in range(3):
        for k in range(3):
            p[i, k] = 0.5 + 0.05 * t if i == k else (0.1 * (k - i) + 0.05 * t) * (
                np.arange(t.size) % 3 == 0)
    return GridStrategyN(grid, pi, p, np.vstack([0.1 * t, np.full_like(t, -0.2), np.cos(t)]))


# Six times on dt = 0.03, a stack of four and then a ragged stack of two.
# Each time's own Euler step rounds eps 0.045 and 0.105 to 1 and 3 steps at
# some times and to 2 and 4 at others, so the stops differ within each stack.
STACK_TIMES = [0.13, 0.4, 0.9, 1.06, 1.37, 1.6]


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("agents", [[1], [2, 0]], ids=["one_agent", "two_agents"])
def test_stacked_times_keep_their_own_stops_and_cross_nodes(agents, antithetic, monkeypatch):
    # one priced agent pads its exponent rows to two; within a stack the
    # times stop at different nodes and step on cross slopes at different
    # nodes, yet each time's rows are == those of a call on it alone, at one
    # and two pool threads, on one chunk of paths and on ragged 5-path chunks
    strategy, vs, eps_list = sparse_cross_strategy(), [(1, 0), (0, -1), (-1, 1)], [0.045, 0.105]
    cfg = SimConfig(202, 0.03, 23, antithetic)
    sims = [simulate._PayoffSim(TRIO, HYP, strategy, t, ref_x0(3), T, cfg, agents, eps_list, vs)
            for t in STACK_TIMES]
    assert [sim.stop for sim in sims] == [3, 3, 4, 3, 4, 3]
    assert [np.flatnonzero(sim.scheme.cross[:sim.stop]).tolist() for sim in sims] == [
        [0, 1, 2], [1, 2], [0, 1], [0, 1], [0, 3], [1, 2]]
    args = (vs, eps_list, cfg, ref_x0(3), T)
    for elements in (simulate._BLOCK_ELEMENTS, 5 * (3 * TRIO.n + 1)):
        monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", elements)
        alone = {}
        for t in STACK_TIMES:
            alone.update(one_time_reports(spike_grid(TRIO, HYP, strategy, [t], *args,
                                                     agents=agents)))
        assert len(alone) == 6
        for threads in ("1", "2"):
            monkeypatch.setenv("RELPERF_THREADS", threads)
            assert one_time_reports(spike_grid(TRIO, HYP, strategy, STACK_TIMES, *args,
                                               agents=agents)) == alone


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3), st.integers(2, 5), st.integers(2, 6), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_stacked_grid_of_random_profiles_gets_one_time_rows(n, points, count, antithetic, seed):
    # random GridStrategyN profiles, cross slopes and all, on random types:
    # a grid of up to six times, priced for a random ordered subset of the
    # agents, gives each time the rows of a call on it alone
    rng = np.random.default_rng(seed)
    pop = Population([AgentType(*rng.uniform([0.5, 0.0, 0.1, 0.0, 0.0], [2.0, 0.9, 2.0, 1.0, 1.0]))
                      for _ in range(n)])
    grid = TimeGrid(0.0, T, points)
    strategy = GridStrategyN(grid, rng.uniform(-1.0, 2.0, (n, points)),
                             rng.uniform(-1.0, 2.0, (n, n, points)),
                             rng.uniform(-1.0, 1.0, (n, points)))
    times = rng.uniform(0.0, 1.5, count).tolist()
    agents = rng.permutation(n)[:rng.integers(1, n + 1)].tolist()
    args = ([(1, 0), (0, 1), (-1, -1)], rng.uniform(0.06, 0.3, 2).tolist(),
            SimConfig(24, 0.04, seed, antithetic), ref_x0(n), T)
    alone = {}
    for t in times:
        alone.update(one_time_reports(spike_grid(pop, HYP, strategy, [t], *args, agents=agents)))
    assert one_time_reports(spike_grid(pop, HYP, strategy, times, *args, agents=agents)) == alone


@pytest.mark.parametrize("antithetic", [False, True])
def test_spike_rows_are_the_mean_and_error_of_the_priced_deltas(antithetic, monkeypatch):
    # each chunk of paths reduces its per-path values to their moments, and
    # the chunks merge in order; a spike row's slope and error, and
    # expected_payoff's value and error, are the mean and standard error of
    # the per-path deltas and payoffs, as the full-array estimator gave them,
    # to 1e-12 (7-path chunks, the last one ragged)
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 7 * (3 * HET2.n + 1))
    eq = NAgentEquilibrium(HET2, HYP, T)
    cfg, vs, eps_list = SimConfig(202, 0.02, 19, antithetic), [(1, 0), (-1, 1)], [0.1, 0.04]
    assert set(chunk_widths(HET2, cfg)[:-1]) == {7} and chunk_widths(HET2, cfg)[-1] < 7
    sim = simulate._PayoffSim(HET2, HYP, eq, REF_T0, ref_x0(2), T, cfg, [1, 0], eps_list, vs)
    deltas = priced_paths(sim, cfg)["delta"]
    rows = spike_grid(HET2, HYP, eq, [REF_T0], vs, eps_list, cfg, ref_x0(2), T,
                      agents=[1, 0]).results
    for row in rows:
        e = eps_list.index(row.eps)
        mean, se = full_mean_se(deltas[e][sim.row[row.agent] * len(vs) + vs.index(row.v)])
        assert row.slope * sim.eps_eff[e] == pytest.approx(mean, rel=1e-12)
        assert row.std_error * sim.eps_eff[e] == pytest.approx(se, rel=1e-12)
    for agent in (1, 0):
        est = expected_payoff(HET2, HYP, eq, agent, REF_T0, ref_x0(2), T, cfg)
        payoff = priced_paths(simulate._PayoffSim(HET2, HYP, eq, REF_T0, ref_x0(2), T, cfg,
                                                  [agent]), cfg)["payoff"][0]
        mean, se = full_mean_se(payoff)
        assert est.value == pytest.approx(mean, rel=1e-12)
        assert est.std_error == pytest.approx(se, rel=1e-12)


def test_spike_workload_peak_stays_under_the_window_arrays_it_dropped(monkeypatch):
    # the benchmark's spike op: three times in lockstep on each chunk of
    # paths, two chunks at once on two pool threads; a time's (E, A, N)
    # window arrays and terminal utility used to lift the op to 32 MB
    monkeypatch.setenv("RELPERF_THREADS", "2")
    eq = NAgentEquilibrium(SPIKE_PAIR, HYP, T)
    vs = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
    rep, peak = traced_peak(spike_grid, SPIKE_PAIR, HYP, eq, [1.625, 1.75, 1.875], vs,
                            (0.1, 0.05, 0.025), SimConfig(100_000, 1e-3, 7), 10.0, T)
    assert len(rep.results) == 108 and rep.passed
    assert peak < 25e6


def test_twenty_times_keep_at_most_four_live(monkeypatch):
    # 20 times on one thread run, on each chunk of paths, as five lockstep
    # groups of four, one after the other: at most four times are live on a
    # chunk, where all twenty at full width would take 96 MB
    groups = []
    run = simulate._simulate

    def spy(sims, *args):
        groups.append(len(sims))
        return run(sims, *args)

    monkeypatch.setattr(simulate, "_simulate", spy)
    monkeypatch.setenv("RELPERF_THREADS", "1")
    eq = NAgentEquilibrium(SPIKE_PAIR, HYP, T)
    times = np.linspace(0.0, 1.9, 20)
    rep, peak = traced_peak(spike_grid, SPIKE_PAIR, HYP, eq, times, [(1, 0)], [0.1],
                            SimConfig(100_000, 0.0125, 3), 10.0, T)
    assert len(rep.results) == 40
    assert groups == [4] * 5 * len(chunk_widths(SPIKE_PAIR, SimConfig(100_000, 0.0125, 3)))
    assert peak < 28e6


def test_a_worker_error_reaches_the_caller_and_stops_the_pool(monkeypatch):
    # at x0 = -1e4 every utility exponent clamps at +700, and the squared
    # deviations of the spike deltas and of the payoffs overflow: raised in a
    # pool worker under the caller's error state, the error reaches the
    # caller and no worker thread outlives the call
    monkeypatch.setattr(simulate, "thread_count", lambda upper=None: 2)
    eq = NAgentEquilibrium(HET2, HYP, T)
    before = threading.active_count()
    calls = (
        lambda: spike_grid(HET2, HYP, eq, [0.5, 1.0, 1.5], [(1, 0)], [0.1],
                           SimConfig(20, 0.05, 3), -1e4, T),
        lambda: expected_payoff(HET2, HYP, eq, 0, 0.5, -1e4, T, SimConfig(20, 0.05, 3)),
    )
    for call in calls:
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            call()
        assert threading.active_count() == before


def test_spike_grid_workers_take_the_callers_error_state(monkeypatch):
    # NumPy's error state is per thread, so the pool workers that step every
    # sampler's chunks must enter the caller's: relperf's commands raise on
    # overflow
    seen = []
    lockstep = simulate._EulerScheme.lockstep

    def spy(*args):
        seen.append(np.geterr()["over"])
        yield from lockstep(*args)

    monkeypatch.setattr(simulate._EulerScheme, "lockstep", spy)
    monkeypatch.setattr(simulate, "thread_count", lambda upper=None: 2)
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 5 * (3 * HET2.n + 1))
    eq = NAgentEquilibrium(HET2, HYP, T)
    cfg = SimConfig(20, 0.05, 3)
    calls = (
        lambda: spike_grid(HET2, HYP, eq, [0.5, 1.0], [(1, 0)], [0.1], cfg, 1.0, T),
        lambda: spike_grid(HET2, HYP, eq, [0.5], [(1, 0)], [0.1], cfg, 1.0, T),
        lambda: expected_payoff(HET2, HYP, eq, 0, 0.5, 1.0, T, cfg),
        lambda: simulate_paths(HET2, eq, 0.5, 1.0, T, cfg),
    )
    for call in calls:
        seen.clear()
        with np.errstate(over="raise"):
            call()
        assert seen == ["raise"] * len(chunk_widths(HET2, cfg)) == ["raise"] * 4


@pytest.mark.parametrize("antithetic", [False, True])
def test_samplers_do_not_depend_on_the_pool(antithetic, monkeypatch):
    # on ragged 5-path chunks, path bundles, payoff estimates and spike
    # reports are the same at one and two pool threads, and at six threads,
    # more than the cores, switching every microsecond; the lone last path
    # of the 101 drawn for an antithetic run joins the chunk before it
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 5 * (3 * HET2.n + 1))
    eq = NAgentEquilibrium(HET2, HYP, T)
    cfg = SimConfig(202, 0.02, 9, antithetic)
    assert chunk_widths(HET2, cfg)[-1] == (6 if antithetic else 2)

    def run():
        bundle = simulate_paths(HET2, eq, 0.5, 1.0, T, cfg, record_times=[0.5, 1.0, T])
        return (bundle.wealth, bundle.consumption,
                expected_payoff(HET2, HYP, eq, 1, 0.5, 1.0, T, cfg),
                spike_grid(HET2, HYP, eq, [0.5, 1.5], [(1, 0)], [0.1], cfg, 1.0, T).to_dict())

    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("RELPERF_THREADS", threads)
        outs.append(run())
    monkeypatch.setattr(simulate, "thread_count", lambda upper=None: 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outs.append(run())
    finally:
        sys.setswitchinterval(interval)
    (wealth, cons, est, rep), *others = outs
    for other in others:
        assert np.array_equal(other[0], wealth) and np.array_equal(other[1], cons)
        assert other[2:] == (est, rep)


def test_thread_count_respects_env(monkeypatch):
    from relperf._util import thread_count

    monkeypatch.setenv("RELPERF_THREADS", "1")
    assert thread_count() == 1
    monkeypatch.setenv("RELPERF_THREADS", "not-a-number")
    assert thread_count() >= 1
    monkeypatch.delenv("RELPERF_THREADS")
    assert thread_count(upper=2) <= 2
