import numpy as np
import pytest

from conftest import (
    oracle_agent_constants,
    oracle_aggregates,
    oracle_hhat_quadrature,
    random_population,
)
from relperf import (
    AgentType,
    DegenerateFixedPointError,
    ExponentialDiscount,
    GridStrategyN,
    HyperbolicDiscount,
    MeanFieldEquilibrium,
    MFGridStrategy,
    NAgentEquilibrium,
    Population,
    TabulatedDiscount,
    TimeGrid,
    TypeDistribution,
    ValidationError,
    agent_constants,
    aggregates,
    c_star,
    hhat,
    investment_coefficients,
    pi_star,
    single_stock_h,
    single_stock_strategy,
)

T = 2.0
EXP = ExponentialDiscount(0.1)
HYP = HyperbolicDiscount(0.1, 1.0)

# Heterogeneous two-agent workhorse instance.
HET2 = Population([AgentType(1.0, 0.5, 1.0, 1.0, 1.0),
                   AgentType(2.0, 0.2, 0.5, 0.0, 1.0)])


def single_stock_population(params, mu=1.0, sigma=1.0):
    """(delta, theta) pairs sharing one stock: nu = 0, common mu and sigma."""
    return Population([AgentType(d, th, mu, 0.0, sigma) for d, th in params])


def test_population_requires_two_agents():
    with pytest.raises(ValidationError):
        Population([AgentType(1, 0, 1, 0, 1)])


def test_population_validates_members():
    with pytest.raises(ValidationError, match="agent 1"):
        Population([AgentType(1, 0, 1, 0, 1), AgentType(1, 1.5, 1, 0, 1)])


def test_aggregates_trivial_uncoupled_pair():
    pop = Population([AgentType(1, 0, 1, 0, 1)] * 2)
    agg = aggregates(pop)
    assert agg.phi_n == 1.0
    assert agg.psi_n == 0.0
    assert agg.delta_bar == 1.0
    assert agg.theta_bar == 0.0


def test_aggregates_heterogeneous_frozen_values():
    # Term-by-term evaluation: psi_2 = (0.5/1.75 + 0.2)/2 = 17/70,
    # phi_2 = (1/1.75 + 1)/2 = 11/14.
    agg = aggregates(HET2)
    assert agg.psi_n == pytest.approx(17.0 / 70.0, abs=1e-15)
    assert agg.phi_n == pytest.approx(11.0 / 14.0, abs=1e-15)


def test_aggregates_match_loop_oracle(rng):
    for _ in range(10):
        pop = random_population(rng)
        agg = aggregates(pop)
        phi, psi, dbar, tbar = oracle_aggregates(pop)
        assert agg.phi_n == pytest.approx(phi, rel=1e-14)
        assert agg.psi_n == pytest.approx(psi, rel=1e-14)
        assert agg.delta_bar == pytest.approx(dbar, rel=1e-14)
        assert agg.theta_bar == pytest.approx(tbar, rel=1e-14)


def test_aggregates_single_stock_identity(rng):
    mu, sigma = 0.9, 1.3
    pop = single_stock_population([(1.0, 0.4), (2.0, 0.7), (0.5, 0.1)], mu, sigma)
    agg = aggregates(pop)
    assert agg.psi_n == pytest.approx(agg.theta_bar, abs=1e-15)
    assert agg.phi_n == pytest.approx(mu / sigma * agg.delta_bar, rel=1e-14)


def test_degenerate_psi_guard():
    # theta one ulp below 1 is a valid agent but lands inside the numerical
    # guard band around the unsolvable fixed point
    theta = 1.0 - 1e-15
    pop = Population([AgentType(1, theta, 1, 0, 1)] * 2)
    with pytest.raises(DegenerateFixedPointError):
        aggregates(pop)


def test_agent_constants_vanish_without_competition():
    pop = Population([AgentType(1.0, 0.0, 1.0, 0.5, 1.0),
                      AgentType(2.0, 0.6, 0.7, 0.0, 1.0)])
    c = agent_constants(pop, 0)
    assert c.a == 0.0 and c.b == 0.0 and c.c == 0.0
    a0 = pop.agents[0]
    assert c.d == pytest.approx(a0.mu**2 / (2 * (a0.nu**2 + a0.sigma**2)), rel=1e-15)


def test_agent_constants_match_loop_oracle(rng):
    for _ in range(10):
        pop = random_population(rng)
        for i in range(pop.n):
            got = agent_constants(pop, i)
            a, b, c, d = oracle_agent_constants(pop, i)
            assert got.a == pytest.approx(a, rel=1e-12, abs=1e-14)
            assert got.b == pytest.approx(b, rel=1e-12, abs=1e-14)
            assert got.c == pytest.approx(c, rel=1e-12, abs=1e-14)
            assert got.d == pytest.approx(d, rel=1e-12, abs=1e-14)
            assert got.c >= 0.0


def test_agent_constants_index_range():
    with pytest.raises(IndexError):
        agent_constants(HET2, 2)


def test_idiosyncratic_constant_decays_like_one_over_n():
    atom_a = AgentType(1.0, 0.5, 1.0, 0.8, 0.6)
    atom_b = AgentType(2.0, 0.3, 0.7, 0.5, 1.0)
    cs = []
    for n in (10, 100, 1000):
        pop = Population([atom_a, atom_b] * (n // 2))
        cs.append(agent_constants(pop, 0).c)
    assert cs[0] > cs[1] > cs[2]
    assert cs[0] / cs[1] == pytest.approx(10.0, rel=0.25)
    assert cs[1] / cs[2] == pytest.approx(10.0, rel=0.25)


def test_pi_star_merton_case():
    pop = Population([AgentType(1.0, 0.0, 1.0, 0.0, 1.0)] * 2)
    assert float(pi_star(pop, 0, 0.0, T)) == pytest.approx(3.0, abs=1e-15)


def test_pi_star_single_stock_effective_tolerance():
    pop = single_stock_population([(1.0, 0.5), (1.0, 0.5)])
    # delta_hat = 1 + 0.5 * 1 / 0.5 = 2 and (mu/sigma^2)*2*(T+1) = 6
    assert float(pi_star(pop, 0, 0.0, T)) == pytest.approx(6.0, abs=1e-14)


def test_pi_star_terminal_value_is_coefficient():
    coef = investment_coefficients(HET2)
    for i in range(2):
        assert float(pi_star(HET2, i, T, T)) == pytest.approx(coef[i], abs=1e-15)


def test_pi_star_linear_in_remaining_time(rng):
    for _ in range(5):
        pop = random_population(rng)
        ts = np.linspace(0.0, T, 37)
        vals = pi_star(pop, 0, ts, T) / (T + 1.0 - ts)
        assert np.abs(vals - vals[0]).max() < 1e-13


def test_pi_star_merton_decomposition_and_monotonicity(rng):
    for _ in range(8):
        pop = random_population(rng)
        i = int(rng.integers(0, pop.n))
        a = pop.agents[i]
        zeroed = list(pop.agents)
        zeroed[i] = AgentType(a.delta, 0.0, a.mu, a.nu, a.sigma)
        merton = a.delta * a.mu / (a.sigma**2 + a.nu**2)
        t = float(rng.uniform(0.0, T))
        assert float(pi_star(Population(zeroed), i, t, T)) == pytest.approx(
            merton * (T + 1 - t), rel=1e-13)
        # non-decreasing in theta_i, all else fixed
        lower = list(pop.agents)
        lower[i] = AgentType(a.delta, a.theta * 0.5, a.mu, a.nu, a.sigma)
        assert float(pi_star(pop, i, t, T)) >= float(
            pi_star(Population(lower), i, t, T)) - 1e-12


def test_hhat_vanishes_at_horizon(rng):
    for d in (EXP, HYP):
        assert float(hhat(HET2, d, 0, T, T)) == pytest.approx(0.0, abs=1e-14)


def test_hhat_frozen_merton_value():
    pop = Population([AgentType(1.0, 0.0, 1.0, 0.0, 1.0)] * 2)
    # d = 1/2, bracket = 1/3 - 3, log-integral = -0.2
    assert float(hhat(pop, EXP, 0, 0.0, T)) == pytest.approx(-0.6, abs=1e-14)


def test_hhat_matches_quadrature_oracle(rng):
    quasi = TabulatedDiscount(
        np.linspace(0, 3, 301), (1 + 0.3 * np.linspace(0, 3, 301)) * np.exp(
            -0.25 * np.linspace(0, 3, 301)))
    for trial in range(20):
        pop = random_population(rng, n=int(rng.integers(2, 6)))
        d = (EXP, HYP, quasi)[trial % 3]
        i = int(rng.integers(0, pop.n))
        t = float(rng.uniform(0.0, T - 0.05))
        kinks = [T - u for u in quasi.times if 0.0 < u < T - t] if d is quasi else ()
        want = oracle_hhat_quadrature(pop, d, i, t, T, kinks=kinks)
        assert float(hhat(pop, d, i, t, T)) == pytest.approx(want, abs=1e-8)


def test_c_star_terminal_identity(rng):
    for _ in range(5):
        pop = random_population(rng)
        x = float(rng.normal(5.0, 10.0))
        i = int(rng.integers(0, pop.n))
        assert float(c_star(pop, HYP, i, T, x, T)) == pytest.approx(x, abs=1e-12)


def test_c_star_single_stock_collapse():
    pop = single_stock_population([(1.0, 0.5), (2.0, 0.2), (0.7, 0.0)])
    agg = aggregates(pop)
    ts = np.linspace(0.0, T, 50)
    for d in (EXP, HYP):
        for i, a in enumerate(pop.agents):
            for t in ts:
                ss = single_stock_strategy(a.delta, a.theta, agg.delta_bar,
                                           agg.theta_bar, a.mu, a.sigma, d,
                                           float(t), T)
                got = float(c_star(pop, d, i, float(t), 5.0, T))
                assert got == pytest.approx(ss.consumption(5.0), abs=1e-12)
                assert float(pi_star(pop, i, float(t), T)) == pytest.approx(
                    ss.pi, abs=1e-12)


def test_c_star_matches_term_by_term_oracle(rng):
    for _ in range(5):
        pop = random_population(rng, n=int(rng.integers(2, 5)))
        i = int(rng.integers(0, pop.n))
        t = float(rng.uniform(0.0, T))
        x = float(rng.normal(8.0, 4.0))
        # assemble the consumption from oracle constants and quadrature hhat
        n = pop.n
        _, _, dbar, tbar = oracle_aggregates(pop)
        hh = [oracle_hhat_quadrature(pop, HYP, k, t, T, n=6000) for k in range(n)]
        davg = sum(pop.agents[k].delta * hh[k] for k in range(n)) / n
        a = pop.agents[i]
        loglam = float(HYP.log_value(T - t))
        want = (x / (T + 1 - t) - a.delta * hh[i]
                - a.theta / (1 - tbar) * davg
                - (a.delta + a.theta * dbar / (1 - tbar)) * loglam)
        assert float(c_star(pop, HYP, i, t, x, T)) == pytest.approx(want, abs=1e-8)


def test_single_stock_h_and_merton_consumption():
    assert float(single_stock_h(1.0, 1.0, EXP, 0.0, T)) == pytest.approx(0.6, abs=1e-14)
    ss = single_stock_strategy(1.0, 0.0, 1.0, 0.0, 1.0, 1.0, EXP, 0.0, T)
    assert ss.consumption(10.0) == pytest.approx(10.0 / 3.0 + 0.6 + 0.2, abs=1e-12)


def test_single_stock_no_competition_reduction():
    # theta = 0 recovers the solo policy: pi = (mu/sigma^2) delta (T+1-t),
    # consumption = x/(T+1-t) + delta * (H(t) - ln lam(T-t)).
    d = HYP
    t = 0.7
    ss = single_stock_strategy(1.3, 0.0, 2.0, 0.5, 0.8, 1.1, d, t, T)
    assert ss.pi == pytest.approx(1.3 * 0.8 / 1.1**2 * (T + 1 - t), rel=1e-14)
    want = 1.3 * (float(single_stock_h(0.8, 1.1, d, t, T))
                  - float(d.log_value(T - t)))
    assert ss.c_intercept == pytest.approx(want, rel=1e-14)


def test_single_stock_requires_positive_sigma():
    with pytest.raises(ValueError):
        single_stock_strategy(1.0, 0.0, 1.0, 0.0, 1.0, 0.0, EXP, 0.0, T)
    with pytest.raises(ValueError):
        single_stock_h(1.0, 0.0, EXP, 0.0, T)


def test_equilibrium_strategy_sampling_contract():
    grid = TimeGrid(0.0, T, 41)
    eq = NAgentEquilibrium(HET2, HYP, T)
    strat = GridStrategyN.from_equilibrium(eq, grid)
    assert strat.max_cross_coefficient() == 0.0
    labels, blocks = strat.classes()
    for i in range(2):
        assert np.allclose(blocks.pi[labels[i]], eq.pi(i, grid.times), rtol=0, atol=0)
        assert np.allclose(blocks.q[labels[i]], eq.intercept(i, grid.times),
                           rtol=0, atol=0)
        assert np.allclose(blocks.diag[labels[i]], 1.0 / (T + 1.0 - grid.times),
                           rtol=0, atol=0)


def test_equilibrium_consumption_consistent_with_c_star():
    eq = NAgentEquilibrium(HET2, EXP, T)
    for t in (0.0, 0.9, 1.7):
        for i in range(2):
            assert float(eq.consumption(i, t, 4.2)) == pytest.approx(
                float(c_star(HET2, EXP, i, t, 4.2, T)), abs=1e-14)


def test_grid_horizon_must_match():
    short = TimeGrid(0.0, 1.5, 10)
    with pytest.raises(ValidationError, match="grid horizon must match"):
        GridStrategyN.from_equilibrium(NAgentEquilibrium(HET2, EXP, T), short)
    dist = TypeDistribution([(a, 0.5) for a in HET2.agents])
    with pytest.raises(ValidationError, match="grid horizon must match"):
        MFGridStrategy.from_equilibrium(MeanFieldEquilibrium(dist, EXP, T), short)


def test_psi_below_one_for_valid_populations(rng):
    # algebraic consequence of theta < 1; asserted across random instances
    for _ in range(25):
        agg = aggregates(random_population(rng, theta_max=0.999))
        assert agg.psi_n < 1.0
        assert agg.theta_bar < 1.0
