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
    single_stock_h,
    single_stock_strategy,
)

T = 2.0
EXP = ExponentialDiscount(0.1)
HYP = HyperbolicDiscount(0.1, 1.0)

# Heterogeneous two-agent workhorse instance.
HET2 = Population([AgentType(1.0, 0.5, 1.0, 1.0, 1.0),
                   AgentType(2.0, 0.2, 0.5, 0.0, 1.0)])


def closed(pop, d=HYP):
    return NAgentEquilibrium(pop, d, T)


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
    agg = closed(pop).aggregates
    assert agg.phi == 1.0
    assert agg.psi == 0.0
    assert agg.e_delta == 1.0
    assert agg.e_theta == 0.0


def test_aggregates_heterogeneous_frozen_values():
    # Term-by-term evaluation: psi_2 = (0.5/1.75 + 0.2)/2 = 17/70,
    # phi_2 = (1/1.75 + 1)/2 = 11/14.
    agg = closed(HET2).aggregates
    assert agg.psi == pytest.approx(17.0 / 70.0, abs=1e-15)
    assert agg.phi == pytest.approx(11.0 / 14.0, abs=1e-15)


def test_aggregates_match_loop_oracle(rng):
    for _ in range(10):
        pop = random_population(rng)
        agg = closed(pop).aggregates
        phi, psi, dbar, tbar = oracle_aggregates(pop)
        assert agg.phi == pytest.approx(phi, rel=1e-14)
        assert agg.psi == pytest.approx(psi, rel=1e-14)
        assert agg.e_delta == pytest.approx(dbar, rel=1e-14)
        assert agg.e_theta == pytest.approx(tbar, rel=1e-14)


def test_aggregates_single_stock_identity(rng):
    mu, sigma = 0.9, 1.3
    pop = single_stock_population([(1.0, 0.4), (2.0, 0.7), (0.5, 0.1)], mu, sigma)
    agg = closed(pop).aggregates
    assert agg.psi == pytest.approx(agg.e_theta, abs=1e-15)
    assert agg.phi == pytest.approx(mu / sigma * agg.e_delta, rel=1e-14)


def test_degenerate_psi_guard():
    # theta one ulp below 1 is a valid agent but lands inside the numerical
    # guard band around the unsolvable fixed point
    theta = 1.0 - 1e-15
    pop = Population([AgentType(1, theta, 1, 0, 1)] * 2)
    with pytest.raises(DegenerateFixedPointError):
        closed(pop).aggregates


def test_agent_constants_vanish_without_competition():
    pop = Population([AgentType(1.0, 0.0, 1.0, 0.5, 1.0),
                      AgentType(2.0, 0.6, 0.7, 0.0, 1.0)])
    c = closed(pop).constants(0)
    assert c.a == 0.0 and c.b == 0.0 and c.c == 0.0
    a0 = pop.agents[0]
    assert c.d == pytest.approx(a0.mu**2 / (2 * (a0.nu**2 + a0.sigma**2)), rel=1e-15)


def test_agent_constants_match_loop_oracle(rng):
    for _ in range(10):
        pop = random_population(rng)
        for i in range(pop.n):
            got = closed(pop).constants(i)
            a, b, c, d = oracle_agent_constants(pop, i)
            assert got.a == pytest.approx(a, rel=1e-12, abs=1e-14)
            assert got.b == pytest.approx(b, rel=1e-12, abs=1e-14)
            assert got.c == pytest.approx(c, rel=1e-12, abs=1e-14)
            assert got.d == pytest.approx(d, rel=1e-12, abs=1e-14)
            assert got.c >= 0.0


def test_agent_constants_index_range():
    with pytest.raises(IndexError):
        closed(HET2).constants(2)


def test_idiosyncratic_constant_decays_like_one_over_n():
    atom_a = AgentType(1.0, 0.5, 1.0, 0.8, 0.6)
    atom_b = AgentType(2.0, 0.3, 0.7, 0.5, 1.0)
    cs = []
    for n in (10, 100, 1000):
        pop = Population([atom_a, atom_b] * (n // 2))
        cs.append(closed(pop).constants(0).c)
    assert cs[0] > cs[1] > cs[2]
    assert cs[0] / cs[1] == pytest.approx(10.0, rel=0.25)
    assert cs[1] / cs[2] == pytest.approx(10.0, rel=0.25)


def test_pi_star_merton_case():
    pop = Population([AgentType(1.0, 0.0, 1.0, 0.0, 1.0)] * 2)
    assert float(closed(pop).pi(0, 0.0)) == pytest.approx(3.0, abs=1e-15)


def test_pi_star_single_stock_effective_tolerance():
    pop = single_stock_population([(1.0, 0.5), (1.0, 0.5)])
    # delta_hat = 1 + 0.5 * 1 / 0.5 = 2 and (mu/sigma^2)*2*(T+1) = 6
    assert float(closed(pop).pi(0, 0.0)) == pytest.approx(6.0, abs=1e-14)


def test_pi_star_terminal_value_is_coefficient():
    coef = closed(HET2).coefficients
    for i in range(2):
        assert float(closed(HET2).pi(i, T)) == pytest.approx(coef[i], abs=1e-15)


def test_pi_star_linear_in_remaining_time(rng):
    for _ in range(5):
        pop = random_population(rng)
        ts = np.linspace(0.0, T, 37)
        vals = closed(pop).pi(0, ts) / (T + 1.0 - ts)
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
        assert float(closed(Population(zeroed)).pi(i, t)) == pytest.approx(
            merton * (T + 1 - t), rel=1e-13)
        # non-decreasing in theta_i, all else fixed
        lower = list(pop.agents)
        lower[i] = AgentType(a.delta, a.theta * 0.5, a.mu, a.nu, a.sigma)
        assert float(closed(pop).pi(i, t)) >= float(
            closed(Population(lower)).pi(i, t)) - 1e-12


def test_hhat_vanishes_at_horizon(rng):
    for d in (EXP, HYP):
        assert float(closed(HET2, d).hhat(0, T)) == pytest.approx(0.0, abs=1e-14)


def test_hhat_frozen_merton_value():
    pop = Population([AgentType(1.0, 0.0, 1.0, 0.0, 1.0)] * 2)
    # d = 1/2, bracket = 1/3 - 3, log-integral = -0.2
    assert float(closed(pop, EXP).hhat(0, 0.0)) == pytest.approx(-0.6, abs=1e-14)


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
        assert float(closed(pop, d).hhat(i, t)) == pytest.approx(want, abs=1e-8)


def test_c_star_terminal_identity(rng):
    for _ in range(5):
        pop = random_population(rng)
        x = float(rng.normal(5.0, 10.0))
        i = int(rng.integers(0, pop.n))
        assert float(closed(pop).consumption(i, T, x)) == pytest.approx(x, abs=1e-12)


def test_c_star_single_stock_collapse():
    pop = single_stock_population([(1.0, 0.5), (2.0, 0.2), (0.7, 0.0)])
    agg = closed(pop).aggregates
    ts = np.linspace(0.0, T, 50)
    for d in (EXP, HYP):
        for i, a in enumerate(pop.agents):
            for t in ts:
                ss = single_stock_strategy(a.delta, a.theta, agg.e_delta,
                                           agg.e_theta, a.mu, a.sigma, d,
                                           float(t), T)
                got = float(closed(pop, d).consumption(i, float(t), 5.0))
                assert got == pytest.approx(ss.consumption(5.0), abs=1e-12)
                assert float(closed(pop).pi(i, float(t))) == pytest.approx(
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
        assert float(closed(pop).consumption(i, t, x)) == pytest.approx(want, abs=1e-8)


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
        agg = closed(random_population(rng, theta_max=0.999)).aggregates
        assert agg.psi < 1.0
        assert agg.e_theta < 1.0



# Every query of the shared evaluator, called with a key at time t; the
# all-rows queries ignore the key.
QUERIES = {
    "coefficient": lambda eq, key, t: eq.coefficient(key),
    "constants": lambda eq, key, t: eq.constants(key),
    "effective_delta": lambda eq, key, t: eq.effective_delta(key),
    "pi": lambda eq, key, t: eq.pi(key, t),
    "hhat": lambda eq, key, t: eq.hhat(key, t),
    "intercept": lambda eq, key, t: eq.intercept(key, t),
    "consumption": lambda eq, key, t: eq.consumption(key, t, 1.0),
    "intercepts_at": lambda eq, key, t: eq.intercepts_at(t),
    "pi_at": lambda eq, key, t: eq.pi_at(t),
    "consumption_at": lambda eq, key, t: eq.consumption_at(t),
    "e_delta_hhat": lambda eq, key, t: eq.e_delta_hhat(t),
}
KEYED = ["coefficient", "constants", "effective_delta", "pi", "hhat", "intercept",
         "consumption"]
TIMED = {"nagent": ["pi", "hhat", "intercept", "consumption", "intercepts_at", "pi_at",
                    "consumption_at"],
         "mfg": ["pi", "hhat", "intercept", "consumption", "intercepts_at", "e_delta_hhat"]}
# Per game: the evaluator and a valid key.
GAMES = {
    "nagent": (lambda: NAgentEquilibrium(HET2, HYP, T), 1),
    "mfg": (lambda: MeanFieldEquilibrium(TypeDistribution([(a, 0.5) for a in HET2.agents]),
                                         HYP, T), HET2.agents[1]),
}
# Per game, each bad key with the error it gets.
BAD_KEYS = {
    "nagent": {"-1": (-1, IndexError, "agent index -1 out of range for n=2"),
               "2": (2, IndexError, "agent index 2 out of range for n=2"),
               "1.0": (1.0, IndexError, "agent index 1.0 out of range"),
               "True": (True, IndexError, "agent index True out of range")},
    "mfg": {"theta=1.5": (AgentType(1.0, 1.5, 1.0, 1.0, 1.0), ValidationError, "theta"),
            "delta=-1": (AgentType(-1.0, 0.5, 1.0, 1.0, 1.0), ValidationError, "delta"),
            "mu=nan": (AgentType(1.0, 0.5, np.nan, 1.0, 1.0), ValidationError, "finite"),
            "sigma=nu=0": (AgentType(1.0, 0.5, 1.0, 0.0, 0.0), ValidationError,
                           r"sigma\+nu"),
            "index": (0, ValidationError, "must be an AgentType")},
}


@pytest.mark.parametrize("game, query, bad", [
    (game, query, bad) for game in GAMES for query in KEYED for bad in BAD_KEYS[game]
    # constants refused an out-of-range integer before
    if not (query == "constants" and bad in ("-1", "2"))
])
def test_every_keyed_query_refuses_a_bad_key(game, query, bad):
    # a negative or boolean agent index used to wrap or pick rows, a float
    # or too large one to end in numpy's raw error; a query type was not
    # validated, so it gave a number, NaN or a raw ZeroDivisionError or
    # AttributeError
    key, error, match = BAD_KEYS[game][bad]
    with pytest.raises(error, match=match):
        QUERIES[query](GAMES[game][0](), key, 0.5)


@pytest.mark.parametrize("t", [-0.1, T + 0.1, np.nan], ids=["before", "after", "nan"])
@pytest.mark.parametrize("game, query", [(g, q) for g in GAMES for q in TIMED[g]])
def test_every_timed_query_refuses_a_time_outside_the_horizon(game, query, t):
    # these used to extrapolate past [0, T], return NaN, or end in the
    # discount's raw "log_integral requires t <= T"
    make, key = GAMES[game]
    eq = make()
    for times in (t, [0.0, t]):
        with pytest.raises(ValidationError, match=r"\[t0, horizon\] = \[0\.0, 2\.0\]"):
            QUERIES[query](eq, key, times)
