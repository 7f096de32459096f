import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import (
    oracle_mfg_aggregates,
    oracle_mfg_constants,
    oracle_mfg_hhat_quadrature,
    random_distribution,
    replicated_population,
)
from relperf import (
    AgentType,
    DegenerateFixedPointError,
    ExponentialDiscount,
    Population,
    HyperbolicDiscount,
    MeanFieldEquilibrium,
    TabulatedDiscount,
    TimeGrid,
    NAgentEquilibrium,
    TypeDistribution,
    single_stock_strategy,
)

T = 2.0
EXP = ExponentialDiscount(0.1)
HYP = HyperbolicDiscount(0.1, 1.0)

MERTON_TYPE = AgentType(1.0, 0.0, 1.0, 0.0, 1.0)
MERTON_DIST = TypeDistribution([(MERTON_TYPE, 1.0)])
TWO_ATOM = TypeDistribution([
    (AgentType(1.0, 0.5, 1.0, 0.5, 1.0), 0.5),
    (AgentType(2.0, 0.3, 0.8, 0.0, 1.0), 0.5),
])


def mean_field(dist, d=HYP):
    return MeanFieldEquilibrium(dist, d, T)


def replicated(n):
    return NAgentEquilibrium(replicated_population(TWO_ATOM, n), HYP, T)


def test_aggregates_single_atom_trivial():
    agg = mean_field(MERTON_DIST).aggregates
    assert (agg.phi, agg.psi, agg.e_delta, agg.e_theta) == (1.0, 0.0, 1.0, 0.0)


def test_aggregates_single_stock_reduction():
    dist = TypeDistribution([
        (AgentType(1.0, 0.4, 1.0, 0.0, 1.0), 0.5),
        (AgentType(3.0, 0.2, 1.0, 0.0, 1.0), 0.5),
    ])
    agg = mean_field(dist).aggregates
    assert agg.psi == pytest.approx(0.3, abs=1e-15)       # mean theta
    assert agg.phi == pytest.approx(2.0, abs=1e-15)       # mean delta (mu=sigma=1)


def test_aggregates_match_loop_oracle(rng):
    for _ in range(10):
        dist = random_distribution(rng)
        agg = mean_field(dist).aggregates
        phi, psi, ed, et = oracle_mfg_aggregates(dist)
        assert agg.phi == pytest.approx(phi, rel=1e-14)
        assert agg.psi == pytest.approx(psi, rel=1e-14)
        assert agg.e_delta == pytest.approx(ed, rel=1e-14)
        assert agg.e_theta == pytest.approx(et, rel=1e-14)


def test_degenerate_theta_guard_in_both_games():
    # idiosyncratic noise keeps psi near 1/2, but E[theta] sits inside the
    # guard band, where the consumption feedback 1/(1 - E[theta]) blows up
    agent = AgentType(1.0, 1.0 - 1e-15, 1.0, 1.0, 1.0)
    with pytest.raises(DegenerateFixedPointError, match="theta_bar"):
        NAgentEquilibrium(Population([agent] * 2), HYP, T).aggregates
    with pytest.raises(DegenerateFixedPointError, match=r"E\[theta\]"):
        mean_field(TypeDistribution([(agent, 1.0)])).aggregates


def test_type_constants_no_competition():
    c = mean_field(TWO_ATOM).constants(AgentType(1.5, 0.0, 1.2, 0.3, 0.9))
    assert c.a == 0.0 and c.b == 0.0
    assert c.d == pytest.approx(1.2**2 / (2 * (0.3**2 + 0.9**2)), rel=1e-15)


def test_type_constants_fixed_point_identity(rng):
    # a * delta0/theta0 must equal E[delta sig mu/(s^2+n^2)] + E[theta s^2/(s^2+n^2)] phi/(1-psi),
    # equivalently a = (theta0/delta0) * phi/(1-psi).
    for _ in range(10):
        dist = random_distribution(rng)
        agg = mean_field(dist).aggregates
        xi0 = AgentType(1.3, 0.6, 1.0, 0.2, 0.8)
        c = mean_field(dist).constants(xi0)
        assert c.a * xi0.delta / xi0.theta == pytest.approx(
            agg.phi / (1.0 - agg.psi), abs=1e-14)


def test_type_constants_match_loop_oracle(rng):
    for _ in range(10):
        dist = random_distribution(rng)
        xi0 = dist.types[0]
        got = mean_field(dist).constants(xi0)
        a, b, d = oracle_mfg_constants(dist, xi0)
        assert got.a == pytest.approx(a, rel=1e-13, abs=1e-15)
        assert got.b == pytest.approx(b, rel=1e-13, abs=1e-15)
        assert got.d == pytest.approx(d, rel=1e-13, abs=1e-14)


def test_nagent_constants_approach_mfg_limit():
    gaps = []
    for n in (10, 100, 1000):
        pop = replicated_population(TWO_ATOM, n)
        got = NAgentEquilibrium(pop, HYP, T).constants(0)
        lim = mean_field(TWO_ATOM).constants(pop.agents[0])
        gaps.append(abs(got.a - lim.a) + abs(got.b - lim.b) + abs(got.d - lim.d))
    assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.3)
    assert gaps[1] / gaps[2] == pytest.approx(10.0, rel=0.3)


def test_hhat_terminal_zero():
    assert float(mean_field(TWO_ATOM).hhat(TWO_ATOM.types[0], T)) == pytest.approx(
        0.0, abs=1e-14)


def test_hhat_nagent_limit():
    xi0 = TWO_ATOM.types[0]
    target = float(mean_field(TWO_ATOM).hhat(xi0, 0.0))
    gaps = [abs(float(replicated(n).hhat(0, 0.0)) - target)
            for n in (10, 100, 1000)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_hhat_matches_quadrature_oracle(rng):
    for _ in range(10):
        dist = random_distribution(rng, k=int(rng.integers(1, 4)))
        xi0 = dist.types[0]
        t = float(rng.uniform(0.0, T - 0.05))
        d = HYP if rng.integers(0, 2) else EXP
        want = oracle_mfg_hhat_quadrature(dist, d, xi0, t, T)
        assert float(mean_field(dist, d).hhat(xi0, t)) == pytest.approx(want, abs=1e-8)


def test_pi_star_merton_and_single_stock():
    assert float(mean_field(MERTON_DIST).pi(MERTON_TYPE, 0.0)) == pytest.approx(3.0)
    dist = TypeDistribution([(AgentType(1.0, 0.5, 1.0, 0.0, 1.0), 1.0)])
    xi0 = dist.types[0]
    dh = mean_field(dist).effective_delta(xi0)
    assert dh == pytest.approx(2.0, abs=1e-15)
    assert float(mean_field(dist).pi(xi0, 0.0)) == pytest.approx(dh * 3.0, abs=1e-13)


def test_pi_star_fixed_point_identity(rng):
    # E[sigma pi(t)] solves  E = phi (T+1-t) + psi E  exactly.
    for _ in range(10):
        dist = random_distribution(rng)
        agg = mean_field(dist).aggregates
        for t in (0.0, 0.8, 1.9):
            e_sig = dist.weights @ [a.sigma * float(mean_field(dist).pi(a, t))
                                    for a in dist.types]
            assert e_sig == pytest.approx(
                agg.phi * (T + 1 - t) + agg.psi * e_sig, abs=1e-12)


def test_c_star_terminal_identity(rng):
    for _ in range(5):
        dist = random_distribution(rng)
        x = float(rng.normal(5, 5))
        assert float(mean_field(dist).consumption(dist.types[0], T, x)) == pytest.approx(
            x, abs=1e-12)


def test_c_star_single_stock_collapse():
    dist = TypeDistribution([
        (AgentType(1.0, 0.5, 1.0, 0.0, 1.0), 0.25),
        (AgentType(2.0, 0.2, 1.0, 0.0, 1.0), 0.75),
    ])
    agg = mean_field(dist).aggregates
    for d in (EXP, HYP):
        for xi0 in dist.types:
            for t in np.linspace(0.0, T, 50):
                ss = single_stock_strategy(xi0.delta, xi0.theta, agg.e_delta,
                                           agg.e_theta, xi0.mu, xi0.sigma, d,
                                           float(t), T)
                got = float(mean_field(dist, d).consumption(xi0, float(t), 5.0))
                assert got == pytest.approx(ss.consumption(5.0), abs=1e-12)


def test_c_star_merton_display():
    # exponential single stock: consumption intercept equals
    # (delta_hat/2) [(mu/sigma)^2/2 + rho] [(T+1-t) - 1/(T+1-t)]
    dist = TypeDistribution([(AgentType(1.0, 0.5, 1.0, 0.0, 1.0), 1.0)])
    xi0 = dist.types[0]
    dh = mean_field(dist).effective_delta(xi0)
    rho = 0.1
    for t in np.linspace(0.0, T, 21):
        rem = T + 1 - t
        want = 10.0 / rem + dh / 2 * (0.5 + rho) * (rem - 1.0 / rem)
        got = float(mean_field(dist, ExponentialDiscount(rho)).consumption(
            xi0, float(t), 10.0))
        assert got == pytest.approx(want, abs=1e-10)


def test_effective_delta_properties(rng):
    assert mean_field(MERTON_DIST).effective_delta(MERTON_TYPE) == 1.0
    for _ in range(20):
        dist = random_distribution(rng)
        theta0 = float(rng.uniform(0.05, 0.9))
        xi0 = AgentType(1.0, theta0, 1.0, 0.0, 1.0)
        dh = mean_field(dist).effective_delta(xi0)
        assert dh > xi0.delta  # strictly bigger once theta0 > 0
        # strictly increasing in theta0
        xi_lo = AgentType(1.0, theta0 * 0.5, 1.0, 0.0, 1.0)
        assert dh > mean_field(dist).effective_delta(xi_lo)
    # increasing in E[delta] and in E[theta]
    base = TypeDistribution([(AgentType(1.0, 0.2, 1.0, 0.0, 1.0), 1.0)])
    richer = TypeDistribution([(AgentType(2.0, 0.2, 1.0, 0.0, 1.0), 1.0)])
    keener = TypeDistribution([(AgentType(1.0, 0.6, 1.0, 0.0, 1.0), 1.0)])
    probe = AgentType(1.0, 0.5, 1.0, 0.0, 1.0)
    base_delta = mean_field(base).effective_delta(probe)
    assert mean_field(richer).effective_delta(probe) > base_delta
    assert mean_field(keener).effective_delta(probe) > base_delta


def test_average_consumption_starts_at_initial_policy():
    grid = TimeGrid(0.0, T, 101)
    eq = MeanFieldEquilibrium(TWO_ATOM, HYP, T)
    avg = eq.average_consumption(grid, 10.0)
    want = TWO_ATOM.weights @ [float(eq.consumption(a, 0.0, 10.0)) for a in TWO_ATOM.types]
    assert avg[0] == pytest.approx(want, abs=1e-13)


def test_average_consumption_merton_value():
    grid = TimeGrid(0.0, T, 201)
    eq = MeanFieldEquilibrium(MERTON_DIST, EXP, T)
    avg = eq.average_consumption(grid, 10.0)
    assert avg[0] == pytest.approx(62.0 / 15.0, abs=1e-12)


def test_average_consumption_matches_ivp_oracle():
    grid = TimeGrid(0.0, T, 201)
    eq = MeanFieldEquilibrium(TWO_ATOM, HYP, T)
    avg = eq.average_consumption(grid, 10.0)

    coef = eq.coefficients
    mu = TWO_ATOM.field("mu")

    def rhs(t, m):
        rem = T + 1.0 - t
        return coef * mu * rem - m / rem - np.asarray(eq.intercepts_at(t))

    sol = solve_ivp(rhs, (0.0, T), np.full(2, 10.0), t_eval=grid.times,
                    rtol=1e-11, atol=1e-12, dense_output=False)
    want = TWO_ATOM.weights @ (
        sol.y / (T + 1.0 - grid.times)[None, :]
        + np.asarray(eq.intercepts_at(grid.times)))
    assert np.abs(avg - want).max() < 1e-7


# Kinks of ln lam at 0.5 and 1.3 (the log interpolates linearly between knots).
TAB = TabulatedDiscount([0.0, 0.5, 1.3, 2.0], [1.0, 0.9, 0.7, 0.6])


@pytest.mark.parametrize("d", [EXP, HYP, TAB], ids=["exp", "hyp", "tab"])
@pytest.mark.parametrize("t0, n_points", [(0.0, 201), (0.7, 51)])
def test_mean_wealth_matches_ivp(rng, d, t0, n_points):
    # The closed form against an adaptive solve of m' = a mu rem - m/rem - q.
    dist = random_distribution(rng, k=6)
    eq = MeanFieldEquilibrium(dist, d, T)
    grid = TimeGrid(t0, T, n_points)
    got = eq.mean_wealth(grid, 10.0)
    drift = eq.coefficients * dist.field("mu")

    def rhs(t, m):
        rem = T + 1.0 - t
        return drift * rem - m / rem - eq.intercepts_at(t)

    sol = solve_ivp(rhs, (t0, T), np.full(dist.n_atoms, 10.0), method="DOP853",
                    t_eval=grid.times, rtol=1e-11, atol=1e-12)
    assert sol.success
    assert got.shape == sol.y.shape
    assert np.abs(got - sol.y).max() <= 1e-9 * np.abs(sol.y).max()
    assert np.array_equal(got[:, 0], np.full(dist.n_atoms, 10.0))


def test_atom_intercepts_match_per_type_intercepts(rng):
    # One formula for atoms and for arbitrary query types, and both equal
    # the definition -delta H - comp E[delta H] - (delta + comp E[delta]) ln lam.
    # The atoms' rows and each atom's query-type path also agree on the
    # slopes, investments and constants (to an ulp: the scalar path rounds
    # on its own).
    times = TimeGrid(0.0, T, 57).times
    for d in (EXP, HYP, TAB):
        dist = random_distribution(rng)
        eq = MeanFieldEquilibrium(dist, d, T)
        agg = eq.aggregates
        got = eq.intercepts_at(times)
        stacked = np.stack([eq.intercept(a, times) for a in dist.types])
        comp = dist.field("theta")[:, None] / (1.0 - agg.e_theta)
        delta = dist.field("delta")[:, None]
        hh = np.stack([eq.hhat(a, times) for a in dist.types])
        defined = (-delta * hh - comp * eq.e_delta_hhat(times)
                   - (delta + comp * agg.e_delta) * d.log_value(T - times))
        scale = np.abs(defined).max()
        assert got.shape == (dist.n_atoms, times.size)
        assert np.abs(got - stacked).max() <= 1e-13 * scale
        assert np.abs(got - defined).max() <= 1e-13 * scale

        coef = np.array([eq.coefficient(a) for a in dist.types])
        assert np.abs(coef - eq.coefficients).max() <= 1e-13 * np.abs(coef).max()
        rows = np.multiply.outer(eq.coefficients, T + 1.0 - times)
        pis = np.stack([eq.pi(a, times) for a in dist.types])
        assert np.abs(pis - rows).max() <= 1e-13 * np.abs(rows).max()
        consts = np.array([dataclasses.astuple(eq.constants(a)) for a in dist.types])
        core = eq._core
        want = np.stack([core.a, core.b, core.c, core.d], axis=1)
        assert not consts[:, 2].any()
        assert np.abs(consts - want).max() <= 1e-13 * np.abs(want).max()


def test_average_consumption_monotone_in_patience_and_tolerance():
    grid = TimeGrid(0.0, T, 201)
    j = np.argmin(np.abs(grid.times - 1.0))
    curves = []
    for beta in (0.5, 1.0, 2.0):
        eqb = MeanFieldEquilibrium(MERTON_DIST, HyperbolicDiscount(0.1, beta), T)
        curves.append(eqb.average_consumption(grid, 10.0))
    assert curves[0][j] > curves[1][j] > curves[2][j]

    vals = []
    for dh in (1.0, 1.5, 2.0):
        theta = 1.0 - 1.0 / dh
        dist = TypeDistribution([(AgentType(1.0, theta, 1.0, 0.0, 1.0), 1.0)])
        eqd = MeanFieldEquilibrium(dist, HYP, T)
        vals.append(eqd.average_consumption(grid, 10.0)[j])
    assert vals[0] < vals[1] < vals[2]


def test_average_consumption_monte_carlo_cross_check():
    # path averages of C(t, X_t) from the simulator against the mean-ODE curve
    from relperf import GridStrategyN, Population, SimConfig, simulate_paths

    grid = TimeGrid(0.0, T, 101)
    eq = MeanFieldEquilibrium(TWO_ATOM, HYP, T)
    curve = eq.average_consumption(grid, 10.0)
    check = np.linspace(0.0, T, 10)
    jint = np.unique(np.round((check - 0.0) / grid.step).astype(int))
    cfg = SimConfig(20_000, 0.005, 77)

    est = np.zeros(jint.size)
    var = np.zeros(jint.size)
    for (atom, w) in TWO_ATOM.atoms:
        pop = Population([atom, atom])
        m = grid.n_points
        rem = T + 1.0 - grid.times
        pi = np.tile(float(eq.coefficient(atom)) * rem, (2, 1))
        p = np.zeros((2, 2, m))
        p[0, 0] = p[1, 1] = 1.0 / rem
        q = np.tile(np.asarray(eq.intercept(atom, grid.times)), (2, 1))
        strat = GridStrategyN(grid, pi, p, q)
        bundle = simulate_paths(pop, strat, 0.0, 10.0, T, cfg,
                                record_times=grid.times[jint])
        cons = bundle.consumption[:, :, 0]
        est += w * cons.mean(axis=0)
        var += w**2 * cons.var(axis=0, ddof=1) / cfg.n_paths
    gap = np.abs(est - curve[jint])
    assert np.all(gap <= 4.0 * np.sqrt(var) + 1e-12)


def test_consumption_fixed_point_identity(rng):
    # (1 - E[theta]) E[q(t)] = -(E[delta H(t)] + E[delta] ln lam(T-t))
    for _ in range(5):
        dist = random_distribution(rng)
        eq = MeanFieldEquilibrium(dist, HYP, T)
        agg = eq.aggregates
        for t in (0.0, 0.66, 1.5):
            e_q = dist.weights @ np.asarray(eq.intercepts_at(t))
            target = -(eq.e_delta_hhat(t)
                       + agg.e_delta * float(HYP.log_value(T - t))) / (1 - agg.e_theta)
            assert e_q == pytest.approx(float(target), abs=1e-12)


def test_pi_convergence_from_nagent(rng):
    xi0 = TWO_ATOM.types[0]
    target = float(mean_field(TWO_ATOM).pi(xi0, 0.0))
    gaps = [abs(float(replicated(n).pi(0, 0.0)) - target)
            for n in (10, 100, 1000)]
    assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.5)
    assert gaps[1] / gaps[2] == pytest.approx(10.0, rel=0.5)
