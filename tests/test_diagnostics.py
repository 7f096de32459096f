import numpy as np
import pytest

from conftest import random_population
from relperf import (
    AgentType,
    ExponentialDiscount,
    HyperbolicDiscount,
    NAgentEquilibrium,
    Population,
    TimeGrid,
    ansatz_for,
)
from relperf.diagnostics import foc_residuals

T = 2.0
GRID = TimeGrid(0.0, T, 120)
HYP = HyperbolicDiscount(0.1, 1.0)
HET2 = Population([AgentType(1.0, 0.5, 1.0, 1.0, 1.0),
                   AgentType(2.0, 0.2, 0.5, 0.0, 1.0)])


def test_terminal_values_match_boundary_data():
    eq = NAgentEquilibrium(HET2, HYP, T)
    for i, a in enumerate(HET2.agents):
        ans = ansatz_for(eq, i)
        assert float(ans.f(T)) == pytest.approx(ans.f_terminal, abs=1e-15)
        assert float(ans.g(T)) == pytest.approx(ans.g_terminal, abs=1e-15)
        assert ans.f_terminal == -(1 - a.theta / 2) / a.delta
        assert ans.g_terminal == a.theta / a.delta
        assert float(ans.h(T)) == pytest.approx(0.0, abs=1e-14)


def test_foc_residuals_vanish_along_equilibrium(rng):
    for d in (HYP, ExponentialDiscount(0.25)):
        eq = NAgentEquilibrium(HET2, HYP if d is HYP else d, T)
        for t in (0.0, 0.77, 1.9):
            xs = rng.normal(6.0, 4.0, size=(200, 2))
            for i in range(2):
                ri, rc = foc_residuals(eq, i, t, xs)
                assert float(np.max(ri)) <= 1e-9
                assert float(np.max(rc)) <= 1e-9


def test_foc_residuals_on_random_populations(rng):
    for _ in range(6):
        pop = random_population(rng, n=int(rng.integers(2, 6)))
        eq = NAgentEquilibrium(pop, HYP, T)
        t = float(rng.uniform(0.0, T))
        xs = rng.normal(5.0, 3.0, size=(100, pop.n))
        ri, rc = foc_residuals(eq, int(rng.integers(0, pop.n)), t, xs)
        assert float(np.max(ri)) <= 1e-9
        assert float(np.max(rc)) <= 1e-9


def test_terminal_adjoint_matches_terminal_utility_gradient(rng):
    # at t = T the ansatz reduces to its boundary data:
    # p(T) = (1/delta)(1-theta/n) exp(-(1/delta)(1-theta/n) x + (theta/delta) xbar)
    eq = NAgentEquilibrium(HET2, HYP, T)
    x = rng.normal(3.0, 2.0, size=2)
    for i, a in enumerate(HET2.agents):
        ans = ansatz_for(eq, i)
        own = x[i]
        cross = (x.sum() - own) / 2
        pref = (1 - a.theta / 2) / a.delta
        want = np.log(pref) - pref * own + (a.theta / a.delta) * cross
        got = (np.log(pref) + float(ans.f(T)) * own + float(ans.g(T)) * cross
               + float(ans.h(T)))
        assert got == pytest.approx(want, abs=1e-13)


def test_perturbed_investment_breaks_first_order_condition():
    eq = NAgentEquilibrium(HET2, HYP, T)
    x = np.array([5.0, 5.0])
    ri, _ = foc_residuals(eq, 0, 0.5, x, pi_scale=1.1)
    assert float(np.max(ri)) > 1e-2


def test_residuals_invariant_under_wealth_shift(rng):
    # shifting every wealth by a constant rescales p multiplicatively; the
    # normalized residuals are unchanged
    eq = NAgentEquilibrium(HET2, HYP, T)
    xs = rng.normal(4.0, 2.0, size=(50, 2))
    for shift in (-7.0, 3.5):
        r0 = foc_residuals(eq, 0, 0.9, xs)
        r1 = foc_residuals(eq, 0, 0.9, xs + shift)
        assert np.allclose(r0[0], r1[0], atol=1e-12)
        assert np.allclose(r0[1], r1[1], atol=1e-12)


def reconstruct_consumption(eq, i, t, x):
    """Consumption of agent ``i`` rebuilt through the reply formula.

    Uses the (f, g, h) route: own and cross wealth terms, the h drift
    adjustment, the discount term, and the competitors' equilibrium
    consumption average.  Must match the direct closed form.
    """
    agent = eq.pop.agents[i]
    n = eq.pop.n
    own = 1.0 - agent.theta / n
    rem = eq.horizon + 1.0 - t
    own_x = x[..., i]
    cross_x = (x.sum(axis=-1) - own_x) / n
    c_all = x / rem + eq.intercepts_at(t)
    cross_c = (c_all.sum(axis=-1) - c_all[..., i]) / n
    h = float(eq.hhat(i, t))
    log_lam = float(eq.discount.log_value(eq.horizon - t))
    return (own_x / rem - (agent.theta / own) * cross_x / rem
            - (agent.delta / own) * (h + log_lam)
            + (agent.theta / own) * cross_c)


def test_consumption_reconstruction_matches_closed_form(rng):
    for _ in range(5):
        pop = random_population(rng, n=int(rng.integers(2, 5)))
        eq = NAgentEquilibrium(pop, HYP, T)
        t = float(rng.uniform(0.0, T))
        xs = rng.normal(5.0, 3.0, size=(40, pop.n))
        for i in range(pop.n):
            rebuilt = reconstruct_consumption(eq, i, t, xs)
            direct = eq.consumption(i, t, xs[:, i])
            assert np.abs(rebuilt - direct).max() < 1e-10
