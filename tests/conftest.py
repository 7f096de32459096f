"""Shared instance generators and independent oracles.

The oracles re-derive every quantity with plain Python loops straight from
the defining sums and integrals, deliberately avoiding the package's
vectorized code paths, so agreement is a genuine cross-check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from relperf import AgentType, GridStrategyN, Population, TypeDistribution
from relperf.best_response import _ReplyPlan
from relperf.nagent import _nagent_law


# ---------------------------------------------------------------------------
# Randomized instances


def random_agent(rng, theta_max=0.8, allow_degenerate_vol=True) -> AgentType:
    delta = rng.uniform(0.4, 2.5)
    theta = rng.uniform(0.0, theta_max)
    mu = rng.uniform(0.3, 1.8)
    style = rng.integers(0, 3) if allow_degenerate_vol else 2
    if style == 0:      # no idiosyncratic noise
        nu, sigma = 0.0, rng.uniform(0.3, 1.5)
    elif style == 1:    # no common noise
        nu, sigma = rng.uniform(0.3, 1.5), 0.0
    else:
        nu, sigma = rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2)
    return AgentType(delta, theta, mu, nu, sigma)


def random_population(rng, n=None, theta_max=0.8) -> Population:
    if n is None:
        n = int(rng.integers(2, 11))
    return Population([random_agent(rng, theta_max=theta_max) for _ in range(n)])


def random_distribution(rng, k=None, theta_max=0.8) -> TypeDistribution:
    if k is None:
        k = int(rng.integers(1, 6))
    raw = rng.uniform(0.2, 1.0, size=k)
    weights = raw / raw.sum()
    # Re-normalize exactly so the sum-to-one invariant holds to 1e-12.
    weights[-1] = 1.0 - weights[:-1].sum()
    return TypeDistribution(
        [(random_agent(rng, theta_max=theta_max), float(w)) for w in weights]
    )


def replicated_population(dist: TypeDistribution, n: int) -> Population:
    """Population of n agents with type frequencies matching the law exactly.

    Uses largest-remainder rounding of n * weight so the empirical measure
    reproduces the distribution as closely as n allows (exactly when every
    n * weight is an integer), which isolates the O(1/n) finite-population
    corrections from type-sampling noise.
    """
    raw = np.asarray(dist.weights) * n
    counts = np.floor(raw).astype(int)
    short = n - counts.sum()
    order = np.argsort(raw - np.floor(raw))[::-1]
    for j in range(short):
        counts[order[j % len(order)]] += 1
    agents = []
    for atom, c in zip(dist.types, counts):
        agents.extend([atom] * int(c))
    return Population(agents)


def dense_consumption(strategy, times):
    """``(P, q)`` from the class form ``(labels, own, off, q)`` of
    ``strategy.consumption_at``: P[..., i, k] is agent i's slope on agent
    k's wealth, off[labels[i], labels[k]] off the diagonal and own[i] on it."""
    labels, own, off, q = strategy.consumption_at(times)
    P = off[..., labels[:, None], labels]
    idx = np.arange(labels.size)
    P[..., idx, idx] = own
    return P, q


def dense_profile(pop, d, strategy):
    """The simultaneous best reply with the slopes updated as one (n, n, m)
    array: new p[i, k] = scale_i (P_k - p[i, k] - 1/rem) off the diagonal and
    scale_i (P_i - p[i, i]) + 1/rem on it, with column sums P."""
    grid, n = strategy.grid, pop.n
    theta = pop.field("theta")
    rem = grid.T + 1.0 - grid.times
    pi, q = _ReplyPlan(d, grid, *_nagent_law(pop)).reply(strategy.pi, strategy.q)
    scale = (theta / (1.0 - theta / n) / n)[:, None]
    p_tot = strategy.p.sum(axis=0)
    p = np.subtract((p_tot - 1.0 / rem)[None], strategy.p)
    p *= scale[:, :, None]
    diag = np.arange(n)
    p[diag, diag] = scale * (p_tot - strategy.p[diag, diag]) + 1.0 / rem
    return GridStrategyN(grid, pi, p, q)


# ---------------------------------------------------------------------------
# Loop-based oracles for the closed-form constants


def oracle_aggregates(pop: Population):
    n = pop.n
    phi = psi = dbar = tbar = 0.0
    for a in pop.agents:
        w = a.sigma**2 + (1.0 - a.theta / n) * a.nu**2
        phi += a.delta * a.sigma * a.mu / w
        psi += a.theta * a.sigma**2 / w
        dbar += a.delta
        tbar += a.theta
    return phi / n, psi / n, dbar / n, tbar / n


def oracle_pi_coefficients(pop: Population):
    n = pop.n
    phi, psi, _, _ = oracle_aggregates(pop)
    out = []
    for a in pop.agents:
        w = a.sigma**2 + (1.0 - a.theta / n) * a.nu**2
        out.append((a.delta * a.mu + a.theta * a.sigma * phi / (1.0 - psi)) / w)
    return out


def oracle_agent_constants(pop: Population, i: int):
    n = pop.n
    coef = oracle_pi_coefficients(pop)
    ai = pop.agents[i]
    sa = sb = sc = 0.0
    for k, a in enumerate(pop.agents):
        if k == i:
            continue
        sa += a.sigma * coef[k]
        sb += a.mu * coef[k]
        sc += (a.nu * coef[k]) ** 2
    ratio = ai.theta / ai.delta
    A = ratio * sa / n
    B = ratio * sb / n
    C = ratio**2 * sc / n**2
    D = 0.5 * (ai.mu + ai.sigma * A) ** 2 / (ai.nu**2 + ai.sigma**2) \
        - 0.5 * (A**2 + C) - B
    return A, B, C, D


def oracle_mfg_aggregates(dist: TypeDistribution):
    phi = psi = ed = et = 0.0
    for a, w in dist.atoms:
        vol2 = a.sigma**2 + a.nu**2
        phi += w * a.delta * a.mu * a.sigma / vol2
        psi += w * a.theta * a.sigma**2 / vol2
        ed += w * a.delta
        et += w * a.theta
    return phi, psi, ed, et


def oracle_mfg_constants(dist: TypeDistribution, xi0: AgentType):
    phi, psi, _, _ = oracle_mfg_aggregates(dist)
    e_sig = e_mu = 0.0
    for a, w in dist.atoms:
        vol2 = a.sigma**2 + a.nu**2
        coef = (a.delta * a.mu + a.theta * a.sigma * phi / (1.0 - psi)) / vol2
        e_sig += w * a.sigma * coef
        e_mu += w * a.mu * coef
    ratio = xi0.theta / xi0.delta
    A = ratio * e_sig
    B = ratio * e_mu
    D = 0.5 * (xi0.mu + xi0.sigma * A) ** 2 / (xi0.nu**2 + xi0.sigma**2) \
        - 0.5 * A**2 - B
    return A, B, D


# ---------------------------------------------------------------------------
# Quadrature oracles


def oracle_simpson(f, a: float, b: float, n: int = 2000) -> float:
    """Plain composite Simpson for scalar integrands (test-local)."""
    if n % 2:
        n += 1
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(float(x)) for x in xs])
    h = (b - a) / n
    return float(h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum()))


def oracle_piecewise_simpson(f, a: float, b: float, kinks=(), per_segment: int = 64) -> float:
    """Simpson applied per smooth segment between interior kink locations."""
    pts = sorted({a, b, *[k for k in kinks if a < k < b]})
    return sum(
        oracle_simpson(f, lo, hi, per_segment) for lo, hi in zip(pts[:-1], pts[1:])
    )


def oracle_hhat_quadrature(pop: Population, discount, i: int, t: float,
                           horizon: float, kinks=(), per_segment: int = 64,
                           n: int = 4000) -> float:
    """Drift adjustment of agent i by direct time integration.

    Integrates (T+1-s) G_i(s) with G_i assembled from the equilibrium
    investment lines of the competitors, the independent route to the same
    quantity as the closed form.
    """
    n_agents = pop.n
    coef = oracle_pi_coefficients(pop)
    ai = pop.agents[i]

    def integrand(s):
        rem = horizon + 1.0 - s
        sbar = sum(pop.agents[k].sigma * coef[k] * rem
                   for k in range(n_agents) if k != i) / n_agents
        mbar = sum(pop.agents[k].mu * coef[k] * rem
                   for k in range(n_agents) if k != i) / n_agents
        vsq = sum((pop.agents[k].nu * coef[k] * rem) ** 2
                  for k in range(n_agents) if k != i) / n_agents**2
        g = (ai.theta / ai.delta) / rem
        G = (-float(discount.log_value(horizon - s)) / rem
             - 0.5 * (ai.mu + ai.sigma * g * sbar) ** 2 / (ai.nu**2 + ai.sigma**2)
             + g * mbar + 0.5 * g**2 * (sbar**2 + vsq))
        return rem * G

    if kinks:
        total = oracle_piecewise_simpson(integrand, t, horizon, kinks, per_segment)
    else:
        total = oracle_simpson(integrand, t, horizon, n)
    return total / (horizon + 1.0 - t)


def oracle_mfg_hhat_quadrature(dist: TypeDistribution, discount, xi0: AgentType,
                               t: float, horizon: float, kinks=(),
                               per_segment: int = 64, n: int = 4000) -> float:
    """Mean-field drift adjustment by direct time integration."""
    phi, psi, _, _ = oracle_mfg_aggregates(dist)
    e_sig = e_mu = 0.0
    for a, w in dist.atoms:
        vol2 = a.sigma**2 + a.nu**2
        coef = (a.delta * a.mu + a.theta * a.sigma * phi / (1.0 - psi)) / vol2
        e_sig += w * a.sigma * coef
        e_mu += w * a.mu * coef

    def integrand(s):
        rem = horizon + 1.0 - s
        g = (xi0.theta / xi0.delta) / rem
        G = (-float(discount.log_value(horizon - s)) / rem
             - 0.5 * (xi0.mu + xi0.sigma * g * e_sig * rem) ** 2
             / (xi0.nu**2 + xi0.sigma**2)
             + g * e_mu * rem + 0.5 * g**2 * (e_sig * rem) ** 2)
        return rem * G

    if kinks:
        total = oracle_piecewise_simpson(integrand, t, horizon, kinks, per_segment)
    else:
        total = oracle_simpson(integrand, t, horizon, n)
    return total / (horizon + 1.0 - t)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
