"""Analytic identity checks tying the closed forms to their derivation.

The equilibrium is built from an exponential value-function ansatz
V_i(t, x, y) = (1/delta_i)(1 - theta_i/n) exp(f_i(t) x + g_i(t) y + h_i(t)),
whose coefficient functions :func:`ansatz_for` gives, and from two
first-order conditions linking the adjoint process to the optimal investment
and consumption.  Their residuals vanish to round-off along the closed-form
equilibrium and grow when the strategy is perturbed, which makes them a
sharp self-test of the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .nagent import NAgentEquilibrium

__all__ = [
    "AnsatzFG",
    "ansatz_for",
    "foc_residuals",
]


@dataclass(frozen=True)
class AnsatzFG:
    """Coefficient functions of the exponential value-function ansatz.

    f(t) = -(1/delta)(1 - theta/n) / (T+1-t),
    g(t) = (theta/delta) / (T+1-t),
    h(t) = the per-agent drift adjustment evaluated along the equilibrium.
    """

    f: Callable[[float], float]
    g: Callable[[float], float]
    h: Callable[[float], float]
    f_terminal: float
    g_terminal: float


def ansatz_for(eq: NAgentEquilibrium, i: int) -> AnsatzFG:
    """Ansatz coefficients of agent ``i`` under the given equilibrium."""
    agent = eq.pop.agents[i]
    n = eq.pop.n
    T = eq.horizon
    own = 1.0 - agent.theta / n

    def f(t):
        return -(own / agent.delta) / (T + 1.0 - np.asarray(t, dtype=float))

    def g(t):
        return (agent.theta / agent.delta) / (T + 1.0 - np.asarray(t, dtype=float))

    return AnsatzFG(f=f, g=g, h=lambda t: eq.hhat(i, t),
                    f_terminal=-own / agent.delta,
                    g_terminal=agent.theta / agent.delta)


def _split_state(eq: NAgentEquilibrium, i: int, x: np.ndarray):
    """Own wealth and the competitors' n-scaled average from a state vector."""
    x = np.asarray(x, dtype=float)
    own = x[..., i]
    cross = (x.sum(axis=-1) - own) / eq.pop.n
    return own, cross


def foc_residuals(eq: NAgentEquilibrium, i: int, t: float, x,
                  pi_scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Relative first-order-condition residuals at states ``x`` (last axis n).

    Builds the adjoint value p(t) from the ansatz of agent ``i`` and checks

      investment:  mu p + nu q_own + sigma q_common = 0,
      consumption: lam(T-t) p = (1/delta)(1-theta/n)
                   exp(-(1/delta)(1-theta/n) c_i + (theta/delta) cbar_i),

    both normalized by |p(t)| so the scale of the exponential drops out.
    ``pi_scale`` multiplies agent i's investment to expose the sensitivity
    of the investment condition (1.0 reproduces the equilibrium).
    """
    agent = eq.pop.agents[i]
    n = eq.pop.n
    ansatz = ansatz_for(eq, i)
    f = float(ansatz.f(t))
    g = float(ansatz.g(t))
    vol2 = agent.nu**2 + agent.sigma**2

    pi_i = pi_scale * float(eq.pi(i, t))
    sig_avg = float(
        sum(eq.coefficients[k] * eq.pop.agents[k].sigma for k in range(n) if k != i)
        * (eq.horizon + 1.0 - t) / n
    )
    # q_own/p = f nu pi, q_common/p = f sigma pi + g sig_avg.
    r_invest = abs(agent.mu + vol2 * f * pi_i + agent.sigma * g * sig_avg)
    r_invest = r_invest / abs(agent.mu)  # scale against the leading term

    x = np.asarray(x, dtype=float)
    own_x, cross_x = _split_state(eq, i, x)
    h = float(ansatz.h(t))
    log_p_exp = f * own_x + g * cross_x + h  # exponent of p over its prefactor

    icpts = eq.intercepts_at(t)
    rem = eq.horizon + 1.0 - t
    c_all = x / rem + icpts
    own_c = c_all[..., i]
    cross_c = (c_all.sum(axis=-1) - own_c) / n
    rhs_exp = ansatz.f_terminal * own_c + ansatz.g_terminal * cross_c
    log_lam = float(eq.discount.log_value(eq.horizon - t))
    # residual / |lam p| = |1 - exp(rhs_exp - log_p_exp - log_lam)|
    r_consume = np.abs(-np.expm1(rhs_exp - log_p_exp - log_lam))
    return np.broadcast_to(np.asarray(r_invest), r_consume.shape).copy(), r_consume

