"""Mean-field limit of the competitive investment-consumption game.

With a continuum of agents whose parameter vector xi = (delta, theta, mu,
nu, sigma) follows a finite discrete type law, the unique simple equilibrium
mirrors the n-agent closed form with population averages replaced by exact
expectations over the types:

    pi(t)  = [delta mu / (sigma^2 + nu^2)
              + theta sigma / (sigma^2 + nu^2) * phi / (1 - psi)] (T + 1 - t),
    c(t,x) = x / (T + 1 - t) - delta H(t)
             - theta E[delta H(t)] / (1 - E[theta])
             - (delta + theta E[delta] / (1 - E[theta])) ln lam(T - t),

where phi = E[delta mu sigma / (sigma^2 + nu^2)] and
psi = E[theta sigma^2 / (sigma^2 + nu^2)].  These are the n-agent formulas
with the population averages taken over the law and the agent's own share
1/n set to 0, and they are evaluated by the same closed-form core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AgentType, TimeGrid, TypeDistribution, ValidationError
from .discount import DiscountFunction
from .nagent import _ClosedForm, _Equilibrium, _pi_lines

__all__ = [
    "MFGAggregates",
    "MFGTypeConstants",
    "MeanFieldEquilibrium",
    "effective_delta",
    "mfg_aggregates",
    "mfg_c_star",
    "mfg_hhat",
    "mfg_pi_star",
    "mfg_type_constants",
]


@dataclass(frozen=True)
class MFGAggregates:
    """Scalar expectations driving the mean-field fixed point."""

    phi: float
    psi: float
    e_delta: float
    e_theta: float


@dataclass(frozen=True)
class MFGTypeConstants:
    """Constants (a, b, d) of a fixed type; the idiosyncratic sum of squares
    present in the n-agent game vanishes in the limit."""

    a: float
    b: float
    d: float


def _mfg_law(dist: TypeDistribution):
    """(p, w, s) of a type law: its atoms, its weights and own share s = 0."""
    return dist._params, dist.weights, 0.0


def _mfg_core(dist: TypeDistribution) -> _ClosedForm:
    return _ClosedForm(*_mfg_law(dist), ("mean-field fixed point", "psi", "E[theta]"))


def mfg_aggregates(dist: TypeDistribution) -> MFGAggregates:
    """(phi, psi, E[delta], E[theta]) as exact weighted sums over the atoms."""
    return MFGAggregates(*_mfg_core(dist).aggregates)


def mfg_type_constants(dist: TypeDistribution, xi0: AgentType) -> MFGTypeConstants:
    """Constants (a, b, d) of type ``xi0`` against the population law."""
    a, b, _, d = _mfg_core(dist).constants(xi0.to_dict())
    return MFGTypeConstants(a=a, b=b, d=d)


def mfg_pi_star(dist: TypeDistribution, xi0: AgentType, t, horizon: float):
    """Equilibrium investment of a type-``xi0`` agent (vectorized in t)."""
    return _pi_lines(horizon, _mfg_core(dist).slopes(xi0.to_dict()), t)


def mfg_hhat(dist: TypeDistribution, d: DiscountFunction, xi0: AgentType, t,
             horizon: float):
    """Drift adjustment of type ``xi0``:

    H(t) = (d/2) [1/(T+1-t) - (T+1-t)]
           - (1/(T+1-t)) * integral_t^T ln lam(T-s) ds.
    """
    return MeanFieldEquilibrium(dist, d, horizon).hhat(xi0, t)


def effective_delta(dist: TypeDistribution, xi0: AgentType) -> float:
    """Competition-inflated risk tolerance delta + theta E[delta]/(1 - E[theta])."""
    return _mfg_core(dist).effective_delta(xi0.to_dict())


def mfg_c_star(dist: TypeDistribution, d: DiscountFunction, xi0: AgentType, t,
               x, horizon: float):
    """Equilibrium consumption rate of a type-``xi0`` agent with wealth ``x``."""
    return MeanFieldEquilibrium(dist, d, horizon).consumption(xi0, t, x)


class MeanFieldEquilibrium(_Equilibrium):
    """Evaluator bundling a type law, discount, and horizon.

    Exposes the closed forms for arbitrary query types (not only atoms),
    against the law's expectations computed once here, and the consumption
    the law induces on average.  With rem = T+1-t and
    L(t) = integral_t^T ln lam(T-s) ds, every consumption intercept has the
    form

        q(t) = A (1/rem - rem) + B (L(t)/rem - ln lam(T-t)),
        A = -(delta d + comp E[delta d]) / 2,   B = delta + comp E[delta],

    with comp = theta / (1 - E[theta]); the per-atom (A, B) also give each
    atom's mean wealth in closed form.
    """

    def __init__(self, dist: TypeDistribution, discount: DiscountFunction,
                 horizon: float):
        super().__init__(discount, horizon)
        self.dist = dist
        self._core = _mfg_core(dist)
        self.aggregates = MFGAggregates(*self._core.aggregates)
        self.atom_coefficients = self._core.coef

    def coefficient(self, xi0: AgentType) -> float:
        return self._core.slopes(xi0.to_dict())

    def pi(self, xi0: AgentType, t):
        return _pi_lines(self.horizon, self.coefficient(xi0), t)

    def hhat(self, xi0: AgentType, t):
        return self._hhat(self._core.constants(xi0.to_dict())[3], t)

    def effective_delta(self, xi0: AgentType) -> float:
        return self._core.effective_delta(xi0.to_dict())

    def e_delta_hhat(self, t):
        """E[delta H(t)] over the atoms (exact weighted sum)."""
        bracket, lrem, _ = self._curves(t)
        return 0.5 * self._core.e_delta_d * bracket - self._core.e_delta * lrem

    def intercept(self, xi0: AgentType, t):
        """Consumption intercept q(t) of type ``xi0``:

        q = -delta H(t) - comp E[delta H(t)] - (delta + comp E[delta]) ln lam(T-t).
        """
        p = xi0.to_dict()
        ab = self._core.intercept_constants(p, self._core.constants(p)[3])
        return self._intercepts(*ab, t)

    def atom_intercepts(self, t) -> np.ndarray:
        """q(t) for every atom; shape (n_atoms,) + shape(t)."""
        return self._intercepts(self._core.A, self._core.B, t)

    def mean_wealth(self, grid: TimeGrid, x0: float) -> np.ndarray:
        """Per-atom unconditional mean wealth on the grid, shape (K, m), in
        closed form (see ``_Equilibrium._mean_wealth``)."""
        if grid.T > self.horizon + 1e-12:
            raise ValidationError("grid extends past the equilibrium horizon")
        return self._mean_wealth(float(x0), grid.t0, grid.times, self.dist._params["mu"])

    def average_consumption(self, grid: TimeGrid, x0: float) -> np.ndarray:
        """E[c(t, X_t)] on the grid for wealth started at ``x0`` at grid.t0."""
        means = self.mean_wealth(grid, x0)
        rem = self.horizon + 1.0 - grid.times
        percap = means / rem[None, :] + self.atom_intercepts(grid.times)
        return self.dist.weights @ percap
