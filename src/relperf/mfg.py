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

import numpy as np

from .core import AgentType, TimeGrid, TypeDistribution, ValidationError, _real, validate_agent
from .discount import DiscountFunction
from .nagent import _Equilibrium, _Row

__all__ = ["MeanFieldEquilibrium"]


def _mfg_law(dist: TypeDistribution):
    """(p, w, s) of a type law: its atoms, its weights and own share s = 0."""
    return dist._params, dist.weights, 0.0


class MeanFieldEquilibrium(_Equilibrium):
    """The mean-field closed form of a type law under a discount and a horizon.

    A key is any valid query type (not only an atom), evaluated against the
    law's expectations computed once here; ``coefficients`` and
    ``intercepts_at`` give the atoms' rows.  With comp = theta / (1 - E[theta]),
    a type's intercept constants are A = -(delta d + comp E[delta d]) / 2 and
    B = delta + comp E[delta], and the atoms' (A, B) also give each atom's
    mean wealth, and so the consumption the law induces on average, in
    closed form.
    """

    def __init__(self, dist: TypeDistribution, discount: DiscountFunction,
                 horizon: float):
        super().__init__(_mfg_law(dist), ("mean-field fixed point", "psi", "E[theta]"),
                         discount, horizon)
        self.dist = dist

    def _row(self, xi0: AgentType) -> _Row:
        if not isinstance(xi0, AgentType):
            raise ValidationError(f"a mean-field key must be an AgentType (got {xi0!r})")
        validate_agent(xi0)
        p, core = xi0.to_dict(), self._core
        a, b, c, d = core.constants(p)
        return _Row(core.slopes(p), a, b, c, d, *core.intercept_constants(p, d))

    def e_delta_hhat(self, t):
        """E[delta H(t)] over the atoms (exact weighted sum)."""
        bracket, lrem, _ = self._curves(t)
        return 0.5 * self._core.e_delta_d * bracket - self._core.e_delta * lrem

    def mean_wealth(self, grid: TimeGrid, x0: float) -> np.ndarray:
        """Per-atom unconditional mean wealth on the grid, shape (K, m), in
        closed form (see ``_Equilibrium._mean_wealth``)."""
        if grid.T > self.horizon + 1e-12:
            raise ValidationError("grid extends past the equilibrium horizon")
        x0 = _real(x0, "x0")
        if not abs(x0) < np.inf:
            raise ValidationError(f"x0 must be finite (got {x0!r})")
        return self._mean_wealth(x0, grid.t0, grid.times, self.dist._params["mu"])

    def average_consumption(self, grid: TimeGrid, x0: float) -> np.ndarray:
        """E[c(t, X_t)] on the grid for wealth started at ``x0`` at grid.t0."""
        means = self.mean_wealth(grid, x0)
        rem = self.horizon + 1.0 - grid.times
        percap = means / rem[None, :] + self.intercepts_at(grid.times)
        return self.dist.weights @ percap
