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
psi = E[theta sigma^2 / (sigma^2 + nu^2)].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AgentType, TimeGrid, TypeDistribution, ValidationError
from .discount import DiscountFunction
from .nagent import DegenerateFixedPointError

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

_PSI_GUARD = 1.0 - 1e-12


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


def mfg_aggregates(dist: TypeDistribution) -> MFGAggregates:
    """(phi, psi, E[delta], E[theta]) as exact weighted sums over the atoms."""
    w = dist.weights
    delta, theta = dist.field("delta"), dist.field("theta")
    mu, nu, sigma = dist.field("mu"), dist.field("nu"), dist.field("sigma")
    vol2 = sigma**2 + nu**2
    agg = MFGAggregates(
        phi=float(w @ (delta * mu * sigma / vol2)),
        psi=float(w @ (theta * sigma**2 / vol2)),
        e_delta=float(w @ delta),
        e_theta=float(w @ theta),
    )
    if agg.psi >= _PSI_GUARD or agg.e_theta >= _PSI_GUARD:
        raise DegenerateFixedPointError(
            f"mean-field fixed point is degenerate: psi={agg.psi:.17g}, "
            f"E[theta]={agg.e_theta:.17g}"
        )
    return agg


def _atom_coefficients(dist: TypeDistribution) -> np.ndarray:
    """Investment slopes a(xi) for every atom."""
    agg = mfg_aggregates(dist)
    delta, theta = dist.field("delta"), dist.field("theta")
    mu, nu, sigma = dist.field("mu"), dist.field("nu"), dist.field("sigma")
    vol2 = sigma**2 + nu**2
    return (delta * mu + theta * sigma * agg.phi / (1.0 - agg.psi)) / vol2


def _coefficient_for(dist: TypeDistribution, xi: AgentType) -> float:
    agg = mfg_aggregates(dist)
    vol2 = xi.sigma**2 + xi.nu**2
    return (xi.delta * xi.mu + xi.theta * xi.sigma * agg.phi / (1.0 - agg.psi)) / vol2


def _type_constants(dist: TypeDistribution, delta, theta, mu, nu, sigma):
    """Constants (a, b, d) of types given as scalars or as per-atom arrays."""
    w = dist.weights
    coef = _atom_coefficients(dist)
    e_sig = float(w @ (dist.field("sigma") * coef))
    e_mu = float(w @ (dist.field("mu") * coef))
    ratio = theta / delta
    a = ratio * e_sig
    b = ratio * e_mu
    d = 0.5 * (mu + sigma * a) ** 2 / (nu**2 + sigma**2) - 0.5 * a**2 - b
    return a, b, d


def mfg_type_constants(dist: TypeDistribution, xi0: AgentType) -> MFGTypeConstants:
    """Constants (a, b, d) of type ``xi0`` against the population law."""
    a, b, d = _type_constants(dist, xi0.delta, xi0.theta, xi0.mu, xi0.nu, xi0.sigma)
    return MFGTypeConstants(a=a, b=b, d=d)


def mfg_pi_star(dist: TypeDistribution, xi0: AgentType, t, horizon: float):
    """Equilibrium investment of a type-``xi0`` agent (vectorized in t)."""
    return _coefficient_for(dist, xi0) * (horizon + 1.0 - np.asarray(t, dtype=float))


def mfg_hhat(dist: TypeDistribution, d: DiscountFunction, xi0: AgentType, t,
             horizon: float):
    """Drift adjustment of type ``xi0``:

    H(t) = (d/2) [1/(T+1-t) - (T+1-t)]
           - (1/(T+1-t)) * integral_t^T ln lam(T-s) ds.
    """
    const = mfg_type_constants(dist, xi0)
    t = np.asarray(t, dtype=float)
    rem = horizon + 1.0 - t
    return 0.5 * const.d * (1.0 / rem - rem) - d.log_integral(t, horizon) / rem


def effective_delta(dist: TypeDistribution, xi0: AgentType) -> float:
    """Competition-inflated risk tolerance delta + theta E[delta]/(1 - E[theta])."""
    agg = mfg_aggregates(dist)
    return xi0.delta + xi0.theta * agg.e_delta / (1.0 - agg.e_theta)


def mfg_c_star(dist: TypeDistribution, d: DiscountFunction, xi0: AgentType, t,
               x, horizon: float):
    """Equilibrium consumption rate of a type-``xi0`` agent with wealth ``x``."""
    eq = MeanFieldEquilibrium(dist, d, horizon)
    return eq.consumption(xi0, t, x)


class MeanFieldEquilibrium:
    """Evaluator bundling a type law, discount, and horizon.

    Exposes the closed forms for arbitrary query types (not only atoms) and
    the consumption the law induces on average.  With rem = T+1-t and
    L(t) = integral_t^T ln lam(T-s) ds, every consumption intercept has the
    form

        q(t) = A (1/rem - rem) + B (L(t)/rem - ln lam(T-t)),
        A = -(delta d + comp E[delta d]) / 2,   B = delta + comp E[delta],

    with comp = theta / (1 - E[theta]); the per-atom (A, B) are computed once
    here, and they give each atom's mean wealth in closed form.
    """

    def __init__(self, dist: TypeDistribution, discount: DiscountFunction,
                 horizon: float):
        if not horizon > 0:
            raise ValidationError("horizon must be > 0")
        self.dist = dist
        self.discount = discount
        self.horizon = float(horizon)
        self.aggregates = mfg_aggregates(dist)
        self.atom_coefficients = _atom_coefficients(dist)
        # Per-atom constants d(xi); the E[delta H] profile needs them all.
        delta, theta, mu, nu, sigma = (
            dist.field(k) for k in ("delta", "theta", "mu", "nu", "sigma"))
        _, _, atom_d = _type_constants(dist, delta, theta, mu, nu, sigma)
        self._e_delta_d = float(dist.weights @ (delta * atom_d))
        self._atom_ab = self._intercept_constants(delta, theta, atom_d)

    def _intercept_constants(self, delta, theta, d):
        """(A, B) of the intercept q(t) for types (delta, theta, d)."""
        agg = self.aggregates
        comp = theta / (1.0 - agg.e_theta)
        return (-0.5 * (delta * d + comp * self._e_delta_d),
                delta + comp * agg.e_delta)

    def _intercept_curves(self, t):
        """(1/rem - rem, L(t)/rem - ln lam(T-t)), the two shapes of q(t)."""
        t = np.asarray(t, dtype=float)
        rem = self.horizon + 1.0 - t
        lint = self.discount.log_integral(t, self.horizon)
        return (1.0 / rem - rem,
                lint / rem - self.discount.log_value(self.horizon - t))

    def coefficient(self, xi0: AgentType) -> float:
        return _coefficient_for(self.dist, xi0)

    def pi(self, xi0: AgentType, t):
        return self.coefficient(xi0) * (self.horizon + 1.0 - np.asarray(t, dtype=float))

    def hhat(self, xi0: AgentType, t):
        return mfg_hhat(self.dist, self.discount, xi0, t, self.horizon)

    def effective_delta(self, xi0: AgentType) -> float:
        return effective_delta(self.dist, xi0)

    def e_delta_hhat(self, t):
        """E[delta H(t)] over the atoms (exact weighted sum)."""
        t = np.asarray(t, dtype=float)
        rem = self.horizon + 1.0 - t
        lint = self.discount.log_integral(t, self.horizon)
        return (0.5 * self._e_delta_d * (1.0 / rem - rem)
                - self.aggregates.e_delta * lint / rem)

    def intercept(self, xi0: AgentType, t):
        """Consumption intercept q(t) of type ``xi0``:

        q = -delta H(t) - comp E[delta H(t)] - (delta + comp E[delta]) ln lam(T-t).
        """
        a, b = self._intercept_constants(
            xi0.delta, xi0.theta, mfg_type_constants(self.dist, xi0).d)
        bracket, logs = self._intercept_curves(t)
        return a * bracket + b * logs

    def consumption(self, xi0: AgentType, t, x):
        t = np.asarray(t, dtype=float)
        return np.asarray(x, dtype=float) / (self.horizon + 1.0 - t) + self.intercept(xi0, t)

    def atom_intercepts(self, t) -> np.ndarray:
        """q(t) for every atom; shape (n_atoms,) + shape(t)."""
        a, b = self._atom_ab
        bracket, logs = self._intercept_curves(t)
        return np.multiply.outer(a, bracket) + np.multiply.outer(b, logs)

    def mean_wealth(self, grid: TimeGrid, x0: float) -> np.ndarray:
        """Per-atom unconditional mean wealth on the grid, shape (K, m).

        Consumption is affine in wealth with slope 1/rem, so the mean of each
        atom's wealth follows m' = a mu rem - m/rem - q(t), that is
        (m/rem)' = a mu - q/rem.  Since (1/rem)' = 1/rem^2 and
        (L/rem)' = L/rem^2 - ln lam(T-t)/rem, the right side integrates
        exactly:

            m(t)/rem(t) = x0/rem(t0) + a mu (t - t0)
                          - A [(1/rem(t) - 1/rem(t0)) - (t - t0)]
                          - B [L(t)/rem(t) - L(t0)/rem(t0)].
        """
        if grid.T > self.horizon + 1e-12:
            raise ValidationError("grid extends past the equilibrium horizon")
        times = grid.times
        rem = self.horizon + 1.0 - times
        elapsed = times - times[0]
        inv = 1.0 / rem
        lrem = self.discount.log_integral(times, self.horizon) / rem
        a, b = self._atom_ab
        drift = self.atom_coefficients * self.dist.field("mu")
        scaled = (float(x0) * inv[0] + np.multiply.outer(drift, elapsed)
                  - np.multiply.outer(a, inv - inv[0] - elapsed)
                  - np.multiply.outer(b, lrem - lrem[0]))
        return scaled * rem

    def average_consumption(self, grid: TimeGrid, x0: float) -> np.ndarray:
        """E[c(t, X_t)] on the grid for wealth started at ``x0`` at grid.t0."""
        means = self.mean_wealth(grid, x0)
        rem = self.horizon + 1.0 - grid.times
        percap = means / rem[None, :] + self.atom_intercepts(grid.times)
        return self.dist.weights @ percap
