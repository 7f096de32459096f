"""Closed-form open-loop equilibrium of the n-agent investment-consumption game.

Each of n >= 2 agents with exponential utility of risk tolerance delta
competes through a relative-performance term weighted by theta, trading a
personal stock (drift mu, idiosyncratic volatility nu, common volatility
sigma) and consuming continuously over [0, T] under a general discount
function.  The unique simple equilibrium in deterministic-investment /
affine-consumption strategies is explicit:

    pi_i(t) = a_i * (T + 1 - t),
    a_i     = [delta_i mu_i + theta_i sigma_i phi / (1 - psi)] / w_i,
    w_i     = sigma_i^2 + (1 - theta_i/n) nu_i^2,

    c_i(t, x) = x_i / (T + 1 - t) + q_i(t),

where phi, psi are population averages (see :class:`Aggregates`) and the
intercept q_i collects a per-agent drift adjustment ``hhat`` plus the
discount term.  The mean-field game of :mod:`relperf.mfg` is the
n -> infinity limit of these formulas: both games are evaluated by the one
closed-form core below, and queried through the one evaluator
:class:`_Equilibrium`.
"""

from __future__ import annotations

import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (AgentType, ValidationError, _agent_params, _check_times, _json_section,
                   _real, validate_agent)
from .discount import DiscountFunction

__all__ = [
    "AgentConstants",
    "Aggregates",
    "DegenerateFixedPointError",
    "NAgentEquilibrium",
    "Population",
    "single_stock_h",
    "single_stock_strategy",
]

# Numerical guard: psi < 1 holds for every valid population, but rounded
# tabulated inputs could in principle land on the degenerate case.
_PSI_GUARD = 1.0 - 1e-12


class DegenerateFixedPointError(ArithmeticError):
    """The investment fixed point has no solution (competition feedback >= 1)."""


@dataclass(frozen=True)
class Population:
    """Ordered collection of n >= 2 valid agents."""

    agents: tuple[AgentType, ...]

    def __init__(self, agents: Sequence[AgentType]):
        object.__setattr__(self, "agents", tuple(agents))
        if len(self.agents) < 2:
            raise ValidationError("population needs at least two agents")
        for k, agent in enumerate(self.agents):
            try:
                validate_agent(agent)
            except ValidationError as exc:
                raise ValidationError(f"agent {k}: {exc}") from None

    @property
    def n(self) -> int:
        return len(self.agents)

    def field(self, name: str) -> np.ndarray:
        return np.array([getattr(a, name) for a in self.agents])

    @cached_property
    def _params(self) -> dict[str, np.ndarray]:
        return _agent_params(self.agents)

    def to_dict(self) -> dict:
        return {"agents": [a.to_dict() for a in self.agents]}

    @classmethod
    def from_dict(cls, data) -> "Population":
        with _json_section("population"):
            agents = [AgentType._from_json(item, f"population agent {k}")
                      for k, item in enumerate(data["agents"])]
        return cls(agents)


@dataclass(frozen=True)
class Aggregates:
    """Law averages driving the investment fixed point of either game.

    ``phi`` and ``psi`` are the averages E_w of delta sigma mu / vol and
    theta sigma^2 / vol, with vol = sigma^2 + (1 - theta s) nu^2;
    ``e_delta`` and ``e_theta`` are plain averages of delta and theta.  In
    the n-agent game E_w is the population mean and s = 1/n (the paper's
    phi_n, psi_n, delta_bar and theta_bar); in the mean field it is the
    expectation over the type law and s = 0.
    """

    phi: float
    psi: float
    e_delta: float
    e_theta: float


@dataclass(frozen=True)
class AgentConstants:
    """Constants of one agent or query type, built from competitor exposure.

    ``a``/``b`` are the competitor averages of sigma- and mu-weighted
    investment coefficients scaled by theta/delta, ``c`` is the
    corresponding idiosyncratic sum of squares (nonnegative, vanishing as
    n grows, and 0 in the mean field), and ``d`` combines them into the
    drift rate entering ``hhat``.
    """

    a: float
    b: float
    c: float
    d: float


# Scalars of one agent or query type: investment slope, constants (a, b, c, d)
# and intercept constants (A, B).
_Row = namedtuple("_Row", "coef a b c d A B")


class _ClosedForm:
    """Closed-form core shared by the n-agent game and its mean-field limit.

    Built from per-type parameters ``p`` (arrays keyed by field name), law
    weights ``w`` and the share ``s`` of a type's own term in its competitor
    sums E_w[x] - s x: the n-agent game uses w = s = 1/n, the mean-field
    game the law's weights and s = 0.  With vol = sigma^2 + (1 - theta s) nu^2,

        phi = E_w[delta sigma mu / vol],   psi = E_w[theta sigma^2 / vol],
        coef = (delta mu + theta sigma phi / (1 - psi)) / vol,

    the investment slope, and ``constants`` gives (a, b, c, d).  Every
    consumption intercept is A (1/rem - rem) + B (L/rem - ln lam(T-t)) with
    A = -(delta d + comp E_w[delta d])/2, B = delta + comp E_w[delta] and
    comp = theta / (1 - E_w[theta]).  The methods also take the parameters of
    types outside the law (scalars), against the law's expectations.
    """

    def __init__(self, p, w: np.ndarray, s: float, names: tuple[str, str, str]):
        self.s = s
        delta, theta, mu, sigma = p["delta"], p["theta"], p["mu"], p["sigma"]
        vol = self._vol(p)
        self.aggregates = tuple(float(w @ x) for x in (
            delta * sigma * mu / vol, theta * sigma**2 / vol, delta, theta))
        self.phi, self.psi, self.e_delta, self.e_theta = self.aggregates
        if self.psi >= _PSI_GUARD or self.e_theta >= _PSI_GUARD:
            what, psi_name, theta_name = names
            raise DegenerateFixedPointError(
                f"{what} is degenerate: {psi_name}={self.psi:.17g}, "
                f"{theta_name}={self.e_theta:.17g}"
            )
        self.coef = self.slopes(p)
        self.e_sig, self.e_mu, self.e_nu2 = (
            float(w @ x) for x in (sigma * self.coef, mu * self.coef,
                                   (p["nu"] * self.coef) ** 2))
        self.a, self.b, self.c, self.d = self.constants(p)
        self.e_delta_d = float(w @ (delta * self.d))
        self.A, self.B = self.intercept_constants(p, self.d)

    def _vol(self, p):
        return p["sigma"] ** 2 + (1.0 - p["theta"] * self.s) * p["nu"] ** 2

    def slopes(self, p):
        """Investment slopes a(xi) of pi(t) = a(xi) (T+1-t)."""
        return (p["delta"] * p["mu"]
                + p["theta"] * p["sigma"] * self.phi / (1.0 - self.psi)) / self._vol(p)

    def constants(self, p):
        """(a, b, c, d); c vanishes in the mean-field limit s = 0."""
        coef, s = self.slopes(p), self.s
        ratio = p["theta"] / p["delta"]
        a = ratio * (self.e_sig - s * p["sigma"] * coef)
        b = ratio * (self.e_mu - s * p["mu"] * coef)
        c = ratio**2 * s * (self.e_nu2 - s * (p["nu"] * coef) ** 2)
        vol2 = p["nu"] ** 2 + p["sigma"] ** 2
        d = 0.5 * (p["mu"] + p["sigma"] * a) ** 2 / vol2 - 0.5 * (a**2 + c) - b
        return a, b, c, d

    def intercept_constants(self, p, d):
        """(A, B) of the consumption intercept; B = delta + comp E_w[delta] is
        the competition-inflated risk tolerance."""
        comp = p["theta"] / (1.0 - self.e_theta)
        return (-0.5 * (p["delta"] * d + comp * self.e_delta_d),
                p["delta"] + p["theta"] * self.e_delta / (1.0 - self.e_theta))


class _Equilibrium:
    """The closed form of one game, evaluated in time under a discount and a
    horizon T.

    Every query is defined here once.  A game passes its law (p, w, s) to
    the closed-form core and supplies ``_row(key)``, the ``_Row`` of scalars
    of one key: an agent index in the n-agent game, a query type in the
    mean field.  With rem = T+1-t, the keyed queries are

        pi(key, t) = coefficient(key) rem,
        hhat(key, t) = (d/2) (1/rem - rem) - L(t)/rem,
        intercept(key, t) = A (1/rem - rem) + B (L(t)/rem - ln lam(T-t)),
        consumption(key, t, x) = x/rem + intercept(key, t),

    where L(t) = integral_t^T ln lam(T-s) ds and B = effective_delta(key).
    ``aggregates``, ``coefficients`` and ``intercepts_at`` give the same
    for every row of the law at once.  Times must lie in [0, T].
    """

    def __init__(self, law, names: tuple[str, str, str], discount: DiscountFunction,
                 horizon: float):
        horizon = _real(horizon, "horizon")
        if not 0 < horizon < np.inf:
            raise ValidationError(f"horizon must be finite and > 0 (got {horizon!r})")
        self.discount = discount
        self.horizon = horizon
        self._core = _ClosedForm(*law, names)
        self.aggregates = Aggregates(*self._core.aggregates)
        self.coefficients = self._core.coef

    def coefficient(self, key) -> float:
        """Investment slope of ``key``: pi(t) = coefficient (T+1-t)."""
        return self._row(key).coef

    def constants(self, key) -> AgentConstants:
        return AgentConstants(*self._row(key)[1:5])

    def effective_delta(self, key) -> float:
        """Competition-inflated risk tolerance delta + theta E[delta]/(1 - E[theta])."""
        return self._row(key).B

    def pi(self, key, t):
        return self._lines(self._row(key).coef, t)

    def hhat(self, key, t):
        """Drift adjustment (d/2) [1/(T+1-t) - (T+1-t)] - L(t)/(T+1-t)."""
        d = self._row(key).d
        bracket, lrem, _ = self._curves(t)
        return 0.5 * np.multiply.outer(d, bracket) - lrem

    def intercept(self, key, t):
        row = self._row(key)
        return self._intercepts(row.A, row.B, t)

    def consumption(self, key, t, x):
        """Consumption x/(T+1-t) + q(t) of ``key`` with wealth ``x``."""
        t = np.asarray(t, dtype=float)
        return np.asarray(x, dtype=float) / (self.horizon + 1.0 - t) + self.intercept(key, t)

    def intercepts_at(self, t) -> np.ndarray:
        """Intercepts q(t) of every row of the law; shape (rows,) + shape(t)."""
        return self._intercepts(self._core.A, self._core.B, t)

    def _check_grid(self, grid) -> None:
        if abs(grid.T - self.horizon) > 1e-12:
            raise ValidationError("grid horizon must match the equilibrium horizon")

    def _lines(self, coef, t) -> np.ndarray:
        """Investment coef (T+1-t); shape shape(t) + shape(coef)."""
        return np.multiply.outer(self.horizon + 1.0 - _check_times(t, 0.0, self.horizon),
                                 coef)

    def _curves(self, t):
        """(1/rem - rem, L(t)/rem, ln lam(T-t)) with rem = T+1-t and
        L(t) = integral_t^T ln lam(T-s) ds."""
        t = _check_times(t, 0.0, self.horizon)
        rem = self.horizon + 1.0 - t
        return (1.0 / rem - rem, self.discount.log_integral(t, self.horizon) / rem,
                self.discount.log_value(self.horizon - t))

    def _intercepts(self, a, b, t):
        """A (1/rem - rem) + B (L/rem - ln lam(T-t)); shape shape(A) + shape(t)."""
        bracket, lrem, loglam = self._curves(t)
        return np.multiply.outer(a, bracket) + np.multiply.outer(b, lrem - loglam)

    def _sample(self, times: np.ndarray, rows=slice(None)):
        """(pi, q, 1/rem) of the core's ``rows`` on the grid ``times``: the
        investments coef rem and intercepts (rows, m), and the own slope (m,)."""
        rem = self.horizon + 1.0 - times
        core = self._core
        return (np.multiply.outer(core.coef[rows], rem),
                self._intercepts(core.A[rows], core.B[rows], times), 1.0 / rem)

    def _mean_wealth(self, x0, t0: float, t, mu):
        """Closed-form mean wealth at times ``t`` of the core's rows (slopes
        coef, intercept constants A, B) started at ``x0`` at ``t0``, with
        drifts ``mu``; shape (rows, len(t)).  With consumption slope 1/rem,
        (m/rem)' = coef mu - q/rem, and (1/rem)' = 1/rem^2, (L/rem)' = L/rem^2
        - ln lam(T-t)/rem, so the mean, x0 at t = t0 exactly, is

            m(t) = x0 rem(t)/rem(t0) + rem(t) [coef mu (t - t0)
                   - A ((1/rem(t) - 1/rem(t0)) - (t - t0))
                   - B (L(t)/rem(t) - L(t0)/rem(t0))].
        """
        ts = np.append(float(t0), t)  # t0 first: equal times give equal curves
        rem = self.horizon + 1.0 - ts
        elapsed, inv = ts - ts[0], 1.0 / rem
        lrem = self.discount.log_integral(ts, self.horizon) / rem
        core = self._core
        bracket = (np.multiply.outer(core.coef * mu, elapsed)
                   - np.multiply.outer(core.A, inv - inv[0] - elapsed)
                   - np.multiply.outer(core.B, lrem - lrem[0]))
        out = np.multiply.outer(x0, rem / rem[0]) + bracket * rem
        return out[:, 1:]


def _nagent_law(pop: Population):
    """(p, w, s) of n agents: weights w = 1/n and own share s = 1/n."""
    return pop._params, np.full(pop.n, 1.0 / pop.n), 1.0 / pop.n


def single_stock_h(mu: float, sigma: float, d: DiscountFunction, t, horizon: float):
    """Common intercept profile of the single-stock equilibrium.

    H(t) = (mu/(2 sigma))^2 [(T+1-t) - 1/(T+1-t)]
           + (1/(T+1-t)) * integral_t^T ln lam(T-s) ds.
    """
    if not sigma > 0:
        raise ValueError("single-stock formulas require sigma > 0")
    t = np.asarray(t, dtype=float)
    rem = horizon + 1.0 - t
    return (0.5 * mu / sigma) ** 2 * (rem - 1.0 / rem) + d.log_integral(t, horizon) / rem


@dataclass(frozen=True)
class SingleStockPolicy:
    """Investment level, consumption slope, and consumption intercept."""

    pi: float
    c_slope: float
    c_intercept: float

    def consumption(self, x) -> float:
        return self.c_slope * x + self.c_intercept


def single_stock_strategy(delta: float, theta: float, delta_bar: float,
                          theta_bar: float, mu: float, sigma: float,
                          d: DiscountFunction, t: float,
                          horizon: float) -> SingleStockPolicy:
    """Closed-form policy when all agents trade one common stock (nu = 0).

    The competition-inflated risk tolerance delta_hat = delta +
    theta delta_bar / (1 - theta_bar) scales both the investment line
    (mu/sigma^2) delta_hat (T+1-t) and the consumption intercept
    delta_hat (H(t) - ln lam(T-t)).
    """
    if not sigma > 0:
        raise ValueError("single-stock formulas require sigma > 0")
    if theta_bar >= 1.0:
        raise DegenerateFixedPointError("theta_bar must be < 1")
    delta_hat = delta + theta * delta_bar / (1.0 - theta_bar)
    rem = horizon + 1.0 - t
    hh = float(single_stock_h(mu, sigma, d, t, horizon))
    log_lam = float(d.log_value(horizon - t))
    return SingleStockPolicy(
        pi=delta_hat * mu / sigma**2 * rem,
        c_slope=1.0 / rem,
        c_intercept=delta_hat * (hh - log_lam),
    )


class NAgentEquilibrium(_Equilibrium):
    """The n-agent closed form of a population under a discount and a horizon.

    A key is an agent index ``i`` in [0, n), which reads row ``i`` of the
    law's precomputed arrays.  Besides the queries of :class:`_Equilibrium`
    it implements the strategy interface (``pi_at`` / ``consumption_at``)
    used by the simulator, exactly at any time.
    """

    def __init__(self, pop: Population, discount: DiscountFunction, horizon: float):
        super().__init__(_nagent_law(pop),
                         ("investment/consumption fixed point", "psi_n", "theta_bar"),
                         discount, horizon)
        self.pop = pop

    @property
    def n_agents(self) -> int:
        return self.pop.n

    def _row(self, i) -> _Row:
        n, core = self.pop.n, self._core
        if isinstance(i, bool) or not isinstance(i, numbers.Integral) or not 0 <= i < n:
            raise IndexError(f"agent index {i} out of range for n={n}")
        return _Row(*(float(x[i]) for x in (core.coef, core.a, core.b, core.c, core.d,
                                            core.A, core.B)))

    # Strategy interface (exact closed forms).

    def pi_at(self, times) -> np.ndarray:
        return self._lines(self.coefficients, times)

    def consumption_at(self, times):
        """Class form ``(labels, own, off, q)`` of the consumption: one class,
        slope 1/(T+1-t) on the agent's own wealth and none on the others'."""
        times = np.asarray(times, dtype=float)
        own = np.multiply.outer(1.0 / (self.horizon + 1.0 - times), np.ones(self.pop.n))
        return (np.zeros(self.pop.n, dtype=int), own, np.zeros(times.shape + (1, 1)),
                self.intercepts_at(times).T.copy())
