"""Best-response maps and Picard iteration for the strategy fixed points.

Given a full strategy profile (deterministic investments plus affine
consumption rules sampled on a time grid), each agent's optimal consistent
reply is again of that form and is available in closed form up to one time
integral.  Iterating the simultaneous best-response map from any starting
profile provides an independent numerical route to the equilibrium, which
must agree with the closed-form formulas of :mod:`relperf.nagent` and
:mod:`relperf.mfg`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import TimeGrid, TypeDistribution, ValidationError
from .discount import DiscountFunction
from .mfg import MeanFieldEquilibrium
from .nagent import NAgentEquilibrium, Population

__all__ = [
    "GridStrategyN",
    "IterationReport",
    "MFGridStrategy",
    "best_response_mfg",
    "best_response_nagent",
    "best_response_profile",
    "fixed_point_mfg",
    "fixed_point_nagent",
    "response_h",
]

# Simpson panels per grid interval for the reply-consumption time integral.
_QUAD_PANELS = 2


@dataclass
class IterationReport:
    """Record of one Picard run: per-sweep sup-norm changes and the outcome."""

    iterations: int
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def contraction(self) -> float:
        """Observed contraction: the last residual ratio (0.0 before two sweeps)."""
        hist = self.residual_history
        return hist[-1] / hist[-2] if len(hist) > 1 else 0.0

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "residual_history": self.residual_history,
            "contraction": self.contraction,
            "converged": self.converged,
        }


def _sup_gap(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| through a single temporary."""
    gap = np.subtract(a, b)
    return float(np.abs(gap, out=gap).max())


@dataclass
class GridStrategyN:
    """Strategy profile of n agents sampled on a common grid.

    ``pi[i]`` holds agent i's investment at the grid nodes (linear
    interpolation between nodes), ``p[i, k]`` the consumption coefficient on
    agent k's wealth, and ``q[i]`` the consumption intercept.
    """

    grid: TimeGrid
    pi: np.ndarray  # (n, m)
    p: np.ndarray   # (n, n, m)
    q: np.ndarray   # (n, m)

    def __post_init__(self):
        m = self.grid.n_points
        n = self.pi.shape[0]
        if self.pi.shape != (n, m) or self.p.shape != (n, n, m) or self.q.shape != (n, m):
            raise ValidationError("strategy arrays do not match the grid")
        if not (np.all(np.isfinite(self.pi)) and np.all(np.isfinite(self.p))
                and np.all(np.isfinite(self.q))):
            raise ValidationError("strategy samples must be finite")

    @property
    def n_agents(self) -> int:
        return self.pi.shape[0]

    @classmethod
    def zeros(cls, grid: TimeGrid, n: int) -> "GridStrategyN":
        m = grid.n_points
        return cls(grid, np.zeros((n, m)), np.zeros((n, n, m)), np.zeros((n, m)))

    @classmethod
    def from_equilibrium(cls, eq: NAgentEquilibrium, grid: TimeGrid) -> "GridStrategyN":
        times = grid.times
        n, m = eq.n_agents, grid.n_points
        pi = eq.pi_at(times).T.copy()
        p = np.zeros((n, n, m))
        p[np.arange(n), np.arange(n)] = 1.0 / (eq.horizon + 1.0 - times)
        q = eq.intercepts_at(times)
        return cls(grid, pi, p, np.asarray(q))

    def pi_at(self, times) -> np.ndarray:
        """(len(times), n) investments by linear interpolation."""
        times = np.asarray(times, dtype=float)
        out = np.empty((times.size, self.n_agents))
        for i in range(self.n_agents):
            out[:, i] = np.interp(times, self.grid.times, self.pi[i])
        return out

    def consumption_at(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(P, q) with P (len, n, n) and q (len, n) by linear interpolation."""
        times = np.asarray(times, dtype=float)
        n = self.n_agents
        P = np.empty((times.size, n, n))
        q = np.empty((times.size, n))
        for i in range(n):
            q[:, i] = np.interp(times, self.grid.times, self.q[i])
            for k in range(n):
                P[:, i, k] = np.interp(times, self.grid.times, self.p[i, k])
        return P, q

    def sup_distance(self, other: "GridStrategyN") -> float:
        return max(_sup_gap(self.pi, other.pi), _sup_gap(self.p, other.p),
                   _sup_gap(self.q, other.q))

    def max_cross_coefficient(self) -> float:
        """Largest |p[i,k]| with k != i (zero for simple strategies)."""
        mask = ~np.eye(self.n_agents, dtype=bool)
        return float(np.abs(self.p[mask]).max())


def _quad_layout(times: np.ndarray, panels: int = _QUAD_PANELS):
    """Per-interval Simpson nodes/weights (points shape (m-1, 2*panels+1))."""
    k = 2 * panels
    offs = np.linspace(0.0, 1.0, k + 1)
    pts = times[:-1, None] + np.diff(times)[:, None] * offs[None, :]
    w = np.ones(k + 1)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    h = np.diff(times) / k
    return pts, w, h


def _right_integrals(vals: np.ndarray, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Reverse-cumulative Simpson integrals; vals shape (..., m-1, len(w))."""
    seg = h / 3.0 * (vals @ w)
    out = np.zeros(seg.shape[:-1] + (seg.shape[-1] + 1,))
    out[..., :-1] = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
    return out


def _interp_rows(s: np.ndarray, times: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Linear interpolation of every row of ``rows`` (sampled on ``times``) at s."""
    j = np.clip(np.searchsorted(times, s, side="right") - 1, 0, times.size - 2)
    frac = (s - times[j]) / (times[j + 1] - times[j])
    return rows[:, j] + (rows[:, j + 1] - rows[:, j]) * frac


def _reply_h(discount: DiscountFunction, grid: TimeGrid,
             types: Population | TypeDistribution, aggregates) -> np.ndarray:
    """Reply intercept profiles h(t) = (1/(T+1-t)) integral_t^T (T+1-s) G(s) ds.

    One row per agent or atom of ``types``.  ``aggregates(s)`` gives the
    competitor terms at the quadrature points s, each broadcastable to
    (rows, len(s)): the average sigma-weighted investment sbar, the
    mu-weighted mbar and the second moment sbar^2 + vbar, where vbar is the
    idiosyncratic variance (zero in the mean-field limit).
    """
    times, T = grid.times, grid.T
    delta, theta, mu, nu, sigma = (
        types.field(k)[:, None] for k in ("delta", "theta", "mu", "nu", "sigma"))
    pts, w, h = _quad_layout(times)
    s = pts.ravel()
    rem_s = T + 1.0 - s
    sbar, mbar, second = aggregates(s)
    g = (theta / delta) / rem_s
    G = (
        -discount.log_value(T - s) / rem_s
        - 0.5 * (mu + sigma * g * sbar) ** 2 / (nu**2 + sigma**2)
        + g * mbar
        + 0.5 * g**2 * second
    )
    integrals = _right_integrals((rem_s * G).reshape((-1,) + pts.shape), w, h)
    return integrals / (T + 1.0 - times)


def _response_h_all(pop: Population, discount: DiscountFunction,
                    strategy: GridStrategyN) -> np.ndarray:
    """Reply intercept profiles h_i(t) for all agents, shape (n, m).

    G_i aggregates the competitors' sampled investments (linearly
    interpolated between nodes), excluding agent i's own, over n.
    """
    n = strategy.n_agents
    p = pop._params
    mu, nu, sigma = p["mu"], p["nu"], p["sigma"]

    def aggregates(s):
        pi_s = _interp_rows(s, strategy.grid.times, strategy.pi)
        sig_pi = sigma[:, None] * pi_s
        mu_pi = mu[:, None] * pi_s
        nu_pi2 = (nu[:, None] * pi_s) ** 2
        sbar = (sig_pi.sum(0) - sig_pi) / n
        mbar = (mu_pi.sum(0) - mu_pi) / n
        vbar = (nu_pi2.sum(0) - nu_pi2) / n**2
        return sbar, mbar, sbar**2 + vbar

    return _reply_h(discount, strategy.grid, pop, aggregates)


def response_h(pop: Population, discount: DiscountFunction,
               strategy: GridStrategyN, i: int) -> np.ndarray:
    """Reply intercept profile h_i(t) of agent ``i`` on the strategy grid."""
    return _response_h_all(pop, discount, strategy)[i]


def best_response_profile(pop: Population, discount: DiscountFunction,
                          strategy: GridStrategyN) -> GridStrategyN:
    """Simultaneous best reply of every agent to the given profile."""
    if strategy.n_agents != pop.n:
        raise ValidationError("strategy and population sizes differ")
    grid = strategy.grid
    times = grid.times
    T = grid.T
    n = pop.n
    p = pop._params
    delta, theta = p["delta"], p["theta"]
    mu, nu, sigma = p["mu"], p["nu"], p["sigma"]
    rem = T + 1.0 - times
    own = 1.0 - theta / n
    couple = theta / own

    sig_pi = sigma[:, None] * strategy.pi
    sbar = (sig_pi.sum(0) - sig_pi) / n
    new_pi = (np.multiply.outer(delta * mu, rem) + (theta * sigma)[:, None] * sbar) / (
        ((nu**2 + sigma**2) * own)[:, None])

    # With column sums P_k = sum_j p[j, k]: new_p[i, k] is
    # (couple_i / n) (P_k - p[i, k] - 1/rem) off the diagonal and
    # (couple_i / n) (P_i - p[i, i]) + 1/rem on it.
    scale = (couple / n)[:, None]
    p_tot = strategy.p.sum(axis=0)
    new_p = np.subtract((p_tot - 1.0 / rem)[None], strategy.p)
    new_p *= scale[:, :, None]
    diag = np.arange(n)
    new_p[diag, diag] = scale * (p_tot - strategy.p[diag, diag]) + 1.0 / rem

    h_all = _response_h_all(pop, discount, strategy)
    loglam = discount.log_value(T - times)
    q = strategy.q
    new_q = ((-delta / own)[:, None] * (h_all + loglam)
             + couple[:, None] * (q.sum(axis=0) - q) / n)
    return GridStrategyN(grid, new_pi, new_p, new_q)


def best_response_nagent(pop: Population, discount: DiscountFunction,
                         strategy: GridStrategyN, i: int):
    """Agent ``i``'s best reply (pi_i, p_i, q_i) on the strategy grid."""
    if not 0 <= i < pop.n:
        raise IndexError(f"agent index {i} out of range for n={pop.n}")
    reply = best_response_profile(pop, discount, strategy)
    return reply.pi[i], reply.p[i], reply.q[i]


def fixed_point_nagent(pop: Population, discount: DiscountFunction,
                       init: GridStrategyN, tol: float = 1e-10,
                       max_iter: int = 500) -> tuple[GridStrategyN, IterationReport]:
    """Picard iteration of the simultaneous best-response map.

    Stops when the sup-norm change of one sweep drops to ``tol``;
    non-convergence is reported through the flag, not raised.
    """
    if not tol > 0:
        raise ValidationError("tol must be > 0")
    current = init
    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new = best_response_profile(pop, discount, current)
        res = new.sup_distance(current)
        history.append(res)
        current = new
        if res <= tol:
            converged = True
            break
    return current, IterationReport(iterations, history, converged)


@dataclass
class MFGridStrategy:
    """Per-atom strategy for the mean-field game, sampled on a grid.

    The own-wealth consumption slope ``p1`` is shared across types (as the
    strategy class requires); the average-wealth coefficient ``p2`` and the
    intercept ``q`` are per atom, as is the investment ``pi``.
    """

    grid: TimeGrid
    dist: TypeDistribution
    pi: np.ndarray   # (K, m)
    p1: np.ndarray   # (m,)
    p2: np.ndarray   # (K, m)
    q: np.ndarray    # (K, m)

    def __post_init__(self):
        K, m = self.dist.n_atoms, self.grid.n_points
        if (self.pi.shape != (K, m) or self.p1.shape != (m,)
                or self.p2.shape != (K, m) or self.q.shape != (K, m)):
            raise ValidationError("mean-field strategy arrays do not match")

    @classmethod
    def zeros(cls, grid: TimeGrid, dist: TypeDistribution) -> "MFGridStrategy":
        K, m = dist.n_atoms, grid.n_points
        return cls(grid, dist, np.zeros((K, m)), np.zeros(m), np.zeros((K, m)),
                   np.zeros((K, m)))

    @classmethod
    def from_equilibrium(cls, eq: MeanFieldEquilibrium,
                         grid: TimeGrid) -> "MFGridStrategy":
        times = grid.times
        K, m = eq.dist.n_atoms, grid.n_points
        rem = eq.horizon + 1.0 - times
        pi = np.multiply.outer(eq.atom_coefficients, rem)
        q = eq.atom_intercepts(times)
        return cls(grid, eq.dist, pi, 1.0 / rem, np.zeros((K, m)), np.asarray(q))

    def sup_distance(self, other: "MFGridStrategy") -> float:
        return max(_sup_gap(self.pi, other.pi), _sup_gap(self.p1, other.p1),
                   _sup_gap(self.p2, other.p2), _sup_gap(self.q, other.q))


def _mfg_response_h_all(dist: TypeDistribution, discount: DiscountFunction,
                        strategy: MFGridStrategy) -> np.ndarray:
    """Reply intercept profiles h(t) per atom, shape (K, m)."""
    w = dist.weights
    mu, sigma = dist.field("mu"), dist.field("sigma")
    # E[sigma pi](t) and E[mu pi](t) are piecewise linear on the grid, so
    # interpolating the aggregated nodes is exact.
    nodes = np.stack([w @ (sigma[:, None] * strategy.pi),
                      w @ (mu[:, None] * strategy.pi)])

    def aggregates(s):
        e_sig, e_mu = _interp_rows(s, strategy.grid.times, nodes)
        return e_sig, e_mu, e_sig**2

    return _reply_h(discount, strategy.grid, dist, aggregates)


def best_response_mfg(dist: TypeDistribution, discount: DiscountFunction,
                      strategy: MFGridStrategy) -> MFGridStrategy:
    """Best reply of every type to the per-atom profile."""
    if strategy.dist.n_atoms != dist.n_atoms:
        raise ValidationError("strategy and distribution atom counts differ")
    grid = strategy.grid
    times = grid.times
    T = grid.T
    w = dist.weights
    delta, theta = dist.field("delta"), dist.field("theta")
    mu, nu, sigma = dist.field("mu"), dist.field("nu"), dist.field("sigma")
    rem = T + 1.0 - times
    vol2 = nu**2 + sigma**2

    e_sig = w @ (sigma[:, None] * strategy.pi)
    new_pi = (delta * mu / vol2)[:, None] * rem[None, :] + (
        (sigma * theta / vol2)[:, None] * e_sig[None, :]
    )

    h_all = _mfg_response_h_all(dist, discount, strategy)
    loglam = discount.log_value(T - times)
    e_p2 = w @ strategy.p2
    e_q = w @ strategy.q
    new_p1 = 1.0 / rem
    new_p2 = theta[:, None] * (strategy.p1 + e_p2 - 1.0 / rem)[None, :]
    new_q = (-delta[:, None] * (h_all + loglam[None, :])
             + theta[:, None] * e_q[None, :])
    return MFGridStrategy(grid, strategy.dist, new_pi, new_p1, new_p2, new_q)


def fixed_point_mfg(dist: TypeDistribution, discount: DiscountFunction,
                    init: MFGridStrategy, tol: float = 1e-10,
                    max_iter: int = 500) -> tuple[MFGridStrategy, IterationReport]:
    """Picard iteration of the mean-field best-response map."""
    if not tol > 0:
        raise ValidationError("tol must be > 0")
    current = init
    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new = best_response_mfg(dist, discount, current)
        res = new.sup_distance(current)
        history.append(res)
        current = new
        if res <= tol:
            converged = True
            break
    return current, IterationReport(iterations, history, converged)
