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

import mmap
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .core import _FIELDS, TimeGrid, TypeDistribution, ValidationError
from .discount import DiscountFunction
from .mfg import MeanFieldEquilibrium, _mfg_law
from .nagent import NAgentEquilibrium, Population, _nagent_law

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
    # Rows iterated: type classes (n agents) or atoms (mean field).
    classes: int = 0

    @property
    def contraction(self) -> float:
        """Observed contraction: the last residual ratio (0.0 before two sweeps)."""
        hist = self.residual_history
        return hist[-1] / hist[-2] if len(hist) > 1 else 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "contraction": self.contraction}


def _mapped(shape) -> np.ndarray:
    """Zero float array in its own private anonymous mapping, for the (n, n, m)
    slopes: a page takes memory only once written and is returned when the
    array is freed, so the resident size does not depend on the malloc heap."""
    size = int(np.prod(shape))
    buf = mmap.mmap(-1, 8 * max(size, 1), mmap.MAP_PRIVATE)
    return np.frombuffer(buf, count=size).reshape(shape)


def _sup_gap(pairs) -> float:
    """max |a - b| over the array pairs (a, b), NaN if an entry is; taken over
    blocks of leading rows so that each temporary stays in cache."""
    gaps = []
    for a, b in pairs:
        rows = max(1, 65536 // max(1, a[0].size))
        for lo in range(0, len(a), rows):
            gap = np.subtract(a[lo:lo + rows], b[lo:lo + rows])
            gaps.append(np.abs(gap, out=gap).max())
    return float(np.max(gaps))


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
        return cls(grid, np.zeros((n, m)), _mapped((n, n, m)), np.zeros((n, m)))

    @classmethod
    def from_equilibrium(cls, eq: NAgentEquilibrium, grid: TimeGrid) -> "GridStrategyN":
        times = grid.times
        n = eq.n_agents
        pi = eq.pi_at(times).T.copy()
        p = _mapped((n, n, times.size))
        p[np.arange(n), np.arange(n)] = 1.0 / (eq.horizon + 1.0 - times)
        q = eq.intercepts_at(times)
        return cls(grid, pi, p, np.asarray(q))

    def pi_at(self, times) -> np.ndarray:
        """(len(times), n) investments by linear interpolation."""
        return _interp_rows(np.asarray(times, dtype=float), self.grid.times, self.pi).T

    def consumption_at(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(P, q) with P (len, n, n) and q (len, n), interpolated a row of P at a time."""
        times = np.asarray(times, dtype=float)
        P = np.empty((times.size, self.n_agents, self.n_agents))
        for i, row in enumerate(self.p):
            P[:, i] = _interp_rows(times, self.grid.times, row).T
        return P, _interp_rows(times, self.grid.times, self.q).T

    def sup_distance(self, other: "GridStrategyN") -> float:
        return _sup_gap(zip((self.pi, self.p, self.q), (other.pi, other.p, other.q)))

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
    """Linear interpolation along the last axis of ``rows`` (sampled on
    ``times``) at s; shape rows.shape[:-1] + s.shape.  Two result-sized
    arrays, the second one updated in place."""
    j = np.clip(np.searchsorted(times, s, side="right") - 1, 0, times.size - 2)
    frac = (s - times[j]) / (times[j + 1] - times[j])
    out, step = rows[..., j], rows[..., j + 1]
    step -= out
    step *= frac
    out += step
    return out


def _reply_h(discount: DiscountFunction, grid: TimeGrid, p, w, s: float,
             pi: np.ndarray) -> np.ndarray:
    """Reply intercept profiles h(t) = (1/(T+1-t)) integral_t^T (T+1-s) G(s) ds.

    One row per agent or atom: ``p`` holds the rows' parameters, ``w`` their
    law weights and ``s`` a row's own share (w = s = 1/n for n agents, the
    law's weights and s = 0 for the mean field), and ``pi`` their sampled
    investments, linearly interpolated between nodes.  G collects the
    competitor averages E_w[x] - s x of the sigma- and mu-weighted
    investments (sbar, mbar) and the idiosyncratic variance
    vbar = s (E_w[(nu pi)^2] - s (nu pi)^2), which vanishes in the mean field.
    """
    times, T = grid.times, grid.T
    delta, theta, mu, nu, sigma = (p[k][:, None] for k in _FIELDS)
    pts, wq, h = _quad_layout(times)
    u = pts.ravel()
    rem_u = T + 1.0 - u
    pi_u = _interp_rows(u, times, pi)
    sbar, mbar, nbar = (w @ x - s * x for x in (sigma * pi_u, mu * pi_u, (nu * pi_u) ** 2))
    g = (theta / delta) / rem_u
    G = (
        -discount.log_value(T - u) / rem_u
        - 0.5 * (mu + sigma * g * sbar) ** 2 / (nu**2 + sigma**2)
        + g * mbar
        + 0.5 * g**2 * (sbar**2 + s * nbar)
    )
    integrals = _right_integrals((rem_u * G).reshape((-1,) + pts.shape), wq, h)
    return integrals / (T + 1.0 - times)


def _reply(discount: DiscountFunction, grid: TimeGrid, p, w, s: float,
           pi: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best-reply investments and consumption intercepts of every row.

    Rows, ``p``, ``w`` and ``s`` are as in :func:`_reply_h`; ``q`` holds the
    rows' sampled consumption intercepts.  With own = 1 - theta s:

        pi' = (delta mu (T+1-t) + theta sigma sbar) / ((nu^2 + sigma^2) own),
        q'  = -(delta/own) (h + ln lam(T-t)) + (theta/own) (E_w[q] - s q).
    """
    times, T = grid.times, grid.T
    delta, theta, mu, nu, sigma = (p[k][:, None] for k in _FIELDS)
    own = 1.0 - theta * s
    sbar = w @ (sigma * pi) - s * sigma * pi
    new_pi = (delta * mu * (T + 1.0 - times) + theta * sigma * sbar) / ((nu**2 + sigma**2) * own)
    h = _reply_h(discount, grid, p, w, s, pi)
    new_q = (-(delta / own) * (h + discount.log_value(T - times))
             + (theta / own) * (w @ q - s * q))
    return new_pi, new_q


def response_h(pop: Population, discount: DiscountFunction,
               strategy: GridStrategyN, i: int) -> np.ndarray:
    """Reply intercept profile h_i(t) of agent ``i`` on the strategy grid."""
    return _reply_h(discount, strategy.grid, *_nagent_law(pop), strategy.pi)[i]


class _ClassProfile(NamedTuple):
    """n-agent profile on the K classes of a :class:`_ClassSpace`."""

    pi: np.ndarray    # (K, m) investment of each agent of class a
    q: np.ndarray     # (K, m) its consumption intercept
    diag: np.ndarray  # (K, m) its slope on its own wealth
    off: np.ndarray   # (K, K, m) its slope on another agent of class b

    def sup_distance(self, other: "_ClassProfile") -> float:
        """Sup-norm change; raises if a block is not finite (then so is a gap)."""
        gap = _sup_gap(zip(self, other))
        if not np.isfinite(gap):
            raise ValidationError("strategy samples must be finite")
        return gap


class _ClassSpace:
    """The n-agent best-reply map on classes of exchangeable agents.

    The classes are those of equal types if ``strategy`` expands back from
    them exactly, else one per agent; ``start`` is ``strategy`` on them.
    Classes enter the competitor sums with their multiplicities (weights
    counts/n, own share 1/n in :func:`_reply`).  With P_b = sum_a counts_a
    off[a, b] - off[b, b] + diag[b] and scale_a = theta_a / (1 - theta_a/n) / n,
    and off[a, a] held at 0 for a one-agent class, the slopes map to

        off'[a, b] = scale_a (P_b - off[a, b] - 1/rem),
        diag'[a]   = scale_a (P_a - diag[a]) + 1/rem."""

    def __init__(self, pop: Population, discount: DiscountFunction,
                 strategy: GridStrategyN):
        if strategy.n_agents != pop.n:
            raise ValidationError("strategy and population sizes differ")
        n, p = pop.n, strategy.p
        self.discount, self.grid = discount, strategy.grid
        index: dict = {}
        by_type = np.array([index.setdefault(a, len(index)) for a in pop.agents])
        for labels in (by_type, np.arange(n)):
            self.labels, self.counts = labels, np.bincount(labels)
            ends, order = np.cumsum(self.counts), np.argsort(labels, kind="stable")
            # A class's first and last member: a cross pair if it has two.
            rep, last = order[ends - self.counts], order[ends - 1]
            self.shared = (self.counts > 1)[:, None]
            off = p[rep[:, None], last]
            np.einsum("aam->am", off)[...] *= self.shared
            self.start = _ClassProfile(strategy.pi[rep], strategy.q[rep], p[rep, rep], off)
            if self.counts.size == n or self._expands_to(strategy):
                break
        self.law = {k: v[rep] for k, v in pop._params.items()}, self.counts / n, 1.0 / n
        theta = self.law[0]["theta"]
        self.scale = (theta / (1.0 - theta / n) / n)[:, None]
        self.inv_rem = 1.0 / (self.grid.T + 1.0 - self.grid.times)

    def _expands_to(self, strategy: GridStrategyN) -> bool:
        """Whether ``start`` expands to ``strategy`` exactly, a row of p at a time."""
        lab, start = self.labels, self.start
        if not (np.array_equal(start.pi[lab], strategy.pi)
                and np.array_equal(start.q[lab], strategy.q)):
            return False
        for i, a in enumerate(lab):
            row = start.off[a, lab]
            row[i] = start.diag[a]
            if not np.array_equal(row, strategy.p[i]):
                return False
        return True

    def expand(self, prof: _ClassProfile) -> GridStrategyN:
        lab, (k, m) = self.labels, prof.diag.shape
        p = _mapped((lab.size, lab.size, m))
        # mode="clip" writes straight into p; the default buffers the copy.
        np.take(prof.off.reshape(k * k, m), (lab[:, None] * k + lab).ravel(), axis=0,
                out=p.reshape(-1, m), mode="clip")
        np.einsum("iim->im", p)[...] = prof.diag[lab]
        return GridStrategyN(self.grid, prof.pi[lab], p, prof.q[lab])

    def reply(self, prof: _ClassProfile) -> _ClassProfile:
        pi, q = _reply(self.discount, self.grid, *self.law, prof.pi, prof.q)
        off, diag = prof.off, prof.diag
        p_col = (self.counts @ off.reshape(off.shape[0], -1)).reshape(diag.shape)
        p_col -= np.einsum("aam->am", off)
        p_col += diag
        new_off = np.subtract((p_col - self.inv_rem)[None], off)
        new_off *= self.scale[:, :, None]
        np.einsum("aam->am", new_off)[...] *= self.shared
        return _ClassProfile(pi, q, self.scale * (p_col - diag) + self.inv_rem, new_off)


def best_response_profile(pop: Population, discount: DiscountFunction,
                          strategy: GridStrategyN) -> GridStrategyN:
    """Simultaneous best reply of every agent to the given profile."""
    space = _ClassSpace(pop, discount, strategy)
    return space.expand(space.reply(space.start))


def best_response_nagent(pop: Population, discount: DiscountFunction,
                         strategy: GridStrategyN, i: int):
    """Agent ``i``'s best reply (pi_i, p_i, q_i) on the strategy grid."""
    if not 0 <= i < pop.n:
        raise IndexError(f"agent index {i} out of range for n={pop.n}")
    reply = best_response_profile(pop, discount, strategy)
    return reply.pi[i], reply.p[i], reply.q[i]


def _picard(reply, init, tol: float, max_iter: int):
    """Iterate ``reply`` from ``init`` until one sweep moves the profile by at
    most ``tol`` in sup norm; non-convergence is reported, not raised."""
    if not tol > 0:
        raise ValidationError("tol must be > 0")
    current = init
    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new = reply(current)
        res = new.sup_distance(current)
        history.append(res)
        current = new
        if res <= tol:
            converged = True
            break
    return current, IterationReport(iterations, history, converged, init.pi.shape[0])


def fixed_point_nagent(pop: Population, discount: DiscountFunction,
                       init: GridStrategyN, tol: float = 1e-10,
                       max_iter: int = 500) -> tuple[GridStrategyN, IterationReport]:
    """Picard iteration of the simultaneous best-response map.

    Stops when the sup-norm change of one sweep drops to ``tol``;
    non-convergence is reported through the flag, not raised.
    """
    space = _ClassSpace(pop, discount, init)
    final, report = _picard(space.reply, space.start, tol, max_iter)
    return space.expand(final), report


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
        return _sup_gap(zip((self.pi, self.p1, self.p2, self.q),
                            (other.pi, other.p1, other.p2, other.q)))


def best_response_mfg(dist: TypeDistribution, discount: DiscountFunction,
                      strategy: MFGridStrategy) -> MFGridStrategy:
    """Best reply of every type to the per-atom profile."""
    if strategy.dist.n_atoms != dist.n_atoms:
        raise ValidationError("strategy and distribution atom counts differ")
    grid = strategy.grid
    rem = grid.T + 1.0 - grid.times
    new_pi, new_q = _reply(discount, grid, *_mfg_law(dist), strategy.pi, strategy.q)
    e_p2 = dist.weights @ strategy.p2
    new_p2 = dist.field("theta")[:, None] * (strategy.p1 + e_p2 - 1.0 / rem)[None, :]
    return MFGridStrategy(grid, strategy.dist, new_pi, 1.0 / rem, new_p2, new_q)


def fixed_point_mfg(dist: TypeDistribution, discount: DiscountFunction,
                    init: MFGridStrategy, tol: float = 1e-10,
                    max_iter: int = 500) -> tuple[MFGridStrategy, IterationReport]:
    """Picard iteration of the mean-field best-response map."""
    return _picard(lambda s: best_response_mfg(dist, discount, s), init, tol, max_iter)
