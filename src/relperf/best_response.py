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

@dataclass
class IterationReport:
    """Record of one Picard run: per-sweep sup-norm changes and the outcome."""

    iterations: int
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False
    # Rows iterated: type classes (n agents) or atoms (mean field).
    classes: int = 0
    # How the n-agent consumption slopes were iterated: "coefficients" of
    # 1/(T+1-t), one per class pair, or on the "grid" (always the mean field).
    slope_form: str = "grid"

    @property
    def contraction(self) -> float:
        """Observed contraction: the last residual ratio (0.0 before two sweeps)."""
        hist = self.residual_history
        return hist[-1] / hist[-2] if len(hist) > 1 else 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "contraction": self.contraction}


def _sup_gap(pairs) -> float:
    """max |a - b| over the array pairs (a, b), NaN if an entry is; taken over
    blocks of leading rows in one buffer, which stays in cache."""
    blocks = [(a, b, max(1, 65536 // max(1, a[0].size))) for a, b in pairs]
    buf = np.empty(max(min(len(a), rows) * a[0].size for a, _, rows in blocks))
    gaps = []
    for a, b, rows in blocks:
        for lo in range(0, len(a), rows):
            x = a[lo:lo + rows]
            gap = np.subtract(x, b[lo:lo + rows], out=buf[:x.size].reshape(x.shape))
            gaps.append(np.abs(gap, out=gap).max())
    return float(np.max(gaps))


def _check_finite(*arrays) -> None:
    if not all(np.all(np.isfinite(x)) for x in arrays):
        raise ValidationError("strategy samples must be finite")


def _refine(*labelings):
    """Common refinement of labelings of the same agents: (labels, first
    member of each class, class sizes), classes numbered by first appearance."""
    index: dict = {}
    labels = np.array([index.setdefault(key, len(index)) for key in zip(*labelings)])
    return labels, np.unique(labels, return_index=True)[1], np.bincount(labels)


class _ClassProfile(NamedTuple):
    """n-agent profile on K classes of exchangeable agents."""

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


def _restrict(blocks: _ClassProfile, src: np.ndarray, counts: np.ndarray) -> _ClassProfile:
    """``blocks`` on finer classes, class a taking the rows of class src[a].

    A one-agent class has no cross pair, so its off[a, a] is set to 0: then
    the blocks hold exactly the values of the dense profile, and no others."""
    off = blocks.off[src[:, None], src]
    np.einsum("aam->am", off)[counts < 2] = 0.0
    return _ClassProfile(blocks.pi[src], blocks.q[src], blocks.diag[src], off)


class GridStrategyN:
    """Strategy profile of n agents sampled on a common grid.

    ``pi[i]`` holds agent i's investment at the grid nodes (linear
    interpolation between nodes), ``p[i, k]`` the consumption coefficient on
    agent k's wealth, and ``q[i]`` the consumption intercept.

    The profiles that :meth:`zeros`, :meth:`from_equilibrium` and the
    best-response maps make are stored as class blocks: each agent has a
    class label, and agents of one class share their rows (see
    :meth:`classes`).  ``pi``, ``p`` and ``q`` are expanded from the blocks
    the first time they are read and then kept; from then on they are the
    profile, so changes made to them in place count.  A profile built from
    dense arrays has one class per agent.
    """

    def __init__(self, grid: TimeGrid, pi: np.ndarray, p: np.ndarray, q: np.ndarray):
        m = grid.n_points
        n = pi.shape[0]
        if pi.shape != (n, m) or p.shape != (n, n, m) or q.shape != (n, m):
            raise ValidationError("strategy arrays do not match the grid")
        _check_finite(pi, p, q)
        self.grid, self._labels, self._blocks = grid, np.arange(n), None
        self._dense = {"pi": pi, "p": p, "q": q}

    @classmethod
    def _of_classes(cls, grid: TimeGrid, labels: np.ndarray,
                    blocks: _ClassProfile) -> "GridStrategyN":
        self = cls.__new__(cls)
        self.grid, self._labels, self._blocks, self._dense = grid, labels, blocks, {}
        return self

    @property
    def n_agents(self) -> int:
        return self._labels.size

    pi = property(lambda self: self._array("pi"), doc="(n, m) investments.")
    p = property(lambda self: self._array("p"), doc="(n, n, m) consumption slopes.")
    q = property(lambda self: self._array("q"), doc="(n, m) consumption intercepts.")

    def _array(self, name: str) -> np.ndarray:
        if name not in self._dense:
            lab, blocks = self._labels, self._blocks
            if name == "p":
                arr = blocks.off[lab[:, None], lab]
                np.einsum("iim->im", arr)[...] = blocks.diag[lab]
            else:
                arr = getattr(blocks, name)[lab]
            self._dense[name] = arr
        return self._dense[name]

    def classes(self) -> tuple[np.ndarray, _ClassProfile]:
        """``(labels, blocks)``: agent i's rows are those of class labels[i].

        Once ``pi``, ``p`` or ``q`` has been read, every agent is its own
        class and the blocks are views of the dense arrays.  The within-class
        slope off[a, a] means nothing for a one-agent class."""
        if not self._dense:
            return self._labels, self._blocks
        p = self.p
        return np.arange(self.n_agents), _ClassProfile(self.pi, self.q,
                                                       np.einsum("iim->im", p), p)

    @classmethod
    def zeros(cls, grid: TimeGrid, n: int) -> "GridStrategyN":
        m = grid.n_points
        pi, q, diag = np.zeros((3, 1, m))
        return cls._of_classes(grid, np.zeros(n, dtype=int),
                               _ClassProfile(pi, q, diag, np.zeros((1, 1, m))))

    @classmethod
    def from_equilibrium(cls, eq: NAgentEquilibrium, grid: TimeGrid) -> "GridStrategyN":
        """The closed form on the type classes of the equilibrium's population:
        slope 1/(T+1-t) on the agent's own wealth and none on the others'."""
        eq._check_grid(grid)
        times = grid.times
        labels, rep, _ = _refine(eq.pop.agents)
        pi = eq.pi_at(times).T[rep]
        q = np.asarray(eq.intercepts_at(times))[rep]
        _check_finite(pi, q)
        diag = np.tile(1.0 / (eq.horizon + 1.0 - times), (rep.size, 1))
        return cls._of_classes(grid, labels, _ClassProfile(
            pi, q, diag, np.zeros((rep.size, rep.size, times.size))))

    def pi_at(self, times) -> np.ndarray:
        """(len(times), n) investments by linear interpolation."""
        lab, blocks = self.classes()
        weights = _interp_weights(np.asarray(times, dtype=float), self.grid.times)
        return _interp_at(blocks.pi, *weights)[lab].T

    def consumption_at(self, times):
        """Class form ``(labels, own, off, q)``, linearly interpolated: own
        slopes and intercepts (len, n), cross slopes off (len, K, K)."""
        times = np.asarray(times, dtype=float)
        weights = _interp_weights(times, self.grid.times)
        lab, blocks = self.classes()
        blocks = _restrict(blocks, np.arange(len(blocks.pi)), np.bincount(lab))
        off = np.empty(times.shape + blocks.off.shape[:2])
        for a, row in enumerate(blocks.off):  # one row at a time: no second (len, K, K)
            off[..., a, :] = _interp_at(row, *weights).T
        own, q = (_interp_at(x, *weights)[lab].T for x in (blocks.diag, blocks.q))
        return lab, own, off, q

    def sup_distance(self, other: "GridStrategyN") -> float:
        """max |self - other| over pi, p and q, taken on the common refinement
        of the two profiles' classes: the same values as the dense arrays."""
        (la, a), (lb, b) = self.classes(), other.classes()
        _, rep, counts = _refine(la, lb)
        return _sup_gap(zip(_restrict(a, la[rep], counts), _restrict(b, lb[rep], counts)))

    def max_cross_coefficient(self) -> float:
        """Largest |p[i,k]| with k != i (zero for simple strategies)."""
        lab, blocks = self.classes()
        cross = ~np.eye(len(blocks.off), dtype=bool) | (np.bincount(lab) > 1)[:, None]
        return float(np.abs(blocks.off[cross]).max())


def _right_integrals(seg: np.ndarray) -> np.ndarray:
    """Integrals from each node to the last along the last axis, given each
    interval's integral at its left node and 0 at the last node."""
    out = np.empty(seg.shape)
    np.cumsum(seg[..., ::-1], axis=-1, out=out[..., ::-1])
    return out


def _pairs(x: np.ndarray):
    """x_j and x_{j+1} at the ends of every interval of the rows of ``x``
    (R, m), flat; the pair across two rows meets a zero weight."""
    flat = x.reshape(-1)
    return flat[:-1], flat[1:]


def _interp_weights(s: np.ndarray, times: np.ndarray):
    """Left node index j of each s in ``times`` and its fraction of the way to j + 1."""
    j = np.clip(np.searchsorted(times, s, side="right") - 1, 0, times.size - 2)
    return j, (s - times[j]) / (times[j + 1] - times[j])


def _interp_at(rows: np.ndarray, j: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Linear interpolation along the last axis of ``rows`` at the weights of
    :func:`_interp_weights`.  Two result-sized arrays, the second one updated
    in place."""
    out, step = rows[..., j], rows[..., j + 1]
    if np.ndim(j) == 0:  # then both are views of rows, which the updates would overwrite
        out, step = out.copy(), step.copy()
    step -= out
    step *= frac
    out += step
    return out


class _ReplyPlan:
    """The best reply of one law's rows on one grid, with every term that
    does not depend on the profile computed once.

    One row per agent, class or atom: ``p`` holds the rows' parameters, ``w``
    their law weights and ``s`` a row's own share (w = s = 1/n for n agents,
    the law's weights and s = 0 for the mean field).  With own = 1 - theta s
    and the competitor averages E_w[x] - s x of the sigma- and mu-weighted
    investments (sbar, mbar), the reply is

        pi' = (delta mu (T+1-t) + theta sigma sbar) / ((nu^2 + sigma^2) own),
        q'  = -(delta/own) (h + ln lam(T-t)) + (theta/own) (E_w[q] - s q),

    with h(t) = (1/(T+1-t)) integral_t^T (T+1-u) G(u) du by Simpson's rule,
    two panels per grid interval, on the linearly interpolated investments.
    With k = theta/delta, vol = nu^2 + sigma^2 and rem_u = T+1-u,

        rem_u G = c0(u) + alpha sbar + k mbar + (beta sbar^2 + gamma vbar) / rem_u,

        c0 = -ln lam(T-u) - rem_u mu^2 / (2 vol),   alpha = -mu sigma k / vol,
        beta = k^2 nu^2 / (2 vol),                  gamma = k^2 s / 2,

    and vbar = E_w[(nu pi)^2] - s (nu pi)^2, which the mean field (s = 0)
    drops.  On interval j an interpolated x is (1-phi) x_j + phi x_{j+1}, so
    the rule integrates a linear term exactly, as (t_{j+1} - t_j)(x_j +
    x_{j+1})/2, and x^2/rem_u as Q_j[x] = A_j x_j^2 + 2 B_j x_j x_{j+1} +
    C_j x_{j+1}^2, where A, B and C are the rule's weights times (1-phi)^2,
    phi (1-phi) and phi^2, over rem_u, summed over its points.  With S =
    E_w[sigma pi] and M = E_w[mu pi], sbar = S - s sigma pi and mbar = M -
    s mu pi, so every term but those in a row's own investment is one
    (K, 6) @ (6, m) product.  An interval's integral is kept at its left
    node, with 0 at the last node.
    """

    def __init__(self, discount: DiscountFunction, grid: TimeGrid, p, w, s: float):
        times, T = grid.times, grid.T
        delta, theta, mu, nu, sigma = (p[k][:, None] for k in _FIELDS)
        self.discount, self.grid, self.w, self.s = discount, grid, w, s
        self.rem = T + 1.0 - times
        self.inv_rem = 1.0 / self.rem
        self.log_lam = discount.log_value(T - times)
        step, phi = np.diff(times)[:, None], np.linspace(0.0, 1.0, 5)
        u, weights = times[:-1, None] + step * phi, step / 12.0 * np.array([1, 4, 2, 4, 1])
        self.half_step = np.append(step / 2.0, 0.0)
        # Rows of the integrals of ln lam, rem_u, S, M, S^2 (mean field) and E_w[nu^2 Q[pi]].
        self.rows = np.zeros((6, times.size))
        self.rows[0, :-1] = (weights * discount.log_value(T - u)).sum(axis=1)
        self.rows[1, :-1] = self.half_step[:-1] * (self.rem[:-1] + self.rem[1:])
        weights /= T + 1.0 - u
        self.quad = np.array([np.tile(np.append(weights @ f, 0.0), len(mu))
                              for f in ((1.0 - phi)**2, 2.0 * phi * (1.0 - phi), phi**2)])
        vol, k = nu**2 + sigma**2, theta / delta
        alpha, beta, gamma = -mu * sigma * k / vol, k**2 * nu**2 / (2.0 * vol), k**2 * s / 2.0
        self.coef = np.hstack([-np.ones_like(mu), -mu**2 / (2.0 * vol), alpha, k, beta, gamma])
        self.sums, self.minus_s_sigma = np.stack([w * sigma[:, 0], w * mu[:, 0]]), -s * sigma
        if s:  # full (K, m) factors of the terms in a row's own investment
            self.w_nu2, full = w * nu[:, 0]**2, np.ones_like(self.rem)
            self.beta, self.own_q = beta * full, -s * gamma * nu**2 * full
            self.own_lin = _pairs(-s * (alpha * sigma + k * mu) * self.half_step)[0]
        own = 1.0 - theta * s
        self.pi_drift, self.vol_own = delta * mu * self.rem, vol * own
        self.pi_couple = theta * sigma
        self.q_own, self.q_couple = -(delta / own), theta / own

    def _competitor(self, x: np.ndarray) -> np.ndarray:
        return self.w @ x - self.s * x

    def _sbar(self, pi: np.ndarray, S: np.ndarray) -> np.ndarray:
        sbar = self.minus_s_sigma * pi
        sbar += S
        return sbar

    def _squares(self, x: np.ndarray) -> np.ndarray:
        """Q_j[x] of the rows of x (R, m), at the intervals' left nodes."""
        out = np.empty(x.shape)
        q, (left, right) = out.reshape(-1)[:-1], _pairs(x)
        a, b2, c = self.quad[:, :q.size]
        np.multiply(a, left, out=q)
        q += b2 * right
        q *= left
        tail = c * right
        tail *= right
        q += tail
        out[-1, -1] = 0.0
        return out

    def h(self, pi: np.ndarray) -> np.ndarray:
        """Reply intercept profiles h(t) of the rows, given their investments.
        Its temporaries are a few (K, m) arrays, none (K, 5(m-1))."""
        sums = self.sums @ pi
        rows = self.rows.copy()
        rows[2:4, :-1] = sums[:, :-1] + sums[:, 1:]
        rows[2:4] *= self.half_step
        if self.s:
            seg = self._squares(pi)
            rows[5] = self.w_nu2 @ seg
            seg *= self.own_q
            flat, (left, right) = seg.reshape(-1)[:-1], _pairs(pi)
            flat += self.own_lin * left
            flat += self.own_lin * right
            seg += self.beta * self._squares(self._sbar(pi, sums[0]))
            seg += self.coef @ rows
        else:  # sbar = S in every row
            rows[4] = self._squares(sums[:1])[0]
            seg = self.coef @ rows
        out = _right_integrals(seg)
        out /= self.rem
        return out

    def q_error(self) -> float:
        """Bound on the intercepts' error from the rule's integral of ln lam,
        the only curved term of G along a closed form: max delta/own times
        its largest gap to ``log_integral`` over [t, T], over T+1-t."""
        exact = self.discount.log_integral(self.grid.times, self.grid.T)
        gap = _right_integrals(self.rows[0]) - exact
        return float(np.abs(self.q_own).max() * np.abs(gap / self.rem).max())

    def reply(self, pi: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best-reply investments and consumption intercepts of every row."""
        sbar = self._sbar(pi, self.sums[0] @ pi)
        new_pi = (self.pi_drift + self.pi_couple * sbar) / self.vol_own
        new_q = self.q_own * (self.h(pi) + self.log_lam)
        new_q += self.q_couple * self._competitor(q)
        return new_pi, new_q


def _reply(discount: DiscountFunction, grid: TimeGrid, p, w, s: float,
           pi: np.ndarray, q: np.ndarray, plan: _ReplyPlan | None = None):
    """Best-reply ``(pi, q)`` of the rows of :class:`_ReplyPlan`; ``plan``, if
    given, is that of ``(discount, grid, p, w, s)``."""
    return (plan or _ReplyPlan(discount, grid, p, w, s)).reply(pi, q)


def response_h(pop: Population, discount: DiscountFunction,
               strategy: GridStrategyN, i: int) -> np.ndarray:
    """Reply intercept profile h_i(t) of agent ``i`` on the strategy grid."""
    lab, blocks = strategy.classes()
    return _ReplyPlan(discount, strategy.grid, *_nagent_law(pop)).h(blocks.pi[lab])[i]


def _on_types(blocks: _ClassProfile, types: np.ndarray) -> _ClassProfile | None:
    """One-class-per-agent ``blocks`` on the classes ``types``, or None if
    they do not expand back to ``blocks`` exactly.  The check compares a row
    of slopes at a time, so it makes no dense copy."""
    counts = np.bincount(types)
    ends, order = np.cumsum(counts), np.argsort(types, kind="stable")
    # A class's first and last member: a cross pair if it has two.
    rep, last = order[ends - counts], order[ends - 1]
    coarse = _ClassProfile(blocks.pi[rep], blocks.q[rep], blocks.diag[rep],
                           blocks.off[rep[:, None], last])
    if not all(np.array_equal(c[types], b) for c, b in zip(coarse[:3], blocks[:3])):
        return None
    for i, a in enumerate(types):
        row = coarse.off[a, types]
        row[i] = blocks.off[i, i]
        if not np.array_equal(row, blocks.off[i]):
            return None
    return coarse


def _on_inv_rem(blocks: _ClassProfile, inv_rem: np.ndarray) -> _ClassProfile | None:
    """``blocks`` with its slopes as coefficients c of 1/(T+1-t) on a time
    axis of length 1, or None if c * inv_rem does not give them back exactly.
    c is read at the last node, where 1/(T+1-t) is 1, and the check compares
    a row of slopes at a time, so it makes no (K, K, m) copy."""
    diag, off = (x[..., -1:] / inv_rem[-1] for x in (blocks.diag, blocks.off))
    if not np.array_equal(diag * inv_rem, blocks.diag):
        return None
    if not all(np.array_equal(c * inv_rem, row) for c, row in zip(off, blocks.off)):
        return None
    return blocks._replace(diag=diag, off=off)


class _ClassSpace:
    """The n-agent best-reply map on classes of exchangeable agents.

    The classes are the common refinement of the profile's classes and the
    agents' types, so ``start`` holds ``strategy`` exactly.  A profile with
    one class per agent (built from or read as dense arrays) is first put on
    the type classes if it expands back from them exactly.  Classes enter the
    competitor sums with their multiplicities (weights counts/n, own share
    1/n in :class:`_ReplyPlan`).  With P_b = sum_a counts_a off[a, b] -
    off[b, b] + diag[b] and scale_a = theta_a / (1 - theta_a/n) / n, and
    off[a, a] held at 0 for a one-agent class, the slopes map to

        off'[a, b] = scale_a (P_b - off[a, b] - 1/rem),
        diag'[a]   = scale_a (P_a - diag[a]) + 1/rem.

    This map is linear, acts node by node and is forced by 1/rem alone, and
    the slopes and (pi, q) do not read each other.  So slopes c 1/rem map to
    c' 1/rem, with c' the same map forced by 1: a start whose slopes are
    exactly c 1/rem (zeros, the closed form) is iterated on the (K, K, 1)
    coefficients, which are expanded once, by :meth:`profile`.  A sweep
    moves the slopes by max(1/rem) max|c' - c| in sup norm, as 1/rem > 0,
    and max(1/rem) is 1, at t = T: so the coefficients' change stands for
    theirs.  Any other start is iterated on the grid."""

    def __init__(self, pop: Population, discount: DiscountFunction,
                 strategy: GridStrategyN):
        if strategy.n_agents != pop.n:
            raise ValidationError("strategy and population sizes differ")
        n = pop.n
        types, type_rep, _ = _refine(pop.agents)
        labels, blocks = strategy.classes()
        if len(blocks.pi) == n > type_rep.size:
            coarse = _on_types(blocks, types)
            if coarse is not None:
                labels, blocks = types, coarse
        self.labels, rep, self.counts = _refine(labels, types)
        self.discount, self.grid = discount, strategy.grid
        self.law = {k: v[rep] for k, v in pop._params.items()}, self.counts / n, 1.0 / n
        self.plan = _ReplyPlan(discount, self.grid, *self.law)
        theta = self.law[0]["theta"]
        self.scale = (theta / (1.0 - theta / n) / n)[:, None]
        self.shared = (self.counts > 1)[:, None]
        coef = _on_inv_rem(blocks, self.plan.inv_rem)
        self.slope_form = "grid" if coef is None else "coefficients"
        self.forcing = self.plan.inv_rem if coef is None else 1.0
        self._blocks, self._src = blocks if coef is None else coef, labels[rep]

    def start(self) -> _ClassProfile:
        """The profile on the classes."""
        return _restrict(self._blocks, self._src, self.counts)

    def reply(self, prof: _ClassProfile) -> _ClassProfile:
        pi, q = _reply(self.discount, self.grid, *self.law, prof.pi, prof.q, self.plan)
        off, diag, forcing = prof.off, prof.diag, self.forcing
        p_col = (self.counts @ off.reshape(off.shape[0], -1)).reshape(diag.shape)
        p_col -= np.einsum("aam->am", off)
        p_col += diag
        new_off = np.subtract((p_col - forcing)[None], off)
        new_off *= self.scale[:, :, None]
        np.einsum("aam->am", new_off)[...] *= self.shared
        return _ClassProfile(pi, q, self.scale * (p_col - diag) + forcing, new_off)

    def profile(self, blocks: _ClassProfile) -> GridStrategyN:
        if self.slope_form == "coefficients":
            inv_rem = self.plan.inv_rem
            blocks = blocks._replace(diag=blocks.diag * inv_rem, off=blocks.off * inv_rem)
        return GridStrategyN._of_classes(self.grid, self.labels, blocks)


def best_response_profile(pop: Population, discount: DiscountFunction,
                          strategy: GridStrategyN) -> GridStrategyN:
    """Simultaneous best reply of every agent to the given profile."""
    space = _ClassSpace(pop, discount, strategy)
    reply = space.reply(space.start())
    _check_finite(*reply)
    return space.profile(reply)


def best_response_nagent(pop: Population, discount: DiscountFunction,
                         strategy: GridStrategyN, i: int):
    """Agent ``i``'s best reply (pi_i, p_i, q_i) on the strategy grid."""
    if not 0 <= i < pop.n:
        raise IndexError(f"agent index {i} out of range for n={pop.n}")
    lab, blocks = best_response_profile(pop, discount, strategy).classes()
    p_i = blocks.off[lab[i], lab]
    p_i[i] = blocks.diag[lab[i]]
    return blocks.pi[lab[i]], p_i, blocks.q[lab[i]]


def _picard(reply, start, tol: float, max_iter: int):
    """Iterate ``reply`` from the profile ``start()`` until one sweep moves
    the profile by at most ``tol`` in sup norm; non-convergence is reported,
    not raised.  Nothing else need hold the start, so a sweep can hold two
    profiles, not three."""
    if not tol > 0:
        raise ValidationError("tol must be > 0")
    current = start()
    classes = current.pi.shape[0]
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
    return current, IterationReport(iterations, history, converged, classes)


def fixed_point_nagent(pop: Population, discount: DiscountFunction,
                       init: GridStrategyN, tol: float = 1e-10,
                       max_iter: int = 500) -> tuple[GridStrategyN, IterationReport]:
    """Picard iteration of the simultaneous best-response map.

    Stops when the sup-norm change of one sweep drops to ``tol``;
    non-convergence is reported through the flag, not raised.  Each sweep's
    blocks are checked to be finite.
    """
    space = _ClassSpace(pop, discount, init)
    final, report = _picard(space.reply, space.start, tol, max_iter)
    report.slope_form = space.slope_form
    return space.profile(final), report


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
        eq._check_grid(grid)
        times = grid.times
        K, m = eq.dist.n_atoms, grid.n_points
        rem = eq.horizon + 1.0 - times
        pi = np.multiply.outer(eq.atom_coefficients, rem)
        q = eq.atom_intercepts(times)
        return cls(grid, eq.dist, pi, 1.0 / rem, np.zeros((K, m)), np.asarray(q))

    def sup_distance(self, other: "MFGridStrategy") -> float:
        return _sup_gap(zip((self.pi, self.p1, self.p2, self.q),
                            (other.pi, other.p1, other.p2, other.q)))


def _mfg_reply_map(dist: TypeDistribution, discount: DiscountFunction, grid: TimeGrid):
    """The mean-field best-reply map of ``dist`` on ``grid``."""
    plan = _ReplyPlan(discount, grid, *_mfg_law(dist))
    theta = dist.field("theta")[:, None]

    def reply(strategy: MFGridStrategy) -> MFGridStrategy:
        if strategy.dist.n_atoms != dist.n_atoms:
            raise ValidationError("strategy and distribution atom counts differ")
        new_pi, new_q = plan.reply(strategy.pi, strategy.q)
        e_p2 = dist.weights @ strategy.p2
        new_p2 = theta * (strategy.p1 + e_p2 - plan.inv_rem)[None, :]
        return MFGridStrategy(grid, strategy.dist, new_pi, plan.inv_rem.copy(), new_p2, new_q)

    return reply


def best_response_mfg(dist: TypeDistribution, discount: DiscountFunction,
                      strategy: MFGridStrategy) -> MFGridStrategy:
    """Best reply of every type to the per-atom profile."""
    return _mfg_reply_map(dist, discount, strategy.grid)(strategy)


def fixed_point_mfg(dist: TypeDistribution, discount: DiscountFunction,
                    init: MFGridStrategy, tol: float = 1e-10,
                    max_iter: int = 500) -> tuple[MFGridStrategy, IterationReport]:
    """Picard iteration of the mean-field best-response map."""
    return _picard(_mfg_reply_map(dist, discount, init.grid), lambda: init, tol, max_iter)
