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

import math
import numbers
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import _FIELDS, TimeGrid, TypeDistribution, ValidationError, _real
from .discount import DiscountFunction
from .mfg import MeanFieldEquilibrium, _mfg_law
from .nagent import NAgentEquilibrium, Population, _nagent_law

__all__ = [
    "GridStrategyN",
    "IterationReport",
    "MFGridStrategy",
    "best_response_mfg",
    "best_response_profile",
    "fixed_point_mfg",
    "fixed_point_nagent",
]

@dataclass
class IterationReport:
    """Record of one Picard run: per-sweep sup-norm changes and the outcome."""

    iterations: int
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False
    # Rows iterated: type classes (n agents) or atoms (mean field).
    classes: int = 0
    # How the consumption slopes were iterated: "coefficients" of 1/(T+1-t),
    # or on the "grid"; and likewise (pi, q), as coefficients of T+1-t and of
    # the two intercept functions (f1, f2) of _ReplyPlan.
    slope_form: str = "grid"
    pi_q_form: str = "grid"

    @property
    def contraction(self) -> float:
        """Observed contraction: the last residual ratio (0.0 before two sweeps)."""
        hist = self.residual_history
        return hist[-1] / hist[-2] if len(hist) > 1 else 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "contraction": self.contraction}


_BLOCK = 65536  # entries of a comparison block


def _sup_gap(pairs) -> float:
    """max |a - b| over the array pairs (a, b), NaN if an entry is.  Arrays
    over _BLOCK entries are taken a block of leading rows at a time, in one
    buffer, which stays in cache."""
    gaps, buf = [], np.empty(0)
    for a, b in pairs:
        if a.size <= _BLOCK:
            gaps.append(np.abs(np.subtract(a, b)).max())
            continue
        rows = max(1, _BLOCK // a[0].size)
        if buf.size < rows * a[0].size:
            buf = np.empty(rows * a[0].size)
        for lo in range(0, len(a), rows):
            x = a[lo:lo + rows]
            gap = np.subtract(x, b[lo:lo + rows], out=buf[:x.size].reshape(x.shape))
            gaps.append(np.abs(gap, out=gap).max())
    return float(np.max(gaps))


def _check_finite(*arrays) -> None:
    if not all(np.all(np.isfinite(x)) for x in arrays):
        raise ValidationError("strategy samples must be finite")


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


def _refine(*labelings):
    """Common refinement of labelings of the same agents, each an array of
    integers or floats (n,): (labels, first member of each class, class
    sizes), classes numbered by first appearance.  Equal numbers share a
    class, so -0.0 and 0.0 do, as they do in an equal AgentType."""
    keys = np.column_stack(labelings) + 0.0  # floats, with no -0.0
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))[:, 0]
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    labels = rank[inverse.reshape(-1)]
    return labels, first[order], np.bincount(labels)


class _ClassProfile(NamedTuple):
    """n-agent profile on K classes of exchangeable agents; for the mean
    field, on K atoms, with the shared own slope p1 (m,) in ``diag`` and the
    slopes p2 (K, m) on the average wealth in ``off``."""

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

    A profile is stored as class blocks: each agent has a class label, and
    agents of one class share their rows (see :meth:`classes`).  A profile
    built from dense arrays has one class per agent.  The blocks are
    read-only, and ``pi``, ``p`` and ``q`` are read-only expansions of them.
    """

    def __init__(self, grid: TimeGrid, pi: np.ndarray, p: np.ndarray, q: np.ndarray):
        m = grid.n_points
        n = pi.shape[0]
        if pi.shape != (n, m) or p.shape != (n, n, m) or q.shape != (n, m):
            raise ValidationError("strategy arrays do not match the grid")
        _check_finite(pi, p, q)
        off = np.array(p, dtype=float)
        diag = np.einsum("iim->im", off).copy()
        np.einsum("iim->im", off)[...] = 0.0
        self._set(grid, np.arange(n), _ClassProfile(np.array(pi, dtype=float),
                                                    np.array(q, dtype=float), diag, off))

    @classmethod
    def _of_classes(cls, grid: TimeGrid, labels: np.ndarray,
                    blocks: _ClassProfile) -> "GridStrategyN":
        self = cls.__new__(cls)
        self._set(grid, labels, blocks)
        return self

    def _set(self, grid: TimeGrid, labels: np.ndarray, blocks: _ClassProfile) -> None:
        """Hold ``blocks`` read-only, with off[a, a] = 0 for a one-agent class
        (as :func:`_restrict` sets it), copying ``off`` if that changes it."""
        one = np.flatnonzero(np.bincount(labels, minlength=len(blocks.off)) < 2)
        if blocks.off[one, one].any():
            off = blocks.off.copy()
            off[one, one] = 0.0
            blocks = blocks._replace(off=off)
        self.grid, self._labels = grid, labels
        self._blocks = _ClassProfile(*map(_read_only, blocks))

    @property
    def n_agents(self) -> int:
        return self._labels.size

    @cached_property
    def pi(self) -> np.ndarray:
        """(n, m) investments, read-only."""
        return _read_only(self._blocks.pi[self._labels])

    @cached_property
    def p(self) -> np.ndarray:
        """(n, n, m) consumption slopes, read-only."""
        lab, blocks = self._labels, self._blocks
        p = blocks.off[lab[:, None], lab]
        np.einsum("iim->im", p)[...] = blocks.diag[lab]
        return _read_only(p)

    @cached_property
    def q(self) -> np.ndarray:
        """(n, m) consumption intercepts, read-only."""
        return _read_only(self._blocks.q[self._labels])

    def classes(self) -> tuple[np.ndarray, _ClassProfile]:
        """``(labels, blocks)``: agent i's rows are those of class labels[i].
        A one-agent class has no cross pair, and its off[a, a] is 0."""
        return self._labels, self._blocks

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
        labels, rep, _ = _refine(*eq.pop._params.values())
        pi, q, inv_rem = eq._sample(grid.times, rep)
        _check_finite(pi, q)
        # No cross slopes: a read-only view, which every reader indexes.
        return cls._of_classes(grid, labels, _ClassProfile(
            pi, q, np.tile(inv_rem, (rep.size, 1)),
            np.broadcast_to(0.0, (rep.size, rep.size, inv_rem.size))))

    def pi_at(self, times) -> np.ndarray:
        """(len(times), n) investments by linear interpolation."""
        lab, blocks = self.classes()
        weights = _interp_weights(np.asarray(times, dtype=float), self.grid.times)
        return _interp_at(blocks.pi, *weights)[lab].T

    def consumption_at(self, times):
        """Class form ``(labels, own, off, q)``, linearly interpolated: own
        slopes and intercepts (len, n), cross slopes off (len, K, K), in
        which a one-agent class's off[a, a] is 0."""
        times = np.asarray(times, dtype=float)
        weights = _interp_weights(times, self.grid.times)
        lab, blocks = self.classes()
        off = np.empty(times.shape + blocks.off.shape[:2])
        for a, row in enumerate(blocks.off):  # one row at a time: no second (len, K, K)
            off[..., a, :] = _interp_at(row, *weights).T
        own, q = (_interp_at(x, *weights)[lab].T for x in (blocks.diag, blocks.q))
        return lab, own, off, q

    def sup_distance(self, other: "GridStrategyN") -> float:
        """max |self - other| over pi, p and q, taken on the common refinement
        of the two profiles' classes: the same values as the dense arrays.
        Profiles on the same classes are compared in place."""
        (la, a), (lb, b) = self.classes(), other.classes()
        if np.array_equal(la, lb):
            counts = np.bincount(la, minlength=len(a.pi))
            if len(a.pi) == len(b.pi) == counts.size and counts.all():
                return _sup_gap(zip(a, b))
        _, rep, counts = _refine(la, lb)
        return _sup_gap(zip(_restrict(a, la[rep], counts), _restrict(b, lb[rep], counts)))

    def max_cross_coefficient(self) -> float:
        """Largest |p[i,k]| with k != i (zero for simple strategies)."""
        return float(np.abs(self._blocks.off).max())


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

    with h(t) = (1/(T+1-t)) integral_t^T (T+1-u) G(u) du on the linearly
    interpolated investments.  With k = theta/delta, vol = nu^2 + sigma^2 and
    rem_u = T+1-u,

        rem_u G = c0(u) + alpha sbar + k mbar + (beta sbar^2 + gamma vbar) / rem_u,

        c0 = -ln lam(T-u) - rem_u mu^2 / (2 vol),   alpha = -mu sigma k / vol,
        beta = k^2 nu^2 / (2 vol),                  gamma = k^2 s / 2,

    and vbar = E_w[(nu pi)^2] - s (nu pi)^2, which the mean field (s = 0)
    drops.  The integral of ln lam over an interval is a difference of
    ``discount.log_integral`` at its nodes.  On interval j an interpolated x
    is (1-phi) x_j + phi x_{j+1}, so a linear term integrates exactly, as
    (t_{j+1} - t_j)(x_j + x_{j+1})/2, and x^2/rem_u by Simpson's rule, two
    panels per interval, as Q_j[x] = A_j x_j^2 + 2 B_j x_j x_{j+1} + C_j
    x_{j+1}^2, where A, B and C are the rule's weights times (1-phi)^2,
    phi (1-phi) and phi^2, over rem_u, summed over its points.  The rule is
    exact for investments linear in rem_u, so the reply to a closed form is
    exact too.  With S =
    E_w[sigma pi] and M = E_w[mu pi], sbar = S - s sigma pi and mbar = M -
    s mu pi, so every term but those in sbar^2 and a row's own investment is
    one (K, 5) @ (5, m) product.  At s = 0 the own terms vanish and sbar = S,
    so one body serves every law.  An interval's integral is kept at its left
    node, with 0 at the last node.

    These rules are exact along pi = c rem, where sbar, mbar and vbar are sb
    rem, mb rem and vb rem^2 (sb = E_w[sigma c] - s sigma c, and so on).  Then
    rem_u G = -ln lam(T-u) + g rem_u, g = -mu^2/(2 vol) + alpha sb + k mb +
    beta sb^2 + gamma vb, and h + ln lam = g f1 + f2, with f1 = R/rem, f2 =
    ln lam(T-t) - Lam/rem, and R, Lam the right-integrals of rows 1 and 0.
    So c rem and q = a f1 + b f2 map to c' = (delta mu + theta sigma sb) /
    (vol own) and (a', b') = -(delta/own) (g, 1) + (theta/own) (E_w[.] - s .):
    :meth:`reply` on (K, 1) and (K, 2) coefficients.  It stacks sigma c, mu
    c, nu^2 c^2, a and b into one (K, 5) array, so one competitor product
    takes every average, and each row's (c', a', b') is then one product of
    a (7, 3) map of the plan's constants with (1, sb, mb, vb, E_w[a] - s a,
    E_w[b] - s b, sb^2).

    The Simpson weights :attr:`quad` and the own-term factor :attr:`own_lin`,
    the (K, m) terms only a grid reply reads, are built when it first needs
    them.
    """

    def __init__(self, discount: DiscountFunction, grid: TimeGrid, p, w, s: float):
        times, T = grid.times, grid.T
        delta, theta, mu, nu, sigma = (p[k][:, None] for k in _FIELDS)
        self.grid, self.w, self.s = grid, w, s
        self.rem = T + 1.0 - times
        self.inv_rem = 1.0 / self.rem
        self.log_lam = discount.log_value(T - times)
        self.half_step = np.append(np.diff(times) / 2.0, 0.0)
        # Rows of the integrals of ln lam, rem_u, S, M and E_w[nu^2 Q[pi]].
        self.rows = np.zeros((5, times.size))
        self.rows[0, :-1] = -np.diff(discount.log_integral(times, T))
        self.rows[1, :-1] = self.half_step[:-1] * (self.rem[:-1] + self.rem[1:])
        # The intercept functions f1 and f2 of the coefficient form.
        self.f = np.stack([_right_integrals(self.rows[1]),
                           -_right_integrals(self.rows[0])]) / self.rem
        self.f[1] += self.log_lam
        vol, k = nu**2 + sigma**2, theta / delta
        alpha, beta, gamma = -mu * sigma * k / vol, k**2 * nu**2 / (2.0 * vol), k**2 * s / 2.0
        self.coef = np.hstack([-np.ones_like(mu), -mu**2 / (2.0 * vol), alpha, k, gamma])
        self.sums, self.minus_s_sigma = np.stack([w * sigma[:, 0], w * mu[:, 0]]), -s * sigma
        # Factors of vbar and sbar^2, and of the own-investment terms (0 at s = 0).
        self.w_nu2, self.beta, self.own_q = w * nu[:, 0]**2, beta, -s * gamma * nu**2
        self.own_rate = -s * (alpha * sigma + k * mu)
        own = 1.0 - theta * s
        self.pi_drift, self.vol_own = delta * mu, vol * own  # forced by rem, or 1
        self.pi_couple = theta * sigma
        self.q_own, self.q_couple = -(delta / own), theta / own
        # Coefficient form: each row's map from (1, sb, mb, vb, E_w[a] - s a,
        # E_w[b] - s b, sb^2) to (c', a', b').
        self.sigma_mu, self.nu2 = np.hstack([sigma, mu]), nu**2
        self.lin = np.zeros((len(w), 7, 3))
        self.lin[:, :2, 0] = np.hstack([self.pi_drift, self.pi_couple]) / self.vol_own
        self.lin[:, [0, 1, 2, 3, 6], 1] = self.q_own * np.hstack([self.coef[:, 1:], beta])
        self.lin[:, 4, 1] = self.lin[:, 5, 2] = self.q_couple[:, 0]
        self.lin[:, 0, 2] = self.q_own[:, 0]

    @cached_property
    def quad(self) -> np.ndarray:
        """The weights (A, B, C) of Q_j at each row's left nodes, (3, K m)."""
        times, T = self.grid.times, self.grid.T
        step, phi = np.diff(times)[:, None], np.linspace(0.0, 1.0, 5)
        u = times[:-1, None] + step * phi
        weights = step / 12.0 * np.array([1, 4, 2, 4, 1]) / (T + 1.0 - u)
        return np.array([np.tile(np.append(weights @ f, 0.0), len(self.w))
                         for f in ((1.0 - phi)**2, 2.0 * phi * (1.0 - phi), phi**2)])

    @cached_property
    def own_lin(self) -> np.ndarray:
        """The own linear terms' factor at both ends of every interval, flat."""
        return _pairs(self.own_rate * self.half_step)[0]

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
        seg = self._squares(pi)
        rows[4] = self.w_nu2 @ seg
        seg *= self.own_q
        flat, (left, right) = seg.reshape(-1)[:-1], _pairs(pi)
        flat += self.own_lin * left
        flat += self.own_lin * right
        seg += self.beta * self._squares(self._sbar(pi, sums[0]))
        seg += self.coef @ rows
        out = _right_integrals(seg)
        out /= self.rem
        return out

    def _reply_coefficients(self, c: np.ndarray, q: np.ndarray):
        """(c', (a', b')) of the reply to c rem and a f1 + b f2."""
        x = np.concatenate((self.sigma_mu * c, self.nu2 * c**2, q), axis=1)
        bar = self._competitor(x)  # sb, mb, vb, E_w[a] - s a and E_w[b] - s b
        terms = np.concatenate((np.ones_like(c), bar, bar[:, :1]**2), axis=1)
        new = np.matmul(terms[:, None], self.lin)[:, 0]
        return new[:, :1], new[:, 1:]

    def reply(self, pi: np.ndarray, q: np.ndarray,
              coefficients: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Best-reply investments and consumption intercepts of every row,
        on the grid or as coefficients."""
        if coefficients:
            return self._reply_coefficients(pi, q)
        sbar = self._sbar(pi, self.sums[0] @ pi)
        new_pi = (self.pi_drift * self.rem + self.pi_couple * sbar) / self.vol_own
        new_q = self.q_own * (self.h(pi) + self.log_lam)
        new_q += self.q_couple * self._competitor(q)
        return new_pi, new_q


def _expand(c: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows with coefficients c on one function (m,) or on two (2, m)."""
    return c * basis if basis.ndim == 1 else c @ basis


def _zero_coefficients(fields, bases) -> list | None:
    """Zero coefficients of each field on its basis of :func:`_expand`, if
    every entry of the fields is zero, else None."""
    if any(x.any() for x in fields):
        return None
    return [np.zeros(x.shape[:-1] + (b.shape[:-1] or (1,))) for x, b in zip(fields, bases)]


class _Space:
    """What the two games' reply maps share: one law's :class:`_ReplyPlan`,
    and rows held on the grid or as coefficients.

    (pi, q) = (c rem, a f1 + b f2) replies in that family (see the plan), and
    slopes c/rem reply as c'/rem: both games' slope maps are linear, node by
    node and forced by 1/rem alone (by 1 on coefficients).  The two pairs
    never read each other, so each runs on coefficients from zeros if every
    entry of its start rows is zero, and on the grid from any other start.
    The gap is the grid's sup: max|c' - c| max(b) on one positive function
    b, one (K, 2) @ (2, m) evaluation for q.  :meth:`expand` ends the run."""

    def __init__(self, plan: _ReplyPlan, blocks: _ClassProfile):
        self.plan = plan
        bases = (plan.rem, plan.f), (plan.inv_rem, plan.inv_rem)
        pi_q, slopes = (_zero_coefficients(fields, b)
                        for fields, b in zip((blocks[:2], blocks[2:]), bases))
        self.pi_q_form, self.slope_form = ("coefficients" if c else "grid"
                                           for c in (pi_q, slopes))
        self.bases = [*(bases[0] if pi_q else (None, None)),
                      *(bases[1] if slopes else (None, None))]
        self.scales = [1.0 if b is None or b.ndim == 2 else b.max() for b in self.bases]
        self.forcing = np.ones(1) if slopes else plan.inv_rem
        self._blocks = _ClassProfile(*(pi_q or blocks[:2]), *(slopes or blocks[2:]))

    def start(self) -> _ClassProfile:
        return self._blocks

    def gap(self, new: _ClassProfile, old: _ClassProfile) -> float:
        """The sweep's sup-norm change on the grid; raises if not finite."""
        gaps = []
        for a, b, basis, scale in zip(new, old, self.bases, self.scales):
            if basis is None:
                gaps.append(_sup_gap([(a, b)]))
                continue
            d = np.subtract(a, b)
            if basis.ndim == 2:
                d = d @ basis
            gaps.append(float(np.abs(d, out=d).max()) * scale)
        if not all(map(math.isfinite, gaps)):
            raise ValidationError("strategy samples must be finite")
        return float(max(gaps))

    def expand(self, blocks: _ClassProfile) -> _ClassProfile:
        return _ClassProfile(*(x if basis is None else _expand(x, basis)
                               for x, basis in zip(blocks, self.bases)))


class _ClassSpace(_Space):
    """The n-agent best-reply map on classes of exchangeable agents.

    The classes are the common refinement of the profile's classes and the
    agents' types, so ``start`` holds ``strategy`` exactly; a profile with
    one class per agent (built from dense arrays) runs on K = n
    classes.  Classes enter the competitor sums with their multiplicities
    (weights counts/n, own share 1/n in :class:`_ReplyPlan`).  With P_b =
    sum_a counts_a off[a, b] - off[b, b] + diag[b], scale_a the plan's
    competition factor theta_a / (1 - theta_a/n) over n, and off[a, a] held
    at 0 for a one-agent class, the slopes map to

        off'[a, b] = scale_a (P_b - off[a, b] - 1/rem),
        diag'[a]   = scale_a (P_a - diag[a]) + 1/rem.

    From zeros a sweep costs (K, K) coefficients and the (K, m) gap of q."""

    def __init__(self, pop: Population, discount: DiscountFunction,
                 strategy: GridStrategyN):
        if strategy.n_agents != pop.n:
            raise ValidationError("strategy and population sizes differ")
        n = pop.n
        labels, blocks = strategy.classes()
        self.labels, rep, self.counts = _refine(labels, *pop._params.values())
        self.grid, self._src = strategy.grid, labels[rep]
        self.law = {k: v[rep] for k, v in pop._params.items()}, self.counts / n, 1.0 / n
        super().__init__(_ReplyPlan(discount, self.grid, *self.law), blocks)
        self.scale = self.plan.q_couple / n
        # off' is scaled by scale_a, and off'[a, a] of a one-agent class held at 0.
        keep = np.repeat(self.scale, len(rep), axis=1)
        keep[np.diag_indices(len(rep))] *= self.counts > 1
        self.keep = keep[:, :, None]

    def start(self) -> _ClassProfile:
        """The profile on the classes."""
        return _restrict(self._blocks, self._src, self.counts)

    def reply(self, prof: _ClassProfile) -> _ClassProfile:
        pi, q = self.plan.reply(prof.pi, prof.q, self.pi_q_form == "coefficients")
        off, diag, forcing, K = prof.off, prof.diag, self.forcing, len(prof.off)
        p_col = (self.counts @ off.reshape(K, -1)).reshape(diag.shape)
        p_col -= off.reshape(K * K, -1)[::K + 1]  # off[b, b]
        p_col += diag
        new_off = np.subtract((p_col - forcing)[None], off)
        new_off *= self.keep
        return _ClassProfile(pi, q, self.scale * (p_col - diag) + forcing, new_off)

    def profile(self, blocks: _ClassProfile) -> GridStrategyN:
        return GridStrategyN._of_classes(self.grid, self.labels, self.expand(blocks))


def best_response_profile(pop: Population, discount: DiscountFunction,
                          strategy: GridStrategyN) -> GridStrategyN:
    """Simultaneous best reply of every agent to the given profile: one sweep."""
    return fixed_point_nagent(pop, discount, strategy, max_iter=1)[0]


def _picard(space: _Space, tol: float, max_iter: int):
    """Iterate ``space.reply`` from ``space.start()`` until one sweep moves
    the profile by at most ``tol`` in sup norm; non-convergence is reported,
    not raised.  Nothing else need hold the start, so a sweep can hold two
    profiles, not three.  Returns the last profile as the space holds it."""
    if not _real(tol, "tol") > 0:
        raise ValidationError(f"tol must be > 0 (got {tol!r})")
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise ValidationError(f"max_iter must be >= 1 and an integer (got {max_iter!r})")
    current = space.start()
    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new = space.reply(current)
        res = space.gap(new, current)
        history.append(res)
        current = new
        if res <= tol:
            converged = True
            break
    return current, IterationReport(iterations, history, converged, len(current.pi),
                                    space.slope_form, space.pi_q_form)


def fixed_point_nagent(pop: Population, discount: DiscountFunction,
                       init: GridStrategyN, tol: float = 1e-10,
                       max_iter: int = 500) -> tuple[GridStrategyN, IterationReport]:
    """Picard iteration of the simultaneous best-response map.

    Stops when the sup-norm change of one sweep drops to ``tol``;
    non-convergence is reported through the flag, not raised.  Each sweep's
    blocks are checked to be finite.
    """
    space = _ClassSpace(pop, discount, init)
    final, report = _picard(space, tol, max_iter)
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
        _check_finite(self.pi, self.p1, self.p2, self.q)

    @classmethod
    def zeros(cls, grid: TimeGrid, dist: TypeDistribution) -> "MFGridStrategy":
        K, m = dist.n_atoms, grid.n_points
        return cls(grid, dist, np.zeros((K, m)), np.zeros(m), np.zeros((K, m)),
                   np.zeros((K, m)))

    @classmethod
    def from_equilibrium(cls, eq: MeanFieldEquilibrium,
                         grid: TimeGrid) -> "MFGridStrategy":
        eq._check_grid(grid)
        pi, q, inv_rem = eq._sample(grid.times)
        return cls(grid, eq.dist, pi, inv_rem, np.zeros(pi.shape), q)

    def _rows(self) -> _ClassProfile:
        return _ClassProfile(self.pi, self.q, self.p1, self.p2)

    def sup_distance(self, other: "MFGridStrategy") -> float:
        return self._rows().sup_distance(other._rows())


class _MeanFieldSpace(_Space):
    """The mean-field best-reply map of a type law on its atoms.  With the
    shared own slope p1 in ``diag``, the slopes p2 on the average wealth in
    ``off`` and the plan's competition factor theta (as s = 0), p1' = 1/rem
    and p2' = theta (p1 + E_w[p2] - 1/rem)."""

    def __init__(self, dist: TypeDistribution, discount: DiscountFunction,
                 strategy: MFGridStrategy):
        if strategy.dist.n_atoms != dist.n_atoms:
            raise ValidationError("strategy and distribution atom counts differ")
        self.grid, self.dist = strategy.grid, strategy.dist
        super().__init__(_ReplyPlan(discount, self.grid, *_mfg_law(dist)), strategy._rows())

    def reply(self, prof: _ClassProfile) -> _ClassProfile:
        pi, q = self.plan.reply(prof.pi, prof.q, self.pi_q_form == "coefficients")
        p2 = self.plan.q_couple * (prof.diag + self.plan.w @ prof.off - self.forcing)[None, :]
        return _ClassProfile(pi, q, self.forcing, p2)

    def profile(self, blocks: _ClassProfile) -> MFGridStrategy:
        pi, q, p1, p2 = self.expand(blocks)
        return MFGridStrategy(self.grid, self.dist, pi, p1, p2, q)


def best_response_mfg(dist: TypeDistribution, discount: DiscountFunction,
                      strategy: MFGridStrategy) -> MFGridStrategy:
    """Best reply of every type to the per-atom profile: one sweep."""
    return fixed_point_mfg(dist, discount, strategy, max_iter=1)[0]


def fixed_point_mfg(dist: TypeDistribution, discount: DiscountFunction,
                    init: MFGridStrategy, tol: float = 1e-10,
                    max_iter: int = 500) -> tuple[MFGridStrategy, IterationReport]:
    """Picard iteration of the mean-field best-response map."""
    space = _MeanFieldSpace(dist, discount, init)
    final, report = _picard(space, tol, max_iter)
    return space.profile(final), report
