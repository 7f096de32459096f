"""Monte Carlo engine: wealth-path simulation, payoff estimation, spike tests.

The closed-loop wealth system under a deterministic-investment / affine-
consumption strategy profile is a linear SDE,

    dX_i = (pi_i(t) mu_i - C_i(t, X)) dt + pi_i(t) nu_i dW_i + pi_i(t) sigma_i dB,

simulated with Euler-Maruyama.  Because the diffusion coefficients are
state-independent, the law of X_t is Gaussian; under the closed-form
equilibrium :func:`gaussian_moments` gives it exactly, an oracle for the
sampled paths.  The Euler scheme itself is a linear Gaussian recursion, so
:class:`_EulerScheme` gives its exact law at the simulated dt for any strategy.
Expected payoffs are Monte Carlo estimates; spike-perturbation differences
are estimated with common random numbers: a perturbed control changes only
the deviating agent's own consumption on the spike window and shifts her
terminal wealth, so the payoff difference is computed path by path from one
base simulation.  That simulation stops where the longest spike window
closes, and each window is priced where it closes: the terminal utility
there is its conditional expectation given the wealth, priced on the Euler
law, and the base payoff is the law's exact one.

A strategy's ``consumption_at`` gives the class form ``(labels, own, off,
q)``: agent i consumes own[i] X_i + q[i] plus off[labels[i], labels[k]] X_k
for every other agent k, where off (K, K) holds the slopes between the K
classes, 0 on the diagonal of a one-agent class.

One scheme, built once per simulation, samples the paths of
:func:`simulate_paths` and of the payoff simulations, and one sampler loop
steps any number of schemes as one stacked (J, n, B) state on one chunk of
paths, one NumPy call per operation a step; a lone simulation is J = 1.  Every
sampler cuts its paths into chunks of a fixed width, whatever the thread
count, and chunk i draws from substream i of ``SeedSequence(seed)``: each
step, (B, d) standard normals, one column per factor that loads, as
:func:`_unit_loading` lays them out, negated for the mirrored paths of an
antithetic run.  Pool threads take whole chunks; each chunk reduces its
per-path values to counts, means and sums of squared deviations, which
merge in chunk order, so results do not depend on the thread count.
"""

from __future__ import annotations

import numbers
from collections import deque
from collections.abc import Sized
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._util import thread_count
from .core import TypeDistribution, ValidationError, _check_times, _real
from .discount import DiscountFunction
from .mfg import MeanFieldEquilibrium
from .nagent import NAgentEquilibrium, Population

__all__ = [
    "PathBundle",
    "PayoffEstimate",
    "SimConfig",
    "SpikeGridReport",
    "SpikeResult",
    "MeanFieldConsistencyReport",
    "expected_payoff",
    "export_paths_csv",
    "gaussian_moments",
    "meanfield_consistency",
    "simulate_paths",
    "spike_grid",
]

# Exponent clamp keeping exp() inside double range; clamped samples counted.
EXP_CLAMP = 700.0

# Bound on spike perturbations (the definition requires bounded v).
V_BOUND = 10.0

# Largest path bundle, in bytes, that simulate_paths allocates.
MAX_BUNDLE_BYTES = 2 * 2**30

# Evenly spaced Euler nodes at which meanfield_consistency reports its gaps.
MF_CHECKPOINTS = 9

# Elements of a path chunk's buffers.  A chunk draws _BLOCK_ELEMENTS // (3n + 1)
# paths, 16384 at n = 2; the divisor is kept as it is because the chunk width
# fixes which paths each seed's substreams draw.  Node blocks of the exact law
# stay within it too.
_BLOCK_ELEMENTS = 7 << 14

# Most spike times stacked into one state on one chunk's draws at a time.
_GROUP_TIMES = 4

# Rows that export_paths_csv formats in one block.
_CSV_BLOCK_ROWS = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo configuration: path count, Euler step, seed, antithetic flag."""

    n_paths: int
    dt: float
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        for name, low in (("n_paths", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= low):
                raise ValidationError(f"sim field {name!r} must be an integer >= {low} "
                                      f"(got {value!r})")
        if self.n_paths > 2**45:
            raise ValidationError(f"sim field 'n_paths' must be at most 2**45, one double a "
                                  f"path in a 2**48-byte address space (got {self.n_paths!r})")
        dt = self.dt
        if isinstance(dt, bool) or not isinstance(dt, numbers.Real) or not 0 < dt < np.inf:
            raise ValidationError(f"sim field 'dt' must be a finite number > 0 (got {dt!r})")
        if self.antithetic and self.n_paths % 2:
            raise ValidationError("antithetic sampling needs an even n_paths")


@dataclass
class PathBundle:
    """Recorded wealth/consumption paths."""

    times: np.ndarray            # (m,)
    wealth: np.ndarray           # (n_paths, m, n)
    consumption: np.ndarray      # (n_paths, m, n)
    seed: int

    @property
    def n_paths(self) -> int:
        return self.wealth.shape[0]

    @property
    def n_agents(self) -> int:
        return self.wealth.shape[2]


def _euler_times(t0: float, horizon: float, dt: float):
    t0, horizon = _real(t0, "the start time t0"), _real(horizon, "the horizon")
    if not 0 <= t0 < np.inf:
        raise ValidationError(f"the start time t0 must be finite and >= 0 (got {t0!r})")
    if not abs(horizon) < np.inf:
        raise ValidationError(f"the horizon must be finite (got {horizon!r})")
    span = horizon - t0
    if dt > span + 1e-12:
        raise ValidationError("dt exceeds the simulation horizon")
    steps = max(1, int(round(span / dt)))
    dt_eff = span / steps
    times = t0 + dt_eff * np.arange(steps + 1)
    times[-1] = horizon
    return times, dt_eff, steps


def _numbers(values, name: str, dtype=None, ndim: int = 1) -> list:
    """``values``, ``ndim`` nested lists of Python numbers, cast to ``dtype``
    if given; a ValidationError names ``name`` if an entry is not a number
    (a string, None or a bool) or is nested deeper."""
    try:
        array = np.asarray(values)
    except ValueError:  # rows of different lengths
        array = None
    if array is None or array.dtype.kind not in "iuf" or array.ndim != ndim:
        raise ValidationError(f"spike_grid {name} must be numbers")
    return array.astype(dtype or array.dtype).tolist()


def _x0_vector(x0, n: int) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    x0 = np.full(n, float(x0)) if x0.ndim == 0 else x0.copy()
    if x0.shape != (n,) or not np.isfinite(x0).all():
        raise ValidationError(f"x0 must be a finite scalar or length-{n} vector")
    return x0


def _chunks(n: int, cfg: SimConfig):
    """``(chunk, drawn, paths)`` of each chunk in order: its index, the count
    of paths it draws, and the paths of its state's columns, those of an
    antithetic run's mirrors (path n_paths/2 + p mirrors p) after them.  A
    chunk draws about _BLOCK_ELEMENTS // (3n + 1) paths, and two or more (a
    lone last path joins the chunk before): on one path the products would
    take BLAS routines that round differently."""
    total = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    width = max(2, _BLOCK_ELEMENTS // (3 * n + 1))
    count = max(1, -(-(total - 1) // width))
    for chunk in range(count):
        lo = chunk * width
        paths = np.arange(lo, total if chunk == count - 1 else lo + width)
        yield chunk, paths.size, np.append(paths, paths + total) if cfg.antithetic else paths


def _pooled(run, n: int, cfg: SimConfig):
    """``run(chunk, drawn, paths)`` of every chunk of :func:`_chunks`, yielded
    in chunk order.  Threads of a pool capped by RELPERF_THREADS take whole
    chunks, a few ahead of the caller, under the caller's NumPy error state
    (it is per thread); a worker's error reaches the caller."""
    errors = np.geterr()

    def task(chunk):
        with np.errstate(**errors):
            return run(*chunk)

    threads = thread_count()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = deque()
        for chunk in _chunks(n, cfg):
            ahead.append(pool.submit(task, chunk))
            if len(ahead) > threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _unit_loading(p) -> np.ndarray:
    """Each agent's noise per unit of investment on the drawn normals, (n, d):
    nu_i in the column of agent i's W_i, sigma_i in the common B's.  Only the
    factors that load are drawn: the W_i of each agent with nu_i != 0, in
    agent order, then B if some sigma_i != 0."""
    unit = np.column_stack([np.diag(p["nu"]), p["sigma"]])
    return unit[:, unit.any(axis=0)]


def _scan(a: np.ndarray, u: np.ndarray):
    """Prefix compositions of the elementwise affine maps y -> a[k] y + u[k],
    k = 0, 1, ...: ``(A, U)`` with y_{k+1} = A[k] y_0 + U[k], by doubling
    (log2 of the length passes, no division)."""
    a, u = a.copy(), u.copy()
    s = 1
    while s < len(a):
        u[s:] += a[s:] * u[:-s]
        a[s:] *= a[:-s]
        s *= 2
    return a, u


class _EulerScheme:
    """Euler-Maruyama scheme of the closed-loop wealth on ``times``, and its
    exact law.

    One step is X_{k+1} = D_k X_k + b_k + L_k Z, with D_k = I - dt C_k for
    the consumption slopes C_k, b_k = (pi_k mu - q_k) dt and L_k = diag(pi_k)
    unit sqrt(dt), so every X_k is Gaussian and every CARA utility of an
    affine function of it has a closed expectation.  :meth:`lockstep` samples
    the recursion, :meth:`tails` and :meth:`exponents` give its law.  C_k is
    applied in the class form, so no (n, n) slopes are built; at a node
    without cross slopes D_k is the diagonal ``decay`` 1 - dt own_k.
    """

    def __init__(self, pop: Population, strategy, times: np.ndarray, dt: float):
        p = pop._params
        self.dt, self.steps = dt, times.size - 1
        self.PI = strategy.pi_at(times)  # (steps+1, n)
        self.lab, self.own, self.off, self.q = strategy.consumption_at(times)
        self.cross = self.off.any(axis=(1, 2))
        self.decay = 1.0 - dt * self.own
        self.b = (self.PI * p["mu"] - self.q) * dt
        self.pi_sqdt = self.PI * np.sqrt(dt)
        self.unit = _unit_loading(p)
        self.order = np.argsort(self.lab, kind="stable")
        self.starts = np.flatnonzero(np.diff(self.lab[self.order], prepend=-1))

    def slopes(self, k: int, Y: np.ndarray, out=None, transpose: bool = False) -> np.ndarray:
        """C_k Y, or C_k' Y, for Y of shape (n, r), into ``out`` if given: own Y
        plus, at a nonzero cross slope, (off @ S)[labels] less the own term,
        where S holds the (K, r) class sums of Y."""
        off = self.off[k].T if transpose else self.off[k]
        out = np.multiply(self.own[k][:, None], Y, out=out)
        if self.cross[k]:
            out += (off @ np.add.reduceat(Y[self.order], self.starts))[self.lab]
            out -= np.diagonal(off)[self.lab][:, None] * Y
        return out

    def utility_rows(self, e: np.ndarray, lo: int, hi: int):
        """``(F, s)`` with e c_k = F[k - lo] X_k + s[k - lo] for the rows of e
        at the nodes lo <= k < hi: the (hi - lo, r, n) rows e C_k and the
        (hi - lo, r) intercepts e q_k."""
        F = e * self.own[lo:hi, None, :]
        for k in lo + np.flatnonzero(self.cross[lo:hi]):
            F[k - lo] = self.slopes(k, e.T, transpose=True).T
        return F, self.q[lo:hi] @ e.T

    def _runs(self, lo: int, hi: int, rows: int):
        """``[a, b)`` node ranges that cover lo..hi in order: each node with
        cross slopes alone, the others in runs whose (b - a, n, n + rows)
        arrays stay within _BLOCK_ELEMENTS."""
        n = self.own.shape[1]
        width = max(1, _BLOCK_ELEMENTS // (n * (n + rows)))
        cuts = lo + np.flatnonzero(self.cross[lo:hi])
        edges = np.union1d([lo, hi], np.concatenate([cuts, cuts + 1])).tolist()
        for a, b in zip(edges, edges[1:]):
            for c in range(a, b, width):
                yield c, min(b, c + width)

    @staticmethod
    def lockstep(schemes: Sequence[_EulerScheme], stops: Sequence[int], x0: np.ndarray,
                 cfg: SimConfig, chunk: int, drawn: int):
        """Sampled states of the J ``schemes`` of one population from x0 on
        the B paths of a chunk that draws ``drawn`` (B = 2 drawn if
        antithetic), scheme j to node ``stops[j]``; the stops must not
        increase, so the schemes still running are a prefix.  Yields ``(k, m,
        X, Z)`` per node k to stops[0]: the C-ordered (J, n, B) wealth, the
        count m of schemes that step on from k, and the (B, d) normals moving
        them, in the columns of ``unit`` (None at the last node), from
        substream ``chunk`` of ``cfg.seed``, negated for the mirrors.  Each
        step loads the normals once as W = unit Z' and moves X[:m] in place,
        X = D_k X + b_k + L_k Z, one call per operation: the decay, or the
        slopes on the slice of a scheme with cross slopes at k, then pi(t_k)
        sqrt(dt) W, then b_k.  Every element takes the operations of a
        one-scheme run in its order, so a scheme's paths are bit for bit
        those it has alone.  Buffers are reused, so copy what must outlive
        the node."""
        J, n, B = len(schemes), x0.size, 2 * drawn if cfg.antithetic else drawn
        last = stops[0]
        coef = np.zeros((3, last, J, n))  # decay, pi_sqdt and b of each scheme to its stop
        cross = np.zeros(last, dtype=bool)  # a live scheme has cross slopes
        for j, (s, stop) in enumerate(zip(schemes, stops)):
            coef[:, :stop, j] = s.decay[:stop], s.pi_sqdt[:stop], s.b[:stop]
            cross[:stop] |= s.cross[:stop]
        decay, pi_sqdt, b = coef
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(chunk,)))
        X, dX = np.empty((J, n, B)), np.empty((J, n, B))
        X[...] = x0[:, None]
        W, Z = np.empty((n, B)), np.empty((B, schemes[0].unit.shape[1]))
        m = J
        for k in range(last + 1):
            while m and stops[m - 1] <= k:
                m -= 1
            if not m:
                yield k, m, X, None
                return
            rng.standard_normal(out=Z[:drawn])
            if cfg.antithetic:
                np.negative(Z[:drawn], out=Z[drawn:])
            np.matmul(schemes[0].unit, Z.T, out=W)
            yield k, m, X, Z
            if cross[k]:
                for j, s in enumerate(schemes[:m]):
                    if s.cross[k]:
                        s.slopes(k, X[j], out=dX[j])
                        dX[j] *= s.dt
                        X[j] -= dX[j]
                    else:
                        X[j] *= decay[k, j, :, None]
            else:
                X[:m] *= decay[k, :m, :, None]
            np.multiply(pi_sqdt[k, :m, :, None], W, out=dX[:m])
            X[:m] += dX[:m]
            X[:m] += b[k, :m, :, None]

    def tails(self, e: np.ndarray, stops) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """``{w: (g, h)}`` with E[exp(e X_T) | X_w] = exp(g X_w + h) for each
        row of e and each node w of ``stops``, from one backward pass:
        g_k = D_k' g_{k+1}, h_k = h_{k+1} + g_{k+1} b_k + |L_k' g_{k+1}|^2 / 2,
        over a run of diagonal D_k a reversed cumulative product and sum."""
        g, h = e.copy(), np.zeros(len(e))
        out = {self.steps: (g.copy(), h.copy())} if self.steps in stops else {}
        for lo, hi in reversed(list(self._runs(min(stops), self.steps, len(e)))):
            if self.cross[lo]:
                G = (g - self.dt * self.slopes(lo, g.T, transpose=True).T)[None]
            else:
                G = g * np.cumprod(self.decay[lo:hi][::-1], axis=0)[::-1, None, :]
            after = np.concatenate([G[1:], g[None]])  # g_{k+1} at each node k
            lg = (after * self.PI[lo:hi, None, :]) @ self.unit  # L_k' g_{k+1} / sqrt(dt)
            step = (after @ self.b[lo:hi, :, None])[..., 0]
            step += 0.5 * self.dt * np.square(lg).sum(axis=2)
            H = h + np.cumsum(step[::-1], axis=0)[::-1]
            out.update((w, (G[w - lo].copy(), H[w - lo].copy()))
                       for w in stops if lo <= w < hi)
            g, h = G[0], H[0]
        return out

    def exponents(self, e: np.ndarray, x0: np.ndarray) -> np.ndarray:
        """(r, steps + 1) exponents a with E[exp(e c_k)] = exp(a[:, k]) at each
        node k < steps and E[exp(e X_T)] = exp(a[:, -1]), for the rows of e,
        from the mean m and covariance P carried forward from x0, over a run
        of diagonal D_k by :func:`_scan`."""
        dt = self.dt
        m, P = x0.copy(), np.zeros((x0.size, x0.size))
        out = np.empty((len(e), self.steps + 1))

        def log_mgf(F, s, m, P):  # log E[exp(F X + s)] for X ~ N(m, P), per node
            return (F @ m[..., None])[..., 0] + s + 0.5 * np.einsum("...ij,...jk,...ik->...i",
                                                                    F, P, F)

        for lo, hi in self._runs(0, self.steps, len(e)):
            load = self.PI[lo:hi, :, None] * self.unit
            cov = dt * (load @ load.transpose(0, 2, 1))  # L_k L_k'
            if self.cross[lo]:
                ms, Ps = m[None], P[None]
                m = m + self.b[lo] - dt * self.slopes(lo, m[:, None])[:, 0]
                P = P - dt * self.slopes(lo, P)
                Pt = P.T  # D (D P)' = D P D', written back through the view
                Pt -= dt * self.slopes(lo, Pt)
                P += cov[0]
            else:
                d = self.decay[lo:hi]
                A, U = _scan(d, self.b[lo:hi])
                ms = np.concatenate([m[None], A * m + U])
                A, U = _scan(d[:, :, None] * d[:, None, :], cov)
                A *= P
                A += U
                Ps = np.concatenate([P[None], A])
                ms, m, Ps, P = ms[:-1], ms[-1], Ps[:-1], Ps[-1]
            out[:, lo:hi] = log_mgf(*self.utility_rows(e, lo, hi), ms, Ps).T
        out[:, -1] = log_mgf(e, 0.0, m, P)
        return out


def simulate_paths(pop: Population, strategy, t0: float, x0, horizon: float,
                   cfg: SimConfig, record_times=None) -> PathBundle:
    """Euler-Maruyama paths of the closed-loop wealth system.

    Parameters
    ----------
    strategy : object with ``pi_at`` / ``consumption_at``
        Any sampled or closed-form strategy profile.
    record_times : array-like, optional
        Times in [t0, horizon] at which wealth/consumption are stored
        (snapped to the Euler grid; defaults to every Euler node).
        Consumption is recorded as the feedback value C(t, X_t) at left
        endpoints, including t = horizon.
        A bundle larger than ``MAX_BUNDLE_BYTES`` is refused with a ValidationError.

    Identical inputs and seed produce a bit-identical bundle.
    """
    n = pop.n
    x0 = _x0_vector(x0, n)
    times, dt, _ = _euler_times(t0, horizon, cfg.dt)

    record = times if record_times is None else np.atleast_1d(
        _check_times(record_times, t0, horizon))
    rec_idx = np.unique(np.round((record - t0) / dt).astype(int))
    rec_pos = {int(k): j for j, k in enumerate(rec_idx)}

    N = cfg.n_paths
    size = 8 * N * 2 * rec_idx.size * n
    if size > MAX_BUNDLE_BYTES:
        raise ValidationError(
            f"the path bundle would take {size / 2**30:.3g} GiB, over the "
            f"{MAX_BUNDLE_BYTES / 2**30:.3g} GiB limit: record fewer times or paths")
    wealth = np.empty((N, rec_idx.size, n))
    cons = np.empty((N, rec_idx.size, n))

    scheme = _EulerScheme(pop, strategy, times, dt)

    def record(chunk: int, drawn: int, paths: np.ndarray) -> None:
        for k, _, (X,), _ in _EulerScheme.lockstep([scheme], [scheme.steps], x0, cfg,
                                                    chunk, drawn):
            j = rec_pos.get(k)
            if j is not None:
                wealth[paths, j, :] = X.T
                c = scheme.slopes(k, X)
                c += scheme.q[k][:, None]
                cons[paths, j, :] = c.T

    for _ in _pooled(record, n, cfg):
        pass

    return PathBundle(times=times[rec_idx], wealth=wealth, consumption=cons,
                      seed=cfg.seed)


def gaussian_moments(pop: Population, strategy, t0: float, x0, times, horizon: float):
    """Exact Gaussian law of the closed-loop wealth at the query times.

    Only the closed form has one here: under an NAgentEquilibrium, pi = a
    (T+1-t) and the consumption slope is 1/(T+1-t), so Y = X/(T+1-t) is a
    Brownian motion with drift.  The mean is the equilibrium's, with the
    population's mu, and Cov X(t) = (t - t0) (T+1-t)^2 K, K = outer(a sigma,
    a sigma) + diag((a nu)^2).  Any other strategy, a sampled profile
    included, is refused with a ValidationError.

    Returns ``(means, covs)`` of shapes (len(times), n) and (len(times), n, n).
    """
    if not t0 >= 0:
        raise ValidationError("the start time t0 must be >= 0")
    if not isinstance(strategy, NAgentEquilibrium):
        raise ValidationError(
            f"gaussian_moments needs an NAgentEquilibrium, got {type(strategy).__name__}: "
            "a sampled profile has no exact law here")
    if horizon != strategy.horizon:
        raise ValidationError(f"gaussian_moments needs the strategy's horizon "
                              f"{strategy.horizon!r} (got {horizon!r})")
    p = pop._params
    x0 = _x0_vector(x0, pop.n)
    query = np.atleast_1d(_check_times(times, t0, horizon))
    coef = strategy.coefficients
    means = strategy._mean_wealth(x0, t0, query, p["mu"])
    a_sig, a_nu = coef * p["sigma"], coef * p["nu"]
    K = np.multiply.outer(a_sig, a_sig) + np.diag(a_nu**2)
    scale = (query - t0) * (strategy.horizon + 1.0 - query) ** 2
    return means.T, np.multiply.outer(scale, K)


@dataclass
class PayoffEstimate:
    value: float
    std_error: float
    n_clamped: int
    n_paths: int


def _merge(a: tuple, b: tuple) -> tuple:
    """Count, mean and sum of squared deviations of two samples pooled."""
    (na, ma, sa), (nb, mb, sb) = a, b
    if na == 0:
        return b
    n = na + nb
    d = mb - ma
    return n, ma + d * (nb / n), sa + sb + d * d * (na * nb / n)


def _moments(values: np.ndarray) -> tuple:
    """Count, mean and sum of squared deviations of each row of (R, B)
    values, which are centred and squared in place."""
    mean = values.mean(axis=1)
    values -= mean[:, None]
    np.square(values, out=values)
    return values.shape[1], mean, values.sum(axis=1)


def _clamp(arg: np.ndarray) -> int:
    """Clip exponents to +-EXP_CLAMP in place; the count of clipped ones and NaN."""
    if (np.minimum.reduce(arg, axis=None) >= -EXP_CLAMP
            and np.maximum.reduce(arg, axis=None) <= EXP_CLAMP):
        return 0
    clipped = np.clip(arg, -EXP_CLAMP, EXP_CLAMP)
    count = int(np.count_nonzero(clipped != arg))
    arg[...] = clipped
    return count


class _PayoffSim:
    """One closed-loop base simulation from t0 with the bookkeeping that
    prices spike perturbations of the A priced ``agents`` in the directions
    ``vs`` by common random numbers.  It holds what every chunk of paths
    shares, read-only; :class:`_PayoffChunk` runs it on a chunk, stacked
    with the other times of its group.

    Without spike windows the paths run to the horizon and each path's
    payoff, terminal utility included, is its running payoff there.  With
    them the paths stop where the longest window closes, and each window is
    priced at its own close, node w: after it a spike changes only the
    terminal wealth, by an amount known at w, so the terminal utility is its
    conditional expectation -E[exp(e X_T) | X_w] from
    :meth:`_EulerScheme.tails`.  There the payoff change of every (agent, v)
    spike reduces to the chunk's moments of the window's rows.  ``base``
    holds the priced agents' expected payoffs from the exact law of the
    Euler scheme at the same dt, and ``n_clamped`` its clamped exponents."""

    def __init__(self, pop: Population, discount: DiscountFunction, strategy,
                 t0: float, x0, horizon: float, cfg: SimConfig, agents: Sequence[int],
                 eps_list: Sequence[float] = (), vs: Sequence[tuple[float, float]] = ()):
        n = pop.n
        p = pop._params
        self.x0 = _x0_vector(x0, n)
        times, dt, steps = _euler_times(t0, horizon, cfg.dt)
        self.mu, self.vs, self.n_clamped = p["mu"], vs, 0
        bad = [a for a in agents if not (0 <= a < n and a == int(a))]
        if bad:
            raise ValidationError(f"agent index {bad[0]} out of range for n={n}")
        self.priced = np.array(sorted(set(agents)), dtype=int)
        self.row = {int(a): r for r, a in enumerate(self.priced)}

        # Row r of expo applied to (n, B) values gives agent priced[r]'s
        # exponent; a zero row pads one priced agent to two, since BLAS's
        # vector-matrix routine rounds a path's exponent by its place in a chunk.
        A = self.priced.size
        self.own_coef = -(1.0 - p["theta"] / n) / p["delta"]
        self.expo = np.zeros((max(A, 2), n))
        self.expo[:A] = (p["theta"] / p["delta"] / n)[self.priced, None]
        self.expo[np.arange(A), self.priced] = self.own_coef[self.priced]
        # Nodes in a block of utility rows, (block, max(A, 2), n) elements.
        self.block = max(1, _BLOCK_ELEMENTS // self.expo.size)

        self.eps_steps = [int(round(eps / dt)) for eps in eps_list]
        for eps, ks in zip(eps_list, self.eps_steps):
            if ks < 1 or ks > steps:
                raise ValidationError(f"eps={eps} not representable on the Euler grid")
        self.eps_eff = [ks * dt for ks in self.eps_steps]

        self.lam_dt = discount.value(times[:-1] - t0) * dt
        self.lam_T = float(discount.value(horizon - t0))

        # The paths stop where the last spike window closes, if any; at the
        # horizon the tail is the identity.
        self.scheme = scheme = _EulerScheme(pop, strategy, times, dt)
        self.stop = max(self.eps_steps, default=0) or steps
        self.tails = {w: (g, h[:A, None]) for w, (g, h)
                      in scheme.tails(self.expo, set(self.eps_steps) or {steps}).items()}
        if eps_list:
            expos = scheme.exponents(self.expo[:A], self.x0)
            self.n_clamped = _clamp(expos)
            self.base = -(np.exp(expos) @ np.append(self.lam_dt, self.lam_T))

        # Window noise sums, only of the Z columns that the priced agents
        # load, and their loads times sqrt(dt).
        unit = scheme.unit[self.priced]
        cols = np.flatnonzero(unit.any(axis=0))
        self.take = slice(None) if cols.size == unit.shape[1] else cols
        self.unit = unit[:, cols] * np.sqrt(dt)

        # The directions as (V, 1) columns.  After the first ``lead`` rows
        # every v1 is 0, so a (window, agent)'s terminal factor is the same
        # on every path: its clamp and expm1 are taken here, unless it is 0,
        # whose sign the paths would set.
        self.v1, self.v2 = (np.array([v[i] for v in vs])[:, None] for i in (0, 1))
        self.lead = max((r + 1 for r, v in enumerate(vs) if v[0] != 0), default=0)
        fixed = (self.own_coef[self.priced, None, None]
                 * (self.v1[self.lead:] * self.mu[self.priced, None, None] - self.v2[self.lead:])
                 * np.array(self.eps_eff)[:, None, None, None])  # (E, A, V - lead, 1)
        if (fixed == 0).any():
            self.lead, fixed = len(vs), fixed[:, :, :0]
        clipped = np.clip(fixed, -EXP_CLAMP, EXP_CLAMP)
        self.fixed_clamps = np.count_nonzero(clipped != fixed, axis=(1, 2, 3))
        self.fixed = np.expm1(clipped)

    def window_buffers(self, width: int):
        """Window pricing's scratch for a chunk of ``width`` paths, which the
        chunk's groups of one grid share: the (A, B) window noise and one
        agent's (V, B) terminal factors and delta rows; None without windows."""
        if not self.eps_steps:
            return None
        A, V = self.priced.size, len(self.vs)
        return np.empty((A, width)), np.empty((V, width)), np.empty((V, width))


class _PayoffChunk:
    """The state on a chunk's B paths of J payoff simulations ``sims`` of one
    grid, ordered by stop, longest first, on the (J, n, B) stack of
    :meth:`_EulerScheme.lockstep`: the running payoffs ``run``, (J, A, B),
    and the exponents ``expo``, (J, A', B) with A' = max(A, 2), laid out so
    that the J A priced rows stay contiguous.  Each running-utility exponent
    is read from the wealth through the rows (e C_k, e q_k) of
    :meth:`_EulerScheme.utility_rows`, stacked a block of nodes at a time.
    Every time starts at node 0 of the chunk's draws, so one window noise
    sum ``cumZ`` serves them all.  ``rows[j][e]`` gets the moments of the
    deltas of window e of time j, one per priced agent (without windows, of
    its payoffs), and ``n_clamped`` counts the clamped exponents."""

    def __init__(self, sims: Sequence[_PayoffSim], width: int, buffers):
        first, J, A = sims[0], len(sims), sims[0].priced.size
        A2 = first.expo.shape[0]
        self.sims, self.buffers, self.n_clamped = sims, buffers, 0
        self.run = np.zeros((J, A, width))
        self.expo = (np.empty((A2, J, width)).transpose(1, 0, 2) if A < A2
                     else np.empty((J, A2, width)))
        self.cumZ = np.zeros((width, first.unit.shape[1])) if first.eps_steps else None
        self.rows = [[None] * max(1, len(sim.eps_steps)) for sim in sims]
        self.lam = np.zeros((first.stop, J))
        # (time, window) priced at each node; window None: the terminal utility
        self.closes = {}
        for j, sim in enumerate(sims):
            self.lam[:sim.stop, j] = -sim.lam_dt[:sim.stop]
            for e, w in enumerate(sim.eps_steps or [sim.stop]):
                self.closes.setdefault(w, []).append((j, e if sim.eps_steps else None))

    def visit(self, k: int, m: int, X: np.ndarray, Z) -> None:
        """Node k of the stack: price the windows that close there, or at a
        stop without windows the terminal utility, each on its time's slice
        of X; then add the running utility of the m times that step on and
        the window noise of the step that Z takes."""
        for j, e in self.closes.get(k, ()):
            if e is None:
                u = self._tail(j, k, X[j])
                u *= -self.sims[j].lam_T
                self.run[j] += u
                self.rows[j][0] = [_moments(self.run[j].copy())]
            else:
                self.rows[j][e] = [_moments(rows) for rows
                                   in self._deltas(j, e, *self._window(j, e, X[j]))]
        if not m:
            return
        A, i = self.run.shape[1], k % self.sims[0].block
        if i == 0:
            self._utility_rows(k, m)
        u = self.expo[:m, :A]
        np.matmul(self.F[i, :m], X[:m], out=self.expo[:m])
        u += self.s[i, :m, :A, None]
        self.n_clamped += _clamp(u)
        np.exp(u, out=u)
        u *= self.lam[k, :m, None, None]
        self.run[:m] += u
        if self.cumZ is not None:
            self.cumZ += Z[:, self.sims[0].take]

    def _utility_rows(self, k: int, m: int) -> None:
        """Stack the utility rows (F, s) of the block of nodes from k of the
        first m times, each to its own stop."""
        first = self.sims[0]
        size = min(first.block, first.stop - k)
        self.F = np.empty((size, m, *first.expo.shape))
        self.s = np.empty((size, m, first.expo.shape[0]))
        for j, sim in enumerate(self.sims[:m]):
            hi = min(k + first.block, sim.stop)
            self.F[:hi - k, j], self.s[:hi - k, j] = sim.scheme.utility_rows(sim.expo, k, hi)

    def _tail(self, j: int, w: int, X: np.ndarray) -> np.ndarray:
        """E[exp(e X_T) | X_w] of time j on its slice X of the stack, for the
        priced agents, clamped, in time j's exponent rows."""
        g, h = self.sims[j].tails[w]
        np.matmul(g, X, out=self.expo[j])
        u = self.expo[j, :self.run.shape[1]]
        u += h
        self.n_clamped += _clamp(u)
        return np.exp(u, out=u)

    def _window(self, j: int, e: int, X: np.ndarray):
        """At the close of window e of time j, the priced agents' running
        payoff, window noise nu dW + sigma dB and terminal utility
        -E[exp(e X_T) | X_w] on the chunk's paths, each (A, B)."""
        sim = self.sims[j]
        term = self._tail(j, sim.eps_steps[e], X)
        np.negative(term, out=term)
        return self.run[j], np.matmul(sim.unit, self.cumZ.T, out=self.buffers[0]), term

    def _deltas(self, j: int, e: int, run: np.ndarray, noise: np.ndarray, term: np.ndarray):
        """Per-path payoff change (CRN-exact) of the spike in each direction v
        on window e of time j: yields each priced agent's (V, B) rows, one per
        v, in the chunk's buffers."""
        sim = self.sims[j]
        eps, lead = sim.eps_eff[e], sim.lead
        v1, v2 = sim.v1[:lead], sim.v2[:lead]
        _, fac_T, out = self.buffers
        self.n_clamped += out.shape[1] * int(sim.fixed_clamps[e])
        for r, agent in enumerate(sim.priced):
            own = sim.own_coef[agent]
            # fac_T, in place of the spike's terminal wealth shift dx
            if lead:
                fac = fac_T[:lead]
                np.multiply(own * v1, noise[r], out=fac)
                fac += own * (v1 * sim.mu[agent] - v2) * eps
                self.n_clamped += _clamp(fac)
                np.expm1(fac, out=fac)
            fac_T[lead:] = sim.fixed[e, r]
            fac_T *= sim.lam_T * term[r]
            np.multiply(run[r], np.expm1(own * sim.v2), out=out)
            out += fac_T
            yield out


def _simulate(sims: Sequence[_PayoffSim], cfg: SimConfig, chunk: int, drawn: int,
              buffers) -> _PayoffChunk:
    """The chunk state of the payoff simulations ``sims`` from one x0,
    ordered by stop, longest first, run as one stack on the draws of chunk
    ``chunk``, windows priced in ``buffers``."""
    state = _PayoffChunk(sims, 2 * drawn if cfg.antithetic else drawn, buffers)
    for node in _EulerScheme.lockstep([sim.scheme for sim in sims], [sim.stop for sim in sims],
                                      sims[0].x0, cfg, chunk, drawn):
        state.visit(*node)
    return state


def _payoff_rows(sims: Sequence[_PayoffSim], cfg: SimConfig):
    """Each mean and standard error (0 for one path) of the rows of the
    payoff simulations ``sims`` of one grid, one after another, from their
    moments merged over the chunks of paths in chunk order, and the
    exponents that the chunks clamped.  On each chunk, groups of at most
    _GROUP_TIMES simulations run in turn, each as one stack on the chunk's
    draws, and all of them price their windows in one set of buffers."""
    groups = [sorted(range(g, min(g + _GROUP_TIMES, len(sims))), key=lambda i: -sims[i].stop)
              for g in range(0, len(sims), _GROUP_TIMES)]

    def run(chunk: int, drawn: int, paths: np.ndarray) -> tuple[tuple, int]:
        rows, clamped, buffers = [None] * len(sims), 0, sims[0].window_buffers(paths.size)
        for group in groups:
            state = _simulate([sims[i] for i in group], cfg, chunk, drawn, buffers)
            for i, sim_rows in zip(group, state.rows):
                rows[i] = sim_rows
            clamped += state.n_clamped
        rows = [row for sim_rows in rows for window in sim_rows for row in window]
        return ((paths.size, *(np.concatenate([row[i] for row in rows]) for i in (1, 2))),
                clamped)

    (n, mean, ss), clamped = (0, None, None), 0
    for part, n_clamped in _pooled(run, sims[0].x0.size, cfg):
        (n, mean, ss), clamped = _merge((n, mean, ss), part), clamped + n_clamped
    return mean, np.sqrt(ss / (n - 1)) / np.sqrt(n) if n > 1 else np.zeros_like(mean), clamped


def expected_payoff(pop: Population, discount: DiscountFunction, strategy,
                    agent: int, t0: float, x0, horizon: float,
                    cfg: SimConfig) -> PayoffEstimate:
    """Monte Carlo estimate of agent ``agent``'s expected payoff from t0.

    The payoff discounts running utility of consumption by lam(s - t0) (left
    Riemann sums on the Euler grid) and terminal utility by lam(T - t0).
    Spike perturbations of the payoff are priced by :func:`spike_grid`.
    """
    if not _real(t0, "the start time t0") < _real(horizon, "the horizon"):
        raise ValidationError(f"payoff evaluation requires t0 < horizon (got t0={t0!r}, "
                              f"horizon={horizon!r})")
    sim = _PayoffSim(pop, discount, strategy, t0, x0, horizon, cfg, [agent])
    (value,), (se,), clamped = _payoff_rows([sim], cfg)
    return PayoffEstimate(float(value), float(se), clamped, cfg.n_paths)


@dataclass
class SpikeResult:
    time: float
    agent: int
    v: tuple[float, float]
    eps: float
    slope: float
    std_error: float
    significant_gain: bool

    def to_dict(self) -> dict:
        return {
            "t": self.time,
            "agent": self.agent,
            "v": list(self.v),
            "eps": self.eps,
            "slope": self.slope,
            "se": self.std_error,
            "significant_gain": self.significant_gain,
        }


@dataclass
class SpikeGridReport:
    results: list[SpikeResult]
    passed: bool
    base_payoffs: dict[float, dict[int, float]] = field(default_factory=dict)
    n_clamped: int = 0   # summed over the base simulations and their pricing

    def worst(self) -> SpikeResult | None:
        if not self.results:
            return None
        return max(self.results, key=lambda r: (r.slope - 3.0 * r.std_error))

    def to_dict(self) -> dict:
        return {
            "verdict": "PASS" if self.passed else "FAIL",
            "base_payoffs": {
                str(t): {str(a): j for a, j in by_agent.items()}
                for t, by_agent in self.base_payoffs.items()
            },
            "n_clamped": self.n_clamped,
            "results": [r.to_dict() for r in self.results],
        }


def spike_grid(pop: Population, discount: DiscountFunction, strategy,
               times: Sequence[float], vs: Sequence[tuple[float, float]],
               eps_list: Sequence[float], cfg: SimConfig, x0, horizon: float,
               agents: Sequence[int] | None = None) -> SpikeGridReport:
    """Spike tests over a grid of times, agents, and directions.

    One base simulation per time prices every (agent, v, eps) combination by
    common random numbers, and every time runs on the same draws: on each
    chunk of paths the times step as one stacked state, at most _GROUP_TIMES
    at once, so a time's rows are those of a one-time call, whatever the
    thread count.
    """
    agents = list(range(pop.n)) if agents is None else list(agents)
    for name, values in (("times", times), ("vs", vs), ("agents", agents)):
        if len(values) == 0:
            raise ValidationError(f"spike_grid needs at least one entry in {name}")
    if not all(isinstance(v, Sized) and len(v) == 2 for v in vs):
        raise ValidationError("each v must be a pair (v1, v2)")
    times, eps_list = _numbers(times, "times", float), _numbers(eps_list, "eps_list", float)
    vs = _numbers(vs, "vs", float, ndim=2)
    agents = _numbers(agents, "agents")
    if len(set(times)) < len(times):
        raise ValidationError("spike times must be distinct")
    if len(set(agents)) < len(agents):
        raise ValidationError("spike agents must be distinct")
    horizon = _real(horizon, "the horizon")
    # Each bound is written so that NaN fails it.
    if not all(0 <= t <= horizon for t in times):
        raise ValidationError("spike times must be >= 0 and <= the horizon")
    if not all(abs(x) <= V_BOUND for v in vs for x in v):
        raise ValidationError(f"v components must be finite with |v| <= {V_BOUND}")
    if len(eps_list) == 0 or not all(0 < e <= horizon - max(times) + 1e-12 for e in eps_list):
        raise ValidationError("eps values must be > 0 and <= horizon - t")
    # The directions with v1 = 0 go last, where _PayoffSim prices them once.
    order = sorted(range(len(vs)), key=lambda j: vs[j][0] == 0)
    sims = [_PayoffSim(pop, discount, strategy, t, x0, horizon, cfg, agents, eps_list,
                       [vs[j] for j in order]) for t in times]
    *stats, clamped = _payoff_rows(sims, cfg)
    mean, se = (x.reshape(len(times), len(eps_list), len(agents), len(vs))[..., np.argsort(order)]
                for x in stats)
    # Per time, the exact base payoff of each agent, then one row per (agent,
    # v, eps), significant above 3 standard errors plus 1e-2 of the base's size.
    rows, bases = [], {}
    for i, (t, sim) in enumerate(zip(times, sims)):
        bases[t] = {a: float(sim.base[sim.row[a]]) for a in agents}
        for a in agents:
            for j, v in enumerate(vs):
                for e, eps in enumerate(eps_list):
                    slope, err = (float(x[i, e, sim.row[a], j]) / sim.eps_eff[e]
                                  for x in (mean, se))
                    rows.append(SpikeResult(t, a, tuple(v), eps, slope, err,
                                            slope > 3.0 * err + 1e-2 * abs(bases[t][a])))
        clamped += sim.n_clamped
    return SpikeGridReport(rows, not any(r.significant_gain for r in rows), bases, clamped)


@dataclass
class CheckpointGap:
    time: float
    gap: float
    cross_se: float

    @property
    def ratio(self) -> float:
        return self.gap / self.cross_se if self.cross_se > 0 else np.inf


@dataclass
class MeanFieldConsistencyReport:
    m_agents: int
    max_gap: float
    predicted_scale: float
    wealth_checkpoints: list[CheckpointGap]
    consumption_checkpoints: list[CheckpointGap]

    def to_dict(self) -> dict:
        return {
            "m_agents": self.m_agents,
            "max_gap": self.max_gap,
            "predicted_scale": self.predicted_scale,
            "wealth": [vars(c) | {"ratio": c.ratio} for c in self.wealth_checkpoints],
            "consumption": [vars(c) | {"ratio": c.ratio}
                            for c in self.consumption_checkpoints],
        }


def meanfield_consistency(dist: TypeDistribution, discount: DiscountFunction,
                          m_agents: int, cfg: SimConfig, t0: float, x0,
                          horizon: float) -> MeanFieldConsistencyReport:
    """Finite-population check of the mean-field consistency condition.

    Simulates ``m_agents`` agents with i.i.d. types from ``dist`` sharing one
    common-noise path, each playing the mean-field equilibrium strategy of
    their type, and compares the cross-sectional mean wealth against the
    aggregate wealth SDE driven by the same common-noise realization.  The
    gap should scale like the cross-sectional standard error, i.e.
    O(m_agents^{-1/2}).  Of ``cfg`` only ``dt`` and ``seed`` are used, and
    ``n_paths`` must be 1 (so antithetic sampling is refused too).
    """
    if isinstance(m_agents, bool) or not isinstance(m_agents, numbers.Integral) \
            or m_agents < 100:
        raise ValidationError(f"meanfield_consistency needs an integer m_agents >= 100 "
                              f"(got {m_agents!r})")
    if cfg.n_paths != 1:
        raise ValidationError("meanfield_consistency simulates one path: it needs n_paths = 1")
    x0 = float(_x0_vector(x0, 1)[0])
    eq = MeanFieldEquilibrium(dist, discount, horizon)
    core = eq._core
    times, dt, steps = _euler_times(t0, horizon, cfg.dt)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))

    idx = rng.choice(dist.n_atoms, size=m_agents, p=dist.weights)
    mu, nu, sigma = (dist.field(name)[idx] for name in ("mu", "nu", "sigma"))
    coef = eq.coefficients[idx]
    q_atoms = np.asarray(eq.intercepts_at(times))       # (K, steps+1)
    e_q = dist.weights @ q_atoms
    rem = horizon + 1.0 - times
    checks = set(np.linspace(0, steps, MF_CHECKPOINTS).round().astype(int).tolist())

    X = np.full(m_agents, x0)
    xbar_ref = x0
    wealth_cp: list[CheckpointGap] = []
    cons_cp: list[CheckpointGap] = []
    max_gap = 0.0
    sqdt, sq_m = np.sqrt(dt), np.sqrt(m_agents)
    for k in range(steps + 1):
        gap = abs(float(X.mean()) - xbar_ref)
        max_gap = max(max_gap, gap)
        c_k = X / rem[k] + q_atoms[idx, k]
        if k in checks:
            wealth_cp.append(CheckpointGap(times[k], gap, float(X.std() / sq_m)))
            c_ref = xbar_ref / rem[k] + e_q[k]
            cons_cp.append(CheckpointGap(times[k], abs(float(c_k.mean()) - c_ref),
                                         float(c_k.std() / sq_m)))
        if k == steps:
            break
        pi_k = coef * rem[k]
        dB = rng.standard_normal() * sqdt
        dW = rng.standard_normal(m_agents) * sqdt
        X = X + (pi_k * mu - c_k) * dt + pi_k * nu * dW + pi_k * sigma * dB
        xbar_ref = xbar_ref + (core.e_mu * rem[k] - xbar_ref / rem[k] - e_q[k]) * dt \
            + core.e_sig * rem[k] * dB

    predicted = np.sqrt(max(core.e_nu2, 1e-300) * (horizon - t0)) / sq_m
    return MeanFieldConsistencyReport(m_agents, max_gap, float(predicted),
                                      wealth_cp, cons_cp)


def export_paths_csv(bundle: PathBundle, path, header_comment: str | None = None):
    """Write a bundle as CSV rows (path_id, t, agent_id, wealth, consumption),
    ordered by path, time and agent, in the dialect of ``csv.writer``.

    The cells of a block of whole paths are laid out as one object array
    and formatted by one ``%`` operation."""
    m, n = bundle.times.size, bundle.n_agents
    per_path = m * n
    block = max(1, min(bundle.n_paths, _CSV_BLOCK_ROWS // max(1, per_path)))
    cells = np.empty((block * per_path, 5), dtype=object)
    cells[:, 1] = np.tile(np.repeat([f"{t:.10g}" for t in bundle.times], n), block)
    cells[:, 2] = np.tile(np.arange(n), block * m)
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("path_id,t,agent_id,wealth,consumption\r\n")
        for lo in range(0, bundle.n_paths, block):
            hi = min(lo + block, bundle.n_paths)
            rows = cells[:(hi - lo) * per_path]
            rows[:, 0] = np.repeat(np.arange(lo, hi), per_path)
            rows[:, 3] = bundle.wealth[lo:hi].ravel()
            rows[:, 4] = bundle.consumption[lo:hi].ravel()
            fh.write("%d,%s,%d,%.12g,%.12g\r\n" * len(rows) % tuple(rows.ravel()))
