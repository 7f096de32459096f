"""Monte Carlo engine: wealth-path simulation, payoff estimation, spike tests.

The closed-loop wealth system under a deterministic-investment / affine-
consumption strategy profile is a linear SDE,

    dX_i = (pi_i(t) mu_i - C_i(t, X)) dt + pi_i(t) nu_i dW_i + pi_i(t) sigma_i dB,

simulated with Euler-Maruyama.  Because the diffusion coefficients are
state-independent, the law of X_t is Gaussian with moments solving linear
ODEs (:func:`gaussian_moments`), which doubles as an exact oracle for the
sampled paths.  Expected payoffs and their spike-perturbation differences
are estimated with common random numbers: a perturbed control changes only
the deviating agent's own consumption on the spike window and shifts her
terminal wealth, so the payoff difference is computed path by path from one
base simulation.

A strategy's ``consumption_at`` gives the class form ``(labels, own, off,
q)``: agent i consumes own[i] X_i + q[i] plus off[labels[i], labels[k]] X_k
for every other agent k, where off (K, K) holds the slopes between the K
classes, 0 on the diagonal of a one-agent class.

One Euler loop, :func:`_euler`, serves :func:`simulate_paths` and the payoff
simulations.  It steps the (n, N) wealth, one row of N paths per agent, a
block of paths at a time, in block-sized buffers.  The noise stream is
unchanged: (N, n+1) standard normals per step (n idiosyncratic factors, then
the common one), drawn block by block in stream order and negated in the
second half for antithetic runs, so a seed gives the same draws as before.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._util import thread_count
from .core import TypeDistribution, ValidationError
from .discount import DiscountFunction
from .mfg import MeanFieldEquilibrium
from .nagent import Population

__all__ = [
    "PathBundle",
    "PayoffEstimate",
    "SimConfig",
    "SpikeGridReport",
    "SpikeReport",
    "SpikeResult",
    "SpikeSpec",
    "MeanFieldConsistencyReport",
    "expected_payoff",
    "export_paths_csv",
    "gaussian_moments",
    "meanfield_consistency",
    "simulate_paths",
    "spike_grid",
    "spike_test",
]

# Exponent clamp keeping exp() inside double range; clamped samples counted.
EXP_CLAMP = 700.0

# Default bound on spike perturbations (the definition requires bounded v).
V_BOUND = 10.0

# Largest path bundle or set of moment coefficients, in bytes, allocated.
MAX_BUNDLE_BYTES = 2 * 2**30

# Equal RK4 steps of gaussian_moments over [t0, horizon].
RK4_STEPS = 2000

# Evenly spaced Euler nodes at which meanfield_consistency reports its gaps.
MF_CHECKPOINTS = 9

# Elements of the Euler kernel's block buffers, 3n + 1 a path (c, dX and Z).
_BLOCK_ELEMENTS = 1 << 17

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
        if self.n_paths < 1:
            raise ValidationError("n_paths must be >= 1")
        if not self.dt > 0:
            raise ValidationError("dt must be > 0")
        if self.antithetic and self.n_paths % 2:
            raise ValidationError("antithetic sampling needs an even n_paths")


@dataclass
class PathBundle:
    """Recorded wealth/consumption paths plus (optionally) the raw noise."""

    times: np.ndarray            # (m,)
    wealth: np.ndarray           # (n_paths, m, n)
    consumption: np.ndarray      # (n_paths, m, n)
    seed: int
    common_noise: np.ndarray | None = None   # (n_paths, steps) B increments
    idio_noise: np.ndarray | None = None     # (n_paths, steps, n) W increments

    @property
    def n_paths(self) -> int:
        return self.wealth.shape[0]

    @property
    def n_agents(self) -> int:
        return self.wealth.shape[2]


def _euler_times(t0: float, horizon: float, dt: float):
    span = horizon - t0
    if dt > span + 1e-12:
        raise ValidationError("dt exceeds the simulation horizon")
    steps = max(1, int(round(span / dt)))
    dt_eff = span / steps
    times = t0 + dt_eff * np.arange(steps + 1)
    times[-1] = horizon
    return times, dt_eff, steps


def _check_times(times, t0: float, horizon: float) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < t0 - 1e-12) or np.any(times > horizon + 1e-12):
        raise ValidationError("query times must lie in [t0, horizon]")
    return times


def _x0_vector(x0, n: int) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 0:
        return np.full(n, float(x0))
    if x0.shape != (n,):
        raise ValidationError(f"x0 must be scalar or length {n}")
    return x0.copy()


def _blocks(n: int, cfg: SimConfig) -> tuple[int, list[tuple[int, int]], int]:
    """Paths drawn per Euler step (half for antithetic runs), the ``(lo, hi)``
    blocks of about _BLOCK_ELEMENTS buffer elements that cover them, and the widest.
    Blocks hold two paths or more (a lone last path joins the one before): on
    one path the products would take BLAS routines that round differently."""
    drawn = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    width = max(2, _BLOCK_ELEMENTS // (3 * n + 1))
    edges = list(range(0, max(drawn - 1, 1), width)) + [drawn]
    blocks = list(zip(edges[:-1], edges[1:]))
    return drawn, blocks, max(hi - lo for lo, hi in blocks)


def _euler(pop: Population, strategy, times: np.ndarray, dt: float, x0: np.ndarray,
           cfg: SimConfig, seed_seq=None):
    """Euler-Maruyama on the (n, N) state, yielding ``(k, sl, X, c, Z)`` per
    node and block of paths ``sl``.

    X and c are the paths' wealth (a view) and consumption at ``times[k]``;
    Z holds the (B, n+1) normals moving X to ``times[k + 1]`` (None at the
    last node), negated in place for the mirrored paths of an antithetic run.
    At a step with a nonzero cross slope, c = own X + q gains (off @ S)[labels]
    minus the agent's own term, where S holds the (K, B) class wealth sums.
    Buffers are reused, so copy what must outlive the block.
    """
    n, N = pop.n, cfg.n_paths
    p = pop._params
    PI = strategy.pi_at(times)  # (steps+1, n)
    lab, own, off, q = strategy.consumption_at(times)
    sqdt = np.sqrt(dt)
    drift = PI * p["mu"] * dt
    vol_w = PI * p["nu"] * sqdt
    vol_b = PI * p["sigma"] * sqdt
    order = np.argsort(lab, kind="stable")
    starts = np.flatnonzero(np.diff(lab[order], prepend=-1))
    # Step-k loadings: vol_w on the diagonal, vol_b in the common-noise column.
    load, diag = np.zeros((n, n + 1)), np.diag_indices(n)
    rng = np.random.default_rng(
        seed_seq if seed_seq is not None else np.random.SeedSequence(cfg.seed))
    X = np.repeat(x0[:, None], N, axis=1)
    (drawn, blocks, B), steps = _blocks(n, cfg), times.size - 1
    c_buf, dX_buf, Z_buf = np.empty((n, B)), np.empty((n, B)), np.empty((B, n + 1))
    for k in range(steps + 1):
        if k == steps:  # the last node takes no step: free the step buffers
            Z_buf = dX_buf = dX = None
        load[diag] = vol_w[k]
        load[:, n] = vol_b[k]
        for lo, hi in blocks:
            b = hi - lo
            Z = None if k == steps else rng.standard_normal(out=Z_buf[:b])
            for shift in (0, drawn) if cfg.antithetic else (0,):
                if shift and Z is not None:
                    np.negative(Z, out=Z)
                sl = slice(shift + lo, shift + hi)
                Xs, c = X[:, sl], c_buf[:, :b]
                np.multiply(own[k][:, None], Xs, out=c)
                c += q[k][:, None]
                if off[k].any():
                    S = np.add.reduceat(Xs[order], starts)
                    c += (off[k] @ S)[lab]
                    c -= off[k, lab, lab][:, None] * Xs
                yield k, sl, Xs, c, Z
                if Z is not None:
                    dX = np.matmul(load, Z.T, out=dX_buf[:, :b])
                    c *= dt
                    dX -= c
                    dX += drift[k][:, None]
                    Xs += dX


def simulate_paths(pop: Population, strategy, t0: float, x0, horizon: float,
                   cfg: SimConfig, record_times=None,
                   store_noise: bool = False) -> PathBundle:
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
        A bundle (with the noise, if stored) larger than
        ``MAX_BUNDLE_BYTES`` is refused with a ValidationError.

    Identical inputs and seed produce a bit-identical bundle.
    """
    n = pop.n
    x0 = _x0_vector(x0, n)
    times, dt, steps = _euler_times(t0, horizon, cfg.dt)

    record = times if record_times is None else _check_times(record_times, t0, horizon)
    rec_idx = np.unique(np.round((record - t0) / dt).astype(int))
    rec_pos = {int(k): j for j, k in enumerate(rec_idx)}

    N = cfg.n_paths
    size = 8 * N * (2 * rec_idx.size * n + (steps * (n + 1) if store_noise else 0))
    if size > MAX_BUNDLE_BYTES:
        raise ValidationError(
            f"the path bundle would take {size / 2**30:.3g} GiB, over the "
            f"{MAX_BUNDLE_BYTES / 2**30:.3g} GiB limit: record fewer times or paths")
    wealth = np.empty((N, rec_idx.size, n))
    cons = np.empty((N, rec_idx.size, n))
    sqdt = np.sqrt(dt)
    dW_all = np.empty((N, steps, n)) if store_noise else None
    dB_all = np.empty((N, steps)) if store_noise else None

    for k, sl, X, c, Z in _euler(pop, strategy, times, dt, x0, cfg):
        j = rec_pos.get(k)
        if j is not None:
            wealth[sl, j, :] = X.T
            cons[sl, j, :] = c.T
        if store_noise and Z is not None:
            np.multiply(Z[:, :n], sqdt, out=dW_all[sl, k, :])
            np.multiply(Z[:, n], sqdt, out=dB_all[sl, k])

    return PathBundle(times=times[rec_idx], wealth=wealth, consumption=cons,
                      seed=cfg.seed, common_noise=dB_all, idio_noise=dW_all)


def gaussian_moments(pop: Population, strategy, t0: float, x0, times, horizon: float):
    """Exact Gaussian law of the closed-loop wealth at the query times.

    The mean and covariance solve m' = A(t) m + b(t) and
    P' = A P + P A' + D D' with A(t) = -C(t) (the (n, n) consumption slopes,
    expanded from the class form), b(t) = pi(t) mu - q(t), and D D' =
    diag((pi nu)^2) + outer(pi sigma, pi sigma); integrated with classic RK4
    on RK4_STEPS equal steps over [t0, horizon] and the query times.

    Returns ``(means, covs)`` of shapes (len(times), n) and (len(times), n, n).
    """
    n = pop.n
    p = pop._params
    x0 = _x0_vector(x0, n)
    query = _check_times(times, t0, horizon)
    nodes = np.union1d(np.linspace(t0, horizon, RK4_STEPS + 1), query)
    # A, and dd with the two products that build it, are (rows, n, n) each.
    if (size := 24 * (2 * nodes.size - 1) * n * n) > MAX_BUNDLE_BYTES:
        raise ValidationError(
            f"the moment coefficients of {n} agents would take {size / 2**30:.3g} "
            f"GiB, over the {MAX_BUNDLE_BYTES / 2**30:.3g} GiB limit")
    # The profile at the nodes (even rows) and the midpoints (odd rows).
    ts = np.empty(2 * nodes.size - 1)
    ts[0::2], ts[1::2] = nodes, (nodes[:-1] + nodes[1:]) / 2.0
    PI = strategy.pi_at(ts)
    lab, own, off, q = strategy.consumption_at(ts)
    A, b = -off[:, lab[:, None], lab], PI * p["mu"] - q
    A[:, np.arange(n), np.arange(n)] = -own
    pn, ps = PI * p["nu"], PI * p["sigma"]
    dd = pn[:, :, None] ** 2 * np.eye(n)[None, :, :] + ps[:, :, None] * ps[:, None, :]

    def rhs(j, mean, cov):
        return A[j] @ mean + b[j], A[j] @ cov + cov @ A[j].T + dd[j]

    at = np.searchsorted(nodes, query)
    means, covs = np.empty((query.size, n)), np.empty((query.size, n, n))
    mean, cov, done = x0, np.zeros((n, n)), 0
    for stop in np.unique(at):
        for k in range(done, stop):
            h = nodes[k + 1] - nodes[k]
            m1, c1 = rhs(2 * k, mean, cov)
            m2, c2 = rhs(2 * k + 1, mean + h / 2.0 * m1, cov + h / 2.0 * c1)
            m3, c3 = rhs(2 * k + 1, mean + h / 2.0 * m2, cov + h / 2.0 * c2)
            m4, c4 = rhs(2 * k + 2, mean + h * m3, cov + h * c3)
            mean = mean + h / 6.0 * (m1 + 2 * m2 + 2 * m3 + m4)
            cov = cov + h / 6.0 * (c1 + 2 * c2 + 2 * c3 + c4)
        done = stop
        means[at == stop], covs[at == stop] = mean, cov
    return means, covs


@dataclass(frozen=True)
class SpikeSpec:
    """Open-loop control perturbation: add v = (v1, v2) to agent ``agent``'s
    investment and consumption on [time, time + eps)."""

    agent: int
    time: float
    eps: float
    v: tuple[float, float]


@dataclass
class PayoffEstimate:
    value: float
    std_error: float
    n_clamped: int
    n_paths: int


class _PayoffSim:
    """One closed-loop base simulation with the bookkeeping needed to price
    spike perturbations of the A priced ``agents`` by common random numbers.
    Per-agent arrays are (A, N), per-spike arrays (E, A, N)."""

    def __init__(self, pop: Population, discount: DiscountFunction, strategy,
                 t0: float, x0, horizon: float, cfg: SimConfig, agents: Sequence[int],
                 eps_list: Sequence[float] = (), seed_seq=None):
        n = pop.n
        p = pop._params
        x0 = _x0_vector(x0, n)
        times, dt, steps = _euler_times(t0, horizon, cfg.dt)
        self.pop, self.n_clamped = pop, 0
        bad = [a for a in agents if not (0 <= a < n and a == int(a))]
        if bad:
            raise ValidationError(f"agent index {bad[0]} out of range for n={n}")
        priced = np.array(sorted(set(agents)), dtype=int)
        self.row = {int(a): r for r, a in enumerate(priced)}

        # Row r of expo applied to (n, B) values gives agent priced[r]'s
        # exponent; a zero row pads one priced agent to two, since BLAS's
        # vector-matrix routine rounds a path's exponent by its place in a block.
        N, E, A = cfg.n_paths, len(eps_list), priced.size
        self.own_coef = -(1.0 - p["theta"] / n) / p["delta"]
        expo = np.zeros((max(A, 2), n))
        expo[:A] = (p["theta"] / p["delta"] / n)[priced, None]
        expo[np.arange(A), priced] = self.own_coef[priced]

        eps_steps = [int(round(eps / dt)) for eps in eps_list]
        for eps, ks in zip(eps_list, eps_steps):
            if ks < 1 or ks > steps:
                raise ValidationError(f"eps={eps} not representable on the Euler grid")
        self.eps_eff = [ks * dt for ks in eps_steps]

        lam_dt = discount.value(times[:-1] - t0) * dt
        self.lam_T = float(discount.value(horizon - t0))

        self.run = np.zeros((A, N))
        expo_buf = np.empty((expo.shape[0], _blocks(n, cfg)[2]))
        # Per window: the payoff so far and each priced agent's nu dW + sigma dB.
        self.S, self.noise = np.empty((E, A, N)), np.empty((E, A, N))
        # Window noise sums, kept only up to the longest spike window, if any.
        last = max(eps_steps, default=0)
        cumZ = np.zeros((n + 1, N)) if last else None
        sqdt = np.sqrt(dt)
        nu, sig = p["nu"][priced, None], p["sigma"][priced, None]

        for k, sl, X, c, Z in _euler(pop, strategy, times, dt, x0, cfg, seed_seq):
            prod = expo_buf[:, :X.shape[1]]
            u = prod[:A]
            # Every spike window has closed; with none, wait for the last
            # node, where _euler has freed its step buffers.
            if k == (last or steps) and sl.start == 0:
                cumZ = None
                self.term_u = np.empty((A, N))
            np.matmul(expo, X if Z is None else c, out=prod)
            np.exp(self._clamp(u), out=u)
            if Z is None:
                np.negative(u, out=self.term_u[:, sl])
                continue
            u *= -lam_dt[k]
            self.run[:, sl] += u
            if k < last:
                cumZ[:, sl] += Z.T
                for e, ks in enumerate(eps_steps):
                    if k + 1 == ks:
                        self.S[e][:, sl] = self.run[:, sl]
                        self.noise[e][:, sl] = (nu * (cumZ[priced, sl] * sqdt)
                                                + sig * (cumZ[n, sl] * sqdt))

    def _clamp(self, arg: np.ndarray) -> np.ndarray:
        """Clip exponents to +-EXP_CLAMP in place, counting clipped ones and NaN."""
        if not (arg.min() >= -EXP_CLAMP and arg.max() <= EXP_CLAMP):
            clipped = np.clip(arg, -EXP_CLAMP, EXP_CLAMP)
            self.n_clamped += int(np.count_nonzero(clipped != arg))
            arg[...] = clipped
        return arg

    def payoff_paths(self, agent: int) -> np.ndarray:
        r = self.row[agent]
        return self.run[r] + self.lam_T * self.term_u[r]

    def delta_payoff(self, agent: int, e: int, v: tuple[float, float]) -> np.ndarray:
        """Per-path payoff change from the spike (CRN-exact)."""
        p = self.pop._params
        v1, v2 = v
        r, own = self.row[agent], self.own_coef[agent]
        eps = self.eps_eff[e]
        fac_c = np.expm1(own * v2)
        dx = (v1 * p["mu"][agent] - v2) * eps + v1 * self.noise[e, r]
        fac_T = np.expm1(self._clamp(own * dx))
        return self.S[e, r] * fac_c + self.lam_T * self.term_u[r] * fac_T


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error; the error of one sample is 0."""
    se = values.std(ddof=1) / np.sqrt(values.size) if values.size > 1 else 0.0
    return float(values.mean()), float(se)


def expected_payoff(pop: Population, discount: DiscountFunction, strategy,
                    agent: int, t0: float, x0, horizon: float, cfg: SimConfig,
                    spike: SpikeSpec | None = None) -> PayoffEstimate:
    """Monte Carlo estimate of agent ``agent``'s expected payoff from t0.

    The payoff discounts running utility of consumption by lam(s - t0) (left
    Riemann sums on the Euler grid) and terminal utility by lam(T - t0).
    With ``spike`` given, the controls of ``spike.agent`` are shifted by v on
    [t0, t0 + eps) while every other control process is held fixed; the same
    seed reuses the identical noise, so differences against the unperturbed
    call are common-random-number estimates.
    """
    if not t0 < horizon:
        raise ValidationError("payoff evaluation requires t0 < horizon")
    eps_list = []
    if spike is not None:
        if abs(spike.time - t0) > 1e-9:
            raise ValidationError("spike time must equal the simulation start")
        if spike.agent != agent:
            raise ValidationError("spike agent must match the payoff agent")
        eps_list = [spike.eps]
    sim = _PayoffSim(pop, discount, strategy, t0, x0, horizon, cfg, [agent], eps_list)
    j = sim.payoff_paths(agent)
    if spike is not None:
        j = j + sim.delta_payoff(agent, 0, spike.v)
    return PayoffEstimate(*_mean_se(j), sim.n_clamped, j.size)


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
class SpikeReport:
    results: list[SpikeResult]
    passed: bool
    base_payoff: float
    slope_tol: float
    n_clamped: int = 0   # clamped utility exponents, simulation and pricing

    def to_dict(self) -> dict:
        return {
            "verdict": "PASS" if self.passed else "FAIL",
            "base_payoff": self.base_payoff,
            "slope_tol": self.slope_tol,
            "n_clamped": self.n_clamped,
            "results": [r.to_dict() for r in self.results],
        }


def _check_spike_args(v, eps_list, time, horizon, v_bound):
    if abs(v[0]) > v_bound or abs(v[1]) > v_bound:
        raise ValidationError(f"|v| components must be <= {v_bound}")
    eps = list(eps_list)
    if not eps or any(e <= 0 for e in eps):
        raise ValidationError("eps_list must contain positive values")
    if max(eps) > horizon - time + 1e-12:
        raise ValidationError("eps values must not exceed horizon - t")


def _price_spikes(sim: _PayoffSim, agent: int, time: float, vs, eps_list,
                  slope_tol: float | None):
    """Base payoff, slope tolerance and one SpikeResult per (v, eps) of agent."""
    base = _mean_se(sim.payoff_paths(agent))[0]
    tol = slope_tol if slope_tol is not None else 1e-2 * abs(base)
    rows = []
    for v in vs:
        for e, eps in enumerate(eps_list):
            mean, se = _mean_se(sim.delta_payoff(agent, e, v))
            slope, se = mean / sim.eps_eff[e], se / sim.eps_eff[e]
            rows.append(SpikeResult(time, agent, tuple(v), eps, slope, se,
                                    slope > 3.0 * se + tol))
    return base, tol, rows


def spike_test(pop: Population, discount: DiscountFunction, strategy,
               agent: int, time: float, v: tuple[float, float],
               eps_list: Sequence[float], cfg: SimConfig, x0, horizon: float,
               slope_tol: float | None = None,
               v_bound: float = V_BOUND) -> SpikeReport:
    """First-order optimality check of one spike direction at one time.

    For each eps the slope [J(perturbed) - J(base)] / eps is estimated with
    common random numbers; the spike passes when no slope is statistically
    positive (above 3 standard errors plus an absolute tolerance, default
    1e-2 of the base payoff magnitude).
    """
    _check_spike_args(v, eps_list, time, horizon, v_bound)
    sim = _PayoffSim(pop, discount, strategy, time, x0, horizon, cfg, [agent], eps_list)
    base, tol, rows = _price_spikes(sim, agent, time, [v], eps_list, slope_tol)
    return SpikeReport(rows, not any(r.significant_gain for r in rows), base, tol,
                       sim.n_clamped)


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
               agents: Sequence[int] | None = None,
               slope_tol: float | None = None,
               v_bound: float = V_BOUND) -> SpikeGridReport:
    """Spike tests over a grid of times, agents, and directions.

    One base simulation per time prices every (agent, v, eps) combination by
    common random numbers.  The per-time simulations run on a small thread
    pool capped by RELPERF_THREADS and use child seeds spawned from
    ``cfg.seed``, so results do not depend on scheduling.
    """
    agents = list(range(pop.n)) if agents is None else list(agents)
    for v in vs:
        _check_spike_args(v, eps_list, max(times), horizon, v_bound)
    children = np.random.SeedSequence(cfg.seed).spawn(len(times))

    def run_time(idx: int) -> tuple[list[SpikeResult], dict[int, float], int]:
        t = times[idx]
        sim = _PayoffSim(pop, discount, strategy, t, x0, horizon, cfg, agents,
                         eps_list, seed_seq=children[idx])
        rows, base = [], {}
        for a in agents:
            base[a], _, agent_rows = _price_spikes(sim, a, t, vs, eps_list, slope_tol)
            rows.extend(agent_rows)
        return rows, base, sim.n_clamped

    all_rows: list[SpikeResult] = []
    base_payoffs: dict[float, dict[int, float]] = {}
    workers = thread_count(upper=len(times))
    if workers > 1 and len(times) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(run_time, range(len(times))))
    else:
        outs = [run_time(i) for i in range(len(times))]
    for t, (rows, base, _) in zip(times, outs):
        all_rows.extend(rows)
        base_payoffs[float(t)] = base
    return SpikeGridReport(all_rows, not any(r.significant_gain for r in all_rows),
                           base_payoffs, sum(clamped for _, _, clamped in outs))


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
    her type, and compares the cross-sectional mean wealth against the
    aggregate wealth SDE driven by the same common-noise realization.  The
    gap should scale like the cross-sectional standard error, i.e.
    O(m_agents^{-1/2}).
    """
    if m_agents < 100:
        raise ValidationError("meanfield_consistency needs m_agents >= 100")
    eq = MeanFieldEquilibrium(dist, discount, horizon)
    core = eq._core
    times, dt, steps = _euler_times(t0, horizon, cfg.dt)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))

    idx = rng.choice(dist.n_atoms, size=m_agents, p=dist.weights)
    mu, nu, sigma = (dist.field(name)[idx] for name in ("mu", "nu", "sigma"))
    coef = eq.atom_coefficients[idx]
    q_atoms = np.asarray(eq.atom_intercepts(times))       # (K, steps+1)
    e_q = dist.weights @ q_atoms
    rem = horizon + 1.0 - times
    checks = set(np.linspace(0, steps, MF_CHECKPOINTS).round().astype(int).tolist())

    X = np.full(m_agents, float(x0))
    xbar_ref = float(x0)
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
    block = max(1, _CSV_BLOCK_ROWS // max(1, per_path))
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
