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

One Euler loop, :func:`_euler`, serves :func:`simulate_paths` and the payoff
simulations.  It keeps wealth, consumption and utility exponents as (n, N)
arrays, one contiguous row of N paths per agent, in buffers updated in place.
The noise stream is unchanged: one (N, n+1) standard normal draw per step (n
idiosyncratic factors, then the common one), negated in the second half for
antithetic runs, so a seed gives the same draws as before.
"""

from __future__ import annotations

import csv
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


def _x0_vector(x0, n: int) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 0:
        return np.full(n, float(x0))
    if x0.shape != (n,):
        raise ValidationError(f"x0 must be scalar or length {n}")
    return x0.copy()


def _euler(pop: Population, strategy, times: np.ndarray, dt: float, x0: np.ndarray,
           cfg: SimConfig, seed_seq=None):
    """Euler-Maruyama on the (n, N) state, yielding ``(k, X, c, Z)`` per node.

    X and c = P[k] X + q[k] are wealth and consumption at ``times[k]``; Z holds
    the (N, n+1) normals moving X to ``times[k + 1]`` (None at the last node).
    The buffers are reused, so copy what must outlive the step.
    """
    n, N = pop.n, cfg.n_paths
    p = pop._params
    PI = strategy.pi_at(times)                # (steps+1, n)
    P, q = strategy.consumption_at(times)     # (steps+1, n, n), (steps+1, n)
    sqdt = np.sqrt(dt)
    drift = PI * p["mu"] * dt
    vol_w = PI * p["nu"] * sqdt
    vol_b = PI * p["sigma"] * sqdt
    # Step-k loadings: vol_w on the diagonal, vol_b in the common-noise column.
    load, diag = np.zeros((n, n + 1)), np.diag_indices(n)
    rng = np.random.default_rng(
        seed_seq if seed_seq is not None else np.random.SeedSequence(cfg.seed))
    X = np.repeat(x0[:, None], N, axis=1)
    c, dX, Z = np.empty((n, N)), np.empty((n, N)), np.empty((N, n + 1))
    half, steps = N // 2, times.size - 1
    for k in range(steps + 1):
        np.matmul(P[k], X, out=c)
        c += q[k][:, None]
        if k == steps:
            yield k, X, c, None
            return
        if cfg.antithetic:
            rng.standard_normal(out=Z[:half])
            np.negative(Z[:half], out=Z[half:])
        else:
            rng.standard_normal(out=Z)
        yield k, X, c, Z
        load[diag] = vol_w[k]
        load[:, n] = vol_b[k]
        np.matmul(load, Z.T, out=dX)
        c *= dt
        dX -= c
        dX += drift[k][:, None]
        X += dX


def simulate_paths(pop: Population, strategy, t0: float, x0, horizon: float,
                   cfg: SimConfig, record_times=None,
                   store_noise: bool = False) -> PathBundle:
    """Euler-Maruyama paths of the closed-loop wealth system.

    Parameters
    ----------
    strategy : object with ``pi_at`` / ``consumption_at``
        Any sampled or closed-form strategy profile.
    record_times : array-like, optional
        Times at which wealth/consumption are stored (snapped to the Euler
        grid; defaults to every Euler node).  Consumption is recorded as the
        feedback value C(t, X_t) at left endpoints, including t = horizon.

    Identical inputs and seed produce a bit-identical bundle.
    """
    n = pop.n
    x0 = _x0_vector(x0, n)
    times, dt, steps = _euler_times(t0, horizon, cfg.dt)

    if record_times is None:
        rec_idx = np.arange(steps + 1)
    else:
        rec_idx = np.unique(
            np.clip(np.round((np.asarray(record_times, dtype=float) - t0) / dt), 0,
                    steps).astype(int)
        )
    rec_pos = {int(k): j for j, k in enumerate(rec_idx)}

    N = cfg.n_paths
    wealth = np.empty((N, rec_idx.size, n))
    cons = np.empty((N, rec_idx.size, n))
    sqdt = np.sqrt(dt)
    dW_all = np.empty((N, steps, n)) if store_noise else None
    dB_all = np.empty((N, steps)) if store_noise else None

    for k, X, c, Z in _euler(pop, strategy, times, dt, x0, cfg):
        j = rec_pos.get(k)
        if j is not None:
            wealth[:, j, :] = X.T
            cons[:, j, :] = c.T
        if store_noise and Z is not None:
            np.multiply(Z[:, :n], sqdt, out=dW_all[:, k, :])
            np.multiply(Z[:, n], sqdt, out=dB_all[:, k])

    return PathBundle(times=times[rec_idx], wealth=wealth, consumption=cons,
                      seed=cfg.seed, common_noise=dB_all, idio_noise=dW_all)


def gaussian_moments(pop: Population, strategy, t0: float, x0, times,
                     horizon: float, n_steps: int = 2000):
    """Exact Gaussian law of the closed-loop wealth at the query times.

    The mean and covariance solve m' = A(t) m + b(t) and
    P' = A P + P A' + D D' with A(t) = -C(t) (the consumption coefficient
    matrix), b(t) = pi(t) mu - q(t), and D D' = diag((pi nu)^2) +
    outer(pi sigma, pi sigma); integrated with classic RK4.

    Returns ``(means, covs)`` of shapes (len(times), n) and (len(times), n, n).
    """
    n = pop.n
    p = pop._params
    x0 = _x0_vector(x0, n)
    query = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(query < t0 - 1e-12) or np.any(query > horizon + 1e-12):
        raise ValidationError("query times must lie in [t0, horizon]")
    base = np.linspace(t0, horizon, n_steps + 1)
    all_t = np.union1d(base, query)
    mids = (all_t[:-1] + all_t[1:]) / 2.0

    def coeffs(ts):
        PI = strategy.pi_at(ts)
        Pmat, qv = strategy.consumption_at(ts)
        b = PI * p["mu"] - qv
        pn = PI * p["nu"]
        ps = PI * p["sigma"]
        dd = pn[:, :, None] ** 2 * np.eye(n)[None, :, :] \
            + ps[:, :, None] * ps[:, None, :]
        return -Pmat, b, dd

    A_n, b_n, dd_n = coeffs(all_t)
    A_m, b_m, dd_m = coeffs(mids)

    mean = x0.copy()
    cov = np.zeros((n, n))
    where = {float(t): j for j, t in enumerate(all_t)}
    out_idx = [where[float(t)] for t in query]
    means = np.empty((query.size, n))
    covs = np.empty((query.size, n, n))

    def store(j_all, mean, cov):
        for jq, ja in enumerate(out_idx):
            if ja == j_all:
                means[jq] = mean
                covs[jq] = cov

    store(0, mean, cov)
    for k in range(all_t.size - 1):
        h = all_t[k + 1] - all_t[k]
        stages = ((A_n[k], b_n[k], dd_n[k]),
                  (A_m[k], b_m[k], dd_m[k]),
                  (A_m[k], b_m[k], dd_m[k]),
                  (A_n[k + 1], b_n[k + 1], dd_n[k + 1]))
        km = []
        kc = []
        for s, (A, b, dd) in enumerate(stages):
            if s == 0:
                mm, cc = mean, cov
            elif s == 3:
                mm, cc = mean + h * km[2], cov + h * kc[2]
            else:
                mm, cc = mean + h / 2.0 * km[s - 1], cov + h / 2.0 * kc[s - 1]
            km.append(A @ mm + b)
            kc.append(A @ cc + cc @ A.T + dd)
        mean = mean + h / 6.0 * (km[0] + 2 * km[1] + 2 * km[2] + km[3])
        cov = cov + h / 6.0 * (kc[0] + 2 * kc[1] + 2 * kc[2] + kc[3])
        store(k + 1, mean, cov)
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
    spike perturbations of any agent by common random numbers.  Per-agent
    arrays are (n, N), per-spike arrays (E, n, N) or (E, N)."""

    def __init__(self, pop: Population, discount: DiscountFunction, strategy,
                 t0: float, x0, horizon: float, cfg: SimConfig,
                 eps_list: Sequence[float] = (), seed_seq=None):
        n = pop.n
        p = pop._params
        x0 = _x0_vector(x0, n)
        times, dt, steps = _euler_times(t0, horizon, cfg.dt)
        self.pop, self.n_clamped = pop, 0

        # Row i of expo applied to (n, N) values gives agent i's utility exponent.
        self.own_coef = -(1.0 - p["theta"] / n) / p["delta"]
        self.expo = np.repeat((p["theta"] / p["delta"] / n)[:, None], n, axis=1)
        np.fill_diagonal(self.expo, self.own_coef)

        eps_steps = [int(round(eps / dt)) for eps in eps_list]
        for eps, ks in zip(eps_list, eps_steps):
            if ks < 1 or ks > steps:
                raise ValidationError(f"eps={eps} not representable on the Euler grid")
        self.eps_eff = [ks * dt for ks in eps_steps]

        lam_dt = discount.value(times[:-1] - t0) * dt
        self.lam_T = float(discount.value(horizon - t0))

        N, E = cfg.n_paths, len(eps_list)
        self.run, u = np.zeros((n, N)), np.empty((n, N))
        self.S, self.dW_win = np.empty((E, n, N)), np.empty((E, n, N))
        self.dB_win = np.empty((E, N))
        # Window noise sums, kept only up to the longest spike window.
        cumZ, last = np.zeros((n + 1, N)), max(eps_steps, default=0)
        sqdt = np.sqrt(dt)

        for k, X, c, Z in _euler(pop, strategy, times, dt, x0, cfg, seed_seq):
            if Z is None:
                self.term_u = -np.exp(self._clamp(np.matmul(self.expo, X, out=u)))
                break
            np.exp(self._clamp(np.matmul(self.expo, c, out=u)), out=u)
            u *= -lam_dt[k]
            self.run += u
            if k < last:
                cumZ += Z.T
                for e, ks in enumerate(eps_steps):
                    if k + 1 == ks:
                        self.S[e] = self.run
                        np.multiply(cumZ[:n], sqdt, out=self.dW_win[e])
                        np.multiply(cumZ[n], sqdt, out=self.dB_win[e])

    def _clamp(self, arg: np.ndarray) -> np.ndarray:
        """Clip exponents to +-EXP_CLAMP in place, counting clipped ones and NaN."""
        if not (arg.min() >= -EXP_CLAMP and arg.max() <= EXP_CLAMP):
            clipped = np.clip(arg, -EXP_CLAMP, EXP_CLAMP)
            self.n_clamped += int(np.count_nonzero(clipped != arg))
            arg[...] = clipped
        return arg

    def payoff_paths(self, agent: int) -> np.ndarray:
        return self.run[agent] + self.lam_T * self.term_u[agent]

    def payoff(self, agent: int) -> PayoffEstimate:
        j = self.payoff_paths(agent)
        return PayoffEstimate(*_mean_se(j), self.n_clamped, j.size)

    def delta_payoff(self, agent: int, e: int, v: tuple[float, float]) -> np.ndarray:
        """Per-path payoff change from the spike (CRN-exact)."""
        p = self.pop._params
        v1, v2 = v
        own = self.own_coef[agent]
        eps = self.eps_eff[e]
        fac_c = np.expm1(own * v2)
        dx = (v1 * p["mu"][agent] - v2) * eps + v1 * (
            p["nu"][agent] * self.dW_win[e, agent]
            + p["sigma"][agent] * self.dB_win[e]
        )
        fac_T = np.expm1(self._clamp(own * dx))
        return self.S[e, agent] * fac_c + self.lam_T * self.term_u[agent] * fac_T


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
    sim = _PayoffSim(pop, discount, strategy, t0, x0, horizon, cfg, eps_list)
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
    base = sim.payoff(agent)
    tol = slope_tol if slope_tol is not None else 1e-2 * abs(base.value)
    rows = []
    for v in vs:
        for e, eps in enumerate(eps_list):
            mean, se = _mean_se(sim.delta_payoff(agent, e, v))
            slope, se = mean / sim.eps_eff[e], se / sim.eps_eff[e]
            rows.append(SpikeResult(time, agent, tuple(v), eps, slope, se,
                                    slope > 3.0 * se + tol))
    return base.value, tol, rows


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
    sim = _PayoffSim(pop, discount, strategy, time, x0, horizon, cfg, eps_list)
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
        sim = _PayoffSim(pop, discount, strategy, t, x0, horizon, cfg,
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
                          horizon: float,
                          n_checkpoints: int = 9) -> MeanFieldConsistencyReport:
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
    times, dt, steps = _euler_times(t0, horizon, cfg.dt)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))

    idx = rng.choice(dist.n_atoms, size=m_agents, p=dist.weights)
    mu = dist.field("mu")[idx]
    nu = dist.field("nu")[idx]
    sigma = dist.field("sigma")[idx]
    coef = eq.atom_coefficients[idx]

    q_atoms = np.asarray(eq.atom_intercepts(times))       # (K, steps+1)
    q_agents = q_atoms[idx]                               # (M, steps+1)
    w = dist.weights
    sig_atoms = dist.field("sigma")
    mu_atoms = dist.field("mu")
    e_pi_mu = (w @ (eq.atom_coefficients * mu_atoms)) * (horizon + 1.0 - times)
    e_pi_sig = (w @ (eq.atom_coefficients * sig_atoms)) * (horizon + 1.0 - times)
    e_q = w @ q_atoms

    X = np.full(m_agents, float(x0))
    xbar_ref = float(x0)
    check_idx = np.unique(np.linspace(0, steps, n_checkpoints).round().astype(int))
    wealth_cp: list[CheckpointGap] = []
    cons_cp: list[CheckpointGap] = []
    max_gap = 0.0
    sqdt = np.sqrt(dt)
    sq_m = np.sqrt(m_agents)

    def record(k: int):
        nonlocal max_gap
        rem = horizon + 1.0 - times[k]
        gap = abs(float(X.mean()) - xbar_ref)
        max_gap = max(max_gap, gap)
        if k in check_set:
            wealth_cp.append(CheckpointGap(times[k], gap, float(X.std() / sq_m)))
            c_agents = X / rem + q_agents[:, k]
            c_ref = xbar_ref / rem + float(e_q[k])
            cons_cp.append(CheckpointGap(
                times[k], abs(float(c_agents.mean()) - c_ref),
                float(c_agents.std() / sq_m)))

    check_set = set(int(k) for k in check_idx)
    record(0)
    for k in range(steps):
        rem = horizon + 1.0 - times[k]
        pi_k = coef * rem
        c_k = X / rem + q_agents[:, k]
        dB = rng.standard_normal() * sqdt
        dW = rng.standard_normal(m_agents) * sqdt
        X = X + (pi_k * mu - c_k) * dt + pi_k * nu * dW + pi_k * sigma * dB
        xbar_ref = xbar_ref + (float(e_pi_mu[k]) - xbar_ref / rem - float(e_q[k])) * dt \
            + float(e_pi_sig[k]) * dB
        record(k + 1)

    sig2 = float(w @ (dist.field("nu") * eq.atom_coefficients) ** 2)
    predicted = np.sqrt(max(sig2, 1e-300) * (horizon - t0)) / sq_m
    return MeanFieldConsistencyReport(m_agents, max_gap, float(predicted),
                                      wealth_cp, cons_cp)


def export_paths_csv(bundle: PathBundle, path, header_comment: str | None = None):
    """Write a bundle as CSV rows (path_id, t, agent_id, wealth, consumption)."""
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["path_id", "t", "agent_id", "wealth", "consumption"])
        for pid in range(bundle.n_paths):
            for j, t in enumerate(bundle.times):
                for a in range(bundle.n_agents):
                    writer.writerow([
                        pid, f"{t:.10g}", a,
                        f"{bundle.wealth[pid, j, a]:.12g}",
                        f"{bundle.consumption[pid, j, a]:.12g}",
                    ])
