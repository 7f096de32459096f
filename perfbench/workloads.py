"""The workloads of the relperf benchmark.

Each workload builds its inputs from a seed in ``setup`` and then runs one
verified operation ("op") per ``op`` call.  Every call into a ``relperf``
module is wrapped in a span named ``<module>.<layer>``, so a traced run can
split an op's wall time by module from outside the package.  ``probe`` runs
the extra calls that only a traced run makes, and ``counts`` gives the work
of one op computed from the sizes (nothing is counted inside the package).

Run ``python3 workloads.py <workload> <seed>`` to build one workload's
inputs in a fresh process and print ``ready``; ``run.py`` times that for
``setup_s``.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import relperf  # noqa: E402

if Path(relperf.__file__).resolve().parent != SRC / "relperf":
    raise ImportError(f"relperf resolved to {relperf.__file__}, not to {SRC}")

from relperf import (  # noqa: E402
    AgentType,
    GridStrategyN,
    HyperbolicDiscount,
    MeanFieldEquilibrium,
    MFGridStrategy,
    NAgentEquilibrium,
    Population,
    SimConfig,
    TimeGrid,
    TypeDistribution,
    expected_payoff,
    fixed_point_mfg,
    fixed_point_nagent,
    gaussian_moments,
    simulate_paths,
    spike_grid,
)

T = 2.0
X0 = 10.0
DT = 1e-3
N_PATHS = 100_000
HYP = HyperbolicDiscount(0.1, 1.0)

# Criterion-7 spike grid.  The three times split 375 / 250 + 125 Euler steps,
# so the two threads of the spike_grid pool get equal work.  Late times keep
# an op at 6 to 9 s on a 2-core host, so a run holds several ops and their median.
SPIKE_TIMES = (1.625, 1.75, 1.875)
SPIKE_VS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
SPIKE_EPS = (0.1, 0.05, 0.025)
SPIKE_AGENTS = (AgentType(1.0, 0.5, 1.0, 0.0, 1.0), AgentType(1.4, 0.3, 0.8, 0.5, 0.9))

# Criterion-11 population, simulated over the last eighth of the horizon
# (250 Euler steps) and recorded at 5 checkpoints, once per traced spike run.
MOMENT_AGENTS = (AgentType(1.0, 0.5, 1.0, 1.0, 1.0), AgentType(2.0, 0.2, 0.5, 0.0, 1.0))
MOMENT_T0 = 1.75
MOMENT_CHECKPOINTS = 5
MOMENT_SE_LIMIT = 4.0

SOLVE_ATOMS = 32
SOLVE_AGENTS = 128
SOLVE_GRID_POINTS = 200
SOLVE_TOL = 1e-10
SOLVE_GAP = 1e-8
FLOAT_BYTES = 8


class Tracer:
    """Spans (name, start, end, parent) kept in memory; a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()


def op_seed(seed: int, k: int) -> int:
    """Monte Carlo seed of op ``k`` of a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def euler_steps(t0: float) -> int:
    return int(round((T - t0) / DT))


def spike_report_ok(report, n_rows: int) -> bool:
    """Gate of a spike op: verdict PASS and every row present and finite."""
    return (report.passed and len(report.results) == n_rows
            and all(np.isfinite(r.slope) and np.isfinite(r.std_error)
                    for r in report.results))


@dataclass
class Moments:
    """simulate_paths and gaussian_moments on the criterion-11 population.

    Not a workload of its own: the spike workload runs it once as a probe,
    so the moments layers are measured without a run of their own.
    """

    n_paths: int = N_PATHS

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.pop = Population(MOMENT_AGENTS)
        self.eq = NAgentEquilibrium(self.pop, HYP, T)
        self.checkpoints = np.linspace(MOMENT_T0, T, MOMENT_CHECKPOINTS)

    @property
    def path_steps(self) -> int:
        return self.n_paths * euler_steps(MOMENT_T0)

    def op(self, k: int, tr: Tracer) -> bool:
        cfg = SimConfig(self.n_paths, DT, op_seed(self.seed, k))
        with tr.span("simulate.simulate_paths"):
            bundle = simulate_paths(self.pop, self.eq, MOMENT_T0, X0, T, cfg,
                                    record_times=self.checkpoints)
        with tr.span("simulate.gaussian_moments"):
            means, covs = gaussian_moments(self.pop, self.eq, MOMENT_T0, X0,
                                           bundle.times, T)
        return moments_ok(bundle.wealth, means, covs)


@dataclass
class Spike:
    """spike_grid on the criterion-7 two-agent equilibrium."""

    n_paths: int = N_PATHS
    moments: Moments = field(default_factory=Moments)
    name: str = field(default="spike", init=False)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.pop = Population(SPIKE_AGENTS)
        self.eq = NAgentEquilibrium(self.pop, HYP, T)
        self.moments.setup(seed)

    @property
    def n_rows(self) -> int:
        return len(SPIKE_TIMES) * self.pop.n * len(SPIKE_VS) * len(SPIKE_EPS)

    def cfg(self, k: int) -> SimConfig:
        return SimConfig(self.n_paths, DT, op_seed(self.seed, k))

    def op(self, k: int, tr: Tracer) -> bool:
        with tr.span("simulate.spike_grid"):
            rep = spike_grid(self.pop, HYP, self.eq, SPIKE_TIMES, SPIKE_VS,
                             SPIKE_EPS, self.cfg(k), X0, T)
        return spike_report_ok(rep, self.n_rows)

    def probe(self, tr: Tracer) -> bool:
        """Base simulation per spike time, spike_grid on one thread, moments.

        The probe payoffs reuse the seed of op 0 so that n_clamped counts
        the clamps of a base simulation of the same size as an op's.
        """
        cfg = self.cfg(0)
        clamped = 0
        for t in SPIKE_TIMES:
            with tr.span("simulate.payoff_sim"):
                est = expected_payoff(self.pop, HYP, self.eq, 0, t, X0, T, cfg)
            clamped += est.n_clamped
        self.n_clamped = clamped
        with mock.patch.dict(os.environ, RELPERF_THREADS="1"), \
                tr.span("simulate.spike_grid_serial"):
            rep = spike_grid(self.pop, HYP, self.eq, SPIKE_TIMES, SPIKE_VS,
                             SPIKE_EPS, cfg, X0, T)
        closed_form_probe(self.eq, min(SPIKE_TIMES), tr)
        moments_passed = self.moments.op(0, tr)
        return clamped == 0 and spike_report_ok(rep, self.n_rows) and moments_passed

    def counts(self) -> dict:
        n, N = self.pop.n, self.n_paths
        steps = [euler_steps(t) for t in SPIKE_TIMES]
        e = len(SPIKE_EPS)
        return {
            "simulate.path_steps": N * sum(steps),
            "simulate.normal_draws": N * sum(steps) * (n + 1),
            # U(c) at every step plus U(X_T), then one expm1 per priced spike.
            "simulate.utility_exps": N * n * sum(s + 1 for s in steps) + N * self.n_rows,
            "simulate.spike_prices": self.n_rows,
            # Spike-window state kept per time: S and dW_win (N, E, n), dB_win (N, E).
            "simulate.bytes_recorded": FLOAT_BYTES * N * e * (2 * n + 1) * len(SPIKE_TIMES),
        }


def moments_ok(wealth: np.ndarray, means: np.ndarray, covs: np.ndarray) -> bool:
    """Sample means and variances finite and within 4 SE of the exact law.

    The first checkpoint is the deterministic start, so only its mean is
    compared, and exactly.
    """
    N = wealth.shape[0]
    if not (np.all(np.isfinite(wealth)) and np.all(np.isfinite(means))
            and np.all(np.isfinite(covs))):
        return False
    if not np.array_equal(wealth[:, 0, :].mean(axis=0), means[0]):
        return False
    for j in range(1, means.shape[0]):
        xs = wealth[:, j, :]
        var = np.diag(covs[j])
        gap_mean = np.abs(xs.mean(axis=0) - means[j]) / np.sqrt(var / N)
        gap_var = np.abs(xs.var(axis=0, ddof=1) - var) / (var * np.sqrt(2.0 / (N - 1)))
        if not (np.all(gap_mean < MOMENT_SE_LIMIT) and np.all(gap_var < MOMENT_SE_LIMIT)):
            return False
    return True


def closed_form_probe(eq: NAgentEquilibrium, t0: float, tr: Tracer) -> None:
    """Closed-form pi_at / consumption_at on the Euler grid from t0 to T."""
    times = np.linspace(t0, T, euler_steps(t0) + 1)
    with tr.span("nagent.consumption_at"):
        eq.pi_at(times)
        eq.consumption_at(times)


# random_law and replicated follow random_distribution and
# replicated_population of tests/conftest.py draw for draw, so a seed gives
# the law the test suite would draw; test_perfbench.py checks that they agree.
# They are copied rather than imported because the conftest imports pytest,
# which would add to every setup the benchmark times.
THETA_MAX = 0.8


def random_agent(rng: np.random.Generator) -> AgentType:
    delta = rng.uniform(0.4, 2.5)
    theta = rng.uniform(0.0, THETA_MAX)
    mu = rng.uniform(0.3, 1.8)
    style = rng.integers(0, 3)
    if style == 0:
        nu, sigma = 0.0, rng.uniform(0.3, 1.5)
    elif style == 1:
        nu, sigma = rng.uniform(0.3, 1.5), 0.0
    else:
        nu, sigma = rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2)
    return AgentType(delta, theta, mu, nu, sigma)


def random_law(rng: np.random.Generator, k: int) -> TypeDistribution:
    """k-atom type law: the weights are drawn first, then the atoms."""
    raw = rng.uniform(0.2, 1.0, size=k)
    weights = raw / raw.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return TypeDistribution([(random_agent(rng), float(w)) for w in weights])


def replicated(dist: TypeDistribution, n: int) -> Population:
    """n agents whose type frequencies round n * weight by largest remainder."""
    raw = np.asarray(dist.weights) * n
    counts = np.floor(raw).astype(int)
    order = np.argsort(raw - np.floor(raw))[::-1]
    for j in range(n - counts.sum()):
        counts[order[j % len(order)]] += 1
    return Population([a for a, c in zip(dist.types, counts) for _ in range(int(c))])


@dataclass
class Solve:
    """Closed forms, both Picard iterations and the average-consumption curve."""

    n_atoms: int = SOLVE_ATOMS
    n_agents: int = SOLVE_AGENTS
    name: str = field(default="solve", init=False)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.grid = TimeGrid(0.0, T, SOLVE_GRID_POINTS)
        self.draw(0)

    def draw(self, k: int) -> None:
        """Type law and population of op ``k``.

        The Picard sweeps needed to reach tol range from about 20 to 37
        between laws, so each op draws its own law: a run's median then spans
        several laws instead of resting on one.
        """
        self.dist = random_law(np.random.default_rng([self.seed, k]), self.n_atoms)
        self.pop = replicated(self.dist, self.n_agents)

    def op(self, k: int, tr: Tracer) -> bool:
        self.draw(k)
        with tr.span("nagent.equilibrium"):
            eq = NAgentEquilibrium(self.pop, HYP, T)
            closed = GridStrategyN.from_equilibrium(eq, self.grid)
        with tr.span("best_response.fixed_point"):
            fp, rep = fixed_point_nagent(self.pop, HYP,
                                         GridStrategyN.zeros(self.grid, self.pop.n),
                                         tol=SOLVE_TOL)
        with tr.span("mfg.equilibrium"):
            meq = MeanFieldEquilibrium(self.dist, HYP, T)
            mclosed = MFGridStrategy.from_equilibrium(meq, self.grid)
        with tr.span("best_response.mfg_fixed_point"):
            mfp, mrep = fixed_point_mfg(self.dist, HYP,
                                        MFGridStrategy.zeros(self.grid, self.dist),
                                        tol=SOLVE_TOL)
        with tr.span("mfg.average_consumption"):
            curve = meq.average_consumption(self.grid, X0)
        self.reports = (rep, mrep)
        return (rep.converged and mrep.converged
                and fp.sup_distance(closed) <= SOLVE_GAP
                and mfp.sup_distance(mclosed) <= SOLVE_GAP
                and bool(np.all(np.isfinite(curve))))

    def probe(self, tr: Tracer) -> bool:
        return True

    def counts(self) -> dict:
        n, m = self.pop.n, SOLVE_GRID_POINTS
        # pi (n, m), p (n, n, m) and q (n, m) of one GridStrategyN.
        return {"best_response.profile_bytes": FLOAT_BYTES * m * (2 * n + n * n)}


WORKLOADS = {"spike": Spike, "solve": Solve}

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]]().setup(int(sys.argv[2]))
    print("ready", flush=True)
