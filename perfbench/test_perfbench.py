"""Checks of the benchmark itself: the power of its gates and its metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as w
from relperf import (AgentType, GridStrategyN, NAgentEquilibrium, Population, SimConfig,
                     TimeGrid, spike_grid)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def solo_policy_profile() -> tuple[Population, GridStrategyN]:
    """Criterion 7's counterexample: both agents ignore theta = 0.5."""
    pop = Population([AgentType(1.0, 0.5, 1.0, 0.0, 1.0)] * 2)
    grid = TimeGrid(0.0, w.T, 200)
    times = grid.times
    pi = np.zeros((2, grid.n_points))
    p = np.zeros((2, 2, grid.n_points))
    q = np.zeros((2, grid.n_points))
    for i, a in enumerate(pop.agents):
        pi[i] = a.delta * a.mu / a.sigma**2 * (w.T + 1.0 - times)
        p[i, i] = 1.0 / (w.T + 1.0 - times)
        solo = Population([AgentType(a.delta, 0.0, a.mu, a.nu, a.sigma)] * 2)
        q[i] = NAgentEquilibrium(solo, w.HYP, w.T).intercepts_at(times)[0]
    return pop, GridStrategyN(grid, pi, p, q)


def test_spike_gate_fails_counterexample_at_workload_sizes():
    pop, wrong = solo_policy_profile()
    cfg = SimConfig(w.N_PATHS, w.DT, 2024)
    rep = spike_grid(pop, w.HYP, wrong, w.SPIKE_TIMES, w.SPIKE_VS, w.SPIKE_EPS, cfg,
                     w.X0, w.T)
    assert not w.spike_report_ok(rep, len(rep.results))
    flagged = {(r.time, r.v) for r in rep.results if r.significant_gain}
    assert {(t, (1, 0)) for t in w.SPIKE_TIMES} <= flagged


def test_moments_gate_rejects_a_shifted_law():
    rng = np.random.default_rng(5)
    n_paths, var = 20_000, np.array([[2.0, 0.3], [0.3, 1.0]])
    means = np.array([[1.0, 2.0], [1.5, 2.5]])
    covs = np.stack([np.zeros((2, 2)), var])
    wealth = np.empty((n_paths, 2, 2))
    wealth[:, 0, :] = means[0]
    wealth[:, 1, :] = rng.multivariate_normal(means[1], var, size=n_paths)
    assert w.moments_ok(wealth, means, covs)
    shifted = means.copy()
    shifted[1, 0] += 5.0 * np.sqrt(var[0, 0] / n_paths)
    assert not w.moments_ok(wealth, shifted, covs)
    assert not w.moments_ok(wealth, means, covs * 1.1)


def test_solve_inputs_follow_the_suite_generator():
    spec = importlib.util.spec_from_file_location("suite_conftest",
                                                  run.ROOT / "tests" / "conftest.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    law = w.random_law(np.random.default_rng(7), w.SOLVE_ATOMS)
    expected = suite.random_distribution(np.random.default_rng(7), k=w.SOLVE_ATOMS)
    assert law.types == expected.types
    assert np.array_equal(law.weights, expected.weights)
    assert (w.replicated(law, w.SOLVE_AGENTS).agents
            == suite.replicated_population(expected, w.SOLVE_AGENTS).agents)


TINY = {
    "spike": lambda: w.Spike(n_paths=2_000, moments=w.Moments(n_paths=4_000)),
    "solve": lambda: w.Solve(n_atoms=4, n_agents=8),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result, _ = run.measure(TINY[name](), seed=3, seconds=0.0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.span_coverage"]["value"] >= 0.9


def test_benchmark_file_matches_per_layer_table():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (k, unit, better) for k, (unit, better) in run.PER_LAYER.items()]
    assert [x["name"] for x in BENCHMARK["workloads"]] == list(w.WORKLOADS)


def test_refuses_more_pinned_threads_than_cores(monkeypatch, capsys):
    for key, value in run.PINS.items():
        monkeypatch.setenv(key, value)
    monkeypatch.setattr(run, "nproc", lambda: 1)
    assert run.main(["--workload", "solve", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
