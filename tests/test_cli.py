import copy
import csv
import json
import re
import tracemalloc

import numpy as np
import pytest

from relperf.cli import load_config, main
from relperf.core import ValidationError
from relperf.discount import discount_from_dict
from relperf.nagent import NAgentEquilibrium

TWO_AGENT_SINGLE_STOCK = {
    "population": {"agents": [
        {"delta": 1.0, "theta": 0.5, "mu": 1.0, "nu": 0.0, "sigma": 1.0},
        {"delta": 1.0, "theta": 0.5, "mu": 1.0, "nu": 0.0, "sigma": 1.0},
    ]},
    "discount": {"variant": "exponential", "rho": 0.1},
    "grid": {"t0": 0.0, "T": 2.0, "n_points": 40},
    "sim": {"n_paths": 400, "dt": 0.01, "seed": 42},
    "x0": 10.0,
}

MFG_CONFIG = {
    "type_distribution": {"atoms": [
        {"type": {"delta": 1.0, "theta": 0.5, "mu": 1.0, "nu": 1.0, "sigma": 1.0},
         "weight": 0.5},
        {"type": {"delta": 2.0, "theta": 0.2, "mu": 0.5, "nu": 0.0, "sigma": 1.0},
         "weight": 0.5},
    ]},
    "discount": {"variant": "hyperbolic", "rho": 0.1, "beta": 1.0},
    "grid": {"t0": 0.0, "T": 2.0, "n_points": 40},
}


@pytest.fixture
def two_agent_cfg(tmp_path):
    path = tmp_path / "two_agent.json"
    path.write_text(json.dumps(TWO_AGENT_SINGLE_STOCK))
    return str(path)


@pytest.fixture
def mfg_cfg(tmp_path):
    path = tmp_path / "mfg.json"
    path.write_text(json.dumps(MFG_CONFIG))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


def test_equilibrium_writes_expected_values(two_agent_cfg, tmp_path):
    out = tmp_path / "eq.csv"
    rc = main(["--deterministic", "equilibrium", "--config", two_agent_cfg,
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert set(rows[0]) == {"agent_id", "t", "pi", "c_slope", "c_intercept"}
    first = [r for r in rows if r["agent_id"] == "0" and float(r["t"]) == 0.0][0]
    # delta_hat = 2 single-stock case: pi(0) = 2 * (mu/sigma^2) * 3 = 6
    assert float(first["pi"]) == pytest.approx(6.0, abs=1e-9)
    assert float(first["c_slope"]) == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_mfg_outputs(mfg_cfg, tmp_path):
    out_csv = tmp_path / "m.csv"
    out_json = tmp_path / "m.json"
    rc = main(["--deterministic", "mfg", "--config", mfg_cfg,
               "--out-csv", str(out_csv), "--out-json", str(out_json)])
    assert rc == 0
    payload = json.loads(out_json.read_text())
    assert payload["aggregates"]["psi"] == pytest.approx(0.225, abs=1e-12)
    assert len(payload["atoms"]) == 2
    assert all("delta_hat" in atom for atom in payload["atoms"])
    rows = read_csv(out_csv)
    assert {r["atom_id"] for r in rows} == {"0", "1"}


def test_best_response_reports_convergence(two_agent_cfg, tmp_path):
    out_json = tmp_path / "it.json"
    out_csv = tmp_path / "st.csv"
    rc = main(["--deterministic", "best-response", "--config", two_agent_cfg,
               "--out-json", str(out_json), "--out-csv", str(out_csv)])
    assert rc == 0
    report = json.loads(out_json.read_text())
    assert report["converged"] is True
    assert report["gap_to_closed_form"] < 1e-8
    assert report["max_cross_coefficient"] < 1e-10


def test_best_response_nonconvergence_exit_code(two_agent_cfg, tmp_path):
    out_json = tmp_path / "it.json"
    rc = main(["--deterministic", "best-response", "--config", two_agent_cfg,
               "--max-iter", "1", "--tol", "1e-14",
               "--out-json", str(out_json), "--out-csv", str(tmp_path / "s.csv")])
    assert rc == 2
    report = json.loads(out_json.read_text())
    assert report["converged"] is False


def test_simulate_moment_summary(two_agent_cfg, tmp_path):
    rc = main(["--deterministic", "simulate", "--config", two_agent_cfg,
               "--out-paths", str(tmp_path / "p.csv"),
               "--out-summary", str(tmp_path / "s.json"),
               "--export-paths", "2", "--checkpoints", "5"])
    assert rc == 0
    summary = json.loads((tmp_path / "s.json").read_text())
    gaps = [c["max_mean_gap_over_se"] for c in summary["checkpoints"]
            if c["t"] > 0]
    assert max(gaps) < 6.0
    rows = read_csv(tmp_path / "p.csv")
    assert {r["path_id"] for r in rows} == {"0", "1"}


def test_simulate_refuses_oversized_moments(tmp_path, capsys):
    # 256 agents: the closed form's exact law builds no (rows, n, n)
    # coefficients, so the moments are not refused
    agent = TWO_AGENT_SINGLE_STOCK["population"]["agents"][0]
    cfg = tmp_path / "many.json"
    cfg.write_text(json.dumps(TWO_AGENT_SINGLE_STOCK | {
        "population": {"agents": [agent] * 256},
        "sim": {"n_paths": 4, "dt": 0.5, "seed": 1}}))
    summary = tmp_path / "s.json"
    assert main(["--deterministic", "simulate", "--config", str(cfg),
                 "--out-paths", str(tmp_path / "p.csv"),
                 "--out-summary", str(summary)]) == 0
    assert capsys.readouterr().err == ""
    checkpoints = json.loads(summary.read_text())["checkpoints"]
    assert len(checkpoints) == 5  # the 11 checkpoints snap to the Euler nodes
    assert checkpoints[0]["max_mean_gap_over_se"] == 0.0
    assert all(np.isfinite(c["max_mean_gap_over_se"]) for c in checkpoints)


def test_simulate_checkpoints_past_the_euler_nodes_cost_nothing(tmp_path):
    # 4 Euler steps: 11 checkpoints and 2,000,000 both snap to the 5 nodes,
    # and the count is capped at the nodes before any checkpoint is built
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(TWO_AGENT_SINGLE_STOCK | {
        "sim": {"n_paths": 4, "dt": 0.5, "seed": 1}}))
    outputs, peaks = [], []
    for count in ("11", "2000000"):
        paths, summary = tmp_path / f"p{count}.csv", tmp_path / f"s{count}.json"
        tracemalloc.start()
        try:
            assert main(["--deterministic", "simulate", "--config", str(cfg),
                         "--out-paths", str(paths), "--out-summary", str(summary),
                         "--checkpoints", count]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        outputs.append((paths.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0][1])["checkpoints"]) == 5
    assert peaks[1] < peaks[0] + 1e6  # uncapped: 48 MB against 4.8 MB


@pytest.mark.parametrize("command, section, field", [("equilibrium", "grid", "n_points"),
                                                     ("spike-test", "sim", "n_paths")])
def test_sizes_past_the_address_space_are_validation_errors(command, section, field,
                                                            tmp_path, capsys):
    # 7.1 PiB of grid times, 7.1 PiB of one double a path: refused at once
    message = {"equilibrium": "Unable to allocate",
               "spike-test": "sim field 'n_paths' must be at most 2**45"}[command]
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(TWO_AGENT_SINGLE_STOCK | {
        section: dict(TWO_AGENT_SINGLE_STOCK[section], **{field: 10**15})}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not out.exists()


def test_spike_test_zero_direction(two_agent_cfg, tmp_path):
    out = tmp_path / "spike.json"
    rc = main(["--deterministic", "spike-test", "--config", two_agent_cfg,
               "--times", "0,1", "--eps", "0.1,0.05", "--v", "0,0",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "PASS"
    assert all(r["slope"] == 0.0 for r in payload["results"])


def test_spike_test_refuses_agent_out_of_range(two_agent_cfg, tmp_path, capsys):
    out = tmp_path / "spike.json"
    for agent in ("-1", "2"):
        assert main(["--deterministic", "spike-test", "--config", two_agent_cfg,
                     "--times", "1", "--eps", "0.1", "--v", "1,0", "--agent", agent,
                     "--out", str(out)]) == 1
        assert f"agent index {agent} out of range" in capsys.readouterr().err
    assert not out.exists()


def test_spike_test_reports_clamped_exponents(tmp_path, capsys):
    # at x0 = 1e4 every utility exponent clamps, every payoff is about 1e-304
    # and every SE is 0: the run gives no verdict and is a numerical failure
    cfg = tmp_path / "rich.json"
    cfg.write_text(json.dumps(TWO_AGENT_SINGLE_STOCK | {"x0": 1e4}))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["--deterministic", "spike-test", "--config", str(cfg),
                     "--times", "1", "--eps", "0.1", "--v", "1,0",
                     "--out", str(out)]) == 2
        assert "numerical failure: n_clamped=" in capsys.readouterr().err
    assert outs[0].read_bytes() == outs[1].read_bytes()
    payload = json.loads(outs[0].read_text())
    assert payload["n_clamped"] > 0 and "verdict" not in payload


@pytest.mark.parametrize("times, message", [("-1,0.5", "spike times must be >= 0"),
                                            ("1.0,nan", "spike times must be >= 0"),
                                            ("0.5,0.5", "spike times must be distinct"),
                                            ("", "--times entry '' of '' is not a number")])
def test_spike_test_refuses_bad_times(times, message, two_agent_cfg, tmp_path, capsys):
    out = tmp_path / "spike.json"
    assert main(["--deterministic", "spike-test", "--config", two_agent_cfg,
                 f"--times={times}", "--eps", "0.1", "--v", "1,0", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("v, eps, message", [
    ("nan,0", "0.1", "v components must be finite"),
    ("1,0", "nan", "eps values must be > 0"),
    ("1,", "0.1", "--v entry '' of '1,' is not a number"),
    ("1", "0.1", "--v expects 2 comma-separated numbers, got '1'"),
    ("1,0", "0.1,", "--eps entry '' of '0.1,' is not a number"),
])
def test_spike_test_refuses_non_finite_v_and_eps(v, eps, message, two_agent_cfg, tmp_path,
                                                 capsys):
    out = tmp_path / "spike.json"
    assert main(["--deterministic", "spike-test", "--config", two_agent_cfg, "--times", "1",
                 "--v", v, "--eps", eps, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_antithetic_must_be_a_json_boolean(value, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for flag in (True, False):
        path.write_text(json.dumps(dict(TWO_AGENT_SINGLE_STOCK, sim=dict(
            TWO_AGENT_SINGLE_STOCK["sim"], antithetic=flag))))
        assert load_config(str(path)).sim.antithetic is flag
    path.write_text(json.dumps(dict(TWO_AGENT_SINGLE_STOCK, sim=dict(
        TWO_AGENT_SINGLE_STOCK["sim"], antithetic=value))))
    with pytest.raises(ValidationError, match="sim field 'antithetic'"):
        load_config(str(path))
    assert main(["simulate", "--config", str(path),
                 "--out-paths", str(tmp_path / "p.csv"),
                 "--out-summary", str(tmp_path / "s.json")]) == 1
    assert "sim field 'antithetic' must be true or false" in capsys.readouterr().err


def test_figures_monotone_curves(tmp_path):
    rc = main(["--deterministic", "figures", "--out-dir", str(tmp_path),
               "--n-points", "81"])
    assert rc == 0
    rows = read_csv(tmp_path / "fig1.csv")
    assert set(rows[0]) == {"t", "beta", "avg_consumption"}
    by_beta = {}
    for r in rows:
        if abs(float(r["t"]) - 1.0) < 1e-9:
            by_beta[float(r["beta"])] = float(r["avg_consumption"])
    assert by_beta[0.5] > by_beta[1.0] > by_beta[2.0]

    rows2 = read_csv(tmp_path / "fig2.csv")
    assert set(rows2[0]) == {"t", "e_delta_hat", "avg_consumption"}
    by_dh = {}
    for r in rows2:
        if abs(float(r["t"]) - 1.0) < 1e-9:
            by_dh[float(r["e_delta_hat"])] = float(r["avg_consumption"])
    assert by_dh[1.0] < by_dh[1.5] < by_dh[2.0]


def test_deterministic_outputs_are_byte_identical(two_agent_cfg, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert main(["--deterministic", "equilibrium", "--config", two_agent_cfg,
                     "--out", str(out)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_timestamp_header_present_without_deterministic(two_agent_cfg, tmp_path):
    out = tmp_path / "eq.csv"
    assert main(["equilibrium", "--config", two_agent_cfg, "--out", str(out)]) == 0
    assert out.read_text().startswith("# generated-at:")


def test_verify_passes_on_valid_config(two_agent_cfg, capsys):
    assert main(["verify", "--config", two_agent_cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_runs_mfg_checks(mfg_cfg, capsys):
    assert main(["verify", "--config", mfg_cfg]) == 0
    assert "mean-field" in capsys.readouterr().out


VERIFY_DISCOUNTS = {
    "exponential": {"variant": "exponential", "rho": 0.1},
    "hyperbolic": {"variant": "hyperbolic", "rho": 0.3, "beta": 2.0},
    # knots off the quadrature's panel edges, before and after mid
    "tabulated": {"variant": "tabulated", "times": [0.0, 0.37, 1.13, 1.71, 2.5],
                  "values": [1.0, 0.93, 0.71, 0.69, 0.5]},
}


@pytest.mark.parametrize("family", sorted(VERIFY_DISCOUNTS))
@pytest.mark.parametrize("base", [TWO_AGENT_SINGLE_STOCK, MFG_CONFIG],
                         ids=["population", "distribution"])
def test_verify_checks_log_integral_by_quadrature(base, family, tmp_path, monkeypatch,
                                                  capsys):
    spec = VERIFY_DISCOUNTS[family]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(base, discount=spec,
                                    grid=dict(base["grid"], n_points=201))))
    assert main(["verify", "--config", str(path)]) == 0
    assert "PASS  discount log-integral" in capsys.readouterr().out

    # an affine map of the right integral keeps every identity between values
    # of log_integral, so only the quadrature can see it
    cls = type(discount_from_dict(spec))
    right = cls.log_integral
    monkeypatch.setattr(cls, "log_integral", lambda d, t, T: 1.37 * right(d, t, T) + 0.25)
    assert main(["verify", "--config", str(path)]) == 2
    assert "FAIL  discount log-integral" in capsys.readouterr().out


# Valid configs whose curved ln lam a Simpson rule would integrate with an
# error above 1e-8 (1.1e-7 and 2.5e-6 in the intercepts): the property tests'
# base config with its hyperbolic discount on 6 nodes, and tabulated knots
# off the nodes of a 40-point grid.  The best reply integrates ln lam by
# log_integral, so along the closed form it has no quadrature error.
AGENT = {"delta": 1.0, "theta": 0.5, "mu": 1.0, "nu": 0.5, "sigma": 1.0}
CURVED_LOG_LAMBDA = {
    "hyperbolic-6": dict(TWO_AGENT_SINGLE_STOCK,
                         population={"agents": [AGENT, dict(AGENT, delta=2.0, theta=0.2)]},
                         discount={"variant": "hyperbolic", "rho": 0.1, "beta": 1.0},
                         grid={"t0": 0.0, "T": 2.0, "n_points": 6}),
    "tabulated-40": dict(TWO_AGENT_SINGLE_STOCK, discount=VERIFY_DISCOUNTS["tabulated"]),
}
FIXED_POINT = "closed form is a best-response fixed point"


@pytest.mark.parametrize("name", sorted(CURVED_LOG_LAMBDA))
def test_verify_allows_the_replys_quadrature_error(name, tmp_path, capsys):
    # the reply has none along the closed form: a plain 1e-8 tolerance, met
    # to rounding
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CURVED_LOG_LAMBDA[name]))
    assert main(["verify", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    found = re.search(rf"PASS  {FIXED_POINT} \(sup gap=(\S+), tolerance 1e-8\)\n", out)
    assert float(found.group(1)) <= 1e-12
    assert "quadrature error" not in out


@pytest.mark.parametrize("name", sorted(CURVED_LOG_LAMBDA))
def test_picard_from_zeros_lands_on_the_closed_form(name, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CURVED_LOG_LAMBDA[name]))
    out = tmp_path / "iteration.json"
    assert main(["--deterministic", "best-response", "--config", str(path),
                 "--out-json", str(out), "--out-csv", str(tmp_path / "s.csv")]) == 0
    report = json.loads(out.read_text())
    assert report["converged"] and report["gap_to_closed_form"] <= 1e-10


@pytest.mark.parametrize("name", ["exponential", "hyperbolic-6"])
def test_verify_fails_a_shifted_closed_form(name, tmp_path, monkeypatch, capsys):
    # intercepts 1e-6 off move the reply by more than the 1e-8 tolerance
    cfg = CURVED_LOG_LAMBDA.get(name, TWO_AGENT_SINGLE_STOCK)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    right = NAgentEquilibrium._intercepts  # every n-agent closed-form intercept
    monkeypatch.setattr(NAgentEquilibrium, "_intercepts",
                        lambda eq, a, b, t: right(eq, a, b, t) + 1e-6)
    assert main(["verify", "--config", str(path)]) == 2
    assert f"FAIL  {FIXED_POINT}" in capsys.readouterr().out


def scaled_types(d):
    """Two valid agent types of risk tolerance d and 1.4 d."""
    return [{"delta": d, "theta": 0.5, "mu": 1.0, "nu": 0.3, "sigma": 1.0},
            {"delta": 1.4 * d, "theta": 0.3, "mu": 0.8, "nu": 0.5, "sigma": 0.9}]


def scaled_atoms(d):
    """MFG_CONFIG's two atoms with risk tolerances d and 1.4 d."""
    first, second = (atom["type"] for atom in MFG_CONFIG["type_distribution"]["atoms"])
    return {"atoms": [{"type": dict(first, delta=d), "weight": 0.5},
                      {"type": dict(second, delta=1.4 * d), "weight": 0.5}]}


HYPERBOLIC = {"variant": "hyperbolic", "rho": 0.1, "beta": 1.0}
# Valid configs on whose scale an identity misses a fixed absolute tolerance
# by rounding alone: the fixed point's sup gap is 2.2e-8 at d = 1e7 (a
# relative 5e-16), the mean-field investment identity misses by 7.3e-12 at
# 1e5 and the consumption identity by 9.3e-10 at 1e7.
SCALED_CONFIGS = {
    **{f"population-{d:.0e}": {"population": {"agents": scaled_types(d)},
                               "discount": HYPERBOLIC} for d in (1e-4, 1e5, 1e7)},
    **{f"distribution-{d:.0e}": {"type_distribution": scaled_atoms(d),
                                 "discount": HYPERBOLIC} for d in (1e5, 1e7)},
}


@pytest.mark.parametrize("name", sorted(SCALED_CONFIGS))
def test_verify_scales_its_tolerances_with_the_values(name, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SCALED_CONFIGS[name]))
    assert main(["verify", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.endswith("verify: PASS\n")


def test_scaled_fixed_point_tolerance_still_fails_a_shifted_closed_form(
        tmp_path, monkeypatch, capsys):
    # at d = 1e7 the tolerance is 7e-7; intercepts 1e-4 off, 2e-12 of the
    # closed form's size, are still refused
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SCALED_CONFIGS["population-1e+07"]))
    assert main(["verify", "--config", str(path)]) == 0
    assert f"PASS  {FIXED_POINT}" in capsys.readouterr().out
    right = NAgentEquilibrium._intercepts
    monkeypatch.setattr(NAgentEquilibrium, "_intercepts",
                        lambda eq, a, b, t: right(eq, a, b, t) + 1e-4)
    assert main(["verify", "--config", str(path)]) == 2
    out = capsys.readouterr().out
    assert re.search(rf"FAIL  {FIXED_POINT} \(sup gap=\S+, tolerance 6.96e-7\)", out)


def test_missing_config_is_validation_error(tmp_path, capsys):
    rc = main(["equilibrium", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_agent_is_validation_error(tmp_path, capsys):
    cfg = dict(TWO_AGENT_SINGLE_STOCK)
    cfg["population"] = {"agents": [
        {"delta": 1.0, "theta": 1.0, "mu": 1.0, "nu": 0.0, "sigma": 1.0},
        {"delta": 1.0, "theta": 0.5, "mu": 1.0, "nu": 0.0, "sigma": 1.0},
    ]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    rc = main(["equilibrium", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "theta" in capsys.readouterr().err


def test_command_requires_matching_input_kind(mfg_cfg, tmp_path, capsys):
    rc = main(["equilibrium", "--config", mfg_cfg, "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "population" in capsys.readouterr().err


NEAR_ONE_THETA = {"delta": 1.0, "theta": 1.0 - 1e-13, "mu": 1.0, "nu": 0.0,
                  "sigma": 1.0}


def test_degenerate_equilibrium_is_numerical_failure(tmp_path, capsys):
    cfg = dict(TWO_AGENT_SINGLE_STOCK,
               population={"agents": [NEAR_ONE_THETA, NEAR_ONE_THETA]})
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "eq.csv"
    rc = main(["--deterministic", "equilibrium", "--config", str(path),
               "--out", str(out)])
    assert rc == 2
    assert "numerical failure:" in capsys.readouterr().err
    # the diagnostic goes to JSON outputs only, never over the CSV
    assert not out.exists()


def test_degenerate_mfg_is_numerical_failure(tmp_path, capsys):
    cfg = dict(MFG_CONFIG, type_distribution={"atoms": [
        {"type": NEAR_ONE_THETA, "weight": 1.0}]})
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(cfg))
    out_csv, out_json = tmp_path / "m.csv", tmp_path / "m.json"
    rc = main(["--deterministic", "mfg", "--config", str(path),
               "--out-csv", str(out_csv), "--out-json", str(out_json)])
    assert rc == 2
    assert "numerical failure:" in capsys.readouterr().err
    assert "degenerate" in json.loads(out_json.read_text())["error"]
    assert not out_csv.exists()


@pytest.mark.parametrize("section, value", [
    ("population", [1, 2]), ("sim", 3), ("grid", "x"), ("discount", None),
    ("type_distribution", True),
    # wrong JSON types inside a section
    ("population", {"agents": 3}), ("population", {"agents": [1, 2]}),
    ("type_distribution", {"atoms": [{"type": 5, "weight": 1.0}]}),
    ("grid", {"t0": 0.0, "T": [2], "n_points": 40}), ("x0", {"a": 1.0}),
])
def test_wrong_section_type_is_validation_error(section, value, tmp_path, capsys):
    cfg = dict(TWO_AGENT_SINGLE_STOCK, **{section: value})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    rc = main(["equilibrium", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and section in err


@pytest.mark.parametrize("command, section, name, value", [
    ("equilibrium", "grid", "n_points", 2.9),
    ("simulate", "sim", "n_paths", 10.7),
    ("simulate", "sim", "seed", 1.5),
    # refused by SimConfig and named, not left to numpy's SeedSequence
    ("simulate", "sim", "seed", -1),
    ("spike-test", "sim", "seed", -1),
])
def test_fractional_integer_field_is_validation_error(command, section, name, value,
                                                      tmp_path, capsys):
    cfg = dict(TWO_AGENT_SINGLE_STOCK,
               **{section: dict(TWO_AGENT_SINGLE_STOCK[section], **{name: value})})
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(cfg))
    outs = {"equilibrium": ["--out", str(tmp_path / "eq.csv")],
            "simulate": ["--out-paths", str(tmp_path / "p.csv"),
                         "--out-summary", str(tmp_path / "s.json")],
            "spike-test": ["--out", str(tmp_path / "spike.json")]}[command]
    rc = main([command, "--config", str(path)] + outs)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and section in err and name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("dt", True), ("dt", "0.1"), ("x0", True), ("x0", None), ("x0", [10.0, "1"]),
    ("x0", float("nan")),
])
def test_float_field_must_be_a_finite_json_number(field, value, tmp_path, capsys):
    # a bool, a string, null or NaN is refused and named, not run or reported
    # as a numerical failure
    sim = dict(TWO_AGENT_SINGLE_STOCK["sim"])
    cfg = dict(TWO_AGENT_SINGLE_STOCK, sim=sim)
    (sim if field == "dt" else cfg)[field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(path), "--out-paths", str(tmp_path / "p.csv"),
               "--out-summary", str(tmp_path / "s.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"field '{field}" in err


HYPERBOLIC = {"variant": "hyperbolic", "rho": 0.1, "beta": 1.0}
TABULATED = {"variant": "tabulated", "times": [0.0, 1.0, 2.0], "values": [1.0, 0.9, 0.8]}


@pytest.mark.parametrize("discount, keys, value", [
    (None, ("population", "agents", 0, "delta"), True),
    (None, ("population", "agents", 1, "mu"), "1"),
    (None, ("type_distribution", "atoms", 1, "weight"), "0.5"),
    (None, ("discount", "rho"), True),
    (HYPERBOLIC, ("discount", "beta"), "1"),
    (TABULATED, ("discount", "times", 1), "1.0"),
    (TABULATED, ("discount", "values", 2), True),
    (None, ("grid", "t0"), False),
    (None, ("grid", "T"), "2"),
], ids=["agent-delta", "agent-mu", "atom-weight", "rho", "beta", "tabulated-times",
        "tabulated-values", "grid-t0", "grid-T"])
def test_config_floats_must_be_finite_json_numbers(discount, keys, value, tmp_path, capsys):
    # agent, weight, discount and grid numbers are read as JSON numbers: a
    # bool or a string is refused and named, not converted and run
    mean_field = keys[0] == "type_distribution"
    cfg = copy.deepcopy(MFG_CONFIG if mean_field else TWO_AGENT_SINGLE_STOCK)
    if discount is not None:
        cfg["discount"] = copy.deepcopy(discount)
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(cfg))
    outs = (["mfg", "--out-csv", str(tmp_path / "m.csv"), "--out-json", str(tmp_path / "m.json")]
            if mean_field else ["equilibrium", "--out", str(tmp_path / "m.csv")])
    assert main(outs + ["--config", str(path)]) == 1
    name = keys[-1] if type(keys[-1]) is str else f"{keys[-2]}[{keys[-1]}]"
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"field '{name}' must be a finite number" in err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command, option, value, message", [
    ("simulate", "--export-paths", "-1", "--export-paths must be >= 0 (got -1)"),
    ("simulate", "--checkpoints", "0", "--checkpoints must be >= 1 (got 0)"),
    ("simulate", "--checkpoints", "-1", "--checkpoints must be >= 1 (got -1)"),
    ("best-response", "--max-iter", "0", "--max-iter must be >= 1 (got 0)"),
    ("figures", "--x0", "nan", "--x0 must be finite (got nan)"),
    ("figures", "--x0", "inf", "--x0 must be finite (got inf)"),
])
def test_bad_numeric_option_is_validation_error(command, option, value, message,
                                                two_agent_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    argv = {"simulate": ["--config", two_agent_cfg, "--out-paths", str(out / "p.csv"),
                         "--out-summary", str(out / "s.json")],
            "best-response": ["--config", two_agent_cfg, "--out-json", str(out / "i.json"),
                              "--out-csv", str(out / "s.csv")],
            "figures": ["--out-dir", str(out)]}[command]
    assert main([command, *argv, f"{option}={value}"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(out.iterdir())


@pytest.mark.parametrize("option, value, message", [
    ("--betas", "0.5,x", "--betas entry 'x' of '0.5,x' is not a number"),
    ("--delta-hats", ",", "--delta-hats entry '' of ',' is not a number"),
])
def test_figures_list_options_name_the_bad_entry(option, value, message, tmp_path, capsys):
    assert main(["figures", "--out-dir", str(tmp_path), f"{option}={value}"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["frobnicate"], ["best-response", "--max-iter", "abc"],
                                  ["simulate"]])
def test_usage_error_is_validation_error(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage: relperf")


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: relperf")


def test_config_that_is_not_an_object_is_validation_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps(["discount"]))
    rc = main(["equilibrium", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_best_response_reports_contraction(two_agent_cfg, tmp_path):
    outs = []
    for name in ("a", "b"):
        out_json = tmp_path / f"{name}.json"
        assert main(["--deterministic", "best-response", "--config", two_agent_cfg,
                     "--out-json", str(out_json),
                     "--out-csv", str(tmp_path / f"{name}.csv")]) == 0
        outs.append(out_json.read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    hist = report["residual_history"]
    assert report["contraction"] == hist[-1] / hist[-2]
    assert 0.0 < report["contraction"] < 1.0


def test_best_response_reports_slope_form(two_agent_cfg, tmp_path):
    # from zeros the slopes and (pi, q) are iterated as coefficients; the
    # report says so, and stays byte-identical under --deterministic
    outs = []
    for name in ("a", "b"):
        out_json = tmp_path / f"{name}.json"
        assert main(["--deterministic", "best-response", "--config", two_agent_cfg,
                     "--out-json", str(out_json),
                     "--out-csv", str(tmp_path / f"{name}.csv")]) == 0
        outs.append(out_json.read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["slope_form"] == report["pi_q_form"] == "coefficients"
