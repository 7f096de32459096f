import csv
import json
import re

import numpy as np
import pytest

from relperf.cli import main
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
    # 256 agents: the exact moments' (n, n) coefficients would take 6.3 GB
    agent = TWO_AGENT_SINGLE_STOCK["population"]["agents"][0]
    cfg = tmp_path / "many.json"
    cfg.write_text(json.dumps(TWO_AGENT_SINGLE_STOCK | {
        "population": {"agents": [agent] * 256},
        "sim": {"n_paths": 4, "dt": 0.5, "seed": 1}}))
    summary = tmp_path / "s.json"
    assert main(["--deterministic", "simulate", "--config", str(cfg),
                 "--out-paths", str(tmp_path / "p.csv"),
                 "--out-summary", str(summary)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the moment coefficients of 256 agents would take")
    assert "Traceback" not in err and not summary.exists()


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
    # knots off the quadrature's panel edges, before and after mid; on the
    # nodes of a 201-point grid, where the best reply integrates ln lam exactly
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


# Valid configs whose ln lam the best reply's Simpson rule integrates with
# an error above 1e-8: the property tests' base config with its hyperbolic
# discount on 6 nodes, and tabulated knots off the nodes of a 40-point grid.
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
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CURVED_LOG_LAMBDA[name]))
    assert main(["verify", "--config", str(path)]) == 0
    found = re.search(rf"PASS  {FIXED_POINT} \(sup gap=(\S+), "
                      r"tolerance 1e-8 \+ quadrature error (\S+)\)", capsys.readouterr().out)
    gap, quad = map(float, found.groups())
    assert 1e-8 < gap <= 1e-8 + quad


@pytest.mark.parametrize("name", ["exponential", "hyperbolic-6"])
def test_verify_fails_a_shifted_closed_form(name, tmp_path, monkeypatch, capsys):
    # intercepts 1e-6 off move the reply by more than the quadrature error
    # (about 1e-7 on the hyperbolic grid, none for an exponential discount)
    cfg = CURVED_LOG_LAMBDA.get(name, TWO_AGENT_SINGLE_STOCK)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    right = NAgentEquilibrium.intercepts_at
    monkeypatch.setattr(NAgentEquilibrium, "intercepts_at",
                        lambda eq, t: right(eq, t) + 1e-6)
    assert main(["verify", "--config", str(path)]) == 2
    assert f"FAIL  {FIXED_POINT}" in capsys.readouterr().out


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
])
def test_fractional_integer_field_is_validation_error(command, section, name, value,
                                                      tmp_path, capsys):
    cfg = dict(TWO_AGENT_SINGLE_STOCK,
               **{section: dict(TWO_AGENT_SINGLE_STOCK[section], **{name: value})})
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(cfg))
    outs = {"equilibrium": ["--out", str(tmp_path / "eq.csv")],
            "simulate": ["--out-paths", str(tmp_path / "p.csv"),
                         "--out-summary", str(tmp_path / "s.json")]}[command]
    rc = main([command, "--config", str(path)] + outs)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and section in err and name in err
    assert "Traceback" not in err


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
    # from zeros the slopes are iterated as coefficients of 1/(T+1-t); the
    # report says so, and stays byte-identical under --deterministic
    outs = []
    for name in ("a", "b"):
        out_json = tmp_path / f"{name}.json"
        assert main(["--deterministic", "best-response", "--config", two_agent_cfg,
                     "--out-json", str(out_json),
                     "--out-csv", str(tmp_path / f"{name}.csv")]) == 0
        outs.append(out_json.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["slope_form"] == "coefficients"
