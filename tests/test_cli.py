import csv
import json

import numpy as np
import pytest

from relperf.cli import main

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


def test_spike_test_zero_direction(two_agent_cfg, tmp_path):
    out = tmp_path / "spike.json"
    rc = main(["--deterministic", "spike-test", "--config", two_agent_cfg,
               "--times", "0,1", "--eps", "0.1,0.05", "--v", "0,0",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "PASS"
    assert all(r["slope"] == 0.0 for r in payload["results"])


def test_spike_test_reports_clamped_exponents(tmp_path):
    cfg = tmp_path / "rich.json"
    cfg.write_text(json.dumps(TWO_AGENT_SINGLE_STOCK | {"x0": 1e4}))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["--deterministic", "spike-test", "--config", str(cfg),
                     "--times", "1", "--eps", "0.1", "--v", "1,0",
                     "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert json.loads(outs[0].read_text())["n_clamped"] > 0


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
