"""Command-line interface: config ingestion, orchestration, CSV/JSON output.

Subcommands: equilibrium, mfg, best-response, simulate, spike-test, figures,
verify.  Exit codes: 0 success, 1 validation or usage error (an array too
large to allocate included), 2 numerical
failure (non-convergence, a degenerate fixed point or non-finite results,
with a diagnostic JSON when the command has a JSON output).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import best_response as br
from . import core, diagnostics, mfg, simulate
from .core import AgentType, TimeGrid, TypeDistribution, ValidationError, _json_section
from .discount import (DiscountFunction, HyperbolicDiscount, TabulatedDiscount,
                       discount_from_dict)
from .nagent import DegenerateFixedPointError, NAgentEquilibrium, Population

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class NumericalFailure(RuntimeError):
    """Raised when a run produces NaNs or fails to converge."""

    def __init__(self, message: str, detail: dict | None = None):
        super().__init__(message)
        self.detail = detail or {}


@dataclass
class RunConfig:
    """Parsed configuration shared by the subcommands."""

    population: Population | None
    distribution: TypeDistribution | None
    discount: DiscountFunction
    grid: TimeGrid
    sim: simulate.SimConfig
    x0: float | list[float]

    def need_population(self) -> Population:
        if self.population is None:
            raise ValidationError("this command requires 'population' in the config")
        return self.population

    def need_distribution(self) -> TypeDistribution:
        if self.distribution is None:
            raise ValidationError(
                "this command requires 'type_distribution' in the config")
        return self.distribution


def _section(raw: dict, name: str) -> dict:
    """Config section ``name``, which must be a JSON object."""
    value = raw[name]
    if not isinstance(value, dict):
        raise ValidationError(f"config section {name!r} must be a JSON object")
    return value


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from None

    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    population = (Population.from_dict(_section(raw, "population"))
                  if "population" in raw else None)
    distribution = (TypeDistribution.from_dict(_section(raw, "type_distribution"))
                    if "type_distribution" in raw else None)
    if "discount" not in raw:
        raise ValidationError("config is missing 'discount'")
    discount = discount_from_dict(_section(raw, "discount"))
    grid = (TimeGrid.from_dict(_section(raw, "grid")) if "grid" in raw
            else TimeGrid(0.0, 2.0, 200))
    sim_raw = _section(raw, "sim") if "sim" in raw else {}
    antithetic = sim_raw.get("antithetic", False)
    if type(antithetic) is not bool:
        raise ValidationError(
            f"sim field 'antithetic' must be true or false (got {antithetic!r})")
    with _json_section("sim"):
        sim = simulate.SimConfig(
            n_paths=core._json_int(sim_raw.get("n_paths", 100_000), "sim", "n_paths"),
            dt=core._json_float(sim_raw.get("dt", 1e-3), "sim", "dt"),
            seed=core._json_int(sim_raw.get("seed", 42), "sim", "seed"),
            antithetic=antithetic,
        )
    x0 = raw.get("x0", 10.0)
    with _json_section("x0"):
        x0 = (core._json_floats(x0, "config", "x0") if type(x0) is list
              else core._json_float(x0, "config", "x0"))
    return RunConfig(population, distribution, discount, grid, sim, x0)


def _stamp(deterministic: bool) -> str | None:
    if deterministic:
        return None
    return datetime.now(timezone.utc).isoformat()


def _write_csv(path: str, header: list[str], rows, deterministic: bool):
    with open(path, "w", newline="") as fh:
        stamp = _stamp(deterministic)
        if stamp:
            fh.write(f"# generated-at: {stamp}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_strategy_csv(path: str, id_name: str, times, pi, slope, q,
                        deterministic: bool):
    """CSV of sampled strategies, one block of rows per agent or atom: the
    investment ``pi`` and intercept ``q`` are (rows, m), ``slope`` broadcasts."""
    slope = np.broadcast_to(slope, pi.shape)
    rows = [[k, f"{t:.10g}", f"{pi[k, j]:.12g}", f"{slope[k, j]:.12g}", f"{q[k, j]:.12g}"]
            for k in range(pi.shape[0]) for j, t in enumerate(times)]
    _write_csv(path, [id_name, "t", "pi", "c_slope", "c_intercept"], rows, deterministic)


def _write_profile_csv(path: str, strategy: br.GridStrategyN, deterministic: bool):
    """:func:`_write_strategy_csv` of an n-agent profile, one block per agent."""
    labels, blocks = strategy.classes()
    _write_strategy_csv(path, "agent_id", strategy.grid.times, blocks.pi[labels],
                        blocks.diag[labels], blocks.q[labels], deterministic)


def _write_json(path: str, payload: dict, deterministic: bool):
    stamp = _stamp(deterministic)
    if stamp:
        payload = {"generated_at": stamp, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _at_least(value: int, low: int, option: str) -> int:
    """An integer option's value, refused below ``low``."""
    if value < low:
        raise ValidationError(f"{option} must be >= {low} (got {value})")
    return value


def _floats(text: str, option: str, count: int | None = None) -> list[float]:
    """The comma-separated numbers of ``option``, ``count`` of them if given."""
    items = text.split(",")
    if count is not None and len(items) != count:
        raise ValidationError(f"{option} expects {count} comma-separated numbers, "
                              f"got {text!r}")
    out = []
    for item in items:
        try:
            out.append(float(item))
        except ValueError:
            raise ValidationError(
                f"{option} entry {item!r} of {text!r} is not a number") from None
    return out


def _check_finite(name: str, *arrays):
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise NumericalFailure(f"{name} produced non-finite values")


def cmd_equilibrium(args) -> int:
    cfg = load_config(args.config)
    pop = cfg.need_population()
    eq = NAgentEquilibrium(pop, cfg.discount, cfg.grid.T)
    _write_profile_csv(args.out, br.GridStrategyN.from_equilibrium(eq, cfg.grid),
                       args.deterministic)
    return EXIT_OK


def cmd_mfg(args) -> int:
    cfg = load_config(args.config)
    dist = cfg.need_distribution()
    eq = mfg.MeanFieldEquilibrium(dist, cfg.discount, cfg.grid.T)
    pi, icpts, inv_rem = eq._sample(cfg.grid.times)
    _check_finite("mfg equilibrium", icpts, eq.coefficients)
    _write_strategy_csv(args.out_csv, "atom_id", cfg.grid.times, pi, inv_rem, icpts,
                        args.deterministic)
    agg = eq.aggregates
    payload = {
        "aggregates": {"phi": agg.phi, "psi": agg.psi,
                       "e_delta": agg.e_delta, "e_theta": agg.e_theta},
        "atoms": [
            {"atom_id": k, "weight": w, "delta_hat": eq.effective_delta(a),
             "pi_coefficient": float(eq.coefficients[k])}
            for k, (a, w) in enumerate(dist.atoms)
        ],
    }
    _write_json(args.out_json, payload, args.deterministic)
    return EXIT_OK


def cmd_best_response(args) -> int:
    max_iter = _at_least(args.max_iter, 1, "--max-iter")
    cfg = load_config(args.config)
    pop = cfg.need_population()
    init = br.GridStrategyN.zeros(cfg.grid, pop.n)
    final, report = br.fixed_point_nagent(pop, cfg.discount, init,
                                          tol=args.tol, max_iter=max_iter)
    payload = report.to_dict()
    payload["max_cross_coefficient"] = final.max_cross_coefficient()
    closed = br.GridStrategyN.from_equilibrium(
        NAgentEquilibrium(pop, cfg.discount, cfg.grid.T), cfg.grid)
    payload["gap_to_closed_form"] = final.sup_distance(closed)
    _write_json(args.out_json, payload, args.deterministic)
    _write_profile_csv(args.out_csv, final, args.deterministic)
    if not report.converged:
        raise NumericalFailure("fixed-point iteration did not converge",
                               detail=payload)
    return EXIT_OK


def cmd_simulate(args) -> int:
    n_checkpoints = _at_least(args.checkpoints, 1, "--checkpoints")
    export = _at_least(args.export_paths, 0, "--export-paths")
    cfg = load_config(args.config)
    pop = cfg.need_population()
    eq = NAgentEquilibrium(pop, cfg.discount, cfg.grid.T)
    # Checkpoints snap to the Euler nodes: a count above the number of nodes
    # records every node, as that number does.
    steps = simulate._euler_times(cfg.grid.t0, cfg.grid.T, cfg.sim.dt)[2]
    checkpoints = np.linspace(cfg.grid.t0, cfg.grid.T, min(n_checkpoints, steps + 1))
    bundle = simulate.simulate_paths(pop, eq, cfg.grid.t0, cfg.x0, cfg.grid.T,
                                     cfg.sim, record_times=checkpoints)
    _check_finite("simulation", bundle.wealth, bundle.consumption)
    means, covs = simulate.gaussian_moments(pop, eq, cfg.grid.t0, cfg.x0,
                                            bundle.times, cfg.grid.T)
    n_se = np.sqrt(np.maximum(np.diagonal(covs, axis1=1, axis2=2), 0.0)
                   / cfg.sim.n_paths)
    sample_mean = bundle.wealth.mean(axis=0)
    summary = {
        "n_paths": cfg.sim.n_paths,
        "checkpoints": [
            {
                "t": float(t),
                "sample_mean": sample_mean[j].tolist(),
                "exact_mean": means[j].tolist(),
                "mean_se": n_se[j].tolist(),
                "max_mean_gap_over_se": float(
                    np.max(np.abs(sample_mean[j] - means[j])
                           / np.maximum(n_se[j], 1e-300))
                ) if cfg.sim.n_paths > 1 else 0.0,
            }
            for j, t in enumerate(bundle.times)
        ],
    }
    _write_json(args.out_summary, summary, args.deterministic)
    keep = min(export, bundle.n_paths)
    trimmed = simulate.PathBundle(bundle.times, bundle.wealth[:keep],
                                  bundle.consumption[:keep], bundle.seed)
    simulate.export_paths_csv(trimmed, args.out_paths,
                              header_comment=None if args.deterministic
                              else f"generated-at: {_stamp(False)}")
    return EXIT_OK


def cmd_spike_test(args) -> int:
    cfg = load_config(args.config)
    pop = cfg.need_population()
    eq = NAgentEquilibrium(pop, cfg.discount, cfg.grid.T)
    times = _floats(args.times, "--times")
    eps_list = _floats(args.eps, "--eps")
    vs = [tuple(_floats(item, "--v", 2)) for item in args.v]
    agents = None if args.agent is None else [args.agent]
    report = simulate.spike_grid(pop, cfg.discount, eq, times, vs, eps_list,
                                 cfg.sim, cfg.x0, cfg.grid.T, agents=agents)
    payload = report.to_dict()
    if report.n_clamped:
        # Clamped exponents bias the payoffs, so no verdict is given.
        del payload["verdict"]
        raise NumericalFailure(f"n_clamped={report.n_clamped} utility exponents were "
                               "clamped; the spike test gives no verdict", detail=payload)
    _write_json(args.out_json, payload, args.deterministic)
    return EXIT_OK


def _figures_distribution(delta_hat: float) -> TypeDistribution:
    # Single type with delta = 1; theta chosen so delta/(1-theta) = delta_hat.
    theta = 1.0 - 1.0 / delta_hat
    if not 0.0 <= theta < 1.0:
        raise ValidationError("delta-hat values must be >= 1 for the default family")
    return TypeDistribution([(AgentType(delta=1.0, theta=theta, mu=1.0, nu=0.0,
                                        sigma=1.0), 1.0)])


def _curve_rows(dist: TypeDistribution, discount: DiscountFunction, grid: TimeGrid, x0: float,
                label: float) -> list[list[str]]:
    """``(t, label, average consumption)`` rows of one mean-field figure curve."""
    eq = mfg.MeanFieldEquilibrium(dist, discount, grid.T)
    avg = eq.average_consumption(grid, x0)
    _check_finite("figure curve", avg)
    return [[f"{t:.10g}", f"{label:g}", f"{c:.12g}"] for t, c in zip(grid.times, avg)]


def cmd_figures(args) -> int:
    if not math.isfinite(args.x0):
        raise ValidationError(f"--x0 must be finite (got {args.x0})")
    grid = TimeGrid(0.0, args.T, args.n_points)
    betas = _floats(args.betas, "--betas")
    delta_hats = _floats(args.delta_hats, "--delta-hats")
    base_dist = _figures_distribution(1.0)

    rows1 = [row for beta in betas
             for row in _curve_rows(base_dist, HyperbolicDiscount(rho=args.rho, beta=beta),
                                    grid, args.x0, beta)]
    _write_csv(Path(args.out_dir) / "fig1.csv", ["t", "beta", "avg_consumption"],
               rows1, args.deterministic)

    d2 = HyperbolicDiscount(rho=args.rho, beta=args.beta_fig2)
    rows2 = [row for dh in delta_hats
             for row in _curve_rows(_figures_distribution(dh), d2, grid, args.x0, dh)]
    _write_csv(Path(args.out_dir) / "fig2.csv",
               ["t", "e_delta_hat", "avg_consumption"], rows2, args.deterministic)
    return EXIT_OK


def _tolerance(floor: float, scale: float) -> float:
    """``floor``, or 64 roundings of ``scale`` where that is larger: an
    identity between values of size ``scale`` holds only to their rounding."""
    return max(floor, 64 * np.finfo(float).eps * scale)


def _verify_checks(cfg: RunConfig):
    """Yield (name, passed, detail) triples for the verify subcommand."""
    d = cfg.discount
    grid = cfg.grid
    times = grid.times
    yield ("discount lam(0)=1", abs(float(d.value(0.0)) - 1.0) < 1e-12,
           f"lam(0)={float(d.value(0.0)):.17g}")
    # log_integral(t0, T) - log_integral(mid, T) against 8-point Gauss-Legendre
    # on 16 panels of [t0, mid], split at the tabulated knots: exact for a
    # piecewise-linear ln lam and within rounding for the smooth families.
    mid = 0.5 * (grid.t0 + grid.T)
    knots = grid.T - d.times if isinstance(d, TabulatedDiscount) else np.empty(0)
    edges = np.union1d(np.linspace(grid.t0, mid, 17),
                       knots[(knots > grid.t0) & (knots < mid)])
    x, w = np.polynomial.legendre.leggauss(8)
    half = np.diff(edges)[:, None] / 2.0
    s = edges[:-1, None] + half * (1.0 + x)
    quad = float(np.sum(half * w * d.log_value(grid.T - s)))
    split = float(d.log_integral(grid.t0, grid.T) - d.log_integral(mid, grid.T))
    gap = abs(split - quad)
    yield ("discount log-integral against quadrature", gap <= 1e-10 * max(1.0, abs(quad)),
           f"gap={gap:.3g}, tolerance 1e-10 relative")

    if cfg.population is not None:
        pop = cfg.population
        eq = NAgentEquilibrium(pop, d, grid.T)
        x = np.linspace(-3.0, 12.0, pop.n)
        term = max(abs(float(eq.consumption(i, grid.T, x[i])) - x[i])
                   for i in range(pop.n))
        yield ("terminal consumption equals wealth", term < 1e-10,
               f"max dev={term:.3g}")
        closed = br.GridStrategyN.from_equilibrium(eq, grid)
        reply = br.best_response_profile(pop, d, closed)
        gap = reply.sup_distance(closed)
        tol = _tolerance(1e-8, closed.sup_distance(br.GridStrategyN.zeros(grid, pop.n)))
        shown = np.format_float_scientific(tol, precision=2, exp_digits=1, trim="-")
        yield ("closed form is a best-response fixed point", gap <= tol,
               f"sup gap={gap:.3g}, tolerance {shown}")
        rng = np.random.default_rng(7)
        worst = 0.0
        for t in np.linspace(grid.t0, grid.T, 7):
            xs = rng.normal(5.0, 3.0, size=(40, pop.n))
            ri, rc = diagnostics.foc_residuals(eq, 0, float(t), xs)
            worst = max(worst, float(np.max(ri)), float(np.max(rc)))
        yield ("first-order conditions along the equilibrium", worst < 1e-9,
               f"max relative residual={worst:.3g}")

    if cfg.distribution is not None:
        dist = cfg.distribution
        eq = mfg.MeanFieldEquilibrium(dist, d, grid.T)
        agg = eq.aggregates
        e_sig = float(dist.weights @ (dist.field("sigma") * eq.coefficients))
        resid = abs(e_sig * (1.0 - agg.psi) - agg.phi)
        yield ("mean-field investment fixed-point identity",
               resid < _tolerance(1e-12, abs(agg.phi)), f"residual={resid:.3g}")
        e_q = dist.weights @ np.asarray(eq.intercepts_at(times))
        target = -(eq.e_delta_hhat(times)
                   + agg.e_delta * d.log_value(grid.T - times)) / (1.0 - agg.e_theta)
        gap = float(np.abs(e_q - target).max())
        yield ("mean-field consumption fixed-point identity",
               gap < _tolerance(1e-10, float(np.abs(target).max())),
               f"max residual={gap:.3g}")


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    failures = 0
    for name, ok, detail in _verify_checks(cfg):
        print(f"{'PASS' if ok else 'FAIL'}  {name} ({detail})")
        failures += 0 if ok else 1
    print(f"verify: {'PASS' if failures == 0 else f'FAIL ({failures} checks)'}")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relperf",
        description="Equilibrium strategies of competitive CARA "
                    "investment-consumption games under general discounting.",
    )
    parser.add_argument("--deterministic", action="store_true",
                        help="suppress timestamps so outputs are byte-stable")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equilibrium", help="closed-form n-agent equilibrium as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="equilibrium.csv")
    p.set_defaults(fn=cmd_equilibrium)

    p = sub.add_parser("mfg", help="mean-field equilibrium per atom (CSV + JSON)")
    p.add_argument("--config", required=True)
    p.add_argument("--out-csv", default="mfg.csv")
    p.add_argument("--out-json", default="mfg.json")
    p.set_defaults(fn=cmd_mfg)

    p = sub.add_parser("best-response", help="Picard fixed-point iteration")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--out-json", default="iteration.json")
    p.add_argument("--out-csv", default="strategy.csv")
    p.set_defaults(fn=cmd_best_response)

    p = sub.add_parser("simulate", help="Monte Carlo paths + moment checks")
    p.add_argument("--config", required=True)
    p.add_argument("--out-paths", default="paths.csv")
    p.add_argument("--out-summary", default="summary.json")
    p.add_argument("--export-paths", type=int, default=50,
                   help="number of paths written to the CSV")
    p.add_argument("--checkpoints", type=int, default=11)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("spike-test", help="spike-variation optimality check")
    p.add_argument("--config", required=True)
    p.add_argument("--agent", type=int, default=None,
                   help="restrict to one agent (default: all)")
    p.add_argument("--times", default="0,0.5,1,1.5")
    p.add_argument("--v", action="append", default=None,
                   help="perturbation 'v1,v2'; repeatable; write a negative "
                        "v1 as --v=-1,0, since '-1,0' alone reads as an option")
    p.add_argument("--eps", default="0.1,0.05,0.025")
    p.add_argument("--out", dest="out_json", default="spike.json")
    p.set_defaults(fn=cmd_spike_test)

    p = sub.add_parser("figures", help="average-consumption curves (fig1/fig2 CSV)")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--betas", default="0.5,1,2")
    p.add_argument("--delta-hats", default="1,1.5,2")
    p.add_argument("--beta-fig2", type=float, default=1.0)
    p.add_argument("--T", type=float, default=2.0)
    p.add_argument("--x0", type=float, default=10.0)
    p.add_argument("--n-points", type=int, default=200)
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("verify", help="run analytic identity checks")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; a usage error, which argparse exits with 2, exits 1.
        return EXIT_OK if not exc.code else EXIT_VALIDATION
    if getattr(args, "v", None) is None and args.command == "spike-test":
        args.v = ["1,0", "-1,0", "0,1", "0,-1", "1,1", "-1,-1"]
    try:
        # An overflow or a NaN from valid input is a numerical failure.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return args.fn(args)
    # A size too large to allocate is refused like any other bad input.
    except (ValidationError, ValueError, IndexError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalFailure, DegenerateFixedPointError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        # Only a JSON output takes the diagnostic, never a CSV one.
        out = getattr(args, "out_json", None)
        if out:
            detail = getattr(exc, "detail", {})
            try:
                _write_json(out, {"error": str(exc), **detail}, args.deterministic)
            except OSError:
                pass
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
