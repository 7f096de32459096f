"""Run one relperf benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload spike --seed 1 --seconds 50 --trace 0

The run is a closed loop: one process runs one verified op at a time and
starts the next only when the previous one has finished, until ``--seconds``
have passed (at least one op).  An untraced run also times a few fresh-process
set-ups before each op, so that its set-up samples span the run as its ops
do.  With ``--trace 0`` the last line of standard
output holds the end-to-end metrics; with ``--trace 1`` every call into
``relperf`` is wrapped in a span, the probes of ``Workload.probe`` run after
the ops, and the last line holds the per-layer metrics.  The line before it
records the environment, and ``perfbench/out/`` gets the whole record,
spans included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# At most one compute thread per core: the spike_grid pool gets two threads
# and BLAS / OpenMP none of their own, so pool threads never start more.
PINS = {"RELPERF_THREADS": "2", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PER_OP = 4

# Per-layer metrics of a traced run: name -> (unit, better).  Counts are
# computed from the workload sizes, not counted inside the package.
PER_LAYER = {
    "simulate.spike_grid_s": ("s", "lower"),
    "simulate.payoff_sim_s": ("s", "lower"),
    "simulate.spike_bookkeeping_s": ("s", "lower"),
    "simulate.pool_speedup": ("ratio", "higher"),
    "simulate.simulate_paths_s": ("s", "lower"),
    "simulate.ns_per_path_step": ("ns", "lower"),
    "simulate.gaussian_moments_s": ("s", "lower"),
    "simulate.path_steps_per_s": ("1/s", "higher"),
    "nagent.consumption_at_s": ("s", "lower"),
    "nagent.equilibrium_s": ("s", "lower"),
    "mfg.equilibrium_s": ("s", "lower"),
    "mfg.average_consumption_s": ("s", "lower"),
    "best_response.fixed_point_s": ("s", "lower"),
    "best_response.sweep_s": ("s", "lower"),
    "best_response.iterations": ("count", "lower"),
    "best_response.contraction": ("ratio", "lower"),
    "best_response.mfg_fixed_point_s": ("s", "lower"),
    "best_response.mfg_iterations": ("count", "lower"),
    "process.cpu_per_wall": ("ratio", "higher"),
    "trace.op_s": ("s", "lower"),
    "trace.span_coverage": ("ratio", "higher"),
    "simulate.path_steps": ("count", "lower"),
    "simulate.normal_draws": ("count", "lower"),
    "simulate.utility_exps": ("count", "lower"),
    "simulate.spike_prices": ("count", "lower"),
    "simulate.bytes_recorded": ("B", "lower"),
    "simulate.n_clamped": ("count", "lower"),
    "best_response.profile_bytes": ("B", "lower"),
}
COMPUTED = ["simulate.path_steps", "simulate.normal_draws", "simulate.utility_exps",
            "simulate.spike_prices", "simulate.bytes_recorded",
            "best_response.profile_bytes"]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pinned_threads(env) -> int:
    """Compute threads the pins allow: pool threads, each with its BLAS threads."""
    return int(env["RELPERF_THREADS"]) * max(int(env["OPENBLAS_NUM_THREADS"]),
                                             int(env["OMP_NUM_THREADS"]))


def commit() -> str | None:
    """HEAD of the repository holding the benchmark, if it is a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        **{k: os.environ.get(k) for k in PINS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "commit": commit(),
        "seed": seed,
    }


def setup_seconds(name: str, seed: int) -> float:
    """Time from starting a fresh process to its first op being ready."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "workloads.py"), name, str(seed)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup of {name} failed with code {proc.returncode}")
    return elapsed


def run_ops(wl, tr, seconds: float, seed: int | None = None) -> dict:
    """Closed loop of verified ops; an op that raises counts as failed.

    With a seed, SETUP_PER_OP fresh-process set-ups are timed before each op.
    """
    walls, setups, failed = [], [], 0
    start, cpu0 = time.perf_counter(), time.process_time()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        if seed is not None:
            setups += [setup_seconds(wl.name, seed) for _ in range(SETUP_PER_OP)]
        t0 = time.perf_counter()
        with tr.span("op"):
            try:
                ok = wl.op(k, tr)
            except Exception:
                traceback.print_exc()
                ok = False
        walls.append(time.perf_counter() - t0)
        failed += not ok
        k += 1
    return {"walls": walls, "setups": setups, "failed": failed,
            "cpu_per_wall": (time.process_time() - cpu0) / (time.perf_counter() - start)}


def span_totals(spans: list[dict]) -> dict:
    """Seconds by span name, per parent span id (None for root spans)."""
    totals: dict = {}
    for s in spans:
        group = totals.setdefault(s["parent"], {})
        group[s["name"]] = group.get(s["name"], 0.0) + s["end"] - s["start"]
    return totals


def layer_metrics(wl, spans: list[dict], loop: dict) -> dict[str, dict]:
    totals = span_totals(spans)
    ops = [s for s in spans if s["name"] == "op"]
    per_op = [totals.get(s["id"], {}) for s in ops]
    probes = totals.get(None, {})

    def op_median(name: str) -> float:
        """Median per op of a layer the ops call, else its probe total."""
        if any(name in t for t in per_op):
            return statistics.median(t.get(name, 0.0) for t in per_op)
        return probes.get(name, 0.0)

    counts = dict.fromkeys(COMPUTED, 0) | wl.counts()
    moments = getattr(wl, "moments", None)
    spike_grid_s = op_median("simulate.spike_grid")
    payoff_sim_s = probes.get("simulate.payoff_sim", 0.0)
    serial_s = probes.get("simulate.spike_grid_serial", 0.0)
    simulate_paths_s = op_median("simulate.simulate_paths")
    fixed_point_s = op_median("best_response.fixed_point")
    reports = getattr(wl, "reports", None)
    iterations = reports[0].iterations if reports else 0
    history = reports[0].residual_history if reports else []
    coverage = [sum(t.values()) / (s["end"] - s["start"]) for s, t in zip(ops, per_op)]
    op_walls = [s["end"] - s["start"] for s in ops]
    m = {
        "simulate.spike_grid_s": spike_grid_s,
        "simulate.payoff_sim_s": payoff_sim_s,
        "simulate.spike_bookkeeping_s": serial_s - payoff_sim_s if serial_s else 0.0,
        "simulate.pool_speedup": serial_s / spike_grid_s if serial_s else 0.0,
        "simulate.simulate_paths_s": simulate_paths_s,
        "simulate.ns_per_path_step": (1e9 * simulate_paths_s / moments.path_steps
                                      if moments else 0.0),
        "simulate.gaussian_moments_s": op_median("simulate.gaussian_moments"),
        "simulate.path_steps_per_s": counts["simulate.path_steps"] * len(ops) / sum(op_walls),
        "nagent.consumption_at_s": probes.get("nagent.consumption_at", 0.0),
        "nagent.equilibrium_s": op_median("nagent.equilibrium"),
        "mfg.equilibrium_s": op_median("mfg.equilibrium"),
        "mfg.average_consumption_s": op_median("mfg.average_consumption"),
        "best_response.fixed_point_s": fixed_point_s,
        "best_response.sweep_s": fixed_point_s / iterations if iterations else 0.0,
        "best_response.iterations": iterations,
        "best_response.contraction": history[-1] / history[-2] if len(history) > 1 else 0.0,
        "best_response.mfg_fixed_point_s": op_median("best_response.mfg_fixed_point"),
        "best_response.mfg_iterations": reports[1].iterations if reports else 0,
        "process.cpu_per_wall": loop["cpu_per_wall"],
        "trace.op_s": statistics.median(op_walls),
        "trace.span_coverage": min(coverage),
        "simulate.n_clamped": getattr(wl, "n_clamped", 0),
        **counts,
    }
    return {name: {"value": m[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}


def measure(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up and run one workload; return (result line, full record)."""
    from workloads import Tracer

    tr = Tracer(trace)
    wl.setup(seed)
    loop = run_ops(wl, tr, seconds, None if trace else seed)
    attempted, failed = len(loop["walls"]), loop["failed"]
    if trace:
        attempted += 1
        try:
            failed += not wl.probe(tr)
        except Exception:
            traceback.print_exc()
            failed += 1
        metrics = layer_metrics(wl, tr.spans, loop)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(loop["setups"]), "unit": "s"},
            "op_s": {"value": statistics.median(loop["walls"]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": wl.name, "trace": trace, "op_walls": loop["walls"],
              "setup_walls": loop["setups"],
              "computed_counts": COMPUTED, "result": result, "spans": tr.spans}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["spike", "solve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    os.environ.update(PINS)
    if pinned_threads(os.environ) > nproc():
        print(f"refusing to run: {pinned_threads(os.environ)} pinned compute threads "
              f"exceed nproc = {nproc()}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    env = environment(args.seed)
    result, record = measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                             bool(args.trace))
    record["env"] = env
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
