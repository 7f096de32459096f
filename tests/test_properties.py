"""Property tests: relabelling the agents relabels every result, two sweeps
from zeros on coefficients equal the dense sweeps, every discount's log_integral
integrates its log_value, and the CLI answers any JSON config or argument
with an exit code instead of a traceback, naming a number of the wrong type."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import dense_profile
from relperf import (
    AgentType,
    ExponentialDiscount,
    GridStrategyN,
    HyperbolicDiscount,
    NAgentEquilibrium,
    Population,
    TabulatedDiscount,
    TimeGrid,
    best_response_profile,
    fixed_point_nagent,
)
from relperf.best_response import _refine
from relperf.cli import main

T = 2.0
HYP = HyperbolicDiscount(0.1, 1.0)
GRID = TimeGrid(0.0, T, 11)
# Derandomized and without an example database, so every run draws the
# same examples.
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def agents(draw):
    style = draw(st.integers(0, 2))   # common noise only, idiosyncratic only, both
    nu = 0.0 if style == 0 else draw(st.floats(0.2, 1.5))
    sigma = 0.0 if style == 1 else draw(st.floats(0.2, 1.5))
    return AgentType(delta=draw(st.floats(0.3, 2.5)), theta=draw(st.floats(0.0, 0.8)),
                     mu=draw(st.floats(0.2, 1.8)), nu=nu, sigma=sigma)


@st.composite
def relabelled(draw):
    members = draw(st.lists(agents(), min_size=2, max_size=7))
    return members, np.array(draw(st.permutations(range(len(members)))))


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@PROPERTY
@given(relabelled(), st.integers(0, 2**32 - 1))
def test_permuting_agents_permutes_results(case, seed):
    members, perm = case
    pop = Population(members)
    moved = Population([members[k] for k in perm])
    eq, moved_eq = NAgentEquilibrium(pop, HYP, T), NAgentEquilibrium(moved, HYP, T)
    assert_close(moved_eq.coefficients, eq.coefficients[perm])
    for j, k in enumerate(perm):
        got, want = moved_eq.constants(j), eq.constants(int(k))
        assert_close([got.a, got.b, got.c, got.d], [want.a, want.b, want.c, want.d])
    assert_close(moved_eq.intercepts_at(GRID.times), eq.intercepts_at(GRID.times)[perm])

    # one best-response sweep from an arbitrary profile with cross terms
    rng = np.random.default_rng(seed)
    n, m = pop.n, GRID.n_points
    strat = GridStrategyN(GRID, rng.normal(size=(n, m)), rng.normal(size=(n, n, m)),
                          rng.normal(size=(n, m)))
    moved_strat = GridStrategyN(GRID, strat.pi[perm], strat.p[perm][:, perm], strat.q[perm])
    reply = best_response_profile(pop, HYP, strat)
    moved_reply = best_response_profile(moved, HYP, moved_strat)
    assert_close(moved_reply.pi, reply.pi[perm])
    assert_close(moved_reply.p, reply.p[perm][:, perm])
    assert_close(moved_reply.q, reply.q[perm])


def dict_refine(*labelings):
    """The common refinement by a dict over the agents' label tuples."""
    index: dict = {}
    labels = np.array([index.setdefault(key, len(index)) for key in zip(*labelings)])
    return labels, np.unique(labels, return_index=True)[1], np.bincount(labels)


@PROPERTY
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    *[st.lists(st.integers(-3, 5), min_size=n, max_size=n)] * 2)))
def test_refine_matches_the_dict_refinement(labelings):
    a, b = (np.array(x) for x in labelings)
    signed = np.where(a == 0, -0.0, a.astype(float))  # -0.0 and 0.0 are one label
    signed[::2] = np.abs(signed[::2])
    for got, want in ((_refine(a, b), dict_refine(a, b)), (_refine(a), dict_refine(a)),
                      (_refine(signed, b), dict_refine(signed, b))):
        for x, y in zip(got, want):
            assert np.array_equal(x, y)


@PROPERTY
@given(st.lists(agents(), min_size=2, max_size=7))
def test_coefficient_sweep_matches_dense_sweep(members):
    # two sweeps from zeros, on the type classes and with one class per
    # agent, iterate coefficients, the second from nonzero ones, and equal
    # two (n, n, m) sweeps
    pop = Population(members)
    want = GridStrategyN.zeros(GRID, pop.n)
    for _ in range(2):
        want = dense_profile(pop, HYP, want)
    n, m = pop.n, GRID.n_points
    dense = GridStrategyN(GRID, np.zeros((n, m)), np.zeros((n, n, m)), np.zeros((n, m)))
    for init in (GridStrategyN.zeros(GRID, pop.n), dense):
        got, report = fixed_point_nagent(pop, HYP, init, max_iter=2)
        assert report.iterations == 2
        assert report.slope_form == report.pi_q_form == "coefficients"
        for a, b in zip((got.pi, got.p, got.q), (want.pi, want.p, want.q)):
            assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max())


AGENT = {"delta": 1.0, "theta": 0.5, "mu": 1.0, "nu": 0.5, "sigma": 1.0}
BASE_CONFIG = {
    "population": {"agents": [AGENT, dict(AGENT, delta=2.0, theta=0.2)]},
    "type_distribution": {"atoms": [{"type": AGENT, "weight": 0.5},
                                    {"type": dict(AGENT, nu=0.0), "weight": 0.5}]},
    "grid": {"t0": 0.0, "T": T, "n_points": 6},
    "sim": {"n_paths": 10, "dt": 0.1, "seed": 1},
}
DISCOUNTS = [
    {"variant": "exponential", "rho": 0.1},
    {"variant": "hyperbolic", "rho": 0.1, "beta": 1.0},
    {"variant": "tabulated", "times": [0.0, 1.0, 2.0, 3.0], "values": [1.0, 0.9, 0.8, 0.7]},
]
# Numbers stay in a moderate range (and off the subnormals), and lists stay
# short, so every grid is small and no valid run overflows.
NUMBERS = st.one_of(st.just(0.0), st.floats(0.05, 3.0), st.floats(-3.0, -0.05),
                    st.integers(-2, 40))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


def paths(node, prefix=()):
    """Every key path below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


@st.composite
def broken_configs(draw, base=BASE_CONFIG):
    """A valid config with one to three values replaced or removed."""
    cfg = copy.deepcopy(dict(base, discount=draw(st.sampled_from(DISCOUNTS))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(cfg))))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return cfg


@PROPERTY
@given(broken_configs())
def test_any_config_gets_an_exit_code(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        config = out / "config.json"
        config.write_text(json.dumps(cfg))
        assert main(["equilibrium", "--config", str(config),
                     "--out", str(out / "eq.csv")]) in (0, 1, 2)
        assert main(["mfg", "--config", str(config), "--out-csv", str(out / "mfg.csv"),
                     "--out-json", str(out / "mfg.json")]) in (0, 1, 2)


# JSON values of the wrong type for any config leaf; a list of numbers is
# x0's other valid form.
WRONG_TYPED = [True, "1", None, [1.0], {}]


@st.composite
def retyped_leaves(draw):
    """A valid config, one of its leaves, the leaf's old value and the config
    with a wrong-typed value in its place."""
    cfg = copy.deepcopy(dict(BASE_CONFIG, discount=draw(st.sampled_from(DISCOUNTS)),
                             x0=10.0))
    path = draw(st.sampled_from([path for path in paths(cfg)
                                 if not isinstance(value_at(cfg, path), (dict, list))]))
    parent = value_at(cfg, path[:-1])
    old = parent[path[-1]]
    parent[path[-1]] = draw(st.sampled_from(
        [v for v in WRONG_TYPED if not (path == ("x0",) and v == [1.0])]))
    return cfg, path, old


def value_at(node, path):
    """The value at key path ``path`` below ``node``."""
    for key in path:
        node = node[key]
    return node


@settings(PROPERTY, max_examples=200)
@given(retyped_leaves())
def test_a_wrong_typed_leaf_is_named(case):
    cfg, path, old = case
    field = [key for key in path if isinstance(key, str)][-1]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        config = out / "config.json"
        config.write_text(json.dumps(cfg))
        for argv in (["equilibrium", "--out", str(out / "eq.csv")],
                     ["mfg", "--out-csv", str(out / "m.csv"), "--out-json", str(out / "m.json")],
                     ["verify"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([argv[0], "--config", str(config), *argv[1:]])
            assert code in (0, 1, 2)
            if type(old) in (int, float):
                # every command reads every section, so each refuses the leaf
                assert code == 1 and field in err.getvalue()


@settings(PROPERTY, max_examples=30)
@given(broken_configs(dict(BASE_CONFIG, grid=dict(BASE_CONFIG["grid"], n_points=11))))
def test_best_response_gets_an_exit_code(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        config = out / "config.json"
        config.write_text(json.dumps(cfg))
        assert main(["best-response", "--config", str(config),
                     "--out-json", str(out / "it.json"),
                     "--out-csv", str(out / "it.csv")]) in (0, 1, 2)


@st.composite
def discounts(draw, last=3.0):
    """A discount of any family, defined on at least [0, last]."""
    family = draw(st.sampled_from(["exponential", "hyperbolic", "tabulated"]))
    if family == "exponential":
        return ExponentialDiscount(draw(st.floats(0.0, 3.0)))
    if family == "hyperbolic":
        return HyperbolicDiscount(draw(st.floats(0.01, 3.0)), draw(st.floats(0.01, 20.0)))
    inner = sorted(draw(st.lists(st.floats(0.01, last - 0.01), unique=True, max_size=6)))
    logs = draw(st.lists(st.floats(-3.0, 1.0), min_size=len(inner) + 1,
                         max_size=len(inner) + 1))
    return TabulatedDiscount([0.0, *inner, last], np.exp([0.0, *logs]))


@PROPERTY
@given(discounts(), st.floats(0.05, 3.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_log_integral_differences_integrate_log_value(d, horizon, u1, u2):
    t1, t2 = horizon * min(u1, u2), horizon * max(u1, u2)
    knots = horizon - d.times if isinstance(d, TabulatedDiscount) else np.empty(0)
    want, _ = quad(lambda s: float(d.log_value(horizon - s)), t1, t2,
                   points=knots[(knots > t1) & (knots < t2)] if t2 > t1 else None,
                   epsabs=1e-13, epsrel=1e-12, limit=200)
    got = float(d.log_integral(t1, horizon) - d.log_integral(t2, horizon))
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def exit_code(argv) -> int:
    """main's exit code, argparse's usage errors included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# Values a user may pass for a number, a count or a list of numbers.
ARG_VALUES = st.sampled_from(["0", "1", "2", "-1", "0.5", "1e308", "nan", "inf", "-inf",
                              "", ",", "0.1,0.5", "1,-1", "abc", "3,", "1e-300"])


# Each command's output files and its arguments beyond --config.
COMMANDS = {
    "simulate": ({"--out-paths": "p.csv", "--out-summary": "s.json"},
                 ["--checkpoints", "--export-paths"]),
    "spike-test": ({"--out": "spike.json"}, ["--times", "--eps", "--v", "--agent"]),
    "verify": ({}, []),
}


@settings(PROPERTY, max_examples=40)
@given(st.one_of(st.sampled_from([dict(BASE_CONFIG, discount=d) for d in DISCOUNTS]),
                 broken_configs()),
       st.sampled_from(sorted(COMMANDS)), st.data())
def test_config_commands_get_an_exit_code(cfg, command, data):
    outputs, flags = COMMANDS[command]
    extra = data.draw(st.lists(st.tuples(st.sampled_from(flags), ARG_VALUES), max_size=2)
                      if flags else st.just([]))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        argv = [command, "--config", str(config)]
        argv += [f"{flag}={Path(tmp) / name}" for flag, name in outputs.items()]
        argv += [f"{flag}={value}" for flag, value in extra]
        assert exit_code(argv) in (0, 1, 2)


@settings(PROPERTY, max_examples=25)
@given(st.lists(st.tuples(st.sampled_from(["--rho", "--betas", "--delta-hats",
                                           "--beta-fig2", "--T", "--x0", "--n-points"]),
                          ARG_VALUES), max_size=3))
def test_figures_gets_an_exit_code(extra):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["figures", "--out-dir", tmp, "--n-points", "21"]
        for flag, value in extra:
            argv += [f"{flag}={value}"]
        assert exit_code(argv) in (0, 1, 2)
