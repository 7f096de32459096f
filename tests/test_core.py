import numpy as np
import pytest

import relperf
from relperf import best_response, core, diagnostics, discount, mfg, nagent, simulate
from relperf import (
    AgentType,
    TimeGrid,
    TypeDistribution,
    ValidationError,
    agent_violations,
    validate_agent,
)


def test_valid_agent_passes():
    validate_agent(AgentType(delta=1, theta=0, mu=1, nu=0, sigma=1))


def test_theta_one_is_rejected():
    with pytest.raises(ValidationError, match="theta"):
        validate_agent(AgentType(delta=1, theta=1, mu=1, nu=0, sigma=1))


def test_degenerate_volatility_rejected():
    with pytest.raises(ValidationError, match=r"sigma\+nu"):
        validate_agent(AgentType(delta=1, theta=0.5, mu=1, nu=0, sigma=0))


@pytest.mark.parametrize(
    "agent, needle",
    [
        (AgentType(0, 0.5, 1, 0, 1), "delta"),
        (AgentType(1, -0.1, 1, 0, 1), "theta"),
        (AgentType(1, 0.5, 0, 0, 1), "mu"),
        (AgentType(1, 0.5, 1, -1, 1), "nu"),
        (AgentType(1, 0.5, 1, 0, -1), "sigma"),
    ],
)
def test_each_bound_reported_by_name(agent, needle):
    msgs = agent_violations(agent)
    assert any(needle in m for m in msgs)


def test_multiple_violations_reported_together():
    msgs = agent_violations(AgentType(-1, 2, -1, 0, 0))
    assert len(msgs) >= 3


def test_nonfinite_rejected():
    assert agent_violations(AgentType(np.nan, 0, 1, 0, 1))


def test_agent_json_roundtrip():
    a = AgentType(1.5, 0.25, 0.8, 0.3, 0.7)
    assert AgentType.from_dict(a.to_dict()) == a


def test_timegrid_nodes_include_endpoints():
    g = TimeGrid(0.5, 2.0, 7)
    assert g.times[0] == 0.5 and g.times[-1] == 2.0
    assert np.allclose(np.diff(g.times), g.step)


@pytest.mark.parametrize("t0,T,n", [(-0.1, 2, 5), (1.0, 1.0, 5), (0, 2, 1)])
def test_timegrid_invalid(t0, T, n):
    with pytest.raises(ValidationError):
        TimeGrid(t0, T, n)


def test_timegrid_points_must_be_integral():
    grid = TimeGrid.from_dict({"t0": 0.0, "T": 2.0, "n_points": 40.0})
    assert grid.n_points == 40 and isinstance(grid.n_points, int)
    for bad in (2.9, True, "40", float("inf"), None):
        with pytest.raises(ValidationError, match="grid field 'n_points'"):
            TimeGrid.from_dict({"t0": 0.0, "T": 2.0, "n_points": bad})


@pytest.mark.parametrize("n_points", [2.5, "3"])
def test_timegrid_refuses_points_that_are_not_an_integer(n_points):
    # refused when built, not later in np.linspace or as a raw TypeError
    with pytest.raises(ValidationError, match="grid field 'n_points' must be an integer"):
        TimeGrid(0.0, 2.0, n_points)


def test_distribution_weights_must_sum_to_one():
    a = AgentType(1, 0, 1, 0, 1)
    with pytest.raises(ValidationError, match="sum to 1"):
        TypeDistribution([(a, 0.5), (a, 0.4)])


def test_distribution_weights_must_be_positive():
    a = AgentType(1, 0, 1, 0, 1)
    with pytest.raises(ValidationError, match="> 0"):
        TypeDistribution([(a, 1.5), (a, -0.5)])


def test_distribution_atoms_validated():
    bad = AgentType(1, 1.2, 1, 0, 1)
    with pytest.raises(ValidationError):
        TypeDistribution([(bad, 1.0)])


def test_distribution_expectation_is_weighted_sum():
    dist = TypeDistribution(
        [(AgentType(1, 0, 1, 0, 1), 0.25), (AgentType(3, 0.5, 1, 1, 0), 0.75)]
    )
    assert dist.weights @ dist.field("delta") == pytest.approx(0.25 * 1 + 0.75 * 3, abs=1e-15)
    assert dist.weights @ [2.0, 4.0] == pytest.approx(3.5, abs=1e-15)


def test_distribution_json_roundtrip():
    dist = TypeDistribution(
        [(AgentType(1, 0, 1, 0, 1), 0.25), (AgentType(3, 0.5, 1, 1, 0), 0.75)]
    )
    again = TypeDistribution.from_dict(dist.to_dict())
    assert again.atoms == dist.atoms


def reference_violations(agent):
    """The constraints checked one parameter at a time with np.isfinite, as
    agent_violations did before it read all agents of a population at once."""
    out = []
    vals = (agent.delta, agent.theta, agent.mu, agent.nu, agent.sigma)
    if not all(np.isfinite(v) for v in vals):
        return ["all parameters must be finite"]
    if not agent.delta > 0:
        out.append("delta must be > 0")
    if not (0.0 <= agent.theta < 1.0):
        out.append("theta must lie in [0,1)")
    if not agent.mu > 0:
        out.append("mu must be > 0")
    if agent.nu < 0:
        out.append("nu must be >= 0")
    if agent.sigma < 0:
        out.append("sigma must be >= 0")
    if agent.sigma >= 0 and agent.nu >= 0 and not agent.sigma + agent.nu > 0:
        out.append("sigma+nu must be > 0")
    return out


# NaN, both infinities, theta = 1, negative and signed-zero boundaries, the
# smallest subnormal, and ordinary values.
SPECIAL = (np.nan, np.inf, -np.inf, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0)
SPECIAL_AGENTS = [AgentType(*v) for v in
                  np.array(np.meshgrid(*[SPECIAL] * 5)).reshape(5, -1).T.tolist()]
GOOD = AgentType(1.0, 0.5, 1.0, 0.2, 0.3)


def test_violations_match_the_reference_on_special_values():
    problems = [agent_violations(a) for a in SPECIAL_AGENTS]
    assert problems == [reference_violations(a) for a in SPECIAL_AGENTS]
    assert sum(not p for p in problems) > 100  # valid boundary cases are kept
    for needle in ("finite", "theta", "nu must", "sigma must", "sigma+nu"):
        assert any(needle in "; ".join(p) for p in problems)


def test_population_names_its_first_bad_agent():
    from relperf import Population

    rng = np.random.default_rng(3)
    bad = [a for a in SPECIAL_AGENTS if reference_violations(a)]
    for agent in rng.choice(np.array(bad, dtype=object), 40, replace=False):
        k = int(rng.integers(0, 6))
        members = [GOOD] * 6
        members[k] = agent
        members[5] = AgentType(-1.0, 0.5, 1.0, 0.2, 0.3)  # a later bad agent
        want = "; ".join(reference_violations(agent)) if k < 5 else "delta must be > 0"
        with pytest.raises(ValidationError) as exc:
            Population(members)
        assert str(exc.value) == f"agent {min(k, 5)}: {want}"
    valid = [a for a in SPECIAL_AGENTS if not reference_violations(a)]
    assert Population(valid).n == len(valid)


def test_distribution_refuses_any_bad_atom():
    # every distinct set of violations, and a seeded sample of the rest
    bad = {}
    for agent in SPECIAL_AGENTS:
        bad.setdefault("; ".join(reference_violations(agent)), []).append(agent)
    del bad[""]
    rng = np.random.default_rng(5)
    rest = [a for agents in bad.values() for a in agents[1:]]
    sample = [agents[0] for agents in bad.values()] + list(rng.choice(
        np.array(rest, dtype=object), 300, replace=False))
    for agent in sample:
        for atoms in ([(agent, 1.0)], [(GOOD, 0.5), (agent, 0.5)]):
            with pytest.raises(ValidationError) as exc:
                TypeDistribution(atoms)
            assert str(exc.value) == "; ".join(reference_violations(agent))


def test_package_exports_the_union_of_the_module_lists():
    modules = (core, discount, nagent, mfg, best_response, simulate, diagnostics)
    union = [name for module in modules for name in module.__all__]
    assert sorted(relperf.__all__) == sorted(set(union)) == sorted(union)
    for module in modules:
        assert all(getattr(relperf, name) is getattr(module, name) for name in module.__all__)
    gone = {simulate: ("spike_test", "SpikeReport"),
            best_response: ("best_response_nagent", "response_h"),
            discount: ("discount_eval", "discount_log_integral"),
            TypeDistribution: ("expect", "expect_values")}
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(relperf, name) and not hasattr(owner, name)
