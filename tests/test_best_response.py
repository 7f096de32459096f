import tracemalloc

import numpy as np
import pytest

from conftest import (dense_consumption, dense_profile, oracle_hhat_quadrature,
                      random_distribution, random_population, replicated_population)
from relperf import (
    AgentType,
    ExponentialDiscount,
    GridStrategyN,
    HyperbolicDiscount,
    IterationReport,
    MeanFieldEquilibrium,
    MFGridStrategy,
    NAgentEquilibrium,
    Population,
    TabulatedDiscount,
    TimeGrid,
    TypeDistribution,
    ValidationError,
    best_response_mfg,
    best_response_nagent,
    best_response_profile,
    fixed_point_mfg,
    fixed_point_nagent,
    mfg_aggregates,
    aggregates,
    response_h,
)
from relperf import best_response as br
from relperf.best_response import _reply
from relperf.mfg import _mfg_law

T = 2.0
GRID = TimeGrid(0.0, T, 200)
HYP = HyperbolicDiscount(0.1, 1.0)
EXP = ExponentialDiscount(0.1)

HET2 = Population([AgentType(1.0, 0.5, 1.0, 1.0, 1.0),
                   AgentType(2.0, 0.2, 0.5, 0.0, 1.0)])


def closed_form(pop, d, grid=GRID):
    return GridStrategyN.from_equilibrium(NAgentEquilibrium(pop, d, grid.T), grid)


def test_equilibrium_is_fixed_point_of_reply_map():
    strat = closed_form(HET2, HYP)
    reply = best_response_profile(HET2, HYP, strat)
    assert reply.sup_distance(strat) < 1e-10


def test_single_agent_reply_slices_profile():
    strat = closed_form(HET2, HYP)
    pi1, p1, q1 = best_response_nagent(HET2, HYP, strat, 1)
    full = best_response_profile(HET2, HYP, strat)
    assert np.array_equal(pi1, full.pi[1])
    assert np.array_equal(p1, full.p[1])
    assert np.array_equal(q1, full.q[1])
    with pytest.raises(IndexError):
        best_response_nagent(HET2, HYP, strat, 7)


def test_reply_to_idle_competitor_is_solo_policy():
    # competitor sits at zero and agent 0 has no competitive motive: the reply
    # is the solo investment line with intercept -delta (h + ln lam).
    pop = Population([AgentType(1.3, 0.0, 1.1, 0.6, 0.9),
                      AgentType(1.0, 0.4, 1.0, 0.0, 1.0)])
    zero = GridStrategyN.zeros(GRID, 2)
    pi0, p0, q0 = best_response_nagent(pop, HYP, zero, 0)
    a = pop.agents[0]
    rem = T + 1.0 - GRID.times
    assert np.allclose(pi0, a.delta * a.mu / (a.nu**2 + a.sigma**2) * rem,
                       rtol=1e-14, atol=0)
    h0 = response_h(pop, HYP, zero, 0)
    want_q = -a.delta * (h0 + HYP.log_value(T - GRID.times))
    assert np.allclose(q0, want_q, rtol=0, atol=1e-14)
    # G reduces to its discount and Merton terms; h has a closed form here
    d0 = 0.5 * a.mu**2 / (a.nu**2 + a.sigma**2)
    want_h = 0.5 * d0 * (1.0 / rem - rem) - HYP.log_integral(GRID.times, T) / rem
    assert np.abs(h0 - want_h).max() < 1e-9
    assert np.allclose(p0[0], 1.0 / rem, rtol=0, atol=1e-14)
    assert np.abs(p0[1]).max() == 0.0


def test_response_h_matches_direct_quadrature_at_equilibrium(rng):
    for _ in range(6):
        pop = random_population(rng, n=int(rng.integers(2, 5)))
        strat = closed_form(pop, EXP)
        i = int(rng.integers(0, pop.n))
        h = response_h(pop, EXP, strat, i)
        for j in (0, 57, 150):
            t = float(GRID.times[j])
            want = oracle_hhat_quadrature(pop, EXP, i, t, T, n=4000)
            assert h[j] == pytest.approx(want, abs=1e-8)


def points_h(d, grid, p, w, s, pi):
    """The reply intercept h by Simpson's rule on the linearly interpolated
    investments, with G evaluated on (K, 5(m-1)) arrays at every point of
    the rule: the form of the reply before it worked on node values."""
    times, T = grid.times, grid.T
    delta, theta, mu, nu, sigma = (p[k][:, None] for k in ("delta", "theta", "mu", "nu",
                                                           "sigma"))
    pts = times[:-1, None] + np.diff(times)[:, None] * np.linspace(0.0, 1.0, 5)
    u = pts.ravel()
    j = np.clip(np.searchsorted(times, u, side="right") - 1, 0, times.size - 2)
    frac = (u - times[j]) / (times[j + 1] - times[j])
    pi_u = pi[:, j] + (pi[:, j + 1] - pi[:, j]) * frac

    def competitor(x):
        return w @ x - s * x

    rem_u = T + 1.0 - u
    g = (theta / delta) / rem_u
    sbar = competitor(sigma * pi_u)
    G = (-d.log_value(T - u) / rem_u
         - 0.5 * (mu + sigma * g * sbar) ** 2 / (nu**2 + sigma**2)
         + g * competitor(mu * pi_u)
         + 0.5 * g**2 * (sbar**2 + s * competitor((nu * pi_u) ** 2)))
    seg = np.diff(times) / 12.0 * ((rem_u * G).reshape((-1,) + pts.shape) @ [1, 4, 2, 4, 1])
    h = np.zeros(pi.shape)
    h[:, :-1] = np.cumsum(seg[:, ::-1], axis=1)[:, ::-1]
    return h / (T + 1.0 - times)


def test_node_h_matches_quadrature_point_h(rng):
    # rows of type classes, of the K = n fallback from an asymmetric start
    # and of the mean field, for the three discount families
    tab = TabulatedDiscount([0.0, 0.37, 1.13, 1.71, 2.5], [1.0, 0.93, 0.71, 0.69, 0.5])
    pop = shuffled_classes(rng)
    shape = (pop.n, SMALL.n_points)
    asymmetric = GridStrategyN(SMALL, rng.normal(size=shape),
                               rng.normal(size=(pop.n,) + shape), rng.normal(size=shape))
    dist = random_distribution(rng, k=5)
    for d in (HYP, EXP, tab):
        cases = []
        for strat, classes in ((class_profile(rng, pop), 3), (asymmetric, pop.n)):
            space = br._ClassSpace(pop, d, strat)
            assert len(space.counts) == classes
            cases.append((space.law, space.start().pi))
        cases.append((_mfg_law(dist), rng.normal(size=(dist.n_atoms, SMALL.n_points))))
        for law, pi in cases:
            got = br._ReplyPlan(d, SMALL, *law).h(pi)
            want = points_h(d, SMALL, *law, pi)
            assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def test_node_h_stays_below_one_quadrature_point_array(rng):
    # at K = 32, m = 200 a (K, 5(m-1)) array of the old rule takes 255 KB
    K, m = 32, GRID.n_points
    dist = random_distribution(rng, k=K)
    pop = replicated_population(dist, 128)
    pi = rng.normal(size=(K, m))
    for law in (_mfg_law(dist), br._ClassSpace(pop, HYP, GridStrategyN.zeros(GRID, 128)).law):
        plan = br._ReplyPlan(HYP, GRID, *law)
        tracemalloc.start()
        try:
            plan.h(pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < K * 5 * (m - 1) * 8


def test_grid_mismatch_rejected():
    strat = GridStrategyN.zeros(TimeGrid(0.0, T, 50), 3)
    with pytest.raises(ValidationError):
        best_response_profile(HET2, HYP, strat)


def test_fixed_point_from_zero_matches_closed_form(rng):
    for _ in range(5):
        pop = random_population(rng, n=int(rng.integers(2, 6)))
        d = HYP if rng.integers(0, 2) else EXP
        final, report = fixed_point_nagent(pop, d, GridStrategyN.zeros(GRID, pop.n),
                                           tol=1e-11, max_iter=400)
        assert report.converged
        assert final.sup_distance(closed_form(pop, d)) < 1e-8
        assert final.max_cross_coefficient() < 1e-10


def test_fixed_point_from_equilibrium_is_immediate():
    strat = closed_form(HET2, HYP)
    final, report = fixed_point_nagent(HET2, HYP, strat, tol=1e-10, max_iter=50)
    assert report.converged
    assert report.iterations == 1
    assert report.residual_history[0] <= 1e-10


def test_nonconvergence_reported_not_raised():
    final, report = fixed_point_nagent(HET2, HYP, GridStrategyN.zeros(GRID, 2),
                                       tol=1e-12, max_iter=2)
    assert not report.converged
    assert report.iterations == 2
    assert len(report.residual_history) == 2


def test_investment_residual_contracts_like_psi():
    # With many agents the self-exclusion correction is O(1/n) and the
    # sigma-weighted investment residual contracts at rate psi_n.
    atom = AgentType(1.0, 0.6, 1.0, 0.5, 1.0)
    pop = Population([atom] * 12)
    psi = aggregates(pop).psi_n
    sigma = pop.field("sigma")
    eqpi = closed_form(pop, EXP).pi
    strat = GridStrategyN.zeros(GRID, 12)
    gaps = []
    for _ in range(4):
        strat = best_response_profile(pop, EXP, strat)
        gaps.append(np.abs(sigma @ (strat.pi - eqpi) / 12).max())
    for a, b in zip(gaps, gaps[1:]):
        assert b / a == pytest.approx(psi, rel=0.1)


def test_residual_ratios_eventually_bounded(rng):
    for _ in range(4):
        pop = random_population(rng, n=int(rng.integers(2, 6)))
        agg = aggregates(pop)
        bound = max(agg.psi_n, agg.theta_bar) + 0.05
        _, report = fixed_point_nagent(pop, HYP, GridStrategyN.zeros(GRID, pop.n),
                                       tol=1e-12, max_iter=200)
        hist = report.residual_history
        tail = [hist[k + 1] / hist[k] for k in range(len(hist) - 6, len(hist) - 1)]
        assert all(r <= bound for r in tail)


def test_reply_investment_is_state_independent_by_construction():
    # the reply's investment depends only on time: feeding profiles that agree
    # on pi but have different consumption rules leaves the reply pi unchanged
    strat_a = closed_form(HET2, HYP)
    strat_b = GridStrategyN(GRID, strat_a.pi.copy(),
                            np.random.default_rng(0).normal(size=strat_a.p.shape),
                            strat_a.q + 1.0)
    ra = best_response_profile(HET2, HYP, strat_a)
    rb = best_response_profile(HET2, HYP, strat_b)
    assert np.array_equal(ra.pi, rb.pi)


def reference_profile(pop, d, strategy):
    """Agent-by-agent loop form of the simultaneous best reply."""
    times, T = strategy.grid.times, strategy.grid.T
    n, m = pop.n, times.size
    delta, theta, mu, nu, sigma = (pop.field(k) for k in
                                   ("delta", "theta", "mu", "nu", "sigma"))
    rem = T + 1.0 - times
    own = 1.0 - theta / n

    # h_i(t) by two Simpson panels per interval on interpolated investments
    offs = np.linspace(0.0, 1.0, 5)
    pts = times[:-1, None] + np.diff(times)[:, None] * offs[None, :]
    wq = np.array([1.0, 4.0, 2.0, 4.0, 1.0])
    s = pts.ravel()
    rem_s = T + 1.0 - s
    pi_s = np.array([np.interp(s, times, strategy.pi[k]) for k in range(n)])
    h = np.empty((n, m))
    for i in range(n):
        others = [k for k in range(n) if k != i]
        sbar = sum(sigma[k] * pi_s[k] for k in others) / n
        mbar = sum(mu[k] * pi_s[k] for k in others) / n
        vbar = sum((nu[k] * pi_s[k]) ** 2 for k in others) / n**2
        g = (theta[i] / delta[i]) / rem_s
        G = (-d.log_value(T - s) / rem_s
             - 0.5 * (mu[i] + sigma[i] * g * sbar) ** 2 / (nu[i]**2 + sigma[i]**2)
             + g * mbar + 0.5 * g**2 * (sbar**2 + vbar))
        seg = np.diff(times) / 12.0 * ((rem_s * G).reshape(pts.shape) @ wq)
        h[i] = np.append(np.cumsum(seg[::-1])[::-1], 0.0) / rem

    pi = np.empty((n, m))
    p = np.empty((n, n, m))
    q = np.empty((n, m))
    for i in range(n):
        others = [k for k in range(n) if k != i]
        sbar = sum(sigma[k] * strategy.pi[k] for k in others) / n
        pi[i] = (delta[i] * mu[i] * rem + theta[i] * sigma[i] * sbar) / (
            (nu[i]**2 + sigma[i]**2) * own[i])
        couple = theta[i] / own[i]
        for j in range(n):
            pbar = sum(strategy.p[k, j] for k in others) / n
            p[i, j] = couple * pbar + (1.0 / rem if j == i else -couple / n / rem)
        qbar = sum(strategy.q[k] for k in others) / n
        q[i] = -delta[i] / own[i] * (h[i] + d.log_value(T - times)) + couple * qbar
    return pi, p, q


def test_profile_matches_reference_loop(rng):
    pop = random_population(rng, n=5)
    grid = TimeGrid(0.0, T, 41)
    shape = (pop.n, grid.n_points)
    strat = GridStrategyN(grid, rng.normal(size=shape),
                          rng.normal(size=(pop.n,) + shape), rng.normal(size=shape))
    assert strat.max_cross_coefficient() > 0.1
    reply = best_response_profile(pop, HYP, strat)
    for got, want in zip((reply.pi, reply.p, reply.q),
                         reference_profile(pop, HYP, strat)):
        assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def test_grid_strategy_interpolation_matches_np_interp(rng):
    grid = TimeGrid(0.0, T, 9)
    n = 4
    shape = (n, grid.n_points)
    strat = GridStrategyN(grid, rng.normal(size=shape), rng.normal(size=(n,) + shape),
                          rng.normal(size=shape))
    # every node, every midpoint and random points in between
    mids = (grid.times[:-1] + grid.times[1:]) / 2.0
    times = np.sort(np.concatenate([grid.times, mids, rng.uniform(0.0, T, 7)]))
    pi = strat.pi_at(times)
    P, q = dense_consumption(strat, times)
    assert pi.shape == q.shape == (times.size, n)
    assert P.shape == (times.size, n, n)
    for i in range(n):
        assert np.abs(pi[:, i] - np.interp(times, grid.times, strat.pi[i])).max() <= 1e-14
        assert np.abs(q[:, i] - np.interp(times, grid.times, strat.q[i])).max() <= 1e-14
        for k in range(n):
            want = np.interp(times, grid.times, strat.p[i, k])
            assert np.abs(P[:, i, k] - want).max() <= 1e-14


def test_scalar_time_interpolation_leaves_profile_unchanged(rng):
    grid, n, t = TimeGrid(0.0, T, 9), 3, 0.7
    shape = (n, grid.n_points)
    strat = GridStrategyN(grid, rng.normal(size=shape), rng.normal(size=(n,) + shape),
                          rng.normal(size=shape))
    before = [x.copy() for x in (strat.pi, strat.p, strat.q)]
    pi = strat.pi_at(t)
    P, q = dense_consumption(strat, t)
    assert np.abs(pi - [np.interp(t, grid.times, row) for row in before[0]]).max() <= 1e-14
    assert np.abs(P - [[np.interp(t, grid.times, row) for row in rows]
                          for rows in before[1]]).max() <= 1e-14
    assert np.abs(q - [np.interp(t, grid.times, row) for row in before[2]]).max() <= 1e-14
    for got, want in zip((strat.pi, strat.p, strat.q), before):
        assert np.array_equal(got, want)


def test_consumption_at_allocates_one_result(rng):
    n, grid = 32, TimeGrid(0.0, T, 21)
    shape = (n, grid.n_points)
    strat = GridStrategyN(grid, rng.normal(size=shape), rng.normal(size=(n,) + shape),
                          rng.normal(size=shape))
    times = np.linspace(0.0, T, 501)
    tracemalloc.start()
    try:
        out = strat.consumption_at(times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * sum(x.nbytes for x in out)


def test_dense_slopes_are_kept_off_the_heap(rng):
    # a zero profile, a closed form and a reply are stored as class blocks, so
    # building one allocates no (n, n, m) slopes: the traced heap peak stays
    # under a quarter of the dense p, which is built here only to size the bound
    pop = shuffled_classes(rng, n=48)
    zero = GridStrategyN.zeros(SMALL, pop.n)
    for make in (lambda: GridStrategyN.zeros(SMALL, pop.n),
                 lambda: closed_form(pop, HYP, SMALL),
                 lambda: best_response_profile(pop, HYP, zero)):
        tracemalloc.start()
        try:
            strat = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= strat.p.nbytes / 4


# ---------------------------------------------------------------------------
# The sweep on classes of exchangeable agents against the dense (n, n, m) map


def dense_fixed_point(pop, d, init, tol):
    current, history = init, []
    while not history or history[-1] > tol:
        new = dense_profile(pop, d, current)
        history.append(new.sup_distance(current))
        current = new
    return current, history


def assert_same_profile(got, want, tol):
    for a, b in zip((got.pi, got.p, got.q), (want.pi, want.p, want.q)):
        assert np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max())


SMALL = TimeGrid(0.0, T, 41)


def shuffled_classes(rng, k=3, n=24):
    """n agents of k types, replicated from a random law in shuffled order."""
    agents = replicated_population(random_distribution(rng, k=k), n).agents
    return Population([agents[j] for j in rng.permutation(n)])


def class_profile(rng, pop, grid=SMALL):
    """A random profile with cross terms that is constant on the type classes."""
    index = {}
    lab = np.array([index.setdefault(a, len(index)) for a in pop.agents])
    K, m = len(index), grid.n_points
    p = rng.normal(size=(K, K, m))[lab[:, None], lab]
    p[np.arange(pop.n), np.arange(pop.n)] = rng.normal(size=(K, m))[lab]
    return GridStrategyN(grid, rng.normal(size=(K, m))[lab], p, rng.normal(size=(K, m))[lab])


def test_class_picard_matches_dense_iteration(rng):
    # three types in shuffled order from zeros, the same with one agent's
    # intercept row perturbed (one class per agent), and two distinct agents
    shuffled = shuffled_classes(rng)
    perturbed = GridStrategyN.zeros(SMALL, shuffled.n)
    perturbed.q[5] += 1e-3
    for pop, init, classes in ((shuffled, GridStrategyN.zeros(SMALL, shuffled.n), 3),
                               (shuffled, perturbed, shuffled.n),
                               (HET2, GridStrategyN.zeros(SMALL, 2), 2)):
        got, report = fixed_point_nagent(pop, HYP, init, tol=1e-11)
        want, history = dense_fixed_point(pop, HYP, init, 1e-11)
        assert report.converged and report.classes == classes
        assert report.iterations == len(history)
        assert np.abs(np.subtract(report.residual_history, history)).max() <= 1e-13
        assert_same_profile(got, want, 1e-13)


def inv_rem_profile(rng, labels, grid=SMALL):
    """A random block profile whose slopes are random coefficients times
    1/(T+1-t), computed as the reply computes 1/(T+1-t)."""
    K, m = labels.max() + 1, grid.n_points
    inv_rem = 1.0 / (grid.T + 1.0 - grid.times)
    off = rng.normal(size=(K, K, 1)) * inv_rem
    diag = rng.normal(size=(K, 1)) * inv_rem
    return GridStrategyN._of_classes(grid, labels, br._ClassProfile(
        *rng.normal(size=(2, K, m)), diag, off))


def test_coefficient_picard_matches_dense_iteration(rng):
    # slopes c / (T+1-t) with random nonzero c, on the type classes and with
    # one class per agent, are iterated as coefficients; the same starts with
    # one cross or own slope moved by an ulp are not of that form and take
    # the grid
    pop = shuffled_classes(rng, n=12)
    index = {}
    types = np.array([index.setdefault(a, len(index)) for a in pop.agents])
    for labels in (types, np.arange(pop.n)):
        exact = inv_rem_profile(rng, labels)
        lab, blocks = exact.classes()
        starts = [(exact, "coefficients")]
        for name, at in (("off", (0, -1, 5)), ("diag", (-1, 5))):
            moved = getattr(blocks, name).copy()
            moved[at] = np.nextafter(moved[at], np.inf)
            starts.append((GridStrategyN._of_classes(SMALL, lab,
                                                     blocks._replace(**{name: moved})),
                           "grid"))
        for init, form in starts:
            got, report = fixed_point_nagent(pop, HYP, init, tol=1e-11)
            want, history = dense_fixed_point(pop, HYP, init, 1e-11)
            assert report.converged and report.slope_form == form
            assert report.classes == labels.max() + 1
            assert report.iterations == len(history)
            assert np.abs(np.subtract(report.residual_history, history)).max() <= 1e-13
            assert_same_profile(got, want, 1e-13)


def test_coefficient_sweeps_allocate_no_time_blocks(rng):
    # 128 agents on 32 type classes from zeros: the sweeps hold (K, K, 1)
    # coefficients and (K, m) rows, under half a (K, K, m) block (1.6 MB);
    # the whole call holds one block, the final expansion, where sweeps on
    # the grid would hold two and their temporaries
    pop = replicated_population(random_distribution(rng, k=32), 128)
    K, m = 32, GRID.n_points
    block = K * K * m * 8
    space = br._ClassSpace(pop, HYP, GridStrategyN.zeros(GRID, pop.n))
    assert space.slope_form == "coefficients"
    tracemalloc.start()
    try:
        final, report = br._picard(space.reply, space.start, 1e-10, 500)
        sweeps = tracemalloc.get_traced_memory()[1]
        tracemalloc.clear_traces()
        tracemalloc.reset_peak()
        fixed_point_nagent(pop, HYP, GridStrategyN.zeros(GRID, pop.n))
        whole = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged and report.classes == K
    assert sweeps < block / 2
    assert block < whole < 1.6 * block


def test_sweep_to_non_finite_profile_is_rejected(rng, monkeypatch):
    # column sums of 1e307 overflow in the first sweep, on the type classes
    # and with one class per agent; the iteration stops there
    sweeps = []
    monkeypatch.setattr(br, "_reply", lambda *args: sweeps.append(1) or _reply(*args))
    pop = shuffled_classes(rng)
    for shift in (0.0, 1.0):
        huge = GridStrategyN.zeros(SMALL, pop.n)
        huge.p[...] = 1e307
        huge.q[0] += shift
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValidationError, match="finite"):
            fixed_point_nagent(pop, HYP, huge)
    assert len(sweeps) == 2


def test_one_class_sweep_matches_dense_sweep(rng):
    pop = shuffled_classes(rng)
    symmetric = class_profile(rng, pop)
    shape = (pop.n, SMALL.n_points)
    asymmetric = GridStrategyN(SMALL, rng.normal(size=shape),
                               rng.normal(size=(pop.n,) + shape), rng.normal(size=shape))
    for strat, classes in ((symmetric, 3), (asymmetric, pop.n)):
        assert fixed_point_nagent(pop, HYP, strat, max_iter=1)[1].classes == classes
        assert_same_profile(best_response_profile(pop, HYP, strat),
                            dense_profile(pop, HYP, strat), 1e-13)


def block_profile(rng, labels, grid=SMALL):
    """A random profile stored as class blocks; off[a, a] of a one-agent
    class is 1e3, a value that no entry of the dense profile holds."""
    K, m = labels.max() + 1, grid.n_points
    off = rng.normal(size=(K, K, m))
    np.einsum("aam->am", off)[np.bincount(labels, minlength=K) == 1] = 1e3
    return GridStrategyN._of_classes(grid, labels,
                                     br._ClassProfile(*rng.normal(size=(3, K, m)), off))


def dense_copy(strat):
    """The same profile built from dense arrays, expanded here from its blocks."""
    lab, blocks = strat.classes()
    p = blocks.off[lab][:, lab]
    p[np.arange(lab.size), np.arange(lab.size)] = blocks.diag[lab]
    return GridStrategyN(strat.grid, blocks.pi[lab], p, blocks.q[lab])


def test_block_profiles_match_their_dense_arrays(rng):
    # one class, classes with a one-agent class (3) and one class per agent:
    # sup distances, cross coefficients and interpolations equal the dense
    # ones bit for bit
    types = np.array([0, 1, 0, 2, 1, 0, 1, 2, 0, 3])
    n = types.size
    one, typed, typed2 = (block_profile(rng, lab) for lab in (np.zeros(n, dtype=int),
                                                                types, types))
    per_agent = dense_copy(block_profile(rng, np.arange(n)))
    for a, b in ((one, typed), (typed, one), (typed, typed2), (typed, per_agent),
                 (per_agent, typed), (one, per_agent)):
        da, db = dense_copy(a), dense_copy(b)
        want = max(np.abs(x - y).max() for x, y in zip((da.pi, da.p, da.q),
                                                       (db.pi, db.p, db.q)))
        assert a.sup_distance(b) == want
    times = np.linspace(0.0, T, 57)
    for strat in (one, typed, per_agent):
        dense = dense_copy(strat)
        assert strat.max_cross_coefficient() == np.abs(
            dense.p[~np.eye(n, dtype=bool)]).max()
        assert np.array_equal(strat.pi_at(times), dense.pi_at(times))
        for got, want in zip(dense_consumption(strat, times),
                             dense_consumption(dense, times)):
            assert np.array_equal(got, want)


def test_reply_on_classes_finer_than_the_types(rng):
    # a block profile that splits the type classes is iterated on its own
    # classes, not on the types
    pop = shuffled_classes(rng)
    index = {}
    split = np.array([index.setdefault(a, len(index)) for a in pop.agents])
    split[np.flatnonzero(split == 0)[1:3]] = 3
    strat = block_profile(rng, split)
    assert fixed_point_nagent(pop, HYP, strat, max_iter=1)[1].classes == 4
    assert_same_profile(best_response_profile(pop, HYP, strat),
                        dense_profile(pop, HYP, dense_copy(strat)), 1e-13)


def test_profile_arrays_once_read_are_the_profile(rng):
    pop = shuffled_classes(rng)
    zero = GridStrategyN.zeros(SMALL, pop.n)
    moved = GridStrategyN.zeros(SMALL, pop.n)
    moved.p[0, 1] += 1.0
    assert moved.max_cross_coefficient() == 1.0
    assert moved.sup_distance(zero) == zero.sup_distance(moved) == 1.0
    assert_same_profile(best_response_profile(pop, HYP, moved),
                        dense_profile(pop, HYP, moved), 1e-13)


def test_solve_path_allocates_no_dense_slopes(rng):
    # the zero start, the closed form and the Picard result at n = 128 on 32
    # type classes stay far below one (n, n, m) array
    pop = replicated_population(random_distribution(rng, k=32), 128)
    n, m = pop.n, GRID.n_points
    eq = NAgentEquilibrium(pop, HYP, T)
    for make in (lambda: GridStrategyN.zeros(GRID, n),
                 lambda: GridStrategyN.from_equilibrium(eq, GRID),
                 lambda: fixed_point_nagent(pop, HYP, GridStrategyN.zeros(GRID, n))):
        tracemalloc.start()
        try:
            make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * m * 8 / 4
    fp, report = make()
    assert report.converged and report.classes == 32
    assert fp.sup_distance(GridStrategyN.from_equilibrium(eq, GRID)) < 1e-8


def test_one_class_per_agent_at_128_agents(rng):
    # every agent its own type, from a start with cross slopes: the K = n
    # fallback at the population size of the solve benchmark
    pop = random_population(rng, n=128)
    shape = (pop.n, GRID.n_points)
    init = GridStrategyN(GRID, rng.normal(size=shape), 0.1 * rng.normal(size=(pop.n,) + shape),
                         rng.normal(size=shape))
    final, report = fixed_point_nagent(pop, HYP, init)
    assert report.converged and report.classes == pop.n
    assert final.sup_distance(closed_form(pop, HYP)) < 1e-8


def test_class_sup_distance_holds_one_block_buffer(rng):
    # the (K, K, m) blocks at K = 32, m = 200 are compared ten rows (500 KiB)
    # at a time in one reused buffer; two live temporaries would take 1000 KiB
    K, m = 32, 200
    a, b = (br._ClassProfile(*rng.normal(size=(3, K, m)), rng.normal(size=(K, K, m)))
            for _ in range(2))
    tracemalloc.start()
    try:
        gap = a.sup_distance(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600 * 1024
    assert gap == max(np.abs(x - y).max() for x, y in zip(a, b))


def test_iteration_report_contraction():
    assert IterationReport(0).contraction == 0.0
    assert IterationReport(1, [0.5]).contraction == 0.0
    _, report = fixed_point_nagent(HET2, HYP, GridStrategyN.zeros(GRID, 2),
                                   tol=1e-10, max_iter=100)
    hist = report.residual_history
    assert report.contraction == hist[-1] / hist[-2]
    assert 0.0 < report.contraction < 1.0
    assert report.to_dict()["contraction"] == report.contraction


# ---------------------------------------------------------------------------
# Mean-field versions


TWO_ATOM = TypeDistribution([
    (AgentType(1.0, 0.5, 1.0, 0.5, 1.0), 0.5),
    (AgentType(2.0, 0.3, 0.8, 0.0, 1.0), 0.5),
])


def mfg_closed_form(dist, d, grid=GRID):
    return MFGridStrategy.from_equilibrium(MeanFieldEquilibrium(dist, d, grid.T), grid)


def test_mfg_equilibrium_is_fixed_point():
    strat = mfg_closed_form(TWO_ATOM, HYP)
    reply = best_response_mfg(TWO_ATOM, HYP, strat)
    assert reply.sup_distance(strat) < 1e-10


def test_mfg_single_atom_no_competition_is_merton():
    dist = TypeDistribution([(AgentType(1.0, 0.0, 1.0, 0.0, 1.0), 1.0)])
    reply = best_response_mfg(dist, EXP, MFGridStrategy.zeros(GRID, dist))
    rem = T + 1.0 - GRID.times
    assert np.allclose(reply.pi[0], rem, rtol=1e-14, atol=0)
    assert np.abs(reply.p2).max() == 0.0


def test_mfg_aggregate_identity_preserved_by_reply(rng):
    # if the input satisfies E[sigma pi] = phi (T+1-t) + psi E[sigma pi],
    # one application of the map keeps it satisfied
    dist = random_distribution(rng, k=3)
    strat = mfg_closed_form(dist, HYP)
    agg = mfg_aggregates(dist)
    reply = best_response_mfg(dist, HYP, strat)
    sigma = dist.field("sigma")
    e_sig = dist.weights @ (sigma[:, None] * reply.pi)
    rem = T + 1.0 - GRID.times
    assert np.abs(e_sig - (agg.phi * rem + agg.psi * e_sig)).max() < 1e-12


def test_mfg_fixed_point_from_zero(rng):
    for _ in range(4):
        dist = random_distribution(rng, k=int(rng.integers(1, 4)))
        d = HYP if rng.integers(0, 2) else EXP
        final, report = fixed_point_mfg(dist, d, MFGridStrategy.zeros(GRID, dist),
                                        tol=1e-11, max_iter=400)
        assert report.converged
        assert final.sup_distance(mfg_closed_form(dist, d)) < 1e-8
        assert np.abs(final.p2).max() < 1e-10


def test_mfg_report_gives_grid_slopes():
    _, report = fixed_point_mfg(TWO_ATOM, HYP, MFGridStrategy.zeros(GRID, TWO_ATOM),
                                max_iter=2)
    assert report.slope_form == "grid"
    assert report.to_dict()["slope_form"] == "grid"


def test_mfg_contraction_factors():
    # investment: exactly psi per sweep; intercept: E[theta] per sweep once
    # the investment part has settled
    agg = mfg_aggregates(TWO_ATOM)
    target = mfg_closed_form(TWO_ATOM, HYP)
    sigma = TWO_ATOM.field("sigma")
    strat = MFGridStrategy.zeros(GRID, TWO_ATOM)
    pi_gaps, q_gaps = [], []
    for k in range(25):
        strat = best_response_mfg(TWO_ATOM, HYP, strat)
        pi_gaps.append(np.abs(TWO_ATOM.weights @ (sigma[:, None] * (strat.pi - target.pi))).max())
        q_gaps.append(np.abs(TWO_ATOM.weights @ (strat.q - target.q)).max())
    for a, b in zip(pi_gaps[:6], pi_gaps[1:7]):
        assert b / a == pytest.approx(agg.psi, rel=1e-6)
    late = [q_gaps[k + 1] / q_gaps[k] for k in range(14, 19)]
    for r in late:
        assert r == pytest.approx(agg.e_theta, rel=0.05)


def test_criterion_08_through_best_response():
    # the Picard fixed points of replicated populations approach the
    # mean-field one at rate 1/n, as the closed forms do in criterion 8
    grid = TimeGrid(0.0, T, 11)
    mfp, mrep = fixed_point_mfg(TWO_ATOM, HYP, MFGridStrategy.zeros(grid, TWO_ATOM),
                                tol=1e-12)
    assert mrep.converged and mrep.classes == 2
    gaps = []
    for n in (50, 500):
        pop = replicated_population(TWO_ATOM, n)
        fp, report = fixed_point_nagent(pop, HYP, GridStrategyN.zeros(grid, n), tol=1e-12)
        assert report.converged and report.classes == 2
        atom = [TWO_ATOM.types.index(a) for a in pop.agents]
        gaps.append(np.abs(fp.pi - mfp.pi[atom]).max())
    assert 5.0 <= gaps[0] / gaps[1] <= 20.0


def test_mfg_nonconvergence_flag():
    _, report = fixed_point_mfg(TWO_ATOM, HYP, MFGridStrategy.zeros(GRID, TWO_ATOM),
                                tol=1e-13, max_iter=1)
    assert not report.converged
