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
    best_response_profile,
    fixed_point_mfg,
    fixed_point_nagent,
)
from relperf import best_response as br
from relperf.mfg import _mfg_law
from relperf.nagent import _nagent_law

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


def test_reply_to_idle_competitor_is_solo_policy():
    # competitor sits at zero and agent 0 has no competitive motive: the reply
    # is the solo investment line with intercept -delta (h + ln lam).
    pop = Population([AgentType(1.3, 0.0, 1.1, 0.6, 0.9),
                      AgentType(1.0, 0.4, 1.0, 0.0, 1.0)])
    zero = GridStrategyN.zeros(GRID, 2)
    reply = best_response_profile(pop, HYP, zero)
    pi0, p0, q0 = reply.pi[0], reply.p[0], reply.q[0]
    a = pop.agents[0]
    rem = T + 1.0 - GRID.times
    assert np.allclose(pi0, a.delta * a.mu / (a.nu**2 + a.sigma**2) * rem,
                       rtol=1e-14, atol=0)
    h0 = br._ReplyPlan(HYP, GRID, *_nagent_law(pop)).h(zero.pi)[0]
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
        h = br._ReplyPlan(EXP, GRID, *_nagent_law(pop)).h(strat.pi)[i]
        for j in (0, 57, 150):
            t = float(GRID.times[j])
            want = oracle_hhat_quadrature(pop, EXP, i, t, T, n=4000)
            assert h[j] == pytest.approx(want, abs=1e-8)


def points_h(d, grid, p, w, s, pi):
    """The reply intercept h by Simpson's rule on the linearly interpolated
    investments, with G evaluated on (K, 5(m-1)) arrays at every point of
    the rule: the form of the reply before it worked on node values.  The
    ln lam term is integrated exactly, by ``log_integral``."""
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
    G = (-0.5 * (mu + sigma * g * sbar) ** 2 / (nu**2 + sigma**2)
         + g * competitor(mu * pi_u)
         + 0.5 * g**2 * (sbar**2 + s * competitor((nu * pi_u) ** 2)))
    seg = np.diff(times) / 12.0 * ((rem_u * G).reshape((-1,) + pts.shape) @ [1, 4, 2, 4, 1])
    seg += np.diff(d.log_integral(times, T))  # minus the integral of ln lam
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
        for strat, classes in ((block_profile(rng, type_labels(pop)), 3), (asymmetric, pop.n)):
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
        plan.h(pi)  # the first grid reply builds the plan's Simpson weights
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
    psi = NAgentEquilibrium(pop, HYP, T).aggregates.psi
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
        agg = NAgentEquilibrium(pop, HYP, T).aggregates
        bound = max(agg.psi, agg.e_theta) + 0.05
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

    # h_i(t) by two Simpson panels per interval on interpolated investments,
    # the ln lam term by log_integral
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
        G = (-0.5 * (mu[i] + sigma[i] * g * sbar) ** 2 / (nu[i]**2 + sigma[i]**2)
             + g * mbar + 0.5 * g**2 * (sbar**2 + vbar))
        seg = np.diff(times) / 12.0 * ((rem_s * G).reshape(pts.shape) @ wq)
        seg -= d.log_integral(times[:-1], T) - d.log_integral(times[1:], T)
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


def type_labels(pop):
    """Each agent's type class, numbered by first appearance."""
    index = {}
    return np.array([index.setdefault(a, len(index)) for a in pop.agents])


def test_class_picard_matches_dense_iteration(rng):
    # three types in shuffled order from zeros, the same with one agent's
    # intercept row perturbed (one class per agent), and two distinct agents
    shuffled = shuffled_classes(rng)
    n, m = shuffled.n, SMALL.n_points
    q = np.zeros((n, m))
    q[5] = 1e-3
    perturbed = GridStrategyN(SMALL, np.zeros((n, m)), np.zeros((n, n, m)), q)
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
    # zero slopes, on the type classes and with one class per agent, are
    # iterated as coefficients; slopes c / (T+1-t) with random nonzero c,
    # and both starts with one cross or own slope moved by an ulp, take the
    # grid
    pop = shuffled_classes(rng, n=12)
    m = SMALL.n_points
    for labels in (type_labels(pop), np.arange(pop.n)):
        K = labels.max() + 1
        zeros = GridStrategyN._of_classes(SMALL, labels, br._ClassProfile(
            *np.zeros((3, K, m)), np.zeros((K, K, m))))
        starts = []
        for exact in (zeros, inv_rem_profile(rng, labels)):
            lab, blocks = exact.classes()
            starts.append((exact, "coefficients" if exact is zeros else "grid"))
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
    # coefficients and (K, m) gap rows, under half a (K, K, m) block (1.6 MB);
    # the whole call holds one block, the final expansion, where sweeps on
    # the grid would hold two and their temporaries
    pop = replicated_population(random_distribution(rng, k=32), 128)
    K, m = 32, GRID.n_points
    block = K * K * m * 8
    space = br._ClassSpace(pop, HYP, GridStrategyN.zeros(GRID, pop.n))
    assert space.slope_form == "coefficients"
    tracemalloc.start()
    try:
        final, report = br._picard(space, 1e-10, 500)
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


def test_coefficient_runs_build_no_grid_plan_terms(rng, monkeypatch):
    # the Simpson weights (3, K m) and the own-term factors are read only by
    # a grid reply, so coefficient runs from zeros never build them; a reply
    # to the closed form, a nonzero start, runs on the grid and does
    dist = random_distribution(rng, k=32)
    pop = replicated_population(dist, 128)
    plans, init = [], br._ReplyPlan.__init__
    monkeypatch.setattr(br._ReplyPlan, "__init__",
                        lambda self, *args: (plans.append(self), init(self, *args))[1])
    _, report = fixed_point_nagent(pop, HYP, GridStrategyN.zeros(GRID, pop.n))
    _, mreport = fixed_point_mfg(dist, HYP, MFGridStrategy.zeros(GRID, dist))
    assert report.converged and mreport.converged
    assert {report.pi_q_form, mreport.pi_q_form} == {"coefficients"}
    assert len(plans) == 2
    assert not any({"quad", "own_lin"} & vars(plan).keys() for plan in plans)
    best_response_profile(pop, HYP, closed_form(pop, HYP))
    assert {"quad", "own_lin"} <= vars(plans[-1]).keys()
    assert plans[-1].quad.shape == (3, 32 * GRID.n_points)


def test_slopes_off_the_family_in_any_row_take_the_grid(rng):
    # zero slopes take the coefficient form; one nonzero entry, the smallest,
    # in any row of the (n, n, m) cross block, the last included, sends them
    # to the grid
    pop = random_population(rng, n=5)
    m = GRID.n_points
    for row in (None, 0, 4):
        moved = np.zeros((5, 5, m))
        if row is not None:
            moved[row, 2, 7] = np.nextafter(0.0, 1.0)
        strat = GridStrategyN(GRID, rng.normal(size=(5, m)), moved, rng.normal(size=(5, m)))
        report = fixed_point_nagent(pop, HYP, strat, max_iter=1)[1]
        assert report.slope_form == ("coefficients" if row is None else "grid")


def test_converged_start_takes_the_grid_for_one_sweep(rng):
    # a Picard result from zeros is not zero, so a run started from it takes
    # the grid for both pairs and stops after one sweep, in both games
    pop, dist = shuffled_classes(rng, n=12), random_distribution(rng, k=3)
    fp = fixed_point_nagent(pop, HYP, GridStrategyN.zeros(SMALL, pop.n), tol=1e-11)[0]
    mfp = fixed_point_mfg(dist, HYP, MFGridStrategy.zeros(SMALL, dist), tol=1e-11)[0]
    for report in (fixed_point_nagent(pop, HYP, fp)[1], fixed_point_mfg(dist, HYP, mfp)[1]):
        assert report.converged and report.iterations == 1
        assert report.slope_form == report.pi_q_form == "grid"
        assert report.residual_history[0] <= 1e-10


def test_dense_zero_profile_runs_coefficients_on_one_class_per_agent(rng):
    # a zero profile built from dense arrays has one class per agent: it runs
    # on K = n classes from zero coefficients and lands where the run on the
    # type classes does
    pop = shuffled_classes(rng)
    n, m = pop.n, SMALL.n_points
    dense = GridStrategyN(SMALL, np.zeros((n, m)), np.zeros((n, n, m)), np.zeros((n, m)))
    got, report = fixed_point_nagent(pop, HYP, dense, tol=1e-11)
    want, typed = fixed_point_nagent(pop, HYP, GridStrategyN.zeros(SMALL, pop.n), tol=1e-11)
    assert report.converged and (report.classes, typed.classes) == (pop.n, 3)
    assert report.slope_form == report.pi_q_form == "coefficients"
    assert report.iterations == typed.iterations
    assert_same_profile(got, want, 1e-13)


def test_refine_numbers_classes_by_first_appearance():
    labels, rep, counts = br._refine(np.array([5, 3, 5, 1, 3]), np.array([0, 0, 0, 0, 1]))
    assert labels.tolist() == [0, 1, 0, 2, 3]
    assert rep.tolist() == [0, 1, 3, 4] and counts.tolist() == [2, 1, 1, 1]
    # agents equal as AgentType share a class, -0.0 against 0.0 included
    a, b = AgentType(1.0, 0.0, 1.0, 0.0, 1.0), AgentType(1.0, -0.0, 1.0, -0.0, 1.0)
    c = AgentType(2.0, 0.0, 1.0, 0.0, 1.0)
    assert a == b
    pop = Population([c, a, b, c, a])
    labels, rep, counts = br._refine(*pop._params.values())
    assert labels.tolist() == [0, 1, 1, 0, 1]
    assert rep.tolist() == [0, 1] and counts.tolist() == [2, 3]
    space = br._ClassSpace(pop, HYP, GridStrategyN.zeros(GRID, pop.n))
    assert space.labels.tolist() == [0, 1, 1, 0, 1]


def test_consumption_at_interpolates_the_blocks_in_place(rng):
    # the closed form at K = 32, n = 128, m = 200 holds its zero cross slopes
    # as a broadcast view: 11 record times build the (11, K, K) result and
    # no copy of the (K, K, m) block (1.6 MB)
    pop = replicated_population(random_distribution(rng, k=32), 128)
    closed = GridStrategyN.from_equilibrium(NAgentEquilibrium(pop, HYP, T), GRID)
    sampled = fixed_point_nagent(pop, HYP, GridStrategyN.zeros(GRID, pop.n), max_iter=2)[0]
    m = GRID.n_points
    dense = GridStrategyN(GRID, rng.normal(size=(6, m)), rng.normal(size=(6, 6, m)),
                          rng.normal(size=(6, m)))  # one-agent classes: off[a, a] is 0
    times = np.linspace(0.0, T, 11)
    for strat in (closed, sampled, dense):
        tracemalloc.start()
        try:
            lab, own, off, q = strat.consumption_at(times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6
        # the class form of interpolating the restricted blocks row by row
        labels, blocks = strat.classes()
        ref = br._restrict(blocks, np.arange(len(blocks.pi)), np.bincount(labels))
        j, frac = br._interp_weights(times, GRID.times)
        want = np.stack([np.stack([row[:, k] + (row[:, k + 1] - row[:, k]) * f
                                   for row in ref.off]) for k, f in zip(j, frac)])
        assert np.array_equal(lab, labels) and off.tobytes() == want.tobytes()
        for got, x in ((own, ref.diag), (q, ref.q)):
            assert got.tobytes() == (x[:, j] + (x[:, j + 1] - x[:, j]) * frac)[labels].T.tobytes()


TAB = TabulatedDiscount([0.0, 0.37, 1.13, 1.71, 2.5], [1.0, 0.93, 0.71, 0.69, 0.5])


def random_coefficients(rng, K, slopes):
    """Random coefficients of (pi, q) on (T+1-t, (f1, f2)) and of the slopes
    ``slopes`` (shapes of their time-free arrays) on 1/(T+1-t)."""
    return br._ClassProfile(rng.uniform(0.2, 2.0, (K, 1)), rng.normal(size=(K, 2)),
                            *(0.3 * rng.normal(size=shape) for shape in slopes))


def test_coefficient_reply_matches_grid_reply(rng):
    # one reply to a start in the coefficient family, expanded, against the
    # grid reply to the expanded start; the tabulated discount has its knots
    # off the nodes of both grids
    pop = shuffled_classes(rng, n=12)
    dist = random_distribution(rng, k=4)
    for grid in (TimeGrid(0.0, T, 6), SMALL):
        for d in (HYP, EXP, TAB):
            space = br._ClassSpace(pop, d, GridStrategyN.zeros(grid, pop.n))
            K = space.counts.size
            coef = random_coefficients(rng, K, ((K, 1), (K, K, 1)))
            np.einsum("aam->am", coef.off)[space.counts < 2] = 0.0
            assert space.pi_q_form == space.slope_form == "coefficients"
            assert_same_profile(space.profile(space.reply(coef)),
                                best_response_profile(pop, d, space.profile(coef)), 1e-13)
            mspace = br._MeanFieldSpace(dist, d, MFGridStrategy.zeros(grid, dist))
            assert mspace.pi_q_form == mspace.slope_form == "coefficients"
            coef = random_coefficients(rng, dist.n_atoms, ((1,), (dist.n_atoms, 1)))
            got = mspace.profile(mspace.reply(coef))
            want = best_response_mfg(dist, d, mspace.profile(coef))
            for name in ("pi", "p1", "p2", "q"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max())


def test_sweep_to_non_finite_profile_is_rejected(rng, monkeypatch):
    # column sums of 1e307 overflow in the first sweep, on the type classes
    # and with one class per agent; the iteration stops there
    sweeps = []
    reply = br._ReplyPlan.reply
    monkeypatch.setattr(br._ReplyPlan, "reply",
                        lambda plan, *args: sweeps.append(1) or reply(plan, *args))
    pop = shuffled_classes(rng)
    n, m = pop.n, SMALL.n_points
    typed = br._ClassProfile(*np.zeros((2, 3, m)), np.full((3, m), 1e307),
                             np.full((3, 3, m), 1e307))
    q = np.zeros((n, m))
    q[0] = 1.0
    # best_response_profile is one sweep of the same driver, and refuses alike
    for run in (fixed_point_nagent, best_response_profile):
        sweeps.clear()
        for huge in (GridStrategyN._of_classes(SMALL, type_labels(pop), typed),
                     GridStrategyN(SMALL, np.zeros((n, m)), np.full((n, n, m), 1e307), q)):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValidationError, match="finite"):
                run(pop, HYP, huge)
        assert len(sweeps) == 2


def test_one_class_sweep_matches_dense_sweep(rng):
    pop = shuffled_classes(rng)
    symmetric = block_profile(rng, type_labels(pop))
    shape = (pop.n, SMALL.n_points)
    asymmetric = GridStrategyN(SMALL, rng.normal(size=shape),
                               rng.normal(size=(pop.n,) + shape), rng.normal(size=shape))
    for strat, classes in ((symmetric, 3), (asymmetric, pop.n)):
        assert fixed_point_nagent(pop, HYP, strat, max_iter=1)[1].classes == classes
        assert_same_profile(best_response_profile(pop, HYP, strat),
                            dense_profile(pop, HYP, dense_copy(strat)), 1e-13)


def block_profile(rng, labels, grid=SMALL):
    """A random profile stored as class blocks.  off[a, a] of a one-agent
    class is given as 1e3, a value that no entry of the dense profile holds:
    the profile sets it to 0."""
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


def test_sup_distance_compares_shared_classes_in_place(rng):
    # on the same classes the blocks are compared as they are: a profile
    # holds off[a, a] = 0 for a one-agent class, whatever it was given, so
    # the gap is the dense one bit for bit
    types = np.array([0, 1, 0, 2, 1, 0, 1, 2, 0, 3])
    a, b = (block_profile(rng, types) for _ in range(2))
    lab, blocks = b.classes()
    off = blocks.off.copy()
    off[3, 3] = 7.0
    moved = GridStrategyN._of_classes(SMALL, lab, blocks._replace(off=off))
    assert not moved.classes()[1].off[3, 3].any() and off[3, 3, 0] == 7.0
    per_agent, per_agent2 = (dense_copy(block_profile(rng, np.arange(10))) for _ in range(2))
    for x, y in ((a, b), (a, moved), (per_agent, per_agent2)):
        dx, dy = dense_copy(x), dense_copy(y)
        assert x.sup_distance(y) == max(np.abs(u - v).max() for u, v in
                                        zip((dx.pi, dx.p, dx.q), (dy.pi, dy.p, dy.q)))
    # at K = 32, n = 128, m = 200 the closed form stores no (K, K, m) cross
    # block (1.1 blocks traced before) and the solve gate copies none (2.5)
    pop = replicated_population(random_distribution(rng, k=32), 128)
    block = 32 * 32 * GRID.n_points * 8
    fp, _ = fixed_point_nagent(pop, HYP, GridStrategyN.zeros(GRID, pop.n))
    eq = NAgentEquilibrium(pop, HYP, T)
    peaks = []
    tracemalloc.start()
    try:
        closed = GridStrategyN.from_equilibrium(eq, GRID)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        gap = fp.sup_distance(closed)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert gap < 1e-8 and max(peaks) < block / 2


def test_reply_on_classes_finer_than_the_types(rng):
    # a block profile that splits the type classes is iterated on its own
    # classes, not on the types
    pop = shuffled_classes(rng)
    split = type_labels(pop)
    split[np.flatnonzero(split == 0)[1:3]] = 3
    strat = block_profile(rng, split)
    assert fixed_point_nagent(pop, HYP, strat, max_iter=1)[1].classes == 4
    assert_same_profile(best_response_profile(pop, HYP, strat),
                        dense_profile(pop, HYP, dense_copy(strat)), 1e-13)


def test_profile_arrays_are_read_only_expansions(rng):
    # pi, p, q and the blocks refuse writes, and a profile built from dense
    # arrays holds copies of them
    pop = shuffled_classes(rng)
    n, m = pop.n, SMALL.n_points
    zero = GridStrategyN.zeros(SMALL, n)
    for x in (zero.pi, zero.p, zero.q, *zero.classes()[1]):
        with pytest.raises(ValueError, match="read-only"):
            x += 1.0
    assert not (zero.pi.any() or zero.p.any() or zero.q.any())
    p = np.zeros((n, n, m))
    p[0, 1] = 1.0
    moved = GridStrategyN(SMALL, np.zeros((n, m)), p, np.zeros((n, m)))
    p[0, 1] = 2.0
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
    agg = MeanFieldEquilibrium(dist, HYP, T).aggregates
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
    # zeros are iterated as coefficients; a start with p1 and pi moved off
    # zero by the smallest step is not of that form and takes the grid
    moved = MFGridStrategy.zeros(GRID, TWO_ATOM)
    moved.p1[3] = moved.pi[0, 3] = np.nextafter(0.0, 1.0)
    for init, form in ((MFGridStrategy.zeros(GRID, TWO_ATOM), "coefficients"),
                       (moved, "grid")):
        _, report = fixed_point_mfg(TWO_ATOM, HYP, init, max_iter=2)
        assert report.slope_form == report.pi_q_form == form
        assert report.to_dict()["slope_form"] == report.to_dict()["pi_q_form"] == form


def test_fixed_points_refuse_fewer_than_one_sweep():
    # max_iter < 1 is refused beside tol, not reported as non-convergence
    for max_iter in (0, -1):
        with pytest.raises(ValidationError, match="max_iter must be >= 1"):
            fixed_point_nagent(HET2, HYP, GridStrategyN.zeros(GRID, 2), max_iter=max_iter)
        with pytest.raises(ValidationError, match="max_iter must be >= 1"):
            fixed_point_mfg(TWO_ATOM, HYP, MFGridStrategy.zeros(GRID, TWO_ATOM),
                            max_iter=max_iter)


@pytest.mark.parametrize("max_iter", [2.5, "3"])
def test_fixed_points_refuse_a_sweep_count_that_is_not_an_integer(max_iter):
    # named here, not a raw TypeError from range()
    message = f"max_iter must be >= 1 and an integer \\(got {max_iter!r}\\)"
    with pytest.raises(ValidationError, match=message):
        fixed_point_nagent(HET2, HYP, GridStrategyN.zeros(GRID, 2), max_iter=max_iter)
    with pytest.raises(ValidationError, match=message):
        fixed_point_mfg(TWO_ATOM, HYP, MFGridStrategy.zeros(GRID, TWO_ATOM),
                        max_iter=max_iter)


def grid_mfg_fixed_point(dist, d, init, tol):
    """Picard on the grid: best_response_mfg until a sweep moves by tol."""
    current, history = init, []
    while not history or history[-1] > tol:
        new = best_response_mfg(dist, d, current)
        history.append(new.sup_distance(current))
        current = new
    return current, history


def mfg_family_start(rng, dist, grid=SMALL):
    """pi = c (T+1-t), q = 0, p1 = d1/(T+1-t) and p2 = d2/(T+1-t), with
    random c, d1 and d2, computed as the reply computes T+1-t."""
    rem = grid.T + 1.0 - grid.times
    K, m = dist.n_atoms, grid.n_points
    inv_rem = 1.0 / rem
    return MFGridStrategy(grid, dist, rng.uniform(0.2, 2.0, (K, 1)) * rem,
                          rng.normal() * inv_rem, 0.3 * rng.normal(size=(K, 1)) * inv_rem,
                          np.zeros((K, m)))


def test_mfg_coefficient_picard_matches_grid_iteration(rng):
    # zeros take coefficients, and zeros with one investment or one p1 or p2
    # entry moved by an ulp take the grid for that pair; a random nonzero
    # start of the coefficient family, moved or not, takes the grid for
    # both; every run matches the grid iteration of best_response_mfg
    dist = random_distribution(rng, k=4)
    zeros = MFGridStrategy.zeros(SMALL, dist)
    for exact in (zeros, mfg_family_start(rng, dist)):
        coef = "coefficients" if exact is zeros else "grid"
        starts = [(exact, coef, coef)]
        for name, at, forms in (("pi", (1, 7), ("grid", coef)),
                                ("p1", (7,), (coef, "grid")),
                                ("p2", (2, 7), (coef, "grid"))):
            arrays = {k: getattr(exact, k).copy() for k in ("pi", "p1", "p2", "q")}
            arrays[name][at] = np.nextafter(arrays[name][at], np.inf)
            starts.append((MFGridStrategy(SMALL, dist, **arrays), *forms))
        for init, pi_q_form, slope_form in starts:
            got, report = fixed_point_mfg(dist, HYP, init, tol=1e-11)
            want, history = grid_mfg_fixed_point(dist, HYP, init, 1e-11)
            assert report.converged and report.classes == dist.n_atoms
            assert (report.pi_q_form, report.slope_form) == (pi_q_form, slope_form)
            assert report.iterations == len(history)
            assert np.abs(np.subtract(report.residual_history, history)).max() <= 1e-13
            for name in ("pi", "p1", "p2", "q"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max())


def test_mfg_coefficient_sweeps_allocate_one_gap_row_block(rng):
    # 32 atoms on 200 nodes from zeros: the sweeps hold coefficients, and
    # the only (K, m) array is the evaluation of q's change in the gap
    dist = random_distribution(rng, k=32)
    row_block = 32 * GRID.n_points * 8
    space = br._MeanFieldSpace(dist, HYP, MFGridStrategy.zeros(GRID, dist))
    tracemalloc.start()
    try:
        _, report = br._picard(space, 1e-10, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged and report.pi_q_form == report.slope_form == "coefficients"
    assert row_block < peak < 1.5 * row_block


def test_mfg_non_finite_samples_are_rejected():
    zero = MFGridStrategy.zeros(GRID, TWO_ATOM)
    for name in ("pi", "p1", "p2", "q"):
        arrays = {k: getattr(zero, k).copy() for k in ("pi", "p1", "p2", "q")}
        arrays[name].reshape(-1)[5] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            MFGridStrategy(GRID, TWO_ATOM, **arrays)


def test_mfg_sweep_to_non_finite_profile_is_rejected():
    # investments of 1e307 overflow in the first sweep, on the grid and as
    # coefficients; the iteration stops there
    rem = T + 1.0 - GRID.times
    for pi in (np.full((2, GRID.n_points), 1e307), np.full((2, 1), 1e307 / 3.0) * rem):
        init = MFGridStrategy(GRID, TWO_ATOM, pi, np.zeros(GRID.n_points),
                              np.zeros((2, GRID.n_points)), np.zeros((2, GRID.n_points)))
        for run in (fixed_point_mfg, best_response_mfg):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValidationError, match="finite"):
                run(TWO_ATOM, HYP, init)


def test_mfg_contraction_factors():
    # investment: exactly psi per sweep; intercept: E[theta] per sweep once
    # the investment part has settled
    agg = MeanFieldEquilibrium(TWO_ATOM, HYP, T).aggregates
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
