import ast
import inspect
import math
import pathlib
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fkexit import engine, levy
from fkexit.engine import CHUNK_SIZE, STOP_RULES, run_batch, run_single
from fkexit.errors import ConfigError, DimensionMismatch, InvalidStart, InvalidStep
from fkexit.feynman_kac import (EXIT_RULES, ROUTES, DirichletProblem, estimate_discounted_exit,
                                estimate_v, estimate_v_nonstationary)
from fkexit.functions import Constant, PathSpaceCost, SpatialCost, TimeScaledCost, Zero
from fkexit.geometry import Ball, Box, Cylinder, Interval
from fkexit.levy import (AffineDrift, BrownianNoise, ConstantDrift, NoNoise, ProcessSpec,
                         StableNoise, ZeroDrift, block_steps, lift_time, simulate_path)
from fkexit.pde_oracle import closed_form_v_eps
from fkexit.rng import RngStream

SPEC_DRIFT = ProcessSpec(ConstantDrift([1.0]), NoNoise(), 1)
SPEC_BROWN = ProcessSpec(ConstantDrift([1.0]), BrownianNoise(1.0), 1)
SPEC_BALL = ProcessSpec(ZeroDrift(2), StableNoise(1.5, 1.0), 2)
PROB01 = DirichletProblem(Interval(0, 1), Constant(1.0), Zero(), 1.0)
PROB_CYL = DirichletProblem(Cylinder(1.0, Interval(0, 1)), Constant(1.0), Zero(), 1.0)

EXIT_FIELDS = ("zeta", "zeta_hat", "point", "point_hat", "via_jump", "truncated", "steps")


# ---------------------------------------------------------------------------
# Input validation.

BAD_STEPS = st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan]))


def estimate_calls(spec, h, n):
    """Each estimate entry point from inside, from outside and (cylinder) after T.

    A start outside, or at t >= T, has an exact answer, so these calls show
    that the inputs are checked before that answer is returned.
    """
    return [
        lambda: estimate_v(PROB01, spec, [0.5], h, n, 1),
        lambda: estimate_v(PROB01, spec, [2.0], h, n, 1),
        lambda: estimate_discounted_exit(PROB01, spec, [0.5], h, n, 1),
        lambda: estimate_discounted_exit(PROB01, spec, [2.0], h, n, 1),
        lambda: estimate_v_nonstationary(PROB_CYL, spec, 0.0, [0.5], h, n, 1),
        lambda: estimate_v_nonstationary(PROB_CYL, spec, 0.0, [2.0], h, n, 1),
        lambda: estimate_v_nonstationary(PROB_CYL, spec, 1.5, [0.5], h, n, 1),
    ]


@settings(max_examples=60, deadline=None)
@given(BAD_STEPS)
def test_non_positive_or_non_finite_step_raises(h):
    for spec in (SPEC_BROWN, SPEC_DRIFT):
        with pytest.raises(InvalidStep, match="finite positive"):
            run_batch(spec, Interval(0, 1), [0.5], h, 1.0, 10, 1)
        with pytest.raises(InvalidStep, match="finite positive"):
            run_single(spec, Interval(0, 1), [0.5], h, 1.0, RngStream(1))
        with pytest.raises(InvalidStep, match="finite positive"):
            simulate_path(spec, [0.5], h, 1.0, RngStream(1))
        for call in estimate_calls(spec, h, 10):
            with pytest.raises(InvalidStep, match="finite positive"):
                call()


@settings(max_examples=40, deadline=None)
@given(st.integers(max_value=0))
def test_empty_sample_raises(n):
    for spec in (SPEC_BROWN, SPEC_DRIFT):
        with pytest.raises(ValueError, match="positive integer"):
            run_batch(spec, Interval(0, 1), [0.5], 1e-3, 1.0, n, 1)
        for call in estimate_calls(spec, 1e-3, n):
            with pytest.raises(ValueError, match="positive integer"):
                call()


@settings(max_examples=60, deadline=None)
@given(BAD_STEPS)
def test_non_positive_or_non_finite_horizon_raises(horizon):
    for spec in (SPEC_BROWN, SPEC_DRIFT):
        with pytest.raises(InvalidStep, match="horizon"):
            run_batch(spec, Interval(0, 1), [0.5], 1e-3, horizon, 10, 1)
        with pytest.raises(InvalidStep, match="horizon"):
            run_single(spec, Interval(0, 1), [0.5], 1e-3, horizon, RngStream(1))
        for x0 in ([0.5], [2.0]):
            with pytest.raises(InvalidStep, match="horizon"):
                estimate_v(PROB01, spec, x0, 1e-3, 10, 1, horizon=horizon)
            with pytest.raises(InvalidStep, match="horizon"):
                estimate_discounted_exit(PROB01, spec, x0, 1e-3, 10, 1, horizon=horizon)


@settings(max_examples=60, deadline=None)
@given(st.text().filter(lambda s: s not in STOP_RULES))
def test_unknown_stop_rule_raises(stop):
    for spec in (SPEC_BROWN, SPEC_DRIFT):
        with pytest.raises(ConfigError, match="stopping rule"):
            run_batch(spec, Interval(0, 1), [0.5], 1e-3, 1.0, 10, 1, stop=stop)
        with pytest.raises(ConfigError, match="stopping rule"):
            run_single(spec, Interval(0, 1), [0.5], 1e-3, 1.0, RngStream(1), stop=stop)


@settings(max_examples=60, deadline=None)
@given(st.text().filter(lambda s: s not in EXIT_RULES))
def test_unknown_exit_rule_raises(rule):
    for spec in (SPEC_BROWN, SPEC_DRIFT):
        for x0 in ([0.5], [2.0]):
            with pytest.raises(ConfigError, match="exit_rule"):
                estimate_v(PROB01, spec, x0, 1e-3, 10, 1, exit_rule=rule)


@settings(max_examples=60, deadline=None)
@given(st.text().filter(lambda s: s not in ROUTES))
def test_unknown_route_raises(route):
    # inside, outside and after T: the last two have an exact answer of 0
    for spec in (SPEC_BROWN, SPEC_DRIFT):
        for t, x in ((0.0, [0.5]), (0.0, [2.0]), (1.5, [0.5])):
            with pytest.raises(ConfigError, match="route"):
                estimate_v_nonstationary(PROB_CYL, spec, t, x, 1e-3, 10, 1, route=route)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_start_raises(bad):
    for spec in (SPEC_BROWN, SPEC_DRIFT):
        with pytest.raises(InvalidStart, match="finite"):
            run_batch(spec, Interval(0, 1), [bad], 1e-3, 1.0, 10, 1)
        with pytest.raises(InvalidStart, match="finite"):
            run_single(spec, Interval(0, 1), [bad], 1e-3, 1.0, RngStream(1))
        for call in (lambda: simulate_path(spec, [bad], 1e-3, 1.0, RngStream(1)),
                     lambda: estimate_v(PROB01, spec, [bad], 1e-3, 10, 1),
                     lambda: estimate_discounted_exit(PROB01, spec, [bad], 1e-3, 10, 1),
                     lambda: estimate_v_nonstationary(PROB_CYL, spec, 0.0, [bad], 1e-3, 10, 1),
                     lambda: estimate_v_nonstationary(PROB_CYL, spec, bad, [0.5], 1e-3, 10, 1)):
            with pytest.raises(InvalidStart, match="finite"):
                call()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_dimension_mismatch_raises(d_spec, d_domain, d_start):
    assume(not d_spec == d_domain == d_start)
    box = Box(np.zeros(d_domain), np.ones(d_domain))
    x0 = np.full(d_start, 0.5)
    prob = DirichletProblem(box, Constant(1.0), Zero(), 1.0)
    for noise in (BrownianNoise(1.0), NoNoise()):
        spec = ProcessSpec(ZeroDrift(d_spec), noise, d_spec)
        for call in (lambda: run_batch(spec, box, x0, 1e-3, 1.0, 10, 1),
                     lambda: run_single(spec, box, x0, 1e-3, 1.0, RngStream(1)),
                     lambda: estimate_v(prob, spec, x0, 1e-3, 10, 1),
                     lambda: estimate_discounted_exit(prob, spec, x0, 1e-3, 10, 1)):
            with pytest.raises(DimensionMismatch):
                call()
        if d_start != d_spec:
            with pytest.raises(DimensionMismatch):
                simulate_path(spec, x0, 1e-3, 1.0, RngStream(1))


@settings(max_examples=60, deadline=None)
@given(BAD_STEPS)
def test_non_positive_or_non_finite_discount_raises(discount):
    with pytest.raises(ValueError, match="discount"):
        DirichletProblem(Interval(0, 1), Constant(1.0), Zero(), discount)


def test_truncation_warns():
    # eps = 1e-3 from the middle of (0, 1): no path exits by the horizon 1
    spec = ProcessSpec(ZeroDrift(1), BrownianNoise(1e-3), 1)
    with pytest.warns(RuntimeWarning, match=r"truncated_fraction=1: .* horizon 1\b"):
        est = estimate_v(PROB01, spec, [0.5], 1e-3, 100, 1, horizon=1.0)
    assert est.truncated_fraction == 1.0
    assert est.mean == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    with pytest.warns(RuntimeWarning, match=r"truncated_fraction=1: .* horizon 1\b"):
        est = estimate_discounted_exit(PROB01, spec, [0.5], 1e-3, 100, 1, horizon=1.0)
    assert est.truncated_fraction == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (estimate_v, estimate_discounted_exit):
            assert call(PROB01, SPEC_BROWN, [0.5], 1e-3, 100, 1).truncated_fraction == 0.0


# ---------------------------------------------------------------------------
# Block schedule.


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3 * CHUNK_SIZE), st.integers(1, 10**6))
def test_block_schedule(na, n_steps):
    # 16 steps first, doubling up to max(128, 32768 // na), ending on the horizon
    cap = max(128, 32768 // na)
    lengths, done = [], 0
    while done < n_steps:
        lengths.append(block_steps(len(lengths), na, n_steps - done))
        done += lengths[-1]
    assert done == n_steps
    assert lengths[0] == min(16, n_steps)
    for k, nb in enumerate(lengths[:-1]):
        assert nb == min(16 * 2**k, cap)
    assert 1 <= lengths[-1] <= min(16 * 2 ** (len(lengths) - 1), cap)
    assert max(lengths) * na <= max(128 * na, 32768)


@pytest.mark.parametrize("spec,domain,x0", [
    (SPEC_BROWN, Interval(0, 1), [0.5]),
    (ProcessSpec(AffineDrift([[-3.0]], [2.0]), BrownianNoise(1.0), 1), Interval(0, 1), [0.5]),
    (SPEC_BALL, Ball([0.0, 0.0], 1.0), [0.0, 0.0]),
], ids=["brownian", "affine-drift", "stable"])
def test_late_exit_single_path_matches_skeleton(spec, domain, x0, monkeypatch):
    # exits after block 5 of the schedule: the engine's knots over six blocks
    # of growing length are the skeleton's, bit for bit
    h, horizon = 1e-4, 5.0
    knots = []

    def recording_block(*args):
        X, jump = levy.euler_block(*args)
        knots.append(X[0, 1:])
        return X, jump

    monkeypatch.setattr(engine, "euler_block", recording_block)
    five_blocks = sum(block_steps(k, 1, 50_000) for k in range(5))  # 496
    for sid in range(5):
        knots.clear()
        res = run_single(spec, domain, x0, h, horizon, RngStream(80, sid))
        path = simulate_path(spec, x0, h, horizon, RngStream(80, sid))
        built = np.concatenate(knots)
        assert res.steps[0] > five_blocks and len(knots) > 5
        np.testing.assert_array_equal(built, path.points[1:len(built) + 1])


def test_worker_count_leaves_batch_unchanged():
    # three chunks, the last of 7 paths; on the blocked route (a Flat cost) each
    # chunk's schedule follows its own live rows, and a Constant cost takes
    # the exact dyadic route
    for fn in (Flat(1.0), Constant(1.0)):
        kw = dict(lam=1.0, cost_fn=SpatialCost(fn))
        one, two = [run_batch(SPEC_BROWN, Interval(0, 1), [0.5], 1e-3, 20.0, 2 * CHUNK_SIZE + 7,
                              4, workers=w, **kw) for w in (1, 2)]
        for f in EXIT_FIELDS + ("cost",):
            assert getattr(one, f).tobytes() == getattr(two, f).tobytes(), f


# ---------------------------------------------------------------------------
# One membership scan: the closure is tested at each row's first open miss,
# and scanned again only where that knot lies on the boundary.

FIRST_OUTSIDE_CLOSURE = engine._first_outside_closure


def two_scan_closure_exit(domain, X, first_open):
    """Reference: each row's first step out of the closure, from a scan of the whole block."""
    return engine._first_outside(domain.contains(X[:, 1:], "closure"))


@pytest.mark.parametrize("spec,domain,x0", [
    (lift_time(ProcessSpec(ZeroDrift(1), StableNoise(1.5, 1.0), 1)),
     Cylinder(1.0, Ball([0.0], 1.0)), [0.0, 0.3]),
    (lift_time(SPEC_BALL), Cylinder(1.0, Ball([0.0, 0.0], 1.0)), [0.0, 0.3, 0.0]),
], ids=["lifted-d1", "lifted-d2"])
def test_closure_exit_from_first_open_miss_matches_two_scans(spec, domain, x0, monkeypatch):
    # h = 0.25 puts the fourth clock knot exactly on the lid t = T = 1: in the
    # closure but outside the open set
    kw = dict(lam=1.0, cost_fn=SpatialCost(Flat(1.0)))
    rescanned = []

    def recording(domain, X, first_open):
        exit_step = FIRST_OUTSIDE_CLOSURE(domain, X, first_open)
        rescanned.append(int(np.count_nonzero(exit_step > first_open)))
        return exit_step

    monkeypatch.setattr(engine, "_first_outside_closure", recording)
    one = run_batch(spec, domain, x0, 0.25, 1.5, 2000, 7, **kw)
    monkeypatch.setattr(engine, "_first_outside_closure", two_scan_closure_exit)
    two = run_batch(spec, domain, x0, 0.25, 1.5, 2000, 7, **kw)
    assert sum(rescanned) > 0
    on_lid = one.zeta_hat == 1.0
    assert on_lid.any() and (one.zeta[on_lid] == 1.0).all()
    for f in EXIT_FIELDS + ("cost",):
        assert getattr(one, f).tobytes() == getattr(two, f).tobytes(), f


# ---------------------------------------------------------------------------
# Exact dyadic steps: constant drift, Brownian noise, a box, the bridge test,
# and no cost or a Constant one.


@pytest.mark.parametrize("h", [1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("x", [0.02, 0.1, 0.5, 0.9, 0.98])
def test_dyadic_mean_exit_time_matches_closed_form(x, h):
    # E_x tau of dX = dt + dW on (0, 1) solves u' + u''/2 = -1, u(0) = u(1) = 0,
    # and P_x(exit at 1) is u = (1 - e^(-2x)) / (1 - e^(-2)); the route has no
    # step bias, so h only sets the floor step.  Next to a face (x = 0.02,
    # 0.98) the far face sets the step, and most paths cross within it
    n = 20_000
    res = run_batch(SPEC_BROWN, Interval(0, 1), [x], h, 20.0, n, 31 + int(100 * x))
    assert not res.truncated.any()
    assert np.isin(res.point[:, 0], [0.0, 1.0]).all()
    p1 = (1.0 - math.exp(-2.0 * x)) / (1.0 - math.exp(-2.0))
    assert abs((res.point[:, 0] == 1.0).mean() - p1) <= 4.0 * math.sqrt(p1 * (1.0 - p1) / n)
    se = res.zeta.std(ddof=1) / math.sqrt(n)
    assert abs(res.zeta.mean() - (p1 - x)) <= 4.0 * se
    # steps index the h-grid step that holds the exit
    np.testing.assert_array_equal(res.steps, np.ceil(res.zeta / h - 1e-9).astype(int))
    np.testing.assert_array_equal(res.zeta_hat, res.zeta)


def assert_dyadic_box_matches_blocked_route(x0, seeds, laws=()):
    # the affine twin of a constant drift takes the blocked route at a fine step
    box = Box([0.0, 0.0], [1.0, 0.8])
    v, eps, n = [0.5, -0.3], 0.7, 10_000
    coarse = run_batch(ProcessSpec(ConstantDrift(v), BrownianNoise(eps), 2), box, x0, 1e-2,
                       20.0, n, seeds[0])
    fine = run_batch(ProcessSpec(AffineDrift(np.zeros((2, 2)), v), BrownianNoise(eps), 2), box,
                     x0, 1e-4, 20.0, n, seeds[1])
    assert not (coarse.truncated.any() or fine.truncated.any())
    assert box.on_boundary(coarse.point).all()
    for f in (lambda r: np.exp(-r.zeta), lambda r: r.point[:, 0], lambda r: r.point[:, 1],
              *laws):
        a, b = f(coarse), f(fine)
        se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(n)
        assert abs(a.mean() - b.mean()) <= 4.0 * se + 2e-3


def test_dyadic_box_matches_blocked_route_in_law():
    assert_dyadic_box_matches_blocked_route([0.3, 0.5], (12, 13))


def test_dyadic_box_corner_matches_blocked_route_in_law():
    # both near faces are on different axes, each crossed by its own exact
    # test, so both may be near; the face of the exit is checked too
    assert_dyadic_box_matches_blocked_route([0.02, 0.02], (14, 15),
                                            laws=(lambda r: r.point[:, 0] == 0.0,))


@pytest.mark.parametrize("domain,x0", [
    (Interval(0, 1), [0.0]), (Interval(0, 1), [1.0]), (Interval(0, 1), [1.5]),
    (Interval(0, 1), [-0.2]), (Box([0.0, 0.0], [1.0, 0.8]), [0.5, 0.8]),
    (Box([0.0, 0.0], [1.0, 0.8]), [0.0, 0.8]), (Box([0.0, 0.0], [1.0, 0.8]), [0.5, -1.0]),
])
def test_dyadic_start_on_face_or_outside_exits_at_once(domain, x0):
    spec = ProcessSpec(ConstantDrift(np.ones(domain.d)), BrownianNoise(1.0), domain.d)
    res = run_batch(spec, domain, x0, 1e-3, 5.0, 50, 3, lam=1.0,
                    cost_fn=SpatialCost(Constant(2.0)))
    for f in ("zeta", "zeta_hat", "steps", "cost"):
        np.testing.assert_array_equal(getattr(res, f), 0, err_msg=f)
    np.testing.assert_array_equal(res.point, np.tile(x0, (50, 1)))
    assert not (res.truncated.any() or res.via_jump.any())


OUTSIDE_SPECS = {
    "dyadic": ProcessSpec(ConstantDrift([1.0]), BrownianNoise(1.0), 1),
    "blocked-bridged": ProcessSpec(AffineDrift([[-3.0]], [2.0]), BrownianNoise(1.0), 1),
    "stable": ProcessSpec(ZeroDrift(1), StableNoise(1.5, 1.0), 1),
    "deterministic": ProcessSpec(ConstantDrift([1.0]), NoNoise(), 1),
}


@pytest.mark.parametrize("route", list(OUTSIDE_SPECS))
@pytest.mark.parametrize("stop", STOP_RULES)
def test_start_outside_the_closure_exits_at_once_on_every_route(route, stop, monkeypatch):
    spec = OUTSIDE_SPECS[route]
    drawn = []
    monkeypatch.setattr(engine, "_run_chunk", lambda *a, **k: drawn.append(a))
    runs = [run_batch(spec, Interval(0, 1), [1.5], 1e-3, 5.0, 20, 3, lam=1.0,
                      cost_fn=SpatialCost(Constant(2.0)), stop=stop),
            run_single(spec, Interval(0, 1), [1.5], 1e-3, 5.0, RngStream(3, 0), stop=stop)]
    assert not drawn
    for res, n in zip(runs, (20, 1)):
        for f in ("zeta", "zeta_hat", "steps", "cost"):
            np.testing.assert_array_equal(getattr(res, f), np.zeros(n), err_msg=f)
        np.testing.assert_array_equal(res.point, np.full((n, 1), 1.5))
        np.testing.assert_array_equal(res.point_hat, np.full((n, 1), 1.5))
        assert res.n == n and not (res.truncated.any() or res.via_jump.any())


@pytest.mark.parametrize("d0,d1,H,eps", [
    (0.03, 0.01, 1e-3, 1.0), (0.01, 0.05, 1e-2, 0.7), (0.2, 1e-3, 0.5, 1.0), (1e-3, 2.0, 1e-2, 1.0),
])
def test_passage_times_match_wald_reference(d0, d1, H, eps):
    # t = u H / (H + u) with u ~ gen.wald(d0 H / d1, (d0 / eps)^2), in law
    n = 100_000
    t = engine._passage_times(np.full(n, d0), np.full(n, d1), np.full(n, H), eps,
                              np.random.default_rng(1))
    u = np.random.default_rng(2).wald(d0 * H / d1, (d0 / eps) ** 2, n)
    assert 0.0 < t.min() and t.max() <= H
    assert scipy.stats.ks_2samp(t, H * u / (H + u)).pvalue > 1e-3


def test_passage_times_on_the_face_follow_levy_law():
    # d1 = 0: u = d0^2 / (eps^2 N^2), the first passage of a driftless motion
    n, d0, H, eps = 100_000, 0.02, 1e-3, 0.5
    t = engine._passage_times(np.full(n, d0), np.zeros(n), np.full(n, H), eps,
                              np.random.default_rng(3))
    u = d0 ** 2 / (eps ** 2 * np.random.default_rng(4).standard_normal(n) ** 2)
    assert scipy.stats.ks_2samp(t, H * u / (H + u)).pvalue > 1e-3


def test_dyadic_horizon_beyond_int32_steps():
    # eps = 1e-3 from the middle: every path runs to the horizon of 3e9 steps,
    # one dyadic step per binary digit of 3e9, the first of 2^31 of them
    spec = ProcessSpec(ZeroDrift(1), BrownianNoise(1e-3), 1)
    res = run_batch(spec, Interval(0, 1), [0.5], 1e-9, 3.0, 20, 5)
    assert res.truncated.all()
    np.testing.assert_array_equal(res.steps, 3_000_000_000)


def allowance(d, speed, eps):
    """The largest H with 6 eps sqrt(H) + speed H <= d, from the textbook root."""
    if speed == 0.0:
        return (d / (6.0 * eps)) ** 2
    return ((math.sqrt(36.0 * eps * eps + 4.0 * speed * d) - 6.0 * eps) / (2.0 * speed)) ** 2


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(1, 5), st.data(), st.floats(0.05, 3.0),
       st.sampled_from([1e-9, 1e-6, 1e-4, 1e-2]))
def test_dyadic_step_keeps_every_face_but_one_six_sd_away(n_faces, rows, data, eps, h):
    dist = np.array(data.draw(st.lists(st.lists(st.floats(1e-6, 2.0), min_size=rows,
                                                max_size=rows),
                                       min_size=n_faces, max_size=n_faces)))
    speed = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 50.0]),
                                        min_size=n_faces, max_size=n_faces)))[:, None]
    left = np.array(data.draw(st.lists(st.integers(1, 2**40), min_size=rows, max_size=rows)))
    ns = engine._dyadic_steps(dist, speed, eps, h, left)
    assert ns.dtype == np.int64
    for r in range(rows):
        n_r = int(ns[r])
        H = n_r * h
        assert n_r >= 1 and n_r & (n_r - 1) == 0  # a power of two
        assert n_r <= left[r]
        near_cap = (dist[:, r].min() / (3.0 * eps)) ** 2
        allow = [allowance(dist[f, r], speed[f, 0], eps) for f in range(n_faces)]
        others = np.argsort(allow, kind="stable")[1:]  # all but the smallest allowance
        kept = all(6.0 * eps * math.sqrt(H) + speed[f, 0] * H <= dist[f, r] * (1 + 1e-9)
                   for f in others)
        assert n_r == 1 or kept or H <= near_cap * (1 + 1e-9)
        # and the step is the largest such power of two
        cap = max(near_cap, sorted(allow)[1])
        assert 2 * n_r > left[r] or 2 * H > cap * (1 - 1e-9)


class CountingGenerator:
    """A Generator that counts the normal variates drawn through it."""

    def __init__(self, gen):
        self.gen, self.normals = gen, 0

    def standard_normal(self, size=None):
        self.normals += int(np.prod(size if size is not None else 1))
        return self.gen.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self.gen, name)


def test_dyadic_draws_few_normals_per_path():
    # from the middle of (0, 1) at h = 1e-4 a path drew about 67 normals when
    # the step was capped by the nearest face alone; about 18 now
    n = 4096
    gen = CountingGenerator(RngStream(17, 0).generator())
    res = engine._run_chunk(SPEC_BROWN, Interval(0, 1), np.array([0.5]), 1e-4, 200_000, gen, n,
                            0.0, None, "closure", True)
    assert not res.truncated.any()
    assert gen.normals / n < 25.0


@pytest.mark.parametrize("workers", [0, -3, True, 1.5, "2"])
def test_workers_below_one_or_not_an_integer_raises(workers):
    with pytest.raises(ConfigError, match="must be an integer >= 1, e.g. 1"):
        run_batch(SPEC_BROWN, Interval(0, 1), [0.5], 1e-3, 1.0, 10, 1, workers=workers)
    with pytest.raises(ConfigError, match="must be an integer >= 1"):
        estimate_v(PROB01, SPEC_BROWN, [0.5], 1e-3, 10, 1, workers=workers)


# ---------------------------------------------------------------------------
# State-dependent drift.


def test_state_dependent_drift_batch_matches_closed_form():
    # b(x) = 0 x + 1 is the criterion-1 drift, but as an affine field the
    # engine evaluates it at each knot inside its blocks
    spec = ProcessSpec(AffineDrift([[0.0]], [1.0]), BrownianNoise(1.0), 1)
    est = estimate_v(PROB01, spec, [0.5], 1e-3, 4000, 1)
    assert est.within(closed_form_v_eps(1.0, 0.5), extra=5e-3)


# ---------------------------------------------------------------------------
# Closed-form integral of a constant running cost.


@dataclass(frozen=True)
class Flat:
    """A constant that is not a ``Constant``, so the engine integrates it step by step."""

    value: float

    def __call__(self, x):
        return np.full(np.shape(x)[:-1], self.value)


def assert_same_exits_and_cost(closed, general):
    for f in EXIT_FIELDS:
        np.testing.assert_array_equal(getattr(closed, f), getattr(general, f), err_msg=f)
    np.testing.assert_allclose(closed.cost, general.cost, rtol=1e-14, atol=0.0)


# A Constant cost on SPEC_BROWN takes the exact dyadic route and a Flat one does
# not; the affine twin of the same process keeps both on the blocked route,
# so they run on the same paths.
SPEC_BROWN_AFFINE = ProcessSpec(AffineDrift([[0.0]], [1.0]), BrownianNoise(1.0), 1)


@pytest.mark.parametrize("spec,domain,x0,h", [
    (SPEC_BROWN_AFFINE, Interval(0, 1), [0.5], 1e-4),
    (SPEC_BROWN_AFFINE, Interval(0, 1), [0.5], 1e-3),
    (SPEC_BROWN_AFFINE, Interval(0, 1), [0.5], 1e-2),
    (SPEC_BALL, Ball([0.0, 0.0], 1.0), [0.0, 0.0], 1e-3),
], ids=["brownian-1e-4", "brownian-1e-3", "brownian-1e-2", "stable-ball-1e-3"])
def test_closed_form_cost_blocked_kernel(spec, domain, x0, h):
    kw = dict(lam=1.0, stop="closure")
    closed, general = [run_batch(spec, domain, x0, h, 20.0, 2000, 5,
                                 cost_fn=SpatialCost(fn), **kw)
                       for fn in (Constant(2.5), Flat(2.5))]
    assert not closed.truncated.any()
    assert_same_exits_and_cost(closed, general)


def test_closed_form_cost_loop_kernel():
    for stream_id in range(3):
        runs = [run_single(SPEC_BROWN_AFFINE, Interval(0, 1), [0.3], 1e-4, 20.0,
                           RngStream(9, stream_id), lam=1.0, cost_fn=SpatialCost(fn))
                for fn in (Constant(1.0), Flat(1.0))]
        assert_same_exits_and_cost(*runs)


def test_closed_form_cost_stable_cylinder_direct_route():
    spec = lift_time(ProcessSpec(ZeroDrift(1), StableNoise(1.5, 1.0), 1))
    cyl = Cylinder(1.0, Ball([0.0], 1.0))
    closed, general = [run_batch(spec, cyl, [0.0, 0.3], 1e-3, 1.002, 1000, 3,
                                 lam=0.0, cost_fn=PathSpaceCost(fn))
                       for fn in (Constant(1.0), Flat(1.0))]
    assert closed.via_jump.any()
    assert_same_exits_and_cost(closed, general)


def test_closed_form_cost_truncated_paths():
    closed, general = [run_batch(SPEC_BROWN_AFFINE, Interval(0, 1), [0.5], 1e-4, 0.05, 1000, 8,
                                 lam=1.0, cost_fn=SpatialCost(fn))
                       for fn in (Constant(1.0), Flat(1.0))]
    assert closed.truncated.any() and not closed.truncated.all()
    assert_same_exits_and_cost(closed, general)


class Clock:
    """The clock coordinate of a time-extended state, a cost linear in time."""

    def __call__(self, y):
        return np.asarray(y, float)[..., 0]


@pytest.mark.parametrize("noise", [BrownianNoise(1.0), StableNoise(1.5, 1.0)],
                         ids=["brownian", "stable"])
def test_trapezoid_exact_for_cost_linear_in_time(noise):
    # the trapezoid of a linear integrand is exact, so the cost of l = t is
    # (1 - e^-x (1 + x)) / lam^2 at x = lam t_stop; for x > 1/2 that closed
    # form is itself free of cancellation
    lam, h = 1.0, 1e-3
    spec = lift_time(ProcessSpec(ZeroDrift(1), noise, 1))
    res = run_batch(spec, Cylinder(1.0, Ball([0.0], 1.0)), [0.0, 0.3], h, 1.002, 300, 3,
                    lam=lam, cost_fn=PathSpaceCost(Clock()))
    x = lam * np.where(res.truncated, res.steps * h, res.zeta)
    far = x > 0.5
    assert far.sum() > 100
    exact = (1.0 - np.exp(-x[far]) * (1.0 + x[far])) / lam**2
    np.testing.assert_allclose(res.cost[far], exact, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# Sparse bridge scan against the dense scan it replaced.


def dense_bridge_scan(X, domain, half_var, gen, exit_step):
    """Reference: the dense (rows x steps) bridge scan of the blocked kernel.

    Also returns each row's first firing step ignoring its exit step (nb if
    none) and whether the row had any candidate step, for coverage checks.
    """
    na, nbp, d = X.shape
    nb = nbp - 1
    exit_step = exit_step.copy()
    bridge_exit = np.zeros(na, bool)
    face_axis = np.zeros(na, dtype=int)
    face_val = np.zeros(na)
    first_any = np.full(na, nb)
    had_cand = np.zeros(na, bool)
    jgrid = np.arange(nb)[None, :]
    for i in range(d):
        for face in (domain.lo[i], domain.hi[i]):
            z = (X[:, :-1, i] - face) * (X[:, 1:, i] - face) / half_var
            cand = z < 45.0
            had_cand |= cand.any(axis=1)
            fire = np.zeros((na, nb), dtype=bool)
            ncand = int(np.count_nonzero(cand))
            if ncand:
                fire[cand] = z[cand] < gen.standard_exponential(ncand)
            first_any = np.minimum(first_any, np.where(fire.any(axis=1), fire.argmax(axis=1), nb))
            fire &= jgrid < exit_step[:, None]
            hasf = fire.any(axis=1)
            jb = np.where(hasf, fire.argmax(axis=1), nb)
            better = jb < exit_step
            exit_step = np.where(better, jb, exit_step)
            bridge_exit = np.where(better, True, bridge_exit)
            face_axis = np.where(better, i, face_axis)
            face_val = np.where(better, face, face_val)
    return exit_step, bridge_exit, face_axis, face_val, first_any, had_cand


def random_block(box, na, nb, h, rng):
    """Knots of na Brownian rows: some start near a face, some far inside with tiny steps."""
    d = box.lo.size
    x0 = rng.uniform(box.lo, box.hi, size=(na, d))
    scale = np.full((na, 1, 1), math.sqrt(h))
    calm = np.arange(na) % 5 == 0
    x0[calm] = 0.5 * (box.lo + box.hi)
    scale[calm] = 1e-6 * math.sqrt(h)
    X = np.empty((na, nb + 1, d))
    X[:, 0] = x0
    X[:, 1:] = x0[:, None, :] + np.cumsum(scale * rng.standard_normal((na, nb, d)), axis=1)
    X[1, 3, 0] = box.lo[0]  # a knot exactly on a face
    return X


@pytest.mark.parametrize("box,h", [
    (Interval(0, 1), 1e-3),
    (Box([0.0, 0.0], [1.0, 0.6]), 1e-3),
    (Interval(1000.0, 1000.5), 2e-4),
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_bridge_scan_matches_dense(box, h, seed):
    rng = np.random.default_rng(seed)
    na, nb = 400, 64
    X = random_block(box, na, nb, h, rng)
    half_var = 0.5 * h
    exit_step = engine._first_outside(box.contains(X[:, 1:], "closure"))
    # some rows are stopped early, so their bridge fires after their exit
    early = rng.random(na) < 0.3
    exit_step[early] = np.minimum(exit_step[early], rng.integers(0, nb, size=early.sum()))

    gen_ref = np.random.Generator(np.random.Philox(seed))
    ref = dense_bridge_scan(X, box, half_var, gen_ref, exit_step)

    gen = np.random.Generator(np.random.Philox(seed))
    faces = box.faces()
    got_step, got_face = exit_step.copy(), np.full(na, -1)
    engine._bridge_scan(X, faces, half_var, gen, got_step, got_face)
    fired = got_face >= 0

    np.testing.assert_array_equal(got_step, ref[0])
    np.testing.assert_array_equal(fired, ref[1])
    np.testing.assert_array_equal([faces[f].axis for f in got_face[fired]], ref[2][fired])
    np.testing.assert_array_equal([faces[f].value for f in got_face[fired]], ref[3][fired])
    np.testing.assert_equal(gen.bit_generator.state, gen_ref.bit_generator.state)

    first_any, had_cand = ref[4], ref[5]
    assert ref[1].any(), "no bridge exit in the block"
    assert (~had_cand).any(), "every row had a candidate step"
    assert ((first_any < nb) & (first_any >= exit_step)).any(), \
        "no row exited before its bridge fired"


# ---------------------------------------------------------------------------
# A shape-blind engine: it reads Domain.faces(), Domain.contains and the spec,
# so a cylinder over an interval and the box with the same faces draw alike.

SPEC_STABLE_1D = ProcessSpec(ZeroDrift(1), StableNoise(1.5, 1.0), 1)
SPEC_BROWN_2D = ProcessSpec(ConstantDrift([1.0, 0.3]), BrownianNoise(0.5), 2)


@pytest.mark.parametrize("spec,h,horizon,kw", [
    (lift_time(SPEC_STABLE_1D), 0.25, 1.5, dict(lam=1.0, cost_fn=SpatialCost(Flat(1.0)))),
    (lift_time(SPEC_STABLE_1D), 1e-3, 1.002, dict(lam=1.0, cost_fn=SpatialCost(Constant(1.0)))),
    (lift_time(SPEC_BROWN), 0.25, 1.5, dict()),
    (SPEC_BROWN_2D, 1e-3, 20.0, dict()),
    (SPEC_BROWN_2D, 1e-3, 20.0, dict(cost_fn=SpatialCost(Flat(1.0)))),
], ids=["lifted-stable-lid-landings", "lifted-stable-constant-cost", "lifted-brownian",
        "brownian-dyadic", "brownian-blocked-bridge"])
def test_cylinder_and_box_with_the_same_faces_give_the_same_bytes(spec, h, horizon, kw):
    # from t = 0.5 at h = 0.25 the second clock knot lies on the lid t = T = 1
    cyl, box = [run_batch(spec, domain, [0.5, 0.3], h, horizon, 1000, 11, **kw)
                for domain in (Cylinder(1.0, Interval(-1, 1)), Box([0.0, -1.0], [1.0, 1.0]))]
    assert not cyl.truncated.all()
    for f in EXIT_FIELDS + ("cost",):
        assert getattr(cyl, f).tobytes() == getattr(box, f).tobytes(), f


def test_engine_names_no_shape():
    shapes = {"Box", "Ball", "Cylinder", "Interval", "PredicateDomain"}
    geometry = {"lo", "hi", "T", "base", "center", "radius"}
    tree = ast.parse(pathlib.Path(engine.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.alias)):
            name = node.id if isinstance(node, ast.Name) else node.name
            if name in shapes:
                found.append((node.lineno, name))
        elif isinstance(node, ast.Attribute) and node.attr in shapes | geometry:
            found.append((node.lineno, "." + node.attr))
        elif isinstance(node, ast.Constant) and node.value in shapes | geometry:
            found.append((node.lineno, repr(node.value)))
    assert not found, f"engine.py reads shape code at (line, name) {found}"


def test_no_bridge_switch():
    # run_batch runs the bridge test wherever it is exact and run_single never
    # does, so no caller can leave a batch on the biased Euler exit
    for entry in (run_batch, run_single):
        assert "bridge" not in inspect.signature(entry).parameters, entry.__name__
    found = []
    for path in sorted(pathlib.Path(engine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.keyword) and node.arg == "bridge":
                found.append((path.name, node.value.lineno))
    assert not found, f"modules pass bridge= at (file, line) {found}"


# ---------------------------------------------------------------------------
# Several starts on one path set: rows are (path, start) pairs, path-major,
# and the starts of a path share its noise.

SPEC_LIFTED_STABLE = lift_time(SPEC_STABLE_1D)


@pytest.mark.parametrize("spec,domain,x0,horizon,kw", [
    (SPEC_LIFTED_STABLE, Cylinder(1.0, Ball([0.0], 1.0)), [0.2, 0.3], 0.802,
     dict(lam=1.0, cost_fn=TimeScaledCost(Constant(1.0), 1.0))),
    (SPEC_BALL, Ball([0.0, 0.0], 1.0), [0.1, 0.2], 20.0, dict(stop="open")),
], ids=["stable-cylinder", "stable-ball-2d"])
def test_one_start_as_a_row_gives_the_same_bytes(spec, domain, x0, horizon, kw):
    point, row = [run_batch(spec, domain, start, 1e-3, horizon, 3000, 21, **kw)
                  for start in (x0, [x0])]
    for f in EXIT_FIELDS + ("cost",):
        assert getattr(point, f).tobytes() == getattr(row, f).tobytes(), f


def test_shared_noise_lid_landings_are_the_start_offset_apart():
    # on a wide cylinder most paths reach the lid; from x and x + delta at
    # the same t a path's two rows see the same increments, so they land at
    # the lid at the same time, delta apart in space
    delta, n, T = 0.37, 2000, 0.05
    res = run_batch(SPEC_LIFTED_STABLE, Cylinder(T, Interval(-50.0, 50.0)),
                    [[0.0, 0.1], [0.0, 0.1 + delta]], 1e-3, T + 2e-3, n, 5)
    point = res.point.reshape(n, 2, 2)
    lid = (point[:, :, 0] >= T - 1e-9).all(axis=1)
    assert lid.mean() > 0.9
    np.testing.assert_allclose(point[lid, 1, 1] - point[lid, 0, 1], delta, rtol=0, atol=1e-12)
    zeta = res.zeta.reshape(n, 2)
    np.testing.assert_array_equal(zeta[lid, 0], zeta[lid, 1])


def test_several_starts_on_the_dyadic_route_match_runs_per_start(monkeypatch):
    # dyadic step sizes differ per row, so a chunk runs its starts one after
    # the other; each start keeps its law: mean exit times within 4 sigma
    starts, n = [0.2, 0.5, 0.8], 4000
    calls = []

    def counting_dyadic(*args):
        calls.append(args[2])
        return dyadic(*args)

    dyadic = engine._run_dyadic
    monkeypatch.setattr(engine, "_run_dyadic", counting_dyadic)
    shared = run_batch(SPEC_BROWN, Interval(0, 1), [[x] for x in starts], 1e-3, 20.0, n, 5)
    chunks = -(-n // (CHUNK_SIZE // len(starts)))
    assert len(calls) == chunks * len(starts) and chunks > 1
    zeta = shared.zeta.reshape(n, len(starts))
    for s, x in enumerate(starts):
        alone = run_batch(SPEC_BROWN, Interval(0, 1), [x], 1e-3, 20.0, n, 50 + s).zeta
        se = math.hypot(zeta[:, s].std(ddof=1), alone.std(ddof=1)) / math.sqrt(n)
        assert abs(zeta[:, s].mean() - alone.mean()) <= 4 * se, x


def test_shared_noise_blocks_stay_within_block_elements(monkeypatch):
    # 6 starts: 3000 rows at first, so blocks of 16 steps, then longer ones as
    # rows exit, never beyond BLOCK_ELEMENTS row-steps once 16 steps fit
    shapes = []

    def recording_block(*args):
        X, jump = levy.euler_block(*args)
        shapes.append(X.shape[:2])
        return X, jump

    monkeypatch.setattr(engine, "euler_block", recording_block)
    starts = [[t, x] for t in (0.0, 0.5) for x in (-0.9, 0.0, 0.9)]
    run_batch(SPEC_LIFTED_STABLE, Cylinder(1.0, Ball([0.0], 1.0)), starts, 1e-3, 1.002, 500, 8)
    assert shapes[0] == (3000, 17)
    for na, nbp in shapes:
        assert (nbp - 1) * na <= max(levy.BLOCK_ELEMENTS, levy.FIRST_BLOCK_STEPS * na)
    assert any(na <= 2048 and nbp > 17 for na, nbp in shapes)
