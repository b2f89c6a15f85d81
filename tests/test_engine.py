import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fkexit import engine, levy
from fkexit.engine import CHUNK_SIZE, STOP_RULES, run_batch, run_single
from fkexit.errors import ConfigError, DimensionMismatch, InvalidStart, InvalidStep
from fkexit.feynman_kac import (EXIT_RULES, DirichletProblem, estimate_discounted_exit,
                                estimate_v, estimate_v_nonstationary)
from fkexit.functions import Constant, PathSpaceCost, SpatialCost, Zero
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


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_start_raises(bad):
    for spec in (SPEC_BROWN, SPEC_DRIFT):
        with pytest.raises(InvalidStart, match="finite"):
            run_batch(spec, Interval(0, 1), [bad], 1e-3, 1.0, 10, 1)
        with pytest.raises(InvalidStart, match="finite"):
            run_single(spec, Interval(0, 1), [bad], 1e-3, 1.0, RngStream(1))
        for call in (lambda: estimate_v(PROB01, spec, [bad], 1e-3, 10, 1),
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


@settings(max_examples=60, deadline=None)
@given(BAD_STEPS)
def test_non_positive_or_non_finite_discount_raises(discount):
    with pytest.raises(ValueError, match="discount"):
        DirichletProblem(Interval(0, 1), Constant(1.0), Zero(), discount)


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
    # three chunks, the last of 7 paths; each chunk's schedule follows its own live rows
    kw = dict(lam=1.0, cost_fn=SpatialCost(Flat(1.0)), bridge=True)
    one, two = [run_batch(SPEC_BROWN, Interval(0, 1), [0.5], 1e-3, 20.0, 2 * CHUNK_SIZE + 7, 4,
                          workers=w, **kw) for w in (1, 2)]
    for f in EXIT_FIELDS + ("cost",):
        assert getattr(one, f).tobytes() == getattr(two, f).tobytes(), f


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


@pytest.mark.parametrize("spec,domain,x0,h", [
    (SPEC_BROWN, Interval(0, 1), [0.5], 1e-4),
    (SPEC_BROWN, Interval(0, 1), [0.5], 1e-3),
    (SPEC_BROWN, Interval(0, 1), [0.5], 1e-2),
    (SPEC_BALL, Ball([0.0, 0.0], 1.0), [0.0, 0.0], 1e-3),
], ids=["brownian-1e-4", "brownian-1e-3", "brownian-1e-2", "stable-ball-1e-3"])
def test_closed_form_cost_blocked_kernel(spec, domain, x0, h):
    kw = dict(lam=1.0, stop="closure", bridge=True)
    closed, general = [run_batch(spec, domain, x0, h, 20.0, 2000, 5,
                                 cost_fn=SpatialCost(fn), **kw)
                       for fn in (Constant(2.5), Flat(2.5))]
    assert not closed.truncated.any()
    assert_same_exits_and_cost(closed, general)


def test_closed_form_cost_loop_kernel():
    for stream_id in range(3):
        runs = [run_single(SPEC_BROWN, Interval(0, 1), [0.3], 1e-4, 20.0,
                           RngStream(9, stream_id), lam=1.0, cost_fn=SpatialCost(fn),
                           bridge=True)
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
    closed, general = [run_batch(SPEC_BROWN, Interval(0, 1), [0.5], 1e-4, 0.05, 1000, 8,
                                 lam=1.0, cost_fn=SpatialCost(fn), bridge=True)
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
    exit_step = engine._first_outside(engine._member_block(box, X, "closure"))
    # some rows are stopped early, so their bridge fires after their exit
    early = rng.random(na) < 0.3
    exit_step[early] = np.minimum(exit_step[early], rng.integers(0, nb, size=early.sum()))

    gen_ref = np.random.Generator(np.random.Philox(seed))
    ref = dense_bridge_scan(X, box, half_var, gen_ref, exit_step)

    gen = np.random.Generator(np.random.Philox(seed))
    got_step = exit_step.copy()
    got_exit = np.zeros(na, bool)
    got_axis = np.zeros(na, dtype=int)
    got_val = np.zeros(na)
    engine._bridge_scan(X, box, half_var, gen, got_step, got_exit, got_axis, got_val)

    np.testing.assert_array_equal(got_step, ref[0])
    np.testing.assert_array_equal(got_exit, ref[1])
    np.testing.assert_array_equal(got_axis, ref[2])
    np.testing.assert_array_equal(got_val, ref[3])
    np.testing.assert_equal(gen.bit_generator.state, gen_ref.bit_generator.state)

    first_any, had_cand = ref[4], ref[5]
    assert ref[1].any(), "no bridge exit in the block"
    assert (~had_cand).any(), "every row had a candidate step"
    assert ((first_any < nb) & (first_any >= exit_step)).any(), \
        "no row exited before its bridge fired"
