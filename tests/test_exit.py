import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fkexit.engine import run_batch, run_single, segment_crossing
from fkexit.errors import InvalidStart
from fkexit.exit import (exit_coincidence, exit_point_avoidance, records_to_csv,
                         sample_exit)
from fkexit.geometry import Ball, Box, Cylinder, Interval, parabolic_rect
from fkexit.levy import (AffineDrift, BrownianNoise, ConstantDrift, NoNoise, ParabolicDrift,
                         ProcessSpec, StableNoise, ZeroDrift, block_steps, lift_time,
                         simulate_path)
from fkexit.paths import exit_point, exit_time, step_path
from fkexit.rng import RngStream

SPEC_DRIFT = ProcessSpec(ConstantDrift([1.0]), NoNoise(), 1)
SPEC_PARAB = ProcessSpec(ParabolicDrift(), NoNoise(), 2)
SPEC_BROWN = ProcessSpec(ConstantDrift([1.0]), BrownianNoise(1.0), 1)
SPEC_BALL = ProcessSpec(ZeroDrift(2), StableNoise(1.5, 1.0), 2)


class TestSampleExit:
    def test_uniform_motion_exact(self):
        rec = sample_exit(SPEC_DRIFT, Interval(0, 1), [0.25], 1e-3, 20.0, 1)
        assert rec.zeta == 0.75
        assert rec.exit_point[0] == pytest.approx(1.0, abs=1e-14)
        assert not rec.via_jump and not rec.truncated

    def test_parabolic_exact(self):
        rec = sample_exit(SPEC_PARAB, parabolic_rect(), [0.5, 0.5], 1e-3, 20.0, 1)
        assert rec.zeta == pytest.approx(-0.5 + math.sqrt(0.75), abs=1e-12)
        assert rec.exit_point[1] == pytest.approx(1.0, abs=1e-12)

    def test_invalid_start(self):
        with pytest.raises(InvalidStart):
            sample_exit(SPEC_DRIFT, Interval(0, 1), [2.0], 1e-3, 20.0, 1)

    def test_truncation(self):
        # drift away from the only exit it could reach within the horizon
        spec = ProcessSpec(ConstantDrift([0.0]), NoNoise(), 1)
        rec = sample_exit(spec, Interval(0, 1), [0.5], 1e-3, 2.0, 1)
        assert rec.truncated and rec.zeta == math.inf
        assert rec.discount_bound(1.0) == pytest.approx(math.exp(-2.0))

    def test_jump_fraction_from_ball_center(self):
        res = run_batch(SPEC_BALL, Ball([0, 0], 1.0), [0.0, 0.0], 1e-3, 20.0, 10_000, 123)
        # empirical regression value: an alpha-stable path usually leaves a
        # ball by an outright jump rather than by creep
        assert np.mean(res.via_jump[~res.truncated]) > 0.5

    def test_ordering_invariant(self):
        res = run_batch(SPEC_BALL, Ball([0, 0], 1.0), [0.0, 0.0], 1e-3, 20.0, 20_000, 7)
        assert np.all(res.zeta_hat <= res.zeta + 1e-12)


class TestEngineMatchesPathOperators:
    def test_brownian_single_path(self):
        # the engine consumes the stream exactly like simulate_path and its
        # closed-form crossing equals the skeleton operator's
        dom = Interval(0, 1)
        for sid in range(10):
            stream = RngStream(77, sid)
            res = run_single(SPEC_BROWN, dom, [0.5], 1e-3, 5.0, stream)
            path = simulate_path(SPEC_BROWN, [0.5], 1e-3, 5.0, stream)
            z_ref = exit_time(path, dom, "closure-hit")
            assert res.zeta[0] == pytest.approx(z_ref, abs=1e-12)
            assert np.allclose(res.point[0], exit_point(path, dom, "closure-hit"), atol=1e-12)

    def test_state_dependent_drift_single_path(self):
        # b(x) = 2 - 3x is evaluated at each knot inside the engine's blocks;
        # some paths exit after the schedule's first three blocks (16 + 32 + 64 steps)
        spec = ProcessSpec(AffineDrift([[-3.0]], [2.0]), BrownianNoise(1.0), 1)
        dom = Interval(0, 1)
        steps = []
        for sid in range(10):
            stream = RngStream(79, sid)
            res = run_single(spec, dom, [0.5], 1e-3, 5.0, stream)
            path = simulate_path(spec, [0.5], 1e-3, 5.0, stream)
            assert res.zeta[0] == pytest.approx(exit_time(path, dom, "closure-hit"), abs=1e-12)
            assert np.allclose(res.point[0], exit_point(path, dom, "closure-hit"), atol=1e-12)
            steps.append(res.steps[0])
        assert max(steps) > sum(block_steps(k, 1, 5000) for k in range(3))

    def test_stable_single_path_knot_semantics(self):
        # stable exits are recorded at knots; compare with the step-path view
        dom = Ball([0, 0], 1.0)
        for sid in range(10):
            stream = RngStream(78, sid)
            res = run_single(SPEC_BALL, dom, [0.0, 0.0], 1e-3, 20.0, stream)
            path = simulate_path(SPEC_BALL, [0.0, 0.0], 1e-3, 20.0, stream)
            stepped = step_path(path.times, path.points)
            assert res.zeta[0] == pytest.approx(exit_time(stepped, dom, "closure-hit"), abs=1e-12)


class TestExitCoincidence:
    def test_uniform_motion(self):
        est = exit_coincidence(SPEC_DRIFT, Interval(0, 1), [0.5], 1e-3, 20.0, 100, 1)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_on_curve_fails(self):
        est = exit_coincidence(SPEC_PARAB, parabolic_rect(), [-0.5, 0.25], 1e-3, 20.0, 100, 1)
        assert est.mean == 0.0

    def test_stable_ball_jump_exits_coincide(self):
        est = exit_coincidence(SPEC_BALL, Ball([0, 0], 1.0), [0.0, 0.0], 1e-3, 20.0, 10_000, 3)
        assert est.mean >= 0.99


def test_refinement_monotonicity():
    # coupled refinement: one Brownian skeleton subsampled at h, h/2, and a
    # fine reference h/8; halving h must not increase the median exit error
    dom = Interval(0, 1)
    h_fine = 1e-3 / 8
    n_steps = 4000 * 8
    gen_err = {1: [], 2: []}
    for sid in range(64):
        gen = RngStream(99, sid).generator()
        dz = math.sqrt(h_fine) * gen.standard_normal(n_steps)
        fine = 0.5 + np.concatenate([[0.0], np.cumsum(dz + h_fine)])
        times = h_fine * np.arange(n_steps + 1)
        z_ref = exit_time(step_path(times, fine.reshape(-1, 1)), dom, "closure-hit")
        for k in (1, 2):
            stride = 8 // k
            sk = step_path(times[::stride], fine[::stride].reshape(-1, 1))
            gen_err[k].append(abs(exit_time(sk, dom, "closure-hit") - z_ref))
    assert np.median(gen_err[2]) <= np.median(gen_err[1]) + 1e-12


def test_exit_point_avoidance():
    # the neighborhood hypothesis holds for the unit flow: the open-set exit
    # point is always 1, never inside (-1/2, 1/2)
    est = exit_point_avoidance(SPEC_DRIFT, Interval(0, 1), [0.0], Interval(-0.5, 0.5),
                               1e-3, 20.0, 50, 5)
    assert est.mean == 0.0


def test_records_csv():
    rec = sample_exit(SPEC_DRIFT, Interval(0, 1), [0.25], 1e-3, 20.0, 1)
    buf = io.StringIO()
    records_to_csv([rec], buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("zeta,zeta_hat,via_jump")
    assert lines[1].split(",")[0] == "0.75"


def test_segment_crossing_shapes():
    a = np.array([[0.5], [0.2]])
    b = np.array([[1.3], [-0.4]])
    s, x = segment_crossing(Interval(0, 1), a, b)
    assert s[0] == pytest.approx(0.625) and x[0, 0] == 1.0
    assert s[1] == pytest.approx(1.0 / 3.0) and x[1, 0] == 0.0
    a2 = np.array([[0.0, 0.0]])
    b2 = np.array([[2.0, 0.0]])
    s2, x2 = segment_crossing(Ball([0, 0], 1.0), a2, b2)
    assert s2[0] == pytest.approx(0.5) and np.allclose(x2[0], [1, 0])
    a3 = np.array([[0.9, 0.5]])
    b3 = np.array([[1.2, 0.5]])
    s3, x3 = segment_crossing(Cylinder(1.0, Interval(0, 1)), a3, b3)
    assert s3[0] == pytest.approx(1.0 / 3.0) and x3[0, 0] == 1.0
    # an end knot exactly on a face, as under stop="open", meets that face
    s4, x4 = segment_crossing(Interval(0, 1), np.array([[0.5]]), np.array([[1.0]]))
    assert s4[0] == 1.0 and x4[0, 0] == 1.0
    s5, x5 = segment_crossing(Cylinder(1.0, Interval(-5, 5)),
                              np.array([[0.75, 0.1]]), np.array([[1.0, 0.2]]))
    assert s5[0] == 1.0 and x5[0, 0] == 1.0


def test_open_stop_exits_on_the_cylinder_lid():
    # the clock knots k h land exactly on T, outside the open cylinder, so
    # every path leaves it there
    spec = lift_time(ProcessSpec(ZeroDrift(1), BrownianNoise(0.1), 1))
    res = run_batch(spec, Cylinder(1.0, Interval(-5, 5)), [0.0, 0.0], 0.25, 3.0, 4, 1,
                    stop="open")
    np.testing.assert_array_equal(res.zeta, 1.0)
    assert not res.truncated.any()
    np.testing.assert_array_equal(res.point[:, 0], 1.0)


def boundary_level(domain, x):
    """A level function of the domain: negative inside, zero on the boundary."""
    if isinstance(domain, Box):
        return np.max(np.maximum(domain.lo - x, x - domain.hi), axis=-1)
    if isinstance(domain, Ball):
        return np.linalg.norm(x - domain.center, axis=-1) - domain.radius
    t = x[..., 0]
    return np.maximum(np.maximum(-t, t - domain.T), boundary_level(domain.base, x[..., 1:]))


CROSSING_SHAPES = [Box([-1.0, 0.0], [1.0, 2.5]), Ball([0.1, -0.4], 0.9),
                   Cylinder(1.0, Interval(-1.0, 2.0)), Cylinder(2.0, Ball([0.0], 1.0))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CROSSING_SHAPES), st.data())
def test_segment_crossing_lands_on_boundary(domain, data):
    # a in the closure, b outside the open set; either may be snapped onto
    # a face, so b sits exactly on the boundary in many examples
    lo, hi = domain.bounding_box()
    faces = domain.faces()

    def point(u_lo, u_hi):
        u = data.draw(st.lists(st.floats(u_lo, u_hi), min_size=domain.d, max_size=domain.d))
        p = lo + np.array(u) * (hi - lo)
        k = data.draw(st.integers(-1, len(faces) - 1))
        return p if k < 0 else faces[k].snap(p)

    a, b = point(0.0, 1.0), point(-1.0, 2.0)
    assume(domain.contains(a, "closure") and not domain.contains(b, "open"))
    s, x = segment_crossing(domain, a[None, :], b[None, :])
    assert 0.0 <= s[0] <= 1.0
    assert abs(boundary_level(domain, x[0])) <= 1e-12
