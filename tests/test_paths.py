import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkexit.errors import HorizonExceeded
from fkexit.geometry import Interval, parabolic_rect
from fkexit.paths import (ConstantVelocityFlow, ParabolicFlow, evaluate,
                          exit_point, exit_time, exit_time_left, flow_path, left_limit,
                          linear_path, path_from_json, path_to_json, shift, step_path)

B03 = Interval(0, 3)
O01 = Interval(0, 1)


def vee_jump_path():
    # |t - 1| + 1 on [0, 1), drops to 0 at t = 1, then climbs at unit speed
    return linear_path([0, 1, 6], [[2], [0], [5]], jumps={1: [1.0]})


def drop_then_flat_path():
    # 1 - t on [0, 1), jumps back to 1 at t = 1 and stays there
    return linear_path([0, 1, 6], [[1], [1], [1]], jumps={1: [0.0]})


class TestEvaluate:
    def test_identity_flow(self):
        p = flow_path(ConstantVelocityFlow([0.0], [1.0]))
        assert evaluate(p, 0.5)[0] == 0.5

    def test_step_right_continuous_at_knot(self):
        p = step_path([0, 1], [[2], [0]])
        assert evaluate(p, 1.0)[0] == 0.0

    def test_vee_jump_midpoint(self):
        assert evaluate(vee_jump_path(), 0.5)[0] == pytest.approx(1.5, abs=0)

    def test_absorbing_tail(self):
        p = step_path([0, 1], [[2], [0]])
        assert evaluate(p, 100.0)[0] == 0.0


class TestLeftLimit:
    def test_vee_jump_at_one(self):
        p = vee_jump_path()
        assert left_limit(p, 1.0)[0] == pytest.approx(1.0, abs=0)
        assert evaluate(p, 1.0)[0] == 0.0

    def test_continuous_flow(self):
        p = flow_path(ConstantVelocityFlow([0.0], [1.0]))
        for t in (0.0, 0.3, 1.7):
            assert left_limit(p, t)[0] == evaluate(p, t)[0]

    def test_drop_then_flat_at_one(self):
        p = drop_then_flat_path()
        assert left_limit(p, 1.0)[0] == 0.0
        assert evaluate(p, 1.0)[0] == 1.0

    def test_convention_at_zero(self):
        p = vee_jump_path()
        assert left_limit(p, 0.0)[0] == evaluate(p, 0.0)[0]


class TestExitTime:
    def test_open_hit_vee_jump(self):
        assert exit_time(vee_jump_path(), B03, "open-hit") == 1.0

    def test_closure_hit_unit_flow(self):
        p = flow_path(ConstantVelocityFlow([0.0], [1.0]))
        assert exit_time(p, O01, "closure-hit") == 1.0
        assert exit_time(p, O01, "open-hit") == 1.0

    def test_entrance_from_boundary(self):
        p = flow_path(ConstantVelocityFlow([0.0], [1.0]))
        assert exit_time(p, O01, "entrance") == 0.0

    def test_parabolic_flow_interior(self):
        p = flow_path(ParabolicFlow([0.5, 0.5]))
        z = exit_time(p, parabolic_rect(), "closure-hit")
        assert z == pytest.approx(-0.5 + math.sqrt(0.75), abs=1e-12)

    def test_infinite_sentinel_and_strict(self):
        p = drop_then_flat_path()
        assert exit_time(p, B03, "open-hit") == math.inf
        with pytest.raises(HorizonExceeded):
            exit_time(p, B03, "open-hit", strict=True)

    def test_on_curve_distinction(self):
        # trajectory slides along the interior parabola, grazes the boundary
        # corner once, and only later leaves the closed rectangle
        p = flow_path(ParabolicFlow([-0.5, 0.25]))
        assert exit_time(p, parabolic_rect(), "open-hit") == pytest.approx(0.5, abs=1e-12)
        assert exit_time(p, parabolic_rect(), "closure-hit") == pytest.approx(1.5, abs=1e-12)


class TestExitTimeLeft:
    def test_vee_jump_pair(self):
        p = vee_jump_path()
        assert exit_time(p, B03, "open-hit") == 1.0
        assert exit_time_left(p, B03) == 4.0

    def test_drop_then_flat_pair(self):
        p = drop_then_flat_path()
        assert exit_time(p, B03, "open-hit") == math.inf
        assert exit_time_left(p, B03) == 1.0

    def test_continuous_equality(self):
        p = flow_path(ConstantVelocityFlow([0.0], [1.0]))
        assert exit_time_left(p, O01) == exit_time(p, O01, "open-hit") == 1.0


class TestExitPoint:
    def test_unit_flow(self):
        p = flow_path(ConstantVelocityFlow([0.0], [1.0]))
        assert exit_point(p, O01, "closure-hit")[0] == pytest.approx(1.0, abs=1e-14)

    def test_parabolic(self):
        p = flow_path(ParabolicFlow([0.5, 0.5]))
        pt = exit_point(p, parabolic_rect(), "closure-hit")
        assert pt[0] == pytest.approx(math.sqrt(0.75), abs=1e-12)
        assert pt[1] == pytest.approx(1.0, abs=1e-12)

    def test_jump_overshoot(self):
        p = step_path([0, 1], [[0.5], [2.0]])
        assert exit_point(p, O01, "closure-hit")[0] == 2.0


class TestShift:
    def test_zero_shift_identity(self):
        p = vee_jump_path()
        assert shift(p, 0.0) is p

    def test_flow_composition(self):
        p = flow_path(ConstantVelocityFlow([0.0], [1.0]))
        assert evaluate(shift(p, 0.3), 0.2)[0] == pytest.approx(0.5, abs=1e-15)

    def test_exit_time_shift_identity(self):
        p = flow_path(ConstantVelocityFlow([0.0], [1.0]))
        z = exit_time(p, O01, "closure-hit")
        assert exit_time(shift(p, 0.5), O01, "closure-hit") == pytest.approx(z - 0.5, abs=1e-14)

    def test_skeleton_shift_preserves_values(self):
        p = vee_jump_path()
        sh = shift(p, 0.3)
        for t in (0.0, 0.2, 0.7, 1.5, 4.0):
            assert sh and np.allclose(evaluate(sh, t), evaluate(p, t + 0.3))


    def test_shift_to_just_before_a_jump_keeps_the_jump(self):
        # the knot at t = 4 lies within the knot tolerance after h, so the
        # shifted path starts at its post-jump value and exits at once
        p = linear_path([0, 1, 2, 3, 4], [[0], [0], [0], [0], [2]], jumps={4: [0.0]})
        dom = Interval(-0.5, 1.5)
        h = 0.9999999999999999 * 4.0
        assert exit_time(p, dom, "closure-hit") == 4.0
        assert exit_time(shift(p, h), dom, "closure-hit") == pytest.approx(4.0 - h, abs=1e-9)


class TestDiscontinuitySequence:
    def test_approximants_exit_early(self):
        # the limiting path exits the closed interval at 1, its approximants
        # at 1/(2n): the exit time is not continuous along this sequence
        for n in (1, 2, 4, 8, 32):
            w = linear_path([0, 1 / n, 3], [[1 / n], [1 / n], [2 + 1 / n]],
                            jumps={1: [-1 / n]})
            assert exit_time(w, O01, "closure-hit") == pytest.approx(0.5 / n, abs=1e-14)
        w0 = flow_path(ConstantVelocityFlow([0.0], [1.0]))
        assert exit_time(w0, O01, "closure-hit") == 1.0


# -- property tests ---------------------------------------------------------

coord = st.floats(-2.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def linear_skeletons(draw):
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    pts = np.array(draw(st.lists(coord, min_size=n, max_size=n))).reshape(-1, 1)
    jumps = {}
    for k in range(1, n):
        if draw(st.booleans()):
            jumps[k] = [draw(coord)]
    return linear_path(times, pts, jumps)


@settings(max_examples=120, deadline=None)
@given(linear_skeletons(), st.floats(0.1, 1.4), st.floats(0.2, 1.2))
def test_exit_time_ordering(path, a, width):
    dom = Interval(a - 1.0, a - 1.0 + width)
    z_bar = exit_time(path, dom, "entrance")
    z_hat = exit_time(path, dom, "open-hit")
    z = exit_time(path, dom, "closure-hit")
    z_left = exit_time_left(path, dom)
    assert z_bar <= z_hat <= z + 1e-12
    assert max(z_hat, z_left) <= z + 1e-12


@settings(max_examples=80, deadline=None)
@given(linear_skeletons(), st.floats(0.0, 1.0))
def test_shift_identity_on_skeletons(path, frac):
    dom = Interval(-0.5, 1.5)
    z_hat = exit_time(path, dom, "open-hit")
    z = exit_time(path, dom, "closure-hit")
    if not math.isfinite(z) or z_hat <= 0:
        return
    h = frac * min(z_hat, path.horizon)
    shifted = exit_time(shift(path, h), dom, "closure-hit")
    assert shifted == pytest.approx(z - h, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(linear_skeletons())
def test_continuous_paths_left_limit_equality(path):
    cont = linear_path(path.times, path.points)  # strip the jumps
    dom = Interval(-0.4, 1.3)
    for mode in ("open-hit", "closure-hit"):
        assert exit_time_left(cont, dom, mode) == exit_time(cont, dom, mode)


@settings(max_examples=60, deadline=None)
@given(linear_skeletons())
def test_json_roundtrip(path):
    doc = json.loads(json.dumps(path_to_json(path)))
    back = path_from_json(doc)
    assert back.kind == path.kind
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.points, path.points)
    assert set(back.jumps) == set(path.jumps)


def test_golden_file_round_trip():
    here = os.path.join(os.path.dirname(__file__), "data", "path_golden.json")
    with open(here) as f:
        docs = json.load(f)
    for doc in docs:
        p = path_from_json(doc)
        assert path_to_json(p) == doc
    # and the golden skeleton still produces the reference exit pair
    p = path_from_json(docs[0])
    assert exit_time(p, B03, "open-hit") == 1.0
    assert exit_time_left(p, B03) == 4.0


def test_flow_json_roundtrip():
    p = flow_path(ParabolicFlow([0.5, 0.5]))
    back = path_from_json(path_to_json(p))
    assert np.allclose(back.flow.eval(0.7), p.flow.eval(0.7))


def test_predicate_domain_knot_level_exit():
    # membership-only domains disable intra-segment crossings: the exit is
    # found at knot resolution only
    from fkexit.geometry import PredicateDomain

    dom = PredicateDomain(1, lambda p: p[0] < 1.0, lambda p: p[0] <= 1.0,
                          box_lo=np.array([0.0]), box_hi=np.array([1.0]))
    p = linear_path([0.0, 2.0], [[0.0], [2.0]])
    assert exit_time(p, dom, "closure-hit") == 2.0  # crossing at t=1 not seen
