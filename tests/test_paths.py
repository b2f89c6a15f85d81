import math
from fractions import Fraction

import numpy as np
import pytest
import reference_scan
from hypothesis import given, settings
from hypothesis import strategies as st

from fkexit.errors import HorizonExceeded
from fkexit.geometry import (Ball, Box, Cylinder, Domain, Interval, SphereFace, parabolic_rect,
                             segment_crossing)
from fkexit.paths import (ConstantVelocityFlow, ParabolicFlow, evaluate,
                          exit_point, exit_time, exit_time_left, flow_path, left_limit,
                          linear_path, shift, step_path)

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


def test_predicate_domain_knot_level_exit():
    # membership-only domains disable intra-segment crossings: the exit is
    # found at knot resolution only
    from fkexit.geometry import PredicateDomain

    dom = PredicateDomain(1, lambda p: p[0] < 1.0, lambda p: p[0] <= 1.0,
                          box_lo=np.array([0.0]), box_hi=np.array([1.0]))
    p = linear_path([0.0, 2.0], [[0.0], [2.0]])
    assert exit_time(p, dom, "closure-hit") == 2.0  # crossing at t=1 not seen


# -- the knot-level operator against the per-segment root scan --------------

REF_DOMAINS = [Interval(0, 1), Box([-1.0, 0.0], [1.0, 1.0]), Ball([0.0], 1.0),
               Ball([0.0, 0.0], 1.0), Ball([0.0, 0.0, 0.0], 1.0),
               Cylinder(1.0, Interval(-1.0, 1.0)), Cylinder(1.0, Ball([0.0, 0.0], 1.0))]
OPERATORS = [(exit_time, "open-hit"), (exit_time, "closure-hit"), (exit_time, "entrance"),
             (exit_time_left, "open-hit"), (exit_time_left, "closure-hit")]
LATTICE = st.integers(-6, 6).map(lambda k: k / 4)
SHIFT = st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3])


def face_gaps(domain, x):
    """Exact gap of x to each face: 0 on it (on a sphere, half the gap of squared radii)."""
    out = []
    for f in domain.faces():
        if isinstance(f, SphereFace):
            r2 = sum((Fraction(x[a]) - Fraction(c)) ** 2 for a, c in zip(f.axes, f.center))
            out.append(abs(r2 - Fraction(f.radius) ** 2) / 2)
        else:
            out.append(abs(Fraction(x[f.axis]) - Fraction(f.value)))
    return out


@st.composite
def lattice_skeletons(draw, domain):
    """Step or linear skeletons whose knots and pre-jump values lie on a 1/4
    lattice, shifted as a whole where that keeps each of them either exactly
    on a face or at least 1e-9 away from it."""
    n = draw(st.integers(1, 6))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])

    def point():
        x = np.array([draw(LATTICE) for _ in range(domain.d)])
        f = draw(st.sampled_from([None, *domain.faces()]))
        if isinstance(f, SphereFace):  # onto the sphere along one of its axes
            x[list(f.axes)] = f.center
            x[draw(st.sampled_from(f.axes))] += draw(st.sampled_from([-1, 1])) * f.radius
        elif f is not None:
            x[f.axis] = f.value
        return x

    pts = np.array([point() for _ in range(n)])
    step = draw(st.booleans())
    jumps = {} if step else {k: point() for k in range(1, n) if draw(st.booleans())}
    shift = np.array([draw(SHIFT) for _ in range(domain.d)])
    if all(g == 0 or g >= 1e-9 for x in [*pts, *jumps.values()]
           for g in face_gaps(domain, x + shift)):
        pts += shift
        jumps = {k: v + shift for k, v in jumps.items()}
    return step_path(times, pts) if step else linear_path(times, pts, jumps)


def touches_a_sphere(path, domain):
    """Whether a segment's line is tangent to a sphere face at a point of the segment."""
    a = path.points
    b = a if path.kind == "step" else np.vstack([a[1:], a[-1:]])
    for k, pre in path.jumps.items():
        b[k - 1] = pre
    for f in domain.faces():
        if not isinstance(f, SphereFace):
            continue
        for p, q in zip(a, b):
            ca = [Fraction(p[i]) - Fraction(c) for i, c in zip(f.axes, f.center)]
            rel = [Fraction(q[i]) - Fraction(p[i]) for i in f.axes]
            aa, half_b = sum(r * r for r in rel), sum(x * r for x, r in zip(ca, rel))
            cc = sum(x * x for x in ca) - Fraction(f.radius) ** 2
            if aa and half_b * half_b == aa * cc and 0 <= -half_b <= aa:
                return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(REF_DOMAINS).flatmap(
    lambda dom: st.tuples(st.just(dom), lattice_skeletons(dom))))
def test_knot_level_exit_matches_reference_scan(case):
    domain, path = case
    touch = touches_a_sphere(path, domain)
    for op, mode in OPERATORS:
        got = op(path, domain, mode)
        ref = getattr(reference_scan, op.__name__)(path, domain, mode)
        if touch:
            # the scan finds a tangent touch late or not at all: its double
            # root splits about 2e-8 apart or vanishes, and a midpoint probe
            # can land on the touching point
            assert got <= ref + 1e-12 * (1.0 + abs(got)), (op.__name__, mode, got, ref)
            continue
        assert math.isfinite(got) == math.isfinite(ref), (op.__name__, mode)
        if math.isfinite(got):
            assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref)), (op.__name__, mode, got, ref)


def test_closure_hit_along_a_face_leaves_through_the_other_face():
    # the second segment runs along x = 1 and leaves the square through y = 1
    sq = Box([0.0, 0.0], [1.0, 1.0])
    p = linear_path([0, 1, 3], [[0.5, 0.5], [1.0, 0.5], [1.0, 1.5]])
    assert exit_time(p, sq, "closure-hit") == 2.0
    assert exit_time(p, sq, "open-hit") == 1.0
    assert exit_time_left(p, sq, "closure-hit") == 2.0
    a, b = np.array([[1.0, 0.5]]), np.array([[1.0, 1.5]])
    s, x = segment_crossing(sq, a, b, "closure")
    assert s[0] == 0.5 and x[0].tolist() == [1.0, 1.0]
    assert segment_crossing(sq, a, b, "open")[0][0] == 0.0


def test_zero_length_segments_on_a_sphere():
    disk = Ball([0.0, 0.0], 1.0)
    p = step_path([0, 1, 2], [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert exit_time(p, disk, "open-hit") == exit_time_left(p, disk, "open-hit") == 1.0
    assert exit_time(p, disk, "closure-hit") == exit_time_left(p, disk, "closure-hit") == math.inf
    knot = step_path([0.0], [[-1.0, 0.0]])
    assert exit_time(knot, disk, "open-hit") == exit_time_left(knot, disk, "open-hit") == 0.0
    assert exit_time(knot, disk, "closure-hit") == math.inf
    # the clock moves while the point sits on the lateral sphere of the cylinder
    lateral = linear_path([0, 1], [[0.5, 0.0, 1.0], [1.5, 0.0, 1.0]])
    cyl = Cylinder(2.0, disk)
    assert exit_time(lateral, cyl, "open-hit") == exit_time_left(lateral, cyl, "open-hit") == 0.0
    assert exit_time(lateral, cyl, "closure-hit") == math.inf
    face = disk.faces()[0]
    for mode in ("open", "closure"):
        s, x = face.segment_crossing(np.array([[0.0, 1.0]]), np.array([[0.0, 1.0]]), mode)
        assert s[0] == (0.0 if mode == "open" else math.inf) and x[0].tolist() == [0.0, 1.0]
    s, _ = face.segment_crossing(np.array([[0.0, 1.5]]), np.array([[0.0, 1.5]]))
    assert s[0] == 0.0


def test_tangent_segment_exits_at_its_sphere_knot():
    # the segment from the knot at t1 is tangent to the circle there (to
    # rounding), so the closed disk is left at t1; the root scan's double
    # root lands about 2e-8 late
    a = np.array([-0.15773792002084577, -0.987481011760478])
    b = [0.42201629977233224, -1.08008960237069]
    t1 = 0.6260932876862045
    p = linear_path([0.0, t1, t1 + 0.8], [0.5 * a, a, b])
    disk = Ball([0.0, 0.0], 1.0)
    assert disk.on_boundary(a)
    assert exit_time(p, disk, "closure-hit") == t1
    assert 1e-9 < reference_scan.exit_time(p, disk, "closure-hit") - t1 < 1e-7


def test_crossing_at_a_knot_is_that_knots_time():
    # the left limit at 2.826 lies on the face; 0.599 + (2.826 - 0.599)
    # rounds to 2.8260000000000005
    p = linear_path([0.0, 0.599, 2.826, 3.0], [[0.5], [0.5], [0.5], [0.5]], jumps={2: [1.0]})
    assert exit_time_left(p, O01, "open-hit") == 2.826
    assert exit_time(p, O01, "open-hit") == math.inf


@pytest.mark.parametrize("path", [
    step_path([0, 1, 2], [[0.5], [0.25], [2.0]]),
    linear_path([0, 1, 2], [[0.5], [0.25], [2.0]], jumps={1: [0.75]}),
    flow_path(ConstantVelocityFlow([0.5], [1.0])),
    step_path([0, 1], [[0.5], [0.25]]),
], ids=["step", "linear", "flow", "never"])
def test_exit_times_are_python_floats(path):
    for op, mode in OPERATORS:
        assert type(op(path, O01, mode)) is float


def test_exit_time_tests_membership_a_few_times_whatever_the_knot_count(monkeypatch):
    gen = np.random.default_rng(5)
    times = 1e-4 * np.arange(32_001)
    p = step_path(times, 0.5 + np.cumsum(0.01 * gen.standard_normal(32_001)).reshape(-1, 1))
    calls = []
    contains = Domain.contains

    def counting(self, x, mode="open"):
        calls.append(mode)
        return contains(self, x, mode)

    monkeypatch.setattr(Domain, "contains", counting)
    for op, mode in OPERATORS:
        calls.clear()
        op(p, Interval(-4.0, 5.0), mode)
        assert len(calls) <= 6, (op.__name__, mode, calls)
