import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkexit.errors import ConfigError, DimensionMismatch, NoConeData
from fkexit.geometry import (Ball, Box, Cone, Cylinder, Interval, PredicateDomain,
                             domain_from_config, parabolic_curve, parabolic_rect)
from fkexit.rng import RngStream


class TestContains:
    def test_interval_boundary_point(self):
        dom = Interval(0, 1)
        assert not dom.contains([0.0], "open")
        assert dom.contains([0.0], "closure")

    def test_ball_norm(self):
        dom = Ball([0, 0], 1.0)
        assert dom.contains([0.6, 0.8], "closure")
        assert not dom.contains([0.6, 0.8], "open")

    def test_cylinder_lid(self):
        dom = Cylinder(1.0, Interval(0, 1))
        assert not dom.contains([1.0, 0.5], "open")
        assert dom.contains([1.0, 0.5], "closure")
        assert dom.contains([0.5, 0.5], "open")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Interval(0, 1).contains([0.5, 0.5], "open")

    def test_batch(self):
        dom = Interval(0, 1)
        res = dom.contains(np.array([[0.5], [2.0], [0.0]]), "open")
        assert list(res) == [True, False, False]


@settings(max_examples=200, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_membership_consistency(x1, x2):
    for dom in (Interval(0, 1), Ball([0.2, -0.1], 0.8), parabolic_rect(),
                Cylinder(1.0, Interval(0, 1))):
        p = np.array([x1, x2][: dom.d])
        is_open = dom.contains(p, "open")
        is_closed = dom.contains(p, "closure")
        assert (not is_open) or is_closed  # open subset of closure
        assert dom.on_boundary(p) == (is_closed and not is_open)


@settings(max_examples=200, deadline=None)
@given(st.floats(-3, 3), st.floats(0.1, 3), st.integers(-3, 3), st.booleans())
def test_one_d_ball_is_its_interval_to_the_last_bit(center, radius, ulps, upper):
    # the engine decides exits by membership and places them by the faces'
    # distances, so the two must agree on points within ulps of a face
    ball = Ball([center], radius)
    box = Box([center - radius], [center + radius])
    assert ball.faces() == box.faces()
    x = ball.faces()[int(upper)].value
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.sign(ulps) * np.inf)
    p = np.array([[x]])
    dist = min(float(f.distance(p)[0]) for f in ball.faces())
    assert ball.contains(p, "closure") == box.contains(p, "closure") == (dist >= 0.0)
    assert ball.contains(p, "open") == box.contains(p, "open") == (dist > 0.0)


class TestExteriorCone:
    def test_ball_witness(self):
        cone = Ball([0, 0], 1.0).exterior_cone([1.0, 0.0])
        assert np.allclose(cone.direction, [1, 0])
        assert 0 < cone.aperture < np.pi and cone.radius > 0

    def test_interval_endpoint(self):
        cone = Interval(0, 1).exterior_cone([0.0])
        assert cone.direction[0] == -1.0

    def test_cone_samples_stay_outside(self):
        # validity contract: the truncated cone lies in the complement
        gen = RngStream(7).generator()
        cases = [
            (Ball([0, 0], 1.0), [1.0, 0.0]),
            (Interval(0, 1), [0.0]),
            (Box([0, 0], [1, 1]), [1.0, 1.0]),   # corner
            (parabolic_rect(), [1.0, 0.5]),
            (parabolic_rect(), [-0.3, 0.0]),
        ]
        for dom, x in cases:
            cone = dom.exterior_cone(x)
            pts = np.asarray(x) + cone.sample(10_000, gen)
            assert not np.any(dom.contains(pts, "open"))

    def test_no_cone_off_boundary(self):
        with pytest.raises(NoConeData):
            Interval(0, 1).exterior_cone([0.5])

    def test_cylinder_has_no_cone_data(self):
        with pytest.raises(NoConeData):
            Cylinder(1.0, Interval(0, 1)).exterior_cone([0.5, 0.0])


class TestBoundarySampler:
    def test_interval_two_points(self):
        pts = Interval(0, 1).sample_boundary(2, RngStream(1).generator())
        assert sorted(p[0] for p in pts) == [0.0, 1.0]

    def test_ball_on_sphere(self):
        dom = Ball([0, 0], 1.0)
        pts = dom.sample_boundary(64, RngStream(2).generator())
        assert np.all(np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= 1e-12)

    @pytest.mark.parametrize("center,radius", [
        ([0.1], 0.3), ([0.3, -0.2], 0.7), ([0.1, 0.2, 0.3], 1.3), ([0.0, 0.0, 0.0], 1.0),
    ])
    def test_ball_points_lie_in_the_closure_on_the_sphere(self, center, radius):
        # c + r u rounds outside the closed ball for up to 15% of the points
        # unless the sampler pulls them back in
        dom = Ball(center, radius)
        pts = dom.sample_boundary(4000, RngStream(5).generator())
        assert dom.contains(pts, "closure").all()
        dist = np.linalg.norm(pts - dom.center, axis=1)
        assert np.all(np.abs(dist - radius) <= 1e-12 * radius)

    def test_rect_side_proportions(self):
        dom = parabolic_rect()  # perimeter 6: horizontal sides 2/6 each, vertical 1/6
        pts = dom.sample_boundary(400, RngStream(3).generator())
        on_bottom = np.sum(pts[:, 1] == 0.0)
        on_left = np.sum(pts[:, 0] == -1.0)
        assert abs(on_bottom / 400 - 2 / 6) < 0.1 * (2 / 6) + 0.02
        assert abs(on_left / 400 - 1 / 6) < 0.1 * (1 / 6) + 0.02

    def test_all_on_boundary(self):
        for dom in (Ball([0.5], 0.5), parabolic_rect(), Cylinder(1.0, Interval(0, 1))):
            pts = dom.sample_boundary(50, RngStream(4).generator())
            assert np.all(dom.contains(pts, "closure"))
            assert not np.any(dom.contains(pts, "open"))


def test_parabolic_curve_points():
    pts = parabolic_curve(25)
    assert np.all(pts[:, 1] == pts[:, 0] ** 2)
    assert np.all((pts[:, 0] > -1) & (pts[:, 0] < 0))
    assert np.all(parabolic_rect().contains(pts, "open"))


def test_config_round_trip():
    unit_ball = {"shape": "ball", "center": [0.0], "radius": 1.0}
    for cfg, dom in (({"shape": "interval", "a": 0, "b": 1}, Interval(0, 1)),
                     ({"shape": "ball", "center": [0, 0], "radius": 2.0}, Ball([0, 0], 2.0)),
                     ({"shape": "parabolic-rect"}, parabolic_rect()),
                     ({"shape": "cylinder", "T": 0.5, "base": unit_ball},
                      Cylinder(0.5, Ball([0.0], 1.0)))):
        back = domain_from_config(cfg)
        assert type(back) is type(dom)
        lo1, hi1 = dom.bounding_box()
        lo2, hi2 = back.bounding_box()
        assert np.allclose(lo1, lo2) and np.allclose(hi1, hi2)


def test_cone_membership():
    cone = Cone(np.array([1.0, 0.0]), np.pi / 4, 1.0)
    assert cone.contains([0.5, 0.0])
    assert not cone.contains([0.5, 0.6])   # outside aperture
    assert not cone.contains([2.0, 0.0])   # outside truncation


def test_cone_tolerates_float_boundary_points():
    # sampled boundary points can sit an ulp outside the exact face
    b = Ball([0.0, 0.0], 1.0)
    x = np.array([0.9986160071965867, 0.05259345214799643])
    x = x / np.linalg.norm(x) * (1.0 + 2e-16)
    cone = b.exterior_cone(x)
    assert np.allclose(cone.direction, x / np.linalg.norm(x))
    assert Interval(0, 1).exterior_cone([1.0 + 1e-16]).direction[0] == 1.0


def test_predicate_domain_membership():
    from fkexit.geometry import PredicateDomain

    dom = PredicateDomain(1, lambda p: abs(p[0]) < 1.0, lambda p: abs(p[0]) <= 1.0,
                          box_lo=np.array([-1.0]), box_hi=np.array([1.0]))
    assert dom.contains([0.5], "open") and not dom.contains([1.0], "open")
    assert dom.contains([1.0], "closure")
    assert dom.faces() is None


@pytest.mark.parametrize("cfg,match", [
    ({"shape": "disk"}, r"unknown domain shape 'disk'; use one of \['box', 'interval', 'ball', "
                        r"'cylinder', 'parabolic-rect'\]"),
    ({}, "unknown domain shape None"),
    ({"shape": "box", "lo": [0.0]}, "missing config key 'hi'; domain shape 'box' needs it"),
    ({"shape": "interval", "a": 0}, "missing config key 'b'"),
    ({"shape": "ball", "center": [0.0]}, "missing config key 'radius'"),
    ({"shape": "cylinder", "base": {"shape": "interval", "a": 0, "b": 1}},
     "missing config key 'T'"),
    ({"shape": "cylinder", "T": 1.0}, "missing config key 'base'"),
    ({"shape": "cylinder", "T": 1.0, "base": {"shape": "disk"}}, "unknown domain shape 'disk'"),
], ids=["unknown-shape", "no-shape", "box-without-hi", "interval-without-b",
        "ball-without-radius", "cylinder-without-T", "cylinder-without-base",
        "cylinder-unknown-base"])
def test_bad_domain_config_is_config_error(cfg, match):
    with pytest.raises(ConfigError, match=match):
        domain_from_config(cfg)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build,match", [
    (lambda: Box([0.0, NAN], [1.0, 1.0]), r"box lo=\[0.0, nan\]"),
    (lambda: Box([0.0], [INF]), "needs finite lo < hi"),
    (lambda: Box([-INF], [0.0]), "needs finite lo < hi"),
    (lambda: Box([0.0, 2.0], [1.0, 1.0]), "needs finite lo < hi"),
    (lambda: Interval(1.0, 1.0), "needs finite lo < hi"),
    (lambda: Ball([0.0], NAN), "radius=nan"),
    (lambda: Ball([0.0], INF), "radius=inf"),
    (lambda: Ball([0.0], 0.0), "radius=0.0"),
    (lambda: Ball([0.0], -1.0), "radius=-1.0"),
    (lambda: Ball([NAN, 0.0], 1.0), r"center=\[nan, 0.0\]"),
    (lambda: Cylinder(NAN, Interval(0, 1)), "T=nan"),
    (lambda: Cylinder(INF, Interval(0, 1)), "T=inf"),
    (lambda: Cylinder(0.0, Interval(0, 1)), "T=0.0"),
    (lambda: Cylinder(-1.0, Interval(0, 1)), "T=-1.0"),
], ids=["box-nan", "box-inf-hi", "box-inf-lo", "box-lo-above-hi", "interval-empty",
        "ball-nan-radius", "ball-inf-radius", "ball-zero-radius", "ball-negative-radius",
        "ball-nan-center", "cylinder-nan-T", "cylinder-inf-T", "cylinder-zero-T",
        "cylinder-negative-T"])
def test_non_finite_or_empty_geometry_is_config_error(build, match):
    # a NaN radius used to give a ball that contains nothing, so an estimate
    # from its centre returned g(x0) with standard error 0
    with pytest.raises(ConfigError, match=match):
        build()


# ---------------------------------------------------------------------------
# Membership on knot arrays: the engine asks for an (na, nb, d) mask at once.


def _norm_ball(center, radius):
    """Membership of a ball written with np.linalg.norm, for (n, d) points."""
    def inside(p, strict):
        dist = np.linalg.norm(p - center, axis=-1)
        return dist < radius if strict else dist <= radius
    return inside


def _all_axes_box(lo, hi):
    def inside(p, strict):
        return np.all((p > lo) & (p < hi) if strict else (p >= lo) & (p <= hi), axis=-1)
    return inside


def _lidded(T, base):
    def inside(p, strict):
        t = p[:, 0]
        tin = (t > 0) & (t < T) if strict else (t >= 0) & (t <= T)
        return tin & base(p[:, 1:], strict)
    return inside


_disk = PredicateDomain(2, lambda p: p[0] ** 2 + p[1] ** 2 < 1.0,
                        lambda p: p[0] ** 2 + p[1] ** 2 <= 1.0,
                        box_lo=np.array([-1.0, -1.0]), box_hi=np.array([1.0, 1.0]))

# (domain, the same membership as a formula of flat (n, d) points)
KNOT_DOMAINS = {
    "interval": (Interval(-0.5, 1.0), _all_axes_box(np.array([-0.5]), np.array([1.0]))),
    "box-2": (parabolic_rect(), _all_axes_box(np.array([-1.0, 0.0]), np.array([1.0, 1.0]))),
    "box-3": (Box([0.0, -1.0, 0.5], [1.0, 1.0, 2.0]),
              _all_axes_box(np.array([0.0, -1.0, 0.5]), np.array([1.0, 1.0, 2.0]))),
    "ball-1": (Ball([0.5], 0.5), _norm_ball(np.array([0.5]), 0.5)),
    "ball-2": (Ball([0.0, 0.0], 1.0), _norm_ball(np.array([0.0, 0.0]), 1.0)),
    "ball-3": (Ball([0.1, -0.2, 0.3], 0.7), _norm_ball(np.array([0.1, -0.2, 0.3]), 0.7)),
    "cylinder-ball": (Cylinder(1.0, Ball([0.0], 1.0)),
                      _lidded(1.0, _norm_ball(np.array([0.0]), 1.0))),
    "cylinder-box": (Cylinder(0.5, Box([-1.0, 0.0], [1.0, 1.0])),
                     _lidded(0.5, _all_axes_box(np.array([-1.0, 0.0]), np.array([1.0, 1.0])))),
    "predicate": (_disk, lambda p, strict: np.array(
        [bool((_disk.open_test if strict else _disk.closure_test)(q)) for q in p])),
}


def _knots(domain, na, nb, seed):
    """(na, nb, d) knots, a view like the engine's X[:, 1:]: boundary points, and
    uniform points of the bounding box grown by a quarter on each side."""
    gen = RngStream(seed).generator()
    lo, hi = domain.bounding_box()
    pad = 0.25 * (hi - lo)
    pts = gen.uniform(lo - pad, hi + pad, (na * nb, domain.d))
    if isinstance(domain, PredicateDomain):
        ang = gen.uniform(0.0, 2 * np.pi, na * nb // 3)
        edge = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        edge = np.concatenate([edge, [[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]]])
    else:
        edge = domain.sample_boundary(na * nb // 3, gen)
    pts[:len(edge)] = edge
    X = np.empty((na, nb + 1, domain.d))
    X[:, 1:] = gen.permutation(pts).reshape(na, nb, domain.d)
    return X[:, 1:]


@pytest.mark.parametrize("mode", ["open", "closure"])
@pytest.mark.parametrize("name", list(KNOT_DOMAINS))
def test_membership_of_knot_arrays_is_the_flat_membership(name, mode):
    domain, formula = KNOT_DOMAINS[name]
    na, nb = 30, 17
    K = _knots(domain, na, nb, seed=80)
    got = domain.contains(K, mode)
    assert got.shape == (na, nb) and got.dtype == bool
    flat = K.reshape(-1, domain.d)
    np.testing.assert_array_equal(got, domain.contains(flat, mode).reshape(na, nb))
    np.testing.assert_array_equal(got, formula(flat, mode == "open").reshape(na, nb))
    # the boundary points make the two modes differ
    assert 0 < got.sum() < got.size
    assert (domain.contains(K, "closure") & ~domain.contains(K, "open")).any()
