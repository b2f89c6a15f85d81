import math

import numpy as np
import pytest
import reference_knots
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fkexit.errors import ConfigError, InvalidStep
from fkexit.levy import (JUMP_MARK_FACTOR, BrownianNoise, ConstantDrift, NoNoise,
                         ParabolicDrift, ProcessSpec, StableNoise, TimeAugmentedDrift,
                         ZeroDrift, _cos_in_place, _sin_in_place, drift_from_config,
                         euler_block, lift_time, noise_from_config, sample_isotropic_stable,
                         sample_one_sided_stable, sample_symmetric_stable_1d, simulate_path,
                         spec_from_config)
from fkexit.paths import evaluate, exit_time, exit_time_left
from fkexit.rng import RngStream

# all samplers are normalized so that E[exp(iuS)] = exp(-|u|^alpha)


class TestStable1d:
    def test_cauchy_median(self):
        s = sample_symmetric_stable_1d(1.0, RngStream(42), size=100_000)
        assert abs(np.median(s)) < 0.02

    def test_characteristic_function(self):
        n = 1_000_000
        s = sample_symmetric_stable_1d(1.5, RngStream(43), size=n)
        emp = np.mean(np.cos(s))
        se = np.std(np.cos(s)) / math.sqrt(n)
        assert abs(emp - math.exp(-1.0)) <= 3 * se

    def test_scaling(self):
        # S at time 2 equals 2^(1/alpha) S_1 in law; alpha = 0.5 gives factor 4
        n = 100_000
        s1 = sample_symmetric_stable_1d(0.5, RngStream(44), size=n)
        s2 = (sample_symmetric_stable_1d(0.5, RngStream(45), size=n)
              + sample_symmetric_stable_1d(0.5, RngStream(46), size=n))
        ks = stats.ks_2samp(s2 / 4.0, s1)
        assert ks.pvalue > 0.01


class TestOneSided:
    def test_laplace_transform(self):
        n = 400_000
        t = sample_one_sided_stable(0.75, RngStream(47), size=n)
        assert np.all(t > 0)
        for s in (0.5, 1.0, 2.0):
            emp = np.mean(np.exp(-s * t))
            se = np.std(np.exp(-s * t)) / math.sqrt(n)
            assert abs(emp - math.exp(-(s**0.75))) <= 3 * se + 1e-4

    @pytest.mark.parametrize("alpha,seed", [(0.3, 70), (0.95, 71)])
    def test_laplace_transform_near_the_ends(self, alpha, seed):
        n = 400_000
        t = sample_one_sided_stable(alpha, RngStream(seed), size=n)
        assert np.all(t > 0)
        for s in (0.5, 1.0, 2.0):
            emp = np.mean(np.exp(-s * t))
            se = np.std(np.exp(-s * t)) / math.sqrt(n)
            assert abs(emp - math.exp(-(s**alpha))) <= 3 * se + 1e-4

    def test_index_range(self):
        with pytest.raises(ValueError):
            sample_one_sided_stable(1.2, RngStream(0))


# The samplers' angles: Kanter's sines take arguments in (0, pi), the
# Chambers-Mallows-Stuck sine in (-pi, pi) and its cosines in [-pi/2, pi/2].
SIN_EDGES = [0.0, -0.0, 1e-300, 1e-12, np.pi - 1e-12, np.pi, -np.pi, np.pi / 2, -np.pi / 2]
COS_EDGES = [0.0, -0.0, 1e-12, np.pi / 2, -np.pi / 2, np.nextafter(np.pi / 2, 0.0),
             np.pi / 2 - 1e-9, -(np.pi / 2 - 1e-12)]


def _errors(got, ref):
    rel = np.abs(got - ref)[ref != 0] / np.abs(ref[ref != 0])
    return np.abs(got - ref).max(), rel.max()


@pytest.mark.parametrize("lo,hi", [(0.0, np.pi), (-np.pi, np.pi)], ids=["kanter", "cms"])
def test_sine_helper_matches_libm(lo, hi):
    x = np.concatenate([RngStream(72).generator().uniform(lo, hi, 1_000_000), SIN_EDGES])
    got = _sin_in_place(x.copy())
    abs_err, rel_err = _errors(got, np.sin(x))
    assert abs_err <= 4.5e-16 and rel_err <= 1e-15
    np.testing.assert_array_equal(np.signbit(got), np.signbit(np.sin(x)))


def test_cosine_helper_matches_libm_near_the_right_angle_too():
    x = np.concatenate([RngStream(73).generator().uniform(-np.pi / 2, np.pi / 2, 1_000_000),
                        COS_EDGES])
    got = _cos_in_place(x.copy())
    abs_err, rel_err = _errors(got, np.cos(x))
    assert abs_err <= 4.5e-16 and rel_err <= 1e-15


class TestIsotropic:
    def test_isotropy(self):
        n = 400_000
        x = sample_isotropic_stable(1.5, 2, RngStream(48), size=n)
        e1, e2 = np.mean(np.cos(x[:, 0])), np.mean(np.cos(x[:, 1]))
        se = 2.0 / math.sqrt(n)
        assert abs(e1 - e2) <= 3 * se
        assert abs(e1 - math.exp(-1.0)) <= 3 * se

    def test_d1_reduces_to_symmetric(self):
        n = 100_000
        a = sample_isotropic_stable(1.2, 1, RngStream(49), size=n)[:, 0]
        b = sample_symmetric_stable_1d(1.2, RngStream(50), size=n)
        assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_projection_is_one_dimensional_stable(self):
        n = 100_000
        x = sample_isotropic_stable(1.5, 2, RngStream(51), size=n)
        v = np.array([0.6, 0.8])
        proj = x @ v
        ref = sample_symmetric_stable_1d(1.5, RngStream(52), size=n)
        assert stats.ks_2samp(proj, ref).pvalue > 0.01


class TestSimulatePath:
    def test_deterministic_reduction(self):
        spec = ProcessSpec(ConstantDrift([1.0]), NoNoise(), 1)
        p = simulate_path(spec, [0.0], 0.01, 2.0, RngStream(1))
        assert p.kind == "flow"
        assert evaluate(p, 0.5)[0] == 0.5

    def test_parabolic_flow_invariant(self):
        spec = ProcessSpec(ParabolicDrift(), NoNoise(), 2)
        p = simulate_path(spec, [0.5, 0.5], 0.01, 1.0, RngStream(1))
        for t in np.arange(0.0, 1.0, 0.01):
            x1, x2 = evaluate(p, t)
            assert abs(x2 - (0.5 - 0.25 + x1 * x1)) <= 1e-12

    def test_brownian_moments(self):
        spec = ProcessSpec(ZeroDrift(1), BrownianNoise(1.0), 1)
        h, n = 0.01, 2000
        ends = np.array([simulate_path(spec, [0.0], h, h, RngStream(5, i)).points[-1, 0]
                         for i in range(n)])
        assert abs(np.mean(ends)) <= 3 * math.sqrt(h / n)
        assert abs(np.var(ends) - h) <= 3 * h * math.sqrt(2.0 / n)

    def test_determinism(self):
        spec = ProcessSpec(ConstantDrift([0.2]), StableNoise(1.5, 1.0), 1)
        p1 = simulate_path(spec, [0.0], 0.01, 1.0, RngStream(9, 3))
        p2 = simulate_path(spec, [0.0], 0.01, 1.0, RngStream(9, 3))
        assert np.array_equal(p1.points, p2.points)
        p3 = simulate_path(spec, [0.0], 0.01, 1.0, RngStream(9, 4))
        assert not np.array_equal(p1.points, p3.points)

    def test_pure_drift_left_limit_equality(self):
        spec = ProcessSpec(ParabolicDrift(), NoNoise(), 2)
        p = simulate_path(spec, [-0.5, 0.1], 0.01, 2.0, RngStream(1))
        from fkexit.geometry import parabolic_rect

        dom = parabolic_rect()
        assert exit_time_left(p, dom, "open-hit") == exit_time(p, dom, "open-hit")

    def test_invalid_step(self):
        spec = ProcessSpec(ConstantDrift([1.0]), NoNoise(), 1)
        with pytest.raises(InvalidStep):
            simulate_path(spec, [0.0], 0.0, 1.0, RngStream(1))

    def test_jump_marks_present(self):
        spec = ProcessSpec(ZeroDrift(1), StableNoise(0.8, 1.0), 1)
        p = simulate_path(spec, [0.0], 0.01, 5.0, RngStream(11, 0))
        assert p.jumps  # heavy tails at alpha = 0.8 mark jumps quickly

    def test_increment_scaling(self):
        # aggregating k steps matches one k h step in law (stable self-similarity)
        spec = ProcessSpec(ZeroDrift(1), StableNoise(1.5, 1.0), 1)
        k, h, n = 8, 0.01, 4000
        agg = np.array([simulate_path(spec, [0.0], h, k * h, RngStream(13, i)).points[-1, 0]
                        for i in range(n)])
        one = np.array([simulate_path(spec, [0.0], k * h, k * h, RngStream(14, i)).points[-1, 0]
                        for i in range(n)])
        assert stats.ks_2samp(agg, one).pvalue > 0.01


def test_lift_time_drift():
    spec = ProcessSpec(ConstantDrift([2.0]), StableNoise(1.5, 1.0), 1)
    lifted = lift_time(spec)
    assert isinstance(lifted.drift, TimeAugmentedDrift)
    assert lifted.d == 2 and lifted.noise_offset == 1
    b = lifted.drift(np.array([[0.3, 0.7]]))
    assert np.allclose(b, [[1.0, 2.0]])


def test_spec_config_round_trip():
    spec = ProcessSpec(ConstantDrift([1.0, -0.5]), StableNoise(1.2, 0.7), 2)
    back = spec_from_config({"drift": {"name": "constant", "velocity": [1.0, -0.5]},
                             "noise": {"kind": "stable", "alpha": 1.2, "sigma": 0.7}, "d": 2})
    assert np.allclose(back.drift.velocity, spec.drift.velocity)
    assert back.noise == spec.noise and back.d == 2


@pytest.mark.parametrize("from_config,cfg,match", [
    (noise_from_config, {"kind": "levy"},
     r"unknown noise kind 'levy'; use one of \['none', 'brownian', 'stable'\]"),
    (noise_from_config, {}, "unknown noise kind None; use one of"),
    (noise_from_config, {"kind": "brownian"}, "missing config key 'eps'"),
    (noise_from_config, {"kind": "stable", "sigma": 1.0},
     "missing config key 'alpha'"),
    (noise_from_config, {"kind": "stable", "alpha": 1.5},
     "missing config key 'sigma'"),
    (drift_from_config, {"name": "swirl"},
     r"unknown drift 'swirl'; use one of \['constant', 'zero', 'affine', 'parabolic', "
     r"'time-augmented'\]"),
    (drift_from_config, {"name": "constant"}, "missing config key 'velocity'"),
    (drift_from_config, {"name": "zero"}, "missing config key 'd'"),
    (drift_from_config, {"name": "affine", "A": [[1.0]]}, "missing config key 'c'"),
    (drift_from_config, {"name": "time-augmented"}, "missing config key 'base'"),
    (drift_from_config, {"name": "time-augmented", "base": {"name": "swirl"}},
     "unknown drift 'swirl'"),
])
def test_bad_noise_or_drift_config_is_config_error(from_config, cfg, match):
    with pytest.raises(ConfigError, match=match):
        from_config(cfg)


SPEC = {"drift": {"name": "zero"}, "noise": {"kind": "stable", "alpha": 1.5, "sigma": 1.0},
        "d": 2}


@pytest.mark.parametrize("cfg,match", [
    ({k: v for k, v in SPEC.items() if k != "d"}, r"missing config key 'd'; a process spec"),
    ({k: v for k, v in SPEC.items() if k != "drift"}, "missing config key 'drift'"),
    ({k: v for k, v in SPEC.items() if k != "noise"}, "missing config key 'noise'"),
    ({**SPEC, "noise": {"kind": "levy"}}, "unknown noise kind 'levy'"),
], ids=["without-d", "without-drift", "without-noise", "unknown-noise"])
def test_bad_spec_config_is_config_error(cfg, match):
    with pytest.raises(ConfigError, match=match):
        spec_from_config(cfg)
    assert spec_from_config(SPEC).drift.velocity.shape == (2,)


# ---------------------------------------------------------------------------
# Noise parameters.

BAD_ALPHAS = st.one_of(st.floats(max_value=0.0), st.floats(min_value=2.0),
                       st.sampled_from([math.nan, -math.inf]))
BAD_SCALES = st.one_of(st.floats(max_value=0.0, exclude_max=True),
                       st.sampled_from([math.nan, math.inf]))


@settings(max_examples=60, deadline=None)
@given(BAD_ALPHAS)
def test_stable_alpha_outside_range_is_config_error(alpha):
    with pytest.raises(ConfigError, match=r"strictly in \(0, 2\)"):
        StableNoise(alpha, 1.0)


@settings(max_examples=60, deadline=None)
@given(BAD_SCALES)
def test_negative_or_non_finite_noise_scale_is_config_error(scale):
    with pytest.raises(ConfigError, match="finite number >= 0"):
        StableNoise(1.5, scale)
    with pytest.raises(ConfigError, match="finite number >= 0"):
        BrownianNoise(scale)


def test_noise_parameter_edges_are_accepted():
    assert StableNoise(1e-3, 0.0).sigma == 0.0
    assert StableNoise(1.999, 2.0).alpha == 1.999
    assert BrownianNoise(0.0).eps == 0.0


# ---------------------------------------------------------------------------
# Euler blocks.

ALPHAS = (0.5, 1.0, 1.5)


def one_axis_stable(alpha, sigma=0.7):
    """The d = 1 stable spec and its time-lifted twin: one noisy axis each."""
    spec = ProcessSpec(ZeroDrift(1), StableNoise(alpha, sigma), 1)
    return {"d1": spec, "lifted": lift_time(spec)}


@pytest.mark.parametrize("route", ["d1", "lifted"])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_one_axis_stable_block_increments_follow_the_stable_law(alpha, route):
    spec = one_axis_stable(alpha)[route]
    h, na, nb = 1e-2, 25_000, 8
    pos = np.zeros((na, spec.d))
    X, _ = euler_block(spec, pos, h, RngStream(60, int(10 * alpha)).generator(), nb)
    s = (np.diff(X[:, :, -1], axis=1) / (spec.noise.sigma * h ** (1.0 / alpha))).ravel()
    n = s.size
    for u in (0.5, 1.0, 2.0):
        c = np.cos(u * s)
        assert abs(c.mean() - math.exp(-u**alpha)) <= 3 * c.std() / math.sqrt(n), u
    ref = sample_isotropic_stable(alpha, 1, RngStream(61, int(10 * alpha)), size=n)[:, 0]
    assert stats.ks_2samp(s, ref).pvalue > 1e-3
    if route == "lifted":  # the clock advances by h per step, the same for every row
        np.testing.assert_array_equal(X[:, 1:, 0], np.broadcast_to(np.cumsum(np.full(nb, h)),
                                                                   (na, nb)))


@pytest.mark.parametrize("route", ["d1", "lifted"])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_one_axis_stable_jump_marks_are_the_large_draws(alpha, route):
    spec = one_axis_stable(alpha)[route]
    na, nb = 500, 64
    _, jump = euler_block(spec, np.zeros((na, spec.d)), 1e-3, RngStream(62).generator(), nb)
    redrawn = sample_symmetric_stable_1d(alpha, RngStream(62).generator(), size=na * nb)
    np.testing.assert_array_equal(jump, (np.abs(redrawn) > JUMP_MARK_FACTOR).reshape(na, nb))
    assert jump.any()


def summed_block(spec, pos, h, gen, nb):
    """Reference knots of a constant-drift spec, pos + cumsum(v h + noise) on all axes at
    once, and the jump marks: the standard draws whose norm exceeds JUMP_MARK_FACTOR."""
    noise, (na, d) = spec.noise, pos.shape
    shape = (na, nb, d - spec.noise_offset)
    if isinstance(noise, BrownianNoise):
        dw = gen.standard_normal(shape) * (noise.eps * math.sqrt(h))
        jump = np.zeros((na, nb), dtype=bool)
    else:
        if shape[2] == 1:
            dw = sample_symmetric_stable_1d(noise.alpha, gen, size=na * nb).reshape(shape)
        else:
            dw = sample_isotropic_stable(noise.alpha, shape[2], gen, size=na * nb).reshape(shape)
        jump = np.linalg.norm(dw, axis=2) > JUMP_MARK_FACTOR
        dw *= noise.sigma * h ** (1.0 / noise.alpha)
    dw = np.concatenate([np.zeros((na, nb, spec.noise_offset)), dw], axis=2)
    dw += spec.drift(pos[:1])[0] * h
    X = np.empty((na, nb + 1, d))
    X[:, 0] = pos
    X[:, 1:] = np.cumsum(dw, axis=1) + pos[:, None, :]
    return X, jump


@pytest.mark.parametrize("spec", [
    ProcessSpec(ConstantDrift([0.7, -1.3]), BrownianNoise(0.9), 2),
    ProcessSpec(ConstantDrift([0.7, -1.3]), StableNoise(1.5, 0.8), 2),
    lift_time(ProcessSpec(ConstantDrift([-0.4]), StableNoise(1.2, 1.0), 1)),
    lift_time(ProcessSpec(ConstantDrift([0.7, -1.3]), StableNoise(0.7, 1.0), 2)),
], ids=["brownian-d2", "stable-d2", "lifted-stable-d2", "lifted-stable-d3"])
def test_constant_drift_block_is_the_cumulative_sum(spec):
    h, na, nb = 1e-3, 300, 40
    pos = RngStream(63).generator().uniform(-1.0, 1.0, (na, spec.d))
    X, jump = euler_block(spec, pos, h, RngStream(64).generator(), nb)
    ref_X, ref_jump = summed_block(spec, pos, h, RngStream(64).generator(), nb)
    np.testing.assert_array_equal(X, ref_X)
    np.testing.assert_array_equal(jump, ref_jump)
    assert jump.any() == isinstance(spec.noise, StableNoise)


@pytest.mark.parametrize("spec", [
    lift_time(ProcessSpec(ZeroDrift(1), StableNoise(1.5, 1.0), 1)),
    ProcessSpec(ZeroDrift(2), StableNoise(1.2, 0.7), 2),
    ProcessSpec(ConstantDrift([1.0, -0.3]), BrownianNoise(0.5), 2),
    lift_time(ProcessSpec(ConstantDrift([0.4]), BrownianNoise(1.0), 1)),
    ProcessSpec(ParabolicDrift(), BrownianNoise(1.0), 2),
], ids=["lifted-stable", "stable-2d", "brownian-2d", "lifted-brownian", "parabolic"])
@pytest.mark.parametrize("path_of", [None, [0, 0, 0, 1, 2, 2, 3, 3, 3, 3]],
                         ids=["own-noise", "shared-noise"])
def test_euler_block_matches_gather_first_reference(spec, path_of):
    # a path's cumulative sum is taken once and gathered to its rows: the same
    # bits as each row summing its own copy, from the same draws
    pos = np.random.default_rng(1).uniform(-0.5, 0.5, size=(10, spec.d))
    path_of = None if path_of is None else np.array(path_of)
    gens = [RngStream(31).generator() for _ in range(2)]
    X, jump = euler_block(spec, pos, 1e-3, gens[0], 40, path_of)
    X_ref, jump_ref = reference_knots.euler_block(spec, pos, 1e-3, gens[1], 40, path_of)
    assert X.tobytes() == X_ref.tobytes()
    assert jump.tobytes() == jump_ref.tobytes()
    np.testing.assert_equal(gens[0].bit_generator.state, gens[1].bit_generator.state)
