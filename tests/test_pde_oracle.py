import math
from dataclasses import replace

import numpy as np
import pytest
import reference_bumps
import reference_quadrature

from fkexit.errors import ConfigError, CutoffTooTight
from fkexit.feynman_kac import DirichletProblem
from fkexit.functions import Constant, Zero, gauss_legendre
from fkexit.geometry import Ball, Cylinder, Interval
from fkexit.levy import (BrownianNoise, ConstantDrift, NoNoise, ProcessSpec, StableNoise,
                         ZeroDrift, sample_isotropic_stable)
from fkexit.pde_oracle import (CompactPolyBump, GaussPolyBump, GridFunction, _TimeSlice,
                               _admissibility_lattice, _candidate_families, _default_slopes,
                               _family_values, _local_cluster, _radial_rule, _spectral_grid,
                               check_viscosity_point,
                               closed_form_v0, closed_form_v_eps, fd_solve_1d, frac_laplacian,
                               G_value, generator_apply, hjb_G, kernel_constant, linear_G,
                               parabolic_exit_time,
                               parabolic_value, spectral_frac_laplacian_1d,
                               time_space_generator)
from fkexit.rng import RngStream

PROB = DirichletProblem(Interval(0, 1), Constant(1.0), Zero(), 1.0)
SPEC0 = ProcessSpec(ConstantDrift([1.0]), NoNoise(), 1)


class TestClosedForms:
    def test_boundary_values(self):
        assert closed_form_v_eps(1.0, 0.0) == pytest.approx(0.0, abs=1e-14)
        assert closed_form_v_eps(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_exponents_at_eps_one(self):
        from fkexit.pde_oracle import _exponents

        lam1, lam2 = _exponents(1.0)
        assert lam1 == pytest.approx(math.sqrt(3) - 1, abs=1e-14)
        assert lam2 == pytest.approx(-math.sqrt(3) - 1, abs=1e-14)

    def test_v0_values(self):
        assert closed_form_v0(1.0) == 0.0
        assert closed_form_v0(0.0) == pytest.approx(1 - math.exp(-1), abs=1e-15)

    def test_vanishing_noise_limit(self):
        assert abs(closed_form_v_eps(1e-3, 0.5) - closed_form_v0(0.5)) <= 1e-3

    def test_parabolic_branches(self):
        assert parabolic_exit_time([0.5, 0.5]) == pytest.approx(-0.5 + math.sqrt(0.75))
        assert parabolic_exit_time([0.5, 0.1]) == pytest.approx(0.5)
        assert parabolic_exit_time([-0.5, 0.1]) == pytest.approx(0.5 - math.sqrt(0.15))
        assert parabolic_value([0.5, 0.5]) == pytest.approx(1 - math.exp(0.5 - math.sqrt(0.75)))


class TestFdSolver:
    def test_matches_closed_form(self):
        gf = fd_solve_1d(1.0, 10_001)
        err = np.max(np.abs(gf.values - closed_form_v_eps(1.0, gf.axes[0])))
        assert err <= 1e-6

    def test_second_order_convergence(self):
        e = {}
        for m in (401, 801):
            gf = fd_solve_1d(0.1, m)
            e[m] = np.max(np.abs(gf.values - closed_form_v_eps(0.1, gf.axes[0])))
        assert 3.5 <= e[401] / e[801] <= 4.5

    def test_dirichlet_rows_exact(self):
        gf = fd_solve_1d(1.0, 101)
        assert gf.values[0] == 0.0 and gf.values[-1] == 0.0


class TestDerivatives:
    # analytic gradients and Hessians against central differences
    CASES = [
        GaussPolyBump(np.array([0.2, -0.3]), 0.7, 1.3,
                      lin=np.array([0.4, -0.2]), quad=np.array([0.5, -0.1])),
        CompactPolyBump(np.array([0.0, 0.5]), np.array([1.0, 1.5]), 0.8,
                        lin=np.array([-0.3, 0.2]), quad=np.array([0.4, 0.6])),
        GaussPolyBump(np.array([0.1, 0.0]), 1.1, -0.7,
                      lin=np.array([0.2, -0.4]), quad=np.array([0.3, -0.2])),
    ]

    @pytest.mark.parametrize("phi", CASES, ids=["gauss", "compact", "gauss-tilt"])
    def test_gradient_hessian(self, phi):
        gen = RngStream(123).generator()
        eps = 1e-5
        for _ in range(100):
            x = phi.center + gen.uniform(-0.6, 0.6, phi.d)
            g = phi.gradient(x)
            H = phi.hessian(x)
            scale = max(abs(float(phi(x.reshape(1, -1))[0])), 1e-3)
            for i in range(phi.d):
                e = np.zeros(phi.d)
                e[i] = eps
                fd = (float(phi((x + e).reshape(1, -1))[0])
                      - float(phi((x - e).reshape(1, -1))[0])) / (2 * eps)
                assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-6 * scale)
                fd2 = (float(phi.gradient(x + e)[i]) - float(phi.gradient(x - e)[i])) / (2 * eps)
                assert H[i, i] == pytest.approx(fd2, rel=1e-5, abs=1e-6 * scale)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("family", [GaussPolyBump, CompactPolyBump])
    def test_product_rule_matches_per_family_formulas(self, family, d):
        # one product rule over each family's envelope derivatives against the
        # formulas each family wrote out for itself, across tilts, inside and
        # outside the compact support.  An entry can be a cancellation of
        # product-rule terms far larger than itself, so it is held to 1e-13 of
        # the sum of their sizes
        gen = np.random.default_rng(40 + d)
        outside = 0
        for case in range(40):
            center = gen.uniform(-1.0, 1.0, d)
            scale = gen.uniform(0.2, 2.0, d) if family is CompactPolyBump else gen.uniform(0.2, 2.0)
            tilt = {} if case % 4 == 0 else dict(lin=gen.uniform(-4.0, 4.0, d),
                                                quad=gen.choice([-64.0, -2.0, 0.0, 0.5, 24.0], d))
            phi = family(center, scale, gen.uniform(-2.0, 2.0), **tilt)
            assert phi.params() == reference_bumps.params(phi)
            assert list(phi.params()) == list(reference_bumps.params(phi))
            for _ in range(10):
                x = center + gen.uniform(-1.3, 1.3, d) * np.max(scale)
                p, dp, e, de, d2e = (abs(np.asarray(f)) for f in phi._factors(x))
                outside += e == 0.0
                g_size = e * dp + p * de
                h_size = e * np.diag(2 * abs(phi.quad)) + 2 * np.outer(dp, de) + p * d2e
                assert np.all(abs(phi.gradient(x) - reference_bumps.gradient(phi, x))
                              <= 1e-13 * g_size + 1e-15)
                assert np.all(abs(phi.hessian(x) - reference_bumps.hessian(phi, x))
                              <= 1e-13 * h_size + 1e-15)
        assert outside > 0 if family is CompactPolyBump else outside == 0


class TestFracLaplacian:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_against_fft_oracle(self, alpha):
        phi = GaussPolyBump(np.array([0.3]), 0.5, 1.0)
        xs = np.linspace(-1.5, 2.0, 20)
        quad = np.array([frac_laplacian(phi, [x], alpha) for x in xs])
        ref = spectral_frac_laplacian_1d(phi, xs, alpha)
        assert np.max(np.abs(quad - ref)) / np.max(np.abs(ref)) <= 1e-3

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_spectral_oracle_equals_complex_transform(self, alpha):
        # the real transform against the symbol applied to the full complex FFT
        phi = GaussPolyBump(np.array([0.3]), 0.5, 1.0)
        xs = np.linspace(-1.5, 2.0, 20)
        period, n = 400.0, 2**17
        grid = -period / 2.0 + period * np.arange(n) / n
        xi = 2.0 * math.pi * np.fft.fftfreq(n, d=period / n)
        full = np.fft.ifft(np.fft.fft(phi(grid.reshape(-1, 1))) * (-np.abs(xi) ** alpha)).real
        ref = np.interp(xs, grid, full)
        got = spectral_frac_laplacian_1d(phi, xs, alpha)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_scaling_identity(self):
        # widening the bump by s scales the operator by s^(-alpha)
        alpha, s = 1.5, 2.0
        narrow = GaussPolyBump(np.array([0.0]), 0.5, 1.0)
        wide = GaussPolyBump(np.array([0.0]), 0.5 * s, 1.0)
        lhs = frac_laplacian(wide, [0.7], alpha)
        rhs = s ** (-alpha) * frac_laplacian(narrow, [0.7 / s], alpha)
        assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_odd_inner_cancellation(self):
        phi = GaussPolyBump(np.array([0.7]), 0.4, 0.0, lin=np.array([1.0]))
        _, inner, _ = frac_laplacian(phi, [0.7], 1.2, return_parts=True)
        assert abs(inner) <= 1e-10

    def test_linearity(self):
        pa = GaussPolyBump(np.array([0.1]), 0.6, 0.8)
        pb = GaussPolyBump(np.array([-0.2]), 0.9, 0.5, lin=np.array([0.3]))
        combo = GaussPolyBump(np.array([0.1]), 0.6, 0.8)  # evaluate separately

        class Combo:
            center = np.array([0.0])

            def __call__(self, x):
                return 2.0 * pa(x) - 1.5 * pb(x)

            def hessian(self, x):
                return 2.0 * pa.hessian(x) - 1.5 * pb.hessian(x)

            def decay_envelope(self, r):
                rr = max(r - 0.3, 0.0)
                return 2.0 * pa.decay_envelope(rr) + 1.5 * pb.decay_envelope(rr)

        lhs = frac_laplacian(Combo(), [0.4], 1.3)
        rhs = 2.0 * frac_laplacian(pa, [0.4], 1.3) - 1.5 * frac_laplacian(pb, [0.4], 1.3)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        del combo

    def test_zero_function(self):
        phi = GaussPolyBump(np.array([0.0]), 1.0, 0.0)
        assert frac_laplacian(phi, [0.3], 1.5) == pytest.approx(0.0, abs=1e-14)

    def test_cutoff_too_tight(self):
        phi = GaussPolyBump(np.array([0.0]), 30.0, 1.0)  # very slow decay
        with pytest.raises(CutoffTooTight):
            frac_laplacian(phi, [0.0], 0.5, outer_radius=4.0, tol=1e-12)

    def test_two_dimensional_isotropy(self):
        phi = GaussPolyBump(np.array([0.0, 0.0]), 0.7, 1.0)
        a = frac_laplacian(phi, [0.3, 0.4], 1.5)
        b = frac_laplacian(phi, [0.5, 0.0], 1.5)
        assert a == pytest.approx(b, rel=1e-10)

    def test_unsupported_dimension(self):
        phi = GaussPolyBump(np.zeros(3), 0.7, 1.0)
        with pytest.raises(NotImplementedError):
            frac_laplacian(phi, [0.0, 0.0, 0.0], 1.5)

    def test_kernel_constant_alpha_one(self):
        assert kernel_constant(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)

    @pytest.mark.parametrize("alpha", [float("nan"), 0.0, -0.5, 2.0, 2.5])
    def test_alpha_outside_range_is_config_error(self, alpha):
        phi = GaussPolyBump(np.array([0.0]), 0.5, 1.0)
        with pytest.raises(ConfigError, match="must lie in"):
            frac_laplacian(phi, [0.1], alpha)

    @pytest.mark.parametrize("x", [[float("nan")], [float("inf")], [0.1, float("-inf")]])
    def test_non_finite_point_is_config_error(self, x):
        phi = GaussPolyBump(np.zeros(len(x)), 0.5, 1.0)
        with pytest.raises(ConfigError, match="finite"):
            frac_laplacian(phi, x, 1.5)

    @pytest.mark.parametrize("center,x", [([0.3], [0.1]), ([0.0, 0.1], [0.2, 0.3])])
    def test_repeated_calls_equal(self, center, x):
        phi = GaussPolyBump(np.array(center), 0.5, 1.0)
        assert frac_laplacian(phi, x, 1.5) == frac_laplacian(phi, x, 1.5)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.7])
    @pytest.mark.parametrize("phi,xs", [
        (GaussPolyBump(np.array([0.3]), 0.5, 1.0, lin=np.array([-1.5]), quad=np.array([8.0])),
         [[0.3], [-0.4], [1.7]]),
        (CompactPolyBump(np.array([0.3]), 0.7, 0.6, lin=np.array([2.0]), quad=np.array([-24.0])),
         [[0.3], [0.75], [1.2]]),
        (GaussPolyBump(np.array([0.2, -0.3]), 0.7, 1.3, lin=np.array([0.4, -0.2]),
                       quad=np.array([0.5, -0.1])), [[0.2, -0.3], [0.9, 0.4]]),
        (CompactPolyBump(np.array([0.0, 0.5]), np.array([1.0, 1.5]), 0.8,
                         lin=np.array([-0.3, 0.2]), quad=np.array([0.4, 0.6])),
         [[0.1, 0.4], [1.2, -0.5]]),
        (_TimeSlice(GaussPolyBump(np.array([0.4, 0.1]), 0.6, -0.2, lin=np.array([0.3, -1.0]),
                                  quad=np.array([1.0, -8.0])), 0.3), [[0.1], [-0.6]]),
    ], ids=["gauss-d1", "compact-d1", "gauss-d2", "compact-d2", "time-slice"])
    def test_one_call_equals_panel_by_panel_loop(self, phi, xs, alpha):
        # phi is evaluated once on all radii from a cached rule; the per-panel
        # loop that builds everything per call gives the same bits, for the
        # default cutoff and one that cuts a panel (at alpha = 1.7, computing
        # r0^(2-alpha) / (2-alpha) first would change the compact bumps' bits)
        for x in xs:
            for outer_radius in (64.0, 20.0):
                got = frac_laplacian(phi, x, alpha, outer_radius=outer_radius, return_parts=True)
                ref = reference_quadrature.frac_laplacian(phi, x, alpha, outer_radius)
                assert got == ref, (x, outer_radius)

    @pytest.mark.parametrize("kw", [
        dict(outer_radius=float("nan")), dict(outer_radius=-4.0), dict(outer_radius=0.0),
        dict(outer_radius=float("inf")), dict(tol=float("nan")), dict(tol=-1e-9),
        dict(tol=float("inf")),
    ], ids=["cutoff-nan", "cutoff-negative", "cutoff-zero", "cutoff-inf", "tol-nan",
            "tol-negative", "tol-inf"])
    def test_bad_cutoff_or_tol_is_config_error(self, kw):
        # each of these used to return a wrong number, nan, or a ZeroDivisionError
        phi = GaussPolyBump(np.array([0.3]), 0.5)
        misses = _radial_rule.cache_info().misses
        with pytest.raises(ConfigError, match="outer_radius|tol"):
            frac_laplacian(phi, [0.4], 1.5, **kw)
        assert _radial_rule.cache_info().misses == misses  # rejected before the cache

    def test_rule_is_built_once_per_key(self):
        # criterion 6's calls build one rule per alpha; a new cutoff or
        # dimension builds one more, and an equal key given as an int does not
        _radial_rule.cache_clear()
        phi = GaussPolyBump(np.array([0.3]), 0.5, 1.0)
        xs = np.linspace(-1.5, 2.0, 20)
        for k, alpha in enumerate((0.5, 1.0, 1.5), start=1):
            for x in xs:
                frac_laplacian(phi, [x], alpha)
            assert _radial_rule.cache_info().misses == k
        frac_laplacian(GaussPolyBump(np.array([0.0]), 1.0, 1.0), [0.7], 1.5)
        frac_laplacian(GaussPolyBump(np.array([0.0]), 0.5, 1.0), [0.35], 1.5)
        assert _radial_rule.cache_info().misses == 3
        frac_laplacian(phi, [0.4], 1.3)
        assert _radial_rule.cache_info().misses == 4
        frac_laplacian(phi, [0.4], 1.3, outer_radius=20.0)
        frac_laplacian(GaussPolyBump(np.zeros(2), 0.7, 1.0), [0.3, 0.4], 1.3)
        assert _radial_rule.cache_info().misses == 6
        frac_laplacian(phi, [0.4], 1.3, outer_radius=20)
        info = _radial_rule.cache_info()
        # hits: the 19 further points of each alpha, the two scaled bumps, the int cutoff
        assert (info.misses, info.hits, info.currsize) == (6, 3 * (len(xs) - 1) + 2 + 1, 6)

    def test_cached_rules_are_read_only(self):
        rule = _radial_rule(1.5, 64.0, 2)
        assert _radial_rule(1.5, 64.0, 2) is rule
        arrays = (rule.offsets, rule.inner_weights, rule.outer_weights,
                  *_spectral_grid(400.0, 2**17))
        for v in arrays:
            with pytest.raises(ValueError):
                v[0] = 0.0

    def test_integer_alpha_is_the_float(self):
        phi = GaussPolyBump(np.array([0.3]), 0.5, 1.0, lin=np.array([0.4]))
        parts = []
        for alpha in (1, 1.0, np.float64(1.0), np.asarray(1.0)):
            _radial_rule.cache_clear()  # each builds its own rule
            parts.append(frac_laplacian(phi, [0.4], alpha, return_parts=True))
        parts.append(frac_laplacian(phi, [0.4], 1, return_parts=True))  # the last one's rule
        assert all(p == parts[0] for p in parts)
        xs = np.linspace(-1.5, 2.0, 20)
        assert (spectral_frac_laplacian_1d(phi, xs, 1).tobytes()
                == spectral_frac_laplacian_1d(phi, xs, 1.0).tobytes())

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("phi", [
        GaussPolyBump(np.array([0.3]), 0.5, 1.0),
        GaussPolyBump(np.array([1.7]), 0.4, 0.6, lin=np.array([2.0]), quad=np.array([-3.0])),
        GaussPolyBump(np.array([195.0]), 2.0, 1.0, lin=np.array([0.5])),
        CompactPolyBump(np.array([-0.2]), 0.9, 1.0, lin=np.array([0.5]), quad=np.array([1.0])),
        lambda x: np.exp(-np.sum(x * x, axis=-1)) * (1.0 + x[:, 0]),
    ], ids=["gauss-centred", "gauss-tilted-off-centre", "gauss-at-grid-end", "compact",
            "no-center"])
    def test_spectral_oracle_equals_full_grid_reference(self, phi, alpha):
        # phi sampled only where its decay envelope is not 0 gives the bits of
        # phi sampled on the whole grid
        xs = np.linspace(-1.5, 2.0, 20)
        got = spectral_frac_laplacian_1d(phi, xs, alpha)
        ref = reference_quadrature.spectral_frac_laplacian_1d(phi, xs, alpha)
        assert got.tobytes() == ref.tobytes()

    def test_spectral_oracle_samples_only_the_bump(self):
        phi = GaussPolyBump(np.array([0.3]), 0.5, 1.0)
        sampled = []

        class Recorded:
            center = phi.center
            decay_envelope = staticmethod(phi.decay_envelope)

            def __call__(self, x):
                sampled.append(len(x))
                return phi(x)

        spectral_frac_laplacian_1d(Recorded(), np.linspace(-1.5, 2.0, 20), 1.5)
        # phi's envelope underflows to 0 about 19.3 from its center: ~10% of 2^17
        assert sum(sampled) < 0.1 * 2**17

    @pytest.mark.parametrize("kw", [
        dict(alpha=0.0), dict(alpha=2.0), dict(alpha=float("nan")),
        dict(period=float("nan")), dict(period=-400.0), dict(period=0.0),
        dict(period=float("inf")), dict(n=0), dict(n=1), dict(n=1024.0), dict(n=True),
    ], ids=["alpha-0", "alpha-2", "alpha-nan", "period-nan", "period-negative", "period-0",
            "period-inf", "n-0", "n-1", "n-float", "n-bool"])
    def test_spectral_bad_arguments_are_config_errors(self, kw):
        phi = GaussPolyBump(np.array([0.3]), 0.5, 1.0)
        with pytest.raises(ConfigError, match="alpha|period|n="):
            spectral_frac_laplacian_1d(phi, [0.4], **{"alpha": 1.5, **kw})


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [48, 96, 220])
    def test_cached_rule_equals_leggauss(self, n):
        nodes, weights = gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
        assert gauss_legendre(n)[0] is nodes  # built once, then shared

    def test_cached_rule_is_read_only(self):
        nodes, weights = gauss_legendre(48)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights *= 2.0

    def test_mapped_rule_does_not_alias_cache(self):
        from fkexit.pde_oracle import _gauss_on

        nodes, weights = gauss_legendre(48)
        r, w = _gauss_on(-1.0, 1.0, 48)
        assert not np.shares_memory(r, nodes) and not np.shares_memory(w, weights)


class TestGenerator:
    def test_drift_touch_value(self):
        # bump matching value and slope of the zero-noise solution at 0
        phi = GaussPolyBump(np.array([0.0]), 1.0, 1 - math.exp(-1),
                            lin=np.array([-math.exp(-1)]))
        assert G_value(PROB, SPEC0, phi, [0.0]) == pytest.approx(0.0, abs=1e-14)

    def test_flat_top_reduces_to_discount(self):
        phi = GaussPolyBump(np.array([0.5]), 1.0, 0.7)
        assert G_value(PROB, SPEC0, phi, [0.5]) == pytest.approx(0.7 - 1.0, abs=1e-14)

    def test_stable_generator_equals_frac_laplacian(self):
        spec = ProcessSpec(ZeroDrift(1), StableNoise(1.5, 1.0), 1)
        phi = GaussPolyBump(np.array([0.2]), 0.6, 1.0)
        assert generator_apply(spec, phi, [0.4]) == pytest.approx(
            frac_laplacian(phi, [0.4], 1.5), rel=1e-12)

    def test_brownian_generator(self):
        spec = ProcessSpec(ConstantDrift([1.0]), BrownianNoise(2.0), 1)
        phi = GaussPolyBump(np.array([0.0]), 1.0, 1.0)
        x = np.array([0.3])
        expect = float(phi.gradient(x)[0]) + 2.0 * float(phi.hessian(x)[0, 0])
        assert generator_apply(spec, phi, x) == pytest.approx(expect, rel=1e-12)

    def test_sampler_quadrature_consistency(self):
        # small-time Monte Carlo generator vs the singular integral: the
        # normalization constant is shared across modules, not assumed
        phi = GaussPolyBump(np.array([0.1]), 0.7, 1.0)
        x = np.array([0.3])
        alpha, h, n = 1.5, 1e-3, 1_000_000
        jumps = sample_isotropic_stable(alpha, 1, RngStream(77), size=n) * h ** (1 / alpha)
        incr = (np.asarray(phi((x + jumps))) - float(phi(x.reshape(1, -1))[0])) / h
        mc, se = float(np.mean(incr)), float(np.std(incr) / math.sqrt(n))
        quad = frac_laplacian(phi, x, alpha)
        assert abs(mc - quad) <= 3 * se + 5e-3

    def test_time_space_generator(self):
        spec = ProcessSpec(ZeroDrift(1), NoNoise(), 1)
        phi = GaussPolyBump(np.array([0.5, 0.0]), 1.0, 1.0, lin=np.array([0.3, -0.2]))
        val = time_space_generator(spec, phi, 0.5, [0.0])
        assert val == pytest.approx(float(phi.gradient(np.array([0.5, 0.0]))[0]), rel=1e-12)


class TestGridFunction:
    def test_interpolation_and_extension(self):
        xs = np.linspace(0, 1, 101)
        g = GridFunction([xs], xs**2, Interval(0, 1), Constant(5.0))
        assert g(np.array([0.5])) == pytest.approx(0.25, abs=1e-4)
        assert g(np.array([2.0])) == 5.0


class TestViscosityChecker:
    def setup_method(self):
        xs = np.linspace(0, 1, 10001)
        self.u0 = GridFunction([xs], closed_form_v0(xs), Interval(0, 1), Zero())

    def test_strong_mode_fails_at_zero(self):
        rep = check_viscosity_point(self.u0, PROB, SPEC0, [0.0], mode="strong")
        assert not rep.passed
        assert rep.violations[0]["kind"] == "boundary-data"

    def test_generalized_passes_at_zero_with_empty_subtests(self):
        rep = check_viscosity_point(self.u0, PROB, SPEC0, [0.0], mode="generalized")
        assert rep.passed
        assert rep.j_minus_empty          # no smooth function fits below
        assert rep.admissible_plus > 0    # the supertest family is populated

    def test_generalized_passes_on_grid(self):
        for x in np.linspace(0, 1, 11):
            rep = check_viscosity_point(self.u0, PROB, SPEC0, [x], mode="generalized")
            assert rep.passed, (x, rep.violations[:1])

    def test_interior_admissible_nonempty(self):
        rep = check_viscosity_point(self.u0, PROB, SPEC0, [0.5], mode="generalized")
        assert rep.admissible_plus > 0 and rep.admissible_minus > 0

    def test_classical_solution_clean(self):
        xs = np.linspace(0, 1, 40001)
        spec = ProcessSpec(ConstantDrift([1.0]), BrownianNoise(1.0), 1)
        u = GridFunction([xs], closed_form_v_eps(1.0, xs), Interval(0, 1), Zero())
        rep = check_viscosity_point(u, PROB, spec, [0.5], mode="strong", tol=1e-4)
        assert rep.passed and rep.admissible_plus > 0 and rep.admissible_minus > 0

    def test_report_json_shape(self):
        rep = check_viscosity_point(self.u0, PROB, SPEC0, [0.0], mode="generalized")
        doc = rep.to_json()
        for key in ("point", "mode", "violations", "tested_count",
                    "j_plus_empty", "j_minus_empty"):
            assert key in doc

    def test_wrong_candidate_is_flagged(self):
        # a function violating the equation in the interior must be caught:
        # u = 0.2 (constant) has G = lam*0.2 - 1 < 0 for subtests but its
        # supertest family sees G(phi, x) = -phi' + 0.2 - 1 and flat phi
        # gives -0.8 <= 0; instead check the boundary-data side at x = 0
        xs = np.linspace(0, 1, 1001)
        bad = GridFunction([xs], np.full_like(xs, 0.2), Interval(0, 1), Zero())
        rep = check_viscosity_point(bad, PROB, SPEC0, [0.5], mode="generalized",
                                    sides=("super",))
        assert not rep.passed  # flat subtests certify G = 0.2 - 1 < 0

    @pytest.mark.parametrize("x", [0.0, 0.5])
    def test_unknown_mode_is_config_error(self, x):
        with pytest.raises(ConfigError, match="generalized"):
            check_viscosity_point(self.u0, PROB, SPEC0, [x], mode="bogus")

    @pytest.mark.parametrize("x", [-0.1, 2.0, math.nan])
    def test_point_off_closed_domain_is_config_error(self, x):
        with pytest.raises(ConfigError, match="outside the closed domain"):
            check_viscosity_point(self.u0, PROB, SPEC0, [x], mode="generalized")

    @pytest.mark.parametrize("sides", [("sup",), (), "sub", ("sub", "supper")])
    def test_unknown_sides_is_config_error(self, sides):
        with pytest.raises(ConfigError, match="super"):
            check_viscosity_point(self.u0, PROB, SPEC0, [0.5], sides=sides)


# ---------------------------------------------------------------------------
# The checker's sweep against a per-candidate reference.


def candidate_list(x, u_x, scale, slopes, d):
    """Every candidate bump of the sweep as its own object, in sweep order."""
    cands = []
    for R in (0.35 * scale, 0.7 * scale, 1.4 * scale, 2.8 * scale):
        for s in slopes:
            for q in (-64.0, -24.0, -8.0, -2.0, -0.5, 0.0, 0.5, 2.0, 8.0, 24.0, 64.0):
                cands.append(CompactPolyBump(x, R, u_x, s * np.ones(d) if np.isscalar(s) else s,
                                             q * np.ones(d)))
    for w in (0.5 * scale, scale, 2 * scale):
        for s in slopes:
            for q in (-8.0, -2.0, 0.0, 2.0, 8.0, 32.0):
                cands.append(GaussPolyBump(x, w, u_x, s * np.ones(d) if np.isscalar(s) else s,
                                           q * np.ones(d)))
    return cands


def per_candidate_sweep(u, problem, spec, x, g_fn=None, tol=1e-3, sides=("sub", "super")):
    """The checker's sweep as one loop over candidates, each on the lattice by its own call."""
    x = np.atleast_1d(np.asarray(x, float))
    g_fn = g_fn or linear_G(problem, spec)
    mesh, env_up, env_lo, span, _ = _admissibility_lattice(u, problem, x)
    u_x = float(u(x))
    g_x = float(np.asarray(problem.boundary_data(x.reshape(1, -1)))[0])
    interior = bool(problem.domain.contains(x, "open"))
    out = {"tested_count": 0, "admissible_plus": 0, "admissible_minus": 0, "violations": [],
           "j_plus_empty": not interior and g_x > u_x + 1e-12,
           "j_minus_empty": not interior and g_x < u_x - 1e-12}
    slopes = _default_slopes(u, x, x.size, span)
    for phi in candidate_list(x, u_x, span, slopes, x.size):
        out["tested_count"] += 1
        vals = phi(mesh)
        if "sub" in sides and not out["j_plus_empty"] and np.all(vals >= env_up - 1e-8):
            out["admissible_plus"] += 1
            Gv = g_fn(phi, x)
            if not ((Gv <= tol) if interior else (min(Gv, u_x - g_x) <= tol)):
                out["violations"].append({"side": "sub", "kind": "inequality",
                                          "G": float(Gv), "phi": phi.params()})
        if "super" in sides and not out["j_minus_empty"] and np.all(vals <= env_lo + 1e-8):
            out["admissible_minus"] += 1
            Gv = g_fn(phi, x)
            if not ((Gv >= -tol) if interior else (max(Gv, u_x - g_x) >= -tol)):
                out["violations"].append({"side": "super", "kind": "inequality",
                                          "G": float(Gv), "phi": phi.params()})
    out["j_plus_empty"] |= "sub" in sides and out["admissible_plus"] == 0
    out["j_minus_empty"] |= "super" in sides and out["admissible_minus"] == 0
    return out


def _grid(values_fn, m):
    xs = np.linspace(0, 1, m)
    return GridFunction([xs], values_fn(xs), Interval(0, 1), Zero())


HJB_PROB = DirichletProblem(Cylinder(1.0, Ball([0.0], 1.0)), Constant(1.0), Zero(), 1.0)
HJB_SPEC = ProcessSpec(ZeroDrift(1), StableNoise(1.5, 1.0), 1)


def _spiked_cylinder_grid():
    """-(1 - t)(1 - x^2) on the HJB cylinder, raised to 0.3 at the node (t, x) = (0.8, 0.8)."""
    ts, xs = np.linspace(0.0, 1.0, 6), np.linspace(-1.0, 1.0, 11)
    values = -np.outer(1.0 - ts, 1.0 - xs * xs)
    values[4, 9] = 0.3
    return GridFunction([ts, xs], values, HJB_PROB.domain, Zero())


SWEEP_CASES = {
    **{f"v0-{x}": (lambda: _grid(closed_form_v0, 10001), PROB, SPEC0, [x], {})
       for x in (0.0, 0.3, 0.5, 1.0)},
    "v-eps-classical": (lambda: _grid(lambda xs: closed_form_v_eps(1.0, xs), 40001), PROB,
                        ProcessSpec(ConstantDrift([1.0]), BrownianNoise(1.0), 1), [0.5],
                        {"mode": "strong", "tol": 1e-4}),
    "wrong-constant": (lambda: _grid(lambda xs: np.full_like(xs, 0.2), 1001), PROB, SPEC0,
                       [0.5], {"sides": ("super",)}),
    **{f"hjb-super-{t}-{x}": (Zero, HJB_PROB, HJB_SPEC, [t, x],
                              {"mode": "nonstationary", "g_fn": hjb_G(1.5, gamma=1.0),
                               "sides": ("super",), "tol": 0.25})
       for t, x in ((0.3, -0.3), (0.5, 0.5))},
    # the spike lies beyond the touch-point cluster around (0.2, -0.5)
    "hjb-sub-far-spike": (_spiked_cylinder_grid, HJB_PROB, HJB_SPEC, [0.2, -0.5],
                          {"mode": "nonstationary", "g_fn": hjb_G(1.5, gamma=1.0),
                           "sides": ("sub",), "tol": 0.25}),
}


class TestCandidateSweep:
    @pytest.mark.parametrize("phi", [
        GaussPolyBump(np.array([0.3]), 0.4, 0.6, lin=np.array([-1.5]), quad=np.array([8.0])),
        GaussPolyBump(np.array([0.2, -0.3]), 0.7, 1.3,
                      lin=np.array([0.4, -0.2]), quad=np.array([0.5, -0.1])),
        CompactPolyBump(np.array([0.3]), 0.7, 0.6, lin=np.array([2.0]), quad=np.array([-24.0])),
        CompactPolyBump(np.array([0.0, 0.5]), np.array([1.0, 1.5]), 0.8,
                        lin=np.array([-0.3, 0.2]), quad=np.array([0.4, 0.6])),
    ], ids=["gauss-d1", "gauss-d2", "compact-d1", "compact-d2"])
    def test_envelope_times_polynomial_is_the_bump(self, phi):
        pts = phi.center + np.random.default_rng(4).uniform(-2.0, 2.0, (500, phi.d))
        y = pts - phi.center
        if isinstance(phi, GaussPolyBump):
            env = np.exp(-np.sum(y * y, axis=1) / (2 * phi.width**2))
        else:
            s = np.sum((y / phi.radius) ** 2, axis=1)
            env = np.zeros(len(y))
            env[s < 1] = np.exp(1.0 - 1.0 / (1.0 - s[s < 1]))
            assert np.any(s < 1) and np.any(s >= 1)
        np.testing.assert_allclose(phi.envelope(y), env, rtol=1e-14, atol=0)
        poly = phi.amplitude + y @ phi.lin + (y * y) @ phi.quad
        assert np.array_equal(phi(pts), poly * phi.envelope(y))

    @pytest.mark.parametrize("d", [1, 2])
    def test_family_columns_are_the_candidates(self, d):
        x, u_x = np.full(d, 0.3), 0.6
        slopes = ([-1.0, 0.0, 0.37] if d == 1
                  else [-1.0, 0.5, np.array([0.3, -0.7]), np.array([-0.2, 1.1])])
        mesh = np.vstack([x, x + np.random.default_rng(5).uniform(-3.0, 3.0, (600, d))])
        families = _candidate_families(x, u_x, 1.0, slopes, d)
        bumps = [replace(template, lin=lin, quad=quad)
                 for template, lins, quads in families for lin, quad in zip(lins, quads)]
        assert [b.params() for b in bumps] == \
            [c.params() for c in candidate_list(x, u_x, 1.0, slopes, d)]
        cols = np.hstack([_family_values(template, lins, quads, mesh - x)
                          for template, lins, quads in families])
        for k, phi in enumerate(bumps):
            ref = phi(mesh)
            if d == 1:
                assert np.array_equal(cols[:, k], ref), k
            else:
                assert np.max(np.abs(cols[:, k] - ref)) <= 1e-14 * np.max(np.abs(ref)), k

    def test_some_column_passes_the_cluster_and_fails_on_the_lattice(self):
        # the sweep screens on the leading cluster rows first; in this case the
        # rest of the lattice rejects some columns that passed there
        make_u, problem, _, x, _ = SWEEP_CASES["hjb-sub-far-spike"]
        u, x = make_u(), np.asarray(x, float)
        mesh, env_up, _, span, n_near = _admissibility_lattice(u, problem, x)
        assert np.array_equal(mesh[:n_near], _local_cluster(x, span, x.size))
        near_only = 0
        for phi in candidate_list(x, float(u(x)), span, _default_slopes(u, x, x.size, span),
                                  x.size):
            above = phi(mesh) >= env_up - 1e-8
            near_only += bool(above[:n_near].all() and not above.all())
        assert near_only > 0

    @pytest.mark.parametrize("case", list(SWEEP_CASES))
    def test_sweep_matches_per_candidate_reference(self, case):
        make_u, problem, spec, x, kwargs = SWEEP_CASES[case]
        u = make_u()
        rep = check_viscosity_point(u, problem, spec, x, **kwargs)
        ref_kwargs = {k: v for k, v in kwargs.items() if k != "mode"}
        ref = per_candidate_sweep(u, problem, spec, x, **ref_kwargs)
        assert {key: getattr(rep, key) for key in ref} == ref
