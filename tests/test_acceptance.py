"""End-to-end acceptance suite.

Each criterion runs at its pinned tolerance and prints one PASS/FAIL line.
All Monte Carlo runs are seeded, so every outcome here is deterministic.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fkexit.cli import main as cli_main
from fkexit.errors import DegenerateP
from fkexit.exit import exit_coincidence
from fkexit.feynman_kac import (DirichletProblem, attainment_witness, estimate_v,
                                estimate_v_nonstationary)
from fkexit.functions import Constant, Zero
from fkexit.geometry import Ball, Cylinder, Interval, parabolic_rect
from fkexit.levy import (BrownianNoise, ConstantDrift, NoNoise, ParabolicDrift,
                         ProcessSpec, StableNoise, ZeroDrift)
from fkexit.paths import (ConstantVelocityFlow, ParabolicFlow, exit_time, exit_time_left,
                          flow_path, linear_path, shift)
from fkexit.pde_oracle import (GaussPolyBump, GridFunction, check_viscosity_point,
                               closed_form_v0, closed_form_v_eps, fd_solve_1d,
                               frac_laplacian, hjb_G, parabolic_value,
                               spectral_frac_laplacian_1d)
from fkexit.regularity import classify_point, probe_regularity
from fkexit.rng import RngStream, derive_seed

PROB01 = DirichletProblem(Interval(0, 1), Constant(1.0), Zero(), 1.0)
SPEC_DRIFT = ProcessSpec(ConstantDrift([1.0]), NoNoise(), 1)
SPEC_BROWN = ProcessSpec(ConstantDrift([1.0]), BrownianNoise(1.0), 1)
SPEC_PARAB = ProcessSpec(ParabolicDrift(), NoNoise(), 2)


@contextmanager
def criterion(k, desc, budget_s=None):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {k}: {desc}")
        raise
    dt = time.monotonic() - t0
    print(f"PASS criterion {k}: {desc} [{dt:.1f}s]")
    if budget_s is not None:
        assert dt < budget_s, f"criterion {k} exceeded its {budget_s}s budget ({dt:.1f}s)"


def test_criterion_1_closed_form_triangle():
    with criterion(1, "drift-diffusion triangle: closed form vs FD vs MC", budget_s=120):
        xs = [round(0.1 * i, 10) for i in range(1, 10)]
        fd = fd_solve_1d(1.0, 10_001)
        for x in xs:
            assert abs(float(fd(np.array([x]))) - closed_form_v_eps(1.0, x)) <= 1e-6
        for i, x in enumerate(xs):
            est = estimate_v(PROB01, SPEC_BROWN, [x], 1e-4, 100_000,
                             derive_seed(4242, "tri", i))
            assert est.within(closed_form_v_eps(1.0, x), extra=5e-3), x


def test_criterion_2_boundary_loss():
    with criterion(2, "zero-noise boundary loss and generalized viscosity property",
                   budget_s=60):
        est = estimate_v(PROB01, SPEC_DRIFT, [0.0], 1e-4, 100, 1)
        assert abs(est.mean - (1.0 - math.exp(-1.0))) <= 1e-6
        xs = np.linspace(0, 1, 10001)
        u0 = GridFunction([xs], closed_form_v0(xs), Interval(0, 1), Zero())
        strong = check_viscosity_point(u0, PROB01, SPEC_DRIFT, [0.0], mode="strong")
        assert not strong.passed
        assert strong.violations[0]["kind"] == "boundary-data"
        for x in np.linspace(0, 1, 11):
            rep = check_viscosity_point(u0, PROB01, SPEC_DRIFT, [x], mode="generalized")
            assert rep.passed, (x, rep.violations[:1])


def test_criterion_3_parabolic_flow_grid():
    with criterion(3, "parabolic flow: oracle grid, jump across the curve, coincidence",
                   budget_s=120):
        prob = DirichletProblem(parabolic_rect(), Constant(1.0), Zero(), 1.0)
        for i, x1 in enumerate(np.linspace(-1, 1, 41)):
            for j, x2 in enumerate(np.linspace(0, 1, 21)):
                if x1 < 0 and abs(x2 - x1 * x1) < 1e-9:
                    continue  # the value jumps exactly on the curve
                est = estimate_v(prob, SPEC_PARAB, [x1, x2], 1e-3, 4,
                                 derive_seed(3, "grid", i, j))
                assert abs(est.mean - parabolic_value([x1, x2])) <= 1e-3, (x1, x2)
        hi = estimate_v(prob, SPEC_PARAB, [-0.5, 0.26], 1e-3, 4, 3)
        lo = estimate_v(prob, SPEC_PARAB, [-0.5, 0.24], 1e-3, 4, 3)
        assert hi.mean - lo.mean > 0.1
        on_curve = exit_coincidence(SPEC_PARAB, parabolic_rect(), [-0.5, 0.25],
                                    1e-3, 20.0, 64, 5)
        off_curve = exit_coincidence(SPEC_PARAB, parabolic_rect(), [0.5, 0.5],
                                     1e-3, 20.0, 64, 5)
        assert on_curve.mean == 0.0
        assert off_curve.mean == 1.0


def test_criterion_4_exit_operator_unit_vectors():
    with criterion(4, "exit operators: left-limit pairs, discontinuity sequence, "
                      "shift identity, ordering", budget_s=120):
        B = Interval(0, 3)
        O = Interval(0, 1)
        w1 = linear_path([0, 1, 6], [[2], [0], [5]], jumps={1: [1.0]})
        assert exit_time(w1, B, "open-hit") == 1.0
        assert exit_time_left(w1, B) == 4.0
        w2 = linear_path([0, 1, 6], [[1], [1], [1]], jumps={1: [0.0]})
        assert exit_time(w2, B, "open-hit") == math.inf
        assert exit_time_left(w2, B) == 1.0

        for n in (1, 2, 4, 8, 16, 32, 64):
            wn = linear_path([0, 1 / n, 3], [[1 / n], [1 / n], [2 + 1 / n]],
                             jumps={1: [-1 / n]})
            assert exit_time(wn, O, "closure-hit") == pytest.approx(0.5 / n, abs=1e-14)
        assert exit_time(flow_path(ConstantVelocityFlow([0.0], [1.0])), O,
                         "closure-hit") == 1.0

        gen = RngStream(606).generator()
        rect = parabolic_rect()
        for k in range(100):
            if k % 2 == 0:
                x0 = gen.uniform(0.05, 0.95)
                flow = ConstantVelocityFlow([x0], [gen.uniform(0.5, 2.0)])
                dom = O
            else:
                x0 = [gen.uniform(-0.9, 0.9), gen.uniform(0.05, 0.95)]
                flow = ParabolicFlow(x0)
                dom = rect
            path = flow_path(flow)
            z_hat = exit_time(path, dom, "open-hit")
            z = exit_time(path, dom, "closure-hit")
            h = gen.uniform(0.0, 0.999) * z_hat
            assert exit_time(shift(path, h), dom, "closure-hit") == \
                pytest.approx(z - h, abs=1e-9)

        from fkexit.engine import run_batch

        spec_ball = ProcessSpec(ZeroDrift(2), StableNoise(1.5, 1.0), 2)
        r1 = run_batch(spec_ball, Ball([0, 0], 1.0), [0.0, 0.0], 1e-3, 20.0, 60_000, 11)
        r2 = run_batch(SPEC_BROWN, O, [0.5], 1e-3, 20.0, 40_000, 12)
        assert int(np.sum(r1.zeta_hat > r1.zeta)) == 0
        assert int(np.sum(r2.zeta_hat > r2.zeta)) == 0


def test_criterion_5_regularity_classification():
    with criterion(5, "regularity partition: drift interval, Brownian, stable ball, "
                      "parabolic rectangle", budget_s=300):
        left = probe_regularity(SPEC_DRIFT, Interval(0, 1), [0.0], rng=1)
        right = probe_regularity(SPEC_DRIFT, Interval(0, 1), [1.0], rng=1)
        assert left.classification == "irregular"
        assert right.classification == "regular"
        for x in (0.0, 1.0):
            rep = probe_regularity(SPEC_BROWN, Interval(0, 1), [x], n=2000, rng=2)
            assert rep.classification == "regular"

        # 32 stable boundary points: rule A1 plus a consistent probe.  The
        # probe step is pinned at h = 1e-8 so the knot-sampling bias (the
        # chance a discrete walk from the boundary shows no outside knot,
        # which decays like 1/sqrt(window/h)) stays below the binomial noise.
        spec_ball = ProcessSpec(ZeroDrift(2), StableNoise(1.5, 1.0), 2)
        ball = Ball([0, 0], 1.0)
        pts = ball.sample_boundary(32, RngStream(2025).generator())
        from fkexit.regularity import classify_by_cone_rules

        for i, x in enumerate(pts):
            assert classify_by_cone_rules(spec_ball, ball, x) == "A1"
            rep = probe_regularity(spec_ball, ball, x, n=500, h=1e-8,
                                   rng=derive_seed(2025, "probe", i))
            assert rep.classification == "regular", (i, rep.probe_probs[-1])

        # 200 boundary points of the parabolic rectangle against the known
        # three-piece regular set, at most 2 inconclusive
        rect = parabolic_rect()
        pts = rect.sample_boundary(200, RngStream(7).generator())
        inconclusive = 0
        for i, x in enumerate(pts):
            rep = classify_point(SPEC_PARAB, rect, x, n=200,
                                 rng=derive_seed(7, "pf", i))
            if rep.classification == "inconclusive":
                inconclusive += 1
                continue
            expect = (x[0] == 1.0) or (x[1] == 1.0 and x[0] >= 0) \
                or (x[1] == 0.0 and x[0] < 0)
            assert (rep.classification == "regular") == expect, (x, rep.classification)
        assert inconclusive <= 2


def test_criterion_6_fractional_quadrature_vs_fft():
    with criterion(6, "fractional Laplacian quadrature vs FFT multiplier oracle",
                   budget_s=120):
        phi = GaussPolyBump(np.array([0.3]), 0.5, 1.0)
        xs = np.linspace(-1.5, 2.0, 20)
        for alpha in (0.5, 1.0, 1.5):
            quad = np.array([frac_laplacian(phi, [x], alpha) for x in xs])
            ref = spectral_frac_laplacian_1d(phi, xs, alpha)
            rel = np.max(np.abs(quad - ref)) / np.max(np.abs(ref))
            assert rel <= 1e-3, (alpha, rel)
        narrow = GaussPolyBump(np.array([0.0]), 0.5, 1.0)
        wide = GaussPolyBump(np.array([0.0]), 1.0, 1.0)
        lhs = frac_laplacian(wide, [0.7], 1.5)
        rhs = 2.0 ** (-1.5) * frac_laplacian(narrow, [0.35], 1.5)
        assert lhs == pytest.approx(rhs, rel=1e-3)
        pa = GaussPolyBump(np.array([0.1]), 0.6, 0.8)
        pb = GaussPolyBump(np.array([-0.2]), 0.9, 0.5, lin=np.array([0.3]))

        class Combo:
            center = np.array([0.0])

            def __call__(self, z):
                return 2.0 * pa(z) - 1.5 * pb(z)

            def hessian(self, z):
                return 2.0 * pa.hessian(z) - 1.5 * pb.hessian(z)

            def decay_envelope(self, r):
                rr = max(r - 0.3, 0.0)
                return 2.0 * pa.decay_envelope(rr) + 1.5 * pb.decay_envelope(rr)

        lhs = frac_laplacian(Combo(), [0.4], 1.3)
        rhs = 2.0 * frac_laplacian(pa, [0.4], 1.3) - 1.5 * frac_laplacian(pb, [0.4], 1.3)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_criterion_7_attainment_witness():
    with criterion(7, "boundary-attainment witness at the irregular endpoint",
                   budget_s=60):
        rep = attainment_witness(PROB01, SPEC_DRIFT, [0.0], 1e-3, 400, 9)
        assert abs(rep.p.mean - math.exp(-1.0)) <= 3 * rep.p.std_error + 1e-12
        assert rep.g_value == pytest.approx(2.0 / (1.0 - math.exp(-1.0)), rel=1e-9)
        assert rep.is_witness
        with pytest.raises(DegenerateP) as exc:
            attainment_witness(PROB01, SPEC_DRIFT, [1.0], 1e-3, 400, 9)
        assert exc.value.p_mean == pytest.approx(1.0, abs=1e-12)


def test_criterion_8_nonstationary_semisolutions():
    with criterion(8, "non-stationary fractional problem: bounds, route agreement, "
                      "semisolution checks", budget_s=600):
        T, alpha = 1.0, 1.5
        cyl = Cylinder(T, Ball([0.0], 1.0))
        prob = DirichletProblem(cyl, Constant(1.0), Zero(), 1.0)
        spec = ProcessSpec(ZeroDrift(1), StableNoise(alpha, 1.0), 1)
        ts = [0.0, 0.2, 0.4, 0.6, 0.8]
        xs = np.linspace(-0.9, 0.9, 10)

        for x in (-0.5, 0.0, 0.7):
            est = estimate_v_nonstationary(prob, spec, T, [x], 1e-3, 8, 1)
            assert est.mean == 0.0 and est.std_error == 0.0

        direct = {}
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                d = estimate_v_nonstationary(prob, spec, t, [x], 1e-3, 6000,
                                             derive_seed(808, "d", i, j), route="direct")
                direct[(i, j)] = d
                assert 0.0 <= d.mean <= (T - t) + 3 * d.std_error, (t, x)

        for (i, j) in [(0, 1), (0, 4), (0, 8), (1, 2), (1, 6),
                       (2, 0), (2, 5), (3, 3), (3, 9), (4, 7)]:
            l = estimate_v_nonstationary(prob, spec, ts[i], [xs[j]], 1e-3, 6000,
                                         derive_seed(808, "l", i, j), route="lifted")
            d = direct[(i, j)]
            assert abs(d.mean - l.mean) <= 3 * math.hypot(d.std_error, l.std_error), \
                (ts[i], xs[j])

        # semisolution checks for the equation with the gradient-power term.
        # Its constant +1 corresponds to running cost -1, so the subsolution
        # candidate is the negated value function; zero is the supersolution.
        V = np.zeros((len(ts) + 1, len(xs) + 2))
        for i in range(len(ts)):
            for j in range(len(xs)):
                V[i, j + 1] = direct[(i, j)].mean
        u_sub = GridFunction([np.array(ts + [T]), np.concatenate([[-1.0], xs, [1.0]])],
                             -V, cyl, Zero())
        G = hjb_G(alpha, gamma=1.0)
        # tolerance 0.25 absorbs the chord-slope error of the coarse noisy
        # grid (spacing 0.2, per-node noise ~2e-3) in the touching functions
        pts = [(0.3, float(0.5 * (xs[k] + xs[k + 1]))) for k in range(2, 7)] \
            + [(0.5, float(0.5 * (xs[k] + xs[k + 1]))) for k in range(2, 7)]
        for (t, x) in pts:
            sub = check_viscosity_point(u_sub, prob, spec, [t, x], mode="nonstationary",
                                        g_fn=G, sides=("sub",), tol=0.25)
            assert sub.passed and sub.admissible_plus > 0, ((t, x), sub.violations[:1])
            sup = check_viscosity_point(Zero(), prob, spec, [t, x], mode="nonstationary",
                                        g_fn=G, sides=("super",), tol=0.25)
            assert sup.passed and sup.admissible_minus > 0, (t, x)


def test_criterion_9_reproducibility(tmp_path):
    with criterion(9, "byte-identical artifacts across reruns and worker counts",
                   budget_s=120):
        cfg = {"experiment": "drift-interval",
               "params": {"eps": 1.0, "grid": [0.25, 0.75]},
               "mc": {"n": 20000, "h": 1e-3, "seed": 99},
               "output": {"path": "repro.csv"}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for tag, workers in (("a", 1), ("b", 4), ("c", 1)):
            out = tmp_path / tag
            assert cli_main(["--config", str(cfg_path), "--out", str(out),
                             "--workers", str(workers)]) == 0
            outs.append((out / "repro.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]
