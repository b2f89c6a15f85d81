import math

import numpy as np
import pytest

from fkexit.errors import DegenerateP, InvalidStart
from fkexit.feynman_kac import (DirichletProblem, attainment_witness, estimate_discounted_exit,
                                estimate_v, estimate_v_nonstationary,
                                estimate_v_nonstationary_grid, evaluate_grid)
from fkexit.functions import Constant, GaussianBump, Zero
from fkexit.geometry import Ball, Cylinder, Interval
from fkexit.levy import (BrownianNoise, ConstantDrift, NoNoise, ProcessSpec, StableNoise,
                         ZeroDrift)
from fkexit.pde_oracle import closed_form_v_eps

PROB = DirichletProblem(Interval(0, 1), Constant(1.0), Zero(), 1.0)
SPEC0 = ProcessSpec(ConstantDrift([1.0]), NoNoise(), 1)
SPEC1 = ProcessSpec(ConstantDrift([1.0]), BrownianNoise(1.0), 1)


class TestEstimateV:
    def test_pure_drift_left_endpoint(self):
        est = estimate_v(PROB, SPEC0, [0.0], 1e-4, 100, 1)
        assert abs(est.mean - (1 - math.exp(-1))) <= 1e-6
        assert est.std_error == 0.0

    def test_regular_endpoint_zero(self):
        est = estimate_v(PROB, SPEC0, [1.0], 1e-4, 10, 1)
        assert est.mean == 0.0

    def test_outside_start_returns_data(self):
        g = GaussianBump([0.0], 1.0, 2.0)
        prob = DirichletProblem(Interval(0, 1), Constant(1.0), g, 1.0)
        est = estimate_v(prob, SPEC0, [3.0], 1e-4, 10, 1)
        assert est.mean == pytest.approx(float(g(np.array([3.0]))))

    def test_brownian_matches_closed_form(self):
        est = estimate_v(PROB, SPEC1, [0.5], 1e-3, 20_000, 2024)
        assert est.within(closed_form_v_eps(1.0, 0.5), extra=5e-3)

    def test_open_rule_insensitivity(self):
        # swapping the closure exit for the open-set hit moves the estimate
        # by less than the Monte Carlo noise when the boundary is regular
        a = estimate_v(PROB, SPEC1, [0.5], 1e-3, 20_000, 5)
        b = estimate_v(PROB, SPEC1, [0.5], 1e-3, 20_000, 6, exit_rule="open")
        assert abs(a.mean - b.mean) <= 3 * math.hypot(a.std_error, b.std_error)

    def test_entrance_rule_splits_at_irregular_point(self):
        v = estimate_v(PROB, SPEC0, [0.0], 1e-4, 10, 1, exit_rule="closure")
        v_hat = estimate_v(PROB, SPEC0, [0.0], 1e-4, 10, 1, exit_rule="open")
        v_bar = estimate_v(PROB, SPEC0, [0.0], 1e-4, 10, 1, exit_rule="entrance")
        assert v.mean == pytest.approx(1 - math.exp(-1), abs=1e-9)
        assert v_hat.mean == pytest.approx(v.mean, abs=1e-9)
        assert v_bar.mean == 0.0

    def test_regular_boundary_agreement_with_data(self):
        # at a regular point the value matches the boundary data
        g = GaussianBump([0.5, 0.0], 0.8, 1.0)
        prob = DirichletProblem(Ball([0, 0], 1.0), Constant(1.0), g, 1.0)
        spec = ProcessSpec(ZeroDrift(2), StableNoise(1.5, 1.0), 2)
        x = np.array([1.0, 0.0])
        est = estimate_v(prob, spec, x, 1e-5, 4000, 11)
        assert est.within(float(g(x)), extra=0.02)

    def test_reproducible(self):
        a = estimate_v(PROB, SPEC1, [0.5], 1e-3, 5000, 31)
        b = estimate_v(PROB, SPEC1, [0.5], 1e-3, 5000, 31)
        assert a == b


class TestDiscountedExit:
    def test_deterministic_unit_exit_time(self):
        est = estimate_discounted_exit(PROB, SPEC0, [0.0], 1e-3, 50, 3)
        assert est.mean == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_outside_is_one(self):
        est = estimate_discounted_exit(PROB, SPEC0, [2.0], 1e-3, 50, 3)
        assert est.mean == 1.0

    def test_step_halving_self_consistency(self):
        a = estimate_discounted_exit(PROB, SPEC1, [0.5], 2e-3, 40_000, 21)
        b = estimate_discounted_exit(PROB, SPEC1, [0.5], 1e-3, 40_000, 22)
        assert abs(a.mean - b.mean) <= 3 * math.hypot(a.std_error, b.std_error) + 2e-3

    def test_truncated_surrogate(self):
        spec = ProcessSpec(ConstantDrift([0.0]), NoNoise(), 1)
        with pytest.warns(RuntimeWarning, match="truncated_fraction=1"):
            est = estimate_discounted_exit(PROB, spec, [0.5], 1e-3, 10, 3, horizon=2.0)
        assert est.truncated_fraction == 1.0
        assert est.mean == pytest.approx(math.exp(-2.0))


class TestNonstationary:
    def setup_method(self):
        self.cyl = Cylinder(1.0, Ball([0.0], 1.0))
        self.prob = DirichletProblem(self.cyl, Constant(1.0), Zero(), 1.0)
        self.spec = ProcessSpec(ZeroDrift(1), StableNoise(1.5, 1.0), 1)

    def test_terminal_time_exact_zero(self):
        est = estimate_v_nonstationary(self.prob, self.spec, 1.0, [0.3], 1e-3, 10, 1)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_degenerate_spec_capped(self):
        frozen = ProcessSpec(ZeroDrift(1), NoNoise(), 1)
        est = estimate_v_nonstationary(self.prob, frozen, 0.25, [0.0], 1e-3, 10, 1)
        assert est.mean == pytest.approx(0.75, abs=1e-9)
        assert est.truncated_fraction == 1.0

    def test_bounds_and_route_agreement(self):
        t, x = 0.0, [0.0]
        d = estimate_v_nonstationary(self.prob, self.spec, t, x, 1e-3, 8000, 41, route="direct")
        l = estimate_v_nonstationary(self.prob, self.spec, t, x, 1e-3, 8000, 42, route="lifted")
        assert 0.0 < d.mean <= 1.0 + 3 * d.std_error
        assert abs(d.mean - l.mean) <= 3 * math.hypot(d.std_error, l.std_error)

    def test_requires_cylinder(self):
        with pytest.raises(InvalidStart):
            estimate_v_nonstationary(PROB, self.spec, 0.0, [0.5], 1e-3, 10, 1)


class TestAttainmentWitness:
    def test_irregular_endpoint_witness(self):
        rep = attainment_witness(PROB, SPEC0, [0.0], 1e-3, 200, 9)
        assert rep.p.mean == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert rep.g_value == pytest.approx(2.0 / (1.0 - math.exp(-1.0)), rel=1e-9)
        assert rep.v.mean < rep.g_value
        assert rep.is_witness

    def test_regular_endpoint_degenerate(self):
        with pytest.raises(DegenerateP) as exc:
            attainment_witness(PROB, SPEC0, [1.0], 1e-3, 200, 9)
        assert exc.value.p_mean == pytest.approx(1.0)

    def test_zero_cost_still_separates(self):
        prob = DirichletProblem(Interval(0, 1), Zero(), Zero(), 1.0)
        rep = attainment_witness(prob, SPEC0, [0.0], 1e-3, 200, 9)
        assert rep.is_witness


def test_evaluate_grid_rows():
    rows = evaluate_grid(PROB, SPEC0, [[0.0], [0.5], [1.0]], 1e-4, 10, 1)
    assert len(rows) == 3
    xs = [r[0][0] for r in rows]
    assert xs == [0.0, 0.5, 1.0]
    assert rows[0][1].mean == pytest.approx(1 - math.exp(-1), abs=1e-9)


def test_value_continuous_away_from_curve():
    # two nearby starts on the same side of the jump locus give nearby values
    from fkexit.geometry import parabolic_rect
    from fkexit.levy import ParabolicDrift

    prob = DirichletProblem(parabolic_rect(), Constant(1.0), Zero(), 1.0)
    spec = ProcessSpec(ParabolicDrift(), NoNoise(), 2)
    a = estimate_v(prob, spec, [0.5, 0.5], 1e-3, 4, 1)
    b = estimate_v(prob, spec, [0.5, 0.52], 1e-3, 4, 1)
    assert abs(a.mean - b.mean) < 0.02


class TestNonstationaryGrid:
    """One path set per route: every (t, x) start shares each path's noise."""

    T = 1.0
    XS = np.linspace(-0.9, 0.9, 10)  # the criterion-8 grid
    TS = [0.0, 0.2, 0.4, 0.6, 0.8]

    def setup_method(self):
        self.prob = DirichletProblem(Cylinder(self.T, Ball([0.0], 1.0)), Constant(1.0), Zero(),
                                     1.0)
        self.spec = ProcessSpec(ZeroDrift(1), StableNoise(1.5, 1.0), 1)

    def test_direct_column_never_increases_in_t(self):
        # every t reads min(tau, T - t) of the same paths, so exactly
        xs = self.XS[[0, 3, 5, 9]]
        points = [(t, [x]) for t in self.TS for x in xs]
        ests = estimate_v_nonstationary_grid(self.prob, self.spec, points, 1e-3, 400, 17)
        v = np.array([e.mean for e in ests]).reshape(len(self.TS), len(xs))
        assert (np.diff(v, axis=0) <= 0.0).all()
        assert (np.diff(v, axis=0) < 0.0).any()

    @pytest.mark.parametrize("route", ["direct", "lifted"])
    def test_grid_matches_estimates_per_point(self, route):
        cells = [(0, 1), (2, 5), (4, 9)]
        points = [(self.TS[i], [self.XS[j]]) for i, j in cells] + [(self.T, [0.0]), (0.5, [1.5])]
        grid = estimate_v_nonstationary_grid(self.prob, self.spec, points, 1e-3, 3000, 23,
                                             route=route)
        for (t, x), g in zip(points[:3], grid):
            p = estimate_v_nonstationary(self.prob, self.spec, t, x, 1e-3, 3000, 24, route=route)
            assert abs(g.mean - p.mean) <= 4 * math.hypot(g.std_error, p.std_error), (t, x)
        for g in grid[3:]:  # at t = T and outside: exact zeros
            assert (g.mean, g.std_error) == (0.0, 0.0)

    @pytest.mark.parametrize("route", ["direct", "lifted"])
    def test_no_points_is_an_invalid_start(self, route):
        # as run_batch with no starts
        with pytest.raises(InvalidStart, match="no start"):
            estimate_v_nonstationary_grid(self.prob, self.spec, [], 1e-3, 10, 1, route=route)
