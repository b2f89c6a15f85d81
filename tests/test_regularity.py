import math

import pytest

from fkexit import regularity
from fkexit.errors import ConfigError, InvalidStep, NoConeData, StepTooCoarse
from fkexit.geometry import Ball, Interval, parabolic_rect
from fkexit.levy import (BrownianNoise, ConstantDrift, NoNoise, ParabolicDrift,
                         ProcessSpec, StableNoise, ZeroDrift)
from fkexit.regularity import (classify_boundary, classify_by_cone_rules, classify_point,
                               probe_regularity, reports_to_csv)

SPEC_DRIFT = ProcessSpec(ConstantDrift([1.0]), NoNoise(), 1)
SPEC_BROWN = ProcessSpec(ConstantDrift([1.0]), BrownianNoise(1.0), 1)
SPEC_STABLE = ProcessSpec(ZeroDrift(2), StableNoise(1.5, 1.0), 2)
SPEC_PARAB = ProcessSpec(ParabolicDrift(), NoNoise(), 2)


class TestProbe:
    def test_uniform_motion_endpoints(self):
        left = probe_regularity(SPEC_DRIFT, Interval(0, 1), [0.0], rng=1)
        right = probe_regularity(SPEC_DRIFT, Interval(0, 1), [1.0], rng=1)
        assert left.classification == "irregular"
        assert all(p == 0.0 for _, p, _ in left.probe_probs)
        assert right.classification == "regular"
        assert all(p == 1.0 for _, p, _ in right.probe_probs)

    def test_brownian_both_regular(self):
        for x in (0.0, 1.0):
            rep = probe_regularity(SPEC_BROWN, Interval(0, 1), [x], n=1000, rng=2)
            assert rep.classification == "regular"

    def test_interior_and_exterior_sanity(self):
        # right-continuity: interior starts are irregular, exterior regular
        inside = probe_regularity(SPEC_BROWN, Interval(0, 1), [0.5], n=500, rng=3)
        assert inside.classification == "irregular"
        outside = probe_regularity(SPEC_BROWN, Interval(0, 1), [1.5], n=500, rng=3)
        assert outside.classification == "regular"

    def test_windows_monotone_on_shared_paths(self):
        rep = probe_regularity(SPEC_STABLE, Ball([0, 0], 1.0), [1.0, 0.0],
                               windows=(0.05, 0.01, 0.002), n=400, h=1e-4, rng=4)
        probs = [p for _, p, _ in rep.probe_probs]
        assert probs == sorted(probs, reverse=True)

    def test_step_too_coarse(self):
        with pytest.raises(StepTooCoarse):
            probe_regularity(SPEC_DRIFT, Interval(0, 1), [0.0], windows=(0.01,), h=0.005)

    @pytest.mark.parametrize("n", [2.5, math.nan, True])
    def test_sample_size_not_an_integer_raises(self, n):
        with pytest.raises(ConfigError, match="must be a positive integer, e.g. 1000"):
            probe_regularity(SPEC_BROWN, Interval(0, 1), [0.0], n=n)

    @pytest.mark.parametrize("windows", [["a"], "ab", 0.1, [0.1, None], [0.1, math.nan],
                                         [0.1, True]])
    def test_windows_not_numbers_raise(self, windows):
        with pytest.raises(ConfigError, match="must hold one or more probe windows, each a "
                                              r"finite number > 0, e.g. \[0.1, 0.01\]"):
            probe_regularity(SPEC_BROWN, Interval(0, 1), [0.0], windows=windows)


    @pytest.mark.parametrize("h", ["a", True, math.nan, 0.0, [1e-4]])
    def test_step_not_a_positive_number_raises(self, h):
        # checked before it is compared with the window: a wide window lets
        # any number through that comparison
        with pytest.raises(InvalidStep, match="must be a finite positive number, e.g. 1e-3"):
            probe_regularity(SPEC_BROWN, Interval(0, 1), [0.0], windows=[100.0], h=h)


class TestConeRules:
    def test_a1_stable_high_index(self):
        assert classify_by_cone_rules(SPEC_STABLE, Ball([0, 0], 1.0), [1.0, 0.0]) == "A1"

    def test_a2_zero_drift_low_index(self):
        spec = ProcessSpec(ZeroDrift(2), StableNoise(0.5, 1.0), 2)
        assert classify_by_cone_rules(spec, Ball([0, 0], 1.0), [1.0, 0.0]) == "A2"

    def test_a3_outward_drift(self):
        assert classify_by_cone_rules(SPEC_PARAB, parabolic_rect(), [1.0, 0.5]) == "A3"

    def test_none_applicable(self):
        assert classify_by_cone_rules(SPEC_PARAB, parabolic_rect(), [-1.0, 0.5]) \
            == "none-applicable"

    def test_no_cone_data_propagates(self):
        from fkexit.geometry import Cylinder

        with pytest.raises(NoConeData):
            classify_by_cone_rules(SPEC_STABLE, Cylinder(1.0, Interval(0, 1)), [0.0, 0.0])

    def test_rule_probe_consistency(self):
        # wherever a cone rule applies the probe must not contradict it
        rep = probe_regularity(SPEC_STABLE, Ball([0, 0], 1.0), [1.0, 0.0],
                               n=500, h=1e-7, rng=6)
        assert rep.classification == "regular"


def parabolic_oracle(x):
    """Regular boundary pieces of the parabolic-flow rectangle."""
    x1, x2 = x
    return (x1 == 1.0) or (x2 == 1.0 and x1 >= 0) or (x2 == 0.0 and x1 < 0)


class TestClassifyBoundary:
    def test_uniform_motion_partition(self):
        spec = SPEC_DRIFT
        reports, part = classify_boundary(spec, Interval(0, 1), 2, n=100, rng=5)
        by_point = {r.point[0]: r.classification for r in reports}
        assert by_point[0.0] == "irregular" and by_point[1.0] == "regular"

    def test_parabolic_partition_matches_oracle(self):
        reports, part = classify_boundary(SPEC_PARAB, parabolic_rect(), 60, n=200, rng=8)
        assert not part["inconclusive"]
        for rep in reports:
            assert (rep.classification == "regular") == parabolic_oracle(rep.point)

    def test_rules_short_circuit_probes(self):
        rep = classify_point(SPEC_STABLE, Ball([0, 0], 1.0), [0.0, 1.0], rng=9)
        assert rep.analytic_rule == "A1" and rep.classification == "regular"
        assert rep.probe_probs == []


SPEC_ALPHA_HALF_DRIFT = ProcessSpec(ConstantDrift([0.5, 0.0]), StableNoise(0.5, 1.0), 2)


def counted_run_batch(monkeypatch):
    """Wrap regularity.run_batch; returns the list of its calls' start arrays."""
    calls = []
    run_batch = regularity.run_batch

    def counted(spec, domain, x0, *args, **kwargs):
        calls.append(x0)
        return run_batch(spec, domain, x0, *args, **kwargs)

    monkeypatch.setattr(regularity, "run_batch", counted)
    return calls


class TestBatchedScan:
    def test_open_points_share_one_batch(self, monkeypatch):
        calls = counted_run_batch(monkeypatch)
        reports, part = classify_boundary(SPEC_ALPHA_HALF_DRIFT, Ball([0, 0], 1.0), 16,
                                          windows=(0.01, 0.001), n=200, h=1e-5, rng=3)
        probed = [r for r in reports if r.analytic_rule == "none-applicable"]
        assert len(calls) == 1 and len(calls[0]) == len(probed) > 1
        assert all(len(r.probe_probs) == 2 for r in probed)
        assert sum(len(v) for v in part.values()) == 16

    def test_scan_the_cone_rules_settle_runs_nothing(self, monkeypatch):
        calls = counted_run_batch(monkeypatch)
        reports, part = classify_boundary(SPEC_STABLE, Ball([0, 0], 1.0), 16, rng=3)
        assert calls == [] and len(part["regular"]) == 16
        assert {r.analytic_rule for r in reports} == {"A1"}

    def test_probe_checks_come_only_with_a_point_to_probe(self, monkeypatch):
        # an h too coarse for the window is not looked at when the cone rules
        # settle every point, and is rejected before any run when one is left
        calls = counted_run_batch(monkeypatch)
        classify_boundary(SPEC_STABLE, Ball([0, 0], 1.0), 4, windows=(1e-3,), h=1e-3)
        with pytest.raises(StepTooCoarse):
            classify_boundary(SPEC_ALPHA_HALF_DRIFT, Ball([0, 0], 1.0), 4, windows=(1e-3,),
                              h=1e-3)
        assert calls == []


def test_reports_csv(tmp_path):
    reports, _ = classify_boundary(SPEC_DRIFT, Interval(0, 1), 2, n=50, rng=5)
    import io

    buf = io.StringIO()
    reports_to_csv(reports, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "x0,window,p_hat,se,rule,classification"
    assert len(lines) > 2
