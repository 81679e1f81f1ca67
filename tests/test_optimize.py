import math

import numpy as np
import pytest

import ejm.optimize
from ejm.bases import EjmParams, INV_SQRT3, ResourceLimitError
from ejm.network import trilocal_score
from ejm.optimize import MAX_BUDGET, MAX_SWEEP_POINTS, SweepSpec, maximize, sweep

FIXED_TOP = {"z": 1.0, "theta": math.pi / 2, "gamma": math.pi / 4}


def phi_sweep(z, points=200):
    fixed = dict(FIXED_TOP)
    fixed["z"] = z
    return sweep(SweepSpec(varying="phi", lo=0.0, hi=math.pi, points=points, fixed=fixed))


class TestSweep:
    def test_endpoints_match_direct_calls_bit_exactly(self):
        spec = SweepSpec(varying="phi", lo=0.2, hi=1.4, points=2, fixed=FIXED_TOP)
        samples = sweep(spec)
        assert samples[0][0] == 0.2 and samples[-1][0] == 1.4
        for value, score in samples:
            direct = trilocal_score(EjmParams(phi=value, **FIXED_TOP)).S
            assert score == direct

    def test_violation_curve_at_z_one(self):
        assert max(s for _, s in phi_sweep(1.0)) >= 2.29

    def test_no_violation_at_minimal_z(self):
        assert all(s <= 2.0 + 1e-9 for _, s in phi_sweep(INV_SQRT3))

    def test_point_count_and_spacing(self):
        samples = phi_sweep(1.0, points=5)
        values = [v for v, _ in samples]
        assert len(values) == 5
        assert np.max(np.abs(np.diff(values) - math.pi / 4)) < 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="varying"):
            SweepSpec(varying="omega", lo=0, hi=1, points=3, fixed=FIXED_TOP)
        with pytest.raises(ValueError, match="lo < hi"):
            SweepSpec(varying="phi", lo=1.0, hi=1.0, points=3, fixed=FIXED_TOP)
        with pytest.raises(ValueError, match="points"):
            SweepSpec(varying="phi", lo=0.0, hi=1.0, points=1, fixed=FIXED_TOP)
        with pytest.raises(ValueError, match="invalid for z"):
            SweepSpec(varying="z", lo=0.1, hi=1.0, points=3,
                      fixed={"phi": 0.0, "theta": 0.0, "gamma": 0.0})
        with pytest.raises(ValueError, match="fixed"):
            SweepSpec(varying="phi", lo=0.0, hi=1.0, points=3, fixed={"z": 1.0})

    def test_point_cap(self):
        SweepSpec(varying="phi", lo=0.0, hi=1.0, points=MAX_SWEEP_POINTS, fixed=FIXED_TOP)
        for points in (MAX_SWEEP_POINTS + 1, 10**12):
            with pytest.raises(ResourceLimitError, match="cap"):
                SweepSpec(varying="phi", lo=0.0, hi=1.0, points=points, fixed=FIXED_TOP)


class TestMaximize:
    def test_full_domain_finds_reported_optimum(self):
        result = maximize(budget=20000)
        assert result.S >= 2.2960
        assert not result.warning
        params = result.params
        assert abs(params.z - 1.0) < 0.02
        assert abs(params.theta - math.pi / 2) < 0.02
        assert abs(params.gamma - math.pi / 4) < 0.02
        assert min(abs(params.phi - 0.1781), abs(params.phi - 1.3921)) < 0.02

    def test_result_reevaluates_consistently(self):
        result = maximize(budget=2000, grid_points=5, starts=2)
        assert abs(result.S - trilocal_score(result.params).S) < 1e-12

    def test_z_floor_hyperplane_never_violates(self):
        result = maximize(bounds={"z": (INV_SQRT3, INV_SQRT3)}, budget=20000)
        assert result.S <= 2.0

    def test_collapsed_domain_returns_single_point(self):
        point = {"z": 1.0, "phi": 0.1781, "theta": math.pi / 2, "gamma": math.pi / 4}
        result = maximize(bounds={k: (v, v) for k, v in point.items()}, budget=100)
        assert len(result.trace) == 1
        assert abs(result.S - trilocal_score(EjmParams(**point)).S) < 1e-15

    def test_deterministic(self):
        first = maximize(budget=1500, grid_points=5, starts=2)
        second = maximize(budget=1500, grid_points=5, starts=2)
        assert first.S == second.S
        assert len(first.trace) == len(second.trace)
        for (pa, sa), (pb, sb) in zip(first.trace, second.trace):
            assert pa == pb and sa == sb

    def test_best_so_far_is_monotone(self):
        result = maximize(budget=2000, grid_points=5, starts=3)
        best = -math.inf
        records = []
        for _, score in result.trace:
            best = max(best, score)
            records.append(best)
        assert records == sorted(records)
        assert records[-1] == result.S

    def test_trace_stays_inside_bounds(self):
        bounds = {"z": (0.8, 0.9), "phi": (0.0, 1.0), "theta": (0.3, 1.2), "gamma": (0.1, 0.7)}
        result = maximize(bounds, budget=1500, grid_points=4, starts=2)
        for params, _ in result.trace:
            assert 0.8 - 1e-12 <= params.z <= 0.9 + 1e-12
            assert 0.0 - 1e-12 <= params.phi <= 1.0 + 1e-12
            assert 0.3 - 1e-12 <= params.theta <= 1.2 + 1e-12
            assert 0.1 - 1e-12 <= params.gamma <= 0.7 + 1e-12
        p = result.params
        assert 0.8 <= p.z <= 0.9 and 0.0 <= p.phi <= 1.0

    def test_budget_exhausted_during_grid_sets_warning(self):
        result = maximize(budget=100)  # far below the 9**4 grid
        assert result.warning
        assert len(result.trace) == 100

    def test_validation(self):
        with pytest.raises(ValueError, match="budget"):
            maximize(budget=10)
        with pytest.raises(ValueError, match="unknown parameter"):
            maximize(bounds={"omega": (0, 1)})
        with pytest.raises(ValueError, match="invalid for z"):
            maximize(bounds={"z": (0.0, 1.0)})

    def test_budget_cap_rejects_before_evaluating(self, monkeypatch):
        def unreachable(params):
            raise AssertionError("the score was evaluated past the budget cap")

        monkeypatch.setattr(ejm.optimize, "trilocal_score", unreachable)
        for budget in (MAX_BUDGET + 1, 10**12):
            with pytest.raises(ResourceLimitError, match="cap"):
                maximize(budget=budget)
