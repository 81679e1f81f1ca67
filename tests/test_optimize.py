import math
from itertools import combinations

import numpy as np
import pytest
from conftest import domain_params
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ejm.optimize
from ejm.bases import DOMAIN, LIMITS, PARAM_NAMES, EjmParams, INV_SQRT3
from ejm.network import closed_form, trilocal_score
from ejm.optimize import SweepSpec, maximize, sweep

FIXED_TOP = {"z": 1.0, "theta": math.pi / 2, "gamma": math.pi / 4}
# The z = 1 slice over the phi range of the paper's violation curves.
Z_ONE_BOX = {"z": (1.0, 1.0), "phi": (0.0, math.pi)}


def phi_sweep(z, points=200):
    fixed = dict(FIXED_TOP)
    fixed["z"] = z
    return sweep(SweepSpec(varying="phi", lo=0.0, hi=math.pi, points=points, fixed=fixed))


def range_ends(name):
    """Ends of a range of one parameter (of |z| for z): anywhere in its
    domain, or on a bound moved by up to 9e-15, which may put it inside
    the 1e-14 slack past the bound."""
    lo, hi = DOMAIN[name]
    return st.one_of(
        st.floats(lo, hi),
        st.builds(lambda bound, offset: bound + offset, st.sampled_from((lo, hi)), st.floats(-9e-15, 9e-15)),
    )


def lemma_values(box):
    """theta and gamma where, by the lemma in closed_form, S peaks on box."""
    return box["theta"][1], min(max(math.pi / 4, box["gamma"][0]), box["gamma"][1])


def lemma_grid_max(box, points=201):
    """Largest closed-form score on a points x points (z, phi) grid of box,
    with theta and gamma at their lemma values."""
    z = np.linspace(*box["z"], points)[:, None]
    phi = np.linspace(*box["phi"], points)
    phase = np.array([EjmParams(float(v), 0.0, 0.0, 0.0).phi_z for v in z.ravel()])[:, None]
    correlations = closed_form(z, phi, phase, *lemma_values(box), np.sin, np.cos)
    return float(sum(np.abs(np.broadcast_to(i, (points, points))) ** (1.0 / 3.0) for i in correlations).max())


def random_box(rng, pinned):
    """A box with the names in pinned fixed at a random value and each other
    parameter on its whole domain or a random sub-range, z of either sign."""
    box = {}
    for name in PARAM_NAMES:
        lo, hi = DOMAIN[name]
        if name in pinned:
            lo = hi = rng.uniform(lo, hi)
        elif rng.random() < 0.5:
            lo, hi = sorted(rng.uniform(lo, hi, size=2))
        if name == "z" and rng.random() < 0.5:
            lo, hi = -hi, -lo
        box[name] = (float(lo), float(hi))
    return box


# Ranges with an end that passes check_domain only by its 1e-14 slack, of |z| for z.
SLACK_RANGES = {
    "z": ((INV_SQRT3 - 1e-14, 1.0), (INV_SQRT3 - 1e-14, INV_SQRT3 - 1e-14), (0.9, 1.0 + 1e-14)),
    "phi": ((-(math.pi + 1e-14), math.pi + 1e-14), (math.pi + 1e-14, math.pi + 1e-14)),
    "theta": ((0.0, math.pi / 2 + 1e-14),),
    "gamma": ((0.0, math.pi / 2 + 1e-14),),
}
# The golden reports' phi range, one ulp wide: every grid phi rounds onto one of its ends.
SUB_ULP_PHI = (0.1, 0.10000000000000002)


@st.composite
def maximize_boxes(draw):
    """A box for maximize: each parameter on its whole domain, a sub-range,
    pinned, or on a range that reaches into the slack past a bound, z of
    either sign; sometimes with the golden sub-ulp phi range."""
    box = {}
    for name in PARAM_NAMES:
        lo, hi = DOMAIN[name]
        kind = draw(st.sampled_from(("domain", "sub", "pinned", "slack")))
        if kind == "sub":
            lo, hi = sorted((draw(st.floats(lo, hi)), draw(st.floats(lo, hi))))
        elif kind == "pinned":
            lo = hi = draw(st.floats(lo, hi))
        elif kind == "slack":
            lo, hi = draw(st.sampled_from(SLACK_RANGES[name]))
        if name == "z" and draw(st.booleans()):
            lo, hi = -hi, -lo
        box[name] = (lo, hi)
    if draw(st.booleans()):
        box["phi"] = SUB_ULP_PHI
    return box


@st.composite
def sweep_specs(draw):
    varying = draw(st.sampled_from(PARAM_NAMES))
    fixed = draw(domain_params)
    lo, hi = sorted((draw(range_ends(varying)), draw(range_ends(varying))))
    if varying == "z" and draw(st.booleans()):
        lo, hi = -hi, -lo
    assume(lo < hi)
    points = draw(st.integers(2, 2000))
    return SweepSpec(varying, lo, hi, points, {n: getattr(fixed, n) for n in PARAM_NAMES if n != varying})


class TestSweep:
    @settings(max_examples=100, deadline=None)
    @given(sweep_specs())
    def test_samples_match_direct_calls_bit_exactly(self, spec):
        samples = sweep(spec)
        assert [value for value, _ in samples] == np.linspace(spec.lo, spec.hi, spec.points).tolist()
        for value, score in samples:
            direct = trilocal_score(EjmParams(**{**spec.fixed, spec.varying: value})).S
            assert type(score) is float and score == direct, value

    def test_builds_no_params_per_point(self, monkeypatch):
        # The grid is scored as arrays; only a per-point path would build an EjmParams per sample.
        calls = []
        original = EjmParams.__post_init__

        def counting(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(EjmParams, "__post_init__", counting)
        fixed = {"z": -0.8, "phi": 0.3, "theta": 1.0, "gamma": 0.5}
        for name, (lo, hi) in DOMAIN.items():
            counts = []
            for points in (2, 2000):
                del calls[:]
                sweep(SweepSpec(name, lo, hi, points, {n: v for n, v in fixed.items() if n != name}))
                counts.append(len(calls))
            assert counts[0] == counts[1], name

    @pytest.mark.parametrize("points", [2, 3, 100_000])
    @pytest.mark.parametrize("name, lo, hi", [
        ("phi", 0.1, math.nextafter(0.1, 1)),  # no float lies between the ends
        ("z", -1.0, -INV_SQRT3),
        ("phi", *DOMAIN["phi"]),
    ])
    def test_grid_runs_from_lo_to_hi(self, name, lo, hi, points):
        # The checked ends of the SweepSpec bound every grid value against DOMAIN.
        fixed = {"z": -0.8, "phi": 0.3, "theta": 1.0, "gamma": 0.5}
        values = [v for v, _ in sweep(SweepSpec(name, lo, hi, points, {n: v for n, v in fixed.items() if n != name}))]
        assert (values[0], values[-1]) == (lo, hi)
        assert all(lo <= v <= hi for v in values)

    def test_violation_curve_at_z_one(self):
        assert max(s for _, s in phi_sweep(1.0)) >= 2.29

    def test_no_violation_at_minimal_z(self):
        assert all(s <= 2.0 + 1e-9 for _, s in phi_sweep(INV_SQRT3))

    def test_point_count_and_spacing(self):
        samples = phi_sweep(1.0, points=5)
        values = [v for v, _ in samples]
        assert len(values) == 5
        assert np.max(np.abs(np.diff(values) - math.pi / 4)) < 1e-12

    def test_spec_stores_checked_floats(self):
        spec = SweepSpec("phi", 0, np.int64(1), 3, {"z": 1, "theta": np.float32(0.5), "gamma": 0.25})
        assert (spec.lo, spec.hi) == (0.0, 1.0)
        assert all(type(v) is float for v in (spec.lo, spec.hi, *spec.fixed.values()))

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
        cap = LIMITS["points"][1]
        SweepSpec(varying="phi", lo=0.0, hi=1.0, points=cap, fixed=FIXED_TOP)
        for points in (cap + 1, 10**12):
            with pytest.raises(ValueError, match=f"exceeds the cap {cap}"):
                SweepSpec(varying="phi", lo=0.0, hi=1.0, points=points, fixed=FIXED_TOP)


class TestMaximize:
    def test_full_domain_finds_reported_optimum(self):
        # The paper's headline 2.2968 is the maximum on the z = 1 slice (S has
        # period pi in phi; its curves run over [0, pi]); the full box peaks off it.
        headline = maximize(Z_ONE_BOX, budget=20000)
        assert headline.S >= 2.2960
        assert not headline.warning
        params = headline.params
        assert params.z == 1.0
        assert abs(params.theta - math.pi / 2) < 0.02
        assert abs(params.gamma - math.pi / 4) < 0.02
        assert min(abs(params.phi - 0.1781), abs(params.phi - 1.3921)) < 0.02
        result = maximize(budget=20000)
        assert result.S >= 2.31275
        assert not result.warning
        params = result.params
        assert abs(params.z - 0.98263) < 1e-3
        assert (params.theta, params.gamma) == (math.pi / 2, math.pi / 4)
        assert min(abs(params.phi + 1.85056), abs(params.phi - 1.29104)) < 1e-3

    def test_result_reevaluates_consistently(self):
        result = maximize(budget=8000)
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
        first = maximize(budget=8000)
        second = maximize(budget=8000)
        assert first.S == second.S
        assert len(first.trace) == len(second.trace)
        for (pa, sa), (pb, sb) in zip(first.trace, second.trace):
            assert pa == pb and sa == sb

    def test_best_so_far_is_monotone(self):
        result = maximize(budget=8000)
        best = -math.inf
        records = []
        for _, score in result.trace:
            best = max(best, score)
            records.append(best)
        assert records == sorted(records)
        assert records[-1] == result.S

    def test_trace_stays_inside_bounds(self):
        bounds = {"z": (0.8, 0.9), "phi": (0.0, 1.0), "theta": (0.3, 1.2), "gamma": (0.1, 0.7)}
        result = maximize(bounds, budget=8000)
        for params, _ in result.trace:
            assert 0.8 - 1e-12 <= params.z <= 0.9 + 1e-12
            assert 0.0 - 1e-12 <= params.phi <= 1.0 + 1e-12
            assert 0.3 - 1e-12 <= params.theta <= 1.2 + 1e-12
            assert 0.1 - 1e-12 <= params.gamma <= 0.7 + 1e-12
        p = result.params
        assert 0.8 <= p.z <= 0.9 and 0.0 <= p.phi <= 1.0

    @pytest.mark.parametrize("box", [None, {"z": (1.0, 1.0)}])
    def test_builds_one_float_params_per_trace_entry(self, monkeypatch, box):
        # Counted through the constructor of checked values, which maximize
        # builds with; the public constructor's checks (__post_init__) never run.
        built, checked = [], []
        original, post_init = ejm.optimize._checked_params, EjmParams.__post_init__

        def counting(*values):
            built.append(original(*values))
            return built[-1]

        def checking(self):
            checked.append(self)
            post_init(self)

        monkeypatch.setattr(ejm.optimize, "_checked_params", counting)
        monkeypatch.setattr(EjmParams, "__post_init__", checking)
        trace = maximize(box).trace
        assert checked == []
        assert len(built) == len(trace)
        assert all(params is entry for params, (entry, _) in zip(built, trace))
        for params, score in trace:
            assert all(type(getattr(params, name)) is float for name in (*PARAM_NAMES, "phi_z"))
            assert type(score) is float

    @settings(max_examples=40, deadline=None)
    @given(box=maximize_boxes(), budget=st.sampled_from((100, 20000)))
    @example(box={"z": SLACK_RANGES["z"][0], "phi": SLACK_RANGES["phi"][0], "theta": SLACK_RANGES["theta"][0]},
             budget=20000)
    @example(box={"z": (-1.0 - 1e-14, -0.9), "phi": SUB_ULP_PHI}, budget=20000)
    def test_trace_points_pass_the_public_checks(self, box, budget):
        # maximize skips EjmParams's checks; rebuilt through them, each trace
        # point keeps every field's bits, phi_z included, and its score.
        fields = (*PARAM_NAMES, "phi_z")
        for params, score in maximize(box, budget).trace:
            rebuilt = EjmParams(params.z, params.phi, params.theta, params.gamma)
            assert [float.hex(getattr(rebuilt, n)) for n in fields] == [float.hex(getattr(params, n)) for n in fields]
            assert float.hex(trilocal_score(rebuilt).S) == float.hex(score)

    def test_budget_exhausted_during_grid_sets_warning(self):
        result = maximize(budget=100)  # far below the 81**2 grid
        assert result.warning
        assert len(result.trace) == 100

    def test_compass_search_keeps_maxfev_and_bounds(self):
        # maximize relies on this instead of a budget check and a clip of its
        # own: minimize calls the objective at most maxfev times, and only
        # inside the bounds, here with its optimum mostly outside them.
        rng = np.random.default_rng(13)
        for dims in range(1, 5):
            for maxfev in range(1, 31):
                lows = rng.uniform(-1.0, 0.0, size=dims)
                highs = lows + rng.uniform(0.1, 1.0, size=dims)
                x0 = np.where(rng.random(dims) < 0.5, lows, highs)  # grid starts lie on the bounds too
                target = rng.normal(scale=3.0, size=dims)
                points = []

                def objective(x, points=points, target=target):
                    points.append(np.array(x))
                    return float(np.sum((points[-1] - target) ** 2))

                ejm.optimize.minimize(objective, x0, lows, highs, maxfev)
                assert 1 <= len(points) <= maxfev, (dims, maxfev)
                assert all(np.all((lows <= x) & (x <= highs)) for x in points), (dims, maxfev)

    def test_compass_search_reaches_a_quadratic_minimum(self):
        rng = np.random.default_rng(29)
        for dims in range(1, 5):
            lows = rng.uniform(-2.0, -1.0, size=dims)
            highs = rng.uniform(1.0, 2.0, size=dims)
            target = rng.uniform(lows, highs)
            weights = rng.uniform(0.5, 4.0, size=dims)
            calls = []

            def objective(x, target=target, weights=weights, calls=calls):
                calls.append(x)
                return float(weights @ (np.array(x) - target) ** 2)

            x, value = ejm.optimize.minimize(objective, lows, lows, highs, 10**6)
            assert np.max(np.abs(np.array(x) - target)) < 1e-8, dims
            assert value == objective(x) < 1e-15
            assert len(calls) < 10**4

    def test_smaller_budget_only_shortens_the_trace(self):
        # Budgets just past the grid (81**2 cells on the full box, 81 on the
        # z = 1, theta = pi/2 box, whose budgets start at 100) run out inside
        # a refinement.
        for box, base in ((None, 81**2), ({"z": (1.0, 1.0), "theta": (math.pi / 2, math.pi / 2)}, 99)):
            longest = maximize(box).trace
            assert len(longest) > base + 40
            for k in range(1, 41):
                trace = maximize(box, budget=base + k).trace
                assert trace == longest[:base + k], (box, k)

    def test_refinements_start_from_distinct_cells(self, monkeypatch):
        # theta and gamma are pinned by the lemma, so the grid spans (z, phi)
        # only; on a sub-ulp phi range linspace repeats cells, and each still
        # seeds once.  Every refinement searches the whole parameter vector
        # on the box the lemma leaves.
        calls = []
        original = ejm.optimize.minimize

        def recording(fun, x0, lows, highs, maxfev):
            calls.append((tuple(x0), tuple(lows), tuple(highs)))
            return original(fun, x0, lows, highs, maxfev)

        monkeypatch.setattr(ejm.optimize, "minimize", recording)
        z_axis = np.linspace(*DOMAIN["z"], 81)
        for phi_range in (DOMAIN["phi"], (0.1, float(np.nextafter(0.1, 1.0)))):
            del calls[:]
            result = maximize({"phi": phi_range}, budget=20000)
            starts = [x0 for x0, _, _ in calls]
            assert len(starts) == ejm.optimize.STARTS == len(set(starts))
            lows, highs = zip(DOMAIN["z"], phi_range, (math.pi / 2,) * 2, (math.pi / 4,) * 2)
            assert {(lo, hi) for _, lo, hi in calls} == {(lows, highs)}
            phi_axis = np.linspace(*phi_range, 81)
            grid = {(p.z, p.phi, p.theta, p.gamma): score for p, score in result.trace[:81**2]}
            assert set(grid) == {(z, phi, math.pi / 2, math.pi / 4) for z in z_axis.tolist() for phi in phi_axis.tolist()}
            best = sorted(grid.values(), reverse=True)[:ejm.optimize.STARTS]
            assert sorted((grid[start] for start in starts), reverse=True) == best
            assert all(p.theta == math.pi / 2 and p.gamma == math.pi / 4 for p, _ in result.trace)
            assert not result.warning

    def test_compass_search_never_moves_a_pinned_axis(self):
        # A pinned axis (lo == hi) has step 0, so every call keeps its value,
        # and the free coordinates follow exactly the search over the free
        # axes alone, budget for budget.
        rng = np.random.default_rng(31)
        for pinned in [p for k in range(1, 4) for p in combinations(range(4), k)]:
            free = [axis for axis in range(4) if axis not in pinned]
            lows = rng.uniform(-1.0, 0.0, size=4)
            highs = lows + rng.uniform(0.1, 1.0, size=4)
            highs[list(pinned)] = lows[list(pinned)]
            x0 = np.where(rng.random(4) < 0.5, lows, highs)
            target = rng.normal(size=4)
            for maxfev in (1, 7, 40, 10**4):
                full, alone = [], []

                def objective(x, calls=full):
                    calls.append(list(x))
                    return float(np.sum((np.array(x) - target) ** 2))

                def objective_free(xfree):
                    x = x0.tolist()
                    for axis, value in zip(free, xfree):
                        x[axis] = value
                    return objective(x, calls=alone)

                x, value = ejm.optimize.minimize(objective, x0, lows, highs, maxfev)
                xfree, value_free = ejm.optimize.minimize(objective_free, x0[free], lows[free], highs[free], maxfev)
                assert all(call[axis] == x0[axis] for call in full for axis in pinned), (pinned, maxfev)
                assert full == alone, (pinned, maxfev)
                assert ([x[axis] for axis in free], value) == (xfree, value_free), (pinned, maxfev)

    def test_grid_that_fills_the_budget_is_complete(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a refinement started with no budget left")

        monkeypatch.setattr(ejm.optimize, "minimize", unreachable)
        result = maximize(budget=81**2)
        assert len(result.trace) == 81**2
        assert not result.warning

    def test_reaches_the_dense_lemma_grid_on_random_boxes(self):
        # Every pin set of at most two names, five boxes each: the maximum
        # lies at or above the best of 201 x 201 (z, phi) cells, at the
        # lemma's theta and gamma.
        rng = np.random.default_rng(2014)
        pin_sets = [(), *((name,) for name in PARAM_NAMES), *combinations(PARAM_NAMES, 2)]
        for pinned in pin_sets * 5:
            box = random_box(rng, pinned)
            result = maximize(box, budget=20000)
            assert result.S >= lemma_grid_max(box) - 1e-12, box
            assert (result.params.theta, result.params.gamma) == lemma_values(box), box
            assert not result.warning

    @pytest.mark.parametrize("box", [
        # A single refinement, from the best grid cell alone, ends below the
        # dense grid on each of these; the later starts reach it.
        {"z": (-0.9333259512253896, -0.6277864985929803), "phi": (-3.044633904508336, 1.1677373614631188),
         "theta": (0.1470435572504389, 0.1470435572504389), "gamma": (0.48295534998125045, 0.48295534998125045)},
        {"z": (-1.0, -0.5773502691896258), "phi": (-3.141592653589793, 3.141592653589793),
         "theta": (0.9550587908098778, 0.9550587908098778),
         "gamma": (0.00021595362270092564, 0.00021595362270092564)},
        {"z": (-1.0, -0.5773502691896258), "phi": (-1.8364564374399734, 2.6707670548157267),
         "theta": (1.3375476578029268, 1.3375476578029268), "gamma": (0.34994768999303805, 0.4820247430238777)},
    ])
    def test_later_starts_reach_the_dense_lemma_grid(self, box):
        result = maximize(box, budget=20000)
        assert result.S >= lemma_grid_max(box) - 1e-12
        assert (result.params.theta, result.params.gamma) == lemma_values(box)
        assert not result.warning

    def test_validation(self):
        with pytest.raises(ValueError, match="budget"):
            maximize(budget=10)
        with pytest.raises(ValueError, match="unknown parameter"):
            maximize(bounds={"omega": (0, 1)})
        with pytest.raises(ValueError, match="invalid for z"):
            maximize(bounds={"z": (0.0, 1.0)})
        for bound in (0.9, None, (0.9,)):
            with pytest.raises(ValueError, match=r"range .* invalid for z: not a \(lo, hi\) pair"):
                maximize(bounds={"z": bound})

    def test_budget_cap_rejects_before_evaluating(self, monkeypatch):
        def unreachable(params):
            raise AssertionError("the score was evaluated past the budget cap")

        monkeypatch.setattr(ejm.optimize, "trilocal_score", unreachable)
        for budget in (LIMITS["budget"][1] + 1, 10**12):
            with pytest.raises(ValueError, match=f"exceeds the cap {LIMITS['budget'][1]}"):
                maximize(budget=budget)
