"""The parameter domain is declared once, in ``ejm.bases``; every entry point
(EjmParams, SweepSpec, maximize, the command line) accepts and rejects the
same values."""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ejm.bases import DOMAIN, INV_SQRT3, PARAM_NAMES, EjmParams, check_domain
from ejm.cli import main
from ejm.network import trilocal_score
from ejm.optimize import SweepSpec, maximize, sweep

# An interior point, the base of every probe below.
INTERIOR = {"z": 0.8, "phi": 0.3, "theta": 1.0, "gamma": 0.5}


def signed_bounds(name):
    """The parameter's bounds in signed coordinates: z has two intervals."""
    lo, hi = DOMAIN[name]
    return [(lo, hi), (-hi, -lo)] if name == "z" else [(lo, hi)]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@st.composite
def probes(draw):
    """A parameter name and a value at, or 0.5e-12 or 2e-12 either side of,
    one of its bounds (both signs of z), or anywhere near its domain."""
    name = draw(st.sampled_from(PARAM_NAMES))
    lo, hi = draw(st.sampled_from(signed_bounds(name)))
    near_bound = st.tuples(st.sampled_from((lo, hi)), st.sampled_from((0.0, 0.5e-12, -0.5e-12, 2e-12, -2e-12)))
    value = draw(st.one_of(near_bound.map(sum), st.floats(lo - 0.5, hi + 0.5)))
    return name, (lo, hi), value


def accepts(build):
    try:
        build()
    except ValueError:
        return False
    return True


class TestOneDomain:
    @settings(max_examples=200, deadline=None)
    @given(probes())
    def test_every_entry_point_agrees(self, probe):
        name, (lo, hi), value = probe
        point = {**INTERIOR, name: value}
        others = {n: v for n, v in INTERIOR.items() if n != name}
        # The value is the sweep endpoint nearer to it; the other is a bound.
        endpoints = (value, hi) if value < (lo + hi) / 2 else (lo, value)
        # The value is also held fixed while another parameter varies.
        varied = "gamma" if name == "theta" else "theta"
        held = [n for n in PARAM_NAMES if n != varied]

        verdicts = {
            "EjmParams": accepts(lambda: EjmParams(**point)),
            "SweepSpec": accepts(lambda: SweepSpec(name, *endpoints, 3, others)),
            "SweepSpec.fixed": accepts(lambda: SweepSpec(varied, 0.0, 1.0, 3, {n: point[n] for n in held})),
            "maximize": accepts(lambda: maximize({n: (v, v) for n, v in point.items()}, budget=100)),
            "cli": run_cli("network", *(f"--{n}={v!r}" for n, v in point.items()))[0] == 0,
        }
        inside = lo - 1e-12 <= value <= hi + 1e-12
        assert verdicts == dict.fromkeys(verdicts, inside), (name, value)

    def test_check_domain_bounds_the_modulus_of_z(self):
        assert check_domain("z", -1.0) == -1.0
        assert check_domain("z", -INV_SQRT3) == -INV_SQRT3
        with pytest.raises(ValueError, match=r"\|z\|"):
            check_domain("z", 0.0)


class TestNegativeZ:
    def test_sweep_over_negative_z_mirrors_positive_z(self):
        fixed = {n: v for n, v in INTERIOR.items() if n != "z"}
        samples = sweep(SweepSpec("z", -1.0, -0.6, 9, fixed))
        assert len(samples) == 9
        for value, score in samples:
            assert value < 0
            assert score == trilocal_score(EjmParams(**{**fixed, "z": -value})).S

    def test_sweep_at_fixed_negative_z_mirrors_positive_z(self):
        fixed = {"z": 0.9, "theta": math.pi / 2, "gamma": math.pi / 4}
        positive = sweep(SweepSpec("phi", 0.0, math.pi, 17, fixed))
        negative = sweep(SweepSpec("phi", 0.0, math.pi, 17, {**fixed, "z": -0.9}))
        assert negative == positive

    def test_maximize_over_pinned_negative_z_mirrors_positive_z(self):
        positive = maximize({"z": (0.9, 0.9)}, budget=1500, grid_points=5, starts=2)
        negative = maximize({"z": (-0.9, -0.9)}, budget=1500, grid_points=5, starts=2)
        assert negative.S == positive.S
        assert negative.params.z == -positive.params.z
        assert [s for _, s in negative.trace] == [s for _, s in positive.trace]

    def test_maximize_over_negative_z_box(self):
        positive = maximize({"z": (0.6, 1.0)}, budget=3000, grid_points=5, starts=2)
        negative = maximize({"z": (-1.0, -0.6)}, budget=3000, grid_points=5, starts=2)
        assert -1.0 <= negative.params.z <= -0.6
        assert abs(negative.S - positive.S) < 1e-6
        assert negative.S > 2.29

    def test_cli_accepts_negative_z_ranges(self):
        code, out, _ = run_cli("sweep", "--vary", "z", "--lo=-1", "--hi=-0.6", "--points", "3")
        assert code == 0 and out
        code, out, _ = run_cli("optimize", "--budget", "100", "--z-min=-1", "--z-max=-0.6")
        assert code == 0 and out


class TestRangeErrors:
    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-0.6, 0.6), (-INV_SQRT3, INV_SQRT3)])
    def test_z_range_may_not_cross_zero(self, lo, hi):
        fixed = {n: v for n, v in INTERIOR.items() if n != "z"}
        with pytest.raises(ValueError, match="invalid for z"):
            SweepSpec("z", lo, hi, 3, fixed)
        with pytest.raises(ValueError, match="invalid for z"):
            maximize({"z": (lo, hi)}, budget=100)
        code, _, err = run_cli("sweep", "--vary", "z", f"--lo={lo!r}", f"--hi={hi!r}", "--points", "3")
        assert code == 2 and "invalid for z" in err

    @pytest.mark.parametrize("name, lo, hi", [("z", "0.5", "1"), ("phi", "0", "4"), ("theta", "-0.1", "1"),
                                              ("gamma", "0", "1.6")])
    def test_sweep_endpoint_error_names_the_varying_flag(self, name, lo, hi):
        code, out, err = run_cli("sweep", "--vary", name, f"--lo={lo}", f"--hi={hi}", "--points", "3")
        assert code == 2 and out == ""
        assert err.startswith(f"error: --{name} out of domain") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag, value", [("z-min", "0.5"), ("z-max", "1.1"), ("phi-min", "-4"),
                                             ("theta-max", "2"), ("gamma-min", "-0.1")])
    def test_optimize_bound_error_names_its_flag(self, flag, value):
        code, out, err = run_cli("optimize", "--budget", "100", f"--{flag}={value}")
        assert code == 2 and out == ""
        assert err.startswith(f"error: --{flag} out of domain") and len(err.strip().splitlines()) == 1
