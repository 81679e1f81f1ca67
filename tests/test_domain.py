"""The parameter domain is declared once, in ``ejm.bases``; every entry point
(EjmParams, SweepSpec, maximize, the command line) accepts and rejects the
same values."""

import contextlib
import io
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from ejm.bases import (
    _DOMAIN_ATOL,
    DOMAIN,
    INV_SQRT3,
    LIMITS,
    PARAM_NAMES,
    BasisLabel,
    EjmParams,
    check_domain,
    check_limit,
    m_vector,
    n_qubit_ejm,
)
from ejm.cli import export, main
from ejm.network import trilocal_score
from ejm.optimize import SweepSpec, maximize, sweep
from ejm.qla import partial_trace, permute_qubits

# An interior point, the base of every probe below.
INTERIOR = {"z": 0.8, "phi": 0.3, "theta": 1.0, "gamma": 0.5}
# The library entry point that checks each size of LIMITS.
SIZED = {
    "n": lambda n: n_qubit_ejm(EjmParams(**INTERIOR), n),
    "points": lambda points: SweepSpec("phi", 0.0, 1.0, points, {n: INTERIOR[n] for n in ("z", "theta", "gamma")}),
    "budget": lambda budget: maximize(budget=budget),
}


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
    """A parameter name and a value at, or half or twice the slack either side
    of, one of its bounds (both signs of z), or anywhere near its domain."""
    name = draw(st.sampled_from(PARAM_NAMES))
    lo, hi = draw(st.sampled_from(signed_bounds(name)))
    offsets = [0.0] + [sign * scale * _DOMAIN_ATOL for scale in (0.5, 2.0) for sign in (1, -1)]
    near_bound = st.tuples(st.sampled_from((lo, hi)), st.sampled_from(offsets))
    value = draw(st.one_of(near_bound.map(sum), st.floats(lo - 0.5, hi + 0.5)))
    return name, (lo, hi), value


def entry_points(name, value):
    """Every library call that checks value for the parameter name: check_domain,
    EjmParams, a SweepSpec endpoint and fixed value, and a maximize bound."""
    varied = "gamma" if name == "theta" else "theta"
    held = {n: v for n, v in INTERIOR.items() if n != varied}
    return [
        lambda: check_domain(name, value),
        lambda: EjmParams(**{**INTERIOR, name: value}),
        lambda: SweepSpec(name, value, DOMAIN[name][1], 3, {n: v for n, v in INTERIOR.items() if n != name}),
        lambda: SweepSpec(varied, 0.0, 1.0, 3, {**held, name: value}),
        lambda: maximize({name: (value, DOMAIN[name][1])}, budget=100),
    ]


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
        inside = lo - _DOMAIN_ATOL <= value <= hi + _DOMAIN_ATOL
        assert verdicts == dict.fromkeys(verdicts, inside), (name, value)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize(
        "argv",
        [["network"], ["network", "--method", "brute_force"], ["tangle", "--n", "3"]]
        + [[command, "--n", n] for command in ("verify", "reduce", "basis") for n in ("2", "8")],
        ids=lambda argv: "-".join(argv).replace("--", ""),
    )
    def test_z_beyond_the_slack_is_a_domain_error(self, argv, sign):
        # 8e-13 below 1/sqrt(3) once passed the slack, and then the n = 8 builders
        # failed their norm check while analytic network reported a score.
        code, out, err = run_cli(*argv, f"--z={sign * (INV_SQRT3 - 8e-13)!r}")
        assert code == 2 and out == ""
        assert err.startswith("error: --z out of domain") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name", PARAM_NAMES)
    @pytest.mark.parametrize("bad", [True, "1", 1j, None], ids=repr)
    def test_non_numbers_are_rejected_everywhere(self, name, bad):
        for build in entry_points(name, bad):
            with pytest.raises(ValueError, match=f"{name}={bad!r} must be a real number"):
                build()

    @pytest.mark.parametrize("name", PARAM_NAMES)
    @pytest.mark.parametrize("huge, shown", [
        (10**400, "1" + "0" * 400), (-(10**400), "-1" + "0" * 400), (2**1024, repr(2**1024)),
        (10**5000, "<int of 16610 bits>"), (-(10**5000), "-<int of 16610 bits>"),
    ], ids=["10**400", "-10**400", "2**1024", "10**5000", "-10**5000"])
    def test_ints_beyond_float_range_are_outside_everywhere(self, name, huge, shown):
        # float() of each raises OverflowError, which no caller of check_domain catches;
        # repr of an int of more than 4 300 digits raises a ValueError that names
        # neither the parameter nor its domain, so the message gives its bit length.
        lo, hi = DOMAIN[name]
        bounded = "|z|" if name == "z" else name
        text = f"{name}={shown} outside {lo:.12g} <= {bounded} <= {hi:.12g}"
        for build in entry_points(name, huge):
            with pytest.raises(ValueError, match=re.escape(text)):
                build()

    @pytest.mark.parametrize("value", [1, np.int64(1), np.float32(0.5), np.float64(0.5)], ids=repr)
    def test_integers_and_numpy_numbers_are_accepted_as_floats(self, value):
        checked = check_domain("theta", value)
        assert type(checked) is float and checked == float(value)
        assert type(EjmParams(**{**INTERIOR, "theta": value}).theta) is float

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
        positive = maximize({"z": (0.9, 0.9)}, budget=1500)
        negative = maximize({"z": (-0.9, -0.9)}, budget=1500)
        assert negative.S == positive.S
        assert negative.params.z == -positive.params.z
        assert [s for _, s in negative.trace] == [s for _, s in positive.trace]

    def test_maximize_over_negative_z_box(self):
        positive = maximize({"z": (0.6, 1.0)}, budget=8000)
        negative = maximize({"z": (-1.0, -0.6)}, budget=8000)
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

    @pytest.mark.parametrize("name, lo, hi, bad, deg", [
        ("z", "0.5", "1", "lo", False), ("z", "0.9", "1.1", "hi", False), ("phi", "0", "4", "hi", False),
        ("phi", "-4", "0", "lo", False), ("theta", "-0.1", "1", "lo", False), ("gamma", "0", "1.6", "hi", False),
        ("theta", "0", "91", "hi", True),
    ])
    def test_sweep_endpoint_error_names_the_endpoint_flag(self, name, lo, hi, bad, deg):
        # --z 0.9 is valid: the error names the endpoint that is out of domain, not the fixed --z.
        extra = ["--deg"] if deg else []
        code, out, err = run_cli("sweep", "--vary", name, "--z", "0.9", *extra, f"--lo={lo}", f"--hi={hi}",
                                 "--points", "3")
        assert code == 2 and out == ""
        assert err.startswith(f"error: --{bad} out of domain: {name}=") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag, value", [("z-min", "0.5"), ("z-max", "1.1"), ("phi-min", "-4"),
                                             ("theta-max", "2"), ("gamma-min", "-0.1")])
    def test_optimize_bound_error_names_its_flag(self, flag, value):
        code, out, err = run_cli("optimize", "--budget", "100", f"--{flag}={value}")
        assert code == 2 and out == ""
        assert err.startswith(f"error: --{flag} out of domain") and len(err.strip().splitlines()) == 1


class TestSizes:
    @pytest.mark.parametrize("name", sorted(LIMITS))
    def test_non_integral_size_is_a_value_error(self, name):
        lo, hi = LIMITS[name]
        assert check_limit(name, lo) == lo and check_limit(name, np.int64(hi)) == hi
        assert type(check_limit(name, np.int64(hi))) is int
        for value in (float(lo), lo + 0.5, math.nan, math.inf, str(lo), None):
            with pytest.raises(ValueError, match="must be an integer"):
                check_limit(name, value)
            with pytest.raises(ValueError, match="must be an integer"):
                SIZED[name](value)

    @pytest.mark.parametrize("sign, verdict", [(1, "exceeds the cap"), (-1, "must be at least")])
    def test_sizes_and_indices_too_long_to_print_are_named(self, sign, verdict):
        huge = sign * 10**5000
        shown = f"{'-' if sign < 0 else ''}<int of 16610 bits>"
        for name in LIMITS:
            with pytest.raises(ValueError, match=re.escape(f"{name}={shown} {verdict}")):
                SIZED[name](huge)
        with pytest.raises(ValueError, match=re.escape(f"vertex index i={shown} must be 0..3")):
            m_vector(EjmParams(**INTERIOR), huge)
        with pytest.raises(ValueError, match=re.escape(f"qubit={shown} must be 1..2")):
            partial_trace(n_qubit_ejm(EjmParams(**INTERIOR), 2).states[BasisLabel(0)], huge)

    def test_other_library_inputs_too_long_to_print_are_named(self):
        # Every error message shows caller input through qla.shown, so none raises
        # Python's int-to-string limit error in place of its own.
        huge = 10**5000
        state = n_qubit_ejm(EjmParams(**INTERIOR), 2).states[BasisLabel(0)]
        cases = [
            (lambda: maximize({"z": huge}), "range <int of 16610 bits> invalid for z: not a (lo, hi) pair"),
            (lambda: maximize({"z": (huge, 1.0, 1.0)}), "range <tuple too long to print> invalid for z"),
            (lambda: maximize({huge: (0.0, 1.0)}), "unknown parameter <int of 16610 bits>"),
            (lambda: SweepSpec(huge, 0.0, 1.0, 3, {}), "varying=<int of 16610 bits> must be one of"),
            (lambda: trilocal_score(EjmParams(**INTERIOR), method=huge), "unknown method <int of 16610 bits>"),
            (lambda: permute_qubits(state, [huge, 1]), "order <list too long to print> is not a permutation"),
            (lambda: export({}, -huge), "unknown report format -<int of 16610 bits>"),
        ]
        for build, text in cases:
            with pytest.raises(ValueError, match=re.escape(text)):
                build()

    def test_numpy_sizes_are_kept_as_ints(self):
        spec = SIZED["points"](np.int8(100))
        assert type(spec.points) is int and spec.points == 100
