"""No command-line input gives a traceback: every invocation of ``ejm`` exits
0, 1 or 2; an exit of 2 prints one ``error:`` line and nothing on stdout; and
whatever reaches stdout is strict JSON (or, for ``sweep --format csv``, finite
numbers)."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ejm.bases import DOMAIN, LIMITS, PARAM_NAMES
from ejm.cli import main

COMMANDS = ["verify", "tangle", "reduce", "basis", "network", "sweep", "optimize"]
# The largest valid size drawn, so that each run stays fast.
FAST = {"n": LIMITS["n"][1], "points": 1000, "budget": 300}

ANY_FLOAT = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def inside(name):
    """Values inside the parameter's domain, either sign of z."""
    lo, hi = DOMAIN[name]
    return st.one_of(st.floats(lo, hi), st.floats(-hi, -lo)) if name == "z" else st.floats(lo, hi)


def size(name):
    """(valid sizes up to FAST[name], sizes on both sides of each bound of LIMITS[name])."""
    lo, hi = LIMITS[name]
    valid = st.integers(lo, FAST[name])
    invalid = st.one_of(st.sampled_from([lo - 1, hi + 1]), st.integers(max_value=lo - 1), st.integers(min_value=hi + 1))
    return valid, st.one_of(valid, invalid)


def options(command, vary):
    """Each value flag of command: (strategy of valid values, strategy of any value)."""
    params = {name: (inside(name), ANY_FLOAT) for name in PARAM_NAMES}
    return {
        "verify": {**params, "n": size("n"), "tol": (st.sampled_from([1e-18, 1e-9]), ANY_FLOAT)},
        "tangle": params,
        "reduce": {**params, "n": size("n")},
        "basis": {**params, "n": size("n")},
        "network": params,
        "sweep": {**params, "lo": (inside(vary), ANY_FLOAT), "hi": (inside(vary), ANY_FLOAT), "points": size("points")},
        "optimize": {
            "budget": size("budget"),
            **{f"{name}-{end}": (inside(name), ANY_FLOAT) for name in PARAM_NAMES for end in ("min", "max")},
        },
    }[command]


@st.composite
def invocations(draw, command, wild):
    """argv for command: any value for the flag wild, valid values for the
    others; optional ones are left out at random."""
    vary = draw(st.sampled_from(PARAM_NAMES))
    flags = options(command, vary)
    argv = [command, *draw(st.sampled_from([[], ["--deg"]]))]
    if command == "tangle":
        argv.append(f"--n={draw(st.sampled_from([2, 3]))}")  # argparse's choices
    if command == "network":
        argv += [f"--method={draw(st.sampled_from(['analytic', 'brute_force']))}",
                 *draw(st.sampled_from([[], ["--cross-check"]]))]
    if command == "sweep":
        argv += [f"--vary={vary}", f"--format={draw(st.sampled_from(['json', 'csv']))}"]
    for name, (valid, anything) in flags.items():
        if name == wild or name in ("lo", "hi") or draw(st.booleans()):
            value = repr(draw(anything if name == wild else valid))
            argv += draw(st.sampled_from([[f"--{name}={value}"], [f"--{name}", value]]))
    return argv


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize(
    "command, wild", [(command, wild) for command in COMMANDS for wild in options(command, "z")]
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_no_input_gives_a_traceback(command, wild, data):
    argv = data.draw(invocations(command, wild), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2 or not out:
        assert code != 0 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    elif "--format=csv" in argv:
        header, *rows = out.splitlines()
        assert header == "value,S"
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))
    else:
        json.loads(out, parse_constant=_reject_constant)
