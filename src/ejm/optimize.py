"""Parameter sweeps of the trilocal score and a derivative-free maximizer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import Mapping

import numpy as np

from .bases import DOMAIN, PARAM_NAMES, EjmParams, _checked_params, _phi_z, check_domain, check_limit
from .network import closed_form, cube_root_sum, trilocal_score
from .qla import shown

# Score evaluations maximize may spend unless told otherwise.
DEFAULT_BUDGET = 20000
# Grid points per free parameter of (z, phi): the bounds and every eightieth between; 81^2 cells fit DEFAULT_BUDGET.
GRID_POINTS = 81
# Compass-search refinements, one from each of this many best distinct grid cells;
# one alone stops below a denser grid on some sub-boxes.
STARTS = 5
# A compass search stops once its largest step falls below this.
STEP_TOL = 1e-9


def _check_range(name: str, lo: float, hi: float) -> tuple[float, float]:
    """lo and hi as floats if both lie in the parameter's domain, lo <= hi,
    and a z range keeps one sign (it cannot pass |z| < 1/sqrt(3))."""
    try:
        lo, hi = check_domain(name, lo), check_domain(name, hi)
    except ValueError as exc:
        raise ValueError(f"range [{shown(lo)}, {shown(hi)}] invalid for {name}: {exc}") from None
    if lo > hi:
        raise ValueError(f"range [{shown(lo)}, {shown(hi)}] invalid for {name}: lo exceeds hi")
    if name == "z" and lo * hi < 0:
        raise ValueError(f"range [{shown(lo)}, {shown(hi)}] invalid for z: it crosses zero")
    return lo, hi


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional scan: vary one parameter, hold the other three."""

    varying: str
    lo: float
    hi: float
    points: int
    fixed: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.varying not in PARAM_NAMES:
            raise ValueError(f"varying={shown(self.varying)} must be one of {PARAM_NAMES}")
        lo, hi = _check_range(self.varying, self.lo, self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if self.lo == self.hi:
            raise ValueError(f"range [{self.lo!r}, {self.hi!r}] invalid for {self.varying}: lo < hi required")
        object.__setattr__(self, "points", check_limit("points", self.points))
        expected = set(PARAM_NAMES) - {self.varying}
        if set(self.fixed) != expected:
            raise ValueError(f"fixed must supply exactly {sorted(expected)}")
        object.__setattr__(self, "fixed", {name: check_domain(name, v) for name, v in self.fixed.items()})


def sweep(spec: SweepSpec) -> list[tuple[float, float]]:
    """Evaluate the trilocal score on an inclusive equally spaced grid.

    Returns (value, S) pairs in grid order, each S bit for bit the
    trilocal_score of its point: the closed form runs once over the grid
    with np.sin and np.cos, which match math's bits, while phi_z
    (math.atan2) and the cube roots (float **) stay on Python floats,
    whose numpy forms do not.
    """
    grid = np.linspace(spec.lo, spec.hi, spec.points)
    values = grid.tolist()
    point = {**spec.fixed, spec.varying: grid}
    phase = np.array([_phi_z(z) for z in values]) if spec.varying == "z" else _phi_z(point["z"])
    correlations = closed_form(point["z"], point["phi"], phase, point["theta"], point["gamma"], np.sin, np.cos)
    columns = [np.broadcast_to(column, grid.shape).tolist() for column in correlations]
    return list(zip(values, map(cube_root_sum, zip(*columns))))


@dataclass(frozen=True)
class OptimumResult:
    """Best parameter point found, its score, and the evaluation history."""

    params: EjmParams
    S: float
    trace: tuple[tuple[EjmParams, float], ...] = field(repr=False)
    warning: bool = False


def _resolve_bounds(bounds: Mapping[str, tuple[float, float]] | None) -> dict[str, tuple[float, float]]:
    # The default box takes z >= 0 only: S is even in z, because every I_m is
    # proportional to z and phi_z depends on z^2 alone.
    resolved = dict(DOMAIN)
    for name, bound in (bounds or {}).items():
        if name not in PARAM_NAMES:
            raise ValueError(f"unknown parameter {shown(name)}")
        try:
            lo, hi = bound
        except (TypeError, ValueError):
            raise ValueError(f"range {shown(bound)} invalid for {name}: not a (lo, hi) pair") from None
        resolved[name] = _check_range(name, lo, hi)
    return resolved


def minimize(fun, x0, lows, highs, maxfev: int) -> tuple[list[float], float]:
    """Compass search for a minimum of fun over the box [lows, highs] from x0
    (Kolda, Lewis and Torczon, SIAM Rev. 45 (2003) 385).

    Each pass tries x + step and x - step along each axis in turn, clipped to
    the box, and moves to the first trial that lowers fun; a pass without a
    move halves every step.  The steps start at a quarter of each side, so a
    pinned axis (lo == hi) has step 0 and is never tried: its trials clip
    back onto x and are skipped without a call.  The search stops once the
    largest step is below STEP_TOL or fun has been called maxfev (at least 1)
    times, and returns the best point and value.
    """
    x = [float(v) for v in x0]
    best = fun(x)
    calls = 1
    steps = [(hi - lo) / 4 for lo, hi in zip(lows, highs)]
    while max(steps) >= STEP_TOL:
        for axis, sign in product(range(len(x)), (1.0, -1.0)):
            moved = min(max(x[axis] + sign * steps[axis], lows[axis]), highs[axis])
            if moved == x[axis]:  # clipped back onto x: nothing to try
                continue
            if calls >= maxfev:
                return x, best
            trial = [*x[:axis], moved, *x[axis + 1:]]
            value = fun(trial)
            calls += 1
            if value < best:
                x, best = trial, value
                break
        else:
            steps = [step / 2 for step in steps]
    return x, best


def maximize(bounds: Mapping[str, tuple[float, float]] | None = None, budget: int = DEFAULT_BUDGET) -> OptimumResult:
    """Maximize the trilocal score over a box in (z, phi, theta, gamma).

    By the lemma in network.closed_form, S peaks at theta = the box maximum
    and gamma = the box value nearest pi/4 for every (z, phi), so both are
    pinned there first.  A grid of GRID_POINTS per free parameter of
    (z, phi) then seeds compass-search refinements (minimize) over the whole
    parameter vector from the best STARTS distinct cells; the pinned axes
    never move.  The search is deterministic and ends when the refinements
    finish or the budget runs out; warning=True means it ran out before the
    grid was complete.  The grid takes the first `budget` cells, each
    refinement what is left as its maxfev.

    Every evaluated point lies in the box _resolve_bounds checked: the grid
    is np.linspace between its bounds, whose ends are exact, and minimize
    clips each trial to them.  So each trace entry is built by
    _checked_params, with phi_z computed once per grid z, and no point is
    checked twice.
    """
    budget = check_limit("budget", budget)
    box = _resolve_bounds(bounds)
    theta = box["theta"][1]
    gamma = min(max(math.pi / 4, box["gamma"][0]), box["gamma"][1])
    box.update(theta=(theta, theta), gamma=(gamma, gamma))
    lows, highs = zip(*(box[name] for name in PARAM_NAMES))
    axes = [np.linspace(lo, hi, GRID_POINTS).tolist() if lo < hi else [lo] for lo, hi in zip(lows, highs)]
    cells = list(product(*axes))
    phases = {z: _phi_z(z) for z in axes[0]}
    trace: list[tuple[EjmParams, float]] = []

    def evaluate(x, phi_z: float) -> float:
        params = _checked_params(*x, phi_z)
        score = trilocal_score(params).S
        trace.append((params, score))
        return score

    # Keyed by cell, so equal cells (a sub-ulp range repeats them) seed at most once.
    scores = {cell: evaluate(cell, phases[cell[0]]) for cell in cells[:budget]}
    for start in sorted(scores, key=lambda cell: -scores[cell])[:STARTS] if len(cells) > 1 else ():
        if len(trace) >= budget:
            break
        minimize(lambda x: -evaluate(x, _phi_z(x[0])), start, lows, highs, budget - len(trace))
    return OptimumResult(*max(trace, key=itemgetter(1)), tuple(trace), warning=len(trace) < len(cells))
