"""Parameter sweeps of the trilocal score and a derivative-free maximizer."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Mapping

import numpy as np
from scipy.optimize import minimize

from .bases import DOMAIN, PARAM_NAMES, EjmParams, ResourceLimitError, check_domain
from .network import trilocal_score

# Size caps, checked before anything is allocated.  A sweep evaluates every
# grid point (about 10 us each): 100 000 points take about a second and space
# phi's full range by 6e-5, so a larger count only costs memory and time.
MAX_SWEEP_POINTS = 100_000
# maximize keeps one (EjmParams, score) trace entry of about 360 bytes per
# evaluation: a million take about 0.4 GB and half a minute.
MAX_BUDGET = 1_000_000


def _check_range(name: str, lo: float, hi: float) -> tuple[float, float]:
    """lo and hi as floats if both lie in the parameter's domain, lo <= hi,
    and a z range keeps one sign (it cannot pass |z| < 1/sqrt(3))."""
    try:
        lo, hi = check_domain(name, lo), check_domain(name, hi)
    except ValueError as exc:
        raise ValueError(f"range [{lo!r}, {hi!r}] invalid for {name}: {exc}") from None
    if lo > hi:
        raise ValueError(f"range [{lo!r}, {hi!r}] invalid for {name}: lo exceeds hi")
    if name == "z" and lo * hi < 0:
        raise ValueError(f"range [{lo!r}, {hi!r}] invalid for z: it crosses zero")
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
            raise ValueError(f"varying={self.varying!r} must be one of {PARAM_NAMES}")
        _check_range(self.varying, self.lo, self.hi)
        if self.lo == self.hi:
            raise ValueError(f"range [{self.lo!r}, {self.hi!r}] invalid for {self.varying}: lo < hi required")
        if self.points < 2:
            raise ValueError(f"points={self.points!r} must be at least 2")
        if self.points > MAX_SWEEP_POINTS:
            raise ResourceLimitError(f"points={self.points!r} exceeds the cap {MAX_SWEEP_POINTS}")
        expected = set(PARAM_NAMES) - {self.varying}
        if set(self.fixed) != expected:
            raise ValueError(f"fixed must supply exactly {sorted(expected)}")
        object.__setattr__(self, "fixed", {name: check_domain(name, v) for name, v in self.fixed.items()})


def sweep(spec: SweepSpec) -> list[tuple[float, float]]:
    """Evaluate the trilocal score on an inclusive equally spaced grid.

    Returns (value, S) pairs in grid order.
    """
    return [
        (float(v), trilocal_score(EjmParams(**{**spec.fixed, spec.varying: float(v)})).S)
        for v in np.linspace(spec.lo, spec.hi, spec.points)
    ]


@dataclass(frozen=True)
class OptimumResult:
    """Best parameter point found, its score, and the evaluation history."""

    params: EjmParams
    S: float
    trace: tuple[tuple[EjmParams, float], ...] = field(repr=False)
    warning: bool = False


class _BudgetExhausted(Exception):
    pass


def _resolve_bounds(bounds: Mapping[str, tuple[float, float]] | None) -> dict[str, tuple[float, float]]:
    # The default box takes z >= 0 only: S is even in z, because every I_m is
    # proportional to z and phi_z depends on z^2 alone.
    resolved = dict(DOMAIN)
    for name, (lo, hi) in (bounds or {}).items():
        if name not in PARAM_NAMES:
            raise ValueError(f"unknown parameter {name!r}")
        resolved[name] = _check_range(name, lo, hi)
    return resolved


def maximize(
    bounds: Mapping[str, tuple[float, float]] | None = None,
    budget: int = 20000,
    *,
    grid_points: int = 9,
    starts: int = 5,
) -> OptimumResult:
    """Maximize the trilocal score over a box in (z, phi, theta, gamma).

    A coarse grid (grid_points per free dimension) seeds Nelder-Mead
    refinements from the best ``starts`` distinct cells.  The search is
    deterministic.  If the budget runs out before any refinement the best
    grid point is returned with warning=True.
    """
    if budget < 100:
        raise ValueError(f"budget={budget!r} must be at least 100")
    if budget > MAX_BUDGET:
        raise ResourceLimitError(f"budget={budget!r} exceeds the cap {MAX_BUDGET}")
    box = _resolve_bounds(bounds)
    lows = np.array([box[name][0] for name in PARAM_NAMES])
    highs = np.array([box[name][1] for name in PARAM_NAMES])
    free = [idx for idx in range(4) if highs[idx] > lows[idx]]

    trace: list[tuple[EjmParams, float]] = []

    def evaluate(x: np.ndarray) -> float:
        if len(trace) >= budget:
            raise _BudgetExhausted
        clipped = np.clip(x, lows, highs)
        params = EjmParams(*(float(c) for c in clipped))
        score = trilocal_score(params).S
        trace.append((params, score))
        return score

    def best_so_far() -> tuple[EjmParams, float]:
        best_params, best_score = trace[0]
        for params, score in trace[1:]:
            if score > best_score:
                best_params, best_score = params, score
        return best_params, best_score

    axes = [
        np.linspace(lows[idx], highs[idx], grid_points) if idx in free else np.array([lows[idx]])
        for idx in range(4)
    ]
    grid_cells = []
    grid_done = True
    for cell in product(*axes):
        x = np.array(cell)
        try:
            grid_cells.append((evaluate(x), x))
        except _BudgetExhausted:
            grid_done = False
            break

    if not free or not grid_done or len(trace) >= budget:
        best_params, best_score = best_so_far()
        return OptimumResult(best_params, best_score, tuple(trace), warning=not grid_done)

    ranked = sorted(range(len(grid_cells)), key=lambda idx: -grid_cells[idx][0])
    seeds: list[np.ndarray] = []
    for idx in ranked:
        x = grid_cells[idx][1]
        if not any(np.array_equal(x, s) for s in seeds):
            seeds.append(x)
        if len(seeds) == starts:
            break

    sub_bounds = [(lows[idx], highs[idx]) for idx in free]
    for start in seeds:
        remaining = budget - len(trace)
        if remaining <= 0:
            break

        def negated(xfree: np.ndarray) -> float:
            x = start.copy()
            x[free] = xfree
            return -evaluate(x)

        try:
            minimize(
                negated,
                start[free],
                method="Nelder-Mead",
                bounds=sub_bounds,
                options={"maxfev": remaining, "xatol": 1e-8, "fatol": 1e-10},
            )
        except _BudgetExhausted:
            break

    best_params, best_score = best_so_far()
    return OptimumResult(best_params, best_score, tuple(trace), warning=False)
