"""Reference computations and output checks of the benchmark.

The references are written here from the paper's formulas and from plain
numpy contractions; none of them calls ``ejm``.  Every ``*_problems``
function returns a list of messages, empty when the output passes.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

INV_SQRT3 = 1.0 / math.sqrt(3.0)
HEADLINE_S = 2.2968

# Tolerances.  Orthonormality, Born-rule probabilities and the three-tangle
# are sums of a few hundred double products, so 1e-12 leaves three orders of
# margin over rounding; the geometry predicates use the program's own 1e-9.
ORTHO_TOL = 1e-12
GEOMETRY_TOL = 1e-9
VALUE_TOL = 1e-12
OPTIMUM_TOL = 5e-5
# Geometry points keep every reduction radius, the gap between the two
# radii and the distance of |z| from 1 at least this large, so that no
# qubit position collapses onto a degenerate vertex set.
GEOMETRY_MARGIN = 0.02

# The maximizer's box, (lo, hi) per parameter in the order z, phi, theta, gamma.
OPTIMIZER_BOX = ((INV_SQRT3, 1.0), (-math.pi, math.pi), (0.0, math.pi / 2), (0.0, math.pi / 2))
PARAM_NAMES = ("z", "phi", "theta", "gamma")
# Dense-grid points per free parameter, by number of free parameters.
DENSE_POINTS = {2: 129, 3: 41, 4: 25}


# -- parameter points ------------------------------------------------------


def draw_point(rng) -> tuple[float, float, float, float]:
    """Uniform point of the whole domain: 1/sqrt(3) <= |z| <= 1 with either
    sign, phi in [-pi, pi], theta and gamma in [0, pi/2]."""
    z = rng.choice((-1.0, 1.0)) * rng.uniform(INV_SQRT3, 1.0)
    return (z, rng.uniform(-math.pi, math.pi), rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, math.pi / 2))


def reduction_radii(point) -> tuple[float, float]:
    """(block, tail) radii of the n >= 3 reductions: 1/2 sqrt(1 + 2 cos^2 2g) |cos t|
    at two-qubit-block positions and |cos 2g| at the odd extra qubit."""
    _, _, theta, gamma = point
    c2g = math.cos(2.0 * gamma)
    return 0.5 * math.sqrt(1.0 + 2.0 * c2g * c2g) * abs(math.cos(theta)), abs(c2g)


def draw_geometry_point(rng) -> tuple[float, float, float, float]:
    """Domain point whose reductions keep GEOMETRY_MARGIN from every degenerate set."""
    while True:
        point = draw_point(rng)
        block, tail = reduction_radii(point)
        if min(block, tail, abs(block - tail), 1.0 - abs(point[0])) >= GEOMETRY_MARGIN:
            return point


# -- geometry --------------------------------------------------------------


def bloch_vectors(states: np.ndarray, n: int) -> np.ndarray:
    """Bloch vectors of every single-qubit reduction, shape (states, n, 3).

    ``states`` holds one state per row, qubit 1 the most significant index bit.
    """
    count = states.shape[0]
    out = np.empty((count, n, 3))
    for q in range(n):
        psi = states.reshape(count, 2**q, 2, 2 ** (n - q - 1))
        rho = np.einsum("sxay,sxby->sab", psi, psi.conj())
        out[:, q, 0] = 2.0 * rho[:, 0, 1].real
        out[:, q, 1] = -2.0 * rho[:, 0, 1].imag
        out[:, q, 2] = (rho[:, 0, 0] - rho[:, 1, 1]).real
    return out


def expected_radii(point, n: int) -> tuple[float, ...]:
    block, tail = reduction_radii(point)
    return (block,) if n % 2 == 0 else tuple(sorted((block, tail)))


def orthonormality_problems(gram_error: float, completeness_error: float) -> list[str]:
    problems = []
    if not gram_error <= ORTHO_TOL:
        problems.append(f"Gram error {gram_error:.3e} above {ORTHO_TOL}")
    if not completeness_error <= ORTHO_TOL:
        problems.append(f"completeness error {completeness_error:.3e} above {ORTHO_TOL}")
    return problems


def symmetry_problems(point, n: int, report) -> list[str]:
    """Checks a symmetry report: vanishing vector sum, mirror pairs,
    parallelepipeds, no degenerate position and, for n >= 3, the radii."""
    problems = []
    total = (report.vector_sum.x, report.vector_sum.y, report.vector_sum.z)
    if not max(abs(c) for c in total) <= GEOMETRY_TOL:
        problems.append(f"reduction-vector sum {total} is not 0")
    if not report.mirror_pairs_ok:
        problems.append("mirror pairs not found")
    if not report.parallelepiped_ok:
        problems.append("a position is not a rectangular parallelepiped")
    if report.degenerate:
        problems.append("a position is reported degenerate")
    if n >= 3:
        want = expected_radii(point, n)
        got = tuple(report.radii)
        if len(got) != len(want) or any(abs(a - b) > GEOMETRY_TOL for a, b in zip(got, want)):
            problems.append(f"radii {got} differ from {want}")
    return problems


def bloch_problems(states: np.ndarray, labels, n: int, vectors) -> list[str]:
    """Compares the reported reduction vectors with our own contraction."""
    own = bloch_vectors(states, n)
    worst = 0.0
    for s, label in enumerate(labels):
        for q in range(n):
            v = vectors[(label, q + 1)]
            worst = max(worst, float(np.max(np.abs(own[s, q] - (v.x, v.y, v.z)))))
    if not worst <= VALUE_TOL:
        return [f"Bloch vectors differ from the reference by {worst:.3e}"]
    return []


def tangle_problems(point, tangles) -> list[str]:
    _, _, theta, gamma = point
    want = math.sin(2.0 * gamma) ** 2 * math.sin(theta)
    worst = max(abs(t - want) for t in tangles)
    if not worst <= VALUE_TOL:
        return [f"three-tangle differs from sin^2(2g) sin(t) = {want!r} by {worst:.3e}"]
    return []


# -- network ---------------------------------------------------------------

# Processed bit b^m from Bob's raw output bits, and the input-sign masks g_m.
_BIT_MAPS = (
    lambda b1, b2, b3: b2 ^ b3 ^ 1,
    lambda b1, b2, b3: b3,
    lambda b1, b2, b3: b1 ^ b3 ^ 1,
    lambda b1, b2, b3: b1 ^ b2 ^ b3 ^ 1,
)
_G_MASKS = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))


def alice_eigenvectors() -> np.ndarray:
    """vecs[x, a]: eigenvector of (sigma_x + (-1)^x sigma_z)/sqrt(2) for eigenvalue (-1)^a."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    vecs = np.empty((2, 2, 2), dtype=complex)
    for x, sign in enumerate((1.0, -1.0)):
        _, v = np.linalg.eigh((sx + sign * sz) / math.sqrt(2.0))
        vecs[x, 0], vecs[x, 1] = v[:, 1], v[:, 0]
    return vecs


def star_matrix() -> np.ndarray:
    """Three (|01>+|10>)/sqrt(2) sources as an 8x8 matrix, rows A1A2A3, columns B1B2B3."""
    pair = np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0)
    return np.einsum("ad,be,cf->abcdef", pair, pair, pair).reshape(8, 8)


def born_table(bob: np.ndarray) -> np.ndarray:
    """P[x1,x2,x3,a1,a2,a3,b] for Bob's 8x8 basis matrix (one state per row)."""
    v = alice_eigenvectors().conj()
    alice = np.einsum("ipa,jqb,krc->ijkpqrabc", v, v, v).reshape(64, 8)
    amps = alice @ star_matrix() @ bob.conj().T
    return (np.abs(amps) ** 2).reshape(2, 2, 2, 2, 2, 2, 8)


def correlations(table: np.ndarray) -> np.ndarray:
    """I_1..I_4 from an outcome table."""
    alice_sign = np.array([(-1.0) ** sum(a) for a in product((0, 1), repeat=3)]).reshape(2, 2, 2)
    out = np.empty(4)
    for m in range(4):
        bob_sign = np.array([(-1.0) ** _BIT_MAPS[m](r >> 2 & 1, r >> 1 & 1, r & 1) for r in range(8)])
        mask = _G_MASKS[m]
        input_sign = np.array(
            [(-1.0) ** (mask[0] * x1 + mask[1] * x2 + mask[2] * x3) for x1, x2, x3 in product((0, 1), repeat=3)]
        ).reshape(2, 2, 2)
        out[m] = np.einsum("ijkpqrs,ijk,pqr,s->", table, input_sign, alice_sign, bob_sign) / 8.0
    return out


def table_problems(table: np.ndarray) -> list[str]:
    """Normalization for every input triple and no-signalling for every Alice."""
    problems = []
    if table.shape != (2, 2, 2, 2, 2, 2, 8):
        return [f"outcome table has shape {table.shape}"]
    norm = np.abs(table.sum(axis=(3, 4, 5, 6)) - 1.0).max()
    if not norm <= VALUE_TOL:
        problems.append(f"probabilities miss 1 by {norm:.3e}")
    for k in range(3):
        others = tuple(a for a in (3, 4, 5) if a != 3 + k) + (6,)
        marginal = table.sum(axis=others)  # axes x1, x2, x3, a_k
        own_x = np.moveaxis(marginal, k, 0)  # x_k first, the other inputs next
        spread = np.abs(own_x - own_x[:, :1, :1, :]).max()
        if not spread <= VALUE_TOL:
            problems.append(f"Alice {k + 1}'s marginal moves by {spread:.3e} with the other inputs")
    return problems


def network_problems(
    brute_I, analytic_I, table: np.ndarray, own_table: np.ndarray, S: float, headline: bool
) -> list[str]:
    """One network point: its table, both I routes, our own Born-rule table
    and, at the headline point, the rounded score."""
    problems = table_problems(table)
    brute_I = np.asarray(brute_I)
    gap = np.abs(brute_I - np.asarray(analytic_I)).max()
    if not gap <= VALUE_TOL:
        problems.append(f"brute-force and analytic I differ by {gap:.3e}")
    gap = np.abs(own_table - table).max()
    if not gap <= VALUE_TOL:
        problems.append(f"outcome table differs from the reference by {gap:.3e}")
    gap = np.abs(correlations(own_table) - brute_I).max()
    if not gap <= VALUE_TOL:
        problems.append(f"brute-force I differ from the reference contraction by {gap:.3e}")
    if headline and round(S, 4) != HEADLINE_S:
        problems.append(f"headline score {S!r} does not round to {HEADLINE_S}")
    return problems


# -- score and search ------------------------------------------------------


def closed_form_I(z, phi, theta, gamma) -> np.ndarray:
    """I_1..I_4 of the paper's closed forms, stacked on a leading axis; arrays broadcast."""
    z, phi, theta, gamma = (np.asarray(a, dtype=float) for a in (z, phi, theta, gamma))
    pz = np.arctan2(np.sqrt(np.maximum(3.0 * z * z - 1.0, 0.0)), np.sqrt(np.maximum(1.0 - z * z, 0.0)))
    q = math.pi / 4
    s2g = np.sin(2.0 * gamma)
    lift = z * (1.0 + np.sin(theta)) / (4.0 * math.sqrt(2.0))
    return np.stack(
        np.broadcast_arrays(
            z * s2g * np.cos(2.0 * (phi - pz)) * np.sin(phi + q) / 8.0,
            z * s2g * np.sin(phi + q) / 4.0,
            lift * np.cos(phi - pz + q),
            lift * np.sin(phi - pz + q),
        )
    )


def score(I) -> np.ndarray:
    return np.sum(np.cbrt(np.abs(I)), axis=0)


def score_tolerance(I) -> np.ndarray:
    """How far S = sum |I_m|^(1/3) may move when each I_m moves by VALUE_TOL.

    The cube root is steep near 0, so the allowance is wide only where some
    I_m nearly vanishes and stays near 1e-12 elsewhere.
    """
    a = np.abs(np.asarray(I))
    return VALUE_TOL + np.sum(np.cbrt(a + VALUE_TOL) - np.cbrt(np.maximum(a - VALUE_TOL, 0.0)), axis=0)


def box_of(pins: dict) -> tuple[tuple[float, float], ...]:
    """The optimizer's box with the pinned parameters fixed."""
    return tuple((pins[n], pins[n]) if n in pins else lim for n, lim in zip(PARAM_NAMES, OPTIMIZER_BOX))


def dense_grid_max(box) -> float:
    """Largest closed-form score on a grid of DENSE_POINTS per free parameter."""
    free = sum(hi > lo for lo, hi in box)
    axes = [np.linspace(lo, hi, DENSE_POINTS[free]) if hi > lo else np.array([lo]) for lo, hi in box]
    best = -np.inf
    mesh = np.meshgrid(axes[2], axes[3], indexing="ij")
    for z, phi in product(axes[0], axes[1]):  # one (theta, gamma) slab at a time keeps memory small
        best = max(best, float(score(closed_form_I(z, phi, *mesh)).max()))
    return best


def sweep_problems(samples, varying: str, lo: float, hi: float, points: int, fixed: dict) -> list[str]:
    """Grid and every score of a sweep against the closed forms."""
    values = np.array([v for v, _ in samples])
    scores = np.array([s for _, s in samples])
    if values.shape != (points,) or not np.array_equal(values, np.linspace(lo, hi, points)):
        return ["sweep grid is not the inclusive equally spaced grid"]
    args = {**fixed, varying: values}
    I = closed_form_I(*(args[n] for n in PARAM_NAMES))
    gap = np.abs(scores - score(I)) - score_tolerance(I)
    if not gap.max() <= 0.0:
        return [f"sweep score differs from the closed form beyond tolerance at {varying}={values[gap.argmax()]!r}"]
    return []


def brute_force_problems(S: float, brute_I, analytic_I) -> list[str]:
    """A score against the brute-force route at the same point."""
    problems = []
    gap = np.abs(np.asarray(brute_I) - np.asarray(analytic_I)).max()
    if not gap <= VALUE_TOL:
        problems.append(f"brute-force and analytic I differ by {gap:.3e}")
    if not abs(S - float(score(np.asarray(brute_I)))) <= score_tolerance(brute_I):
        problems.append(f"score {S!r} differs from the brute-force score")
    return problems


def curve_problems(z: float, scores, violates: bool) -> list[str]:
    """Whether a violation curve rises above the trilocal bound 2 as expected."""
    top = max(scores)
    if (top > 2.0) != violates:
        return [f"curve at z={z!r} peaks at {top!r}, expected {'above' if violates else 'at most'} 2"]
    return []


def optimum_problems(point, box) -> list[str]:
    problems = []
    for name, value, (lo, hi) in zip(PARAM_NAMES, point, box):
        if not lo - 1e-12 <= value <= hi + 1e-12:
            problems.append(f"optimum {name}={value!r} outside [{lo!r}, {hi!r}]")
    return problems


def below_grid_problems(S: float, grid_max: float) -> list[str]:
    if S < grid_max - VALUE_TOL:
        return [f"maximum {S!r} lies below the dense-grid value {grid_max!r}"]
    return []


# -- command line ----------------------------------------------------------


def mismatches(expected, actual, path: str = "") -> list[str]:
    """Where the parsed JSON ``actual`` differs from ``expected``, which holds
    JSON types only; objects compare on the expected keys."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path or 'report'} is not an object"]
        out = []
        for key, want in expected.items():
            if key not in actual:
                out.append(f"{path}.{key} missing")
            else:
                out.extend(mismatches(want, actual[key], f"{path}.{key}"))
        return out
    if isinstance(expected, (list, tuple)):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path} has the wrong length"]
        out = []
        for k, (want, got) in enumerate(zip(expected, actual)):
            out.extend(mismatches(want, got, f"{path}[{k}]"))
            if len(out) > 3:
                break
        return out
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path} is {actual!r}, expected {expected!r}"]
    return []
