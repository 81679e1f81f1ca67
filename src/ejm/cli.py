"""Command-line interface: build and verify bases, report entanglement and
symmetry, evaluate the star network, run sweeps and optimizations, and export
machine-readable JSON/CSV reports."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .analysis import (
    ORTHONORMAL_ATOL,
    concurrence,
    symmetry_report,
    tangle_law,
    three_tangle,
    verify_orthonormal_complete,
)
from .bases import DOMAIN, PARAM_NAMES, BasisLabel, EjmParams, ResourceLimitError, check_domain, n_qubit_ejm
from .network import trilocal_score
from .optimize import SweepSpec, maximize, sweep

SCHEMA_VERSION = 2
_ANGLE_FLAGS = ("phi", "theta", "gamma")

# The headline violation point, so `ejm network` with no flags demonstrates it.
_DEFAULTS = {"z": 1.0, "phi": 0.1781, "theta": math.pi / 2, "gamma": math.pi / 4}


class CliError(Exception):
    """Invalid command line; maps to exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ejm",
        description="Symmetric joint-measurement bases and the trilocal star network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, params: bool = True) -> None:
        if params:
            p.add_argument("--z", type=float, default=_DEFAULTS["z"], help="height parameter, 1/sqrt(3) <= |z| <= 1")
            p.add_argument("--phi", type=float, default=_DEFAULTS["phi"], help="azimuth in [-pi, pi] (radians)")
            p.add_argument("--theta", type=float, default=_DEFAULTS["theta"], help="mixing angle in [0, pi/2] (radians)")
            p.add_argument("--gamma", type=float, default=_DEFAULTS["gamma"], help="entangling angle in [0, pi/2] (radians)")
        p.add_argument("--deg", action="store_true", help="interpret angle flags as degrees")
        p.add_argument("--output", type=Path, default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="report format (csv: sweep only)")

    p_verify = sub.add_parser("verify", help="orthonormality and completeness of a basis family")
    add_common(p_verify)
    p_verify.add_argument("--n", type=int, default=3, help="number of qubits")
    p_verify.add_argument("--tol", type=float, default=ORTHONORMAL_ATOL, help="acceptance threshold for both errors")

    p_tangle = sub.add_parser("tangle", help="entanglement of every basis state (three-tangle for n=3, concurrence for n=2)")
    add_common(p_tangle)
    p_tangle.add_argument("--n", type=int, default=3, choices=(2, 3))

    p_reduce = sub.add_parser("reduce", help="single-qubit reductions and symmetry report")
    add_common(p_reduce)
    p_reduce.add_argument("--n", type=int, default=3, help="number of qubits")

    p_basis = sub.add_parser("basis", help="emit the basis state amplitudes")
    add_common(p_basis)
    p_basis.add_argument("--n", type=int, default=3, help="number of qubits")

    p_network = sub.add_parser("network", help="trilocal correlations and violation score")
    add_common(p_network)
    p_network.add_argument("--method", choices=("analytic", "brute_force"), default="analytic")
    p_network.add_argument("--cross-check", action="store_true", help="compare both evaluation routes")

    p_sweep = sub.add_parser("sweep", help="scan the score along one parameter")
    add_common(p_sweep)
    p_sweep.add_argument("--vary", required=True, choices=PARAM_NAMES)
    p_sweep.add_argument("--lo", type=float, required=True)
    p_sweep.add_argument("--hi", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=200)

    p_opt = sub.add_parser("optimize", help="maximize the score over a parameter box")
    add_common(p_opt, params=False)
    p_opt.add_argument("--budget", type=int, default=20000, help="maximum score evaluations")
    for name in PARAM_NAMES:
        lo, hi = DOMAIN[name]
        p_opt.add_argument(f"--{name}-min", type=float, default=lo)
        p_opt.add_argument(f"--{name}-max", type=float, default=hi)

    return parser


def _param(args: argparse.Namespace, name: str, value: float, flag: str | None = None) -> float:
    """value of parameter name in radians (angles under --deg), checked against
    the library domain; outside it, a CliError that names --flag (--name)."""
    if args.deg and name in _ANGLE_FLAGS:
        value = math.radians(value)
    try:
        return check_domain(name, value)
    except ValueError as exc:
        raise CliError(f"--{flag or name} out of domain: {exc}") from None


def _params_from_args(args: argparse.Namespace) -> EjmParams:
    return EjmParams(**{name: _param(args, name, getattr(args, name)) for name in PARAM_NAMES})


def _params_dict(params: EjmParams) -> dict:
    return {
        "z": float(params.z),
        "phi": float(params.phi),
        "theta": float(params.theta),
        "gamma": float(params.gamma),
        "phi_z": float(params.phi_z),
    }


def _label_dict(label: BasisLabel) -> dict:
    return {"i": label.i, "j": list(label.j), "l": label.l}


def export(report: dict, fmt: str = "json") -> bytes:
    """Serialize a report deterministically.

    JSON carries a schema name and version and round-trips every float
    bit-exactly; CSV is available for sweep reports only and formats
    numbers with 17 significant digits.
    """
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")
    if fmt == "csv":
        if report.get("schema") != "sweep":
            raise CliError(f"--format csv is only available for sweep reports, not {report.get('schema')!r}")
        lines = ["value,S"]
        lines.extend(f"{value:.17e},{score:.17e}" for value, score in report["samples"])
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise CliError(f"unknown format {fmt!r}")


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    params = _params_from_args(args)
    report = verify_orthonormal_complete(n_qubit_ejm(params, args.n))
    ok = max(report.gram_error, report.completeness_error) < args.tol
    payload = {
        "schema": "verify-report",
        "version": SCHEMA_VERSION,
        "n": args.n,
        "params": _params_dict(params),
        "gram_error": report.gram_error,
        "completeness_error": report.completeness_error,
        "tol": float(args.tol),
        "ok": ok,
    }
    return (0 if ok else 1), payload


def _cmd_tangle(args: argparse.Namespace) -> tuple[int, dict]:
    params = _params_from_args(args)
    family = n_qubit_ejm(params, args.n)
    measure = three_tangle if args.n == 3 else concurrence
    values = [
        {**_label_dict(label), "value": float(measure(state))}
        for label, state in family.states.items()
    ]
    numbers = [entry["value"] for entry in values]
    payload = {
        "schema": "entanglement-report",
        "version": SCHEMA_VERSION,
        "n": args.n,
        "measure": "three_tangle" if args.n == 3 else "concurrence",
        "params": _params_dict(params),
        "values": values,
        "spread": float(max(numbers) - min(numbers)),
    }
    if args.n == 3:
        payload["iso_value"] = float(tangle_law(params))
    return 0, payload


def _cmd_reduce(args: argparse.Namespace) -> tuple[int, dict]:
    params = _params_from_args(args)
    report = symmetry_report(n_qubit_ejm(params, args.n))
    vectors = [
        {**_label_dict(label), "qubit": qubit, "vector": [v.x, v.y, v.z]}
        for (label, qubit), v in report.vectors.items()
    ]
    payload = {
        "schema": "symmetry-report",
        "version": SCHEMA_VERSION,
        "n": args.n,
        "params": _params_dict(params),
        "vectors": vectors,
        "radii": list(report.radii),
        "vector_sum": [report.vector_sum.x, report.vector_sum.y, report.vector_sum.z],
        "parallelepiped_ok": report.parallelepiped_ok,
        "mirror_pairs_ok": report.mirror_pairs_ok,
        "degenerate": report.degenerate,
    }
    return 0, payload


def _cmd_basis(args: argparse.Namespace) -> tuple[int, dict]:
    params = _params_from_args(args)
    family = n_qubit_ejm(params, args.n)
    states = [
        {
            **_label_dict(label),
            "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
        }
        for label, state in family.states.items()
    ]
    payload = {
        "schema": "basis",
        "version": SCHEMA_VERSION,
        "n": args.n,
        "params": _params_dict(params),
        "states": states,
    }
    return 0, payload


def _cmd_network(args: argparse.Namespace) -> tuple[int, dict]:
    params = _params_from_args(args)
    report = trilocal_score(params, method=args.method, cross_check=args.cross_check)
    payload = {
        "schema": "correlation-report",
        "version": SCHEMA_VERSION,
        "params": _params_dict(params),
        "I": [float(v) for v in report.I],
        "S": float(report.S),
        "violated": report.violated,
        "method": report.method,
    }
    return 0, payload


def _cmd_sweep(args: argparse.Namespace) -> tuple[int, dict]:
    fixed = {name: _param(args, name, getattr(args, name)) for name in PARAM_NAMES if name != args.vary}
    lo = _param(args, args.vary, args.lo)
    hi = _param(args, args.vary, args.hi)
    spec = SweepSpec(varying=args.vary, lo=lo, hi=hi, points=args.points, fixed=fixed)
    samples = sweep(spec)
    payload = {
        "schema": "sweep",
        "version": SCHEMA_VERSION,
        "varying": args.vary,
        "lo": float(lo),
        "hi": float(hi),
        "points": args.points,
        "fixed": {k: float(v) for k, v in fixed.items()},
        "samples": [[v, s] for v, s in samples],
    }
    return 0, payload


def _cmd_optimize(args: argparse.Namespace) -> tuple[int, dict]:
    bounds = {
        name: tuple(_param(args, name, getattr(args, f"{name}_{end}"), f"{name}-{end}") for end in ("min", "max"))
        for name in PARAM_NAMES
    }
    if args.budget < 100:
        raise CliError(f"--budget out of domain: {args.budget!r} must be at least 100")
    result = maximize(bounds, budget=args.budget)
    payload = {
        "schema": "optimum",
        "version": SCHEMA_VERSION,
        "params": _params_dict(result.params),
        "S": float(result.S),
        "violated": result.S > 2.0,
        "budget": args.budget,
        "n_evaluations": len(result.trace),
        "warning": result.warning,
    }
    return 0, payload


_COMMANDS = {
    "verify": _cmd_verify,
    "tangle": _cmd_tangle,
    "reduce": _cmd_reduce,
    "basis": _cmd_basis,
    "network": _cmd_network,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload = _COMMANDS[args.command](args)
        data = export(payload, args.format)
    except (CliError, ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output is not None:
        args.output.write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
