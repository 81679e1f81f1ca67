"""Command-line interface: build and verify bases, report entanglement and
symmetry, evaluate the star network, run sweeps and optimizations, and export
machine-readable JSON/CSV reports. `main` checks the parameter flags and --n
once, builds the family of each command that takes --n, and wraps each
handler's fields in the report's schema and version, adding n and the
family's params on those commands. A report's fields come from the
library's result dataclasses, whose field names are its keys."""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

from .analysis import (
    ORTHONORMAL_ATOL,
    concurrence,
    symmetry_report,
    tangle_law,
    three_tangle,
    verify_orthonormal_complete,
)
from .bases import DOMAIN, LIMITS, PARAM_NAMES, EjmParams, check_domain, check_limit, n_qubit_ejm
from .network import TRILOCAL_BOUND, trilocal_score
from .optimize import DEFAULT_BUDGET, SweepSpec, maximize, sweep
from .qla import ContractError

SCHEMA_VERSION = 4
_ANGLE_FLAGS = ("phi", "theta", "gamma")
_PARAM_HELP = {
    "z": "height parameter, 1/sqrt(3) <= |z| <= 1",
    "phi": "azimuth in [-pi, pi] (radians)",
    "theta": "mixing angle in [0, pi/2] (radians)",
    "gamma": "entangling angle in [0, pi/2] (radians)",
}

# Radian defaults by flag, which --deg leaves alone: the headline violation point,
# so `ejm network` with no flags demonstrates it, and DOMAIN as the optimizer's box.
_DEFAULTS = {"z": 1.0, "phi": 0.1781, "theta": math.pi / 2, "gamma": math.pi / 4}
_DEFAULTS.update({f"{name}-{end}": DOMAIN[name][k] for name in PARAM_NAMES for k, end in enumerate(("min", "max"))})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ejm",
        description="Symmetric joint-measurement bases and the trilocal star network.",
    )
    parser.set_defaults(format="json")  # --format belongs to sweep; every other report is JSON
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, schema: str, handler, summary: str, params: bool = True,
            n: dict | None = None) -> argparse.ArgumentParser:
        """Subcommand name writing schema reports; n: keyword arguments of its --n, None for none."""
        p = sub.add_parser(name, help=summary)
        # Dash tokens this private argparse pattern matches are values; its default misses -5e-15, -inf and -nan.
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
        p.set_defaults(handler=handler, schema=schema)
        for param in PARAM_NAMES if params else ():
            p.add_argument(f"--{param}", type=float, help=_PARAM_HELP[param])
        p.add_argument("--deg", action="store_true", help="interpret angle flags as degrees")
        p.add_argument("--output", type=Path, default=None, help="write the report here instead of stdout")
        if n is not None:
            p.add_argument("--n", type=int, default=3, **n)
        return p

    qubits = {"help": "number of qubits"}
    p_verify = add("verify", "verify-report", _cmd_verify, "orthonormality and completeness of a basis family", n=qubits)
    p_verify.add_argument("--tol", type=float, default=ORTHONORMAL_ATOL, help="acceptance threshold for both errors")
    add("tangle", "entanglement-report", _cmd_tangle,
        "entanglement of every basis state (three-tangle for n=3, concurrence for n=2)", n={"choices": (2, 3)})
    add("reduce", "symmetry-report", _cmd_reduce, "single-qubit reductions and symmetry report", n=qubits)
    add("basis", "basis", _cmd_basis, "emit the basis state amplitudes", n=qubits)

    p_network = add("network", "correlation-report", _cmd_network, "trilocal correlations and violation score")
    p_network.add_argument("--method", choices=("analytic", "brute_force"), default="analytic")
    p_network.add_argument("--cross-check", action="store_true", help="compare both evaluation routes")

    p_sweep = add("sweep", "sweep", _cmd_sweep, "scan the score along one parameter")
    p_sweep.add_argument("--vary", required=True, choices=PARAM_NAMES)
    p_sweep.add_argument("--lo", type=float, required=True)
    p_sweep.add_argument("--hi", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=200)
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json", help="report format")

    p_opt = add("optimize", "optimum", _cmd_optimize, "maximize the score over a parameter box", params=False)
    p_opt.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="maximum score evaluations")
    for flag in (f"--{name}-{end}" for name in PARAM_NAMES for end in ("min", "max")):
        p_opt.add_argument(flag, type=float)

    return parser


def _param(args: argparse.Namespace, name: str, value: float, flag: str | None = None) -> float:
    """value of parameter or size name checked against the library's DOMAIN or
    LIMITS, angles in radians (converted under --deg), or the flag's radian
    default if the flag was not given; outside them, a ValueError that names
    --flag (--name)."""
    try:
        if name in LIMITS:
            return check_limit(name, value)
        if value is None:
            value = _DEFAULTS[flag or name]
        elif args.deg and name in _ANGLE_FLAGS:
            value = math.radians(value)
        return check_domain(name, value)
    except ValueError as exc:
        raise ValueError(f"--{flag or name} out of domain: {exc}") from None


def export(report: dict, fmt: str = "json") -> bytes:
    """Serialize a report deterministically.

    JSON carries a schema name and version and round-trips every float
    bit-exactly; CSV, which only `ejm sweep` offers, holds a sweep's samples
    with 18 significant digits (format .17e).  Any other fmt is a ValueError.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format {fmt!r}: expected 'json' or 'csv'")
    if fmt == "csv":
        lines = ["value,S"]
        lines.extend(f"{value:.17e},{score:.17e}" for value, score in report["samples"])
        return ("\n".join(lines) + "\n").encode("utf-8")
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _emit(data: bytes, output: Path | None) -> None:
    """Write data to the --output file, or to stdout without one."""
    try:
        if output is not None:
            output.write_bytes(data)
        elif sys.stdout is None:  # the process started with its stdout closed
            raise OSError("stdout is closed")
        else:
            sys.stdout.write(data.decode("utf-8"))
            sys.stdout.flush()
    except OSError as exc:
        where = "stdout" if output is None else "--output"
        raise ValueError(f"{where} cannot be written: {exc}") from None


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    if not 0.0 < args.tol < math.inf:
        raise ValueError(f"--tol out of domain: tol={args.tol!r} must be positive and finite")
    report = verify_orthonormal_complete(args.family)
    ok = max(report.gram_error, report.completeness_error) <= args.tol
    return (0 if ok else 1), {**asdict(report), "tol": args.tol, "ok": ok}


def _cmd_tangle(args: argparse.Namespace) -> tuple[int, dict]:
    name, measure = ("three_tangle", three_tangle) if args.n == 3 else ("concurrence", concurrence)
    values = [{**asdict(label), "value": measure(state)} for label, state in args.family.states.items()]
    numbers = [entry["value"] for entry in values]
    fields = {"measure": name, "values": values, "spread": max(numbers) - min(numbers)}
    if args.n == 3:
        fields["iso_value"] = tangle_law(args.params)
    return 0, fields


def _cmd_reduce(args: argparse.Namespace) -> tuple[int, dict]:
    report = symmetry_report(args.family)
    rows = zip(map(asdict, args.family.labels), report.vectors.rows.tolist())  # one asdict per label
    vectors = [{**label, "qubit": q, "vector": v} for label, row in rows for q, v in enumerate(row, 1)]
    return 0, {**vars(report), "vectors": vectors}


def _cmd_basis(args: argparse.Namespace) -> tuple[int, dict]:
    matrix = args.family.matrix()
    amplitudes = matrix.view(float).reshape(*matrix.shape, 2).tolist()  # [re, im] per amplitude
    return 0, {"states": [{**asdict(label), "amplitudes": row} for label, row in zip(args.family.labels, amplitudes)]}


def _cmd_network(args: argparse.Namespace) -> tuple[int, dict]:
    report = trilocal_score(args.params, method=args.method, cross_check=args.cross_check)
    return 0, {"params": asdict(args.params), **asdict(report)}


def _cmd_sweep(args: argparse.Namespace) -> tuple[int, dict]:
    fixed = {name: getattr(args.params, name) for name in PARAM_NAMES if name != args.vary}
    lo = _param(args, args.vary, args.lo, "lo")
    hi = _param(args, args.vary, args.hi, "hi")
    spec = SweepSpec(varying=args.vary, lo=lo, hi=hi, points=_param(args, "points", args.points), fixed=fixed)
    return 0, {**asdict(spec), "samples": sweep(spec)}


def _cmd_optimize(args: argparse.Namespace) -> tuple[int, dict]:
    bounds = {
        name: tuple(_param(args, name, getattr(args, f"{name}_{end}"), f"{name}-{end}") for end in ("min", "max"))
        for name in PARAM_NAMES
    }
    result = maximize(bounds, budget=_param(args, "budget", args.budget))
    return 0, {
        "params": asdict(result.params),
        "S": result.S,
        "violated": result.S > TRILOCAL_BOUND,
        "budget": args.budget,
        "n_evaluations": len(result.trace),
        "warning": result.warning,
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    envelope = {"schema": args.schema, "version": SCHEMA_VERSION}
    try:
        if "z" in vars(args):  # every command but optimize takes the parameter flags
            args.params = EjmParams(**{name: _param(args, name, getattr(args, name)) for name in PARAM_NAMES})
        if "n" in vars(args):
            envelope["n"] = args.n = _param(args, "n", args.n)
            envelope["params"] = asdict(args.params)
            args.family = n_qubit_ejm(args.params, args.n)
        code, fields = args.handler(args)
        _emit(export({**fields, **envelope}, args.format), args.output)
    except (ValueError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ContractError) else 2  # 1: a numeric contract failed
    return code
