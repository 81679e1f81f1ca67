"""Per-layer tracing of ``ejm`` from outside the program.

``Tracer.install`` wraps each traced public function in every ``ejm``
module namespace that binds it, so the wrapper runs wherever a caller looks
the name up.  Constructors are traced through the class's ``__post_init__``
and methods on the class.  A span records its duration; its self time is
that duration minus the time of the spans it encloses.  Spans are folded
into per-name totals as they close, so memory stays flat over a run.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time
from collections import defaultdict

# Layer, public name, and the argument key whose per-value call times are kept.
_SPANS = (
    ("qla", "partial_trace", None),
    ("qla", "bloch_vector", None),
    ("qla", "tensor_product", None),
    ("qla", "permute_qubits", None),
    ("bases", "n_qubit_ejm", "n"),
    ("analysis", "verify_orthonormal_complete", "family"),
    ("analysis", "reduced_bloch_vectors", None),
    ("analysis", "symmetry_report", "family"),
    ("analysis", "three_tangle", None),
    ("network", "outcome_table", "all"),
    ("network", "correlation_I_bruteforce", None),
    ("network", "correlation_I_analytic", None),
    ("network", "trilocal_score", None),
    ("optimize", "sweep", None),
    ("optimize", "maximize", None),
    ("optimize", "minimize", None),
    ("cli", "main", None),
    ("cli", "export", None),
)
_COUNTED_CLASSES = (("qla", "StateVector"), ("bases", "EjmParams"))
_SPAN_CLASSES = (("network", "StarScenario"),)
_SPAN_METHODS = (("bases", "BasisFamily", "matrix"),)

# Per-layer metric name -> unit.  Counts and self times are per workload
# round; ms_p50 is the median time of one call.
METRICS = {
    "qla.StateVector.count": "count",
    "qla.partial_trace.count": "count",
    "qla.partial_trace.self_s": "s",
    "qla.bloch_vector.count": "count",
    "qla.bloch_vector.self_s": "s",
    "qla.tensor_product.count": "count",
    "qla.permute_qubits.count": "count",
    "bases.EjmParams.count": "count",
    "bases.n_qubit_ejm.count": "count",
    "bases.n_qubit_ejm.self_s": "s",
    "bases.n_qubit_ejm.n3.ms_p50": "ms",
    "bases.n_qubit_ejm.n8.ms_p50": "ms",
    "bases.BasisFamily.matrix.count": "count",
    "bases.BasisFamily.matrix.self_s": "s",
    "analysis.verify_orthonormal_complete.self_s": "s",
    "analysis.verify_orthonormal_complete.n8.ms_p50": "ms",
    "analysis.reduced_bloch_vectors.self_s": "s",
    "analysis.symmetry_report.self_s": "s",
    "analysis.symmetry_report.n8.ms_p50": "ms",
    "analysis.three_tangle.self_s": "s",
    "network.StarScenario.count": "count",
    "network.StarScenario.self_s": "s",
    "network.outcome_table.count": "count",
    "network.outcome_table.self_s": "s",
    "network.outcome_table.ms_p50": "ms",
    "network.correlation_I_bruteforce.self_s": "s",
    "network.correlation_I_analytic.count": "count",
    "network.correlation_I_analytic.self_s": "s",
    "network.trilocal_score.count": "count",
    "network.trilocal_score.self_s": "s",
    "optimize.sweep.self_s": "s",
    "optimize.sweep.points": "count",
    "optimize.maximize.count": "count",
    "optimize.maximize.self_s": "s",
    "optimize.maximize.evaluations": "count",
    "optimize.maximize.grid_evaluations": "count",
    "optimize.minimize.count": "count",
    "optimize.minimize.self_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.modules_imported": "count",
    "cli.main.self_s": "s",
    "cli.export.self_s": "s",
}


class _Stat:
    __slots__ = ("count", "self_s", "calls")

    def __init__(self) -> None:
        self.count = 0
        self.self_s = 0.0
        self.calls: dict[object, list[float]] = defaultdict(list)


def _call_key(kind, args, kwargs):
    if kind == "n":
        return kwargs["n"] if "n" in kwargs else args[1]
    if kind == "family":
        return (kwargs.get("family") or args[0]).n_qubits
    return kind


class Tracer:
    """Spans and counts at the public boundaries of the ``ejm`` layers."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.extra: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._paused = 0
        self._undo: list[tuple[object, str, object]] = []
        self._grid_mark: int | None = None

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn, key_kind=None, on_enter=None, on_exit=None):
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args, kwargs)
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                stat.count += 1
                stat.self_s += elapsed - children[0]
                if key_kind is not None:
                    stat.calls[_call_key(key_kind, args, kwargs)].append(elapsed)
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            if not self._paused:
                stat.count += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sweep_exit(self, args, kwargs, result) -> None:
        self.extra["optimize.sweep.points"] += len(result)

    def _maximize_enter(self, args, kwargs) -> None:
        self._grid_mark = self.stats["network.trilocal_score"].count

    def _maximize_exit(self, args, kwargs, result) -> None:
        self.extra["optimize.maximize.evaluations"] += len(result.trace)
        if self._grid_mark is not None:  # no refinement ran: every evaluation was on the grid
            self.extra["optimize.maximize.grid_evaluations"] += len(result.trace)
        self._grid_mark = None

    def _minimize_enter(self, args, kwargs) -> None:
        if self._grid_mark is not None:
            done = self.stats["network.trilocal_score"].count - self._grid_mark
            self.extra["optimize.maximize.grid_evaluations"] += done
            self._grid_mark = None

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block are neither timed nor counted."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"ejm.{layer}") for layer in ("qla", "bases", "analysis", "network", "optimize", "cli")}
        modules = [m for name, m in list(sys.modules.items()) if name == "ejm" or name.startswith("ejm.")]
        hooks = {
            "sweep": (None, self._sweep_exit),
            "maximize": (self._maximize_enter, self._maximize_exit),
            "minimize": (self._minimize_enter, None),
        }
        for layer, name, key_kind in _SPANS:
            original = getattr(layers[layer], name)
            on_enter, on_exit = hooks.get(name, (None, None))
            wrapper = self._span(f"{layer}.{name}", original, key_kind, on_enter, on_exit)
            for module in modules:
                if vars(module).get(name) is original:
                    self._patch(module, name, wrapper)
        for layer, cls_name in _COUNTED_CLASSES:
            cls = getattr(layers[layer], cls_name)
            self._patch(cls, "__post_init__", self._counter(f"{layer}.{cls_name}", cls.__post_init__))
        for layer, cls_name in _SPAN_CLASSES:
            cls = getattr(layers[layer], cls_name)
            self._patch(cls, "__post_init__", self._span(f"{layer}.{cls_name}", cls.__post_init__))
        for layer, cls_name, method in _SPAN_METHODS:
            cls = getattr(layers[layer], cls_name)
            self._patch(cls, method, self._span(f"{layer}.{cls_name}.{method}", getattr(cls, method)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric except the ``cli`` interpreter probes."""
        out: dict[str, float] = {}
        for name in METRICS:
            base, _, field = name.rpartition(".")
            if field == "count":
                out[name] = self.stats[base].count / rounds
            elif field == "self_s":
                out[name] = self.stats[base].self_s / rounds
            elif field == "ms_p50":
                stem, _, key = base.rpartition(".")
                if key[:1] == "n" and key[1:].isdigit():
                    calls = self.stats[stem].calls.get(int(key[1:]), [])
                else:
                    calls = self.stats[base].calls.get("all", [])
                out[name] = 1e3 * statistics.median(calls) if calls else 0.0
            elif field in ("points", "evaluations", "grid_evaluations"):
                out[name] = self.extra[name] / rounds
        return out
