"""Outside-in tracing of the wgeig layers for the benchmark's traced run.

Every public function of the layer modules is wrapped, and the wrapper is
bound in place of the original wherever a wgeig module holds the function
under a name: `from .eigsolve import smallest_eigs` leaves a second binding
in the importing module, and a wrapper on the defining module alone would
never see those calls.  Each call records one span (name, start, end,
parent).  The SuperLU objects returned by the factorization helpers are
wrapped in a proxy that counts solved right-hand-side columns and charges
them to the innermost open span.  Nothing in the program itself changes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("mesh", "wg_core", "linalg", "eigsolve", "twogrid", "analysis", "cli")

# Bytes per stored LU entry: one float64 value and one int32 row index.
LU_ENTRY_BYTES = 12


class CountingLU:
    """SuperLU stand-in that counts solved columns; all else is delegated."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        self._tracer.count_solves(1 if rhs.ndim == 1 else rhs.shape[1])
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _fill(lu) -> int:
    return int(lu.L.nnz + lu.U.nnz)


def _observe_factor_spd(tracer, lu):
    tracer.sample("linalg.factor_spd.fill_nnz", _fill(lu))
    return CountingLU(lu, tracer)


def _observe_factor_indefinite(tracer, result):
    lu, pivot_ratio = result
    tracer.sample("linalg.factor_indefinite.fill_nnz", _fill(lu))
    tracer.sample("linalg.factor_indefinite.pivot_ratio", float(pivot_ratio))
    return CountingLU(lu, tracer), pivot_ratio


def _observe_refined_solve(tracer, result):
    tracer.sample("linalg.refined_solve.residual", float(result[1]))
    return result


def _observe_smallest_eigs(tracer, pairs):
    tracer.sample("eigsolve.smallest_eigs.residual", max(p.residual for p in pairs))
    return pairs


def _observe_assemble(tracer, forms):
    tracer.sample("wg_core.ndof", int(forms.A.shape[0]))
    tracer.sample("wg_core.nnz_A", int(forms.A.nnz))
    return forms


# Run after the span has closed, inside a span of their own, so the cost of
# reading a result (building the L and U matrices to count their entries) is
# charged neither to the layer nor to its caller's self time.
OBSERVE_SPAN = "trace.observe"
_OBSERVERS = {
    "linalg.factor_spd": _observe_factor_spd,
    "linalg.factor_indefinite": _observe_factor_indefinite,
    "linalg.refined_solve": _observe_refined_solve,
    "eigsolve.smallest_eigs": _observe_smallest_eigs,
    "wg_core.assemble": _observe_assemble,
}


class Tracer:
    """In-memory spans, per-span solve counts and sampled result values."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.solves: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._open: list[int] = []

    def count_solves(self, columns: int) -> None:
        owner = self.spans[self._open[-1]][0] if self._open else "<none>"
        self.solves[owner] += columns

    def sample(self, key: str, value: float) -> None:
        self.samples[key].append(value)

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is None:
                return result
            with self.span(OBSERVE_SPAN):
                return observe(self, result)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def install(self) -> None:
        """Wrap the layer functions and rebind every name that refers to one."""
        import wgeig.analysis  # noqa: F401  (imports every layer module)
        import wgeig.cli  # noqa: F401
        from wgeig.wg_core import WgSpace

        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"wgeig.{layer}"]
            for name, value in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrapped[value] = self.wrap(f"{layer}.{name}", value)
        for modname, module in list(sys.modules.items()):
            if modname != "wgeig" and not modname.startswith("wgeig."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, name, wrapped[value])
        WgSpace.kit = self.wrap("wg_core.kit", WgSpace.kit)

    def report(self) -> dict:
        return {"spans": self.spans, "solves": dict(self.solves),
                "samples": dict(self.samples)}


def span_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return dict(table)


def top_level_seconds(spans) -> float:
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def layer_metrics(report: dict) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced run's report."""
    table = span_table(report["spans"])
    solves = report["solves"]
    samples = report["samples"]

    def span(name, field):
        return table.get(name, {}).get(field, 0)

    def pick(key, reduce, empty):
        values = samples.get(key, [])
        return reduce(values) if values else empty

    out: dict[str, float] = {}
    for name in ("mesh.build_uniform", "wg_core.kit", "wg_core.assemble",
                 "wg_core.qh_project", "linalg.factor_spd",
                 "linalg.factor_indefinite", "linalg.refined_solve",
                 "eigsolve.smallest_eigs", "eigsolve.solve_shifted",
                 "eigsolve.rayleigh_quotient", "twogrid.cross_mass_rhs",
                 "twogrid.run_sipg", "analysis.energy_error", "cli.main"):
        out[f"{name}.s"] = span(name, "s")
        out[f"{name}.self_s"] = span(name, "self_s")
        out[f"{name}.calls"] = span(name, "calls")
    out["wg_core.ndof"] = pick("wg_core.ndof", max, 0)
    out["wg_core.nnz_A"] = pick("wg_core.nnz_A", max, 0)
    out["linalg.factor_spd.fill_nnz"] = pick("linalg.factor_spd.fill_nnz", max, 0)
    out["linalg.factor_indefinite.fill_nnz"] = pick(
        "linalg.factor_indefinite.fill_nnz", max, 0)
    # A pivot ratio lies in (0, 1]; 1 is the value of a min over no factorization.
    out["linalg.factor_indefinite.pivot_ratio_min"] = pick(
        "linalg.factor_indefinite.pivot_ratio", min, 1.0)
    out["linalg.refined_solve.refine_steps"] = (
        solves.get("linalg.refined_solve", 0) - span("linalg.refined_solve", "calls"))
    out["linalg.refined_solve.residual_max"] = pick(
        "linalg.refined_solve.residual", max, 0.0)
    out["eigsolve.smallest_eigs.op_applies"] = solves.get("eigsolve.smallest_eigs", 0)
    out["eigsolve.smallest_eigs.residual_max"] = pick(
        "eigsolve.smallest_eigs.residual", max, 0.0)
    fill_total = (sum(samples.get("linalg.factor_spd.fill_nnz", []))
                  + sum(samples.get("linalg.factor_indefinite.fill_nnz", [])))
    out["linalg.lu_bytes_computed"] = LU_ENTRY_BYTES * fill_total
    out["trace.spans"] = len(report["spans"])
    return out
