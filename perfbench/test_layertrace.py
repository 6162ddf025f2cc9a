"""Tests of the benchmark's tracing and correctness gate on tiny configurations.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layertrace import layer_metrics  # noqa: E402

TINY = {
    "direct": ("solve", "--level", "3", "--num-eigs", "6"),
    "twogrid": ("table", "--fine-level", "3", "--coarse-levels", "2", "--num-eigs", "6"),
    "biharm": ("sipg", "--problem", "biharmonic", "--degree", "2",
               "--coarse-level", "2", "--fine-level", "3", "--num-eigs", "6"),
}

# Laplacian clusters of the first six eigenvalues have multiplicities
# 1, 2, 2, 1, 2, 2: one projection per generator, so 10 per six energy errors.
EXPECTED_CALLS = {
    "direct": {
        "cli.main": 1, "mesh.build_uniform": 1, "wg_core.assemble": 1,
        "eigsolve.smallest_eigs": 1, "linalg.factor_spd": 1,
        "linalg.factor_indefinite": 0, "linalg.refined_solve": 0,
        "eigsolve.solve_shifted": 0, "eigsolve.rayleigh_quotient": 0,
        "twogrid.cross_mass_rhs": 0, "twogrid.run_sipg": 0,
        "analysis.energy_error": 6, "wg_core.qh_project": 10,
    },
    "twogrid": {
        "cli.main": 1, "mesh.build_uniform": 2, "wg_core.assemble": 2,
        "eigsolve.smallest_eigs": 1, "linalg.factor_spd": 1,
        "linalg.factor_indefinite": 6, "linalg.refined_solve": 6,
        "eigsolve.solve_shifted": 6, "eigsolve.rayleigh_quotient": 6,
        "twogrid.cross_mass_rhs": 6, "twogrid.run_sipg": 1,
        "analysis.energy_error": 6, "wg_core.qh_project": 10,
    },
    # The direct fine solve (analysis) and the coarse solve (twogrid) both
    # call smallest_eigs, each through its own imported name.
    "biharm": {
        "cli.main": 1, "mesh.build_uniform": 2, "wg_core.assemble": 2,
        "eigsolve.smallest_eigs": 2, "linalg.factor_spd": 2,
        "linalg.factor_indefinite": 6, "linalg.refined_solve": 6,
        "eigsolve.solve_shifted": 6, "eigsolve.rayleigh_quotient": 6,
        "twogrid.cross_mass_rhs": 6, "twogrid.run_sipg": 1,
        "analysis.energy_error": 0, "wg_core.qh_project": 0,
    },
}

COUNTS = ("wg_core.ndof", "wg_core.nnz_A", "linalg.factor_spd.fill_nnz",
          "linalg.factor_indefinite.fill_nnz", "linalg.refined_solve.refine_steps",
          "eigsolve.smallest_eigs.op_applies", "linalg.lu_bytes_computed", "trace.spans")


def _child(tmp_path, *argv):
    return run.run_child(tmp_path, time.monotonic() + run.DEADLINE_S, list(argv))


def _traced(tmp_path, argv):
    result = _child(tmp_path, "--trace", "--", *argv, "--output", "csv")
    assert result.report["exit_code"] == 0, result.stderr
    return result, layer_metrics(result.report["trace"])


@pytest.mark.parametrize("config", sorted(TINY))
def test_span_counts_repeat_exactly(tmp_path, config):
    first, metrics = _traced(tmp_path, TINY[config])
    for name, calls in EXPECTED_CALLS[config].items():
        assert metrics[f"{name}.calls"] == calls, name
    assert metrics["eigsolve.smallest_eigs.op_applies"] > 0
    assert metrics["linalg.factor_spd.fill_nnz"] > 0
    if EXPECTED_CALLS[config]["linalg.factor_indefinite"]:
        assert 0.0 < metrics["linalg.factor_indefinite.pivot_ratio_min"] <= 1.0
        assert metrics["linalg.refined_solve.residual_max"] <= run.SOLVER_TOL
    assert metrics["eigsolve.smallest_eigs.residual_max"] <= run.SOLVER_TOL
    # The cli.main span is the only top-level span and covers its children.
    assert metrics["cli.main.s"] >= metrics["cli.main.self_s"] > 0.0

    _, again = _traced(tmp_path, TINY[config])
    for name in COUNTS + tuple(f"{n}.calls" for n in EXPECTED_CALLS[config]):
        assert again[name] == metrics[name], name
    # The traced command prints what the untraced one does, timings aside.
    plain = _child(tmp_path, "--", *TINY[config], "--output", "csv")
    assert _without_seconds(plain.stdout) == _without_seconds(first.stdout)


def _without_seconds(stdout):
    return [line.rsplit(",", 1)[0] for line in stdout.splitlines()]


def _fake(stdout, stderr="", exit_code=0):
    return run.RunResult(spawned=0.0, wall_s=1.0, report={"exit_code": exit_code},
                         stdout=stdout, stderr=stderr)


def _csv(workload, scale=None, blank=None):
    ref = workload.reference
    header = "index," + ",".join(ref) + ",seconds"
    lines = [header]
    for j in range(1, run.NUM_EIGS + 1):
        cells = []
        for column, values in ref.items():
            value = values[j - 1]
            if scale and scale[0] == j:
                value *= scale[1]
            cells.append("" if blank == j else f"{value:.10g}")
        lines.append(f"{j}," + ",".join(cells) + ",0.5")
    return "\n".join(lines) + "\n"


def test_correctness_gate_counts_failed_pairs():
    workload = run.WORKLOADS["biharm-k2-sipg-H2-h6"]
    assert run.failed_pairs(workload, _fake(_csv(workload))) == 0
    # Inside the tolerance: a last-digit change passes.
    assert run.failed_pairs(workload, _fake(_csv(workload, scale=(2, 1 + 1e-9)))) == 0
    assert run.failed_pairs(workload, _fake(_csv(workload, scale=(2, 1 + 1e-6)))) == 1
    assert run.failed_pairs(workload, _fake(_csv(workload, scale=(3, math.nan)))) == 1
    assert run.failed_pairs(workload, _fake(_csv(workload, blank=4))) == 1
    assert run.failed_pairs(workload, _fake(_csv(workload).rsplit("\n", 2)[0])) == 1
    warned = "warning: index 5: shift 1.0 collided with the fine spectrum\n"
    assert run.failed_pairs(workload, _fake(_csv(workload), stderr=warned)) == 1
    assert run.failed_pairs(workload, _fake(_csv(workload), exit_code=3)) == run.NUM_EIGS
    assert run.failed_pairs(workload, _fake("", exit_code=None)) == run.NUM_EIGS


def test_rq_gap_reads_rows_with_both_columns():
    workload = run.WORKLOADS["biharm-k2-sipg-H2-h6"]
    gap = run.rq_gap_max(_fake(_csv(workload)))
    assert gap == pytest.approx(abs(2005.860284 - 14753.27075) / 14753.27075, rel=1e-9)
    direct = run.WORKLOADS["lap-direct-L8"]
    assert run.rq_gap_max(_fake(_csv(direct))) == 0.0
