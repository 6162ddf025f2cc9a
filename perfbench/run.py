"""Benchmark of the wgeig command line: end-to-end figures and per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a wgeig checkout; wgeig is imported from the
checkout's own `src/` (no install needed) and every process is pinned to
one thread with WGEIG_THREADS=1.  Each workload is one `wgeig` command run in
a fresh process, and every eigenvalue it prints is checked against a stored
reference.

--trace 0 measures, for S seconds, repeated runs of the workload and
separate set-up probes (fresh processes that only import wgeig with numpy
and scipy), and reports the medians of
  wall_s       process spawn to exit, as the user's shell sees it;
  setup_s      process spawn until wgeig, numpy and scipy are imported;
  peak_rss_mb  peak RSS of the workload process, read inside it.
--trace 1 runs the workload once plainly and once with every public layer
function wrapped from outside (layertrace.py), and reports per-layer time,
self time, call and solve counts, plus the tracing overhead.

The seed only sets the order in which the runs and probes interleave: the
inputs are fixed command lines with no random part.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; `failed` counts failed eigenpairs.  Each result is also stored,
with the software and machine it ran on, under perfbench/results/.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from layertrace import layer_metrics, top_level_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
RESULTS = HERE / "results"

SOLVER_TOL = 1e-10
# The CSV prints 10 significant digits (relative rounding up to 5e-10), and a
# different solver that meets the same residual tolerance may move the last
# printed digits; a wrong discrete eigenvalue is off by far more than this.
REL_TOL = 100 * SOLVER_TOL

SETUP_PROBES = 7
# Every process this benchmark starts must have ended this long after start.
DEADLINE_S = 170.0

THREAD_ENV = {
    "WGEIG_THREADS": "1",
    # What `wgeig.cli.main` derives from WGEIG_THREADS, set up front because
    # the traced run imports numpy before main() runs.
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    why: str
    # Eigenvalues printed by the command at the seed commit, per CSV column.
    reference: dict[str, tuple[float, ...]]


WORKLOADS = {
    # Direct path only: the hand-rolled Lanczos (smallest_eigs, ~70%) and the
    # energy errors; no shifted solve, so two-grid factorization changes must
    # leave it unchanged.
    "lap-direct-L8": Workload(
        argv=("solve", "--level", "8", "--num-eigs", "6"),
        why="Laplacian direct solve at h=1/256: eigensolver and energy errors, "
            "no shifted factorization",
        reference={"lambda_h": (19.73662128, 49.32715009, 49.32715009,
                                78.91545215, 98.59797938, 98.59797938)},
    ),
    # Two-grid only (no direct fine solve): six indefinite LU factorizations
    # dominate; the coarse spectrum has the double pairs 2=3 and 5=6, so
    # factorization reuse per cluster shows here.  h=1/128, not the ROADMAP's
    # h=1/256, because H=1/16 -> h=1/256 takes ~100 s per run.
    "lap-twogrid-H4-h7": Workload(
        argv=("table", "--fine-level", "7", "--coarse-levels", "4", "--num-eigs", "6"),
        why="Laplacian two-grid H=1/16 to h=1/128: six shifted indefinite "
            "factorizations with double pairs, tiny eigensolve",
        reference={"lambda_tilde": (19.72955552, 49.27052778, 49.27052778,
                                    78.80262394, 98.33330583, 98.33330583)},
    ),
    # Same layers, used differently: three block kinds per edge, h^-3 penalty,
    # SPD shifted systems (every shift lies below lambda_1,h) and no energy
    # errors, so analysis-layer changes must leave it unchanged.  Target 6 is
    # kept as the seed computes it: lambda_tilde = 2005.86 against
    # lambda_h = 14753.27 (rq gap ~0.86), because the H=1/4 coarse values
    # (100-405) lie far below the fine spectrum; the reference records that.
    "biharm-k2-sipg-H2-h6": Workload(
        argv=("sipg", "--problem", "biharmonic", "--degree", "2",
              "--coarse-level", "2", "--fine-level", "6", "--num-eigs", "6"),
        why="Biharmonic k=2 two-grid H=1/4 to h=1/64 with direct fine solve: "
            "SPD shifted factorizations, no energy errors",
        reference={
            "lambda_h": (1210.85427, 4812.217755, 4812.217755,
                         10029.57422, 14551.95505, 14753.27075),
            "lambda_tilde": (1212.99523, 4845.720367, 4845.720367,
                             10208.51724, 15986.15029, 2005.860284),
        },
    ),
}

NUM_EIGS = 6
_WARNING = re.compile(r"^warning: index (\d+):")


@dataclass
class RunResult:
    spawned: float  # monotonic clock just before the spawn
    wall_s: float
    report: dict
    stdout: str
    stderr: str


def run_child(workdir: Path, deadline: float, argv: list[str]) -> RunResult:
    """Run child.py with ARGV; wall time is spawn to exit.

    A child still running at DEADLINE (monotonic clock) is killed and waited
    for by subprocess.run, and reported with exit code None.
    """
    report_path = workdir / "report.json"
    if report_path.exists():
        report_path.unlink()
    cmd = [sys.executable, str(CHILD), "--src", str(SRC), "--report", str(report_path), *argv]
    env = dict(os.environ, **THREAD_ENV)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
        stdout, stderr = proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        stdout, stderr = "", "timed out\n"
    wall = time.monotonic() - start
    report = {"exit_code": None}
    if report_path.exists():
        with open(report_path) as fh:
            report = json.load(fh)
    return RunResult(spawned=start, wall_s=wall, report=report, stdout=stdout, stderr=stderr)


def failed_pairs(workload: Workload, run: RunResult) -> int:
    """Eigenpairs (of NUM_EIGS) that are off their reference, missing,
    NaN or warned about; all of them when the command failed."""
    if run.report.get("exit_code") != 0:
        return NUM_EIGS
    rows = {}
    try:
        for row in csv.DictReader(io.StringIO(run.stdout)):
            rows[int(row["index"])] = row
    except (KeyError, ValueError):
        return NUM_EIGS
    warned = set()
    for line in run.stderr.splitlines():
        if line.startswith("warning:"):
            m = _WARNING.match(line)
            if not m:
                return NUM_EIGS
            warned.add(int(m.group(1)))
    failed = 0
    for j in range(1, NUM_EIGS + 1):
        ok = j in rows and j not in warned and all(
            _matches(rows[j][column], ref[j - 1])
            for column, ref in workload.reference.items())
        failed += not ok
    return failed


def _matches(cell: str | None, ref: float) -> bool:
    try:
        value = float(cell)
    except (TypeError, ValueError):  # missing column or empty cell
        return False
    return abs(value - ref) <= REL_TOL * abs(ref)  # False for NaN


def rq_gap_max(run: RunResult) -> float:
    """max |lambda_tilde - lambda_h| / lambda_h over rows printing both; 0 if none."""
    gaps = [0.0]
    for row in csv.DictReader(io.StringIO(run.stdout)):
        if row.get("lambda_h") and row.get("lambda_tilde"):
            lam_h, lam_t = float(row["lambda_h"]), float(row["lambda_tilde"])
            gaps.append(abs(lam_t - lam_h) / lam_h)
    return max(gaps)


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "WGEIG_THREADS": THREAD_ENV["WGEIG_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def measure(workload: Workload, seconds: float, rng: random.Random,
            workdir: Path, deadline: float):
    """Untraced runs and set-up probes interleaved in seeded order.

    Workload runs repeat until together they have taken SECONDS; at least
    one runs, and none starts that could outlive the deadline.
    """
    work_argv = ["--", *workload.argv, "--output", "csv"]
    plan = ["setup"] * SETUP_PROBES + ["work"]
    rng.shuffle(plan)
    walls, rss, setups, failed = [], [], [], 0
    while plan or sum(walls) < seconds:
        task = plan.pop(0) if plan else "work"
        if task == "setup":
            run = run_child(workdir, deadline, ["--setup"])
            if run.report.get("exit_code") != 0:
                raise RuntimeError(f"set-up probe failed:\n{run.stderr}")
            setups.append(run.report["ready"] - run.spawned)
            continue
        if walls and deadline - time.monotonic() < 2.0 * max(walls) + 5.0:
            break
        run = run_child(workdir, deadline, work_argv)
        walls.append(run.wall_s)
        rss.append(run.report.get("peak_rss_mb", 0.0))
        failed += failed_pairs(workload, run)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    return metrics, samples, NUM_EIGS * len(walls), failed


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_bytes_computed"):
        return "B"
    if name.endswith(("_max", "_min")):
        return "ratio"
    return "count"


def measure_traced(workload: Workload, rng: random.Random, workdir: Path, deadline: float):
    """One plain and one traced run in seeded order; per-layer metrics."""
    work_argv = ["--", *workload.argv, "--output", "csv"]
    order = ["plain", "traced"]
    rng.shuffle(order)
    runs = {}
    for kind in order:
        argv = ["--trace", *work_argv] if kind == "traced" else work_argv
        runs[kind] = run_child(workdir, deadline, argv)
    failed = sum(failed_pairs(workload, run) for run in runs.values())
    traced = runs["traced"]
    if "trace" not in traced.report:
        raise RuntimeError(f"traced run wrote no trace:\n{traced.stderr}")
    values = layer_metrics(traced.report["trace"])
    values["twogrid.rq_gap_max"] = rq_gap_max(traced)
    values["trace.overhead_s"] = traced.wall_s - runs["plain"].wall_s
    values["trace.uncovered_s"] = traced.wall_s - top_level_seconds(traced.report["trace"]["spans"])
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    samples = {kind: run.wall_s for kind, run in runs.items()}
    return metrics, samples, NUM_EIGS * len(runs), failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "wgeig" / "cli.py").is_file():
        print(f"error: no wgeig sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        if args.trace:
            metrics, samples, attempted, failed = measure_traced(
                workload, rng, Path(tmp), deadline)
        else:
            metrics, samples, attempted, failed = measure(
                workload, args.seconds, rng, Path(tmp), deadline)

    print(f"workload {args.workload}: wgeig {' '.join(workload.argv)} --output csv")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'pairs_failed':<44} {failed:>16d} of {attempted}")
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args.seed), "samples": samples,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"  environment: {json.dumps(record['environment'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
