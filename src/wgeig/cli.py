"""Command-line front end: batch eigenvalue studies and table emission.

Subcommands: solve (direct eigensolve on one level), sipg (two-grid run),
study (direct sweep over levels with fitted orders), table (coarse-level
sweep at fixed fine level, the reporting layout of the convergence tables).
Flags override an optional key = value config file; outputs are deterministic
apart from the timing column.

Exit status: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (CapacityError, ConfigError, DegreeTooLowError, FactorizationFailureError,
                     LevelOrderError, NearSingularError, NoConvergenceError, SolverFailureError)

THREADS_ENV = "WGEIG_THREADS"

_DEFAULTS = {
    "problem": "laplacian",
    "degree": 1,
    "epsilon": 0.1,
    "num_eigs": 6,
    "tol": 1e-10,
    "output": "human",
}


def _pin_threads() -> None:
    count = os.environ.get(THREADS_ENV)
    if not count:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, count)


def _parse_levels(text: str) -> list[int]:
    """Accept '3:6' (inclusive range) or '3,4,5' (explicit list)."""
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty level range {text!r}")
        return list(range(lo, hi + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _load_config_file(path: str, known) -> dict[str, str]:
    """Parse `key = value` lines; a key outside `known` is a ConfigError."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val.strip()
    return values


def _merged(args: argparse.Namespace, key: str, cast, required: bool = False):
    cli_val = getattr(args, key, None)
    if cli_val is not None:
        return cli_val
    file_vals = getattr(args, "_file_values", {})
    if key in file_vals:
        return cast(file_vals[key])
    if key in _DEFAULTS:
        return _DEFAULTS[key]
    if required:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return None


def _round10(v: float) -> float:
    return float(f"{v:.10g}")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _write_rows(result, fmt: str, stream, meta: dict) -> None:
    from .analysis import ROW_FIELDS

    if fmt == "csv":
        stream.write(",".join(ROW_FIELDS) + "\n")
        for row in result.rows:
            stream.write(",".join(_cell(getattr(row, f)) for f in ROW_FIELDS) + "\n")
    elif fmt == "json":
        rows = []
        for row in result.rows:
            entry = {}
            for f in ROW_FIELDS:
                v = getattr(row, f)
                entry[f] = _round10(v) if isinstance(v, float) else v
            rows.append(entry)
        doc = {
            "meta": meta,
            "rows": rows,
            "orders": {k: _round10(v) for k, v in result.orders.items()},
            "warnings": list(result.warnings),
        }
        json.dump(doc, stream, indent=2, sort_keys=True)
        stream.write("\n")
    else:
        _write_human(result, stream, meta)


def _write_human(result, stream, meta: dict) -> None:
    from .analysis import ROW_FIELDS

    stream.write(f"# {meta.get('command', '')} "
                 + " ".join(f"{k}={v}" for k, v in meta.items() if k != "command")
                 + "\n")
    headers = list(ROW_FIELDS)
    table = [headers]
    for row in result.rows:
        cells = []
        for f in headers:
            v = getattr(row, f)
            if isinstance(v, float):
                cells.append(f"{v:.4e}")
            elif v is None:
                cells.append("-")
            else:
                cells.append(str(v))
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    for r in table:
        stream.write("  ".join(c.rjust(w) for c, w in zip(r, widths)) + "\n")
    if result.orders:
        stream.write("fitted orders: "
                     + "  ".join(f"{k}={v:.3f}" for k, v in sorted(result.orders.items()))
                     + "\n")
    for w in result.warnings:
        stream.write(f"warning: {w}\n")


def _write_table_grid(result, stream) -> None:
    """Report-style error grid: one row per eigenvalue index, one column per H."""
    by_block: dict[tuple, dict] = {}
    for row in result.rows:
        block = by_block.setdefault(row.h_level, {})
        block.setdefault(row.index, {})[row.H_level] = row
    for h_level, indices in sorted(by_block.items()):
        h_cols = sorted({hl for idx in indices.values() for hl in idx})
        stream.write(f"h = 1/{2**h_level}\n")
        header = ["index"] + [f"H=1/{2**hl}" for hl in h_cols]
        grid = [header]
        for idx in sorted(indices):
            cells = [str(idx)]
            for hl in h_cols:
                row = indices[idx].get(hl)
                val = row.err_sipg if row is not None else None
                if val is None and row is not None:
                    val = row.lambda_tilde
                cells.append("-" if val is None else f"{val:.4e}")
            grid.append(cells)
        widths = [max(len(r[i]) for r in grid) for i in range(len(header))]
        for r in grid:
            stream.write("  ".join(c.rjust(w) for c, w in zip(r, widths)) + "\n")


def _emit(result, args, meta: dict) -> None:
    fmt = meta["output"]
    out_file = meta.get("out_file")
    if out_file:
        with open(out_file, "w") as fh:
            _write_rows(result, fmt, fh, meta)
    else:
        _write_rows(result, fmt, sys.stdout, meta)
        if meta["command"] == "table" and fmt == "human":
            _write_table_grid(result, sys.stdout)


def _common_meta(args, command: str) -> dict:
    meta = {
        "command": command,
        "problem": _merged(args, "problem", str),
        "degree": int(_merged(args, "degree", int)),
        "epsilon": float(_merged(args, "epsilon", float)),
        "num_eigs": int(_merged(args, "num_eigs", int)),
        "tol": float(_merged(args, "tol", float)),
        "output": _merged(args, "output", str),
    }
    if meta["output"] not in ("human", "csv", "json"):
        raise ValueError(f"unknown output format {meta['output']!r}")
    out_file = _merged(args, "out_file", str)
    if out_file:
        meta["out_file"] = out_file
    return meta


def _maybe_dump(args, meta) -> None:
    dump_mesh = getattr(args, "dump_mesh", None)
    dump_dir = getattr(args, "dump_matrices", None)
    if not dump_mesh and not dump_dir:
        return
    from .mesh import build_uniform
    from .wg_core import WgSpace, assemble

    level = meta["__dump_level"]
    mesh = build_uniform(level)
    if dump_mesh:
        mesh.dump_json(dump_mesh)
    if dump_dir:
        import scipy.io as sio

        space = WgSpace(mesh, meta["degree"], kind=meta["problem"], epsilon=meta["epsilon"])
        forms = assemble(space)
        os.makedirs(dump_dir, exist_ok=True)
        sio.mmwrite(os.path.join(dump_dir, "stiffness.mtx"), forms.A)
        sio.mmwrite(os.path.join(dump_dir, "mass.mtx"), forms.B)


def _cmd_solve(args) -> int:
    from .analysis import direct_study

    meta = _common_meta(args, "solve")
    level = _merged(args, "level", int, required=True)
    meta["level"] = level = int(level)
    meta["__dump_level"] = level
    _maybe_dump(args, meta)
    result = direct_study(
        meta["problem"], meta["degree"], meta["epsilon"], [level],
        meta["num_eigs"], tol=meta["tol"],
    )
    del meta["__dump_level"]
    _emit(result, args, meta)
    return 0


def _cmd_study(args) -> int:
    from .analysis import direct_study

    meta = _common_meta(args, "study")
    levels = _merged(args, "levels", _parse_levels, required=True)
    if isinstance(levels, str):
        levels = _parse_levels(levels)
    meta["levels"] = ",".join(map(str, levels))
    meta["__dump_level"] = max(levels)
    _maybe_dump(args, meta)
    result = direct_study(
        meta["problem"], meta["degree"], meta["epsilon"], levels,
        meta["num_eigs"], tol=meta["tol"],
    )
    del meta["__dump_level"]
    _emit(result, args, meta)
    return 0


def _cmd_sipg(args) -> int:
    from .analysis import sipg_study

    meta = _common_meta(args, "sipg")
    coarse = int(_merged(args, "coarse_level", int, required=True))
    fine = int(_merged(args, "fine_level", int, required=True))
    if fine <= coarse:
        raise ValueError(
            f"--fine-level ({fine}) must exceed --coarse-level ({coarse})"
        )
    meta["coarse_level"] = coarse
    meta["fine_level"] = fine
    meta["__dump_level"] = fine
    _maybe_dump(args, meta)
    result = sipg_study(
        meta["problem"], meta["degree"], meta["epsilon"], [coarse], fine,
        meta["num_eigs"], include_direct=True, tol=meta["tol"],
    )
    del meta["__dump_level"]
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    _emit(result, args, meta)
    return 0


def _cmd_table(args) -> int:
    from .analysis import StudyResult, sipg_study

    meta = _common_meta(args, "table")
    coarse_levels = _merged(args, "coarse_levels", _parse_levels, required=True)
    if isinstance(coarse_levels, str):
        coarse_levels = _parse_levels(coarse_levels)
    fine_spec = _merged(args, "fine_levels", _parse_levels)
    if fine_spec is None:
        fine_level = _merged(args, "fine_level", int, required=True)
        fine_levels = [int(fine_level)]
    else:
        fine_levels = _parse_levels(fine_spec) if isinstance(fine_spec, str) else fine_spec
    for fl in fine_levels:
        if fl <= max(coarse_levels):
            raise ValueError(
                f"fine level {fl} must exceed every coarse level {coarse_levels}"
            )
    meta["coarse_levels"] = ",".join(map(str, coarse_levels))
    meta["fine_levels"] = ",".join(map(str, fine_levels))
    include_direct = bool(getattr(args, "with_direct", False))
    meta["__dump_level"] = max(fine_levels)
    _maybe_dump(args, meta)
    rows, warnings = [], []
    for fl in fine_levels:
        part = sipg_study(
            meta["problem"], meta["degree"], meta["epsilon"], coarse_levels, fl,
            meta["num_eigs"], include_direct=include_direct, tol=meta["tol"],
        )
        rows.extend(part.rows)
        warnings.extend(part.warnings)
    result = StudyResult(rows=rows, orders={}, warnings=warnings)
    del meta["__dump_level"]
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    _emit(result, args, meta)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgeig",
        description="Weak Galerkin eigenvalue studies on the unit square "
                    "(direct and two-grid shifted-inverse-power).",
        epilog=f"Defaults: epsilon = 0.1, tol = 1e-10, num-eigs = 6.  "
               f"{THREADS_ENV} pins the BLAS/OpenMP thread count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--problem", choices=("laplacian", "biharmonic"),
                       help="model problem (default laplacian)")
        p.add_argument("--degree", type=int, help="polynomial degree k "
                       "(>= 1 laplacian, >= 2 biharmonic; default 1)")
        p.add_argument("--epsilon", type=float,
                       help="stabilizer weakening exponent in (0,1); default 0.1")
        p.add_argument("--num-eigs", dest="num_eigs", type=int,
                       help="number of eigenpairs (default 6)")
        p.add_argument("--tol", type=float, help="solver tolerance (default 1e-10)")
        p.add_argument("--output", choices=("human", "csv", "json"),
                       help="output format (default human)")
        p.add_argument("--out-file", dest="out_file", help="write output to a file")
        p.add_argument("--config", help="key = value config file; flags override")
        p.add_argument("--dump-mesh", dest="dump_mesh",
                       help="write mesh entities as JSON (debug)")
        p.add_argument("--dump-matrices", dest="dump_matrices",
                       help="write assembled forms in MatrixMarket format (debug)")
        p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("solve", help="direct eigensolve on one mesh level")
    add_common(p)
    p.add_argument("--level", type=int, help="mesh level L (h = 2^-L)")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("sipg", help="two-grid shifted-inverse-power run")
    add_common(p)
    p.add_argument("--coarse-level", dest="coarse_level", type=int)
    p.add_argument("--fine-level", dest="fine_level", type=int)
    p.set_defaults(handler=_cmd_sipg)

    p = sub.add_parser("study", help="direct sweep over levels with fitted orders")
    add_common(p)
    p.add_argument("--levels", help="level sweep, e.g. 3:6 or 3,4,5")
    p.set_defaults(handler=_cmd_study)

    p = sub.add_parser("table", help="coarse-level sweep at fixed fine level(s)")
    add_common(p)
    p.add_argument("--fine-level", dest="fine_level", type=int)
    p.add_argument("--fine-levels", dest="fine_levels",
                   help="several fine levels (two-block table shape)")
    p.add_argument("--coarse-levels", dest="coarse_levels", help="e.g. 3,4,5 or 3:5")
    p.add_argument("--with-direct", dest="with_direct", action="store_true",
                   help="also run the direct fine solve for comparison columns")
    p.set_defaults(handler=_cmd_table)
    return parser


def main(argv=None) -> int:
    _pin_threads()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # The options the subcommand's parser defines are the keys a file may set.
    known = set(vars(args)) - {"command", "handler", "config"}
    try:
        args._file_values = _load_config_file(args.config, known) if args.config else {}
    except (OSError, ValueError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        return args.handler(args)
    except (ValueError, ConfigError, DegreeTooLowError, CapacityError,
            LevelOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergenceError, FactorizationFailureError, SolverFailureError,
            NearSingularError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
