"""Command-line front end: batch eigenvalue studies and table emission.

Subcommands: solve (direct eigensolve on one level), study (direct sweep over
levels with fitted orders), sipg (two-grid run), table (coarse-level sweep at
fixed fine level, the reporting layout of the convergence tables).

Every option is an argparse option with its default and type.  An optional
`key = value` config file becomes the subcommand's defaults before the flags
are parsed again, so flags override the file and a file key acts exactly as
its flag.  The file's values are checked when it is read: a flag key takes
`true` or `false`, a choice must be one of its choices, and any other bad,
unknown or repeated key is a configuration error naming the file and line.
Outputs are deterministic apart from the timing column.

The run's numbers are refused, before any dump and in the library's words, by
analysis._check_study.  main alone maps errors to the exit status: 0 success,
2 usage error (any ValueError or OSError, an output or dump path that cannot
be written among them), 3 solver failure (any other WgeigError).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys

from .errors import ConfigError, WgeigError

THREADS_ENV = "WGEIG_THREADS"


def _pin_threads() -> None:
    """WGEIG_THREADS, or 1, for every BLAS/OpenMP variable not already set."""
    count = os.environ.get(THREADS_ENV) or "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, count)


def _parse_levels(text: str) -> list[int]:
    """Accept '3:6' (inclusive range) or '3,4,5' (explicit list) of distinct levels."""
    try:
        if ":" in text:
            lo, hi = (int(tok) for tok in text.split(":", 1))
            levels = list(range(lo, hi + 1))
        else:
            levels = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected levels like 3:6 or 3,4,5, got {text!r}") from None
    if not levels:
        raise argparse.ArgumentTypeError(f"empty level range {text!r}")
    if len(set(levels)) != len(levels):
        raise argparse.ArgumentTypeError(f"repeated level in {text!r}")
    return levels


def _config_value(action: argparse.Action, text: str):
    if action.nargs == 0:  # a store_true flag
        if text not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return text == "true"
    value = action.type(text) if action.type else text
    if action.choices and value not in action.choices:
        raise ValueError(f"{value!r} is not one of {', '.join(action.choices)}")
    return value


def _load_config_file(path: str, options: dict[str, argparse.Action]) -> dict:
    """Parse `key = value` lines into typed values of the subcommand's options."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, text = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in options:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
            try:
                values[key] = _config_value(options[key], text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _json_value(v):
    return float(f"{v:.10g}") if isinstance(v, float) else v


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
        rows = [{f: _json_value(getattr(row, f)) for f in ROW_FIELDS} for row in result.rows]
        doc = {
            "meta": meta,
            "rows": rows,
            "orders": {k: _json_value(v) for k, v in result.orders.items()},
            "warnings": list(result.warnings),
        }
        json.dump(doc, stream, indent=2, sort_keys=True)
        stream.write("\n")
    else:
        _write_human(result, stream, meta)


def _human_cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.4e}"
    return str(v)


def _write_grid(stream, grid: list[list[str]]) -> None:
    """Rows of cells, each column right-justified to its widest cell."""
    widths = [max(len(r[i]) for r in grid) for i in range(len(grid[0]))]
    for r in grid:
        stream.write("  ".join(c.rjust(w) for c, w in zip(r, widths)) + "\n")


def _write_human(result, stream, meta: dict) -> None:
    from .analysis import ROW_FIELDS

    stream.write(f"# {meta.get('command', '')} "
                 + " ".join(f"{k}={v}" for k, v in meta.items() if k != "command")
                 + "\n")
    cells = [[_human_cell(getattr(row, f)) for f in ROW_FIELDS] for row in result.rows]
    _write_grid(stream, [list(ROW_FIELDS), *cells])
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
        grid = [["index"] + [f"H=1/{2**hl}" for hl in h_cols]]
        for idx in sorted(indices):
            cells = [str(idx)]
            for hl in h_cols:
                row = indices[idx].get(hl)
                cells.append(_human_cell(None if row is None else (
                    row.lambda_tilde if row.err_sipg is None else row.err_sipg)))
            grid.append(cells)
        _write_grid(stream, grid)


@contextlib.contextmanager
def _stage_lines(verbose: bool):
    """With -v, the stage lines the library logs go to stderr during the run."""
    if not verbose:
        yield
        return
    log, handler = logging.getLogger("wgeig"), logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _emit(result, meta: dict) -> None:
    fmt = meta["output"]
    out_file = meta.get("out_file")
    with open(out_file, "w") if out_file else contextlib.nullcontext(sys.stdout) as stream:
        _write_rows(result, fmt, stream, meta)
        if meta["command"] == "table" and fmt == "human":
            _write_table_grid(result, stream)


def _required(args, key: str):
    value = getattr(args, key)
    if value is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return value


def _common_meta(args) -> dict:
    """The shared options; only an --out-file that cannot be written is refused
    here, the numbers by _check_study."""
    meta = {key: getattr(args, key) for key in
            ("command", "problem", "degree", "epsilon", "num_eigs", "tol", "output")}
    if args.out_file:
        # Refused here, not after the whole solve has run.
        if os.path.isdir(args.out_file):
            raise ValueError(f"--out-file {args.out_file} is a directory")
        folder = os.path.dirname(args.out_file)
        if folder and not os.path.isdir(folder):
            raise ValueError(f"--out-file {args.out_file}: no directory {folder}")
        meta["out_file"] = args.out_file
    return meta


def _maybe_dump(args, meta: dict, level: int) -> None:
    if not args.dump_mesh and not args.dump_matrices:
        return
    from .mesh import build_uniform
    from .wg_core import WgSpace

    mesh = build_uniform(level)
    if args.dump_mesh:
        mesh.dump_json(args.dump_mesh)
    if args.dump_matrices:
        import scipy.io as sio

        space = WgSpace(mesh, meta["degree"], kind=meta["problem"], epsilon=meta["epsilon"])
        os.makedirs(args.dump_matrices, exist_ok=True)
        sio.mmwrite(os.path.join(args.dump_matrices, "stiffness.mtx"), space.A)
        sio.mmwrite(os.path.join(args.dump_matrices, "mass.mtx"), space.B)


def _cmd_direct(args) -> int:
    """solve (one level) and study (a level sweep): direct eigensolves."""
    from .analysis import _check_study, direct_study

    meta = _common_meta(args)
    if args.command == "solve":
        meta["level"] = _required(args, "level")
        levels = [meta["level"]]
    else:
        levels = _required(args, "levels")
        meta["levels"] = ",".join(map(str, levels))
    # The study's own checks, run here so that a refused study dumps nothing.
    _check_study(meta["problem"], meta["degree"], meta["epsilon"], meta["num_eigs"], levels,
                 tol=meta["tol"])
    _maybe_dump(args, meta, max(levels))
    result = direct_study(
        meta["problem"], meta["degree"], meta["epsilon"], levels,
        meta["num_eigs"], tol=meta["tol"],
    )
    _emit(result, meta)
    return 0


def _cmd_twogrid(args) -> int:
    """sipg (one level pair, with the direct fine solve) and table (sweeps)."""
    from .analysis import StudyResult, _check_study, sipg_study

    meta = _common_meta(args)
    if args.command == "sipg":
        coarse_levels = [_required(args, "coarse_level")]
        fine_levels = [_required(args, "fine_level")]
        meta["coarse_level"], meta["fine_level"] = coarse_levels[0], fine_levels[0]
        include_direct = True
    else:
        coarse_levels = _required(args, "coarse_levels")
        fine_levels = _required(args, "fine_level")
        meta["coarse_levels"] = ",".join(map(str, coarse_levels))
        meta["fine_levels"] = ",".join(map(str, fine_levels))
        include_direct = args.with_direct
    _check_study(meta["problem"], meta["degree"], meta["epsilon"], meta["num_eigs"],
                 coarse_levels, fine_levels, tol=meta["tol"])
    _maybe_dump(args, meta, max(fine_levels))
    result = StudyResult(rows=[])
    for fl in fine_levels:
        part = sipg_study(
            meta["problem"], meta["degree"], meta["epsilon"], coarse_levels, fl,
            meta["num_eigs"], include_direct=include_direct, tol=meta["tol"],
        )
        result.rows.extend(part.rows)
        result.warnings.extend(part.warnings)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    _emit(result, meta)
    return 0


def _build_parser():
    """The parser and, per subcommand, its parser and its file-settable options."""
    parser = argparse.ArgumentParser(
        prog="wgeig",
        description="Weak Galerkin eigenvalue studies on the unit square "
                    "(direct and two-grid shifted-inverse-power).",
        epilog="OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS, where unset, "
               f"are set to {THREADS_ENV} (default 1) before numpy loads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, tuple[argparse.ArgumentParser, dict]] = {}

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        options: dict[str, argparse.Action] = {}
        commands[name] = (p, options)

        def add(*flags, **kwargs):
            action = p.add_argument(*flags, **kwargs)
            options[action.dest] = action

        add("--problem", choices=("laplacian", "biharmonic"), default="laplacian",
            help="model problem (default %(default)s)")
        add("--degree", type=int, default=1, help="polynomial degree k "
            "(>= 1 laplacian, >= 2 biharmonic; default %(default)s)")
        add("--epsilon", type=float, default=0.1,
            help="stabilizer weakening exponent in (0,1); default %(default)s")
        add("--num-eigs", type=int, default=6, help="number of eigenpairs (default %(default)s)")
        add("--tol", type=float, default=1e-10, help="solver tolerance (default %(default)s)")
        add("--output", choices=("human", "csv", "json"), default="human",
            help="output format (default %(default)s)")
        add("--out-file", help="write output to a file")
        p.add_argument("--config", help="key = value config file; flags override")
        add("--dump-mesh", help="write mesh entities as JSON (debug)")
        add("--dump-matrices", help="write assembled forms in MatrixMarket format (debug)")
        add("-v", "--verbose", action="store_true",
            help="print one line per stage on stderr: its seconds and the peak RSS so far")
        return add

    add = command("solve", _cmd_direct, "direct eigensolve on one mesh level")
    add("--level", type=int, help="mesh level L (h = 2^-L)")
    add = command("sipg", _cmd_twogrid, "two-grid shifted-inverse-power run")
    add("--coarse-level", type=int)
    add("--fine-level", type=int)
    add = command("study", _cmd_direct, "direct sweep over levels with fitted orders")
    add("--levels", type=_parse_levels, help="level sweep, e.g. 3:6 or 3,4,5")
    add = command("table", _cmd_twogrid, "coarse-level sweep at fixed fine level(s)")
    add("--fine-level", type=_parse_levels,
        help="fine level, or several, e.g. 7, 3,4 or 3:4 (one block each)")
    add("--coarse-levels", type=_parse_levels, help="e.g. 3,4,5 or 3:5")
    add("--with-direct", action="store_true",
        help="also run the direct fine solve for comparison columns")
    return parser, commands


def main(argv=None) -> int:
    _pin_threads()
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            subparser, options = commands[args.command]
            subparser.set_defaults(**_load_config_file(args.config, options))
            args = parser.parse_args(argv)
        with _stage_lines(args.verbose):
            return args.handler(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WgeigError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
