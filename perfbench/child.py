"""One benchmark process: a set-up probe or one run of the wgeig command line.

    python3 child.py --src SRC --report FILE --setup
    python3 child.py --src SRC --report FILE [--trace] -- WGEIG_ARGS...

The set-up probe imports wgeig with numpy, scipy and every layer module and
records the monotonic clock at that point.  A workload run calls
`wgeig.cli.main` in this process, exactly as the `wgeig` entry point does,
then records its own peak RSS: a per-process figure, unlike the parent's
`RUSAGE_CHILDREN`, which is a running maximum over all children.  With
--trace the layers are wrapped first (see layertrace.py).  The report is
written as JSON to FILE even when the command raises.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time


def _import(src: str, module: str):
    """Import a wgeig module from SRC and refuse any other installed copy."""
    mod = importlib.import_module(module)
    where = os.path.realpath(mod.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported {module} from {where}, not from {src}")
    return mod


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("wgeig_args", nargs="*")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    report: dict = {"exit_code": 1}
    tracer = None
    try:
        if args.setup:
            _import(args.src, "wgeig.analysis")  # numpy, scipy and every layer
            _import(args.src, "wgeig.cli")
            report["ready"] = time.monotonic()
            report["exit_code"] = 0
            return 0
        if args.trace:
            from layertrace import Tracer

            _import(args.src, "wgeig.analysis")
            tracer = Tracer()
            tracer.install()
        cli = _import(args.src, "wgeig.cli")
        report["exit_code"] = cli.main(args.wgeig_args)
        return report["exit_code"]
    finally:
        sys.stdout.flush()
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            report["trace"] = tracer.report()
        with open(args.report, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
