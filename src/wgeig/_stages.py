"""Stage lines of a run: each stage's seconds and the process's peak RSS so far.

The studies and the two-grid driver time their stages (assembly, eigensolve,
energy errors, coarse solve, and each two-grid target followed by its energy
error) with ``_stage``, which logs one line per stage, in the order they
run, to the ``wgeig`` logger at INFO level.  Nothing shows them by default;
``wgeig -v`` sends them to stderr.
"""

from __future__ import annotations

import contextlib
import logging
import resource
import sys
import time

_LOG = logging.getLogger("wgeig")
# ru_maxrss counts bytes on macOS and kilobytes elsewhere.
_RSS_UNITS_PER_MB = 2**20 if sys.platform == "darwin" else 2**10


@contextlib.contextmanager
def _stage(name: str):
    """Log the enclosed block as one stage line; a stage that raises logs none."""
    start = time.perf_counter()
    yield
    if _LOG.isEnabledFor(logging.INFO):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _RSS_UNITS_PER_MB
        _LOG.info("stage %-28s %9.3f s  peak RSS %8.1f MB",
                  name, time.perf_counter() - start, peak)
