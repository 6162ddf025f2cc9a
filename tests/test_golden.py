"""Golden CSV output of a small command matrix.

Every column except `seconds` must match the recorded file exactly. A change
that moves a printed digit on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

which prints every moved cell (file, row, column, old -> new) before it
rewrites a file; the change lists those cells in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
from pathlib import Path

import pytest

from wgeig.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "lap-k1-solve-L3": ("solve", "--level", "3"),
    "lap-k1-study-L2-3": ("study", "--levels", "2:3"),
    "lap-k1-sipg-H2-h4": ("sipg", "--coarse-level", "2", "--fine-level", "4"),
    "lap-k1-table-h4-H2-3-direct": ("table", "--fine-level", "4", "--coarse-levels", "2,3",
                                    "--with-direct"),
    "biharm-k2-sipg-H2-h3": ("sipg", "--problem", "biharmonic", "--degree", "2",
                             "--coarse-level", "2", "--fine-level", "3"),
    "lap-k2-solve-L3": ("solve", "--degree", "2", "--level", "3"),
    "lap-k3-solve-L4": ("solve", "--degree", "3", "--level", "4"),
    "lap-k4-solve-L2": ("solve", "--degree", "4", "--level", "2"),
    "lap-k5-solve-L2": ("solve", "--degree", "5", "--level", "2"),
    # Level 6 and up solve by the multilevel correction route (eigsolve).  Its
    # k = 2 twin is left out: four err_direct cells of `solve --degree 2
    # --level 6` move in their last digits with the BLAS thread count.
    "lap-k1-solve-L6": ("solve", "--level", "6"),
    "biharm-k3-solve-L2": ("solve", "--problem", "biharmonic", "--degree", "3", "--level", "2"),
    "biharm-k4-solve-L1": ("solve", "--problem", "biharmonic", "--degree", "4", "--level", "1"),
}


def csv_without_seconds(argv) -> list[list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--output", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    col = rows[0].index("seconds")
    return [row[:col] + row[col + 1:] for row in rows]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_csv_matches_golden(name):
    with open(GOLDEN / f"{name}.csv", newline="") as fh:
        expected = list(csv.reader(fh))
    assert csv_without_seconds(COMMANDS[name]) == expected


def moved_cells(old: list[list[str]], new: list[list[str]]):
    """(data row, column, old, new) of every cell that differs; a row or
    column present on one side only reads as empty on the other."""
    header = new[0] if new else old[0]
    for i in range(1, max(len(old), len(new))):
        a = old[i] if i < len(old) else []
        b = new[i] if i < len(new) else []
        for j in range(max(len(a), len(b))):
            before = a[j] if j < len(a) else ""
            after = b[j] if j < len(b) else ""
            if before != after:
                yield i, header[j] if j < len(header) else str(j), before, after


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        path = GOLDEN / f"{name}.csv"
        rows = csv_without_seconds(argv)
        if path.exists():
            with open(path, newline="") as fh:
                old = list(csv.reader(fh))
            for row, column, before, after in moved_cells(old, rows):
                print(f"{name}.csv row {row} {column}: {before} -> {after}")
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        print(f"wrote {name}.csv")
