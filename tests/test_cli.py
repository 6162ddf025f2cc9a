import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io as sio
from hypothesis import example, given, settings, strategies as st

from wgeig import analysis, twogrid, wg_core
from wgeig.analysis import ROW_FIELDS
from wgeig.cli import main
from wgeig.mesh import build_uniform


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows and list(rows[0].keys()) == list(ROW_FIELDS)
    return rows


def without_seconds(text):
    return [{k: v for k, v in row.items() if k != "seconds"} for row in parse_csv(text)]


def test_solve_human(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--problem", "laplacian", "--degree", "1",
        "--epsilon", "0.1", "--level", "4", "--num-eigs", "6",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) >= 8  # header comment, column header, six rows
    assert out.count("True") == 6  # all lower-bound verdicts hold


def test_solve_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--level", "3", "--num-eigs", "2", "--output", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 2
    assert rows[0]["problem"] == "laplacian"
    assert rows[0]["lower_bound"] == "true"
    assert float(rows[0]["lambda_h"]) < float(rows[0]["lambda_exact"])


def test_config_errors(capsys):
    code, _, err = run_cli(capsys, "solve", "--degree", "0", "--level", "2")
    assert code == 2 and "degree" in err
    code, _, err = run_cli(
        capsys, "solve", "--problem", "biharmonic", "--degree", "1", "--level", "2"
    )
    assert code == 2 and "degree" in err
    code, _, err = run_cli(
        capsys, "sipg", "--coarse-level", "4", "--fine-level", "4", "--num-eigs", "1"
    )
    assert code == 2
    code, _, err = run_cli(capsys, "solve", "--num-eigs", "2")  # missing level
    assert code == 2 and "level" in err
    code, _, err = run_cli(capsys, "solve", "--level", "30", "--num-eigs", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "study", "--levels", "4:3")
    assert code == 2 and "empty level range '4:3'" in err
    # A repeated level once gave a meaningless fitted order with exit 0.
    code, out, err = run_cli(capsys, "study", "--levels", "3,3", "--num-eigs", "1")
    assert code == 2 and out == "" and "repeated level in '3,3'" in err
    code, out, err = run_cli(capsys, "table", "--fine-level", "4", "--coarse-levels", "2,2")
    assert code == 2 and out == "" and "repeated level in '2,2'" in err


@pytest.mark.parametrize("problem,degree", [("laplacian", 1), ("biharmonic", 2)])
@pytest.mark.parametrize("command", [("solve", "--level", "1"),
                                     ("sipg", "--coarse-level", "1", "--fine-level", "2")])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_nonpositive_num_eigs_is_a_usage_error(capsys, tmp_path, problem, degree, command, count):
    # The biharmonic once died with an IndexError traceback (exit 1) here.
    dump = tmp_path / "mesh.json"
    code, out, err = run_cli(capsys, *command, "--problem", problem, "--degree", str(degree),
                             "--num-eigs", count, "--dump-mesh", str(dump))
    assert code == 2 and out == ""
    assert "--num-eigs must be at least 1" in err
    assert not dump.exists()  # rejected before any mesh or assembly


@pytest.mark.parametrize("key", ["tol", "epsilon"])
@pytest.mark.parametrize("value", ["0", "-1", "1", "nan", "inf"])
@pytest.mark.parametrize("by_file", [False, True])
def test_out_of_range_tol_or_epsilon_is_a_usage_error(capsys, tmp_path, key, value, by_file):
    # --tol 0, -1 and nan once ran the whole eigensolve and exited 3, and
    # --tol inf switched off every residual gate and exited 0.
    dump = tmp_path / "mesh.json"
    argv = ["solve", "--level", "2", "--num-eigs", "1", "--dump-mesh", str(dump)]
    if by_file:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv += ["--config", str(cfg)]
    else:
        argv += [f"--{key}", value]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"--{key} must lie in (0, 1)" in err
    assert not dump.exists()  # rejected before any mesh or assembly


@pytest.mark.parametrize("argv", [
    ("table", "--coarse-levels", "0", "--fine-level", "2", "--with-direct"),
    ("study", "--levels", "2,0"),
    ("sipg", "--coarse-level", "0", "--fine-level", "2"),
])
def test_num_eigs_past_the_coarsest_mass_rank_is_refused_before_assembly(
        capsys, monkeypatch, argv):
    # The mass rank of the coarsest level is arithmetic, so the refusal comes
    # before the fine assembly and any direct solve.
    def refused(*args, **kwargs):
        raise AssertionError("assembled before the mass-rank check")

    monkeypatch.setattr(wg_core, "assemble", refused)
    monkeypatch.setattr(analysis, "assemble", refused)
    monkeypatch.setattr(twogrid, "assemble", refused)
    code, out, err = run_cli(capsys, *argv, "--num-eigs", "4")
    assert code == 2 and out == ""
    assert "requested 4 eigenpairs but the mass rank is 3" in err


@pytest.mark.parametrize("option,path", [
    ("--out-file", "missing/x.csv"),
    ("--out-file", "."),
    ("--dump-matrices", "file/mats"),
    ("--dump-mesh", "missing/mesh.json"),
])
def test_unwritable_output_is_a_usage_error(capsys, monkeypatch, tmp_path, option, path):
    # Each once exited 1 with a traceback, the --out-file ones after the
    # whole solve had run.  A file stands where the dump directory would go.
    def refused(*args, **kwargs):
        raise AssertionError("eigensolve ran before the output path was refused")

    monkeypatch.setattr(analysis, "smallest_eigs", refused)
    (tmp_path / "file").write_text("")
    code, out, err = run_cli(capsys, "solve", "--level", "1", "--num-eigs", "1",
                             option, str(tmp_path / path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_csv_json_equivalence(capsys, tmp_path):
    common = ["sipg", "--coarse-level", "2", "--fine-level", "3",
              "--num-eigs", "2", "--tol", "1e-10"]
    code, out_csv, _ = run_cli(capsys, *common, "--output", "csv")
    assert code == 0
    code, out_json, _ = run_cli(capsys, *common, "--output", "json")
    assert code == 0
    rows_csv = parse_csv(out_csv)
    doc = json.loads(out_json)
    assert len(doc["rows"]) == len(rows_csv) == 2
    for rc, rj in zip(rows_csv, doc["rows"]):
        for field in ROW_FIELDS:
            if field == "seconds":
                continue
            text = rc[field]
            if text == "":
                assert rj[field] is None
            elif text in ("true", "false"):
                assert rj[field] is (text == "true")
            else:
                try:
                    assert float(text) == rj[field]
                except ValueError:
                    assert text == str(rj[field])


def test_determinism_excluding_timings(capsys):
    args = ["solve", "--level", "3", "--num-eigs", "4", "--output", "csv"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert without_seconds(first) == without_seconds(second)


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem = laplacian\n"
        "degree = 1\n"
        "level = 2\n"
        "num_eigs = 4   # comment\n"
        "output = csv\n"
    )
    code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 0
    assert len(parse_csv(out)) == 4
    # the flag overrides the file value
    code, out, _ = run_cli(capsys, "solve", "--config", str(cfg), "--num-eigs", "2")
    assert code == 0
    assert len(parse_csv(out)) == 2


@pytest.mark.parametrize("line", ["num_eig = 2", "cluster_tol = 1e-6"])
def test_config_file_unknown_key(capsys, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"level = 2\n{line}\n")
    code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
    key = line.split(" ")[0]
    assert code == 2 and out == ""
    assert f"run.cfg:2: unknown key '{key}'" in err


def test_table_fine_level_takes_a_level_list(capsys, tmp_path):
    # table's --fine-level takes one level or several, as a list or a range;
    # there is no --fine-levels, as a flag or as a config key.
    table = ["table", "--problem", "biharmonic", "--degree", "2", "--coarse-levels", "2",
             "--num-eigs", "1", "--output", "csv"]
    code, by_list, _ = run_cli(capsys, *table, "--fine-level", "3,4")
    assert code == 0
    code, by_range, _ = run_cli(capsys, *table, "--fine-level", "3:4")
    assert code == 0 and without_seconds(by_range) == without_seconds(by_list)
    code, out, _ = run_cli(capsys, *table, "--fine-levels", "3,4")
    assert code == 2 and out == ""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coarse_levels = 2\nfine_levels = 3,4\n")
    code, out, err = run_cli(capsys, "table", "--config", str(cfg), "--num-eigs", "1")
    assert code == 2 and out == ""
    assert "run.cfg:2: unknown key 'fine_levels'" in err


@pytest.mark.parametrize("repeat", ["num_eigs = 3", "num-eigs = 3"])
def test_config_file_repeated_key(capsys, tmp_path, repeat):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"level = 2\nnum_eigs = 1\n{repeat}\n")
    code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "run.cfg:3: repeated key 'num_eigs'" in err


def test_out_file(capsys, tmp_path):
    target = tmp_path / "result.csv"
    code, out, _ = run_cli(
        capsys, "solve", "--level", "2", "--num-eigs", "1",
        "--output", "csv", "--out-file", str(target),
    )
    assert code == 0
    assert out == ""
    assert len(parse_csv(target.read_text())) == 1


def test_table_grid_goes_to_out_file(capsys, tmp_path):
    target = tmp_path / "table.txt"
    code, out, _ = run_cli(
        capsys, "table", "--fine-level", "3", "--coarse-levels", "2", "--num-eigs", "2",
        "--out-file", str(target),
    )
    assert code == 0 and out == ""
    text = target.read_text()
    assert "h = 1/8\n" in text and "H=1/4" in text


def test_study_orders(capsys):
    code, out, _ = run_cli(
        capsys, "study", "--levels", "2:3", "--num-eigs", "1", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 2
    assert "eig_1" in doc["orders"]


def test_table_grid_and_two_block(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--fine-level", "4", "--coarse-levels", "2,3",
        "--num-eigs", "2",
    )
    assert code == 0
    assert "h = 1/16" in out
    assert "H=1/4" in out and "H=1/8" in out

    code, out, _ = run_cli(
        capsys, "table", "--problem", "biharmonic", "--degree", "2",
        "--fine-level", "3,4", "--coarse-levels", "2", "--num-eigs", "1",
        "--output", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert {r["h_level"] for r in rows} == {"3", "4"}

    code, _, err = run_cli(
        capsys, "table", "--fine-level", "3", "--coarse-levels", "3",
        "--num-eigs", "1",
    )
    assert code == 2


def test_dumps(capsys, tmp_path):
    mesh_path = tmp_path / "mesh.json"
    mat_dir = tmp_path / "mats"
    code, _, _ = run_cli(
        capsys, "solve", "--level", "2", "--num-eigs", "1",
        "--dump-mesh", str(mesh_path), "--dump-matrices", str(mat_dir),
    )
    assert code == 0
    doc = json.loads(mesh_path.read_text())
    assert doc["num_elements"] == 16
    A = sio.mmread(mat_dir / "stiffness.mtx").tocsr()
    B = sio.mmread(mat_dir / "mass.mtx").tocsr()
    import wgeig as wg

    space = wg.WgSpace(wg.build_uniform(2), 1, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    assert np.abs((A - forms.A)).max() < 1e-15
    assert np.abs((B - forms.B)).max() < 1e-15


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("biharmonic", 2)])
def test_dumped_matrices_are_the_gathered_scatter(capsys, tmp_path, kind, degree):
    # --dump-matrices still writes the CSR of the gathered pair scatter,
    # byte for byte the files that scatter writes.
    code, _, _ = run_cli(capsys, "solve", "--problem", kind, "--degree", str(degree),
                         "--level", "2", "--num-eigs", "1", "--dump-matrices",
                         str(tmp_path / "mats"))
    assert code == 0
    space = wg_core.WgSpace(build_uniform(2), degree, kind=kind, epsilon=0.1)
    kit, nb = space.kit(), space.dim_interior
    b_local = np.zeros((space.n_local, space.n_local))
    b_local[:nb, :nb] = kit.Gk
    for name, local in (("stiffness", kit.a_local), ("mass", b_local)):
        sio.mmwrite(tmp_path / f"{name}.mtx", wg_core._scatter_symmetric(space, local))
        want = (tmp_path / f"{name}.mtx").read_bytes()
        assert (tmp_path / "mats" / f"{name}.mtx").read_bytes() == want


@pytest.mark.parametrize("argv", [
    ("solve", "--level", "3", "--num-eigs", "2"),
    ("study", "--levels", "1:3", "--num-eigs", "2"),
    ("sipg", "--problem", "biharmonic", "--degree", "2", "--coarse-level", "1",
     "--fine-level", "3", "--num-eigs", "2"),
    ("table", "--fine-level", "3", "--coarse-levels", "1,2", "--with-direct",
     "--num-eigs", "2"),
])
def test_no_solve_path_builds_a_global_matrix(capsys, monkeypatch, argv):
    # Every product on the solve path is matrix-free, and the pivot ratio's
    # scale comes from one element's rows: with the global scatter refused,
    # each command still exits 0 with its rows.
    def refuse(space, local):
        raise AssertionError("a global sparse matrix was assembled")

    monkeypatch.setattr(wg_core, "_scatter_symmetric", refuse)
    code, out, err = run_cli(capsys, *argv, "--output", "csv")
    assert code == 0 and err == ""
    assert parse_csv(out)


def test_config_with_direct_acts_like_its_flag(capsys, tmp_path):
    table = ["table", "--fine-level", "3", "--coarse-levels", "2", "--num-eigs", "2",
             "--output", "csv"]
    code, by_flag, _ = run_cli(capsys, *table, "--with-direct")
    assert code == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("with_direct = true\n")
    code, by_file, _ = run_cli(capsys, *table, "--config", str(cfg))
    assert code == 0
    assert without_seconds(by_file) == without_seconds(by_flag)
    assert all(row["lambda_h"] for row in without_seconds(by_file))


def test_config_dumps_act_like_their_flags(capsys, tmp_path):
    mesh_path = tmp_path / "mesh.json"
    mat_dir = tmp_path / "mats"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"level = 2\nnum_eigs = 1\ndump_mesh = {mesh_path}\n"
                   f"dump-matrices = {mat_dir}\n")
    code, _, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 0
    assert json.loads(mesh_path.read_text())["num_elements"] == 16
    assert (mat_dir / "stiffness.mtx").is_file() and (mat_dir / "mass.mtx").is_file()


@pytest.mark.parametrize("line", ["with_direct = maybe", "output = xml", "fine_level = two",
                                  "coarse_levels = 3:2", "coarse_levels = 2,2"])
def test_config_bad_value(capsys, tmp_path, line):
    key = line.split(" ")[0]
    rest = [f"{k} = {v}" for k, v in (("fine_level", 3), ("coarse_levels", 2)) if k != key]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([line, *rest]) + "\n")
    code, out, err = run_cli(capsys, "table", "--config", str(cfg), "--num-eigs", "1")
    assert code == 2 and out == ""
    assert f"run.cfg:1: {key}: " in err


SPACES = st.sampled_from([("laplacian", 1), ("laplacian", 2), ("laplacian", 3),
                          ("biharmonic", 2), ("biharmonic", 3)])
LEVELS = st.integers(0, 3)


@st.composite
def cli_runs(draw):
    """One command line: any command, space and epsilon, levels up to 3 with
    coarse below fine, and num_eigs from 0 to past the mass rank of the
    coarsest level (up to 8 where that rank is large, to bound the time)."""
    command = draw(st.sampled_from(["solve", "study", "sipg", "table"]))
    problem, degree = draw(SPACES)
    if command == "solve":
        levels = [draw(LEVELS)]
        argv = ["--level", str(levels[0])]
    elif command == "study":
        levels = draw(st.lists(LEVELS, min_size=1, max_size=3, unique=True))
        argv = ["--levels", ",".join(map(str, levels))]
    elif command == "sipg":
        levels = sorted(draw(st.lists(LEVELS, min_size=2, max_size=2, unique=True)))
        argv = ["--coarse-level", str(levels[0]), "--fine-level", str(levels[1])]
    else:
        levels = sorted(draw(st.lists(LEVELS, min_size=2, max_size=3, unique=True)))
        argv = ["--coarse-levels", ",".join(map(str, levels[:-1])),
                "--fine-level", str(levels[-1])]
        if draw(st.booleans()):
            argv.append("--with-direct")
    rank = 4 ** min(levels) * (degree + 1) * (degree + 2) // 2
    num_eigs = draw(st.integers(1, rank + 1 if rank <= 16 else 8) | st.just(0))
    return [command, "--problem", problem, "--degree", str(degree),
            "--epsilon", repr(draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))),
            "--num-eigs", str(num_eigs),
            "--output", "json", *argv]


@settings(max_examples=80)
@given(cli_runs())
# Exit 0 with collision warnings on targets 1-3, so the JSON warnings are
# matched against the stderr lines on every run.
@example(["sipg", "--problem", "laplacian", "--degree", "4", "--epsilon", "0.1",
          "--num-eigs", "6", "--output", "json", "--coarse-level", "2", "--fine-level", "3"])
def test_every_configuration_exits_by_the_contract(argv):
    # Exit 0 with finite values (a missing lambda_tilde only with its warning),
    # 2 for a configuration error, 3 for a solver failure; never a traceback.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code:
        assert out == ""
        assert ("error:" if code == 2 else "solver failure:") in err, (argv, err)
        return
    doc = json.loads(out)
    warned = [line[len("warning: "):] for line in err.splitlines()
              if line.startswith("warning: ")]
    assert doc["warnings"] == warned
    assert doc["rows"]
    for row in doc["rows"]:
        assert row["lambda_h"] is None or np.isfinite(row["lambda_h"])
        tilde = row["lambda_tilde"]
        if row["H_level"] < row["h_level"] and (tilde is None or not np.isfinite(tilde)):
            assert any(w.startswith(f"index {row['index']}:") for w in warned), (argv, row)


@pytest.mark.parametrize("argv,code", [
    (("solve", "--level", "1", "--num-eigs", "1", "--output", "csv"), 0),
    (("solve", "--level", "1", "--num-eigs", "1", "--tol", "0"), 2),
])
def test_module_entry_point_exits_with_the_status(argv, code):
    # python -m wgeig runs main_entry, as the installed wgeig script does,
    # and hands main's status to sys.exit.
    src = str(Path(wg_core.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-m", "wgeig", *argv], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == code, run.stderr
    if code == 0:
        assert len(parse_csv(run.stdout)) == 1 and run.stderr == ""
    else:
        assert run.stdout == "" and "--tol must lie in (0, 1)" in run.stderr
