import csv
import io
import json

import numpy as np
import pytest
import scipy.io as sio

from wgeig.analysis import ROW_FIELDS
from wgeig.cli import main


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
        "--fine-levels", "3,4", "--coarse-levels", "2", "--num-eigs", "1",
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
                                  "coarse_levels = 3:2"])
def test_config_bad_value(capsys, tmp_path, line):
    key = line.split(" ")[0]
    rest = [f"{k} = {v}" for k, v in (("fine_level", 3), ("coarse_levels", 2)) if k != key]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([line, *rest]) + "\n")
    code, out, err = run_cli(capsys, "table", "--config", str(cfg), "--num-eigs", "1")
    assert code == 2 and out == ""
    assert f"run.cfg:1: {key}: " in err
