import json

import pytest

from wrep.cli import main


@pytest.fixture()
def config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[pyramid]\nrows = 1 1\n\n"
        "[weight]\nlambda1 = 5/2\nlambda2 = 1/2\n\n"
        "[run]\nrmax = 3\npoints = 0 7 -3\n"
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_params(capsys):
    code, rec = run(capsys, "params", "--cols", "1 3 4 2 1")
    assert code == 0
    assert rec["schema"] == 1
    assert rec["info"]["leg_length_sum"] == 10
    assert rec["info"]["brick_count"] == 11
    assert rec["info"]["pyramid_rows"] == [1, 2, 3, 5]


def test_dim_with_config(capsys, config):
    code, rec = run(capsys, "dim", "--config", config)
    assert code == 0
    assert rec["info"]["dimension"] == 3


def test_verify(capsys, config):
    code, rec = run(capsys, "verify", "--config", config)
    assert code == 0
    assert all(c["status"] == "PASS" for c in rec["checks"])


def test_build_matrix_dump(capsys, config):
    code, rec = run(capsys, "build", "--config", config)
    assert code == 0
    mats = {(m["generator"], m["index"]): m for m in rec["info"]["matrices"]}
    b1 = mats[("B", 1)]
    assert b1["degree"] == 0
    assert [1, 0, "2/1", 0] in b1["entries"]
    assert [2, 1, "2/1", 0] in b1["entries"]


def test_determinism(tmp_path, config, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify", "--config", config, "--out", str(out1)]) == 0
    assert main(["verify", "--config", config, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_bad_config_exit_code(capsys, tmp_path):
    code = main(["dim", "--config", str(tmp_path / "missing.ini")])
    capsys.readouterr()
    assert code == 2


def test_missing_pyramid_exit_code(capsys):
    code = main(["dim"])
    capsys.readouterr()
    assert code == 2


def test_fibers_and_leading(capsys, config):
    code, rec = run(capsys, "fibers", "--config", config)
    assert code == 0
    assert all(c["status"] == "PASS" for c in rec["checks"])
    code, rec = run(capsys, "leading", "--rows", "1 2")
    assert code == 0
    assert rec["checks"][0]["status"] == "PASS"


@pytest.mark.parametrize("argv", [
    ["verify", "--rows", "1 1", "--rmax", "0"],
    ["center", "--rows", "1 1", "--rmax", "-1"],
    ["galois-check", "--rows", "1 1", "--points", "1/0"],
], ids=["rmax-zero", "rmax-negative", "points-zero-denominator"])
def test_bad_argument_exit_code(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("text", [
    "rows = 1 1\n",
    "[pyramid]\nrows = 1 1\n[pyramid]\nrows = 1 2\n",
    "[pyramid]\nrows = 1 1\nrows = 1 2\n",
    "[pyramid]\nrows = 1 1\n[run]\nrmax = %(x)s\n",
    "[pyramid]\nrows 1 1\n",
], ids=["no-section-header", "duplicate-section", "duplicate-option",
        "bad-interpolation", "line-without-equals"])
def test_malformed_config_exit_code(capsys, tmp_path, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    code = main(["verify", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
