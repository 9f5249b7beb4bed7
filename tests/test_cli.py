import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wrep
import wrep.center
import wrep.rep
from wrep import cli, noether
from wrep.arith import UniPoly
from wrep.cli import main
from wrep.errors import InvariantViolation
from wrep.rep import RELATION_FAMILIES, build_representation
from wrep.sparse import SparseMatrix


@pytest.fixture()
def config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[pyramid]\nrows = 1 1\n\n"
        "[weight]\nlambda1 = 5/2\nlambda2 = 1/2\n\n"
        "[run]\nrmax = 3\n"
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


@pytest.mark.parametrize("section", ["rows = 1,2", "rows = 1, 2", "cols = 2,1", "cols = 2 1"])
def test_config_pyramid_takes_commas_as_the_flags_do(capsys, tmp_path, section):
    path = tmp_path / "run.ini"
    path.write_text("[pyramid]\n%s\n" % section)
    code, rec = run(capsys, "params", "--config", str(path))
    assert code == 0
    assert rec["info"]["pyramid_rows"] == [1, 2]


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


def test_fibers_character_mismatch_is_a_failed_check(capsys, monkeypatch):
    # a diagonal entry of a_1^{(2)} no longer matches the pattern's character
    def bumped(pyr, w):
        rep = build_representation(pyr, w)
        a = rep.A[1].coeffs[0]
        rep.A[1].coeffs[0] = a + SparseMatrix.from_entries(rep.dim, [(0, 0, 1)])
        return rep
    monkeypatch.setattr(cli, "build_representation", bumped)
    code, rec = run(capsys, "fibers", "--rows", "2 2")
    assert code == 1
    status = {c["name"]: (c["status"], c["witness"]) for c in rec["checks"]}
    assert status["diagonal coefficients commute"][0] == "PASS"
    singletons = status["joint-spectrum fibers are singletons"]
    assert singletons[0] == "FAIL"
    assert singletons[1].startswith("character mismatch at pattern")
    assert status["fiber size within the factorial bound"][0] == "SKIP"


@pytest.mark.parametrize("argv, text, named", [
    (["verify", "--rows", "1 1", "--rmax", "0"], None, None),
    (["center", "--rows", "1 1", "--rmax", "-1"], None, None),
    (["galois-check"], "[pyramid]\nrows = 1 1\n[weight]\nlambda1 = 1/0\nlambda2 = 0\n",
     "[weight] lambda1: '1/0' is not a fraction"),
    (["verify", "--rows", "1,a"], None, "--rows: 'a' is not an integer"),
    (["dim", "--cols", "2 1.5"], None, "--cols: '1.5' is not an integer"),
    (["params", "--rows", "1,2", "--cols", "2"], None,
     "--rows and --cols both given: give one of them"),
], ids=["rmax-zero", "rmax-negative", "weight-zero-denominator", "rows-not-an-integer",
        "cols-not-an-integer", "rows-and-cols"])
def test_bad_argument_exit_code(capsys, tmp_path, argv, text, named):
    if text is not None:
        path = tmp_path / "bad.ini"
        path.write_text(text)
        argv = argv + ["--config", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    if named is not None:
        assert captured.err == "error: %s\n" % named


def test_points_option_is_gone(capsys):
    # galois-check compares polynomials in u; there are no sample points
    with pytest.raises(SystemExit) as exc:
        main(["galois-check", "--rows", "1 1", "--points", "0,7,-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --points" in capsys.readouterr().err


_WEIGHT = "[weight]\nlambda1 = 5/2\nlambda2 = 1/2\n"


@pytest.mark.parametrize("text, named", [
    ("rows = 1 1\n", None),
    ("[pyramid]\nrows = 1 1\n[pyramid]\nrows = 1 2\n", None),
    ("[pyramid]\nrows = 1 1\nrows = 1 2\n", None),
    ("[pyramid]\nrows = 1 1\n[run]\nrmax = %(x)s\n", None),
    ("[pyramid]\nrows 1 1\n", None),
    ("[pyramid]\nrows = 1 1\n" + _WEIGHT.replace("weight", "weights"),
     "unknown config section [weights]"),
    ("[pyramid]\nrows = 1 1\n[run]\nrmx = 1\n",
     "unknown key 'rmx' in config section [run]"),
    ("[pyramid]\nrows = 1 1\n[run]\npoints = 0 7 -3\n",
     "unknown key 'points' in config section [run]"),
    ("[pyramid]\nrows = 1 1\n" + _WEIGHT + "lambda3 = 0\n",
     "unknown key 'lambda3' in config section [weight] (2-row pyramid)"),
    ("[pyramid]\nrows = 1 x\n", "[pyramid] rows: 'x' is not an integer"),
    ("[pyramid]\ncols = 2,y\n", "[pyramid] cols: 'y' is not an integer"),
    ("[pyramid]\nrows = 1 2\ncols = 2\n",
     "[pyramid] rows and [pyramid] cols both given: give one of them"),
    ("[pyramid]\nrows = 1 1\n[run]\nrmax = abc\n", "[run] rmax: 'abc' is not an integer"),
    ("[pyramid]\nrows = 1 1\n" + _WEIGHT.replace("5/2", "abc"),
     "[weight] lambda1: 'abc' is not a fraction"),
], ids=["no-section-header", "duplicate-section", "duplicate-option",
        "bad-interpolation", "line-without-equals", "unknown-section",
        "unknown-run-key", "stale-points-key", "weight-key-past-last-row",
        "rows-not-an-integer", "cols-not-an-integer", "rows-and-cols",
        "rmax-not-an-integer", "weight-not-a-fraction"])
def test_malformed_config_exit_code(capsys, tmp_path, text, named):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    code = main(["verify", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    if named is not None:
        assert captured.err == "error: %s\n" % named


@pytest.mark.parametrize("argv, text", [
    (["verify", "--rows", "1,1,1,2,2", "--rmax", "0"], None),
    (["center", "--rows", "1,1,1,2,2", "--rmax", "-1"], None),
    (["verify"], "[pyramid]\nrows = 1,1,1,2,2\n[run]\nrmax = 0\n"),
    (["center"], "[pyramid]\nrows = 1,1,1,2,2\n[run]\nrmax = abc\n"),
], ids=["verify-flag", "center-flag", "verify-config", "center-config"])
def test_bad_rmax_fails_before_the_build(capsys, monkeypatch, tmp_path, argv, text):
    # a usage error in rmax costs no work: the representation is not built
    built = []

    def build(pyr, w):
        built.append(pyr)
        raise AssertionError("built before rmax was read")

    monkeypatch.setattr(cli, "build_representation", build)
    if text is not None:
        path = tmp_path / "run.ini"
        path.write_text(text)
        argv = argv + ["--config", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert not built
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_pyramid_flag_overrides_the_config_file(capsys, tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[pyramid]\ncols = 2\n")
    code, rec = run(capsys, "params", "--config", str(path), "--rows", "1,2")
    assert code == 0
    assert rec["info"]["pyramid_rows"] == [1, 2]


def test_unwritable_out_path_exit_code(capsys, tmp_path):
    path = str(tmp_path / "missing" / "x.json")
    code = main(["params", "--rows", "1 2", "--out", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write %r" % path)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_unwritable_out_path_fails_before_the_run(capsys, monkeypatch, tmp_path):
    called = []

    def command(args, cfg):
        called.append(args.command)
        raise AssertionError("the command ran before --out was checked")
    monkeypatch.setitem(cli._COMMANDS, "verify", command)
    path = str(tmp_path / "missing" / "x.json")
    code = main(["verify", "--rows", "2 3 3", "--rmax", "4", "--out", path])
    captured = capsys.readouterr()
    assert code == 2
    assert called == []
    assert captured.err.startswith("error: cannot write %r" % path)
    assert captured.err.count("\n") == 1


def _broken_dim(args, cfg):
    raise ZeroDivisionError("division by zero")


@pytest.mark.parametrize("argv, text, status", [
    (["verify", "--rows", "1,2", "--rmax", "0"], None, 2),
    (["verify", "--rows", "1,2,9,1"], None, 2),
    (["verify"], "[pyramid]\nrows = 1 2\n[run]\nrmax = abc\n", 2),
    (["dim", "--rows", "1 1"], None, 3),
], ids=["rmax-zero", "bad-shape", "config-rmax-not-an-integer", "internal-error"])
@pytest.mark.parametrize("existing", [None, b"an earlier record\n"],
                         ids=["new-file", "existing-file"])
def test_failed_run_leaves_no_out_file_behind(capsys, monkeypatch, tmp_path, argv, text, status,
                                              existing):
    # a run that writes no record removes the --out file it created, and
    # leaves a file that was there before with its bytes
    monkeypatch.setitem(cli._COMMANDS, "dim", _broken_dim)
    if text is not None:
        path = tmp_path / "bad.ini"
        path.write_text(text)
        argv = argv + ["--config", str(path)]
    out = tmp_path / "x.json"
    if existing is not None:
        out.write_bytes(existing)
    code = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == status
    assert captured.out == "" and captured.err.count("\n") == 1
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == existing


def test_internal_error_exit_code(capsys, monkeypatch):
    # exit 1 means a failed check; an unexpected exception is exit 3
    def broken(args, cfg):
        raise ZeroDivisionError("division by zero")
    monkeypatch.setitem(cli._COMMANDS, "dim", broken)
    code = main(["dim", "--rows", "1 1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: internal: ZeroDivisionError: division by zero\n"


def _raise_invariant(message):
    def broken(*args):
        raise InvariantViolation(message)
    return broken


def _fault_record(capsys, argv):
    code, rec = run(capsys, *argv)
    assert code == 1
    return [(c["name"], c["status"], c["witness"]) for c in rec["checks"]]


def test_verify_series_fault_is_a_failed_check(capsys, monkeypatch):
    # a fault found while recovering the series fails the run (exit 1) with
    # a record, and every relation family, which needs the series, is SKIP
    monkeypatch.setattr(wrep.rep, "generator_series",
                        _raise_invariant("a_1 inverse is not two-sided"))
    checks = _fault_record(capsys, ["verify", "--rows", "1 2", "--rmax", "2"])
    skip = "not run: generator series failed"
    assert checks == (
        [("generator series", "FAIL", "a_1 inverse is not two-sided")]
        + [("relations: %s" % name, "SKIP", skip) for name in RELATION_FAMILIES])


@pytest.mark.parametrize("module, function", [(cli, "generator_series"),
                                              (wrep.center, "build_t_matrix")])
def test_center_fault_is_a_failed_check(capsys, monkeypatch, module, function):
    message = "t_{12}^{(3)} nonzero beyond the column degree 2"
    monkeypatch.setattr(module, function, _raise_invariant(message))
    checks = _fault_record(capsys, ["center", "--rows", "2 2"])
    skip = "not run: generator series and T-matrix failed"
    assert checks == [
        ("generator series and T-matrix", "FAIL", message),
        ("determinant coefficients are central scalars", "SKIP", skip),
        ("two-row quasideterminant shift identity", "SKIP", skip),
        ("determinant equals the top-row polynomial (recorded, not asserted)", "SKIP",
         skip),
    ]


@pytest.mark.parametrize("cls, method, name, witness", [
    (noether.WeylElement, "commutator", "Weyl relations", "Weyl relation fails at (0,0)"),
    (noether.ShiftAlgebraElement, "__mul__", "shift-algebra embedding",
     "the shift-algebra map is not multiplicative"),
], ids=["weyl", "shift-algebra"])
def test_noether_check_fault_is_a_failed_check(capsys, monkeypatch, cls, method, name,
                                               witness):
    # a constant added to each product makes the check raise: the demo still
    # writes its record, with that check a FAIL and every other check a PASS
    original = getattr(cls, method)

    def bumped(self, other):
        return original(self, other) + cls.const(self.n, 1)
    monkeypatch.setattr(cls, method, bumped)
    checks = _fault_record(capsys, ["noether-demo"])
    assert {c: w for c, status, w in checks if status != "PASS"} == {
        "%s (n=%d)" % (name, n): witness for n in (2, 3)}


# Witnesses of a bumped constant coefficient at rows (1,2,2) under the
# generic weight, whose patterns read GTPattern[row 1 | row 2 | row 3].
_TOP = "4/3 1/3 1/4 | 7/3 4/3 5/4 1/3 1/4]"


@pytest.mark.parametrize("family, index, witness", [
    ("B", 1, "b_1 disagrees with the matrix in the coefficient of u^0: "
             "entry (4,0) differs by -1; "
             "row pattern GTPattern[4/3 | %s, column pattern GTPattern[1/3 | %s"),
    ("C", 1, "c_1 disagrees with the matrix in the coefficient of u^0: "
             "entry (0,4) differs by -1; "
             "row pattern GTPattern[1/3 | %s, column pattern GTPattern[4/3 | %s"),
    ("A", 2, "a_2 disagrees with the matrix in the coefficient of u^0: "
             "entry (0,0) differs by -1; "
             "row pattern GTPattern[1/3 | %s, column pattern GTPattern[1/3 | %s"),
], ids=["B", "C", "A"])
def test_galois_mutation_names_witness(capsys, monkeypatch, family, index, witness):
    def bumped(pyr, w):
        rep = build_representation(pyr, w)
        poly = getattr(rep, family)[index]
        coeff = poly.coeffs[0]
        i, j, _ = min(coeff.entries())
        poly.coeffs[0] = coeff + SparseMatrix.from_entries(rep.dim, [(i, j, 1)])
        return rep
    monkeypatch.setattr(cli, "build_representation", bumped)
    checks = _fault_record(capsys, ["galois-check", "--rows", "1 2 2"])
    assert checks == [("skew-model action matches the matrices", "FAIL",
                       "skew-model action of " + witness % (_TOP, _TOP))]


def test_galois_mutation_vanishing_at_old_sample_points(capsys, monkeypatch):
    # u(u-7)(u+3) E_{0,1} added to B_2 at rows (2,2,3) vanishes at u = 0, 7
    # and -3; compared as a polynomial in u it fails at its u^1 coefficient
    def bumped(pyr, w):
        rep = build_representation(pyr, w)
        unit = SparseMatrix.from_entries(rep.dim, [(0, 1, 1)])
        bump = UniPoly([c * unit for c in UniPoly.from_roots([0, 7, -3]).coeffs])
        rep.B[2] = rep.B[2] + bump
        return rep
    monkeypatch.setattr(cli, "build_representation", bumped)
    (name, status, witness), = _fault_record(capsys, ["galois-check", "--rows", "2 2 3"])
    assert (name, status) == ("skew-model action matches the matrices", "FAIL")
    top = "7/3 9/4 4/3 5/4 1/3 1/4 1/5]"
    assert witness == (
        "skew-model action of b_2 disagrees with the matrix in the coefficient of "
        "u^1: entry (0,1) differs by 21; "
        "row pattern GTPattern[1/3 1/4 | 4/3 5/4 1/3 1/4 | %s, "
        "column pattern GTPattern[1/3 1/4 | 4/3 9/4 1/3 1/4 | %s" % (top, top))


def test_commands_do_not_import_sympy():
    # sympy is a test-only dependency; a fresh interpreter shows whether a
    # command loads it, which this one (where tests may have) cannot
    script = """
import contextlib, io, sys
from wrep.cli import main
for argv in (["noether-demo"], ["galois-check", "--rows", "1 2"],
             ["leading", "--rows", "1 2 2"]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
print("sympy" in sys.modules)
"""
    src = str(Path(wrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("extra, status", [([], 0), (["--rmax", "0"], 2)])
def test_python_m_wrep_passes_the_exit_status_through(extra, status):
    src = str(Path(wrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "wrep", "verify", "--rows", "1,2"] + extra,
                         env=env, capture_output=True, text=True)
    assert out.returncode == status, out.stderr


def test_forked_workers_print_nothing_and_change_no_record(tmp_path, monkeypatch, capsys):
    # standard output is a pipe, so block-buffered: a child that flushed
    # the buffers it inherited, or returned into the CLI, would print a
    # line twice; the record and every line of the run are a serial run's
    argv = ["verify", "--rows", "1,2,2", "--rmax", "2", "--out"]
    monkeypatch.setattr(wrep.rep, "_default_workers", lambda: 1)
    assert main(argv + [str(tmp_path / "serial.json")]) == 0
    serial = [line for line in capsys.readouterr().err.splitlines()
              if not line.startswith("elapsed:")]
    assert serial.count("PASS relations: [d,d]=0") == 1
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(wrep.__file__).resolve().parents[1])
    out = tmp_path / "record.json"
    # python -m wrep on the default workers, and a script that pins two, so
    # that it forks on any host, with a line in its stdout buffer at the fork
    for head in (["-m", "wrep"],
                 ["-c", "import sys, wrep.rep; from wrep.cli import main; "
                        "wrep.rep._default_workers = lambda: 2; print('before'); "
                        "sys.exit(main(sys.argv[1:]))"]):
        done = subprocess.run([sys.executable] + head + argv + [str(out)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == ("" if head[0] == "-m" else "before\n")
        lines = done.stderr.splitlines()
        assert lines[:-1] == serial and lines[-1].startswith("elapsed:")
        assert out.read_bytes() == (tmp_path / "serial.json").read_bytes()
