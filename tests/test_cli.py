import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wrep
import wrep.center
import wrep.grord
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
    def bumped(basis):
        rep = build_representation(basis)
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


def test_parser_is_built_once(capsys):
    # main parses each call with one parser; a usage error after a run
    # still exits 2 with the usage message
    parser = cli._parser()
    assert main(["dim", "--rows", "1 1"]) == 0
    assert cli._parser() is parser
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--rows", "1 1", "--bogus"])
    assert exc.value.code == 2
    assert "usage: wrep" in capsys.readouterr().err


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

    def build(basis):
        built.append(basis)
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
    (["verify"], b"[pyramid]\nrows = 1 2\n\xff\n", 2),
    (["dim", "--rows", "1 1"], None, 3),
], ids=["rmax-zero", "bad-shape", "config-rmax-not-an-integer", "config-not-text",
        "internal-error"])
@pytest.mark.parametrize("existing", [None, b"an earlier record\n"],
                         ids=["new-file", "existing-file"])
def test_failed_run_leaves_no_out_file_behind(capsys, monkeypatch, tmp_path, argv, text, status,
                                              existing):
    # a run that writes no record removes the --out file it created, and
    # leaves a file that was there before with its bytes
    monkeypatch.setitem(cli._COMMANDS, "dim", _broken_dim)
    if text is not None:
        path = tmp_path / "bad.ini"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
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


@pytest.mark.parametrize("exc", [ZeroDivisionError("division by zero"),
                                 ValueError("dimension mismatch: 4 vs 5")],
                         ids=["ZeroDivisionError", "ValueError"])
def test_internal_error_exit_code(capsys, monkeypatch, exc):
    # exit 1 means a failed check; an unexpected exception is exit 3, a
    # ValueError of the program too: only a WrepError is a usage error
    def broken(args, cfg):
        raise exc
    monkeypatch.setitem(cli._COMMANDS, "dim", broken)
    code = main(["dim", "--rows", "1 1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: internal: %s: %s\n" % (type(exc).__name__, exc)


def test_undecodable_config_names_the_file(capsys, tmp_path):
    path = tmp_path / "bad.ini"
    path.write_bytes(b"[pyramid]\nrows = 1 2\n\xff\n")
    code = main(["dim", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: config file %r is not text: invalid start byte\n" % str(path)


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


def test_leading_direct_expansion_fault_is_a_failed_check(capsys, monkeypatch):
    # the direct expansion is the determinant's oracle and does not share
    # column_det's signs: one sign flipped in it alone, at sigma = (2,1),
    # fails the check at the first coefficient that sigma reaches
    sign = wrep.grord.perm_sign
    monkeypatch.setattr(wrep.grord, "perm_sign",
                        lambda sigma: -sign(sigma) if tuple(sigma) == (2, 1) else sign(sigma))
    assert _fault_record(capsys, ["leading", "--rows", "1,2,2"]) == [
        ("weighted leading monomials", "FAIL",
         "determinant and direct expansions disagree for d_{2,3}")]


@pytest.mark.parametrize("argv, budget", [
    (["leading", "--rows", "1,2,2,2"], 0),
    (["leading", "--rows", "2,3,3"], 0),
    (["noether-demo"], 600),
], ids=["leading-1222", "leading-233", "noether-demo"])
def test_symbolic_fraction_budget(capsys, monkeypatch, argv, budget):
    # coefficients keep their type, so a Fraction is made only at a
    # division: none in leading, and in noether-demo at rewrite_in_sigma's
    # 1/beta! (578 made); with every coefficient coerced to Fraction the
    # three commands made 3469, 1226 and 4301
    made = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    code = main(argv)
    monkeypatch.undo()
    capsys.readouterr()
    assert code == 0 and made[0] <= budget


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
    def bumped(basis):
        rep = build_representation(basis)
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
    def bumped(basis):
        rep = build_representation(basis)
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


@pytest.mark.parametrize("argv, status", [
    (["noether-demo"], 0), (["leading", "--rows", "2,2,3"], 1),
], ids=["noether-demo", "leading-223"])
def test_cold_and_warm_records_agree(tmp_path, capsys, argv, status):
    # a fresh interpreter starts with every per-n cache empty; a second
    # in-process run finds them filled, and must write the same bytes
    env = dict(os.environ, PYTHONPATH=str(Path(wrep.__file__).resolve().parents[1]))
    cold = tmp_path / "cold.json"
    done = subprocess.run([sys.executable, "-m", "wrep"] + argv + ["--out", str(cold)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == status, done.stderr
    for name in ("first.json", "second.json"):
        assert main(argv + ["--out", str(tmp_path / name)]) == status
    capsys.readouterr()
    assert (tmp_path / "first.json").read_bytes() == cold.read_bytes()
    assert (tmp_path / "second.json").read_bytes() == cold.read_bytes()


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


# B and C are assembled on the first read of either: fibers reads only A,
# and every other command that reads them assembles them once
@pytest.mark.parametrize("argv, assemblies", [
    (["fibers"], 0), (["verify", "--rmax", "2"], 1), (["center"], 1),
    (["galois-check"], 1), (["build"], 1),
], ids=["fibers", "verify", "center", "galois-check", "build"])
def test_ladders_are_assembled_once_by_the_commands_that_read_them(
        capsys, monkeypatch, tmp_path, argv, assemblies):
    from test_golden import GOLDEN

    assemble, calls = wrep.rep._assemble_ladders, []

    def counted(rep):
        calls.append(rep.dim)
        return assemble(rep)

    monkeypatch.setattr(wrep.rep, "_assemble_ladders", counted)
    out = tmp_path / "record.json"
    assert main(argv[:1] + ["--rows", "2,3,3", "--out", str(out)] + argv[1:]) == 0
    assert calls == [128] * assemblies
    if argv == ["fibers"]:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[("2,3,3", "fibers")]


def test_fibers_runs_where_the_ladders_cannot_be_assembled(capsys, monkeypatch, tmp_path):
    from test_golden import GOLDEN

    monkeypatch.setattr(wrep.rep, "_assemble_ladders",
                        _raise_invariant("the ladders were assembled"))
    out = tmp_path / "record.json"
    assert main(["fibers", "--rows", "2,3,3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[("2,3,3", "fibers")]


# A ladder fault (here a degree added to B_1 at (1,2), past its bound 0) is
# found on the first read of B or C: inside a guarded check for verify,
# center and galois-check, which then fail with a record (exit 1), and in
# the matrix dump of build, which has no check to fail (exit 2).  When the
# build checked the ladders, all four exited 2 with the error line.
@pytest.mark.parametrize("command, status, failed", [
    ("verify", 1, "generator series"),
    ("center", 1, "generator series and T-matrix"),
    ("galois-check", 1, "skew-model action matches the matrices"),
    ("build", 1, "B and C within their degree bounds"),
    ("fibers", 0, None),
])
def test_exit_status_of_a_ladder_fault(capsys, monkeypatch, command, status, failed):
    assemble = wrep.rep._assemble_ladders
    message = "deg B_1 = 1 exceeds the bound 0"

    def bumped(rep):
        B, C = assemble(rep)
        B[1] = UniPoly(B[1].coeffs + [SparseMatrix.identity(rep.dim)])
        return B, C

    monkeypatch.setattr(wrep.rep, "_assemble_ladders", bumped)
    code = main([command, "--rows", "1,2"])
    out, err = capsys.readouterr()
    assert code == status
    if status == 2:
        assert not out and err == "error: %s\n" % message
    else:
        fails = [(c["name"], c["witness"]) for c in json.loads(out)["checks"]
                 if c["status"] == "FAIL"]
        assert fails == ([(failed, message)] if failed else [])
