"""Command-line interface producing deterministic JSON check records.

Configuration is INI-style: a [pyramid] section with `rows` or `cols`
(integers separated by spaces or commas, as for --rows/--cols), an
optional [weight] section with lambda1..lambdaN lines (comma-separated
fractions), and an optional [run] section with rmax; any other section or
key is a configuration error, and a malformed value is an error that
names its flag or [section] key.  The flags override the file, and one
source that gives both rows and cols is a usage error.  Every subcommand
emits a record {"schema": 1, ...} with stable key order and no
timestamps; timing is printed separately so records are byte-identical
across runs.  Exit status: 0 all checks pass, 1 a check fails, 2 usage
or configuration error, 3 an internal error (an unexpected exception,
reported on one line); on exit 2 or 3 no record is written, and an
--out file the run created is removed."""

import argparse
import configparser
import json
import os
import re
import sys
import time
from fractions import Fraction
from functools import cache, partial

from .errors import ConfigError, WrepError
from .patterns import HighestWeight, generic_weight, enumerate_patterns
from .pyramid import (
    Pyramid,
    gamma_generator_count,
    gk_dimension,
    gk_parameters,
    pbw_variable_count,
    shift_group_rank,
)
from .rep import (
    RELATION_FAMILIES,
    build_representation,
    generator_series,
    verify_defining_relations,
)


_NOUNS = {int: "an integer", Fraction: "a fraction"}


def _value(kind, token, source):
    """kind(token) for kind int or Fraction; a malformed token is an error
    that names ``source``, the flag or [section] key it came from."""
    try:
        return kind(token)
    except (ValueError, ZeroDivisionError):
        raise WrepError("%s: %r is not %s" % (source, token, _NOUNS[kind])) from None


def _values(kind, text, source):
    """The tokens of text, separated by spaces or commas, read by _value."""
    return [_value(kind, tok, source) for tok in text.replace(",", " ").split()]


# The keys each config section may hold; _basis checks lambdaN
# against the pyramid.
_CONFIG_KEYS = {"pyramid": "rows|cols", "weight": "lambda[1-9][0-9]*", "run": "rmax"}


def _load_config(path):
    """The file's sections as plain dicts.  Every value is read, and so
    interpolated, here: a malformed file, or one with a section or key
    that no command reads, fails before any work starts."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ConfigError("cannot read config file %r" % path)
        cfg = {name: dict(cp[name]) for name in cp.sections()}
    except configparser.Error as exc:
        raise ConfigError("malformed config file: %s" % " ".join(str(exc).split())) from None
    except UnicodeDecodeError as exc:
        raise ConfigError("config file %r is not text: %s" % (path, exc.reason)) from None
    for name, sec in cfg.items():
        if name not in _CONFIG_KEYS:
            raise ConfigError("unknown config section [%s]" % name)
        for key in sec:
            if not re.fullmatch(_CONFIG_KEYS[name], key):
                raise ConfigError("unknown key %r in config section [%s]" % (key, name))
    return cfg


def _pyramid_from(args, cfg):
    """The pyramid of --rows or --cols, else of the [pyramid] section; a
    source that gives both rows and cols is a usage error."""
    for prefix, given in (("--", vars(args)), ("[pyramid] ", cfg.get("pyramid", {}))):
        if given.get("rows") and given.get("cols"):
            raise WrepError("%srows and %scols both given: give one of them" % (prefix, prefix))
        for key in ("rows", "cols"):
            if given.get(key):
                return Pyramid(**{key: _values(int, given[key], prefix + key)})
    raise WrepError("no pyramid given (use --rows/--cols or a [pyramid] section)")


def _basis(args, cfg):
    """The patterns whose top row is the [weight] weight, else the generic one."""
    pyr = _pyramid_from(args, cfg)
    if "weight" not in cfg:
        return enumerate_patterns(generic_weight(pyr))
    sec = cfg["weight"]
    keys = ["lambda%d" % i for i in range(1, pyr.n + 1)]
    for key in sorted(set(keys).symmetric_difference(sec)):
        if key in sec:
            raise ConfigError("unknown key %r in config section [weight] "
                              "(%d-row pyramid)" % (key, pyr.n))
        raise WrepError("missing %s in [weight]" % key)
    return enumerate_patterns(HighestWeight(
        pyr, [_values(Fraction, sec[key], "[weight] " + key) for key in keys]))


def _run_params(args, cfg):
    pyr = _pyramid_from(args, cfg)
    k, m = gk_parameters(pyr)
    return {
        "pyramid_rows": list(pyr.rows),
        "pyramid_cols": list(pyr.cols),
        "leg_length_sum": k,
        "brick_count": m,
        "gk_dimension": gk_dimension(pyr),
        "pbw_variable_count": pbw_variable_count(pyr),
        "diagonal_generator_count": gamma_generator_count(pyr),
        "shift_group_rank": shift_group_rank(pyr),
    }, []


def _run_dim(args, cfg):
    return {"dimension": len(_basis(args, cfg))}, []


def _fraction_str(f):
    return "%d/%d" % (f.numerator, f.denominator)


def _dump_matrices(rep):
    out = []
    families = [("A", rep.A, range(1, rep.n + 1)),
                ("B", rep.B, range(1, rep.n)),
                ("C", rep.C, range(1, rep.n))]
    for name, table, indices in families:
        for r in indices:
            pm = table[r]
            entries = []
            for power, mat in enumerate(pm.coeffs):
                for i, j, v in mat.entries():
                    entries.append([i, j, _fraction_str(v), power])
            entries.sort()
            out.append({
                "generator": name,
                "index": r,
                "degree": pm.degree,
                "entries": entries,
            })
    return out


def _representation(args, cfg):
    """The representation on the configured basis."""
    return build_representation(_basis(args, cfg))


def _check(name, passed, witness):
    return {"name": name, "status": "PASS" if passed else "FAIL", "witness": witness}


def _skip(name, why):
    return {"name": name, "status": "SKIP", "witness": why}


def _guarded(name, compute):
    """The check ``name`` from compute() -> (passed, witness); a WrepError
    it raises is a FAIL with the error message as witness."""
    try:
        return _check(name, *compute())
    except WrepError as exc:
        return _check(name, False, str(exc))


def _fault(name, exc, dependents):
    """Checks for a fault ``exc`` that stops a run: a FAIL of ``name`` with
    the error message as witness, then a SKIP of each dependent check."""
    return [_check(name, False, str(exc))] + [
        _skip(d, "not run: %s failed" % name) for d in dependents]


def _run_build(args, cfg):
    rep = _representation(args, cfg)
    try:
        matrices = _dump_matrices(rep)
    except WrepError as exc:
        # B and C are assembled, and their degrees checked, on first read
        return {"dimension": rep.dim}, _fault("B and C within their degree bounds", exc, [])
    return {"dimension": rep.dim, "matrices": matrices}, []


def _rmax_from(args, cfg):
    if args.rmax is not None:
        rmax = args.rmax
    elif "rmax" in cfg.get("run", {}):
        rmax = _value(int, cfg["run"]["rmax"], "[run] rmax")
    else:
        return 3
    if rmax < 1:
        raise WrepError("rmax must be at least 1, got %d" % rmax)
    return rmax


def _run_verify(args, cfg):
    R = _rmax_from(args, cfg)
    rep = _representation(args, cfg)
    info = {"dimension": rep.dim, "order": R}
    try:
        report = verify_defining_relations(rep, R)
    except WrepError as exc:
        return info, _fault("generator series", exc,
                            ["relations: %s" % name for name in RELATION_FAMILIES])
    checks = [_check("relations: %s" % name, not fails,
                     fails[0] if fails else "%d instances verified" % count)
              for name, count, fails in report.families]
    return info, checks


def _run_fibers(args, cfg):
    from .gamma import check_fiber_bound, fiber_bound, fibers, gamma_commutes

    rep = _representation(args, cfg)
    pyr = rep.pyramid
    checks = [_check("diagonal coefficients commute", gamma_commutes(rep), "")]
    fib = {}

    def singletons():
        found, singl = fibers(rep)
        fib.update(found)
        return singl, "%d fibers over %d basis vectors" % (len(fib), rep.dim)

    checks.append(_guarded("joint-spectrum fibers are singletons", singletons))
    name = "fiber size within the factorial bound"
    if fib:
        biggest, ok = check_fiber_bound(pyr, fib)
        checks.append(_check(name, ok, "max fiber %d, bound %d"
                             % (biggest, fiber_bound(pyr))))
    else:
        checks.append(_skip(name, "no fibers: the characters are inconsistent"))
    return {"dimension": rep.dim}, checks


def _run_center(args, cfg):
    from .center import (build_t_matrix, cdet_vs_top_row, central_coefficients,
                         column_determinant, quasideterminant_check)

    rmax = _rmax_from(args, cfg)
    rep = _representation(args, cfg)
    pyr = rep.pyramid
    R = max(max(pyr.rows) + 3, rmax)
    info = {"dimension": rep.dim, "order": R}
    central = "determinant coefficients are central scalars"
    quasi = "two-row quasideterminant shift identity"
    top_row = "determinant equals the top-row polynomial (recorded, not asserted)"
    try:
        T = build_t_matrix(generator_series(rep, R))
    except WrepError as exc:
        return info, _fault("generator series and T-matrix", exc, [central, quasi, top_row])
    cdet = column_determinant(T, pyr.n)

    def scalars():
        found = central_coefficients(rep, cdet)
        return True, {str(s): _fraction_str(v) for s, v in sorted(found.items())}

    checks = [_guarded(central, scalars)]
    if pyr.n == 2:
        checks.append(_check(quasi, quasideterminant_check(T, cdet), ""))
    else:
        checks.append(_skip(quasi, "only defined for two rows"))
    checks.append(_check(top_row, True, cdet_vs_top_row(rep, cdet)))
    return info, checks


def _run_galois(args, cfg):
    from .galois import cross_check

    rep = _representation(args, cfg)

    def comparisons():
        return True, "%d comparisons, each an identity in u" % cross_check(rep)

    checks = [_guarded("skew-model action matches the matrices", comparisons)]
    return {"dimension": rep.dim}, checks


def _run_leading(args, cfg):
    from .grord import verify_leading_claims

    pyr = _pyramid_from(args, cfg)

    def claims():
        count = verify_leading_claims(pyr)
        return True, "%d coefficient polynomials checked" % count

    return {}, [_guarded("weighted leading monomials", claims)]


def _round_trip_witness(op):
    from .noether import round_trip

    data = round_trip(op)
    # the second field is the coefficient's discriminant power, always 0:
    # every coefficient is a sigma-polynomial
    return True, {str(b): [repr(sp), 0] for b, sp in sorted(data.items())}


def _run_noether(args, cfg):
    from .noether import WeylElement, check_shift_iso, check_weyl_relations

    checks = []
    for n in (2, 3):
        checks.append(_guarded("Weyl relations (n=%d)" % n,
                               lambda: (check_weyl_relations(n), "")))
        checks.append(_guarded("shift-algebra embedding (n=%d)" % n,
                               lambda: (check_shift_iso(n), "")))
        ops = {}
        e = WeylElement(n, {})
        sd = WeylElement(n, {})
        sx = WeylElement(n, {})
        for i in range(n):
            e = e + WeylElement.x(n, i) * WeylElement.d(n, i)
            sd = sd + WeylElement.d(n, i)
            sx = sx + WeylElement.x(n, i, 2) * WeylElement.d(n, i)
        ops["euler"] = e
        ops["sum of derivatives"] = sd
        ops["sum of x^2 d"] = sx
        for label, op in ops.items():
            checks.append(_guarded(
                "symmetric rewrite round trip: %s (n=%d)" % (label, n),
                partial(_round_trip_witness, op)))
    return {}, checks


_COMMANDS = {
    "params": _run_params,
    "dim": _run_dim,
    "build": _run_build,
    "verify": _run_verify,
    "fibers": _run_fibers,
    "center": _run_center,
    "galois-check": _run_galois,
    "leading": _run_leading,
    "noether-demo": _run_noether,
}


def _cannot_write(path, exc):
    print("error: cannot write %r: %s" % (path, exc.strerror), file=sys.stderr)
    return 2


def _open_out(path):
    """Make sure the record can be written to path before the run, so a
    bad path costs no work: path if this call created the file, else
    None.  An existing file keeps its bytes until the record replaces
    them."""
    try:
        open(path, "x").close()
        return path
    except FileExistsError:
        open(path, "a").close()
        return None


def _no_record(status, message, created):
    """Exit status of a run that wrote no record: the error on one line,
    and the --out file removed if this run created it (``created``, its
    path, or None)."""
    print("error: %s" % message, file=sys.stderr)
    if created:
        os.remove(created)
    return status


@cache
def _parser():
    """The command-line parser, built once per process; parse_args does
    not change it."""
    parser = argparse.ArgumentParser(
        prog="wrep",
        description="exact checks for pattern-basis representations",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--rows", help="pyramid row lengths, e.g. '1 2 2'")
    parser.add_argument("--cols", help="pyramid column heights")
    parser.add_argument("--rmax", type=int, help="relation index bound")
    parser.add_argument("--out", help="write the JSON record to this file")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    created = None
    if args.out:
        try:
            created = _open_out(args.out)
        except OSError as exc:
            return _cannot_write(args.out, exc)
    try:
        cfg = _load_config(args.config) if args.config else {}
        t0 = time.perf_counter()
        info, checks = _COMMANDS[args.command](args, cfg)
        elapsed = time.perf_counter() - t0
    except WrepError as exc:
        return _no_record(2, exc, created)
    except Exception as exc:
        # a fault of the program, not of the input or of a checked claim
        return _no_record(3, "internal: %s: %s" % (type(exc).__name__, exc), created)

    record = {
        "schema": 1,
        "command": args.command,
        "info": info,
        "checks": checks,
    }
    text = json.dumps(record, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _cannot_write(args.out, exc)
    else:
        print(text)
    for c in checks:
        print("%s %s" % (c["status"], c["name"]), file=sys.stderr)
    print("elapsed: %.3fs" % elapsed, file=sys.stderr)
    return 1 if any(c["status"] == "FAIL" for c in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
