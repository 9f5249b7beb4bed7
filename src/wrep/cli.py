"""Command-line interface producing deterministic JSON check records.

Configuration is INI-style: a [pyramid] section with `rows` or `cols`, an
optional [weight] section with lambda1..lambdaN lines (comma-separated
fractions), and an optional [run] section with rmax / points.  Every
subcommand emits a record {"schema": 1, ...} with stable key order and no
timestamps; timing is printed separately so records are byte-identical
across runs.  Exit status: 0 all checks pass, 1 a check fails, 2 usage or
configuration error."""

import argparse
import configparser
import json
import sys
import time
from fractions import Fraction

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
from .rep import build_representation, generator_series, verify_defining_relations


def _parse_fraction_list(text):
    try:
        return [Fraction(tok) for tok in text.replace(",", " ").split()]
    except ZeroDivisionError:
        raise WrepError("zero denominator in %r" % text) from None


def _load_config(path):
    """The file's sections as plain dicts.  Every value is read, and so
    interpolated, here: a malformed file fails before any work starts."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ConfigError("cannot read config file %r" % path)
        return {name: dict(cp[name]) for name in cp.sections()}
    except configparser.Error as exc:
        raise ConfigError("malformed config file: %s" % " ".join(str(exc).split())) from None


def _pyramid_from(args, cfg):
    if args.rows:
        return Pyramid(rows=[int(t) for t in args.rows.replace(",", " ").split()])
    if args.cols:
        return Pyramid(cols=[int(t) for t in args.cols.replace(",", " ").split()])
    if "pyramid" in cfg:
        sec = cfg["pyramid"]
        if "rows" in sec:
            return Pyramid(rows=[int(t) for t in sec["rows"].split()])
        if "cols" in sec:
            return Pyramid(cols=[int(t) for t in sec["cols"].split()])
    raise WrepError("no pyramid given (use --rows/--cols or a [pyramid] section)")


def _weight_from(pyr, cfg):
    if "weight" in cfg:
        parts = []
        for i in range(1, pyr.n + 1):
            key = "lambda%d" % i
            if key not in cfg["weight"]:
                raise WrepError("missing %s in [weight]" % key)
            parts.append(_parse_fraction_list(cfg["weight"][key]))
        return HighestWeight(pyr, parts)
    return generic_weight(pyr)


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
    pyr = _pyramid_from(args, cfg)
    w = _weight_from(pyr, cfg)
    basis = enumerate_patterns(w)
    return {"dimension": len(basis)}, []


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
                for i, j, v in sorted(mat.entries()):
                    entries.append([i, j, _fraction_str(v), power])
            entries.sort()
            out.append({
                "generator": name,
                "index": r,
                "degree": pm.degree,
                "entries": entries,
            })
    return out


def _run_build(args, cfg):
    pyr = _pyramid_from(args, cfg)
    w = _weight_from(pyr, cfg)
    rep = build_representation(pyr, w)
    return {"dimension": rep.dim, "matrices": _dump_matrices(rep)}, []


def _rmax_from(args, cfg):
    if args.rmax is not None:
        rmax = args.rmax
    elif "rmax" in cfg.get("run", {}):
        rmax = int(cfg["run"]["rmax"])
    else:
        return 3
    if rmax < 1:
        raise WrepError("rmax must be at least 1, got %d" % rmax)
    return rmax


def _points_from(args, cfg):
    if args.points:
        return _parse_fraction_list(args.points)
    if "points" in cfg.get("run", {}):
        return _parse_fraction_list(cfg["run"]["points"])
    return [Fraction(0), Fraction(7), Fraction(-3)]


def _run_verify(args, cfg):
    pyr = _pyramid_from(args, cfg)
    w = _weight_from(pyr, cfg)
    rep = build_representation(pyr, w)
    R = _rmax_from(args, cfg)
    report = verify_defining_relations(rep, R)
    checks = []
    for name, count, fails in report.families:
        checks.append({
            "name": "relations: %s" % name,
            "status": "FAIL" if fails else "PASS",
            "witness": fails[0] if fails else "%d instances verified" % count,
        })
    return {"dimension": rep.dim, "order": R}, checks


def _run_fibers(args, cfg):
    from .gamma import check_fiber_bound, fiber_bound, fibers, gamma_commutes

    pyr = _pyramid_from(args, cfg)
    w = _weight_from(pyr, cfg)
    rep = build_representation(pyr, w)
    checks = []
    checks.append({
        "name": "diagonal coefficients commute",
        "status": "PASS" if gamma_commutes(rep) else "FAIL",
        "witness": "",
    })
    fib, singl = fibers(rep)
    checks.append({
        "name": "joint-spectrum fibers are singletons",
        "status": "PASS" if singl else "FAIL",
        "witness": "%d fibers over %d basis vectors" % (len(fib), rep.dim),
    })
    biggest, ok = check_fiber_bound(rep)
    checks.append({
        "name": "fiber size within the factorial bound",
        "status": "PASS" if ok else "FAIL",
        "witness": "max fiber %d, bound %d" % (biggest, fiber_bound(pyr)),
    })
    return {"dimension": rep.dim}, checks


def _run_center(args, cfg):
    from .center import (build_t_matrix, cdet_vs_top_row, central_coefficients,
                         column_determinant, quasideterminant_check)

    pyr = _pyramid_from(args, cfg)
    w = _weight_from(pyr, cfg)
    rep = build_representation(pyr, w)
    R = max(max(pyr.rows) + 3, _rmax_from(args, cfg))
    gens = generator_series(rep, R)
    T = build_t_matrix(gens)
    cdet = column_determinant(T, pyr.n)
    checks = []
    try:
        scalars = central_coefficients(rep, cdet)
        checks.append({
            "name": "determinant coefficients are central scalars",
            "status": "PASS",
            "witness": {str(s): _fraction_str(v) for s, v in sorted(scalars.items())},
        })
    except WrepError as exc:
        checks.append({
            "name": "determinant coefficients are central scalars",
            "status": "FAIL",
            "witness": str(exc),
        })
    if pyr.n == 2:
        checks.append({
            "name": "two-row quasideterminant shift identity",
            "status": "PASS" if quasideterminant_check(T, cdet) else "FAIL",
            "witness": "",
        })
    else:
        checks.append({
            "name": "two-row quasideterminant shift identity",
            "status": "SKIP",
            "witness": "only defined for two rows",
        })
    ratios = cdet_vs_top_row(rep, cdet)
    record = [[_fraction_str(u), None if r is None else _fraction_str(r)]
              for (u, _, _, r) in ratios]
    checks.append({
        "name": "determinant / top-row ratio (recorded, not asserted)",
        "status": "PASS",
        "witness": record,
    })
    return {"dimension": rep.dim, "order": R}, checks


def _run_galois(args, cfg):
    from .galois import cross_check

    pyr = _pyramid_from(args, cfg)
    w = _weight_from(pyr, cfg)
    rep = build_representation(pyr, w)
    points = _points_from(args, cfg)
    try:
        count = cross_check(rep, tuple(points))
        checks = [{
            "name": "skew-model action matches the matrices",
            "status": "PASS",
            "witness": "%d comparisons at points %s"
                       % (count, [str(p) for p in points]),
        }]
    except WrepError as exc:
        checks = [{
            "name": "skew-model action matches the matrices",
            "status": "FAIL",
            "witness": str(exc),
        }]
    return {"dimension": rep.dim}, checks


def _run_leading(args, cfg):
    from .grord import verify_leading_claims

    pyr = _pyramid_from(args, cfg)
    try:
        count = verify_leading_claims(pyr)
        checks = [{
            "name": "weighted leading monomials",
            "status": "PASS",
            "witness": "%d coefficient polynomials checked" % count,
        }]
    except WrepError as exc:
        checks = [{
            "name": "weighted leading monomials",
            "status": "FAIL",
            "witness": str(exc),
        }]
    return {}, checks


def _run_noether(args, cfg):
    from .noether import (WeylElement, check_shift_iso, check_weyl_relations,
                          round_trip)

    checks = []
    for n in (2, 3):
        checks.append({
            "name": "Weyl relations (n=%d)" % n,
            "status": "PASS" if check_weyl_relations(n) else "FAIL",
            "witness": "",
        })
        checks.append({
            "name": "shift-algebra embedding (n=%d)" % n,
            "status": "PASS" if check_shift_iso(n) else "FAIL",
            "witness": "",
        })
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
            try:
                data = round_trip(op)
                witness = {
                    str(b): [repr(sp), N]
                    for b, (sp, N) in sorted(data.parts.items())
                }
                status = "PASS"
            except WrepError as exc:
                witness = str(exc)
                status = "FAIL"
            checks.append({
                "name": "symmetric rewrite round trip: %s (n=%d)" % (label, n),
                "status": status,
                "witness": witness,
            })
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


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wrep",
        description="exact checks for pattern-basis representations",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--rows", help="pyramid row lengths, e.g. '1 2 2'")
    parser.add_argument("--cols", help="pyramid column heights")
    parser.add_argument("--rmax", type=int, help="relation index bound")
    parser.add_argument("--points", help="sample points, e.g. '0,7,-3'")
    parser.add_argument("--out", help="write the JSON record to this file")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config) if args.config else {}
        t0 = time.perf_counter()
        info, checks = _COMMANDS[args.command](args, cfg)
        elapsed = time.perf_counter() - t0
    except (WrepError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    record = {
        "schema": 1,
        "command": args.command,
        "info": info,
        "checks": checks,
    }
    text = json.dumps(record, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for c in checks:
        print("%s %s" % (c["status"], c["name"]), file=sys.stderr)
    print("elapsed: %.3fs" % elapsed, file=sys.stderr)
    return 1 if any(c["status"] == "FAIL" for c in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
