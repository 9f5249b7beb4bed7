"""Spans and counters around wrep's layer boundaries, installed from
outside the package.

``Tracer.installed()`` replaces each traced function by a wrapper under
every name a wrep module binds it to (``wrep.cli`` holds its own
references to ``build_representation`` and friends; ``center`` and
``galois`` are imported lazily, but from module attributes patched here)
and puts the originals back on exit.

Each call records a span ``[name, start, end, parent, job, tail]``:
``parent`` is the index of the enclosing span (-1 for none), ``job`` the
id the runner set, and ``tail`` the time the wrapper itself spent around
the call (span bookkeeping and counters), which is charged to no layer.  A
layer's self time is the duration of its spans minus what their child
spans cover.
"""

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

import wrep.center
import wrep.cli
import wrep.galois
import wrep.gamma
import wrep.grord
import wrep.mpoly
import wrep.noether
from wrep.sparse import SparseMatrix

clock = time.perf_counter


def _basis_size(counters, result):
    counters["patterns.basis_size"] += len(result)


def _relation_instances(counters, result):
    counters["rep.relation_instances"] += result.total_instances()


def _comparisons(counters, result):
    counters["galois.comparisons"] += result


def _product_size(counters, result):
    counters["sparse.matmul_out_nnz"] += result.nnz()
    bits = max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for _, _, v in result.entries()), default=0)
    if bits > counters["sparse.max_entry_bits"]:
        counters["sparse.max_entry_bits"] = bits


def _matrix_operand(args):
    return isinstance(args[1], SparseMatrix)


# (module, attribute, span name, counter hook, guard).  A dotted attribute
# is a method, patched on its class.  A guard that returns False lets the
# call through untraced: sparse.matmul counts matrix-by-matrix products
# only, not products with a scalar.
SPANS = (
    ("wrep.cli", "main", "cli.self", None, None),
    ("wrep.patterns", "enumerate_patterns", "patterns.enumerate", _basis_size, None),
    ("wrep.rep", "build_representation", "rep.build", None, None),
    ("wrep.rep", "generator_series", "rep.series", None, None),
    ("wrep.rep", "verify_defining_relations", "rep.relations", _relation_instances, None),
    ("wrep.arith", "series_inverse", "arith.series_inverse", None, None),
    ("wrep.arith", "poly_to_inv_series", "arith.to_series", None, None),
    ("wrep.sparse", "SparseMatrix.__mul__", "sparse.matmul", _product_size, _matrix_operand),
    ("wrep.sparse", "SparseMatrix.inverse", "sparse.inverse", None, None),
    ("wrep.gamma", "gamma_commutes", "gamma.commutes", None, None),
    ("wrep.gamma", "fibers", "gamma.fibers", None, None),
    ("wrep.center", "build_t_matrix", "center.tmatrix", None, None),
    ("wrep.center", "column_determinant", "center.cdet", None, None),
    ("wrep.center", "central_coefficients", "center.central", None, None),
    ("wrep.center", "quasideterminant_check", "center.quasidet", None, None),
    ("wrep.center", "cdet_vs_top_row", "center.top_row", None, None),
    ("wrep.galois", "cross_check", "galois.cross_check", _comparisons, None),
    ("wrep.galois", "SkewElement.is_invariant", "galois.invariance", None, None),
    ("wrep.galois", "orbit_sum_identity", "galois.invariance", None, None),
    ("wrep.galois", "act_on_basis", "galois.act", None, None),
    ("wrep.mpoly", "MPoly.gcd", "mpoly.gcd", None, None),
    ("wrep.mpoly", "MPoly.evaluate", "mpoly.evaluate", None, None),
    ("wrep.mpoly", "MRat.__eq__", "mpoly.rat_eq", None, None),
    ("wrep.grord", "verify_leading_claims", "grord.leading", None, None),
    ("wrep.noether", "check_weyl_relations", "noether.weyl", None, None),
    ("wrep.noether", "check_shift_iso", "noether.shift_iso", None, None),
    ("wrep.noether", "round_trip", "noether.round_trip", None, None),
)

# Counted, not timed: too frequent and too cheap for a span each.
COUNTED = (("wrep.sparse", "SparseMatrix.__add__", "sparse.add"),)

# Every per-layer value a traced pass yields; all counters are
# deterministic, so they repeat exactly across passes over the same jobs.
METRICS = frozenset(
    [name + suffix for _, _, name, _, _ in SPANS for suffix in ("_s", "_calls")]
    + [name + "_calls" for _, _, name in COUNTED]
    + ["patterns.basis_size", "rep.relation_instances", "galois.comparisons",
       "sparse.matmul_out_nnz", "sparse.max_entry_bits"])


def self_times(spans, scale=None):
    """Self time per span name: each span's duration, minus the duration
    and wrapper time of its direct children.  ``scale``, indexed by job id,
    multiplies the times of each job's spans."""
    out = Counter()
    for name, start, end, parent, job, tail in spans:
        factor = 1 if scale is None else scale[job]
        out[name] += (end - start) * factor
        if parent >= 0:
            out[spans[parent][0]] -= (end - start + tail) * factor
    return out


class Tracer:
    """Collects spans and counters while installed; ``take()`` hands them
    over and starts afresh."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.job = None
        self._stack = []

    def take(self):
        spans, counters = list(self.spans), self.counters.copy()
        self.spans.clear()
        self.counters.clear()
        return spans, counters

    def _span(self, name, fn, hook, guard):
        spans, stack, counters = self.spans, self._stack, self.counters
        calls = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if guard is not None and not guard(args):
                return fn(*args, **kwargs)
            enter = clock()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counters[calls] += 1
            if hook is not None:
                hook(counters, result)
            span[5] = (span[1] - enter) + (clock() - span[2])
            return result

        return wrapper

    def _count(self, name, fn):
        counters = self.counters
        calls = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        patched = []  # (owner, attribute, original)
        try:
            for module, attr, name, hook, guard in SPANS:
                original = _lookup(module, attr)
                _rebind(module, attr, original,
                        self._span(name, original, hook, guard), patched)
            for module, attr, name in COUNTED:
                original = _lookup(module, attr)
                _rebind(module, attr, original, self._count(name, original), patched)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            self._stack.clear()
            self.job = None


def _lookup(module, attr):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def _rebind(module, attr, original, wrapper, patched):
    """Bind the wrapper wherever the original is bound: on its class for a
    method, under every name any wrep module gives it for a function."""
    if "." in attr:
        cls_name, attr = attr.split(".")
        owners = [(getattr(sys.modules[module], cls_name), attr)]
    else:
        owners = [(mod, key)
                  for mod_name, mod in list(sys.modules.items())
                  if mod_name == "wrep" or mod_name.startswith("wrep.")
                  for key, value in vars(mod).items() if value is original]
    for owner, key in owners:
        patched.append((owner, key, original))
        setattr(owner, key, wrapper)
