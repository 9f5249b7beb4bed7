"""Benchmark workloads: fixed job tables and the seeded weight generator.

A job is one ``wrep`` subcommand on one pyramid.  Jobs that take a highest
weight get one drawn from the seed: the integer row gaps are those of
``generic_weight`` (consecutive rows differ by 1 in every column), so the
basis dimension, and with it the job's cost, is fixed; only the fractional
part of each column comes from the seed.
"""

import random
from fractions import Fraction

from wrep.errors import ValidationError
from wrep.patterns import HighestWeight, validate_highest_weight
from wrep.pyramid import Pyramid

# Column k's fractional part is a / q with q the k-th of these primes in a
# seeded order: distinct denominators make every cross-column difference
# non-integral (generic), and a fixed set of them keeps the entry sizes, and
# so the cost, close across seeds.
DENOMINATORS = (3, 5, 7, 11)


class Job:
    """One CLI call: ``wrep <command> --config <ini> --out <json>``."""

    def __init__(self, command, rows, rmax):
        self.command = command
        self.rows = rows
        self.rmax = rmax
        self.dimension = None  # expected info.dimension of weighted jobs
        self.weight = None  # per-row tuples of Fractions

    @property
    def name(self):
        if self.rows is None:
            return self.command
        return "%s(%s)" % (self.command, ",".join(str(p) for p in self.rows))

    def config_text(self):
        lines = []
        if self.rows is not None:
            lines += ["[pyramid]", "rows = " + " ".join(str(p) for p in self.rows), ""]
        if self.weight is not None:
            lines.append("[weight]")
            for i, row in enumerate(self.weight, start=1):
                lines.append("lambda%d = %s" % (i, ", ".join(str(x) for x in row)))
            lines.append("")
        if self.rmax is not None:
            lines += ["[run]", "rmax = %d" % self.rmax, ""]
        return "\n".join(lines)


class Workload:
    """A fixed job table, the job reported as largest_job_s, and the wrep
    modules its commands import (what setup_s pays for)."""

    def __init__(self, jobs, largest, modules):
        self.jobs = jobs  # list of (command, rows, rmax)
        self.largest = largest
        self.modules = modules


# Basis dimensions are the Gelfand-Tsetlin counts for unit row gaps.
_DIMS = {(1, 1): 2, (2, 2): 4, (2, 3): 4, (1, 1, 1): 8, (1, 2, 2): 16,
         (2, 2, 3): 64, (2, 3, 3): 128}
_UNWEIGHTED = ("leading", "noether-demo")

WORKLOADS = {
    "relations": Workload(
        [("verify", r, 4) for r in ((1, 2, 2), (2, 2, 3), (2, 3, 3))],
        "verify(2,3,3)",
        ("wrep.cli",),
    ),
    "spectra": Workload(
        [(c, r, None) for c in ("center", "fibers")
         for r in ((2, 2), (2, 2, 3), (2, 3, 3))],
        "center(2,3,3)",
        ("wrep.cli", "wrep.gamma", "wrep.center"),
    ),
    "symbolic": Workload(
        [("galois-check", r, None)
         for r in ((1, 1), (2, 2), (2, 3), (1, 1, 1), (1, 2, 2))]
        + [("leading", r, None)
           for r in ((1, 2, 2), (2, 2, 3), (2, 3, 3), (1, 2, 2, 2))]
        + [("noether-demo", None, None)],
        "galois-check(1,2,2)",
        ("wrep.cli", "wrep.galois", "wrep.grord", "wrep.noether"),
    ),
}


def draw_weight(pyramid, rng):
    """Generic dominant weight with unit row gaps and seeded fractional
    parts: row i, column k holds (n - i) + a_k / q_k."""
    n = pyramid.n
    denominators = list(DENOMINATORS[:max(pyramid.rows)])
    rng.shuffle(denominators)
    frac = [Fraction(rng.randint(1, q - 1), q) for q in denominators]
    parts = [[Fraction(n - i) + frac[k] for k in range(pyramid.p(i))]
             for i in range(1, n + 1)]
    weight = HighestWeight(pyramid, parts)
    problems = validate_highest_weight(weight)
    if problems:
        raise ValidationError("drawn weight is not generic dominant: %r" % problems)
    return weight


def make_jobs(workload, seed):
    """The workload's job list with weights drawn from the seed.

    Each job has its own generator, seeded by the run seed and the job's
    name, so a job's weight does not depend on the jobs before it."""
    jobs = []
    for command, rows, rmax in WORKLOADS[workload].jobs:
        job = Job(command, rows, rmax)
        if command not in _UNWEIGHTED:
            job.dimension = _DIMS[rows]
            rng = random.Random("%d/%s" % (seed, job.name))
            job.weight = draw_weight(Pyramid(rows=rows), rng).parts
        jobs.append(job)
    return jobs
