"""Tests of the benchmark's weight generator and tracer.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import contextlib
import io
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import wrep.cli  # noqa: E402
from speed import PERIOD_S, SpeedProbe  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402
from wrep.patterns import (  # noqa: E402
    HighestWeight,
    enumerate_patterns,
    generic_weight,
    validate_highest_weight,
)
from wrep.pyramid import Pyramid  # noqa: E402
from wrep.sparse import SparseMatrix  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_drawn_weights_are_generic_dominant_with_fixed_dimension(workload):
    for seed in range(20):
        for job in make_jobs(workload, seed):
            if job.weight is None:
                continue
            pyr = Pyramid(rows=job.rows)
            weight = HighestWeight(pyr, job.weight)
            assert validate_highest_weight(weight) == []
            dim = len(enumerate_patterns(weight))
            assert dim == len(enumerate_patterns(generic_weight(pyr)))
            assert dim == job.dimension


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_reproduces_the_job_list(workload):
    def listing(seed):
        return [(job.name, job.config_text()) for job in make_jobs(workload, seed)]

    assert listing(11) == listing(11)
    assert any(listing(11) != listing(seed) for seed in range(12, 20))


def test_seed_varies_only_fractional_parts():
    for seed in range(20):
        for job in make_jobs("relations", seed):
            n = len(job.rows)
            for i, row in enumerate(job.weight, start=1):
                assert [int(x) for x in row] == [n - i] * len(row)


def test_largest_job_is_in_each_workload():
    for name, workload in WORKLOADS.items():
        assert workload.largest in [job.name for job in make_jobs(name, 0)]


def run_cli(tmp_path, command, rows, tracer=None):
    ini = tmp_path / "job.ini"
    ini.write_text("[pyramid]\nrows = %s\n\n[run]\nrmax = 3\n" % rows)
    out = tmp_path / "out.json"
    with contextlib.redirect_stderr(io.StringIO()):
        if tracer is None:
            code = wrep.cli.main([command, "--config", str(ini), "--out", str(out)])
        else:
            with tracer.installed():
                tracer.job = 0
                code = wrep.cli.main([command, "--config", str(ini), "--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("command, rows, spans", [
    ("verify", "1 1", {"cli.self", "patterns.enumerate", "rep.build", "rep.series",
                       "rep.relations", "arith.series_inverse", "arith.to_series",
                       "sparse.matmul"}),
    ("fibers", "2 2", {"cli.self", "rep.build", "gamma.commutes", "gamma.fibers"}),
    ("center", "2 2", {"rep.series", "center.tmatrix", "center.cdet", "center.central",
                       "center.quasidet", "center.top_row"}),
    ("galois-check", "1 1", {"galois.cross_check", "galois.invariance", "galois.act",
                             "mpoly.evaluate", "mpoly.rat_eq"}),
])
def test_tracer_sees_bound_and_lazy_names_and_changes_no_record(
        tmp_path, command, rows, spans):
    plain = run_cli(tmp_path, command, rows)
    tracer = Tracer()
    traced = run_cli(tmp_path, command, rows, tracer)
    recorded, counters = tracer.take()
    assert traced == plain
    assert spans <= {span[0] for span in recorded}
    assert all(span[4] == 0 for span in recorded)
    again = run_cli(tmp_path, command, rows, tracer)
    assert again == plain
    assert tracer.take()[1] == counters
    assert wrep.cli.build_representation is wrep.rep.build_representation
    assert not hasattr(wrep.rep.build_representation, "__wrapped__")


def test_relation_counters_are_zero_off_the_relation_suite(tmp_path):
    tracer = Tracer()
    run_cli(tmp_path, "center", "2 2", tracer)
    counters = tracer.take()[1]
    assert counters["rep.relation_instances"] == 0
    assert counters["mpoly.gcd_calls"] == 0


def test_matmul_counts_matrix_products_only():
    a = SparseMatrix.from_entries(2, [(0, 1, 3), (1, 0, 2)])
    tracer = Tracer()
    with tracer.installed():
        a * 5
        5 * a
        product = a * a
        a + a
    spans, counters = tracer.take()
    assert [span[0] for span in spans] == ["sparse.matmul"]
    assert counters["sparse.matmul_calls"] == 1
    assert counters["sparse.matmul_out_nnz"] == product.nnz() == 2
    assert counters["sparse.max_entry_bits"] == 3  # entries 6
    assert counters["sparse.add_calls"] == 1
    assert SparseMatrix.__mul__.__name__ == "__mul__"
    assert not hasattr(SparseMatrix.__mul__, "__wrapped__")


def test_self_time_subtracts_children_and_wrapper_time():
    spans = [
        ["outer", 0.0, 10.0, -1, 0, 0.0],
        ["inner", 1.0, 4.0, 0, 0, 0.5],
        ["leaf", 2.0, 3.0, 1, 0, 0.0],
        ["inner", 5.0, 6.0, 0, 0, 0.0],
    ]
    got = self_times(spans)
    assert got["outer"] == pytest.approx(10.0 - 3.5 - 1.0)
    assert got["inner"] == pytest.approx(3.0 - 1.0 + 1.0)
    assert got["leaf"] == pytest.approx(1.0)


def test_speed_probe_samples_during_the_block_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    speed = SpeedProbe()
    with speed.sampling():
        end = time.perf_counter() + 6 * PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 4  # before, after and at least two ticks
    assert 0 < speed.spent < 6 * PERIOD_S
    assert speed.scale() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
