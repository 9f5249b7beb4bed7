"""wrep benchmark: time to a PASS/FAIL verdict, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload relations --seed 1 --seconds 30 --trace 0

One process drives a closed loop with one client: each job is a
``wrep.cli.main([cmd, "--config", ini, "--out", json])`` call made
in-process, with the job's seeded weight in the config file.  A pass runs
every job of the workload once; passes repeat until ``--seconds`` have
elapsed (at least one cold and two warm passes).  Workloads, metrics and
bounds are listed in BENCHMARK.json at the repository root; the metric
names printed in the result are read from there.

A job fails when it raises, exits with a status other than 0 (all checks
pass) or 1 (a check failed), writes no well-formed record, writes a record
whose exit status, command or basis dimension disagrees with the job, or
writes a record that is not byte-identical to its first one.  A job that
exits 1 with a consistent record ran correctly and is counted against
``check_pass_ratio`` instead.

Every time the result reports is scaled to a reference speed, because a
shared host's speed drifts (see speed.py); the times as measured are
printed beside the scaled ones.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` traced and untraced warm passes alternate after the cold
pass: the result carries the per-layer metrics of the traced passes, the
records of the traced passes must equal the untraced ones, and the
deterministic counters must repeat exactly across traced passes.

The last line of standard output is the JSON result.  The exit status is
0 when a result was printed and 2 when the benchmark could not start.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 11
MIN_WARM_PASSES = 2
MIN_TRACED_PASSES = 2
clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_wrep():
    """Import wrep from this checkout's src/, never from elsewhere."""
    if not (SRC / "wrep" / "__init__.py").is_file():
        raise RuntimeError("no wrep package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import wrep

    if Path(wrep.__file__).resolve().parent != (SRC / "wrep").resolve():
        raise RuntimeError("wrep imported from %s, not %s" % (wrep.__file__, SRC))
    return wrep


def measure_setup(modules):
    """Time from spawning a fresh interpreter until the workload's wrep
    modules are imported: the median over several interpreters, as
    measured and scaled."""
    code = ("import sys, time\nsys.path.insert(0, %r)\nimport %s\n"
            "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
            % (str(SRC), ", ".join(modules)))
    speed = SpeedProbe()
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        with speed.sampling():
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            done = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                                  capture_output=True, text=True, timeout=60,
                                  check=True)
            ready = float(done.stdout.split()[-1])
        raw.append(ready - start - speed.spent)
        scaled.append(raw[-1] * speed.scale())
    return statistics.median(raw), statistics.median(scaled)


class Pass:
    """Job times of one pass, as measured and scaled to the reference
    speed (``scale`` holds each job's factor)."""

    def __init__(self, raw, scale):
        self.raw = raw
        self.scale = scale
        self.times = [t * f for t, f in zip(raw, scale)]
        self.seconds = sum(self.times)


class JobResult:
    def __init__(self, seconds, scale, code, record, error):
        self.seconds = seconds  # wall time minus speed probes
        self.scale = scale
        self.code = code
        self.record = record  # bytes written to --out, or None
        self.error = error


class Runner:
    """Runs passes over the job list and classifies every job result."""

    def __init__(self, jobs, cli, workdir):
        self.jobs = jobs
        self.cli = cli  # the module: main is looked up per call, traced or not
        self.speed = SpeedProbe()
        self.argv = []
        for idx, job in enumerate(jobs):
            ini = workdir / ("job%02d.ini" % idx)
            ini.write_text(job.config_text())
            self.argv.append([job.command, "--config", str(ini), "--out",
                              str(workdir / ("job%02d.json" % idx))])
        self.reference = [None] * len(jobs)  # first JobResult per job
        self.problems = [None] * len(jobs)  # why the first result is invalid
        self.attempted = 0
        self.failed = 0
        self.passed = 0
        self.messages = []

    def run_job(self, idx, tracer):
        argv = self.argv[idx]
        out = Path(argv[-1])
        if out.exists():
            out.unlink()
        if tracer is not None:
            tracer.job = idx
        error = None
        with self.speed.sampling():
            start = clock()
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                error = traceback.format_exc()
            seconds = clock() - start
        record = out.read_bytes() if out.exists() else None
        return JobResult(seconds - self.speed.spent, self.speed.scale(), code,
                         record, error)

    def run_pass(self, tracer=None):
        gc.collect()
        raw, scale = [], []
        for idx in range(len(self.jobs)):
            result = self.run_job(idx, tracer)
            raw.append(result.seconds)
            scale.append(result.scale)
            self.classify(idx, result)
        return Pass(raw, scale)

    def classify(self, idx, result):
        self.attempted += 1
        ref = self.reference[idx]
        if ref is None:
            self.reference[idx] = ref = result
            self.problems[idx] = self.validate(self.jobs[idx], result)
        problem = self.problems[idx]
        if problem is None and (result.code, result.record) != (ref.code, ref.record):
            problem = "record or exit status differs from the first run of the job"
        if problem is not None:
            self.failed += 1
            self.messages.append("FAILED %s: %s" % (self.jobs[idx].name, problem))
        elif result.code == 0:
            self.passed += 1

    @staticmethod
    def validate(job, result):
        """None when the job's first result is well formed, else why not."""
        if result.error is not None:
            return "raised\n" + result.error
        if result.code not in (0, 1):
            return "exit status %r" % (result.code,)
        if result.record is None:
            return "no record written"
        try:
            record = json.loads(result.record)
            statuses = [check["status"] for check in record["checks"]]
            if record["schema"] != 1 or record["command"] != job.command:
                return "record has schema %r, command %r" % (
                    record["schema"], record["command"])
            dimension = record["info"].get("dimension")
        except (ValueError, KeyError, TypeError) as exc:
            return "malformed record (%s)" % exc
        if (result.code == 1) != ("FAIL" in statuses):
            return "exit status %d but check statuses %s" % (result.code, statuses)
        if job.dimension is not None and dimension != job.dimension:
            return "dimension %r, expected %d" % (dimension, job.dimension)
        return None


def digest(record):
    return "-" if record is None else hashlib.sha256(record).hexdigest()[:16]


def run(args, wrep, workdir):
    from workloads import WORKLOADS, make_jobs

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        raise RuntimeError("unknown workload %r (have %s)"
                           % (args.workload, ", ".join(sorted(WORKLOADS))))
    workload = WORKLOADS[args.workload]
    for module in workload.modules:
        importlib.import_module(module)
    jobs = make_jobs(args.workload, args.seed)
    largest = [job.name for job in jobs].index(workload.largest)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    print("env: workload=%s seed=%d trace=%d kernel=%s python=%s nproc=%s"
          % (args.workload, args.seed, args.trace, wrep.KERNEL_BACKEND,
             platform.python_version(), os.cpu_count()))
    setup_raw, setup_s = measure_setup(workload.modules)
    runner = Runner(jobs, importlib.import_module("wrep.cli"), workdir)

    t0 = clock()
    first = runner.run_pass()
    warm, traced = [], []  # Pass objects; traced: (Pass, spans, counters)
    while True:
        elapsed = clock() - t0
        if tracer is None:
            if elapsed >= args.seconds and len(warm) >= MIN_WARM_PASSES:
                break
            warm.append(runner.run_pass())
            continue
        if (elapsed >= args.seconds and len(traced) >= MIN_TRACED_PASSES
                and warm):
            break
        if len(traced) <= len(warm):
            with tracer.installed():
                done = runner.run_pass(tracer)
            traced.append((done,) + tracer.take())
        else:
            warm.append(runner.run_pass())

    for idx, job in enumerate(jobs):
        ref = runner.reference[idx]
        print("job %-22s exit=%s record=%s" % (job.name, ref.code, digest(ref.record)))
    for message in runner.messages:
        print(message)
    pass_s = statistics.median(p.seconds for p in warm)
    print("setup: %.4f s measured, %.4f s scaled" % (setup_raw, setup_s))
    print("first pass: %.3f s measured, %.3f s scaled"
          % (sum(first.raw), first.seconds))
    print("warm passes (%d), measured: %s" % (
        len(warm), " ".join("%.3f" % sum(p.raw) for p in warm)))
    print("warm passes (%d), scaled:   %s" % (
        len(warm), " ".join("%.3f" % p.seconds for p in warm)))

    correct = runner.failed == 0
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "first_pass_s": first.seconds,
            "pass_s": pass_s,
            "largest_job_s": statistics.median(p.times[largest] for p in warm),
            "check_pass_ratio": runner.passed / runner.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print("check_fail_ratio %.4f (%d of %d jobs did not pass)"
              % (1 - values["check_pass_ratio"], runner.attempted - runner.passed,
                 runner.attempted))
        wanted = spec["end_to_end"]
    else:
        values, repeat = layer_values(traced, pass_s)
        if not repeat:
            correct = False
            print("FAILED: deterministic counters differ between traced passes")
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError("BENCHMARK.json names metrics this benchmark does "
                           "not measure: %s" % ", ".join(missing))

    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print("metric %-28s %14.6g %s" % (metric["name"], value, metric["unit"]))
    return {"correct": correct, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def layer_values(traced, pass_s):
    """Per-layer values of the traced passes: median scaled self time of
    each span name, its call count and the other counters (which must
    repeat exactly), and the traced/untraced pass time ratio.  A layer the
    workload never enters reads 0."""
    from tracer import METRICS, self_times

    per_pass = [self_times(spans, done.scale) for done, spans, _ in traced]
    values = dict.fromkeys(METRICS, 0)
    for name in sorted(set().union(*per_pass)):
        values[name + "_s"] = statistics.median(s[name] for s in per_pass)
    counters = [c for _, _, c in traced]
    values.update(counters[0])
    repeat = all(c == counters[0] for c in counters)
    traced_s = statistics.median(done.seconds for done, _, _ in traced)
    values["trace.overhead_ratio"] = traced_s / pass_s
    for name in sorted(set().union(*per_pass)):
        print("layer %-22s self %10.4f s  calls %d"
              % (name, values[name + "_s"], values.get(name + "_calls", 0)))
    return values, repeat


def main(argv=None):
    args = parse_args(argv)
    try:
        wrep = load_wrep()
    except (RuntimeError, ImportError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, wrep, workdir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
