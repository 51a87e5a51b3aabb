"""varbound benchmark: one workload per process, closed loop, single thread.

    python3 bench/run.py --workload dense --seed 1 --seconds 15 --trace 0

Run from a checkout that holds ``src/varbound``.  After one warm-up job the
benchmark runs jobs back to back for ``--seconds`` seconds and checks each
job's output.  With ``--trace 0`` it reports the end-to-end metrics:

    job_s        mean seconds per job, at the reference host speed
    setup_s      mean, over fresh processes started at even intervals during
                 the timed window, of ``import varbound`` plus the built-in
                 observables, settings and photonics cache, at the reference
                 host speed
    peak_rss_mb  peak resident memory of this process

The speed of a shared host drifts by up to a factor of two within seconds.
So while a timed job runs, a SIGALRM handler interrupts it every
``PROBE_PERIOD_S`` of wall time and times a fixed load of about a
millisecond that does not touch varbound (``SpeedProbe``).  A job's wall
time is taken net of the probes inside it.  A time at the reference host
speed is the mean net wall time divided by the host slowness, the mean probe
time over all timed jobs over ``PROBE_REF_S``.  A change to the program
moves the jobs, not the probe; a change in host speed moves both, at the
same moments.  Raw wall means are printed as ``job_wall_s`` and
``setup_wall_s``; every wall and probe time is kept in the results file.

With ``--trace 1`` it alternates untraced and traced jobs and reports
per-job layer metrics from the spans of the traced ones (see ``tracer.py``).
The last line of standard output is one JSON object; results, the run
environment and, for traced runs, every span are also written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
SETUP_SNIPPET = """
import time
t0 = time.perf_counter()
import varbound
varbound.builtin_spin1()
for setting in varbound.builtin_settings().values():
    varbound.measurement_unitary(setting)
print(repr(time.perf_counter() - t0))
"""
# Wall seconds between probes, and the reference seconds of one probe:
# job_s and setup_s equal wall seconds on a host where a probe takes this
# long.  Set near the probe's median on a 2-vCPU 2.0 GHz Xeon (1.0-1.2 ms).
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 0.001


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("dense", "trials", "optimize", "haar"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_sha():
    """HEAD commit of the checkout, None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, numpy_version):
    digest = hashlib.sha256()
    for path in sorted((SRC / "varbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "pid": os.getpid(),
        "process": "fresh process for this workload only",
        "loop": "closed, one client, single thread",
    }


class SpeedProbe:
    """Times a fixed load of Python arithmetic and small complex-matrix
    numpy calls, the mix the program's hot paths run, from a SIGALRM
    handler while ``running``; independent of varbound."""

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.mats = []
        for d in (2, 3, 3, 4):
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            self.mats.append(0.5 * (x + x.conj().T))
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        np = self.np
        t0 = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += i * i % 7
        for m in self.mats:
            _, v = np.linalg.eigh(m)
            acc += float(np.real(np.vdot(v[:, 0], m @ v[:, 0])))
        self.samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def running(self):
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def setup_sample():
    """Set-up time of one fresh interpreter process."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class SetupSampler:
    """Takes SETUP_SAMPLES set-up samples spread evenly over the timed window,
    so that they see the same host speeds as the jobs."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.samples = []

    def __call__(self, elapsed):
        while (len(self.samples) < SETUP_SAMPLES
               and elapsed >= len(self.samples) * self.seconds / SETUP_SAMPLES):
            self.samples.append(setup_sample())


class Runner:
    """Runs and checks jobs of one workload, keeping every check result and
    the probe times taken inside each job."""

    def __init__(self, workload, inputs, probe=None):
        self.workload = workload
        self.inputs = inputs
        self.probe = probe
        self.checks = []
        self.probe_times = []

    def job(self, tracer=None):
        """One timed job; returns its wall seconds net of probes.  The check
        runs outside the timed region."""
        gc.collect()
        elapsed = None
        probed = self.probe.running() if self.probe else contextlib.nullcontext()
        first = len(self.probe.samples) if self.probe else 0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                with probed:
                    output = self.workload.run_job(self.inputs)
            else:
                with tracer, tracer.span("job"):
                    output = self.workload.run_job(self.inputs)
            elapsed = time.perf_counter() - t0
            result = self.workload.check(output)
        except Exception as exc:  # a failed job is counted, not fatal
            if elapsed is None:
                elapsed = time.perf_counter() - t0
            traceback.print_exc()
            result = {"ok": False, "errors": [f"{type(exc).__name__}: {exc}"]}
        probes = self.probe.samples[first:] if self.probe else []
        self.probe_times.append(probes)
        self.checks.append(result)
        for err in result["errors"][:5]:
            print(f"FAILED job {len(self.checks)}: {err}", file=sys.stderr)
        return elapsed - sum(probes)

    def loop(self, seconds, tracers=(None,), setup=None):
        """Jobs until ``seconds`` have passed (at least one round), cycling
        through ``tracers`` (None for an untraced job), with set-up samples
        as they fall due.  Returns the jobs' net wall times per tracer."""
        wall = [[] for _ in tracers]
        start = time.perf_counter()
        while not wall[-1] or time.perf_counter() - start < seconds:
            for times, tracer in zip(wall, tracers):
                if setup is not None:
                    setup(time.perf_counter() - start)
                times.append(self.job(tracer))
        if setup is not None:
            setup(seconds)
        return wall

    def failed(self):
        return sum(not c["ok"] for c in self.checks)

    def worst(self, key):
        """Largest value of a check figure over all jobs, None if never set."""
        values = [c[key] for c in self.checks if c.get(key) is not None]
        return max(values, default=None)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args):
    if not (SRC / "varbound" / "__init__.py").is_file():
        print(f"error: no varbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import varbound

    if Path(varbound.__file__).resolve().parent != (SRC / "varbound").resolve():
        print(f"error: imported varbound from {varbound.__file__}", file=sys.stderr)
        return 2
    import tracer as tracing
    from workloads import make_workload

    env = environment(args, numpy.__version__)
    print("env:", json.dumps(env, sort_keys=True))

    workload = make_workload(args.workload, OUT / "work")
    # traced runs compare traced with untraced jobs, both without the probe
    probe = SpeedProbe() if args.trace == 0 else None
    runner = Runner(workload, workload.make_inputs(args.seed), probe)
    runner.job()  # warm-up: lazy caches fill before timing

    record = {"env": env}
    if args.trace == 0:
        setup = SetupSampler(args.seconds)
        [times] = runner.loop(args.seconds, setup=setup)
        timed = times
        probes = [t for job in runner.probe_times[1:] for t in job]
        slowness = statistics.mean(probes) / PROBE_REF_S
        metrics = {
            "job_s": _metric(statistics.mean(times) / slowness, "s"),
            "setup_s": _metric(statistics.mean(setup.samples) / slowness, "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        diagnostics = {
            "host_slowness": _metric(slowness, "x"),
            "job_wall_s": _metric(statistics.mean(times), "s"),
            "setup_wall_s": _metric(statistics.mean(setup.samples), "s"),
        }
        record.update(job_times=times, setup_samples=setup.samples,
                      probe_times=runner.probe_times[1:])
    else:
        tracer = tracing.Tracer("varbound")
        # alternate so that both sides see the same machine conditions
        untraced, traced = runner.loop(args.seconds, (None, tracer))
        timed, n = traced, len(traced)
        layers, absent = tracer.layer_metrics(n)
        layers["trace.overhead_frac"] = (
            statistics.mean(traced) / statistics.mean(untraced) - 1.0, "fraction")
        metrics = {k: _metric(v, unit) for k, (v, unit) in layers.items()}
        diagnostics = {}
        spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        record.update(untraced_times=untraced, traced_times=traced, absent=absent,
                      spans=str(spans_path.relative_to(ROOT)))
        if absent:
            print("absent from the program (reported as 0):", ", ".join(absent))

    attempted, failed = len(runner.checks), runner.failed()
    summary = {
        "jobs_timed": _metric(len(timed), "count"),
        "failed_frac": _metric(failed / attempted, "fraction"),
        "ideal_max_abs_dev": _metric(runner.worst("ideal_max_abs_dev"), "abs"),
        "opt_gap": _metric(runner.worst("opt_gap"), "abs"),
        "max_abs_z": _metric(runner.worst("max_abs_z"), "sigma"),
        **diagnostics,
    }
    for name, m in {**metrics, **summary}.items():
        value = "n/a (not exercised)" if m["value"] is None else repr(m["value"])
        print(f"{args.workload} {name} = {value} {m['unit']}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record.update(summary=summary, result=result,
                  errors=[e for c in runner.checks for e in c["errors"]][:50])
    results_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(run(_parse_args(sys.argv[1:])))
