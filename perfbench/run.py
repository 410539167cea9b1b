"""qsslab benchmark: one workload per process, driven through the CLI.

    python3 perfbench/run.py --workload toffoli_exact --seed 1 --seconds 30 --trace 0

Run from a repository checkout; the package is imported from ``src/``. The
client is a closed loop: jobs (``qsslab.cli.main(argv)`` calls) run one after
another until ``--seconds`` have passed, and every report is checked. With
``--trace 0`` the last stdout line carries the end-to-end metrics, timed
at a reference host speed (see hostspeed.py); with
``--trace 1`` untraced and traced rounds alternate, and it carries the
per-layer metrics of the traced rounds plus the tracing overhead. A
human-readable summary with sample counts and the environment goes to
stderr, and the full record to ``perfbench/out/<workload>-seed<N>-trace<T>/``.
See NOTES.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

import tracing
from hostspeed import HostSpeed
from workloads import WORKLOADS, Job, warmup

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: the end-to-end metrics of the result line, as listed in BENCHMARK.json;
#: the wall-time metrics are reported beside them (see NOTES.md)
END_TO_END = ("round_s_norm", "setup_s", "peak_rss_mb")


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def import_cli() -> None:
    """Import qsslab afresh from this checkout's ``src``, never elsewhere."""
    for name in [n for n in sys.modules if n == "qsslab" or n.startswith("qsslab.")]:
        del sys.modules[name]
    importlib.import_module("qsslab.cli")
    origin = Path(sys.modules["qsslab"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"qsslab imported from {origin}, not from {SRC}")


def run_job(job: Job) -> tuple[float, str | None]:
    """Time one CLI call and check its report: (seconds, failure or None)."""
    # looked up per call so that a traced round reaches the wrapped main
    cli = sys.modules["qsslab.cli"]
    out = io.StringIO()
    gc.collect()  # every job starts on a collected heap, as in a fresh process
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(job.argv))
    except Exception as exc:  # a crashing job is a failed job, not a crash
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if code != 0:
        return seconds, f"exit code {code}"
    try:
        job.check(json.loads(out.getvalue()))
    except Exception as exc:  # a malformed report fails its job like a wrong one
        return seconds, f"check failed: {type(exc).__name__}: {exc}"
    return seconds, None


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate the inputs and warm the caches; returns the
    ``perf_counter`` interval taken, the jobs, and the warm-up failures."""
    gc.collect()  # garbage left by earlier set-ups or jobs is not set-up work
    t0 = time.perf_counter()
    import_cli()
    jobs = WORKLOADS[workload](seed, workdir)
    failures = [
        f"warm-up {job.label}: {err}" for job in warmup(workdir) if (err := run_job(job)[1])
    ]
    return (t0, time.perf_counter()), jobs, failures


class Loop:
    """Closed-loop client state: job times and failures of one run."""

    def __init__(self, jobs: list[Job]):
        self.jobs = jobs
        self.by_job: list[list[float]] = [[] for _ in jobs]  # [job][round]
        self.attempted = 0
        self.failures: list[str] = []

    def round(self, tracer: tracing.Tracer | None = None) -> tuple[float, float]:
        """Run every job once; returns the round's ``perf_counter`` interval."""
        t0 = time.perf_counter()
        for job, samples in zip(self.jobs, self.by_job):
            if tracer is not None:
                tracer.job = self.attempted
            seconds, err = run_job(job)
            samples.append(seconds)
            self.attempted += 1
            if err:
                self.failures.append(f"{job.label}: {err}")
        return t0, time.perf_counter()


def measure_untraced(
    loop: Loop, seconds: float, between_rounds: Callable[[], object], speed: HostSpeed
) -> dict[str, tuple]:
    """Whole rounds until ``seconds`` have passed, with ``between_rounds``
    after each; metric name -> (value, unit, sample count).

    ``round_s_norm`` is the median round time at reference host speed:
    other tenants of the host slow whole runs by up to 70 %, which no wall
    time statistic inside a run absorbs. The median job wall time is taken
    per round and then across rounds, since a round of unequal jobs (the
    sweep) has its middle between two job kinds."""
    start = time.perf_counter()
    spans = []
    while True:
        spans.append(loop.round())
        between_rounds()
        if time.perf_counter() - start >= seconds:
            break
    walls = [end - begin for begin, end in spans]
    normed = [speed.normalise(begin, end) for begin, end in spans]
    rounds = [statistics.median(r) for r in zip(*loop.by_job)]
    verified = loop.attempted - len(loop.failures)
    return {
        "round_s_norm": (statistics.median(normed), "s", len(normed)),
        "job_s_p50": (statistics.median(rounds), "s", len(rounds)),
        "jobs_per_s": (verified / sum(walls), "1/s", loop.attempted),
    }


def measure_traced(
    loop: Loop, seconds: float, spans_path: Path
) -> tuple[dict[str, tuple], int]:
    """Alternate untraced and traced rounds; per-layer metrics come from the
    traced ones (counts from the first, times as medians), overhead from the
    ratio of median round times. Returns the metrics and the traced rounds."""
    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    per_round: list[dict] = []
    start = time.perf_counter()
    while True:
        begin, end = loop.round()
        plain.append(end - begin)
        tracer.install()
        try:
            begin, end = loop.round(tracer)
            traced.append(end - begin)
        finally:
            tracer.uninstall()
        if not per_round:
            tracing.write_spans(tracer.spans, spans_path)
        per_round.append(tracing.summarize(tracer.spans))
        if time.perf_counter() - start >= seconds:
            break
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    rounds = [tracing.per_layer_metrics(s, overhead) for s in per_round]
    metrics = {}
    for name, (value, unit) in rounds[0].items():
        if unit not in ("count", "ratio"):
            value = statistics.median(r[name][0] for r in rounds)
        metrics[name] = (value, unit)
    return metrics, len(rounds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qsslab" / "__init__.py").is_file():
        print(f"perfbench: no qsslab sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    outdir = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    seed = args.seed % 2**64

    setups: list[tuple[float, float]] = []
    warm_failures: list[str] = []

    def set_up_timed() -> list[Job]:
        interval, jobs, failed = set_up(args.workload, seed, outdir)
        setups.append(interval)
        warm_failures.extend(failed)
        return jobs

    if args.trace:
        loop = Loop(set_up_timed())
        layer, rounds = measure_traced(loop, args.seconds, outdir / "spans.jsonl")
        reported = {name: (v, u, rounds) for name, (v, u) in layer.items()}
        result_names = list(reported)
    else:
        with HostSpeed() as speed:
            loop = Loop(set_up_timed())
            # a set-up after every round spreads the set-ups over the whole run
            reported = measure_untraced(loop, args.seconds, set_up_timed, speed)
        normed = [speed.normalise(begin, end) for begin, end in setups]
        reported["setup_s"] = (statistics.median(normed), "s", len(normed))
        walls = [end - begin for begin, end in setups]
        reported["setup_s_wall"] = (statistics.median(walls), "s", len(walls))
        reported["host_slowdown"] = (speed.slowdown(), "ratio", len(speed.samples))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reported["peak_rss_mb"] = (peak, "MB", 1)
        result_names = END_TO_END
    metrics = {name: {"value": reported[name][0], "unit": reported[name][1]} for name in result_names}

    attempted = loop.attempted
    failed = len(loop.failures)
    env["loadavg_end"] = os.getloadavg()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_s_samples": [end - begin for begin, end in setups],
        "job_s_samples": loop.by_job,
        "failures": loop.failures,
        "warmup_failures": warm_failures,
        "failed_frac": failed / attempted,
        "metrics": {
            name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in reported.items()
        },
    }
    (outdir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} jobs, {failed} failed (failed_frac {failed / attempted:.4g})",
          file=sys.stderr)
    for name, (value, unit, n) in reported.items():
        print(f"  {name:44s} {value:<14.6g} {unit:6s} n={n}", file=sys.stderr)
    for err in loop.failures + warm_failures:
        print(f"  FAILED {err}", file=sys.stderr)
    print(f"  env {json.dumps(env)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not warm_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
