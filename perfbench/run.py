"""Benchmark of heisenberg-cmc: four workloads of CLI and library jobs.

    python3 perfbench/run.py --workload meridian --seed 1 --seconds 10 --trace 0

Run from the repository root.  The run builds its job list from the
seed (see workloads.py), repeats it for about `--seconds`, checks every
job's output outside the timed span, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A fixed reference computation (calibrate.py) runs before, after and
every 50 ms during each job, and the job's time is reported at reference
speed: divided by the kernel's time over the job and multiplied by the
kernel's time on the reference machine.  That cancels most of the host's
speed drift (README).  The wall times go to the result file.

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json);
with --trace 1 the package's public functions are wrapped in spans and
the metrics are the per-layer ones.  The run also writes its result,
with its environment, to perfbench/results/.  --quick runs a tiny job
list once, for the benchmark's own tests.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from calibrate import at_reference_speed, run_sampled  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
IMPORTTIME_REPEATS = 3
TAIL_MIN_BEYOND = 10  # jobs the tail percentile must leave beyond it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("meridian", "isoperim", "verify", "sublimit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run a tiny job list once (for the benchmark's tests)")
    return parser.parse_args(argv)


NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pin_to_one_cpu() -> None:
    """Keep the run, and the interpreters it starts, on one CPU, so a job
    and the kernel runs beside it share a CPU and its neighbours."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True)


def setup_sample() -> tuple[float, float]:
    """(reference-speed, wall) time (s) of importing heisenberg_cmc.cli in
    a fresh interpreter, sampled by the kernel in that interpreter."""
    probe = json.loads(fresh_python(str(HERE / "import_probe.py")).stdout)
    return probe["ref_seconds"], probe["seconds"]


def import_breakdown() -> dict[str, float]:
    """Median self time (ms) of each package's modules, from -X importtime."""
    runs = {"numpy": [], "scipy": [], "heisenberg_cmc": []}
    for _ in range(IMPORTTIME_REPEATS):
        err = fresh_python("-X", "importtime", "-c", "import heisenberg_cmc.cli").stderr
        totals = dict.fromkeys(runs, 0)
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, _, module = line[len("import time:"):].split("|")
            package = module.strip().split(".")[0]
            if package in totals and own.strip().isdigit():
                totals[package] += int(own)
        for package, us in totals.items():
            runs[package].append(us / 1000.0)
    return {p: statistics.median(v) for p, v in runs.items()}


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    cpu = platform.processor() or None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_jobs(round_jobs, rounds: int, work: Path, tracer=None, after_round=None) -> list[dict]:
    """Run the round `rounds` times; time each job with the kernel sampling
    the machine's speed around and inside it, then check it untimed.

    `after_round(k)` runs, untimed, after round k.
    """
    records = []
    for rnd in range(rounds):
        for job in round_jobs:
            job_id = len(records)
            out = work / f"job{job_id}"
            out.mkdir()
            if tracer is None:
                result, exc, seconds, kernels = run_sampled(job.run, out)
            else:
                result, exc, seconds, kernels = run_sampled(tracer.run_job, job_id, job.run, out)
            if exc is None:
                try:
                    problems = job.check(result, out)
                except Exception as exc:  # unreadable or missing output
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:  # a failing job is counted, the run goes on
                problems = [f"{type(exc).__name__}: {exc}"]
            shutil.rmtree(out)
            records.append({"round": rnd, "job": job.label, "fault": job.fault,
                            "seconds": seconds, "kernel_samples": len(kernels),
                            "ref_seconds": at_reference_speed(seconds, kernels),
                            "problems": problems})
        if after_round is not None:
            after_round(rnd)
    return records


def job_medians(records, round_size: int, key: str = "ref_seconds") -> list[float]:
    """Each job's median time (s) over the rounds, in round order."""
    rounds = len(records) // round_size
    return [statistics.median(records[k * round_size + j][key] for k in range(rounds))
            for j in range(round_size)]


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    jobs beyond it; the median when there are fewer than 40 jobs.

    Each entry is one distinct job, so a job repeated over the rounds
    counts once.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n < 4 * TAIL_MIN_BEYOND:
        return statistics.median(ordered), 50.0
    k = n - TAIL_MIN_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(records, round_size: int, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Metrics over the round's distinct jobs, each timed by its median
    over the rounds at reference speed; set-up time is likewise the median
    of its samples at reference speed.  The notes give the same figures
    in wall time."""
    med = job_medians(records, round_size)
    lat = [1000.0 * s for s in med]
    tail_ms, pct = tail(lat)
    wall = job_medians(records, round_size, "seconds")
    wall_ms = [1000.0 * s for s in wall]
    metrics = {
        "setup_s": (statistics.median(ref for ref, _ in setup), "s"),
        "jobs_per_s": (round_size / sum(med), "1/s"),
        "job_p50_ms": (statistics.median(lat), "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"job_tail_percentile": pct, "distinct_jobs": len(lat),
             "rounds": len(records) // round_size,
             "speed": sum(r["ref_seconds"] for r in records) / sum(r["seconds"] for r in records),
             "setup_s_samples": [ref for ref, _ in setup],
             "wall": {"setup_s": statistics.median(w for _, w in setup),
                      "jobs_per_s": round_size / sum(wall),
                      "job_p50_ms": statistics.median(wall_ms),
                      "job_tail_ms": tail(wall_ms)[0]}}
    return metrics, notes


def per_layer(tracer, records, round_size: int) -> dict:
    from tracing import LAYER_FUNCTIONS

    calls, own_s, job_s = tracer.self_times()
    metrics = {}
    for module, function in LAYER_FUNCTIONS:
        name = f"{module}.{function}"
        if name != "cli.main":
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_ms"] = (1000.0 * own_s.get(name, 0.0), "ms")

    def per(work: int, name: str) -> float:
        return 1e6 * own_s.get(name, 0.0) / work if work else 0.0

    work = tracer.work
    metrics["sphere.profile_height.points"] = (work["sphere.profile_height"], "count")
    for name in ("sphere.foliation_normal", "sphere.radius_field"):
        metrics[f"{name}.us_per_call"] = (per(calls.get(name, 0), name), "us")
    samples = work["meridians.integrate_meridian"]
    metrics["meridians.integrate_meridian.samples"] = (samples, "count")
    metrics["meridians.integrate_meridian.us_per_sample"] = (
        per(samples, "meridians.integrate_meridian"), "us")
    points = work["foliation.leaf_label_grid"]
    metrics["foliation.leaf_label_grid.points"] = (points, "count")
    metrics["foliation.leaf_label_grid.us_per_point"] = (
        per(points, "foliation.leaf_label_grid"), "us")
    for package, ms in import_breakdown().items():
        metrics[f"import.{package}_ms"] = (ms, "ms")
    layer_s = sum(v for k, v in own_s.items() if k != "job")
    metrics["trace.accounted_pct"] = (100.0 * layer_s / job_s, "%")
    metrics["trace.jobs_per_s"] = (round_size / sum(job_medians(records, round_size)), "1/s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "heisenberg_cmc" / "__init__.py").is_file():
        print(f"error: no heisenberg_cmc package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    pin_to_one_cpu()
    import workloads
    from tracing import Tracer

    round_jobs = workloads.build(args.workload, args.seed, quick=args.quick)
    rounds = 1 if args.quick else workloads.rounds_for(args.workload, args.seconds)
    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        # untimed warm-up: first calls fill lazy caches in numpy and scipy
        warm = workloads.build(args.workload, args.seed, quick=True)[:1]
        run_jobs(warm, 1, work)
        tracer = None
        setup = []

        def after_round(k: int) -> None:
            # set-up samples spread evenly over the run
            if not args.trace:
                for _ in range((k + 1) * SETUP_SAMPLES // rounds - k * SETUP_SAMPLES // rounds):
                    setup.append(setup_sample())

        if args.trace:
            tracer = Tracer()
            tracer.install()
        try:
            records = run_jobs(round_jobs, rounds, work, tracer, after_round)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unexpected = [r for r in records
                  if r["problems"] and not workloads.fault_explains(r["fault"], r["problems"])]
    failed = sum(1 for r in records if r["problems"])
    notes = {}
    if args.trace:
        metrics = per_layer(tracer, records, len(round_jobs))
        tracer.save(RESULTS / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        metrics, notes = end_to_end(records, len(round_jobs), setup)
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment()
    detail = {"args": vars(args), "environment": env, "notes": notes,
              "failures": [r for r in records if r["problems"]], "result": result,
              "jobs": [{k: r[k] for k in ("round", "job", "seconds", "ref_seconds", "kernel_samples")}
                       for r in records]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(detail, indent=1) + "\n")
    for r in unexpected:
        print(f"UNEXPECTED FAILURE: {r['job']}: {'; '.join(r['problems'])}")
    print(json.dumps({"environment": env, **notes}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
