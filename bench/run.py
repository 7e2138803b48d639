"""Benchmark of the boundarylink certifier.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    for w in milnor-tables mu-long smoves cli; do
        python3 bench/run.py --workload $w; done      # every workload
    python3 bench/selftest.py                         # the benchmark's own test

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``workloads.py`` and ``BENCHMARK.json``):
``milnor-tables``, ``mu-long``, ``smoves`` and ``cli``.  Each is a closed loop
with one caller in one process (``cli`` runs one ``blcert`` child at a time).

Untraced (``--trace 0``) the run repeats passes of seeded jobs until about
``--seconds`` of job time has been measured (whole passes, and at least
``MIN_JOBS`` jobs so that ten lie beyond the 90th percentile), checks every
job's output outside its timed interval, and reports the end-to-end metrics.
Their times are scaled to a nominal machine speed, because the machine's
speed drifts by tens of percent over seconds and by more over minutes.
Before every job the run reads a calibration of the benchmark's own, and a
job's wall time is multiplied by the calibration's nominal time over the
median of its readings around that job.  In-process jobs are scaled by
``calibration_loop``, dictionary-and-tuple polynomial products like the
package's own; jobs that start a process (``cli``) and set-up interpreters by
``calibration_child``, a fresh interpreter importing a few standard modules.
A calibration follows the machine's speed for its kind of work and never
runs the program, so the scaled times move with the program and much less
with the machine; the unscaled ones are printed too.  The run and its
children stay on one CPU, so that the calibration reads the CPU the jobs
run on.
``jobs_per_s`` is the median over passes of a pass's jobs per second of
scaled job time, ``job_p50_ms`` and ``job_p90_ms`` are nearest-rank
percentiles of all scaled job times, ``peak_rss_mb`` is the peak resident set
of this process (of the largest child for ``cli``).
``setup_s`` is the median scaled wall time of ``SETUP_RUNS`` fresh
interpreters that import ``boundarylink.cli`` and load the workload's catalog
entries, each scaled by the reference interpreters run just before and after
it.

Traced (``--trace 1``) it runs each job both untraced and traced, in
alternating order, for about ``--seconds`` of wall time and at least one
pass; ``trace.overhead_ratio`` is traced over untraced time minus 1.  It
reports the
per-layer metrics of ``tracing.py`` as totals per pass, with the traced
results required to equal the untraced ones.  When the run ends it writes
every span, one JSON list a line, to ``.bench_work/spans-<workload>.jsonl``
(replaced by the next traced run of that workload).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit and sample count, the failures with their
base, and the scaling rows of each input family.  ``failed`` counts the jobs
with a problem that is not a documented known defect, and ``correct`` is
false when there is one.  Jobs that show only known defects (``KNOWN_DEFECTS``
in ``workloads.py``) are still run and checked every pass; they are printed
as ``known_defect_ratio`` with their base and a count per defect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 11
MIN_JOBS = 100
# Nominal times of the two calibrations (their typical times on a 2-vCPU
# Xeon VM running Python 3.11), and how many readings on each side of a job
# scale its time.
NOMINAL_LOOP_S = 0.002
NOMINAL_CHILD_S = 0.070
CALIBRATION_WINDOW = 4
REFERENCE_CHILD_CODE = "import argparse, decimal, fractions, json"
SETUP_CODE = (
    "import sys\n"
    "import boundarylink.cli\n"
    "from boundarylink import catalog\n"
    "for name in sys.argv[1:]:\n"
    "    catalog.load(name)\n"
)
END_TO_END = {
    "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


class Record(NamedTuple):
    """What a run keeps of one job: little, so that the harness's memory
    stays out of peak_rss_mb however many jobs a run completes."""
    family: str
    sizes: str
    wall: float
    problems: list[tuple[str, str]]

    @classmethod
    def of(cls, job, wall, problems) -> "Record":
        sizes = " ".join(f"{k}={v}" for k, v in sorted(job.sizes.items()))
        return cls(job.family, sizes, wall, problems)


def timed(call):
    """(seconds, result, error) of one call."""
    t0 = perf_counter()
    try:
        result = call()
    except Exception as exc:
        return perf_counter() - t0, None, exc
    return perf_counter() - t0, result, None


def judge(wl, job, result, error, judged: dict) -> list[tuple[str, str]]:
    """Problems of one job's output.  Checks are deterministic, so an output
    equal to one already judged for the same inputs and expected values gets
    the same verdict without checking again."""
    if error is not None:
        return [(job.known_defect, f"{job.key}: raised {error!r}")]
    key = (job.key, wl.result_digest(job.expect), wl.result_digest(result))
    if key not in judged:
        judged[key] = job.check(job, result)
    return list(judged[key])


def calibration_loop(ctx) -> float:
    """Seconds the calibration loop takes now (`ctx` is unused): products
    of truncated polynomials in three non-commuting letters, held as
    dictionaries keyed by tuples.  It is the kind of work the package's
    Magnus expansion and matrix code do, in code of the benchmark's own, so
    it reads the machine's current speed for that work whatever the program
    does."""
    x = {(): 1, (0,): 2, (1,): -1, (2,): 3}
    t0 = perf_counter()
    for _ in range(8):
        p = {(): 1}
        for _ in range(5):
            q: dict = {}
            for a, u in p.items():
                for b, v in x.items():
                    key = a + b
                    if len(key) <= 5:
                        q[key] = q.get(key, 0) + u * v
            p = q
    return perf_counter() - t0


def calibration_child(ctx) -> float:
    """Seconds a fresh interpreter takes to start and import a few standard
    modules: the calibration of jobs and set-up runs that start a process,
    whose cost is mostly start-up and import."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_CHILD_CODE],
                   env=ctx["env"], cwd=ROOT, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True)
    return perf_counter() - t0


NOMINAL_S = {calibration_loop: NOMINAL_LOOP_S,
             calibration_child: NOMINAL_CHILD_S}


def scaled(walls: list[float], marks: list[float], calibration,
           window: int) -> list[float]:
    """Walls scaled to the nominal machine speed.  `marks` has one reading
    of `calibration` before each wall and one after the last; a wall is
    scaled by the median of the `window` readings on each side of it."""
    return [w * NOMINAL_S[calibration]
            / statistics.median(marks[max(0, i - window + 1):i + window + 1])
            for i, w in enumerate(walls)]


def measure(wl, ctx, seed: int, seconds: float, calibration
            ) -> tuple[list[Record], list[int], list[float]]:
    """Whole passes until about `seconds` of job time and MIN_JOBS jobs;
    returns the job records, the number of jobs in each pass and the
    calibration readings (one before each job and one after the last)."""
    records: list[Record] = []
    pass_jobs: list[int] = []
    marks: list[float] = []
    judged: dict = {}
    job_time, k = 0.0, 0
    while True:
        jobs = wl.WORKLOADS[ctx["workload"]].make_pass(ctx, seed, k)
        pass_time = 0.0
        for job in jobs:
            marks.append(calibration(ctx))
            wall, result, error = timed(job.run)
            records.append(Record.of(job, wall, judge(wl, job, result, error,
                                                      judged)))
            pass_time += wall
            if isinstance(result, wl.Proc):
                ctx["child_rss_kb"] = max(ctx.get("child_rss_kb", 0),
                                          result.maxrss_kb)
        job_time += pass_time
        pass_jobs.append(len(jobs))
        k += 1
        if job_time >= seconds - 0.5 * pass_time and len(records) >= MIN_JOBS:
            marks.append(calibration(ctx))
            return records, pass_jobs, marks


def measure_traced(wl, tracing, ctx, seed: int, seconds: float):
    from boundarylink import catalog

    workload = wl.WORKLOADS[ctx["workload"]]
    tracer = tracing.Tracer()
    records: list[Record] = []
    judged: dict = {}
    startup_ms: list[float] = []
    untraced = traced = 0.0
    start, k = perf_counter(), 0
    while k == 0 or perf_counter() - start < seconds:
        jobs = workload.make_pass(ctx, seed, k)
        traced_call(tracer, f"{k}.setup",
                    lambda: [catalog.load(name) for name in workload.entries])
        for i, job in enumerate(jobs):
            call = job.inproc or job.run
            job_id = f"{k}.{i}:{job.family}"   # pass, position, family
            # alternate which call goes first, so that warming up (file
            # cache, first-call costs) does not count as tracing overhead
            if i % 2:
                w_t, r_t, e_t = traced_call(tracer, job_id, call)
            w_u, r_u, e_u = timed(call)
            if not i % 2:
                w_t, r_t, e_t = traced_call(tracer, job_id, call)
            untraced += w_u
            traced += w_t
            if job.inproc is not None:
                _, proc, e_c = timed(job.run)
                if e_c is None:
                    startup_ms.append((proc.wall - w_u) * 1000.0)
                problems = judge(wl, job, proc, e_c, judged)
            else:
                problems = judge(wl, job, r_u, e_u, judged)
            same = (repr(e_u) == repr(e_t) if e_u or e_t else
                    wl.result_digest(r_u) == wl.result_digest(r_t))
            if not same:
                problems.append(("", f"{job.key}: traced and untraced "
                                     "results differ"))
            records.append(Record.of(job, w_u, problems))
        k += 1
    overhead = traced / untraced - 1.0 if untraced else 0.0
    return records, tracer.layer_metrics(k, startup_ms, overhead), tracer, k


def traced_call(tracer, job_id: str, call):
    tracer.install()
    tracer.job = job_id
    try:
        return timed(call)
    finally:
        tracer.uninstall()


def setup_seconds(wl, ctx) -> list[float]:
    """Scaled walls of SETUP_RUNS fresh set-up interpreters, each scaled by
    the reference child run just before and just after it."""
    argv = [sys.executable, "-c", SETUP_CODE, *ctx["entry_names"]]
    walls, marks = [], []
    for i in range(SETUP_RUNS):
        marks.append(calibration_child(ctx))
        proc = wl.run_child(argv, ctx["env"], ROOT, ctx["workdir"] / f"setup{i}")
        if proc.code != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        walls.append(proc.wall)
    marks.append(calibration_child(ctx))
    return scaled(walls, marks, calibration_child, 1)


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def report_failures(records: list[Record]) -> tuple[int, Counter, list[str]]:
    """(jobs failed, jobs per known defect, messages of unexpected problems).
    A job fails when it has a problem that is not a documented known
    defect; a job whose only problems are known defects is counted under
    each of them instead."""
    failed = 0
    defects: Counter = Counter()
    unexpected: list[str] = []
    for r in records:
        messages = [m for d, m in r.problems if not d]
        if messages:
            failed += 1
            unexpected += messages
        else:
            for d in {d for d, _ in r.problems}:
                defects[d] += 1
    return failed, defects, unexpected


def print_summary(args, records, passes, wl, failed, defects, unexpected,
                  metrics, notes):
    mode = "traced" if args.trace else "untraced"
    print(f"# workload {args.workload} seed {args.seed} {mode}: closed loop, "
          f"1 caller, {passes} passes, {len(records)} jobs")
    for name, value, unit, note in metrics:
        print(f"{name:<44} {value:>14.4f} {unit:<6} {note}")
    print(f"{'failed_ratio':<44} {failed / len(records):>14.4f} {'ratio':<6} "
          f"({failed}/{len(records)} jobs)")
    known = sum(defects.values())
    print(f"{'known_defect_ratio':<44} {known / len(records):>14.4f} "
          f"{'ratio':<6} ({known}/{len(records)} jobs)")
    for defect, n in sorted(defects.items()):
        print(f"  known defect {defect}: {n} jobs -- {wl.KNOWN_DEFECTS[defect]}")
    for message in unexpected[:10]:
        print(f"  UNEXPECTED: {message}")
    for note in notes:
        print(f"  note: {note}")
    rows = defaultdict(list)
    for r in records:
        rows[(r.family, r.sizes)].append(r.wall * 1000.0)
    print("# scaling rows: family, input sizes, jobs, median unscaled ms")
    for (family, size), walls in sorted(rows.items()):
        print(f"  {family:<26} {size:<42} {len(walls):>5} "
              f"{statistics.median(walls):>10.3f}")


def main(argv=None) -> int:
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "boundarylink" / "__init__.py").is_file():
        print(f"error: no boundarylink sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and its children, so that the
        # calibrations read the speed of the CPU the jobs and set-up
        # interpreters run on (the CPUs of a shared host drift apart)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ctx = wl.make_context(wl.WORKLOADS[args.workload], ROOT, workdir)
        ctx["workload"] = args.workload
        notes = []
        if args.trace:
            records, layers, tracer, passes = measure_traced(
                wl, tracing, ctx, args.seed, args.seconds)
            if tracer.missing:
                notes.append("not in the package, reported as 0: "
                             + ", ".join(sorted(tracer.missing)))
            units = tracing.metric_units()
            notes.append(f"per-layer counts and self times are totals per "
                         f"pass over {passes} traced passes; cli.startup_ms "
                         "is the median over blcert calls of child wall time "
                         "minus in-process cli.main time")
            rows = [(n, v, units[n], "") for n, v in layers.items()]
            selfs = {n[:-len(".self_ms")]: v for n, v in layers.items()
                     if n.endswith(".self_ms")}
            total = sum(selfs.values())
            top = sorted(selfs.items(), key=lambda kv: -kv[1])[:5]
            notes.append("self time per pass by layer: " + ", ".join(
                f"{n} {v:.1f} ms ({v / total:.0%})" for n, v in top if v)
                if total else "no traced self time")
            spans = workdir.parent / f"spans-{args.workload}.jsonl"
            with open(spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
            notes.append(f"{len(tracer.spans)} spans [name, start, end, "
                         f"parent, job] written to {spans.relative_to(ROOT)}")
        else:
            setup = setup_seconds(wl, ctx)
            calibration = (calibration_child
                           if wl.WORKLOADS[args.workload].starts_processes
                           else calibration_loop)
            records, pass_jobs, marks = measure(wl, ctx, args.seed,
                                                args.seconds, calibration)
            passes = len(pass_jobs)
            raw = [r.wall for r in records]
            job_s = scaled(raw, marks, calibration, CALIBRATION_WINDOW)
            rates, start = [], 0
            for n_jobs in pass_jobs:
                rates.append(n_jobs / sum(job_s[start:start + n_jobs]))
                start += n_jobs
            walls = sorted(job_s)
            p50, _ = percentile(walls, 0.5)
            p90, beyond = percentile(walls, 0.9)
            if wl.WORKLOADS[args.workload].starts_processes:
                rss, rss_note = ctx["child_rss_kb"] / 1024.0, "(largest blcert child)"
            else:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                rss_note = "(this process)"
            n = len(records)
            values = [
                ("jobs_per_s", statistics.median(rates),
                 f"(median over {passes} passes; {n} jobs / "
                 f"{sum(walls):.3f} scaled s timed overall)"),
                ("job_p50_ms", p50 * 1000.0, f"(n={n})"),
                ("job_p90_ms", p90 * 1000.0, f"(n={n}, {beyond} beyond)"),
                ("setup_s", statistics.median(setup),
                 f"(median of {len(setup)} fresh interpreters)"),
                ("peak_rss_mb", rss, rss_note),
            ]
            raw_sorted = sorted(raw)
            notes.append(
                f"times are scaled to the nominal machine speed, at which "
                f"{calibration.__name__} takes "
                f"{NOMINAL_S[calibration] * 1000:.1f} ms; it took "
                f"{statistics.median(marks) * 1000:.3f} ms (median of "
                f"{len(marks)} readings, range {min(marks) * 1000:.3f}-"
                f"{max(marks) * 1000:.3f}); unscaled: job_p50_ms "
                f"{percentile(raw_sorted, 0.5)[0] * 1000:.4f}, job_p90_ms "
                f"{percentile(raw_sorted, 0.9)[0] * 1000:.4f}")
            rows = [(name, v, END_TO_END[name], note) for name, v, note in values]
        failed, defects, unexpected = report_failures(records)
        print_summary(args, records, passes, wl, failed, defects, unexpected,
                      rows, notes)
        result = {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {n: {"value": v, "unit": u} for n, v, u, _ in rows},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
