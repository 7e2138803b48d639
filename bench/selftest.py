"""Self-test of the benchmark itself.

    python3 bench/selftest.py

For every workload it checks, on the first pass of jobs:

* BENCHMARK.json names the same workloads and metrics, with the same units,
  as ``run.py`` and ``tracing.py`` report;
* the same seed gives identical inputs and identical output digests, and a
  different seed gives different inputs;
* traced and untraced calls return identical results;
* a deliberately wrong expected value is reported as an unexpected failure
  (negative control), for every job that has an expected value to plant,
  and a wrong mu-bar value planted in a result is reported as a failure
  (an unexpected one unless Milnor's indeterminacy of the index is 1).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from boundarylink import seifert  # noqa: E402

PLANTED = ("verdict", "ok", "abs", "status", "code", "form", "end")


def wrong(value):
    """A value that differs from `value` and is still well-formed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "-wrong"
    if isinstance(value, seifert.SeifertMatrix):
        return seifert.null_matrix(value.m)
    if value is None:
        return ((0,), (1,), (False,))
    return tuple(reversed(value)) if tuple(reversed(value)) != value else value + (0,)


def outputs(jobs, tracer=None) -> list[str]:
    digests = []
    for job in jobs:
        call = job.inproc or job.run
        if tracer is not None:
            tracer.install()
        try:
            _, result, error = run.timed(call)
        finally:
            if tracer is not None:
                tracer.uninstall()
        digests.append(repr(error) if error else wl.result_digest(result))
    return digests


def check_workload(name: str, workdir: Path) -> list[str]:
    problems = []
    workload = wl.WORKLOADS[name]
    ctx = wl.make_context(workload, ROOT, workdir)

    def first_pass(seed):
        return workload.make_pass(ctx, seed, 0)

    jobs = first_pass(1)
    again = first_pass(1)
    if [j.key for j in jobs] != [j.key for j in again]:
        problems.append("seed 1 gave different inputs on two generations")
    if [j.key for j in jobs] == [j.key for j in first_pass(2)]:
        problems.append("seeds 1 and 2 gave identical inputs")

    plain = outputs(jobs)
    if plain != outputs(again):
        problems.append("seed 1 gave different output digests on two runs")
    if plain != outputs(jobs, tracing.Tracer()):
        problems.append("traced and untraced runs returned different results")

    planted = 0
    for job in jobs:
        _, result, error = run.timed(job.run)
        if error is not None or job.known_defect:
            continue
        found = job.check(job, result)
        if any(not d for d, _ in found):
            problems.append(f"{job.key}: fails its own check")
        if found:
            continue
        for key in PLANTED:
            if key not in job.expect:
                continue
            bad = dataclasses.replace(
                job, expect=dict(job.expect, **{key: wrong(job.expect[key])}))
            caught = [m for d, m in bad.check(bad, result) if not d]
            if not caught:
                problems.append(f"{job.key}: wrong expected {key} not caught")
            planted += 1
        if job.family.startswith("mu-"):
            # checks that compare two computations: plant a wrong result.
            # It must be an unexpected failure unless the index's true
            # indeterminacy is 1, where every value is right modulo it
            d, (value, indet) = result
            found = job.check(job, (d, (value + 1, indet)))
            delta = wl._true_indeterminacy(d, job.expect["index"], {})
            unexpected = [m for defect, m in found if not defect]
            if not found or (delta != 1 and not unexpected):
                problems.append(f"{job.key}: wrong mu-bar value not caught")
            planted += 1
    if not planted:
        problems.append("no job had an expected value to plant")
    print(f"{name}: {len(jobs)} jobs, {planted} planted wrong values caught"
          if not problems else f"{name}: {len(problems)} problems")
    return problems


def check_manifest() -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in doc["workloads"]] != list(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    if layers != tracing.metric_units():
        problems.append("BENCHMARK.json per_layer differs from tracing.py")
    return problems


def main() -> int:
    problems = check_manifest()
    workdir = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        for name in wl.WORKLOADS:
            problems += check_workload(name, workdir / name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
