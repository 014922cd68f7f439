"""Benchmark of the finvariant CLI: seeded workloads run in one process through
``finvariant.cli.main(argv)``, one job after another by a single caller (a
closed loop).

    python3 perfbench/run.py --workload estimate_mc --seed 0 --seconds 25 --trace 0

Run from anywhere; the checkout is the parent of this directory.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one traced pass with ``--trace 1``.  The line before it
carries provenance and per-command latencies; the same record, and the spans
of a traced run, go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from time import perf_counter

import checks
import spans
import workloads
from workloads import Result

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORK = os.path.join(CHECKOUT, ".bench_work")
SRC = os.path.join(CHECKOUT, "src")
DEFAULT_SEED = 0
SETUPS = 5  # setup repeats per run; setup_s is their median
PINNED = os.path.join(HERE, "pinned.json")

END_TO_END_UNITS = {"setup_s": "s", "pass_ref": "ref", "peak_rss_mb": "MB"}
REFERENCE_REPEATS = 5  # reference_seconds is the median of this many loops


def fresh_import():
    """Import finvariant from the checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "finvariant" or m.startswith("finvariant.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    fv = importlib.import_module("finvariant")
    importlib.import_module("finvariant.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(fv.__file__))) != SRC:
        raise ImportError(f"finvariant was imported from {fv.__file__}, not from {SRC}")
    return fv


def tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def output_digest(result: Result) -> str:
    blob = f"{result.code}\n{result.stdout}\0{result.out_text}"
    return hashlib.sha256(blob.encode()).hexdigest()


def execute(fv, job, k: int, tracer=None) -> Result:
    """Run one job in the current directory; only the CLI call is timed."""
    if job.stream:
        job.stream(k)
    if job.out and os.path.exists(job.out):
        os.remove(job.out)
    argv = job.argv_for(k)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    span = tracer.span(f"cli.{job.command}") if tracer else nullcontext()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            with span:
                code = fv.cli.main(argv)
            seconds = perf_counter() - start
        except (Exception, SystemExit):
            code, seconds = None, 0.0
            err.write(traceback.format_exc())
    out_text = ""
    if job.out and os.path.exists(job.out):
        with open(job.out, encoding="utf-8") as fh:
            out_text = fh.read()
    return Result(code, out.getvalue(), err.getvalue(), out_text, seconds)


class Ledger:
    """Counts attempts and failures.  A job fails when it raised, returned an
    unexpected exit code, left a worker running, failed its output check,
    differs from an earlier run of itself or, in the first pass at the
    default seed, has no pinned output or differs from it.  ``first`` holds
    the output digests of the first pass, from which pin.py writes the pins."""

    def __init__(self, pins: dict | None):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.first: dict[str, str] = {}
        self.no_config = 0

    def record(self, job, k: int, result: Result, error: str | None = None) -> None:
        self.attempted += 1
        label = job.label(k)
        digest = output_digest(result)
        error = error or job.check(result)
        if error is None and self.digests.setdefault(label, digest) != digest:
            error = "output differs from an earlier run of the same job"
        if k == 0:
            self.first[label] = digest
            if error is None and self.pins is not None:
                if label not in self.pins:
                    error = "no pinned output for this job"
                elif self.pins[label] != digest:
                    error = "output differs from the pinned output"
        if checks.NO_CONFIG in result.stderr:
            self.no_config += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{label}: {error}")


def reference_loop() -> int:
    """Fixed pure-Python work: tuple-keyed dict updates and integer
    arithmetic, the instruction mix of the program's inner loops.  It calls
    nothing in finvariant, so a change to the program leaves its time alone."""
    counts: dict[tuple, int] = {}
    for i in range(12000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    return len(counts) + acc


def reference_seconds() -> float:
    """The host's current speed: the median time of a few reference loops."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


def measure(fv, jobs, seconds: float, ledger: Ledger, runs: dict):
    """Cycle through the job list until the next job would end past
    ``seconds``; the first pass always completes.  The reference loop is
    timed before the first job and after every job.  Returns per-job samples
    of the job's seconds, and of those seconds divided by the mean of the
    reference times just before and just after it."""
    samples = {job.key: [] for job in jobs}
    scaled = {job.key: [] for job in jobs}
    start = perf_counter()
    first_pass = True
    before = reference_seconds()
    while True:
        for job in jobs:
            if not first_pass and perf_counter() - start + statistics.median(samples[job.key]) > seconds:
                return samples, scaled
            k = runs[job.key]
            runs[job.key] += 1
            result = execute(fv, job, k)
            # a worker left running would slow the reference loop and hide its cost
            stray = threading.active_count() > 1 or multiprocessing.active_children()
            after = reference_seconds()
            ledger.record(job, k, result, "a worker thread or process outlived the job" if stray else None)
            samples[job.key].append(result.seconds)
            scaled[job.key].append(result.seconds / ((before + after) / 2))
            before = after
        first_pass = False


def pass_seconds(samples: dict[str, list[float]]) -> float:
    """Time of one pass over the job list: the sum of per-job medians."""
    return sum(statistics.median(s) for s in samples.values())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    head = os.path.join(CHECKOUT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(CHECKOUT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def src_lines() -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def provenance(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "commit": commit(),
        "seed": seed,
        "repo.src_lines": src_lines(),
    }


def load_pins(workload: str) -> dict:
    """The pinned first-pass digests of ``workload``; empty when it has none,
    so that every job of the first pass fails."""
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def setup(workload: str, seed: int, work: str):
    """Import and generate inputs ``SETUPS`` times; returns the last import,
    its job list and input directory, the set-up times, and whether every
    repeat wrote byte-identical inputs."""
    times, digests = [], []
    for k in range(SETUPS):
        root = os.path.join(work, f"inputs-{k}")
        start = perf_counter()
        fv = fresh_import()
        jobs = workloads.build(workload, fv, seed, root)
        times.append(perf_counter() - start)
        digests.append(tree_digest(root))
    return fv, jobs, root, times, len(set(digests)) == 1


def traced_pass(fv, workload, seed, work, jobs, ledger, runs):
    """Regenerate the inputs and run every job once with spans installed;
    returns the tracer and the pass time."""
    tracer = spans.Tracer()
    undo = spans.install(tracer, fv)
    try:
        tracer.job = "setup"
        workloads.build(workload, fv, seed, os.path.join(work, "inputs-traced"))
        total = 0.0
        for job in jobs:
            k = runs[job.key]
            runs[job.key] += 1
            tracer.job = job.label(k)
            result = execute(fv, job, k, tracer)
            ledger.record(job, k, result)
            total += result.seconds
    finally:
        spans.uninstall(undo)
    return tracer, total


def write_result(name: str, record) -> None:
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", name), "w", encoding="utf-8") as fh:
        if isinstance(record, list):
            fh.writelines(json.dumps(item) + "\n" for item in record)
        else:
            json.dump(record, fh, indent=1, sort_keys=True)


def run(workload: str, seed: int, seconds: float, trace: bool, pinned: bool = True) -> tuple[dict, dict]:
    """One benchmark run; returns (summary, detail).  At the default seed the
    first pass is compared with pinned.json unless ``pinned`` is false."""
    work = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cwd = os.getcwd()
    try:
        fv, jobs, root, setup_times, same_inputs = setup(workload, seed, work)
        os.chdir(root)
        ledger = Ledger(load_pins(workload) if pinned and seed == DEFAULT_SEED else None)
        runs = {job.key: 0 for job in jobs}
        samples, scaled = measure(fv, jobs, seconds, ledger, runs)
        wall = pass_seconds(samples)
        by_command: dict[str, list[float]] = {}
        for job in jobs:
            by_command.setdefault(job.command, []).extend(samples[job.key])
        detail = {
            "workload": workload,
            "provenance": provenance(seed),
            "setup_s": {"samples": setup_times},
            "wall_s": wall,
            "jobs": {key: {"samples": samples[key], "ref": scaled[key]} for key in samples},
            "commands": {
                f"{command}_s": {"n": len(values), "median": statistics.median(values)}
                for command, values in by_command.items()
            },
            "sampler_no_config": ledger.no_config,
        }
        if trace:
            tracer, traced = traced_pass(fv, workload, seed, work, jobs, ledger, runs)
            metrics = spans.layer_metrics(tracer)
            metrics["trace.overhead_s"] = traced - wall
            metrics["trace.overhead_ratio"] = (traced - wall) / wall
            metrics["repo.src_lines"] = detail["provenance"]["repo.src_lines"]
            units = spans.LAYER_UNITS
            write_result(f"{workload}-seed{seed}.spans.jsonl", tracer.spans)
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "pass_ref": pass_seconds(scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
        if not same_inputs:
            ledger.failed += 1
            ledger.errors.append("set-up repeats wrote different inputs for one seed")
        detail["errors"] = ledger.errors
        detail["first_pass_digests"] = ledger.first
        summary = {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        write_result(f"{workload}-seed{seed}-trace{int(trace)}.json", {**detail, "result": summary})
        return summary, detail
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # bytecode goes under the work directory, so runs neither write into src/
    # nor read a __pycache__ left there by other tools
    sys.pycache_prefix = os.path.join(WORK, "pycache")
    if not os.path.isfile(os.path.join(SRC, "finvariant", "cli.py")):
        sys.stderr.write(f"perfbench: no finvariant sources under {SRC}\n")
        return 2
    summary, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("perfbench " + json.dumps(detail, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
