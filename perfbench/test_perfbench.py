"""Tests of the benchmark itself: span arithmetic, metric names, seeded
inputs, output checks, and that neither tracing nor the thread count changes
a byte of program output."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(CHECKOUT, "src"))

import finvariant as fv  # noqa: E402
import finvariant.cli  # noqa: E402,F401

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, Result  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def test_covered_merges_overlaps():
    assert spans.covered([]) == 0
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.covered([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_union_of_direct_children():
    # parent 0..10; children overlap (1..3, 2..5) and one runs past the end
    # (8..12); the grandchild inside 2..5 does not count against the parent
    recorded = [
        (1, None, "j", "parent", 0.0, 10.0),
        (2, 1, "j", "child", 1.0, 3.0),
        (3, 1, "j", "child", 2.0, 5.0),
        (4, 1, "j", "child", 8.0, 12.0),
        (5, 3, "j", "grandchild", 2.5, 4.5),
    ]
    own = spans.self_times(recorded)
    assert own[1] == pytest.approx(10 - (4 + 2))
    assert own[3] == pytest.approx(3 - 2)
    assert own[5] == pytest.approx(2)


def test_tracer_nests_spans_and_links_worker_threads():
    from concurrent.futures import ThreadPoolExecutor

    tracer = spans.Tracer()
    with tracer.span("outer"):
        tracer.call("inner", sum, ([1, 2],), {})
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda x: tracer.call("worker", tracer.add, ("hits", x),
                                                {}), range(100)))
    by_name = {}
    for sid, parent, _job, name, start, end in tracer.spans:
        by_name.setdefault(name, []).append(parent)
        assert end >= start
    (outer_id,) = [s[0] for s in tracer.spans if s[3] == "outer"]
    assert by_name["inner"] == [outer_id]
    assert by_name["worker"] == [outer_id] * 100
    assert tracer.counts["hits"] == sum(range(100))


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------


def _benchmark_json():
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_units_match_the_runner():
    bench = _benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_regenerates_byte_identical_inputs(workload, tmp_path):
    a = workloads.build(workload, fv, 5, str(tmp_path / "a"))
    b = workloads.build(workload, fv, 5, str(tmp_path / "b"))
    assert run.tree_digest(str(tmp_path / "a")) == run.tree_digest(str(tmp_path / "b"))
    assert [job.argv for job in a] == [job.argv for job in b]
    workloads.build(workload, fv, 6, str(tmp_path / "c"))
    assert run.tree_digest(str(tmp_path / "a")) != run.tree_digest(str(tmp_path / "c"))


def test_semiprime_weight_needs_one_large_factorization():
    import random

    data = workloads.semiprime_weight(random.Random(3))
    entries = list(data["vertex"].values()) + [e["p"] for e in data["edge"]]
    (den,) = {p["den"] for p in entries}
    small = [p for p in workloads.SMALL_PRIMES if den % p == 0]
    assert not small and not workloads.is_prime(den)
    assert all(workloads.cheap_to_factor(p["num"]) for p in entries)
    fv.Weight.from_json(data)


# ---------------------------------------------------------------------------
# program output under tracing and thread counts
# ---------------------------------------------------------------------------


def _small_jobs(root: str) -> list[Job]:
    """A few fast jobs covering every traced module."""
    os.makedirs(root, exist_ok=True)
    w = workloads
    w._write(root, "golden.json", w.golden_mean(Fraction(2, 3)))
    w._write(root, "sft.json", {"alphabet": ["0", "1"], "forbidden": [{"": "1", "a": "1"}], "nearest_neighbor": True})
    w._write(root, "mc.json", {"weight": "golden.json", "window": 1, "epsilon": "1/2", "n_list": [7, 8],
                               "samples": 4, "seed": 9, "distance_mode": "edge_star", "sft": "sft.json"})
    w._write(root, "exact.json", {"weight": "golden.json", "window": 0, "epsilon": "3/10", "n_list": [3],
                                  "mode": "exact"})
    import random

    rng = random.Random(1)
    w._write(root, "sigma.json", w.random_action(rng, 12))
    w._write(root, "rearrange.json", {"rank": 2, "rho": 2, "sigma": {"file": "sigma.json"},
                                      "x": {"automorphism": {"images": {"a": "ab", "b": "b"}}},
                                      "y_alphabet": ["p", "q"], "seed": 4})
    w._write(root, "block.json", w.block_action(rng, (2, 2)))
    w._write(root, "sampler.json", {"rank": 2, "rho": 1, "sigma": {"file": "block.json"},
                                    "x": {"sampler": {"seed": 2, "budget": 60000, "restarts": 2}}})
    return [
        Job("mc", "f_estimate", ["f-estimate", "--config", "mc.json", "--threads", "2"],
            lambda r: checks.f_estimate(r, [7, 8], 2, 4, 2)),
        Job("exact", "f_estimate", ["f-estimate", "--config", "exact.json"],
            lambda r: checks.f_estimate(r, [3], 2, None, 2)),
        Job("f_exact", "f_exact", ["f-exact", "--weight", "golden.json"], checks.f_exact),
        Job("rearrange", "rearrange", ["rearrange", "--config", "rearrange.json"], checks.rearrange),
        Job("sft_verify", "sft_verify", ["sft-verify", "--config", "rearrange.json"],
            lambda r: checks.sft_verify(r, 12)),
        Job("sampler", "rearrange", ["rearrange", "--config", "sampler.json"],
            lambda r: checks.rearrange(r, sampler=True)),
    ]


@pytest.fixture()
def small_jobs(tmp_path, monkeypatch):
    jobs = _small_jobs(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return jobs


def test_outputs_identical_with_tracing_on_and_off(small_jobs):
    plain = {}
    for job in small_jobs:
        result = run.execute(fv, job, 0)
        assert job.check(result) is None, (job.key, result.stderr)
        plain[job.key] = run.output_digest(result)
    originals = (fv.counting.count_omega, fv.orbitmaps.axioms_check, fv.shift.PatternDistribution.__dict__["from_json"])
    tracer = spans.Tracer()
    undo = spans.install(tracer, fv)
    try:
        assert fv.orbitmaps.axioms_check is fv.sft.axioms_check is not originals[1]
        traced = {job.key: run.output_digest(run.execute(fv, job, 0, tracer)) for job in small_jobs}
    finally:
        spans.uninstall(undo)
    assert traced == plain
    assert (fv.counting.count_omega, fv.orbitmaps.axioms_check, fv.shift.PatternDistribution.__dict__["from_json"]) == originals
    metrics = spans.layer_metrics(tracer)
    for name in ("counting.count_omega.calls", "sft.sft_check_all.calls", "sft.axioms_check.calls",
                 "orbitmaps.pattern_inverse_eval.calls", "shift.pullback_name.calls", "freegroup.mul.calls"):
        assert metrics[name] > 0, name
    assert 0 < metrics["counting.accept_ratio"] <= 1
    assert metrics["cli.rearrange.self_s"] > 0


def test_outputs_identical_across_thread_counts(small_jobs):
    job = small_jobs[0]
    one = Job(job.key, job.command, [a if a != "2" else "1" for a in job.argv], job.check)
    assert "1" in one.argv and "2" in job.argv
    assert run.output_digest(run.execute(fv, one, 0)) == run.output_digest(run.execute(fv, job, 0))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _corrupt(result: Result, old: str, new: str, field: str = "stdout") -> Result:
    text = getattr(result, field)
    assert old in text, (old, text)
    return Result(result.code, *(
        (text.replace(old, new, 1) if f == field else getattr(result, f)) for f in ("stdout", "stderr", "out_text")
    ), result.seconds)


def test_checks_fail_on_corrupted_outputs(small_jobs):
    results = {job.key: run.execute(fv, job, 0) for job in small_jobs}
    mc, exact = results["mc"], results["exact"]
    mc_row = mc.stdout.splitlines()[2].split(",")
    bad_count = _corrupt(mc, ",".join(mc_row[:3]), ",".join(mc_row[:2] + ["1e9"]))
    assert "outside" in checks.f_estimate(bad_count, [7, 8], 2, 4, 2)
    missing_row = Result(0, "\n".join(mc.stdout.splitlines()[:-1]) + "\n", "", "", 0)
    assert checks.f_estimate(missing_row, [7, 8], 2, 4, 2)
    row = exact.stdout.splitlines()[2].split(",")
    fractional = _corrupt(exact, ",".join(row[:3]), ",".join(row[:2] + [str(float(row[2]) + 1e-3)]))
    assert "integer" in checks.f_estimate(fractional, [3], 2, None, 2)
    assert checks.f_exact(_corrupt(results["f_exact"], "constancy_ok: yes", "constancy_ok: no"))
    assert checks.rearrange(_corrupt(results["rearrange"], "overall: PASS", "overall: FAIL"))
    assert checks.sft_verify(_corrupt(results["sft_verify"], ": OK", ": FAIL x"), 12)
    markovized = Result(0, "f_nats: 1\nreference_f_nats: 1\nf_delta: 1e-12\n", "", "{}", 0)
    assert checks.markovize(markovized)
    assert checks.markovize(Result(0, "f_delta: 0\n", "", "{}", 0)) is None
    no_config = Result(1, "", f"verification failure: {checks.NO_CONFIG}\n", "", 0)
    assert checks.rearrange(no_config, sampler=True) is None
    assert checks.rearrange(no_config)


def test_rationalize_check_rejects_unbalanced_weights():
    exact = workloads.bernoulli(Fraction(1, 3))
    ok = Result(0, "distance: 0 (bound 0.1)\n", "", json.dumps(exact), 0)
    assert checks.rationalize(ok, 10) is None
    exact["edge"][0]["p"] = {"num": 1, "den": 10}
    assert "balanced" in checks.rationalize(Result(0, ok.stdout, "", json.dumps(exact), 0), 10)
    assert "bound" in checks.rationalize(Result(0, "distance: 0.2 (bound 0.1)\n", "", ok.out_text, 0), 10)


def test_ledger_counts_pinned_and_repeat_mismatches():
    job = Job("j", "f_exact", [], lambda r: None)
    good = Result(0, "same\n", "", "", 0)
    ledger = run.Ledger({"j": run.output_digest(good)})
    ledger.record(job, 0, good)
    ledger.record(job, 1, Result(0, "changed\n", "", "", 0))
    assert (ledger.attempted, ledger.failed) == (2, 1)
    ledger = run.Ledger({"j": "0" * 64})
    ledger.record(job, 0, good)
    assert ledger.failed == 1 and "pinned" in ledger.errors[0]
    assert ledger.first == {"j": run.output_digest(good)}


def test_ledger_fails_a_first_pass_job_without_a_pin():
    stream = Job("s", "f_exact", ["{k}"], lambda r: None, stream=lambda k: None)
    good = Result(0, "same\n", "", "", 0)
    ledger = run.Ledger({})
    ledger.record(stream, 0, good)
    ledger.record(stream, 1, good)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "no pinned output" in ledger.errors[0] and ledger.errors[0].startswith("s#0")
    assert run.load_pins("no_such_workload") == {}


def test_measure_scales_by_the_reference_and_fails_a_job_that_leaves_a_worker():
    import threading
    from types import SimpleNamespace

    release = threading.Event()
    workers = []

    def main(argv):
        if argv == ["leave"]:
            workers.append(threading.Thread(target=release.wait))
            workers[-1].start()
        return 0

    fake = SimpleNamespace(cli=SimpleNamespace(main=main))
    jobs = [Job("clean", "f_exact", [], lambda r: None), Job("leave", "f_exact", ["leave"], lambda r: None)]
    ledger = run.Ledger(None)
    try:
        samples, scaled = run.measure(fake, jobs, 0, ledger, {job.key: 0 for job in jobs})
    finally:
        release.set()
        for worker in workers:
            worker.join(5)
    assert not any(worker.is_alive() for worker in workers)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.errors[0].startswith("leave: a worker")
    assert all(s > 0 and r > 0 for key in samples for s, r in zip(samples[key], scaled[key]))
    assert run.reference_seconds() > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_first_pass_job_is_pinned(workload, tmp_path):
    jobs = workloads.build(workload, fv, run.DEFAULT_SEED, str(tmp_path))
    assert set(run.load_pins(workload)) == {job.label(0) for job in jobs}


# ---------------------------------------------------------------------------
# the runner without sources
# ---------------------------------------------------------------------------


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate_mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
