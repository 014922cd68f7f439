"""Print the traced numbers that the ROADMAP baseline rows cover, from the
span files of traced runs at one seed.

    python3 perfbench/run.py --workload estimate_mc --seed 0 --trace 1
    python3 perfbench/run.py --workload estimate_exact --seed 0 --trace 1
    python3 perfbench/run.py --workload markov_exact --seed 0 --trace 1
    python3 perfbench/run.py --workload orbit_change --seed 0 --trace 1
    python3 perfbench/baseline.py --seed 0

The ROADMAP's ``expected_count`` rows are at n = 5, which the
``estimate_exact`` workload does not run; this script times those two calls
once itself, traced, on that workload's inputs with n_list [5].
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import spans
import workloads

# ROADMAP row -> (workload, job id, span name, baseline, unit, how the value is formed)
ROWS = [
    ("count_omega, window r=1, n=16: 29k labelings/s", "estimate_mc", "window_r1", "counting.count_omega",
     29e3, "labelings/s", 2 * (2**12 + 2**13)),
    ("count_omega, edge_star, n=16: 53k labelings/s", "estimate_mc", "edge_star_sft", "counting.count_omega",
     53e3, "labelings/s", 2 * (2**13 + 2**14)),
    ("expected_count exact, n=5, window r=0: 3.9 s", "n5", "window_r0", "counting.expected_count",
     3.9, "s", None),
    ("expected_count exact, n=5, edge_star, eps=3/5: 9.3 s", "n5", "edge_star", "counting.expected_count",
     9.3, "s", None),
    ("markovize, ball(2) marginal, 131 072 patterns: 3.5 s", "markov_exact", "markovize", "weights.markovize",
     3.5, "s", None),
    ("tau_construct, rho=2, Nielsen, n=200: ~400 vertices/s", "orbit_change", "rearrange_nielsen",
     "orbitmaps.tau_construct", 400, "vertices/s", 200),
]


def load(workload: str, seed: int) -> list[tuple]:
    path = os.path.join(run.WORK, "results", f"{workload}-seed{seed}.spans.jsonl")
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def exact_n5(seed: int) -> list[tuple]:
    """Spans of one traced run of each ``estimate_exact`` job at n = 5."""
    fv = run.fresh_import()
    root = os.path.join(run.WORK, f"baseline-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    jobs = workloads.build("estimate_exact", fv, seed, root)
    for name in ("exact_r0.json", "exact_edge.json"):
        path = os.path.join(root, name)
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
        config["n_list"] = [5]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
    tracer = spans.Tracer()
    undo = spans.install(tracer, fv)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for job in jobs:
            tracer.job = job.key
            if run.execute(fv, job, 0, tracer).code != 0:
                raise SystemExit(f"{job.key} at n = 5 failed")
    finally:
        os.chdir(cwd)
        spans.uninstall(undo)
        shutil.rmtree(root, ignore_errors=True)
    return tracer.spans


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    seed = parser.parse_args().seed
    sys.pycache_prefix = os.path.join(run.WORK, "pycache")
    print("| ROADMAP row | traced here | ratio | flag |")
    print("|---|---|---|---|")
    n5 = exact_n5(seed)
    for row, workload, job, name, base, unit, work in ROWS:
        picked = [s for s in (n5 if workload == "n5" else load(workload, seed)) if s[2] == job and s[3] == name]
        if work is None:
            value = picked[-1][5] - picked[-1][4]
        else:
            value = work / spans.covered((s[4], s[5]) for s in picked)
        ratio = value / base
        flag = "differs > 25%" if abs(ratio - 1) > 0.25 else ""
        print(f"| {row} | {value:.4g} {unit} | {ratio:.2f} | {flag} |")


if __name__ == "__main__":
    main()
