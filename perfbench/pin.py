"""Rewrite pinned.json: the output digest of every job in the first pass of
each workload at the default seed, as recorded by an unpinned run.

    python3 perfbench/pin.py

Run it only when a change to the benchmark or a deliberate change of program
output makes the old pins wrong, and say which in the change log.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> None:
    sys.pycache_prefix = os.path.join(run.WORK, "pycache")
    pins = {}
    for workload in workloads.WORKLOADS:
        summary, detail = run.run(workload, run.DEFAULT_SEED, 0, False, pinned=False)
        if not summary["correct"]:
            raise SystemExit(f"{workload}: " + "; ".join(detail["errors"]))
        pins[workload] = detail["first_pass_digests"]
    with open(run.PINNED, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
