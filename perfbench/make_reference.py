"""Pin the outputs of each workload's fixed reference input.

    python3 perfbench/make_reference.py

Runs the reference input of every workload once through ``pdcfilter.cli``
and writes first-mode dB, purity and (for ``run``) the covariance to
``perfbench/reference.json``.  Every benchmark run compares its warm-up ops
with these values to 1e-9.  Regenerate only when the program's science
output is meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH_DIR, OUT_DIR, ROOT, Bench, git_sha
from inputs import WORKLOADS, reference_params


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    pinned = {}
    for name, workload in WORKLOADS.items():
        work = OUT_DIR / f"work-reference-{name}"
        work.mkdir(exist_ok=True)
        try:
            bench = Bench(workload, seed=0, work=work, smoke=False)
            _, outcome = bench.setup()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if outcome.failed_items:
            print(f"{name}: reference op failed: {outcome.errors}", file=sys.stderr)
            return 1
        entry = {"input": reference_params(workload), "first_mode_db": outcome.first_mode_db, "purity": outcome.purity}
        if outcome.covariance is not None:
            entry["covariance"] = outcome.covariance.tolist()
        pinned[name] = entry
        print(f"{name}: first mode {outcome.first_mode_db[0]:.6f} dB, purity {outcome.purity[0]:.9f}")
    payload = {"git_sha": git_sha(ROOT), "tolerance": 1e-9, "workloads": pinned}
    (BENCH_DIR / "reference.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
