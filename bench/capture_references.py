"""Rewrite bench/references.json from the current checkout.

    python3 bench/capture_references.py

Runs every argv that a workload can produce (all window shifts, at full and
at tiny size) once in a fresh worker and stores the checked part of its
report. Run it only at a commit whose results are known to be right; the
stored values are what every later benchmark run is checked against.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run


def main() -> int:
    scratch_root = run.ROOT / run.SCRATCH_NAME
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="capture-", dir=scratch_root))
    reports = {}
    try:
        for table in (run.WORKLOADS, run.TINY_WORKLOADS):
            for workload in table.values():
                argvs = {tuple(workload.argv(seed)) for seed in range(1000)}
                for argv in sorted(argvs):
                    stored = {}

                    def keep(out_stem: Path) -> str | None:
                        with open(f"{out_stem}.json", encoding="ascii") as fh:
                            stored.update(run.reference_of(workload, json.load(fh)))
                        return None

                    now = time.monotonic()
                    worker = run.run_worker(
                        run.ROOT, scratch, list(argv), now, now + run.GRACE_S, False, keep
                    )
                    error = worker.runs[0].error
                    if error is not None or stored.get("passed") is not True:
                        print(f"error: {' '.join(argv)}: {error or 'not passed'}")
                        return 1
                    reports[" ".join(argv)] = stored
                    print(f"captured {' '.join(argv)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    payload = {
        "commit": run.machine_facts(run.ROOT)["commit"],
        "float_rel_tol": run.FLOAT_REL_TOL,
        "reports": reports,
    }
    with open(run.BENCH_DIR / "references.json", "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
