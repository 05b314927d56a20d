"""Record the reference values that run.py checks trials against.

Usage: python3 perfbench/record.py

Runs every unit of every pool once and writes what it observed to
``reference.json``.  The file was recorded at the commit that added the
benchmark; re-recording it at a later commit would turn the correctness
check into a comparison of the program with itself, so only do so to add
units or workloads, never to make a failing check pass.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, SCRATCH, WORKLOADS, run_unit


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=SCRATCH))
    reference: dict = {}
    try:
        for workload, units in WORKLOADS.items():
            reference[workload] = {}
            for unit in units:
                r = run_unit(workload, unit, False, tmp, {}, 600.0)
                bad = [k for k, t in r.seen.items()
                       if t.get("skip") or not t.get("certified", t.get("optimal", True))]
                if r.error or not r.seen or bad:
                    print(f"{workload}/{unit['id']}: {r.error or bad or 'no trials'}", file=sys.stderr)
                    return 1
                reference[workload][unit["id"]] = r.seen
                print(f"{workload}/{unit['id']}: {len(r.seen)} trials, {r.trial_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
