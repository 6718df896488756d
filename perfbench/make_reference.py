"""Write reference.json: the outputs of every workload at the default seed.

Usage, from the root of a checkout: ``python3 perfbench/make_reference.py``.

Run it only on a commit whose outputs are trusted, and only when the
workloads themselves change: the benchmark's correctness gate compares
later commits against this file.  Each workload runs once at full size; a
repetition that fails any invariant check is not written.
"""

import json
import sys
import time

import checks
import run
import workloads


def main():
    seed = workloads.DEFAULT_SEED
    out = {"seed": seed, "sizes": workloads.FULL, "workloads": {}}
    for workload in workloads.WORKLOADS:
        calls = workloads.calls(workload, seed)
        res = run.run_rep(workload, [c["argv"] for c in calls], f"{workload}:{seed}:reference",
                          None, time.perf_counter() + 900.0)
        bad = [r for r in checks.check(workload, calls, res["outputs"]) if not r["ok"]]
        if bad:
            print(f"{workload}: invariant checks failed: {bad}", file=sys.stderr)
            return 1
        out["workloads"][workload] = checks.reference_entry(workload, calls, res["outputs"])
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
