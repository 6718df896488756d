"""fdpclab benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-quantized --seed 4700 --seconds 40 --trace 0

Each repetition runs the workload's CLI calls in a fresh worker process
(``worker.py``).  Repetitions are repeated while the next one, taken to last
as long as the median one so far, is predicted to end within ``--seconds``;
the metrics are medians over repetitions.

``--trace 0`` reports the end-to-end metrics (setup_s, wall_s, cpu_s,
peak_rss_mb), the times scaled to the reference host speed by the
calibration kernel each untraced repetition times every 0.2 s (``calib.py``).  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones, the tracing overhead
(traced minus untraced wall_s) and, on ``sweep-quantized``, the thread
speed-up of ``run_sweep``.

Every output is checked (``checks.py``); failed operations are counted in
``failed`` out of ``attempted``.  A metadata line precedes the result line,
which is the last line of stdout.  If the program cannot be run at all (no
sources, a worker crash, a timeout) the benchmark exits 1 without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calib
import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
# end-to-end times reported at the reference host speed (see calib.py)
SCALED = ("setup_s", "wall_s", "cpu_s")

# The whole run, set-up included, must end within 180 s.
RUN_TIMEOUT_S = 170.0


class HarnessError(Exception):
    """The program could not be run; no result is printed."""


def git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_reference(workload, calls):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)["workloads"][workload]
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        raise HarnessError(f"no reference outputs for {workload}: {exc!r}") from None
    recorded = [ref["argv"]] if "cells" in ref else [e["argv"] for e in ref.values()]
    if recorded != [" ".join(c["argv"]) for c in calls]:
        raise HarnessError(f"reference.json does not match the {workload} calls; "
                           "rerun make_reference.py on a trusted commit")
    return ref


def run_rep(workload, argvs, run_id, trace, deadline):
    """Run one repetition in a worker process and return its result dict."""
    out_dir = os.path.join(ROOT, workloads.OUT_DIR, workload)
    os.makedirs(out_dir, exist_ok=True)
    tag = run_id.replace(":", "-")
    result_path = os.path.join(out_dir, f"{tag}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    job = {"calls": argvs, "result": result_path, "trace": trace, "run_id": run_id,
           "spans": os.path.join(out_dir, f"{tag}.spans.jsonl")}
    with open(os.path.join(out_dir, f"{tag}.log"), "w", encoding="utf-8") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER, json.dumps(job)], cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise HarnessError(f"{run_id}: worker timed out") from None
    if rc != 0:
        raise HarnessError(f"{run_id}: worker exited with {rc}; see {log.name}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["t_import"] - t_spawn
    if trace == "all":
        result["spans_file"] = os.path.relpath(job["spans"], ROOT)
    return result


def host_scale(res):
    """Factor that takes a repetition's times to the reference host speed."""
    return calib.REFERENCE_S / statistics.mean(res["kernel_s"])


def measure(workload, seed, seconds, trace, sizes=workloads.FULL):
    """Run ``workload`` for about ``seconds`` and return (result, meta)."""
    calls = workloads.calls(workload, seed, sizes)
    argvs = [c["argv"] for c in calls]
    reference = (load_reference(workload, calls)
                 if seed == workloads.DEFAULT_SEED and sizes is workloads.FULL else None)
    start = time.perf_counter()
    deadline = start + RUN_TIMEOUT_S
    records, untraced, traced = [], [], []

    def rep(mode, argv_list=argvs, tag=""):
        n = len(untraced) + len(traced)
        res = run_rep(workload, argv_list, f"{workload}:{seed}:{n}{tag}", mode, deadline)
        records.extend(checks.check(workload, calls, res["outputs"], reference))
        return res

    def elapsed():
        return time.perf_counter() - start

    speedup, durations = {}, []
    while True:
        t0 = time.perf_counter()
        untraced.append(rep(None))
        if trace:
            traced.append(rep("all"))
        durations.append(time.perf_counter() - t0)
        typical = statistics.median(durations)
        # the two thread-count runs of a traced sweep cost about one pair
        reserve = typical if trace and workload == "sweep-quantized" else 0.0
        if elapsed() + typical + reserve > seconds:
            break
    if trace and workload == "sweep-quantized":
        nproc = len(os.sched_getaffinity(0))
        for threads in (1, nproc):
            res = rep(["lab.run_sweep"], [a + ["--threads", str(threads)] for a in argvs],
                      f"-threads{threads}")
            speedup[threads] = res["functions"]["lab.run_sweep"]["total_s"]

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    reps = traced if trace else untraced
    if trace:
        values = {name: [r["layers"].get(name, 0.0) for r in traced]
                  for name, _ in spans.PER_LAYER}
        values["cli.import_s"] = [r["import_s"] for r in traced]
        values["trace.wall_s"] = [r["wall_s"] for r in traced]
        values["trace.untraced_wall_s"] = [r["wall_s"] for r in untraced]
        # each traced repetition runs right after its untraced twin
        values["trace.overhead_s"] = [t["wall_s"] - u["wall_s"] for t, u in zip(traced, untraced)]
        if speedup:
            t1, tn = speedup[1], speedup[max(speedup)]
            values["lab.run_sweep_threads1_s"] = [t1]
            values["lab.run_sweep_threadsN_s"] = [tn]
            values["lab.thread_speedup"] = [t1 / tn]
        metrics = {name: statistics.median(values[name]) for name, _ in spans.PER_LAYER}
        units = spans.PER_LAYER
    else:
        values = {name: [r[name] * (host_scale(r) if name in SCALED else 1.0)
                         for r in untraced] for name, _ in END_TO_END}
        values.update({f"measured_{name}": [r[name] for r in untraced] for name in SCALED})
        values["host_scale"] = [host_scale(r) for r in untraced]
        metrics = {name: statistics.median(values[name]) for name, _ in END_TO_END}
        units = END_TO_END

    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "traced": bool(trace),
        "repetitions": len(reps), "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)), **untraced[0]["env"],
        "argv": [["fdpclab"] + a for a in argvs],
        "rate_checksum": checks.rate_checksum(workload, untraced[0]["outputs"]),
        "fail_ratio": failed / attempted,
        "failures": [r for r in records if not r["ok"]][:20],
        "per_repetition": values,
    }
    if trace:
        meta["threads_compared"] = sorted(speedup)
        meta["spans_file"] = traced[-1]["spans_file"]
        meta["functions"] = traced[-1]["functions"]
        meta["absent"] = traced[-1]["absent"]
        meta["observer_errors"] = traced[-1]["observer_errors"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units}}
    return result, meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result, meta = measure(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
