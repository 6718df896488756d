"""Self-test of the benchmark harness at toy size.

Run from the checkout root: ``python3 -m pytest -q perfbench/test_harness.py``.
It runs every workload traced and untraced at toy size, checks that every
metric named in BENCHMARK.json is emitted with its unit, and that corrupted
outputs are counted as failed operations.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

WORKLOADS = sorted(workloads.WORKLOADS)


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(spans.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    result, meta = run.measure(workload, 1, 0.0, trace, workloads.TOY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    assert len(meta["rate_checksum"]) > 0 and meta["argv"][0][0] == "fdpclab"
    if not trace:
        assert all(values[name] > 0 for name in values)
        assert all(s > 0 for s in meta["per_repetition"]["host_scale"])
        return
    assert meta["absent"] == [] and meta["observer_errors"] == {}
    assert values["trace.self_sum_s"] == pytest.approx(
        sum(values[f"{layer}.self_s"] for layer in spans.LAYERS))
    # the spans cover the traced calls up to the harness's own loop
    assert values["trace.self_sum_s"] <= values["trace.wall_s"]
    assert values["trace.wall_s"] - values["trace.self_sum_s"] < 0.01 + 0.02 * values["trace.wall_s"]
    shown = {"sweep-quantized": "lab.cells", "solve-nocsit": "inflation.alg2_map_s",
             "jointopt": "covopt.gradient_s"}[workload]
    assert values[shown] > 0 and values["linalg.logdet_calls"] > 0
    if workload == "sweep-quantized":
        assert values["lab.thread_speedup"] > 0


def test_host_scale_takes_times_to_the_reference_speed():
    assert run.host_scale({"kernel_s": [calib.REFERENCE_S] * 3}) == pytest.approx(1.0)
    assert run.host_scale({"kernel_s": [calib.REFERENCE_S, 3 * calib.REFERENCE_S]}) == \
        pytest.approx(0.5)


def test_ticker_samples_the_kernel_and_restores_the_signal_handler():
    import signal

    previous = signal.getsignal(signal.SIGALRM)
    ticker = calib.Ticker()
    ticker.install()
    end = time.perf_counter() + 3 * calib.INTERVAL_S
    while time.perf_counter() < end:
        sum(range(1000))
    ticker.uninstall()
    assert len(ticker.kernel_s) >= 3 and ticker.spent_wall_s == pytest.approx(sum(ticker.kernel_s))
    assert signal.getsignal(signal.SIGALRM) is previous


def _toy_rep(workload):
    calls = workloads.calls(workload, 1, workloads.TOY)
    res = run.run_rep(workload, [c["argv"] for c in calls], f"{workload}:1:selftest",
                      None, time.perf_counter() + 120.0)
    return calls, res["outputs"]


def _failed(workload, calls, outputs, reference=None):
    return sum(not r["ok"] for r in checks.check(workload, calls, outputs, reference))


def _corrupt(workload, outputs):
    out = json.loads(json.dumps(outputs))
    if workload == "sweep-quantized":
        lines = out[0]["csv"].splitlines(keepends=True)
        f = lines[1].split(",")
        f[3] = "nan"
        lines[1] = ",".join(f)
        out[0]["csv"] = "".join(lines)
    elif workload == "solve-nocsit":
        payload = json.loads(out[0]["stdout"])
        payload["rate_bits"] = payload["bound_bits"] + 1.0
        out[0]["stdout"] = json.dumps(payload)
    else:
        payload = json.loads(out[0]["stdout"])
        t = payload["T"]
        t["re"] = [[2.0 * x for x in row] for row in t["re"]]
        out[0]["stdout"] = json.dumps(payload)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_raises_fail_ratio(workload):
    calls, outputs = _toy_rep(workload)
    assert _failed(workload, calls, outputs) == 0
    assert _failed(workload, calls, _corrupt(workload, outputs)) == 1
    crashed = [dict(outputs[0], rc=3)] + outputs[1:]
    assert _failed(workload, calls, crashed) >= 1
    assert _failed(workload, calls, outputs[:-1] if len(outputs) > 1 else []) >= 1


def test_reference_checks_are_two_sided_for_bounds_one_sided_for_solvers():
    calls, outputs = _toy_rep("solve-nocsit")
    ref = checks.reference_entry("solve-nocsit", calls, outputs)
    assert _failed("solve-nocsit", calls, outputs, ref) == 0
    op = calls[0]["op"]
    for key, delta, fails in (("bound_bits", 1e-6, 1), ("bound_bits", -1e-6, 1),
                              ("rate_bits", -0.5, 0), ("rate_bits", 0.5, 1)):
        moved = json.loads(json.dumps(ref))
        moved[op][key] += delta
        assert _failed("solve-nocsit", calls, outputs, moved) == fails, (key, delta)


def test_tracer_patches_every_namespace_and_reports_absent_names():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from fdpclab import cli, covopt, inflation, rate

    tracer = spans.Tracer("selftest", ("rate.objective", "inflation.solve_w",
                                       "rate.no_such_function"))
    original = rate.objective
    tracer.install()
    try:
        assert inflation.objective is rate.objective is not original
        assert cli.solve_w is covopt.solve_w is inflation.solve_w
        assert tracer.absent == ["rate.no_such_function"]
    finally:
        tracer.uninstall()
    assert rate.objective is original and inflation.objective is original
    with pytest.raises(ValueError):
        spans.Tracer("selftest", ("rate._build_M_core",))


def test_exits_nonzero_without_result_when_program_is_missing():
    bare = os.path.join(run.ROOT, workloads.OUT_DIR, "bare-copy")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "jointopt",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
