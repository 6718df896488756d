"""Correctness checks on the outputs of one workload repetition.

An operation is one CLI call or one sweep cell.  Each check returns one
record per operation, ``{"op", "ok", "why"}``; every failed record counts
toward the benchmark's ``failed``/``attempted`` (its fail ratio).

Any seed: exit code 0, a parseable payload, finite values, the sweep CSV
header byte-exact, rate <= bound + TOL_BOUND_BITS, and for ``jointopt``
trace(T T*) <= P (1 + TOL_POWER).

The default seed at full size additionally compares against the stored
reference outputs (``reference.json``):

* bounds and fixed-W (``zero``) rates are two-sided, within TOL_EXACT_BITS
  for full-precision JSON values and within CSV_REL for the CSV's 6
  significant digits;
* solver and jointopt rates are one-sided: not lower than the reference by
  more than TOL_SOLVER_BITS, so a better solver still passes.
"""

import json
import math

from workloads import sweep_cells

SWEEP_CSV_HEADER = "snr_db,csit,solver,rate_bits,stderr_bits,bound_bits,n_outer,n_inner,seed\n"

TOL_EXACT_BITS = 1e-8
CSV_REL = 2e-5            # two units in the 6th significant digit, relative
TOL_SOLVER_BITS = 1e-4
TOL_BOUND_BITS = 1e-9
TOL_POWER = 1e-9

# Noise power N = trace(Sigma_Z) of the jointopt references; P = N 10^(snr/10).
NOISE_TRACE = {"fdpc-cov-3x3": 3.0, "fdpc-rank-3x2": 2.0}


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _two_sided(name, got, want, tol):
    if abs(got - want) > tol:
        return f"{name} {got!r} differs from reference {want!r} by more than {tol:g}"
    return None


def _one_sided(name, got, want, tol):
    if got < want - tol:
        return f"{name} {got!r} is below reference {want!r} by more than {tol:g}"
    return None


def _call_failure(out):
    if out.get("error"):
        return "raised: " + out["error"].strip().splitlines()[-1]
    if out.get("rc") != 0:
        return f"exit code {out.get('rc')}"
    return None


def _payload(out):
    try:
        return json.loads(out["stdout"]), None
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return None, f"stdout is not one JSON payload: {exc}"


def _record(op, problems):
    problems = [p for p in problems if p]
    return {"op": op, "ok": not problems, "why": "; ".join(problems)}


def check_sweep(call, out, csv_text, reference):
    """One record for the CLI call plus one per expected sweep cell."""
    problems = [_call_failure(out)]
    payload, err = _payload(out) if not problems[0] else (None, None)
    problems.append(err)
    if payload is not None and payload.get("errors") != 0:
        problems.append(f"payload reports {payload.get('errors')} error rows")
    if csv_text is None:
        problems.append("no CSV written")
    elif not csv_text.startswith(SWEEP_CSV_HEADER):
        problems.append("CSV header differs from the documented header")
    records = [_record(call["op"], problems)]

    rows = {}
    for line in (csv_text or "").splitlines()[1:]:
        f = line.split(",")
        if len(f) == 9:
            rows[(f[0], f[1], f[2])] = f
    ref_cells = reference["cells"] if reference else None
    for key in sweep_cells():
        op = "cell " + ",".join(key)
        f = rows.get(key)
        if f is None:
            records.append(_record(op, ["row missing"]))
            continue
        try:
            rate, se, bound = float(f[3]), float(f[4]), float(f[5])
        except ValueError:
            records.append(_record(op, [f"unparseable row {','.join(f)!r}"]))
            continue
        if not _finite(rate, se, bound):
            records.append(_record(op, [f"non-finite row {','.join(f)!r}"]))
            continue
        # CSV rounding of both values to 6 significant digits
        slack = TOL_BOUND_BITS + CSV_REL * abs(bound)
        cell = [None if rate <= bound + slack else f"rate {rate} above bound {bound}"]
        if ref_cells is not None:
            want = ref_cells[",".join(key)]
            cell.append(_two_sided("bound_bits", bound, want["bound_bits"],
                                   CSV_REL * abs(want["bound_bits"])))
            if key[2] == "zero":
                cell.append(_two_sided("rate_bits", rate, want["rate_bits"],
                                       CSV_REL * abs(want["rate_bits"])))
                cell.append(_two_sided("stderr_bits", se, want["stderr_bits"],
                                       CSV_REL * abs(want["stderr_bits"])))
            else:
                cell.append(_one_sided("rate_bits", rate, want["rate_bits"],
                                       TOL_SOLVER_BITS + CSV_REL * abs(want["rate_bits"])))
        records.append(_record(op, cell))
    return records


def check_rate(call, out, reference):
    problems = [_call_failure(out)]
    payload = None
    if not problems[0]:
        payload, err = _payload(out)
        problems.append(err)
    if payload is not None:
        rate, bound = payload.get("rate_bits"), payload.get("bound_bits")
        if not _finite(rate, bound, payload.get("stderr_bits")):
            problems.append(f"non-finite rate/bound/stderr in {payload!r}")
        else:
            if rate > bound + TOL_BOUND_BITS:
                problems.append(f"rate {rate} above bound {bound}")
            if reference is not None:
                want = reference[call["op"]]
                problems.append(_two_sided("bound_bits", bound, want["bound_bits"],
                                           TOL_EXACT_BITS))
                problems.append(_one_sided("rate_bits", rate, want["rate_bits"],
                                           TOL_SOLVER_BITS))
    return [_record(call["op"], problems)]


def _trace_tt(t_payload):
    if isinstance(t_payload, dict):
        re, im = t_payload["re"], t_payload["im"]
        return sum(a * a + b * b for ra, ia in zip(re, im) for a, b in zip(ra, ia))
    return sum(a * a for row in t_payload for a in row)


def check_jointopt(call, out, reference):
    problems = [_call_failure(out)]
    payload = None
    if not problems[0]:
        payload, err = _payload(out)
        problems.append(err)
    if payload is not None:
        rate = payload.get("rate_bits")
        trace = payload.get("rate_trace") or []
        try:
            power = _trace_tt(payload["T"])
        except (KeyError, TypeError, ValueError) as exc:
            power = None
            problems.append(f"unreadable T: {exc!r}")
        if not _finite(rate, *trace) or (power is not None and not _finite(power)):
            problems.append("non-finite rate, rate trace or T")
        else:
            p_budget = NOISE_TRACE[call["ref"]] * 10.0 ** (call["snr_db"] / 10.0)
            if power is not None and power > p_budget * (1.0 + TOL_POWER):
                problems.append(f"trace(T T*) = {power} exceeds P = {p_budget}")
            if payload.get("rank_used", 0) > call["rank"]:
                problems.append(f"rank_used {payload.get('rank_used')} > rank {call['rank']}")
            if reference is not None:
                problems.append(_one_sided("rate_bits", rate,
                                           reference[call["op"]]["rate_bits"],
                                           TOL_SOLVER_BITS))
    return [_record(call["op"], problems)]


def check(workload, calls, outputs, reference=None):
    """Records for every operation of one repetition.

    ``outputs`` holds one entry per call (``rc``, ``stdout``, ``error`` and,
    for the sweep, ``csv``); ``reference`` is this workload's entry of
    ``reference.json`` or None for invariant checks only.
    """
    records = []
    for call, out in zip(calls, outputs):
        if workload == "sweep-quantized":
            records += check_sweep(call, out, out.get("csv"), reference)
        elif workload == "solve-nocsit":
            records += check_rate(call, out, reference)
        else:
            records += check_jointopt(call, out, reference)
    for call in calls[len(outputs):]:
        records.append(_record(call["op"], ["not run"]))
    return records


def rate_checksum(workload, outputs):
    """Sum of every reported rate_bits, printed to 12 significant digits."""
    total = 0.0
    for out in outputs:
        if workload == "sweep-quantized":
            for line in (out.get("csv") or "").splitlines()[1:]:
                try:
                    total += float(line.split(",")[3])
                except (IndexError, ValueError):
                    total = math.nan
        else:
            payload, _ = _payload(out)
            total += payload.get("rate_bits", math.nan) if payload else math.nan
    return f"{total:.12g}"


def reference_entry(workload, calls, outputs):
    """This workload's reference.json entry, from a trusted repetition."""
    if workload == "sweep-quantized":
        cells = {}
        for line in outputs[0]["csv"].splitlines()[1:]:
            f = line.split(",")
            cells[",".join(f[:3])] = {"rate_bits": float(f[3]), "stderr_bits": float(f[4]),
                                      "bound_bits": float(f[5])}
        return {"argv": " ".join(calls[0]["argv"]), "cells": cells}
    entry = {}
    for call, out in zip(calls, outputs):
        payload = json.loads(out["stdout"])
        entry[call["op"]] = {"argv": " ".join(call["argv"]), "rate_bits": payload["rate_bits"]}
        if "bound_bits" in payload:
            entry[call["op"]]["bound_bits"] = payload["bound_bits"]
    return entry
