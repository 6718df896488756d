"""Span tracing of fdpclab's public functions, installed from outside the package.

The tracer replaces each traced function in *every* ``fdpclab`` module
namespace that holds it, because modules import these functions by name
(``objective`` lives in ``inflation``; ``solve_w`` in ``cli``, ``inflation``
and ``covopt``; ``achievable_rate`` in ``lab``, ``cli`` and ``covopt``).
Patching only the defining module would miss most calls.  A traced name that
no longer exists is reported as absent instead of failing the run.

Spans stay in memory; :meth:`Tracer.write` dumps them when the run ends, and
:func:`layer_metrics` turns them into the per-layer metrics of the benchmark.
This module imports neither numpy nor fdpclab.
"""

import json
import math
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "fdpclab"

# Public functions wrapped in a span, as "<module>.<function>".  Each module
# of the package is one layer.
TRACED = (
    "cli.main",
    "config.validate_config",
    "config.build_experiment",
    "model.build_sample_bank",
    "model.quantize_H",
    "model.sample_H_given_Hhat",
    "linalg.logdet_pd",
    "rate.build_M",
    "rate.objective",
    "rate.achievable_rate",
    "rate.no_interference_bound",
    "inflation.solve_w",
    "inflation.best_initialization",
    "inflation.alg1_solve",
    "inflation.alg1_row_update",
    "inflation.alg2_solve",
    "inflation.alg2_map",
    "inflation.w_perfect_csit",
    "covopt.joint_optimize",
    "covopt.gradient_map",
    "covopt.solve_lambda",
    "covopt.t_step_map",
    "lab.run_sweep",
    "lab.resolve_w",
    "lab.write_sweep_csv",
)

LAYERS = ("cli", "config", "model", "linalg", "rate", "inflation", "covopt", "lab")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("config.build_experiment_s", "s"),
    ("model.bank_s", "s"),
    ("model.draws", "count"),
    ("linalg.logdet_calls", "count"),
    ("linalg.logdet_s", "s"),
    ("linalg.logdet_matrices", "count"),
    ("linalg.logdet_flops", "flop.computed"),
    ("linalg.logdet_bytes", "B.computed"),
    ("rate.objective_calls", "count"),
    ("rate.objective_s", "s"),
    ("rate.objective_us_per_draw", "us"),
    ("rate.achievable_rate_self_s", "s"),
    ("rate.bound_calls", "count"),
    ("rate.bound_s", "s"),
    ("inflation.solves", "count"),
    ("inflation.solve_s_p50", "s"),
    ("inflation.solve_s_p90", "s"),
    ("inflation.init_s", "s"),
    ("inflation.iterations_sum", "count"),
    ("inflation.iterations_max", "count"),
    ("inflation.converged_ratio", "ratio"),
    ("inflation.objective_evals_per_solve", "count"),
    ("inflation.alg1_row_update_s", "s"),
    ("inflation.alg1_accept_ratio", "ratio"),
    ("inflation.alg2_map_s", "s"),
    ("inflation.alg2_accept_ratio", "ratio"),
    ("covopt.outer_iters", "count"),
    ("covopt.gradient_s", "s"),
    ("covopt.lambda_s", "s"),
    ("covopt.wstep_share", "ratio"),
    ("covopt.gradient_calls_per_tstep", "count"),
    ("lab.cells", "count"),
    ("lab.cell_s_p50", "s"),
    ("lab.cell_s_p90", "s"),
    ("lab.bound_evals_per_cell", "count"),
    ("lab.thread_speedup", "ratio"),
    ("lab.run_sweep_threads1_s", "s"),
    ("lab.run_sweep_threadsN_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.spans", "count"),
)


def _observe_logdet(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return {"matrices": math.prod(a.shape[:-2]), "n": a.shape[-1],
            "itemsize": a.dtype.itemsize, "complex": a.dtype.kind == "c"}


def _observe_draws(args, kwargs, result):
    h = args[2] if len(args) > 2 else kwargs.get("inner_samples")
    return {"draws": len(h)}


def _observe_solve(args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged),
            "accepted": len(result.objective_trace) - 1}


def _observe_bank(args, kwargs, result):
    return {"draws": sum(len(cell.draws) for cell in result.cells)}


def _observe_joint(args, kwargs, result):
    return {"outer_iters": len(result.rate_trace)}


# Read attributes of a traced call's arguments or result after it returns.
OBSERVERS = {
    "linalg.logdet_pd": _observe_logdet,
    "rate.objective": _observe_draws,
    "inflation.solve_w": _observe_solve,
    "inflation.alg1_solve": _observe_solve,
    "inflation.alg2_solve": _observe_solve,
    "model.build_sample_bank": _observe_bank,
    "covopt.joint_optimize": _observe_joint,
}


class Tracer:
    """Wraps traced functions in spans; one instance per traced process."""

    def __init__(self, run_id, names=TRACED):
        if any(n.split(".", 1)[1].startswith("_") for n in names):
            raise ValueError("only public names are traced")
        self.run_id = run_id
        self.names = tuple(names)
        self.spans = []          # [name, start, end, parent, info, exception]
        self.absent = []
        self.observer_errors = defaultdict(int)
        self._local = threading.local()
        self._patched = []       # (module, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, func):
        observe = OBSERVERS.get(name)
        spans, clock = self.spans, time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                try:
                    span[4] = observe(args, kwargs, result)
                except Exception:  # a renamed field must not fail the run
                    self.observer_errors[name] += 1
            return result

        traced.__wrapped__ = func
        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name in self.names:
            mod_name, func_name = name.split(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def functions(self):
        """Per traced name: calls, total and self time, exceptions raised."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "exceptions": 0}
               for name in self.names if name not in self.absent}
        for span, self_s in zip(self.spans, self.self_times()):
            rec = out[span[0]]
            rec["calls"] += 1
            rec["total_s"] += span[2] - span[1]
            rec["self_s"] += self_s
            rec["exceptions"] += span[5] is not None
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, self_s) in enumerate(zip(self.spans, self.self_times())):
                name, start, end, parent, _, exc = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run_id": self.run_id,
                                     "self_s": self_s, "exception": exc}) + "\n")


def _pct(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics (without the trace.* and thread-speedup entries)."""
    spans = tracer.spans
    self_t = tracer.self_times()
    idx = defaultdict(list)
    for i, span in enumerate(spans):
        idx[span[0]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(name):
        return sum(dur(i) for i in idx[name])

    def under(i, ancestor):
        p = spans[i][3]
        while p is not None:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][3]
        return False

    def info(name, key):
        return [spans[i][4][key] for i in idx[name] if spans[i][4] is not None]

    m = {}
    m["config.build_experiment_s"] = total("config.build_experiment")
    m["model.bank_s"] = total("model.build_sample_bank")
    m["model.draws"] = sum(info("model.build_sample_bank", "draws"))

    logdets = [spans[i][4] for i in idx["linalg.logdet_pd"] if spans[i][4] is not None]
    m["linalg.logdet_calls"] = len(idx["linalg.logdet_pd"])
    m["linalg.logdet_s"] = total("linalg.logdet_pd")
    m["linalg.logdet_matrices"] = sum(d["matrices"] for d in logdets)
    # Cholesky n^3/3 multiply-adds (x4 flops when complex) plus n logs, per
    # matrix; bytes: the input read and the factor written once.
    m["linalg.logdet_flops"] = sum(
        d["matrices"] * ((d["n"] ** 3 / 3.0) * (8 if d["complex"] else 2) + d["n"])
        for d in logdets)
    m["linalg.logdet_bytes"] = sum(2 * d["matrices"] * d["n"] ** 2 * d["itemsize"]
                                   for d in logdets)

    m["rate.objective_calls"] = len(idx["rate.objective"])
    m["rate.objective_s"] = total("rate.objective")
    m["rate.objective_us_per_draw"] = 1e6 * _ratio(
        m["rate.objective_s"], sum(info("rate.objective", "draws")))
    m["rate.achievable_rate_self_s"] = sum(self_t[i] for i in idx["rate.achievable_rate"])
    m["rate.bound_calls"] = len(idx["rate.no_interference_bound"])
    m["rate.bound_s"] = total("rate.no_interference_bound")

    solves = idx["inflation.solve_w"]
    iters = info("inflation.solve_w", "iterations")
    m["inflation.solves"] = len(solves)
    m["inflation.solve_s_p50"] = _pct([dur(i) for i in solves], 0.5)
    m["inflation.solve_s_p90"] = _pct([dur(i) for i in solves], 0.9)
    m["inflation.init_s"] = total("inflation.best_initialization")
    m["inflation.iterations_sum"] = sum(iters)
    m["inflation.iterations_max"] = max(iters, default=0)
    m["inflation.converged_ratio"] = _ratio(
        sum(info("inflation.solve_w", "converged")), len(solves))
    m["inflation.objective_evals_per_solve"] = _ratio(
        sum(1 for i in idx["rate.objective"] if under(i, "inflation.solve_w")), len(solves))
    m["inflation.alg1_row_update_s"] = total("inflation.alg1_row_update")
    # attempted sweeps: one objective call each after the initial one
    alg1_attempts = sum(1 for i in idx["rate.objective"]
                        if spans[i][3] is not None
                        and spans[spans[i][3]][0] == "inflation.alg1_solve")
    alg1_attempts -= len(idx["inflation.alg1_solve"])
    m["inflation.alg1_accept_ratio"] = _ratio(
        sum(info("inflation.alg1_solve", "accepted")), alg1_attempts)
    m["inflation.alg2_map_s"] = total("inflation.alg2_map")
    m["inflation.alg2_accept_ratio"] = _ratio(
        sum(info("inflation.alg2_solve", "accepted")), len(idx["inflation.alg2_map"]))

    joint = total("covopt.joint_optimize")
    m["covopt.outer_iters"] = sum(info("covopt.joint_optimize", "outer_iters"))
    m["covopt.gradient_s"] = total("covopt.gradient_map")
    m["covopt.lambda_s"] = total("covopt.solve_lambda")
    m["covopt.wstep_share"] = _ratio(
        sum(dur(i) for i in solves if under(i, "covopt.joint_optimize")), joint)
    m["covopt.gradient_calls_per_tstep"] = _ratio(
        len(idx["covopt.gradient_map"]), len(idx["covopt.t_step_map"]))

    # A sweep cell is the run of run_sweep's children that starts with the
    # cell's resolve_w call (then achievable_rate and, if not cached, the bound).
    cell_times, bound_in_sweep = [], 0
    for i, span in enumerate(spans):
        parent = span[3]
        if parent is None or spans[parent][0] != "lab.run_sweep":
            continue
        if span[0] == "lab.resolve_w":
            cell_times.append(0.0)
        if span[0] == "rate.no_interference_bound":
            bound_in_sweep += 1
        if cell_times and span[0] != "model.build_sample_bank":
            cell_times[-1] += dur(i)
    m["lab.cells"] = len(cell_times)
    m["lab.cell_s_p50"] = _pct(cell_times, 0.5)
    m["lab.cell_s_p90"] = _pct(cell_times, 0.9)
    m["lab.bound_evals_per_cell"] = _ratio(bound_in_sweep, len(cell_times))

    by_layer = defaultdict(float)
    for span, s in zip(spans, self_t):
        by_layer[span[0].split(".", 1)[0]] += s
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer[layer]
    m["trace.self_sum_s"] = sum(self_t)
    m["trace.spans"] = len(spans)
    return m
