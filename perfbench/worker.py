"""One repetition of a workload, in a fresh process.

Usage: ``python3 perfbench/worker.py JOB_JSON`` from the checkout root,
where JOB_JSON holds ``calls`` (a list of fdpclab CLI argv lists), ``result``
(path of the result file to write), ``trace`` (null, "all", or a list of
traced names) and ``run_id``.  ``run.py`` builds these jobs.

The worker imports ``fdpclab`` from the checkout's ``src`` directory, calls
``fdpclab.cli.main`` with each argv in turn, capturing stdout, and writes
the timings, outputs and (when traced) spans and per-layer metrics to the
result file.  In an untraced repetition a ``calib.Ticker`` times the
calibration kernel every 0.2 s while the calls run; its kernel times are
reported as ``kernel_s``, and its time is left out of ``wall_s`` and
``cpu_s``.  All timestamps are ``time.perf_counter`` values, which on Linux
read the system-wide monotonic clock, so the parent can compare them with
its own.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_info():
    """(name and version, thread count) of the BLAS library numpy links."""
    import ctypes
    import glob

    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return name, func()
    return name, None


def main():
    job = json.loads(sys.argv[1])
    if not os.path.isfile(os.path.join(SRC, "fdpclab", "cli.py")):
        print(f"no fdpclab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t_before = time.perf_counter()
    import fdpclab.cli
    t_import = time.perf_counter()
    import calib

    tracer = None
    if job["trace"]:
        import spans

        names = spans.TRACED if job["trace"] == "all" else job["trace"]
        tracer = spans.Tracer(job["run_id"], names)
        tracer.install()

    # a stale CSV from an earlier repetition must not pass for this one's
    csv_paths = [os.path.join(ROOT, argv[argv.index("--out") + 1]) if "--out" in argv else None
                 for argv in job["calls"]]
    for path in csv_paths:
        if path and os.path.exists(path):
            os.remove(path)

    # host-speed calibration runs only in untraced repetitions, whose times
    # are the end-to-end metrics; its handler time is not the program's
    ticker = calib.Ticker()
    if tracer is None:
        ticker.install()
    outputs = []
    wall_s = cpu_s = 0.0
    for argv in job["calls"]:
        buf = io.StringIO()
        rc, error = None, None
        spent0 = ticker.spent_wall_s, ticker.spent_cpu_s
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = sys.modules["fdpclab.cli"].main(argv)
        except Exception:  # a crash of the program is a failed operation
            error = traceback.format_exc()
        wall_s += time.perf_counter() - wall0 - (ticker.spent_wall_s - spent0[0])
        cpu_s += _cpu_s() - cpu0 - (ticker.spent_cpu_s - spent0[1])
        outputs.append({"rc": rc, "stdout": buf.getvalue(), "error": error})
    if tracer is None:
        ticker.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for path, out in zip(csv_paths, outputs):
        if path and os.path.isfile(path):
            with open(path, encoding="utf-8", newline="") as fh:
                out["csv"] = fh.read()

    import numpy
    import scipy

    blas, blas_threads = _blas_info()
    result = {
        "t_import": t_import, "import_s": t_import - t_before,
        "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb, "kernel_s": ticker.kernel_s,
        "outputs": outputs,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "blas": blas, "blas_threads": blas_threads,
                "fdpclab": os.path.relpath(fdpclab.__file__, ROOT)},
    }
    if tracer is not None:
        tracer.uninstall()
        result["functions"] = tracer.functions()
        result["absent"] = tracer.absent
        result["observer_errors"] = dict(tracer.observer_errors)
        if job["trace"] == "all":
            result["layers"] = spans.layer_metrics(tracer)
            tracer.write(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
