"""The benchmark's workloads: which ``fdpclab`` CLI calls one repetition makes.

Every call runs with the program's defaults (``--threads 1``, the BLAS
library's own thread count).  The seed of the benchmark run is passed to
every call as ``--seed``; banks are pure functions of (seed, config), so the
same seed gives the same inputs.

``FULL`` sizes one repetition to a few seconds so that a run of
``run_seconds`` holds several repetitions and reports their median; ``TOY``
is for the harness self-test.
"""

DEFAULT_SEED = 4700

# Runtime outputs (sweep CSVs, span files, worker logs), relative to the
# checkout root.
OUT_DIR = ".perfbench_out"

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("sweep-quantized", "solve-nocsit", "jointopt")

SWEEP_REF = "fdpc-2x2-a"
SWEEP_SNRS = ("0", "10", "20")
SWEEP_SOLVERS = ("alg1", "zero")
SWEEP_CSITS = ("none", "perfect", "B=1", "B=2")

SOLVE_REFS = ("fdpc-fig4-1", "fdpc-fig4-2")
SOLVE_SNRS = ("0", "10", "20")
SOLVE_SOLVERS = ("alg1", "alg2")

# (ref, snr_db, rank): the criterion-10 set
JOINT_CASES = (("fdpc-cov-3x3", "0", "3"),
               ("fdpc-rank-3x2", "-10", "1"), ("fdpc-rank-3x2", "-10", "3"),
               ("fdpc-rank-3x2", "30", "1"), ("fdpc-rank-3x2", "30", "3"))

FULL = {"sweep_samples": 20000, "sweep_outer": 5, "solve_samples": 4000,
        "joint_samples": 5000, "outer_iters": 25}
TOY = {"sweep_samples": 200, "sweep_outer": 2, "solve_samples": 200,
       "joint_samples": 200, "outer_iters": 3}


def sweep_cells():
    """(snr, csit, solver) of every sweep cell, in the CSV's plan order."""
    return [(snr, csit, solver) for csit in SWEEP_CSITS
            for snr in SWEEP_SNRS for solver in SWEEP_SOLVERS]


def calls(workload, seed, sizes=FULL):
    """The CLI calls of one repetition: a list of dicts with ``op`` and ``argv``.

    Each dict also carries the parameters the correctness checks need.
    """
    s = str(seed)
    if workload == "sweep-quantized":
        csv_path = f"{OUT_DIR}/{workload}/sweep.csv"
        return [{"op": "sweep", "csv": csv_path, "argv": [
            "sweep", "--ref", SWEEP_REF, "--snr-db-list", ",".join(SWEEP_SNRS),
            "--solvers", ",".join(SWEEP_SOLVERS), "--csit", ",".join(SWEEP_CSITS),
            "--samples", str(sizes["sweep_samples"]),
            "--n-outer", str(sizes["sweep_outer"]), "--seed", s, "--out", csv_path]}]
    if workload == "solve-nocsit":
        return [{"op": f"{ref}@{snr}dB/{solver}", "solver": solver, "argv": [
            "rate", "--ref", ref, "--snr-db", snr, "--solver", solver,
            "--samples", str(sizes["solve_samples"]), "--seed", s]}
            for ref in SOLVE_REFS for snr in SOLVE_SNRS for solver in SOLVE_SOLVERS]
    if workload == "jointopt":
        return [{"op": f"{ref}@{snr}dB/rank{rank}", "ref": ref, "snr_db": float(snr),
                 "rank": int(rank), "argv": [
                     "jointopt", "--ref", ref, "--snr-db", snr, "--rank", rank,
                     "--outer-iters", str(sizes["outer_iters"]),
                     "--samples", str(sizes["joint_samples"]), "--seed", s]}
                for ref, snr, rank in JOINT_CASES]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
