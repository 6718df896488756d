"""Command-line front end.

Subcommands: rate, sweep, scaling, lowsnr, solve-w, jointopt.  stdout
carries only the machine-readable payload (JSON); diagnostics go to stderr.
Exit codes: 0 success, 2 configuration error, 3 solver/evaluation failure.

Each subcommand takes only the flags and config fields it honours; any other
exits 2.  Flags override config-file values; the seed resolution order is
``--seed`` > config ``mc.seed`` > ``FDPC_SEED`` > 0.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import covopt, lab
from .config import build_experiment, load_config
from .errors import ConfigurationError, FdpcError, SolverError
from .inflation import CLOSED_FORMS, CORE_SOLVERS, SOLVERS, solve_w
from .model import NoCsit, build_sample_bank, csit_from_label, sample_cells
from .rate import CellCore, estimate

EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _log(msg):
    print(msg, file=sys.stderr)


def _emit(payload, out_path=None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _resolve_seed(args, raw):
    if getattr(args, "seed", None) is not None:
        return args.seed
    mc = raw.get("mc", {})
    if "seed" in mc:
        return mc["seed"]
    env = os.environ.get("FDPC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigurationError(f"FDPC_SEED must be an integer, got {env!r}")
    return 0


# Config fields a subcommand may list as ``unread``: it then takes no flag for
# one and rejects a config file that sets it.
UNREAD_FIELDS = {
    "snr_db": lambda raw: "snr_db" in raw,
    "mc.n_outer": lambda raw: "n_outer" in raw.get("mc", {}),
    "csit": lambda raw: raw.get("csit", {"variant": "none"})["variant"] != "none",
}


def _load_experiment(args):
    if not (args.config or args.ref):
        raise ConfigurationError("provide a config file or --ref NAME")
    raw = load_config(args.config) if args.config else {}
    unread = [name for name in args.unread if UNREAD_FIELDS[name](raw)]
    if unread:
        raise ConfigurationError(f"{args.command} cannot honour config {', '.join(unread)}")
    if args.ref:
        raw["ref"] = args.ref
    seed = _resolve_seed(args, raw)
    overrides = {
        "snr_db": getattr(args, "snr_db", None),
        "q_over_p": getattr(args, "q_over_p", None),
        "n_inner": getattr(args, "samples", None),
        "n_outer": getattr(args, "n_outer", None),
        "seed": seed,
    }
    exp = build_experiment(raw, overrides)
    return exp


def _cells_for(exp, sample=sample_cells):
    """The experiment's bank as ``sample`` gives it: cells drawn when read, or a held bank.

    ``sample`` is :func:`fdpclab.model.sample_cells` or ``build_sample_bank``,
    called after the check of ``n_outer``.
    """
    # only a flag or config value is in raw, not DEFAULT_MC; 1 is honoured
    n_outer = exp.raw.get("mc", {}).get("n_outer", 1)
    if isinstance(exp.csit, NoCsit) and n_outer != 1:
        raise ConfigurationError(f"n_outer {n_outer} needs perfect or quantized CSIT;"
                                 " a no-CSIT bank is one cell of n_inner draws")
    return sample(exp.base_spec, exp.model, exp.csit,
                  exp.mc["n_outer"], exp.mc["n_inner"], exp.mc["seed"])


def cmd_rate(args):
    exp = _load_experiment(args)
    spec = exp.spec_at()
    cells = _cells_for(exp)
    # one pass, one cell at a time: the solve, the rate and the bound share each cell's core
    ((outcome,), bound_basis), = lab.evaluate_group((spec,), cells, (args.solver,),
                                                     bound=True)
    est, bound = estimate(*outcome), estimate(bound_basis)
    payload = {
        "rate_bits": est.rate_bits,
        "stderr_bits": est.stderr_bits,
        "bound_bits": bound.rate_bits,
        "solver": args.solver,
        "converged": est.converged,
        "iterations": est.iterations,
        "snr_db": exp.snr_db,
        "n_outer": len(cells),
        "n_inner": cells.n_inner,
        "seed": exp.mc["seed"],
        "config_hash": exp.hash,
    }
    _emit(payload, args.out)


def _parse_snr_list(text):
    try:
        return tuple(float(s) for s in text.split(","))
    except ValueError:
        raise ConfigurationError(
            f"--snr-db-list must be comma-separated numbers, got {text!r}") from None


def cmd_sweep(args):
    exp = _load_experiment(args)
    snrs = _parse_snr_list(args.snr_db_list)
    solvers = tuple(s.strip() for s in args.solvers.split(","))
    csits = (tuple(csit_from_label(label.strip(), exp.model) for label in args.csit.split(","))
             if args.csit else (exp.csit,))
    rows = lab.run_sweep(exp.base_spec, exp.model, exp.mc["seed"], snr_db_list=snrs,
                         q_over_p=exp.q_over_p, solvers=solvers, csit_list=csits,
                         include_bound=not args.no_bound, n_outer=exp.mc["n_outer"],
                         n_inner=exp.mc["n_inner"], threads=args.threads)
    for row in rows:
        if row.error:
            _log(f"cell (snr={row.snr_db}, csit={row.csit}, solver={row.solver}) "
                 f"failed: {row.error}")
    lab.write_sweep_csv(rows, args.out)
    _emit({"out": args.out, "rows": len(rows),
           "errors": sum(1 for r in rows if r.error),
           "seed": exp.mc["seed"], "config_hash": exp.hash})


def cmd_scaling(args):
    exp = _load_experiment(args)
    slope, stderr = lab.estimate_scaling(exp.base_spec, exp.model, args.w,
                                         (args.snr_lo, args.snr_hi), exp.mc["seed"],
                                         q_over_p=exp.q_over_p, n_inner=exp.mc["n_inner"])
    predicted = lab.predicted_scaling(exp.spec_at(args.snr_lo))
    _emit({"measured_slope": slope, "stderr_slope": stderr, "predicted_slope": predicted,
           "w": args.w, "snr_window_db": [args.snr_lo, args.snr_hi],
           "seed": exp.mc["seed"], "config_hash": exp.hash}, args.out)


def cmd_lowsnr(args):
    exp = _load_experiment(args)
    snrs = _parse_snr_list(args.snr_db_list)
    rows = lab.low_snr_ratio(exp.base_spec, exp.model, snrs, exp.mc["seed"],
                             q_over_p=exp.q_over_p, n_inner=exp.mc["n_inner"])
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(lab.format_lowsnr_csv(rows))
    _emit({"out": args.out, "rows": len(rows), "seed": exp.mc["seed"],
           "config_hash": exp.hash})


def cmd_solve_w(args):
    exp = _load_experiment(args)
    spec = exp.spec_at()
    cells = _cells_for(exp)
    if len(cells) != 1:
        raise ConfigurationError("solve-w expects a single-cell bank")
    cell = cells[0]
    res = solve_w(CellCore(spec, cell.draws), args.solver, cell)
    if not res.converged:
        _log(f"solver {args.solver} did not converge "
             f"(best objective {res.objective_trace[-1]:.6g})")
    _emit({
        "solver": args.solver,
        "W": _matrix_payload(res.W),
        "objective_trace": list(res.objective_trace),
        "converged": res.converged,
        "iterations": res.iterations,
        "seed": exp.mc["seed"],
        "config_hash": exp.hash,
    }, args.out)


def _matrix_payload(mat):
    mat = np.asarray(mat)
    if np.iscomplexobj(mat):
        return {"re": mat.real.tolist(), "im": mat.imag.tolist()}
    return mat.tolist()


def cmd_jointopt(args):
    exp = _load_experiment(args)
    spec = exp.spec_at()
    # a no-CSIT bank, held: every outer step reads its one cell, which sample_cells would redraw
    bank = _cells_for(exp, build_sample_bank)
    res = covopt.joint_optimize(spec, bank,
                                rank_bound=spec.dims.m if args.rank is None else args.rank,
                                outer_iters=args.outer_iters, solver=args.solver)
    _emit({
        "rate_bits": res.rate_bits,
        "stderr_bits": res.stderr_bits,
        "eig_ratio": res.eig_ratio,
        "rank_used": res.rank_used,
        "rate_trace": list(res.rate_trace),
        "converged": res.converged,
        "T": _matrix_payload(res.T),
        "W": _matrix_payload(res.W),
        "seed": exp.mc["seed"],
        "config_hash": exp.hash,
    }, args.out)


def _add_common(p, solvers=(), unread=()):
    """Flags shared by the subcommands, less those of the ``unread`` fields."""
    p.add_argument("config", nargs="?", default=None,
                   help="JSON configuration file")
    p.add_argument("--ref", help="start from a named reference channel")
    if "snr_db" not in unread:
        p.add_argument("--snr-db", type=float, dest="snr_db")
    p.add_argument("--q-over-p", type=float, dest="q_over_p")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int, help="override mc.n_inner")
    if "mc.n_outer" not in unread:
        p.add_argument("--n-outer", type=int, dest="n_outer", help="override mc.n_outer")
    p.add_argument("--out", help="write the payload/file here instead of stdout")
    if solvers:
        p.add_argument("--solver", choices=solvers, default="alg1")
    p.set_defaults(unread=unread)


def _sweep_args(p):
    # sweep writes its CSV to --out (required)
    p.add_argument("--snr-db-list", required=True, help="comma-separated SNRs in dB")
    p.add_argument("--solvers", default="alg1")
    p.add_argument("--csit", help="comma list of none, perfect, B=1, B=2, ...")
    p.add_argument("--no-bound", action="store_true")
    p.add_argument("--threads", type=int, default=1,
                   help="evaluate the CSIT settings in parallel on this many threads")


def _scaling_args(p):
    p.add_argument("--w", default="pinv", choices=tuple(CLOSED_FORMS))
    p.add_argument("--snr-lo", type=float, default=40.0)
    p.add_argument("--snr-hi", type=float, default=60.0)


def _lowsnr_args(p):
    p.add_argument("--snr-db-list", default="0,-5,-10,-15,-20,-25,-30")


def _jointopt_args(p):
    p.add_argument("--rank", type=int, help="rank bound for the input covariance")
    p.add_argument("--outer-iters", type=int, default=30)


_ONE_CELL = ("mc.n_outer", "csit")  # scaling, lowsnr, jointopt build one no-CSIT cell

# Subcommand: (help, function, keywords of _add_common, adder of its own flags).
SUBCOMMANDS = {
    "rate": ("single rate evaluation", cmd_rate, {"solvers": SOLVERS}, None),
    "sweep": ("rate-vs-SNR sweep to CSV", cmd_sweep, {"unread": ("snr_db",)}, _sweep_args),
    "scaling": ("high-SNR slope estimate", cmd_scaling,
                {"unread": ("snr_db", *_ONE_CELL)}, _scaling_args),
    "lowsnr": ("zero-inflation to bound ratio curve", cmd_lowsnr,
               {"unread": ("snr_db", *_ONE_CELL)}, _lowsnr_args),
    "solve-w": ("solve the inflation factor on one bank", cmd_solve_w,
                {"solvers": SOLVERS}, None),
    # jointopt's bank is no-CSIT, so "perfect" can never resolve there
    "jointopt": ("joint covariance/inflation optimization", cmd_jointopt,
                 {"solvers": CORE_SOLVERS, "unread": _ONE_CELL}, _jointopt_args),
}


def _subcommand_parser(name, sub=None):
    """The parser of subcommand ``name`` with its flags: a subparser of ``sub``, or alone.

    Alone, its ``prog`` is the one :func:`build_parser` gives it,
    ``fdpclab <name>``, so its help and errors read the same.
    """
    help, func, common, own_args = SUBCOMMANDS[name]
    # no abbreviations, so that --snr-db is not taken for --snr-db-list
    if sub is None:
        p = argparse.ArgumentParser(prog=f"fdpclab {name}", allow_abbrev=False)
    else:
        p = sub.add_parser(name, help=help, allow_abbrev=False)
    _add_common(p, **common)
    if own_args:
        own_args(p)
    p.set_defaults(command=name, func=func)
    return p


def build_parser():
    """The CLI parser, with every subcommand listed and its help."""
    parser = argparse.ArgumentParser(
        prog="fdpclab",
        description="Achievable-rate laboratory for dirty paper coding over fading channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        _subcommand_parser(name, sub)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        # that subcommand's parser alone: 0.2 ms a call, against 0.6 ms for all seven
        args = _subcommand_parser(argv[0]).parse_args(argv[1:])
    else:  # --help, no subcommand or an unknown one
        args = build_parser().parse_args(argv)
    if args.command in ("sweep", "lowsnr") and not args.out:
        _log(f"{args.command} requires --out PATH for the CSV")
        return EXIT_CONFIG
    try:
        args.func(args)
    except ConfigurationError as exc:
        _log(f"configuration error: {exc}")
        return EXIT_CONFIG
    except SolverError as exc:
        _log(f"solver error: {exc}")
        return EXIT_SOLVER
    except FdpcError as exc:
        _log(f"error: {exc}")
        return EXIT_SOLVER
    return 0


if __name__ == "__main__":
    sys.exit(main())
