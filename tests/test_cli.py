import argparse
import functools
import json
import os
import subprocess
import sys
import weakref

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdpclab import lab, model
from fdpclab.cli import SUBCOMMANDS, build_parser, main
from fdpclab.config import (CONFIG_SCHEMA, _proven, build_experiment, config_hash,
                            validate_config)
from fdpclab.errors import ConfigurationError
from fdpclab.inflation import w_perfect_csit
from fdpclab.model import build_sample_bank, csit_from_label
from fdpclab.rate import estimate


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


BASE_CFG = {
    "t": 2, "r": 2, "m": 1, "snr_db": 5.0, "q_over_p": 0.0, "n": 2.0,
    "field": "real", "fading": {"variant": "iid_real"},
    "csit": {"variant": "none"}, "sigma_s": {"kind": "zero"},
    "mc": {"n_outer": 1, "n_inner": 500, "seed": 9},
}


def run_cli(args):
    """Run in-process, capturing stdout; returns (exit_code, stdout)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def test_schema_rejects_unknown_fields():
    with pytest.raises(ConfigurationError):
        validate_config({"t": 2, "bogus_field": 1})


def test_schema_rejects_bad_types():
    with pytest.raises(ConfigurationError):
        validate_config({"t": "two"})
    with pytest.raises(ConfigurationError):
        validate_config({"csit": {"variant": "quantized", "bits": 9}})


def test_config_schema_is_valid():
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


EYE2 = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("section, fields, named", [
    ("fading", {"variant": "iid_real", "rho_rx": 0.5}, "fading.rho_rx"),
    ("fading", {"variant": "iid_real", "r_tx": EYE2}, "fading.r_tx"),
    ("fading", {"variant": "correlated_rayleigh", "r_rx": EYE2, "rho_rx": 0.5},
     "fading.rho_rx"),
    ("csit", {"variant": "perfect", "bits": 2}, "csit.bits"),
    ("csit", {"variant": "none", "step": 0.5}, "csit.step"),
    ("sigma_s", {"kind": "scaled_identity", "rank": 1}, "sigma_s.rank"),
    ("sigma_s", {"kind": "matrix", "matrix": EYE2, "seed": 1}, "sigma_s.seed"),
    ("sigma_s", {"kind": "random_rank", "rank": 1, "seed": 1, "matrix": EYE2},
     "sigma_s.matrix"),
    ("sigma_x", {"kind": "scaled_identity", "matrix": [[1.0], [0.0]]}, "sigma_x.matrix"),
    ("sigma_s", {"kind": "matrix"}, "'matrix' is a required property"),
    ("sigma_x", {"kind": "factor"}, "'matrix' is a required property"),
], ids=["fading-rho-iid", "fading-matrix-iid", "fading-matrix-and-rho", "csit-bits-perfect",
        "csit-step-none", "sigma_s-rank-identity", "sigma_s-seed-matrix",
        "sigma_s-matrix-random", "sigma_x-matrix-identity", "sigma_s-matrix-missing",
        "sigma_x-matrix-missing"])
def test_config_field_the_variant_does_not_read_exits_2(tmp_path, capsys, section, fields,
                                                       named):
    """A field its variant or kind ignores, or a matrix its kind needs, is a config error."""
    raw = dict(BASE_CFG, q_over_p=1.0, sigma_s={"kind": "scaled_identity"})
    raw[section] = fields
    if fields.get("variant") == "correlated_rayleigh":
        raw["field"] = "complex"
    code, out = run_cli(["rate", write_config(tmp_path, raw), "--solver", "zero"])
    assert code == 2 and out == ""
    assert named in capsys.readouterr().err


def test_validate_config_reports_the_error_jsonschema_picks():
    """The message names the rejected field by its JSON path."""
    for raw in ({"t": "two"}, {"csit": {"variant": "quantized", "bits": 9}},
                {"t": 0, "r": "x", "bogus": 1}, [1, 2], {"mc": {"seed": -2}},
                {"sigma_s": {"kind": "random_rank", "rank": 1, "seed": -2}},
                {"mc": {"n_inner": 0}}, {"mc": {"n_outer": 0}}, {"q_over_p": -1.0},
                {"ref": 3}, {"snr_db": "x"}, {"mc": {"seed": True}}):
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(raw, CONFIG_SCHEMA)
        with pytest.raises(ConfigurationError) as got:
            validate_config(raw)
        assert str(got.value) == (f"invalid configuration: {want.value.json_path}: "
                                  f"{want.value.message}")
    for raw, path in (({"mc": {"seed": -2}}, "$.mc.seed"),
                      ({"sigma_s": {"kind": "random_rank", "rank": 1, "seed": -2}},
                       "$.sigma_s.seed")):
        with pytest.raises(ConfigurationError) as got:
            validate_config(raw)
        assert str(got.value) == f"invalid configuration: {path}: -2 is less than the minimum of 0"


_EXPLICIT_CFG = {"t": 2, "r": 2, "m": 1, "q_over_p": 1.0, "field": "real",
                 "fading": {"variant": "iid_real"}}
_QUANTIZED_CFG = {"ref": "fdpc-2x2-a", "csit": {"variant": "quantized", "bits": 2},
                  "mc": {"n_outer": 2}}
_RANDOM_RANK_CFG = {**_EXPLICIT_CFG, "sigma_s": {"kind": "random_rank", "rank": 1, "seed": 1}}

# A valid config and the path of one of its integer fields, for each integer field.
_INTEGER_CASES = [
    (_EXPLICIT_CFG, ("t",)), (_EXPLICIT_CFG, ("r",)), (_EXPLICIT_CFG, ("m",)),
    (_QUANTIZED_CFG, ("csit", "bits")), (_QUANTIZED_CFG, ("mc", "n_outer")),
    (_RANDOM_RANK_CFG, ("sigma_s", "rank")), (_RANDOM_RANK_CFG, ("sigma_s", "seed")),
    ({"ref": "fdpc-2x2-a", "mc": {"n_inner": 5}}, ("mc", "n_inner")),
    ({"ref": "fdpc-2x2-a", "mc": {"seed": 3}}, ("mc", "seed"))]


def _integer_fields(schema, path=()):
    """The path of every ``integer`` field of ``schema``."""
    if schema.get("type") == "integer":
        yield path
    for key, sub in schema.get("properties", {}).items():
        yield from _integer_fields(sub, (*path, key))


def test_the_integer_cases_cover_every_integer_field():
    assert sorted(path for _, path in _INTEGER_CASES) == sorted(_integer_fields(CONFIG_SCHEMA))


@pytest.mark.parametrize("raw,path", _INTEGER_CASES,
                         ids=[".".join(path) for _, path in _INTEGER_CASES])
def test_an_integral_float_in_an_integer_field_exits_2(tmp_path, capsys, raw, path):
    """JSON Schema's ``integer`` takes ``2.0``; the config's does not, and names the field.

    The same config with the int runs, so the float is what is rejected.
    """
    raw = json.loads(json.dumps(raw))
    *outer, key = path
    section = functools.reduce(dict.__getitem__, outer, raw)

    def rate():
        return run_cli(["rate", write_config(tmp_path, raw), "--solver", "zero",
                        "--samples", "10"])

    assert rate()[0] == 0
    section[key] = float(section[key])
    capsys.readouterr()
    assert rate() == (2, "")
    assert capsys.readouterr().err == (
        f"configuration error: invalid configuration: $.{'.'.join(path)}: "
        f"{section[key]!r} is not of type 'integer'\n")


# Values a flag-shaped config may carry, edge cases first: bools where numbers
# are asked for, 3.0 for an integer, NaN, infinities, zero and negatives,
# strings, None, lists and nested sections.
_EDGE_VALUES = st.one_of(
    st.booleans(), st.integers(-2, 3),
    st.sampled_from([3.0, 0.0, -0.0, -1.0, 0.5, float("nan"), float("inf"), float("-inf")]),
    st.floats(), st.text(max_size=2), st.none(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.sampled_from(["n_inner", "variant", "mc"]), st.integers(-1, 2),
                    max_size=2))
_MC_SECTIONS = st.fixed_dictionaries({}, optional={
    "n_inner": _EDGE_VALUES, "n_outer": _EDGE_VALUES, "seed": _EDGE_VALUES,
    "bogus": _EDGE_VALUES})
_FLAG_SHAPED = st.fixed_dictionaries({}, optional={
    "ref": st.one_of(st.just("fdpc-2x2-a"), _EDGE_VALUES), "snr_db": _EDGE_VALUES,
    "q_over_p": _EDGE_VALUES, "n": _EDGE_VALUES, "t": _EDGE_VALUES,
    "csit": st.one_of(st.just({"variant": "none"}), _EDGE_VALUES),
    "mc": st.one_of(_MC_SECTIONS, _EDGE_VALUES), "bogus": _EDGE_VALUES})
_JSONSCHEMA = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


@given(raw=st.one_of(_FLAG_SHAPED, _EDGE_VALUES))
@settings(max_examples=300, deadline=None)
def test_the_jsonschema_free_check_accepts_only_what_jsonschema_accepts(raw):
    """A config ``validate_config`` accepts without jsonschema is one jsonschema accepts."""
    if _proven(raw, CONFIG_SCHEMA):
        assert _JSONSCHEMA.is_valid(raw)


def test_build_experiment_requires_core_fields():
    with pytest.raises(ConfigurationError):
        build_experiment({"t": 2, "r": 2})


def test_build_experiment_field_fading_consistency():
    cfg = dict(BASE_CFG)
    cfg["fading"] = {"variant": "iid_complex"}
    with pytest.raises(ConfigurationError):
        build_experiment(cfg)


def test_build_experiment_ref_with_overrides():
    exp = build_experiment({"ref": "fdpc-2x2-a", "snr_db": 10.0,
                            "mc": {"n_inner": 100, "seed": 4}})
    assert exp.snr_db == 10.0
    assert exp.mc["seed"] == 4
    spec = exp.spec_at()
    assert spec.P == pytest.approx(spec.N * 10.0)


def test_config_hash_is_stable_and_sensitive():
    a = config_hash({"t": 2, "r": 1})
    b = config_hash({"r": 1, "t": 2})
    assert a == b  # key order canonicalized
    assert config_hash({"t": 3, "r": 1}) != a


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_rate_q0_rate_equals_bound(tmp_path):
    cfg = write_config(tmp_path, BASE_CFG)
    code, out = run_cli(["rate", cfg, "--solver", "zero"])
    assert code == 0
    payload = json.loads(out)
    assert f"{payload['rate_bits']:.6g}" == f"{payload['bound_bits']:.6g}"
    assert payload["seed"] == 9
    assert "config_hash" in payload


def test_rate_invalid_json_exits_2_silently(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out = run_cli(["rate", str(bad), "--solver", "zero"])
    assert code == 2
    assert out == ""


def test_rate_unknown_ref_exits_2():
    code, out = run_cli(["rate", "--ref", "fdpc-missing", "--solver", "zero"])
    assert code == 2 and out == ""


def test_ref_with_channel_fields_exits_2(tmp_path):
    path = write_config(tmp_path, {"ref": "fdpc-2x2-a", "t": 5})
    code, out = run_cli(["rate", path, "--solver", "zero", "--samples", "10"])
    assert code == 2 and out == ""
    for key in ("t", "r", "m", "field", "n", "fading", "sigma_s", "sigma_x"):
        value = BASE_CFG.get(key, {"kind": "scaled_identity"})
        with pytest.raises(ConfigurationError, match=f"fixes {key};"):
            build_experiment({"ref": "fdpc-2x2-a", key: value})


def test_lowsnr_ratio_above_09_at_minus30(tmp_path):
    out_csv = tmp_path / "lowsnr.csv"
    code, out = run_cli(["lowsnr", "--ref", "fdpc-lowsnr", "--seed", "3",
                         "--samples", "4000", "--snr-db-list", "-30",
                         "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "snr_db,ratio,stderr_ratio"
    ratio = float(lines[1].split(",")[1])
    assert ratio > 0.9


def test_scaling_predicts_theorem_value(tmp_path):
    code, out = run_cli(["scaling", "--ref", "fdpc-3x2-b", "--seed", "11",
                         "--samples", "8000"])
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted_slope"] == 2
    assert abs(payload["measured_slope"] - 2) <= 0.15


def test_sweep_writes_deterministic_csv(tmp_path):
    cfg = write_config(tmp_path, {"ref": "fdpc-2x2-a",
                                  "mc": {"n_outer": 4, "n_inner": 300, "seed": 2}})
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", cfg, "--snr-db-list", "0,10", "--solvers", "zero,pinv",
            "--csit", "none"]
    code1, _ = run_cli(args + ["--out", str(out1)])
    code2, _ = run_cli(args + ["--out", str(out2)])
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text(encoding="utf-8").splitlines()[0]
    assert header == "snr_db,csit,solver,rate_bits,stderr_bits,bound_bits,n_outer,n_inner,seed"


def test_sweep_repeated_solver_keeps_a_row_each(tmp_path):
    out = tmp_path / "twice.csv"
    code, payload = run_cli(["sweep", "--ref", "fdpc-2x2-a", "--snr-db-list", "0,10",
                             "--solvers", "zero,zero", "--samples", "50", "--out", str(out)])
    assert code == 0 and json.loads(payload)["rows"] == 4
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [line.split(",")[:3] for line in lines] == [
        ["0", "none", "zero"], ["0", "none", "zero"], ["10", "none", "zero"],
        ["10", "none", "zero"]]
    assert lines[0] == lines[1] and lines[2] == lines[3]


def test_scaling_reports_the_paired_stderr_of_the_slope():
    code, out = run_cli(["scaling", "--ref", "fdpc-3x2-b", "--samples", "2000", "--seed", "1"])
    assert code == 0
    payload = json.loads(out)
    assert 0 < payload["stderr_slope"] < 0.01  # about 1e-3; unpaired it would be about 0.017


def test_sweep_requires_out(tmp_path):
    cfg = write_config(tmp_path, {"ref": "fdpc-2x2-a"})
    code, _ = run_cli(["sweep", cfg, "--snr-db-list", "0"])
    assert code == 2


def test_sweep_partial_failure_exits_zero(tmp_path):
    cfg = write_config(tmp_path, {"ref": "fdpc-2x2-a",
                                  "mc": {"n_outer": 2, "n_inner": 200, "seed": 1}})
    out = tmp_path / "partial.csv"
    # 'perfect' is invalid on a no-CSIT bank: those cells become error rows
    code, payload = run_cli(["sweep", cfg, "--snr-db-list", "0",
                             "--solvers", "zero,perfect", "--csit", "none",
                             "--out", str(out)])
    assert code == 0
    assert json.loads(payload)["errors"] == 1
    assert "nan" in out.read_text(encoding="utf-8")


def test_sweep_malformed_csit_label_exits_2(tmp_path):
    code, out = run_cli(["sweep", "--ref", "fdpc-2x2-a", "--snr-db-list", "0",
                         "--csit", "B=x", "--samples", "10",
                         "--out", str(tmp_path / "x.csv")])
    assert code == 2 and out == ""


def test_sweep_empty_csit_list_exits_2(tmp_path, capsys):
    """``--csit ""`` is one empty label, as ``--solvers ""`` is, not the config's CSIT."""
    code, out = run_cli(["sweep", "--ref", "fdpc-2x2-a", "--snr-db-list", "0", "--csit", "",
                         "--samples", "10", "--out", str(tmp_path / "x.csv")])
    assert code == 2 and out == ""
    assert "unknown CSIT label ''" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# A cheap call of each subcommand, less its --out.
_OUT_CALLS = {
    "rate": ["--ref", "fdpc-2x2-a", "--solver", "zero", "--samples", "10"],
    "sweep": ["--ref", "fdpc-2x2-a", "--snr-db-list", "0", "--solvers", "zero",
              "--samples", "10"],
    "scaling": ["--ref", "fdpc-3x2-b", "--samples", "10"],
    "lowsnr": ["--ref", "fdpc-lowsnr", "--snr-db-list", "0", "--samples", "10"],
    "solve-w": ["--ref", "fdpc-2x2-a", "--solver", "zero", "--samples", "10"],
    "jointopt": ["--ref", "fdpc-2x2-a", "--outer-iters", "1", "--samples", "10"],
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_an_unwritable_out_exits_2_with_one_line_naming_it(tmp_path, capsys, command):
    """A missing directory or a directory as ``--out``: exit 2, empty stdout, no traceback."""
    assert set(_OUT_CALLS) == set(SUBCOMMANDS)
    for out, why in ((tmp_path / "missing" / "x.out", "No such file or directory"),
                     (tmp_path, "Is a directory")):
        assert run_cli([command, *_OUT_CALLS[command], "--out", str(out)]) == (2, "")
        assert capsys.readouterr().err == (
            f"configuration error: cannot write --out {out}: {why}\n")


def test_an_out_in_a_missing_directory_exits_2_before_a_cell_is_drawn(tmp_path, capsys,
                                                                     monkeypatch):
    def drawn(self, i):
        raise AssertionError("a cell was drawn")

    monkeypatch.setattr(model._Cells, "__getitem__", drawn)
    out = tmp_path / "missing" / "s.csv"
    assert run_cli(["sweep", "--ref", "fdpc-2x2-a", "--snr-db-list", "0,10,20",
                    "--csit", "B=2", "--n-outer", "50", "--samples", "5000",
                    "--out", str(out)]) == (2, "")
    assert capsys.readouterr().err == (
        f"configuration error: cannot write --out {out}: No such file or directory\n")


@pytest.mark.parametrize("command", ["sweep", "lowsnr"])
def test_malformed_snr_list_exits_2(tmp_path, command):
    code, out = run_cli([command, "--ref", "fdpc-2x2-a", "--snr-db-list", "0,abc",
                         "--samples", "10", "--out", str(tmp_path / "x.csv")])
    assert code == 2 and out == ""


def test_sweep_unknown_solver_exits_2(tmp_path):
    out_csv = tmp_path / "x.csv"
    code, out = run_cli(["sweep", "--ref", "fdpc-2x2-a", "--snr-db-list", "0",
                         "--solvers", "alg1,bogus", "--samples", "10",
                         "--out", str(out_csv)])
    assert code == 2 and out == ""
    assert not out_csv.exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_sweep_threads_below_one_exits_2(tmp_path, threads):
    out_csv = tmp_path / "x.csv"
    code, out = run_cli(["sweep", "--ref", "fdpc-2x2-a", "--snr-db-list", "0",
                         "--threads", threads, "--samples", "10", "--out", str(out_csv)])
    assert code == 2 and out == ""
    assert not out_csv.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--snr-db-list", "nan,10"],
    ["sweep", "--snr-db-list", "0,inf"],
    ["sweep", "--snr-db-list", "0", "--q-over-p", "inf"],
    ["sweep", "--snr-db-list", "0", "--q-over-p", "nan"],
    ["lowsnr", "--snr-db-list", "inf"],
    ["lowsnr", "--snr-db-list", "0,nan"],
    ["rate", "--snr-db", "nan"],
    ["rate", "--snr-db", "inf"],
    ["rate", "--snr-db", "4000"],
    ["rate", "--q-over-p", "inf"],
    ["rate", "--q-over-p", "nan"],
    # -inf dB gives P = 0, and -4000 dB underflows to it
    ["rate", "--snr-db=-inf", "--solver", "zero"],
    ["rate", "--snr-db=-4000", "--solver", "zero"],
    ["jointopt", "--snr-db=-inf"],
    ["lowsnr", "--snr-db-list=-inf"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_snr_or_power_exits_2(tmp_path, capsys, argv):
    out_csv = tmp_path / "x.csv"
    code, out = run_cli([*argv, "--ref", "fdpc-2x2-a", "--samples", "10",
                         "--out", str(out_csv)])
    assert code == 2 and out == ""
    assert not out_csv.exists()
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_lowsnr_where_the_bound_rounds_to_0_bits_exits_3(tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    code, out = run_cli(["lowsnr", "--ref", "fdpc-lowsnr", "--snr-db-list=-170",
                         "--samples", "10", "--out", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 3 and out == "" and not out_csv.exists()
    assert err.startswith("error: at -170 dB") and err.count("\n") == 1


def test_rate_with_singular_received_covariance_exits_3(capsys):
    """At 300 dB the perfect-CSIT starting point meets a singular covariance."""
    code, out = run_cli(["rate", "--ref", "fdpc-2x2-a", "--snr-db", "300"])
    err = capsys.readouterr().err
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_rate_alg2_converges_at_20db():
    """The plain fixed-point iteration ran into its 200-step cap here."""
    code, out = run_cli(["rate", "--ref", "fdpc-fig4-2", "--snr-db", "20",
                         "--solver", "alg2", "--samples", "1000", "--seed", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["iterations"] < 200


def test_jointopt_rank_zero_exits_2():
    code, out = run_cli(["jointopt", "--ref", "fdpc-cov-3x3", "--rank", "0",
                         "--samples", "10"])
    assert code == 2 and out == ""


def test_jointopt_outer_iters_zero_exits_2(capsys):
    code, out = run_cli(["jointopt", "--ref", "fdpc-cov-3x3", "--outer-iters", "0",
                         "--samples", "10"])
    assert code == 2 and out == ""
    assert "outer_iters must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in SUBCOMMANDS)],
                         ids=["top", *SUBCOMMANDS])
def test_help_is_the_full_parsers(capsys, argv):
    """``main`` gives flags only to the subcommand it parses; every help text is unchanged."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    full = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out == full != ""


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_a_subcommand_call_builds_one_parser(name, monkeypatch, capsys):
    """A known subcommand is parsed by its own parser alone; the full one only for ``--help``."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0 and built == [f"fdpclab {name}"]
    built.clear()
    with pytest.raises(SystemExit) as exc:  # a flag it does not take
        main([name, "--bogus"])
    assert exc.value.code == 2 and built == [f"fdpclab {name}"]
    assert f"\nfdpclab {name}: error: " in capsys.readouterr().err
    built.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert len(built) == 1 + len(SUBCOMMANDS)


def test_threads_is_a_sweep_only_flag(tmp_path, capsys):
    """Flags a subcommand cannot honour are rejected, not ignored."""
    required = {"sweep": ("--snr-db-list", "0", "--out", str(tmp_path / "x.csv"))}
    for command, flag in (("rate", "--threads"), ("sweep", "--snr-db"),
                          ("scaling", "--snr-db"), ("lowsnr", "--snr-db"),
                          ("scaling", "--n-outer"), ("lowsnr", "--n-outer"),
                          ("jointopt", "--n-outer")):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--ref", "fdpc-fig4-1", *required.get(command, ()),
                     flag, "2"])
        assert exc.value.code == 2, (command, flag)
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


JOINT_CFG = {
    "t": 2, "r": 2, "m": 2, "snr_db": 5.0, "q_over_p": 1.0, "n": 2.0,
    "field": "complex", "fading": {"variant": "iid_complex"},
    "csit": {"variant": "none"},
    "sigma_s": {"kind": "random_rank", "rank": 2, "seed": 5},
    "mc": {"n_inner": 1000, "seed": 3},
}


@pytest.mark.parametrize("command, field", [
    ("sweep", {"snr_db": 30.0}),
    ("scaling", {"snr_db": 30.0}),
    ("lowsnr", {"snr_db": 30.0}),
    ("scaling", {"mc": {"n_outer": 7}}),
    ("lowsnr", {"mc": {"n_outer": 7}}),
    ("jointopt", {"mc": {"n_outer": 7}}),
    ("scaling", {"csit": {"variant": "perfect"}}),
    ("lowsnr", {"csit": {"variant": "quantized", "bits": 2}}),
    ("jointopt", {"csit": {"variant": "quantized", "bits": 2}}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_config_field_a_subcommand_cannot_honour_exits_2(tmp_path, command, field):
    """Config fields are rejected like the flags the subcommand leaves out."""
    cfg = {k: v for k, v in JOINT_CFG.items() if k != "snr_db"}
    cfg = write_config(tmp_path, {**cfg, **field})
    extra = {"sweep": ["--snr-db-list", "0"], "jointopt": ["--outer-iters", "2"]}
    code, out = run_cli([command, cfg, *extra.get(command, []), "--samples", "20",
                         "--out", str(tmp_path / "x.csv")])
    assert code == 2 and out == ""


@pytest.mark.parametrize("command", ["rate", "solve-w"])
def test_n_outer_flag_on_a_no_csit_bank_exits_2(tmp_path, command):
    """A no-CSIT bank is one cell: ``--n-outer`` other than 1 is rejected, not ignored."""
    args = [command, "--ref", "fdpc-2x2-a", "--samples", "10", "--solver", "zero"]
    code, out = run_cli([*args, "--n-outer", "7"])
    assert code == 2 and out == ""
    code, out = run_cli([*args, "--n-outer", "1"])
    assert code == 0
    if command == "rate":  # with CSIT the flag is honoured
        perfect = write_config(tmp_path, {"ref": "fdpc-2x2-a", "csit": {"variant": "perfect"}})
        code, out = run_cli(["rate", perfect, "--samples", "1", "--solver", "zero",
                             "--n-outer", "7"])
        assert code == 0 and json.loads(out)["n_outer"] == 7


@pytest.mark.parametrize("command", ["rate", "solve-w"])
def test_n_outer_config_field_on_a_no_csit_bank_exits_2(tmp_path, command):
    """``mc.n_outer`` is rejected like the flag; the default never is."""
    for csit in ({}, {"csit": {"variant": "none"}}):
        cfg = write_config(tmp_path, {**JOINT_CFG, **csit,
                                      "mc": {"n_outer": 7, "n_inner": 20}})
        code, out = run_cli([command, cfg, "--solver", "zero"])
        assert code == 2 and out == ""
    cfg = write_config(tmp_path, {**JOINT_CFG, "mc": {"n_inner": 20}})
    code, out = run_cli([command, cfg, "--solver", "zero"])
    assert code == 0


def test_a_perfect_csit_rate_reports_one_draw_per_cell(tmp_path):
    raw = {"ref": "fdpc-2x2-a", "csit": {"variant": "perfect"}, "mc": {"n_outer": 3}}
    code, out = run_cli(["rate", write_config(tmp_path, raw), "--solver", "zero",
                         "--samples", "50"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["n_outer"], payload["n_inner"]) == (3, 1)


def test_csit_label_flag_and_config_build_the_same_quantizer(tmp_path):
    raw = {"ref": "fdpc-2x2-a", "csit": {"variant": "quantized", "bits": 2}}
    model = build_experiment({"ref": "fdpc-2x2-a"}).model
    assert csit_from_label("B=2", model) == build_experiment(raw).csit
    args = ["sweep", "--snr-db-list", "0", "--solvers", "zero", "--samples", "20",
            "--n-outer", "2", "--seed", "4"]
    assert run_cli([*args, "--ref", "fdpc-2x2-a", "--csit", "B=2",
                    "--out", str(tmp_path / "flag.csv")])[0] == 0
    assert run_cli([*args, write_config(tmp_path, raw), "--out", str(tmp_path / "cfg.csv")])[0] == 0
    assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "cfg.csv").read_bytes()


def test_sweep_applies_n_outer_to_its_csit_cells_only(tmp_path):
    csv = tmp_path / "q.csv"
    code, out = run_cli(["sweep", "--ref", "fdpc-2x2-a", "--snr-db-list", "0",
                         "--csit", "none,B=1", "--solvers", "zero", "--samples", "20",
                         "--n-outer", "3", "--out", str(csv)])
    assert code == 0 and json.loads(out)["errors"] == 0
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert sorted((row[1], row[6]) for row in rows) == [("B=1", "3"), ("none", "1")]


@pytest.mark.parametrize("field", [
    {"sigma_s": {"kind": "matrix", "matrix": [[1, 1e400], [1e400, 1]]}},
    {"fading": {"variant": "correlated_rayleigh", "r_rx": [[1, 1e400], [1e400, 1]]}},
], ids=["sigma_s", "r_rx"])
def test_non_finite_config_matrix_exits_2(tmp_path, capsys, field):
    # JSON reads 1e400 as inf; inf - inf would pass a symmetry check alone
    path = tmp_path / "cfg.json"
    text = json.dumps({**JOINT_CFG, **field}).replace("Infinity", "1e400")
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(["rate", str(path), "--solver", "zero", "--samples", "20"])
    assert code == 2 and out == ""
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("field, named", [
    ({"sigma_s": {"kind": "matrix", "matrix": [[1, 0], [0]]}}, "$.sigma_s.matrix"),
    ({"sigma_s": {"kind": "matrix", "matrix": []}}, "$.sigma_s.matrix"),
    ({"fading": {"variant": "correlated_rayleigh", "r_rx": [[1, 0], [0]]}}, "$.fading.r_rx"),
    ({"sigma_x": {"kind": "factor", "matrix": [[1], []]}}, "$.sigma_x.matrix"),
    ({"fading": {"variant": "correlated_rayleigh", "r_tx": [[1, 0, 0], [0, 1, 0]]}},
     "r_tx must be a square matrix"),
], ids=["sigma_s-ragged", "sigma_s-empty", "r_rx-ragged", "sigma_x-ragged", "r_tx-2x3"])
def test_malformed_config_matrix_exits_2(tmp_path, capsys, field, named):
    """A ragged, empty or non-square matrix is a configuration error naming its field."""
    cfg = write_config(tmp_path, {**JOINT_CFG, **field})
    code, out = run_cli(["rate", cfg, "--solver", "zero", "--samples", "20"])
    assert code == 2 and out == ""
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("sigma_s, named", [
    ({"kind": "matrix", "matrix": [[1, 0], [0]]}, "$.sigma_s.matrix"),
    ({"kind": "random_rank", "rank": 5, "seed": 1}, "configuration error"),
    ({"kind": "matrix", "matrix": [[1, 5], [0, 1]]}, "sigma_s is not Hermitian"),
    ({"kind": "matrix", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
     "sigma_s matrix has shape (3, 3), expected (2, 2)"),
    ({"kind": "matrix", "matrix": [[1, 2], [2, 1]]}, "sigma_s has negative eigenvalue"),
], ids=["matrix-ragged", "random_rank-above-t", "matrix-not-hermitian", "matrix-3x3",
        "matrix-indefinite"])
def test_sigma_s_fields_are_checked_at_q_over_p_0(tmp_path, capsys, sigma_s, named):
    """q_over_p = 0 zeroes the interference but still checks its kind's fields and matrix."""
    cfg = write_config(tmp_path, {"t": 2, "r": 2, "m": 1, "field": "real",
                                  "fading": {"variant": "iid_real"}, "sigma_s": sigma_s})
    code, out = run_cli(["rate", cfg, "--solver", "zero", "--samples", "20"])
    assert code == 2 and out == ""
    assert named in capsys.readouterr().err


def test_solve_w_payload(tmp_path):
    cfg = write_config(tmp_path, dict(BASE_CFG, q_over_p=1.0,
                                      sigma_s={"kind": "scaled_identity"}))
    code, out = run_cli(["solve-w", cfg, "--solver", "alg1"])
    assert code == 0
    payload = json.loads(out)
    w = np.asarray(payload["W"])
    assert w.shape == (1, 2)
    assert payload["converged"] in (True, False)
    assert len(payload["objective_trace"]) >= 1


def test_solve_w_perfect_on_a_perfect_csit_cell(tmp_path, capsys):
    """``perfect`` is the closed form at the cell's known H; it needs a perfect-CSIT bank."""
    raw = {"ref": "fdpc-2x2-a", "csit": {"variant": "perfect"}, "mc": {"n_outer": 1}}
    cfg = write_config(tmp_path, raw)
    code, out = run_cli(["solve-w", cfg, "--solver", "perfect", "--samples", "1",
                         "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    exp = build_experiment(raw, {"n_inner": 1, "seed": 3})
    bank = build_sample_bank(exp.base_spec, exp.model, exp.csit, 1, 1, exp.mc["seed"])
    expected = w_perfect_csit(exp.spec_at(), bank[0].h_hat)
    assert np.array_equal(np.asarray(payload["W"]), expected)
    assert (payload["converged"], payload["iterations"], payload["objective_trace"]) == (
        True, 0, [])
    capsys.readouterr()
    code, out = run_cli(["solve-w", "--ref", "fdpc-2x2-a", "--solver", "perfect",
                         "--samples", "10"])
    assert code == 2 and out == ""
    assert "perfect-CSIT bank" in capsys.readouterr().err


def test_perfect_solver_rejects_a_quantized_csit_bank(tmp_path, capsys):
    """A one-draw quantized cell has an h_hat, but it is the quantized estimate, not H."""
    raw = {"ref": "fdpc-2x2-a", "csit": {"variant": "quantized", "bits": 1},
           "mc": {"n_outer": 3}}
    code, out = run_cli(["rate", write_config(tmp_path, raw), "--solver", "perfect",
                         "--samples", "1"])
    assert code == 2 and out == ""
    assert "perfect-CSIT bank" in capsys.readouterr().err
    raw["mc"]["n_outer"] = 1
    code, out = run_cli(["solve-w", write_config(tmp_path, raw), "--solver", "perfect",
                         "--samples", "1"])
    assert code == 2 and out == ""
    assert "perfect-CSIT bank" in capsys.readouterr().err


def test_rate_holds_one_cell_at_a_time(tmp_path, monkeypatch):
    """``rate`` draws each cell of a 3-cell bank once, and every cell drawn before it is
    freed by then, its draws included: it never holds the bank."""
    draw, drawn = model._Cells.__getitem__, []

    def recording_draw(cells, i):
        assert [ref() for ref in drawn] == [None] * len(drawn)
        cell = draw(cells, i)
        drawn.append(weakref.ref(cell.draws))
        return cell

    monkeypatch.setattr(model._Cells, "__getitem__", recording_draw)
    raw = {"ref": "fdpc-2x2-a", "csit": {"variant": "quantized", "bits": 2},
           "mc": {"n_outer": 3}}
    code, out = run_cli(["rate", write_config(tmp_path, raw), "--solver", "alg1",
                         "--samples", "50"])
    assert code == 0 and json.loads(out)["n_outer"] == 3
    assert len(drawn) == 3


@pytest.mark.parametrize("csit,n_outer", [({"variant": "none"}, 1),
                                          ({"variant": "perfect"}, 3),
                                          ({"variant": "quantized", "bits": 1}, 3)])
def test_rate_payload_is_that_of_the_eager_bank(tmp_path, csit, n_outer):
    """The cells ``rate`` draws one at a time give the payload of the bank built up front."""
    raw = {"ref": "fdpc-2x2-a", "csit": csit, "mc": {"n_outer": n_outer}}
    code, out = run_cli(["rate", write_config(tmp_path, raw), "--solver", "alg1",
                         "--samples", "50", "--seed", "4"])
    assert code == 0
    payload = json.loads(out)
    exp = build_experiment(raw, {"n_inner": 50, "seed": 4})
    bank = build_sample_bank(exp.base_spec, exp.model, exp.csit, n_outer, 50, 4)
    ((outcome,), bound_basis), = lab.evaluate_group((exp.spec_at(),), bank, ("alg1",),
                                                     bound=True)
    est = estimate(*outcome)
    assert payload["n_outer"] == len(bank) and payload["n_inner"] == bank[0].draws.shape[0]
    assert (payload["rate_bits"], payload["stderr_bits"], payload["bound_bits"],
            payload["converged"], payload["iterations"]) == (
        est.rate_bits, est.stderr_bits, estimate(bound_basis).rate_bits, est.converged,
        est.iterations)


def test_solve_w_rejects_a_many_cell_bank_before_drawing_a_cell(tmp_path, monkeypatch, capsys):
    def no_draw(cells, i):
        raise AssertionError(f"cell {i} drawn")

    monkeypatch.setattr(model._Cells, "__getitem__", no_draw)
    raw = {"ref": "fdpc-2x2-a", "csit": {"variant": "quantized", "bits": 1}}
    code, out = run_cli(["solve-w", write_config(tmp_path, raw), "--samples", "20000"])
    assert code == 2 and out == ""
    assert "single-cell bank" in capsys.readouterr().err


def test_sweep_perfect_solver_errors_on_quantized_csit(tmp_path):
    out = tmp_path / "perfect.csv"
    code, payload = run_cli(["sweep", "--ref", "fdpc-2x2-a", "--snr-db-list", "0",
                             "--csit", "perfect,B=1", "--solvers", "perfect", "--samples", "1",
                             "--n-outer", "3", "--no-bound", "--out", str(out)])
    assert code == 0 and json.loads(payload)["errors"] == 1
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [(row[1], row[3] == "nan") for row in rows] == [("perfect", False), ("B=1", True)]


def test_jointopt_rejects_the_perfect_solver(capsys):
    """jointopt builds a no-CSIT bank, where ``perfect`` never resolves."""
    with pytest.raises(SystemExit) as exc:
        run_cli(["jointopt", "--ref", "fdpc-2x2-a", "--solver", "perfect", "--samples", "10"])
    assert exc.value.code == 2
    assert "invalid choice: 'perfect'" in capsys.readouterr().err


def test_jointopt_draws_its_one_cell_once(monkeypatch):
    """Every outer step reads the one no-CSIT cell, drawn once by ``sample_cells``."""
    draw, drawn = model._Cells.__getitem__, []

    def recording_draw(cells, i):
        drawn.append(i)
        return draw(cells, i)

    monkeypatch.setattr(model._Cells, "__getitem__", recording_draw)
    code, out = run_cli(["jointopt", "--ref", "fdpc-2x2-a", "--outer-iters", "3",
                         "--samples", "50"])
    assert code == 0 and len(json.loads(out)["rate_trace"]) >= 2
    assert drawn == [0]


def test_jointopt_payload(tmp_path):
    cfg = write_config(tmp_path, JOINT_CFG)
    code, out = run_cli(["jointopt", cfg, "--rank", "2", "--outer-iters", "8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank_used"] in (1, 2)
    assert len(payload["rate_trace"]) >= 1
    t_mat = np.asarray(payload["T"]["re"]) + 1j * np.asarray(payload["T"]["im"])
    assert t_mat.shape == (2, 2)
    assert payload["rate_bits"] == pytest.approx(max(payload["rate_trace"]))


def test_jointopt_rank_comparison_at_30db(tmp_path):
    cfg = write_config(tmp_path, {"ref": "fdpc-rank-3x2", "snr_db": 30.0,
                                  "mc": {"n_inner": 2000, "seed": 6}})
    rates = {}
    for m in (1, 3):
        code, out = run_cli(["jointopt", cfg, "--rank", str(m),
                             "--outer-iters", "15"])
        assert code == 0
        rates[m] = json.loads(out)["rate_bits"]
    assert rates[3] > rates[1]


def test_env_seed_default(tmp_path, monkeypatch):
    cfg_dict = {k: v for k, v in BASE_CFG.items() if k != "mc"}
    cfg = write_config(tmp_path, dict(cfg_dict, mc={"n_inner": 200}))
    monkeypatch.setenv("FDPC_SEED", "321")
    code, out = run_cli(["rate", cfg, "--solver", "zero"])
    assert code == 0
    assert json.loads(out)["seed"] == 321
    # flag wins over env
    code, out = run_cli(["rate", cfg, "--solver", "zero", "--seed", "5"])
    assert json.loads(out)["seed"] == 5


@pytest.fixture(scope="module")
def loaded_packages(tmp_path_factory):
    """Top-level packages one process holds after importing the CLI and running flag-only
    ``rate``, ``sweep`` and ``jointopt`` calls, and after a ``rate`` call on a config file."""
    tmp = tmp_path_factory.mktemp("imports")
    cfg = write_config(tmp, {"ref": "fdpc-2x2-a", "csit": {"variant": "perfect"}})
    code = f"""
import contextlib, io, json, sys
import fdpclab.cli

def loaded():
    return sorted({{m.split(".")[0] for m in sys.modules}})

seen = {{}}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["rate", "--ref", "fdpc-2x2-a", "--solver", "zero", "--samples", "10"],
                 ["sweep", "--ref", "fdpc-2x2-a", "--snr-db-list", "0", "--csit", "none,B=1",
                  "--samples", "50", "--n-outer", "2", "--out", {str(tmp / "q.csv")!r}],
                 ["jointopt", "--ref", "fdpc-rank-3x2", "--snr-db", "30", "--rank", "1",
                  "--samples", "50", "--outer-iters", "2"]):
        assert fdpclab.cli.main(argv) == 0, argv
    seen["flags"] = loaded()
    assert fdpclab.cli.main(["rate", {cfg!r}, "--solver", "zero", "--samples", "10"]) == 0
seen["file"] = loaded()
print(json.dumps(seen))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("package", ["scipy", "concurrent", "logging", "jsonschema"])
def test_cli_import_leaves_package_out(loaded_packages, package):
    """Neither importing the CLI nor flag-only runs load scipy, concurrent.futures,
    logging or jsonschema."""
    assert package not in loaded_packages["flags"]


def test_a_config_file_the_check_cannot_prove_loads_jsonschema(loaded_packages):
    assert "jsonschema" in loaded_packages["file"]


def test_quantized_runs_need_no_scipy(tmp_path):
    """A quantized sweep and a quantized complex rate run with scipy unimportable."""
    cfg = write_config(tmp_path, {"ref": "fdpc-fig4-1",
                                  "csit": {"variant": "quantized", "bits": 1}})
    code = f"""
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from fdpclab.cli import main
assert main(["sweep", "--ref", "fdpc-2x2-a", "--snr-db-list", "0",
             "--csit", "none,perfect,B=1,B=2", "--samples", "50", "--n-outer", "2",
             "--out", {str(tmp_path / "q.csv")!r}]) == 0
assert main(["rate", {cfg!r}, "--samples", "50", "--n-outer", "2"]) == 0
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "q.csv").read_text().splitlines()) == 5


@pytest.mark.parametrize("case", ["rate-flag", "sweep-flag", "mc-seed", "env", "sigma_s-seed"])
def test_negative_seed_exits_2(tmp_path, monkeypatch, capsys, case):
    argv = ["rate", "--ref", "fdpc-2x2-a", "--solver", "zero", "--samples", "10"]
    if case == "rate-flag":
        argv += ["--seed", "-1"]
    elif case == "sweep-flag":
        argv = ["sweep", "--ref", "fdpc-2x2-a", "--snr-db-list", "0", "--samples", "10",
                "--seed", "-1", "--out", str(tmp_path / "x.csv")]
    elif case == "mc-seed":
        argv[1:3] = [write_config(tmp_path, {"ref": "fdpc-2x2-a", "mc": {"seed": -2}})]
    elif case == "env":
        monkeypatch.setenv("FDPC_SEED", "-5")
    else:
        cfg = dict(BASE_CFG, q_over_p=1.0,
                   sigma_s={"kind": "random_rank", "rank": 1, "seed": -4})
        argv[1:3] = [write_config(tmp_path, cfg)]
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "less than the minimum of 0" in err
    assert not (tmp_path / "x.csv").exists()


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "fdpclab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "rate" in proc.stdout and "jointopt" in proc.stdout


@pytest.mark.parametrize("argv", [
    ("rate", "--ref", "fdpc-fig4-2", "--snr-db", "20", "--solver", "alg2",
     "--samples", "4000"),
    ("rate", "--ref", "fdpc-fig4-1", "--snr-db", "10", "--solver", "alg1",
     "--samples", "4000"),
    ("jointopt", "--ref", "fdpc-rank-3x2", "--snr-db", "30", "--rank", "1",
     "--samples", "5000", "--outer-iters", "5"),
    ("jointopt", "--ref", "fdpc-cov-3x3", "--rank", "3", "--samples", "5000",
     "--outer-iters", "5"),
], ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_output_does_not_depend_on_the_blas_thread_count(argv):
    """One BLAS thread and the library's default give byte-identical payloads.

    At these sizes a GEMM over the stack of draws would run on several
    threads on a multi-core host (the rank-1 ``jointopt`` payload then
    differed in its last digits).
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    outs = []
    for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        proc = subprocess.run([sys.executable, "-m", "fdpclab.cli", *argv, "--seed", "1"],
                              capture_output=True, text=True, env={**env, **extra})
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
