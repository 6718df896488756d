"""JSON experiment configuration: schema validation and object construction.

A config describes one channel instance plus Monte Carlo settings.  It can
start from a named reference channel (``ref``) and set the operating point
(SNR, Q/P, CSIT, Monte Carlo settings), or specify everything explicitly.
A reference fixes the channel, so ``ref`` together with any of
``CHANNEL_FIELDS`` is rejected, as are unknown fields.

``CONFIG_SCHEMA`` is the one statement of what is valid.  ``validate_config``
first runs a small check read off it (``_proven``), which knows only the
keywords the CLI's flag-built configs use.  The check only accepts: a config
it cannot prove valid goes to jsonschema, imported on that first call, so
every rejection and its message come from jsonschema.
"""

import functools
import hashlib
import json
import operator

import numpy as np

from .errors import ConfigurationError
from .lab import reference_channel
from .linalg import clip_psd
from .model import (COMPLEX, REAL, ChannelSpec, CorrelatedRayleigh,
                    IidComplexGaussian, IidRealGaussian, IidUniformComplex,
                    QuantizedCsit, csit_from_label, exp_correlation,
                    random_psd, scaled_identity)

_MATRIX = {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}


def _rejected(why):
    """A schema no value meets; the error's path names the field, its message ``why``."""
    return {"not": {"description": why}}


def _read_only_by(key, value, fields, required=False):
    """Rule: only ``key == value`` reads ``fields`` (and needs them if ``required``)."""
    rule = {"if": {"properties": {key: {"const": value}}, "required": [key]},
            "else": {"properties": dict.fromkeys(
                fields, _rejected(f"read only when {key} is {value}"))}}
    if required:
        rule["then"] = {"required": list(fields)}
    return rule


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "ref": {"type": "string"},
        "t": {"type": "integer", "minimum": 1},
        "r": {"type": "integer", "minimum": 1},
        "m": {"type": "integer", "minimum": 1},
        "snr_db": {"type": "number"},
        "q_over_p": {"type": "number", "minimum": 0},
        "n": {"type": "number", "exclusiveMinimum": 0},
        "field": {"enum": [REAL, COMPLEX]},
        "fading": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "variant": {"enum": ["iid_real", "iid_complex", "uniform_complex",
                                     "correlated_rayleigh"]},
                "r_rx": _MATRIX,
                "r_tx": _MATRIX,
                "rho_rx": {"type": "number"},
                "rho_tx": {"type": "number"},
            },
            "required": ["variant"],
            **_read_only_by("variant", "correlated_rayleigh",
                            ("r_rx", "r_tx", "rho_rx", "rho_tx")),
            "dependentSchemas": {
                f"r_{end}": {"properties": {f"rho_{end}": _rejected(f"r_{end} is given")}}
                for end in ("rx", "tx")},
        },
        "csit": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "variant": {"enum": ["perfect", "none", "quantized"]},
                "bits": {"type": "integer", "minimum": 1, "maximum": 6},
                "step": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["variant"],
            **_read_only_by("variant", "quantized", ("bits", "step")),
        },
        "sigma_s": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["zero", "scaled_identity", "random_rank", "matrix"]},
                "rank": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "matrix": _MATRIX,
            },
            "required": ["kind"],
            "allOf": [_read_only_by("kind", "random_rank", ("rank", "seed"), required=True),
                      _read_only_by("kind", "matrix", ("matrix",), required=True)],
        },
        "sigma_x": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["scaled_identity", "factor"]},
                "matrix": _MATRIX,
            },
            "required": ["kind"],
            **_read_only_by("kind", "factor", ("matrix",), required=True),
        },
        "mc": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_outer": {"type": "integer", "minimum": 1},
                "n_inner": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
    },
}

DEFAULT_MC = {"n_outer": 200, "n_inner": 20000, "seed": 0}

# Fields that define the channel itself; a named reference fixes all of them.
CHANNEL_FIELDS = ("t", "r", "m", "field", "n", "fading", "sigma_s", "sigma_x")


# The keywords ``_proven`` knows; a subschema with any other is not proven.
_PROVABLE = {"type", "minimum", "exclusiveMinimum", "properties", "additionalProperties"}
_TYPES = {"string": (str,), "number": (int, float), "integer": (int,), "object": (dict,)}
_BOUNDS = {"minimum": operator.ge, "exclusiveMinimum": operator.gt}


def _proven(value, schema):
    """True if ``value`` meets ``schema`` by the keywords in ``_PROVABLE``.

    False means "not proven", not "invalid": a key without a subschema, a
    subschema with another keyword, a ``bool`` where a number is asked for,
    ``3.0`` for an integer, a failed bound (NaN fails every bound).
    """
    if not _PROVABLE.issuperset(schema) or type(value) not in _TYPES.get(schema.get("type"), ()):
        return False
    if type(value) is dict:
        props = schema.get("properties", {})
        return all(key in props and _proven(item, props[key]) for key, item in value.items())
    return all(_BOUNDS[key](value, bound) for key, bound in schema.items() if key in _BOUNDS)


@functools.cache
def _validator():
    """jsonschema's validator, imported and built once, for the first config not proven."""
    import jsonschema  # here, so a process that only builds configs from flags never loads it

    return jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def validate_config(raw):
    """Return ``raw`` if it meets ``CONFIG_SCHEMA``; else raise jsonschema's best error."""
    if _proven(raw, CONFIG_SCHEMA):
        return raw
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(raw))
    if error is not None:
        raise ConfigurationError(f"invalid configuration: {error.json_path}: {error.message}")
    return raw


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read configuration {path}: {exc}") from None
    return validate_config(raw)


def config_hash(raw):
    """Short provenance hash of the resolved configuration."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _matrix(cfg, key, path, dtype=float):
    """``cfg[key]`` as an array, if it is a non-empty rectangular matrix; ``path`` names it."""
    rows = cfg[key]
    if not (rows and rows[0] and all(len(row) == len(rows[0]) for row in rows)):
        raise ConfigurationError(f"invalid configuration: {path}.{key}: "
                                 "not a non-empty rectangular matrix")
    return np.asarray(rows, dtype=dtype)


def _fading_from_config(cfg, t, r):
    variant = cfg["variant"]
    if variant == "iid_real":
        return IidRealGaussian()
    if variant == "iid_complex":
        return IidComplexGaussian()
    if variant == "uniform_complex":
        return IidUniformComplex()
    if variant == "correlated_rayleigh":
        def corr(n, mat_key, rho_key):
            if mat_key in cfg:
                return _matrix(cfg, mat_key, "$.fading", complex)
            if rho_key in cfg:
                return exp_correlation(n, cfg[rho_key])
            return np.eye(n, dtype=complex)

        return CorrelatedRayleigh(r_rx=corr(r, "r_rx", "rho_rx"),
                                  r_tx=corr(t, "r_tx", "rho_tx"))
    raise ConfigurationError(f"unknown fading variant {variant!r}")


def _csit_from_config(raw, model):
    cfg = raw.get("csit", {"variant": "none"})
    if cfg["variant"] != "quantized":  # "none" and "perfect" are their labels
        return csit_from_label(cfg["variant"], model)
    bits = cfg.get("bits", 1)
    if "step" in cfg:
        return QuantizedCsit(bits=bits, step=cfg["step"])
    return QuantizedCsit.designed(bits, model)


def _sigma_s_from_config(cfg, t, q, field):
    """``sigma_s`` of trace ``q``; its kind's fields are checked whatever ``q`` is.

    A ``matrix`` must be (t, t), Hermitian and p.s.d. before it is scaled, so
    ``q = 0`` does not hide a matrix that ``ChannelSpec`` would reject.
    """
    kind = cfg["kind"]
    if kind == "zero":
        if q != 0.0:
            raise ConfigurationError("sigma_s kind 'zero' requires q_over_p = 0")
        mat = None
    elif kind == "scaled_identity":
        mat = scaled_identity(t, q, field)
    elif kind == "random_rank":
        mat = random_psd(t, cfg["rank"], cfg["seed"], q, field)
    elif kind == "matrix":
        mat = _matrix(cfg, "matrix", "$.sigma_s")
        if mat.shape != (t, t):
            raise ConfigurationError(f"sigma_s matrix has shape {mat.shape}, expected {(t, t)}")
        clip_psd(mat, "sigma_s")
        tr = float(np.trace(mat))
        if tr <= 0:
            raise ConfigurationError("sigma_s matrix must have positive trace")
        mat = mat * (q / tr)
    else:
        raise ConfigurationError(f"unknown sigma_s kind {kind!r}")
    return np.zeros((t, t)) if q == 0.0 else mat  # q_over_p = 0 forces zero interference


def _factor_from_config(cfg, t, m, p, field):
    kind = cfg["kind"]
    if kind == "scaled_identity":
        return np.sqrt(p / m) * np.eye(t, m)
    if kind == "factor":
        mat = _matrix(cfg, "matrix", "$.sigma_x")
        if mat.shape != (t, m):
            raise ConfigurationError(f"sigma_x factor has shape {mat.shape}, expected {(t, m)}")
        tr = float(np.trace(mat @ mat.T))
        if tr <= 0:
            raise ConfigurationError("sigma_x factor must have positive power")
        return mat * np.sqrt(p / tr)
    raise ConfigurationError(f"unknown sigma_x kind {kind!r}")


class Experiment:
    """Resolved configuration: base spec, fading model, CSIT, MC settings."""

    def __init__(self, base_spec, model, csit, q_over_p, snr_db, mc, raw):
        self.base_spec = base_spec
        self.model = model
        self.csit = csit
        self.q_over_p = q_over_p
        self.snr_db = snr_db
        self.mc = mc
        self.raw = raw

    @property
    def hash(self):
        return config_hash(self.raw)

    def spec_at(self, snr_db=None):
        snr = self.snr_db if snr_db is None else snr_db
        return self.base_spec.at_snr_db(snr, self.q_over_p)


def build_experiment(raw, overrides=None):
    """Turn a validated config dict (plus CLI overrides) into objects."""
    raw = dict(raw)
    overrides = overrides or {}
    for key, val in overrides.items():
        if val is None:
            continue
        if key in ("n_outer", "n_inner", "seed"):
            raw["mc"] = dict(raw.get("mc", {}))
            raw["mc"][key] = val
        else:
            raw[key] = val
    validate_config(raw)

    mc = dict(DEFAULT_MC)
    mc.update(raw.get("mc", {}))

    if "ref" in raw:
        clash = [k for k in CHANNEL_FIELDS if k in raw]
        if clash:
            raise ConfigurationError(f"reference {raw['ref']!r} fixes {', '.join(clash)};"
                                     " drop them or give the channel without 'ref'")
        ref = reference_channel(raw["ref"])
        base, model = ref.spec, ref.model
        q_over_p = raw.get("q_over_p", ref.q_over_p)
        snr_db = raw.get("snr_db", 0.0)
        return Experiment(base, model, _csit_from_config(raw, model), q_over_p, snr_db, mc, raw)

    required = ("t", "r", "m", "field", "fading")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ConfigurationError(f"configuration missing fields: {', '.join(missing)}")
    t, r, m = raw["t"], raw["r"], raw["m"]
    field = raw["field"]
    n = raw.get("n", float(r))
    q_over_p = raw.get("q_over_p", 0.0)
    snr_db = raw.get("snr_db", 0.0)
    p0 = n  # base spec at 0 dB; rescaled per snr_db downstream
    q0 = q_over_p * p0

    model = _fading_from_config(raw["fading"], t, r)
    if model.field != field:
        raise ConfigurationError(
            f"fading variant {raw['fading']['variant']!r} conflicts with field {field!r}"
        )
    sigma_s = _sigma_s_from_config(raw.get("sigma_s", {"kind": "scaled_identity"}),
                                   t, q0, field)
    T = _factor_from_config(raw.get("sigma_x", {"kind": "scaled_identity"}),
                            t, m, p0, field)
    sigma_z = scaled_identity(r, n, field)
    base = ChannelSpec.create(T=T, sigma_s=sigma_s, sigma_z=sigma_z, field=field)
    return Experiment(base, model, _csit_from_config(raw, model), q_over_p, snr_db, mc, raw)
