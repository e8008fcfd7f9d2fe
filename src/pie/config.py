"""Experiment configuration: YAML loading, defaults, and flag overrides.

``KEYS`` is the one table of config keys outside ``model``: each dotted key
maps to the ``ExperimentConfig`` field it sets (the ``ChainConfig`` field for
``chain.*``) and to its coercion.  A key's default is its field's default.
The model family reads its own keys; any other key is refused.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .errors import ConfigError, check_count, coerce, real, whole
from .families import CONJUGATE
from .models import LinearFunctional, ModelSpec
from .samplers import ChainConfig

MODES = ("pie", "consensus", "multidim", "full-oracle")
SAMPLERS = ("exact", "metropolis")
SECTIONS = ("model", "data", "chain")

OUTPUT_DIR_ENV = "PIE_OUT_DIR"


def check_seeds(seeds: list) -> None:
    """Refuse master seeds outside [0, 2**64): streams are keyed modulo
    2**64, so such a seed would alias one inside."""
    if not all(0 <= seed < 1 << 64 for seed in seeds):
        raise ConfigError(f"seeds must lie in [0, 2**64), got {seeds}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; validated on construction.

    ``functionals=None`` means one coordinate functional per parameter.
    """

    model: ModelSpec
    n: int
    K: int = 1
    chain: ChainConfig = field(default_factory=ChainConfig)
    functionals: Optional[list[LinearFunctional]] = None
    alpha_levels: list[float] = field(default_factory=lambda: [0.1])
    grid_size: int = 999
    seeds: list[int] = field(default_factory=lambda: [0])
    mode: str = "pie"
    sampler: str = "exact"
    data_source: str = "simulate"
    data_path: Optional[str] = None
    true_theta: Optional[float] = None
    output_dir: str = "out"

    def __post_init__(self):
        check_count(self.n, "n")
        if self.K < 1 or self.n < self.K:
            raise ConfigError(f"need n >= K >= 1, got n={self.n}, K={self.K}")
        if self.functionals is None:
            object.__setattr__(self, "functionals", [
                LinearFunctional(a=row) for row in np.eye(self.model.parameter_dim)])
        if not self.functionals:
            raise ConfigError("at least one functional is required")
        for alpha in self.alpha_levels:
            if not 0.0 < alpha < 1.0:
                raise ConfigError(f"alpha levels must lie in (0, 1), got {alpha}")
        # a cell is scored by the spread of a table's values, which one value lacks
        check_count(self.grid_size, "grid_size", least=2)
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        check_seeds(self.seeds)
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be unique")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.sampler not in SAMPLERS:
            raise ConfigError(f"sampler must be one of {SAMPLERS}")
        if self.data_source not in ("simulate", "csv"):
            raise ConfigError("data source must be 'simulate' or 'csv'")
        if self.data_source == "csv" and not self.data_path:
            raise ConfigError("csv data source requires a path")
        if self.model.family not in CONJUGATE:
            raise ConfigError(f"config-driven runs support families {tuple(CONJUGATE)}")
        family = CONJUGATE[self.model.family]
        if self.true_theta is not None and not math.isfinite(self.true_theta):
            raise ConfigError(f"data.true_theta must be finite, got {self.true_theta!r}")
        if self.data_source == "simulate" and not family.regression:
            if self.true_theta is None:
                raise ConfigError("simulated univariate data requires data.true_theta")
            family.check_theta0(self.true_theta)
        if family.regression:
            check_count(self.n * (self.model.parameter_dim - 1), "design size n * data.p")
        if self.sampler == "metropolis":
            # the Metropolis target holds the prior's log normaliser, which a
            # flat prior, such as an infinite variance in omega, does not have
            try:
                proper = math.isfinite(family.log_prior_normaliser(self.model.hyperparameters))
            except OverflowError:
                proper = False
            if not proper:
                raise ConfigError("sampler 'metropolis' needs a proper prior: its log "
                                  "normaliser is not finite (check model.omega, model.a "
                                  "and model.b)")
        for f in self.functionals:
            if f.a.size != self.model.parameter_dim:
                raise ConfigError("functional dimension does not match the model parameter")
        # one seed holds every shard's retained draws and the oracle's, and per
        # functional a quantile table for each shard, the combination and the oracle
        K = 1 if self.mode == "full-oracle" else self.K
        check_count((K + 1) * self.chain.retained * self.model.parameter_dim
                    + len(self.functionals) * (K + 2) * self.grid_size, "draws and table "
                    "values one seed holds (lower K, chain.T_total or grid_size)")

    def echo(self) -> dict:
        """Plain-data view of the configuration, for the report echo."""
        h = {key: _plain(value) for key, value in self.model.hyperparameters.items()}
        out = {"model": {"family": self.model.family, "hyperparameters": h,
                         "parameter_dim": self.model.parameter_dim}}
        for key, (name, _) in KEYS.items():
            section, _, leaf = key.rpartition(".")
            value = _plain(getattr(self.chain if section == "chain" else self, name))
            (out.setdefault(section, {}) if section else out)[leaf] = value
        return out


def _plain(value):
    """``value`` as YAML-ready plain data."""
    if isinstance(value, LinearFunctional):
        return {"a": value.a.tolist(), "b": value.b}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"not a list: {value!r}")
    return value


def _path(value) -> Optional[str]:
    # YAML reads an unquoted yes, 010, ~ or [a] as a bool, an int, null or a list
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"a path must be a string, got {value!r}: quote it")
    return value


def _yaml(text: str, what: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{what} is not valid YAML: {exc}") from None


KEYS = {
    "n": ("n", whole),
    "K": ("K", whole),
    # no functionals, or an empty list, leaves the default: every coordinate
    "functionals": ("functionals",
                    lambda v: [LinearFunctional(**f) for f in _list(v or [])] or None),
    "alpha_levels": ("alpha_levels", lambda v: [real(a) for a in _list(v)]),
    "grid_size": ("grid_size", whole),
    "seeds": ("seeds", lambda v: [whole(s) for s in _list(v)]),
    "mode": ("mode", str),
    "sampler": ("sampler", str),
    "output_dir": ("output_dir", _path),
    "data.source": ("data_source", str),
    "data.path": ("data_path", _path),
    "data.true_theta": ("true_theta", lambda v: None if v is None else real(v)),
    "chain.T_total": ("T_total", whole),
    "chain.burn_fraction": ("burn_fraction", real),
    "chain.thin": ("thin", whole),
    # ChainConfig reads 'auto' or a number
    "chain.proposal_scale": ("proposal_scale", lambda v: v),
}


def _set_dotted(raw: dict, dotted: str, value):
    keys = dotted.split(".")
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-mapping key '{key}'")
    node[keys[-1]] = _yaml(value, f"value for {dotted}") if isinstance(value, str) else value


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a validated configuration from a YAML file plus overrides.

    ``overrides`` maps dotted keys (``"model.a"``, ``"chain.thin"``) to
    values; string values are parsed as YAML scalars so CLI flags can
    override any config key.  A key that neither ``KEYS`` nor the model
    family reads is a ConfigError.
    """
    raw: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        raw = _yaml(text, f"config {path}")
        raw = {} if raw is None else raw
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a mapping")
    for key, value in (overrides or {}).items():
        _set_dotted(raw, key, value)
    # each section's keys become dotted keys
    flat = {key: value for key, value in raw.items() if key not in SECTIONS}
    for section in SECTIONS:
        value = raw.get(section) or {}
        if not isinstance(value, dict):
            raise ConfigError(f"config key '{section}' must be a mapping")
        flat.update((f"{section}.{key}", v) for key, v in value.items())
    known = list(KEYS)

    def take(key, default=None):
        known.append(key)
        return flat.pop(key, default)

    name = take("model.family")
    family = CONJUGATE.get(name) if isinstance(name, str) else None
    if family is None:
        raise ConfigError(f"model.family must be one of {tuple(CONJUGATE)}, got {name!r}")
    hyper, dim = family.config(take)
    model = ModelSpec(family=name, hyperparameters=hyper, parameter_dim=dim)

    if "n" not in flat:
        raise ConfigError("config requires n")
    # a null or empty output_dir falls back to the environment, then to the field default
    if flat.get("output_dir") in (None, ""):
        flat["output_dir"] = os.environ.get(OUTPUT_DIR_ENV) or ExperimentConfig.output_dir
    fields = {name: coerce(flat.pop(key), kind, key)
              for key, (name, kind) in KEYS.items() if key in flat}
    chain = {name: fields.pop(name) for key, (name, _) in KEYS.items()
             if key.startswith("chain.") and name in fields}
    if flat:
        import difflib  # only on this path: every `pie` command pays for its imports

        key, value = next(iter(flat.items()))
        # a misspelled section is a leftover mapping: name it by its first key
        if isinstance(value, dict) and value:
            key = f"{key}.{next(iter(value))}"
        close = difflib.get_close_matches(str(key), known, n=1)
        hint = f"; did you mean '{close[0]}'?" if close else ""
        raise ConfigError(f"unknown config key '{key}'{hint}")
    return ExperimentConfig(model=model, chain=ChainConfig(**chain), **fields)
