"""Experiment configuration: YAML loading, defaults, and flag overrides."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .errors import ConfigError, check_count, coerce, whole
from .families import CONJUGATE
from .models import LinearFunctional, ModelSpec
from .samplers import ChainConfig

MODES = ("pie", "consensus", "multidim", "full-oracle")
SAMPLERS = ("exact", "metropolis")

OUTPUT_DIR_ENV = "PIE_OUT_DIR"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; validated on construction."""

    model: ModelSpec
    n: int
    K: int
    chain: ChainConfig
    functionals: list[LinearFunctional]
    alpha_levels: list[float]
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
        if not self.functionals:
            raise ConfigError("at least one functional is required")
        for alpha in self.alpha_levels:
            if not 0.0 < alpha < 1.0:
                raise ConfigError(f"alpha levels must lie in (0, 1), got {alpha}")
        check_count(self.grid_size, "grid_size")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
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
                raise ConfigError(
                    "functional dimension does not match the model parameter"
                )

    def echo(self) -> dict:
        """Plain-data view of the configuration, for the report echo."""
        h = {}
        for key, value in self.model.hyperparameters.items():
            h[key] = value.tolist() if isinstance(value, np.ndarray) else value
        return {
            "model": {"family": self.model.family, "hyperparameters": h,
                      "parameter_dim": self.model.parameter_dim},
            "n": self.n,
            "K": self.K,
            "chain": {"T_total": self.chain.T_total,
                      "burn_fraction": self.chain.burn_fraction,
                      "thin": self.chain.thin,
                      "proposal_scale": self.chain.proposal_scale},
            "functionals": [{"a": f.a.tolist(), "b": f.b} for f in self.functionals],
            "alpha_levels": list(self.alpha_levels),
            "grid_size": self.grid_size,
            "seeds": list(self.seeds),
            "mode": self.mode,
            "sampler": self.sampler,
            "data": {"source": self.data_source, "path": self.data_path,
                     "true_theta": self.true_theta},
            "output_dir": self.output_dir,
        }


def _build_model(raw: dict, data: dict) -> ModelSpec:
    name = raw.get("family")
    family = CONJUGATE.get(name) if isinstance(name, str) else None
    if family is None:
        raise ConfigError(f"model.family must be one of {tuple(CONJUGATE)}, got {name!r}")
    hyper, dim = family.config(raw, data)
    return ModelSpec(family=name, hyperparameters=hyper, parameter_dim=dim)


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"config key '{key}' must be a mapping")
    return value


def _set_dotted(raw: dict, dotted: str, value):
    keys = dotted.split(".")
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-mapping key '{key}'")
    node[keys[-1]] = yaml.safe_load(value) if isinstance(value, str) else value


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a validated configuration from a YAML file plus overrides.

    ``overrides`` maps dotted keys (``"model.a"``, ``"chain.thin"``) to
    values; string values are parsed as YAML scalars so CLI flags can
    override any config key.
    """
    raw: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        try:
            loaded = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config {path} is not valid YAML: {exc}") from None
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must be a mapping")
        raw = loaded
    for key, value in (overrides or {}).items():
        _set_dotted(raw, key, value)

    data = _section(raw, "data")
    model = _build_model(_section(raw, "model"), data)

    chain_raw = _section(raw, "chain")
    chain = ChainConfig(
        T_total=coerce(chain_raw.get("T_total", 10000), whole, "chain.T_total"),
        burn_fraction=coerce(chain_raw.get("burn_fraction", 0.5), float,
                             "chain.burn_fraction"),
        thin=coerce(chain_raw.get("thin", 5), whole, "chain.thin"),
        proposal_scale=chain_raw.get("proposal_scale", "auto"),
    )

    functionals_raw = raw.get("functionals")
    if functionals_raw:
        if not isinstance(functionals_raw, list):
            raise ConfigError("functionals must be a list")
        functionals = []
        for f in functionals_raw:
            if not isinstance(f, dict) or "a" not in f:
                raise ConfigError("each functional needs a weight vector 'a'")
            functionals.append(LinearFunctional(a=f["a"], b=f.get("b", 0.0)))
    else:
        functionals = [LinearFunctional(a=row) for row in np.eye(model.parameter_dim)]

    if "n" not in raw:
        raise ConfigError("config requires n")
    true_theta = data.get("true_theta")
    output_dir = raw.get("output_dir") or os.environ.get(OUTPUT_DIR_ENV) or "out"
    return ExperimentConfig(
        model=model,
        n=coerce(raw["n"], whole, "n"),
        K=coerce(raw.get("K", 1), whole, "K"),
        chain=chain,
        functionals=functionals,
        alpha_levels=coerce(raw.get("alpha_levels", [0.1]),
                            lambda v: [float(a) for a in v], "alpha_levels"),
        grid_size=coerce(raw.get("grid_size", 999), whole, "grid_size"),
        seeds=coerce(raw.get("seeds", [0]), lambda v: [whole(s) for s in v], "seeds"),
        mode=raw.get("mode", "pie"),
        sampler=raw.get("sampler", "exact"),
        data_source=data.get("source", "simulate"),
        data_path=None if data.get("path") is None else str(data["path"]),
        true_theta=None if true_theta is None else coerce(true_theta, float,
                                                          "data.true_theta"),
        output_dir=str(output_dir),
    )
