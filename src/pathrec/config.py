"""Flat `section.key = value` run configuration.

One file drives the whole pipeline; unknown keys are rejected rather than
ignored. The `embed.*`, `agent.*` and `synth.*` keys are the fields of the
library configs, whose modules declare their defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, is_dataclass, replace
from typing import get_type_hints

from .embeddings import EmbedConfig
from .errors import ConfigError, open_text
from .inference import DEFAULT_BEAM_WIDTHS
from .policy import AgentConfig
from .synthetic import SynthConfig


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


@dataclass
class RunConfig:
    data_dir: str = "data"
    out_dir: str = "out"
    min_enrollments: int = 10
    split_ratios: tuple[float, ...] = (0.8, 0.1, 0.1)
    split_seed: int = 0
    embed: EmbedConfig = EmbedConfig()
    agent: AgentConfig = AgentConfig()
    reward_mode: str = "binary"
    reward_pattern_whitelist: str = ""
    beam_widths: tuple[int, ...] = ()
    eval_k: int = 10
    mf_factors: int = 32
    mf_epochs: int = 30
    mf_learning_rate: float = 0.05
    run_seeds: int = 3
    run_base_seed: int = 0
    synth: SynthConfig = SynthConfig()

    def embed_config(self, seed: int) -> EmbedConfig:
        return replace(self.embed, seed=seed)

    def agent_config(self, seed: int) -> AgentConfig:
        return replace(self.agent, seed=seed)

    def widths(self) -> tuple[int, ...]:
        return self.beam_widths or DEFAULT_BEAM_WIDTHS[self.agent.max_hops_eval]


_PARSERS = {
    str: str, int: int, float: _parse_float, bool: _parse_bool,
    tuple[float, ...]: lambda raw: tuple(_parse_float(part) for part in raw.split(",")),
    tuple[int, ...]: lambda raw: tuple(int(part) for part in raw.split(",")) if raw.strip() else (),
}

# Field paths whose key is not `section.field` (flat fields: `section_field`).
_RENAMED = {
    "out_dir": "data.out",
    "min_enrollments": "filter.min_enrollments",
    "embed.negatives_per_positive": "embed.negatives",
    "synth.in_cluster_enroll_prob": "synth.in_cluster_prob",
    "synth.cross_cluster_enroll_prob": "synth.cross_cluster_prob",
}
# Seeded per run from --seed / run.base_seed instead of from a key.
_UNKEYED = {"embed.seed", "agent.seed"}


def _key_table() -> dict[str, tuple[str | None, str, object]]:
    """Config key -> (sub-config attribute or None, field name, parser)."""
    keys = {}
    for top, hint in get_type_hints(RunConfig).items():
        if not is_dataclass(hint):
            keys[_RENAMED.get(top, top.replace("_", ".", 1))] = (None, top, _PARSERS[hint])
            continue
        for name, sub_hint in get_type_hints(hint).items():
            path = f"{top}.{name}"
            if path not in _UNKEYED:
                keys[_RENAMED.get(path, path)] = (top, name, _PARSERS[sub_hint])
    return keys


_KEYS = _key_table()


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'section.key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        sub, name, parser = _KEYS[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
        if sub is None:
            setattr(cfg, name, parsed)
        else:
            setattr(cfg, sub, replace(getattr(cfg, sub), **{name: parsed}))
    if len(cfg.split_ratios) != 3:
        raise ConfigError(f"{source}: split.ratios needs exactly three fractions")
    if cfg.eval_k <= 0 or cfg.run_seeds <= 0 or cfg.mf_factors <= 0:
        raise ConfigError(f"{source}: eval.k, run.seeds and mf.factors must be positive")
    if min(cfg.split_seed, cfg.run_base_seed, cfg.synth.seed) < 0:
        raise ConfigError(f"{source}: split.seed, run.base_seed and synth.seed must be >= 0")
    if cfg.min_enrollments < 0 or cfg.mf_epochs < 0:
        raise ConfigError(f"{source}: filter.min_enrollments and mf.epochs must be >= 0")
    if not cfg.mf_learning_rate >= 0:  # also rejects NaN
        raise ConfigError(f"{source}: mf.learning_rate must be non-negative")
    return cfg


def load_config(path: str) -> RunConfig:
    with open_text(path, ConfigError) as fh:
        return parse_config_text(fh.read(), source=path)


def default_config_text() -> str:
    """A commented config file with every key at its default."""
    lines = ["# pathrec run configuration (section.key = value)"]
    cfg = RunConfig()
    for key, (sub, name, _parser) in _KEYS.items():
        value = getattr(cfg if sub is None else getattr(cfg, sub), name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
