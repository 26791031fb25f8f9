from dataclasses import fields
from pathlib import Path

import pytest

from pathrec.config import RunConfig, default_config_text, load_config, parse_config_text
from pathrec.embeddings import EmbedConfig
from pathrec.errors import ConfigError
from pathrec.policy import AgentConfig
from pathrec.synthetic import SynthConfig

GOLDEN_CONFIG = Path(__file__).parent / "golden" / "default_config.ini"


def test_defaults_match_module_defaults():
    cfg = parse_config_text("")
    assert cfg.embed.d == 100
    assert cfg.agent.epochs == 50
    assert cfg.agent.learning_rate == pytest.approx(1e-3)
    assert cfg.embed.batch_size == 512
    assert cfg.split_ratios == (0.8, 0.1, 0.1)
    assert cfg.min_enrollments == 10
    assert cfg.eval_k == 10
    assert cfg.embed == EmbedConfig()
    assert cfg.agent == AgentConfig()
    assert cfg.synth == SynthConfig()


def test_overrides_and_comments():
    text = """
# a comment
embed.d = 16
agent.train_extra_hop = false
split.ratios = 0.6,0.2,0.2
beam.widths = 4,3,2
"""
    cfg = parse_config_text(text)
    assert cfg.embed.d == 16
    assert cfg.agent.train_extra_hop is False
    assert cfg.split_ratios == (0.6, 0.2, 0.2)
    assert cfg.widths() == (4, 3, 2)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("embed.dd = 4")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("embed.d = many")


@pytest.mark.parametrize("cls", [EmbedConfig, AgentConfig])
def test_adam_is_the_only_optimizer(cls):
    cls().validate()
    with pytest.raises(ConfigError, match="unknown optimizer: 'sgd'"):
        cls(optimizer="sgd").validate()


@pytest.mark.parametrize("cls", [EmbedConfig, AgentConfig])
def test_nan_learning_rate_rejected(cls):
    with pytest.raises(ConfigError, match="learning_rate"):
        cls(learning_rate=float("nan")).validate()


def test_bad_syntax_rejected():
    with pytest.raises(ConfigError, match="expected"):
        parse_config_text("[embed]")


def test_wrong_ratio_count_rejected():
    with pytest.raises(ConfigError, match="three fractions"):
        parse_config_text("split.ratios = 0.9,0.1")


def test_default_widths_follow_hops():
    assert parse_config_text("agent.max_hops_eval = 4").widths() == (25, 5, 5, 1)
    assert parse_config_text("agent.max_hops_eval = 5").widths() == (25, 5, 5, 5, 1)


def test_sub_config_construction():
    cfg = parse_config_text("embed.d = 12\nagent.hidden = 32\nsynth.n_learners = 50")
    assert cfg.embed_config(seed=7).d == 12
    assert cfg.embed_config(seed=7).seed == 7
    assert cfg.agent_config(seed=7).hidden == 32
    assert cfg.synth.n_learners == 50


def test_default_config_text_round_trips():
    text = default_config_text()
    cfg = parse_config_text(text)
    assert cfg == RunConfig()


def test_load_config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("eval.k = 5\n", encoding="utf-8")
    assert load_config(str(path)).eval_k == 5


def test_non_utf8_config_is_config_error(tmp_path):
    path = tmp_path / "run.ini"
    path.write_bytes(b"eval.k = 5\n# caf\xe9\n")
    with pytest.raises(ConfigError, match=r"run\.ini: not UTF-8"):
        load_config(str(path))


def test_default_config_text_matches_golden():
    assert default_config_text() == GOLDEN_CONFIG.read_text(encoding="utf-8")


def _non_default(value):
    if isinstance(value, bool):
        return not value, "false" if value else "true"
    if isinstance(value, str):
        return value + "x", value + "x"
    changed = value + 1 if isinstance(value, int) else value / 2 + 0.125
    return changed, str(changed)


@pytest.mark.parametrize("lib_cls, build", [
    (EmbedConfig, lambda cfg: cfg.embed_config(seed=3)),
    (AgentConfig, lambda cfg: cfg.agent_config(seed=3)),
    (SynthConfig, lambda cfg: cfg.synth),
], ids=["embed", "agent", "synth"])
def test_every_library_field_has_exactly_one_key(lib_cls, build):
    keys = [line.split(" = ")[0] for line in default_config_text().splitlines()[1:]]
    run_seeded = lib_cls is not SynthConfig
    for f in fields(lib_cls):
        if f.name == "seed" and run_seeded:
            continue
        value, text = _non_default(f.default)
        reaching = []
        for key in keys:
            try:
                built = build(parse_config_text(f"{key} = {text}"))
            except ConfigError:
                continue
            if getattr(built, f.name) == value:
                reaching.append(key)
        assert len(reaching) == 1, (f.name, reaching)
        built = build(parse_config_text(f"{reaching[0]} = {text}"))
        assert built == lib_cls(**{**vars(lib_cls()), f.name: value, "seed": built.seed})
        if run_seeded:
            assert built.seed == 3


@pytest.mark.parametrize("cfg", [
    AgentConfig(learning_rate=float("inf")),
    AgentConfig(entropy_weight=float("inf")),
    EmbedConfig(learning_rate=float("inf")),
])
def test_infinite_rates_are_config_errors(cfg):
    # README: config floats are finite; an infinite rate would fail an epoch later
    with pytest.raises(ConfigError, match="finite"):
        cfg.validate()
