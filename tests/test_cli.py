import json
import shutil
import struct
from pathlib import Path

import pytest

from pathrec.cli import main
from pathrec.embeddings import EmbedConfig, init_embeddings, save_embeddings

from conftest import GOLDEN_SCORE_ABS, make_tiny_kg, put_bad_byte

SMALL_CONFIG = """
data.dir = {root}/data
data.out = {root}/out
split.seed = 1
embed.d = 8
embed.epochs = 6
embed.learning_rate = 0.005
embed.batch_size = 128
agent.epochs = 2
agent.hidden = 16
agent.batch_episodes = 64
beam.widths = 10,5,5
eval.k = 5
mf.epochs = 3
run.seeds = 2
synth.n_learners = 40
synth.n_courses = 30
synth.n_teachers = 4
synth.n_categories = 2
synth.n_concepts = 6
synth.n_clusters = 2
"""


# The desk benchmark shape (d=24, hidden 64, beams 25,10,10) on the seed-0
# 64-learner synthetic graph, the graph and seed of the benchmark's first pass.
DESK_CONFIG = """
data.dir = {root}/data
data.out = {root}/out
embed.d = 24
embed.epochs = 40
embed.learning_rate = 0.005
embed.batch_size = 256
agent.hidden = 64
agent.batch_episodes = 128
agent.epochs = 5
beam.widths = 25,10,10
synth.n_learners = 64
synth.n_courses = 60
"""

CHAIN = ("synth", "ingest", "split", "train-embed", "train-agent", "recommend")

# recommendations_s0.jsonl of the SMALL_CONFIG chain below (synth through
# recommend at seed 0), written before beam search shared its expansions
GOLDEN_RECS = Path(__file__).parent / "golden" / "recommendations_s0.jsonl"
# the same for DESK_CONFIG, written before the embedding trainer grouped
# batches by argsort and before the update stopped re-evaluating the baseline
GOLDEN_DESK_RECS = Path(__file__).parent / "golden" / "desk_recommendations_s0.jsonl"
# agent_log_s0.csv of the DESK_CONFIG chain, written before training's walks
# stayed integer ids: each epoch's mean reward and entropy, byte for byte
GOLDEN_DESK_LOG = Path(__file__).parent / "golden" / "desk_agent_log_s0.csv"


def assert_matches_golden(got_path, want_path):
    """Learners, courses and paths must match exactly; scores within GOLDEN_SCORE_ABS."""

    def read(path):
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    got, want = read(got_path), read(want_path)
    assert [rec["learner"] for rec in got] == [rec["learner"] for rec in want]
    for g, w in zip(got, want):
        assert [(it["course"], it["path"]) for it in g["items"]] == [
            (it["course"], it["path"]) for it in w["items"]
        ], g["learner"]
        assert [it["score"] for it in g["items"]] == pytest.approx(
            [it["score"] for it in w["items"]], rel=0, abs=GOLDEN_SCORE_ABS
        ), g["learner"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.ini"
    cfg.write_text(SMALL_CONFIG.format(root=root), encoding="utf-8")
    return root, str(cfg)


@pytest.fixture(scope="module")
def pipeline(workdir):
    """Run the full chain once; later tests inspect the artifacts."""
    root, cfg = workdir
    for command in CHAIN:
        assert main([command, "--config", cfg]) == 0, command
    return root, cfg


def test_pipeline_artifacts_exist(pipeline):
    root, _cfg = pipeline
    out = root / "out"
    for name in ("graph.kg", "split.tsv", "embeddings_s0.emb", "policy_s0.pol",
                 "agent_log_s0.csv", "recommendations_s0.jsonl"):
        assert (out / name).exists(), name


def test_recommendations_match_golden(pipeline):
    root, _cfg = pipeline
    assert_matches_golden(root / "out" / "recommendations_s0.jsonl", GOLDEN_RECS)


def test_desk_recommendations_match_golden(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(DESK_CONFIG.format(root=tmp_path), encoding="utf-8")
    for command in CHAIN:
        assert main([command, "--config", str(cfg)]) == 0, command
    assert_matches_golden(tmp_path / "out" / "recommendations_s0.jsonl", GOLDEN_DESK_RECS)
    assert (tmp_path / "out" / "agent_log_s0.csv").read_bytes() == GOLDEN_DESK_LOG.read_bytes()


def test_evaluate_and_patterns_round_trip(pipeline):
    root, cfg = pipeline
    assert main(["evaluate", "--config", cfg]) == 0
    metrics_path = root / "out" / "metrics_s0.json"
    first = metrics_path.read_bytes()
    assert main(["evaluate", "--config", cfg]) == 0
    assert metrics_path.read_bytes() == first

    assert main(["patterns", "--config", cfg]) == 0
    patterns_path = root / "out" / "patterns_s0.csv"
    first = patterns_path.read_bytes()
    assert main(["patterns", "--config", cfg]) == 0
    assert patterns_path.read_bytes() == first


def test_explain_text_and_dot(pipeline, capsys):
    root, cfg = pipeline
    recs = (root / "out" / "recommendations_s0.jsonl").read_text().splitlines()
    learner = None
    for line in recs:
        obj = json.loads(line)
        if obj["items"]:
            learner = obj["learner"]
            break
    assert learner is not None
    assert main(["explain", "--config", cfg, "--learner", learner, "--rank", "1"]) == 0
    text = capsys.readouterr().out
    assert learner in text and "→" in text

    assert main(["explain", "--config", cfg, "--learner", learner, "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")


def test_explain_bad_rank_is_data_error(pipeline):
    root, cfg = pipeline
    recs = (root / "out" / "recommendations_s0.jsonl").read_text().splitlines()
    learner = json.loads(recs[0])["learner"]
    assert main(["explain", "--config", cfg, "--learner", learner, "--rank", "99"]) == 5


def test_missing_input_exits_3(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"data.dir = {tmp_path}/nowhere\ndata.out = {tmp_path}/out\n",
                   encoding="utf-8")
    assert main(["ingest", "--config", str(cfg)]) == 3


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("no.such.key = 1\n", encoding="utf-8")
    assert main(["synth", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("line, args", [
    ("agent.learning_rate = nan", ()),
    ("embed.learning_rate = inf", ()),
    ("agent.entropy_weight = -inf", ()),
    ("split.ratios = nan,0.1,0.1", ()),
    ("eval.k = 0", ()),
    ("eval.k = -3", ()),
    ("run.seeds = 0", ()),
    ("split.seed = -1", ()),
    ("run.base_seed = -1", ()),
    ("synth.seed = -2", ()),
    ("", ("--seed", "-1")),
    ("mf.factors = 0", ()),
    ("mf.factors = -1", ()),
    ("mf.epochs = -1", ()),
    ("mf.learning_rate = -0.05", ()),
    ("mf.learning_rate = nan", ()),
    ("filter.min_enrollments = -1", ()),
    ("embed.d = 8.0", ()),
    ("embed.epochs = 1.5", ()),
])
def test_out_of_range_setting_exits_2(tmp_path, capsys, line, args):
    # without the range checks these end in a NaN policy, a traceback or a
    # missing-file error (exit 3), depending on the setting
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"data.dir = {tmp_path}/data\ndata.out = {tmp_path}/out\n{line}\n",
                   encoding="utf-8")
    assert main(["train-agent", "--config", str(cfg), *args]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[config]: "), err


def test_checkpoint_mismatch_exits_4(pipeline, tmp_path):
    root, cfg_path = pipeline
    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_text(
        SMALL_CONFIG.format(root=root).replace("embed.d = 8", "embed.d = 12"),
        encoding="utf-8",
    )
    assert main(["train-agent", "--config", str(bad_cfg)]) == 4


def _copy_run(root, tmp_path, names):
    """A config whose output directory holds copies of the given artifacts."""
    out = tmp_path / "out"
    out.mkdir()
    for name in names:
        shutil.copy(root / "out" / name, out / name)
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        SMALL_CONFIG.format(root=root).replace(f"data.out = {root}/out", f"data.out = {out}"),
        encoding="utf-8",
    )
    return out, str(cfg)


def test_unknown_split_learner_exits_5(pipeline, tmp_path):
    root, _cfg = pipeline
    out, cfg = _copy_run(root, tmp_path, ("graph.kg", "split.tsv", "embeddings_s0.emb"))
    with open(out / "split.tsv", "a", encoding="utf-8") as fh:
        fh.write("ghost\ttrain\tc0000\n")
    assert main(["train-agent", "--config", cfg]) == 5


def test_non_utf8_graph_exits_5(pipeline, tmp_path, capsys):
    root, _cfg = pipeline
    out, cfg = _copy_run(root, tmp_path, ("graph.kg", "split.tsv", "embeddings_s0.emb"))
    put_bad_byte(out / "graph.kg", 30)
    assert main(["train-agent", "--config", cfg]) == 5
    assert "graph.kg: not UTF-8" in capsys.readouterr().err


def test_renamed_embedding_type_exits_4(pipeline, tmp_path):
    root, _cfg = pipeline
    out, cfg = _copy_run(
        root, tmp_path, ("graph.kg", "split.tsv", "embeddings_s0.emb", "policy_s0.pol")
    )
    emb = out / "embeddings_s0.emb"
    data = emb.read_bytes()
    assert data.count(b"learner") == 1
    emb.write_bytes(data.replace(b"learner", b"learnex"))
    assert main(["recommend", "--config", cfg]) == 4


@pytest.mark.parametrize("command", ["train-agent", "recommend"])
def test_embeddings_of_another_graph_exit_4(pipeline, tmp_path, capsys, command):
    # d matches the config; only the environment compares the table with the graph
    root, _cfg = pipeline
    out, cfg = _copy_run(root, tmp_path, ("graph.kg", "split.tsv", "policy_s0.pol"))
    emb_cfg = EmbedConfig(d=8)
    save_embeddings(init_embeddings(make_tiny_kg(), emb_cfg), str(out / "embeddings_s0.emb"),
                    emb_cfg)
    assert main([command, "--config", cfg]) == 4
    assert "do not match the graph" in capsys.readouterr().err


def test_corrupt_policy_config_echo_exits_5(pipeline, tmp_path):
    root, _cfg = pipeline
    out, cfg = _copy_run(
        root, tmp_path, ("graph.kg", "split.tsv", "embeddings_s0.emb", "policy_s0.pol")
    )
    pol = out / "policy_s0.pol"
    data = pol.read_bytes()
    assert data.count(b'"gamma": 1.0') == 1
    pol.write_bytes(data.replace(b'"gamma": 1.0', b'"gamma": 9.0'))
    assert main(["recommend", "--config", cfg]) == 5


def test_non_finite_policy_exits_5(pipeline, tmp_path, capsys):
    root, _cfg = pipeline
    out, cfg = _copy_run(
        root, tmp_path, ("graph.kg", "split.tsv", "embeddings_s0.emb", "policy_s0.pol")
    )
    pol = out / "policy_s0.pol"
    pol.write_bytes(pol.read_bytes()[:-4] + struct.pack("<f", float("inf")))
    assert main(["recommend", "--config", cfg]) == 5
    assert "policy_s0.pol contains non-finite values" in capsys.readouterr().err


def test_missing_checkpoint_exits_3(pipeline):
    root, cfg = pipeline
    assert main(["recommend", "--config", cfg, "--seed", "9"]) == 3


def test_run_all_writes_report(workdir):
    root, cfg = workdir
    assert main(["run-all", "--config", cfg]) == 0
    report = json.loads((root / "out" / "metrics.json").read_text())
    models = {row["model"] for row in report}
    assert models == {"Pop", "MF", "UPGPR"}
    upgpr = next(row for row in report if row["model"] == "UPGPR")
    assert upgpr["path_length"] == 3
    assert len(upgpr["runs"]) == 2
    assert (root / "out" / "metrics.txt").exists()
    pop = next(row for row in report if row["model"] == "Pop")
    assert pop["std"]["ndcg"] == 0.0


def test_run_all_rebuilds_graph_and_split_from_changed_inputs(tmp_path):
    text = SMALL_CONFIG.format(root=tmp_path).replace("run.seeds = 2", "run.seeds = 1")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text, encoding="utf-8")
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["run-all", "--config", str(cfg)]) == 0
    before = (tmp_path / "out" / "graph.kg").read_bytes()

    enrollments = tmp_path / "data" / "enrollments.tsv"
    lines = enrollments.read_text(encoding="utf-8").splitlines(keepends=True)
    enrollments.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
    assert main(["run-all", "--config", str(cfg)]) == 0

    fresh = tmp_path / "fresh.ini"
    fresh.write_text(text.replace(f"data.out = {tmp_path}/out", f"data.out = {tmp_path}/fresh"),
                     encoding="utf-8")
    assert main(["ingest", "--config", str(fresh)]) == 0
    assert main(["split", "--config", str(fresh)]) == 0
    for name in ("graph.kg", "split.tsv"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert (tmp_path / "out" / "graph.kg").read_bytes() != before


def test_init_config_prints_defaults(capsys):
    assert main(["init-config"]) == 0
    out = capsys.readouterr().out
    assert "embed.d = 100" in out
    assert "agent.epochs = 50" in out
