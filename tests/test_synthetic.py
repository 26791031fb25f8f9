import pytest

from pathrec.errors import ConfigError
from pathrec.kg import filter_learners, ingest
from pathrec.schema import inverse_of
from pathrec.synthetic import SynthConfig, generate, write_tsvs


def test_default_enrollment_counts(synth_kg):
    counts = synth_kg.enrollment_counts()
    assert len(counts) == 300
    assert all(c == 12 for c in counts)


def test_every_learner_survives_filter(synth_kg):
    assert filter_learners(synth_kg, 10) == synth_kg


def test_cross_zero_keeps_enrollments_in_cluster():
    cfg = SynthConfig(cross_cluster_enroll_prob=0.0, in_cluster_enroll_prob=0.9)
    kg = generate(cfg)
    for u_idx, c_idx in kg.edges["enrolled"]:
        u_cluster = int(kg.vocab["learner"][u_idx][1:]) % cfg.n_clusters
        c_cluster = int(kg.vocab["course"][c_idx][1:]) % cfg.n_clusters
        assert u_cluster == c_cluster


def test_same_seed_byte_identical_tsvs(tmp_path):
    cfg = SynthConfig(seed=5)
    paths_a = write_tsvs(cfg, str(tmp_path / "a"))
    paths_b = write_tsvs(cfg, str(tmp_path / "b"))
    for rel in paths_a:
        with open(paths_a[rel], "rb") as fa, open(paths_b[rel], "rb") as fb:
            assert fa.read() == fb.read()


def test_generate_matches_ingested_tsvs(tmp_path):
    cfg = SynthConfig(seed=2)
    files = write_tsvs(cfg, str(tmp_path))
    assert generate(cfg) == ingest(files)


def test_generated_graph_is_closed_under_inversion(synth_kg):
    for head, rel, tail in synth_kg.iter_triples():
        assert synth_kg.has_triple(tail, inverse_of(rel), head)


def test_course_attributes_align_with_cluster(synth_kg):
    cfg = SynthConfig()
    for c_idx, g_idx in synth_kg.edges["belongs_to"]:
        c_cluster = int(synth_kg.vocab["course"][c_idx][1:]) % cfg.n_clusters
        g_cluster = int(synth_kg.vocab["category"][g_idx][3:]) % cfg.n_clusters
        assert c_cluster == g_cluster


@pytest.mark.parametrize(
    "kwargs",
    [
        {"enrollments_per_learner": 100, "n_courses": 60},
        {"enrollments_per_learner": 9},
        {"in_cluster_enroll_prob": 0.2, "cross_cluster_enroll_prob": 0.5},
        {"in_cluster_enroll_prob": 1.5},
        {"n_clusters": 0},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        generate(SynthConfig(**kwargs))


@pytest.mark.parametrize("name, value", [
    ("n_learners", 20.5), ("n_learners", True), ("n_courses", 30.0), ("n_clusters", "5"),
    ("enrollments_per_learner", 12.0), ("seed", -1), ("seed", 1.5),
])
def test_count_that_is_not_an_integer_is_config_error(name, value):
    # unchecked, 20.5 learners failed as a bare TypeError and True built a 1-learner graph
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        generate(SynthConfig(**{name: value}))
