import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrec.embeddings import (
    RELATIONS,
    EmbedConfig,
    EmbeddingTable,
    _canonical_triples,
    batch_loss_and_grads,
    draw_negatives,
    init_embeddings,
    load_embeddings,
    save_embeddings,
    train_embeddings,
)
from pathrec.errors import CheckpointMismatchError, ConfigError, DataError, DivergenceError
from pathrec.kg import KnowledgeGraph
from pathrec.schema import ENTITY_TYPES, EntityRef, relation_types
from pathrec.synthetic import SynthConfig, generate

from conftest import DESK_EMBED, flip_bit, make_tiny_kg, put_bad_byte
from oracles import (
    from_rows, grad_check_embeddings, reference_batch_loss_and_grads, reference_train_embeddings,
    to_rows,
)


def manual_table():
    entity = {
        "learner": np.array([[1.0, 0.0]]),
        "course": np.array([[1.0, 1.0], [0.0, 0.0]]),
    }
    relation = {"enrolled": np.array([0.0, 1.0])}
    # the table holds every entity type and relation: the rest are empty or zero
    entity.update({etype: np.zeros((0, 2)) for etype in ENTITY_TYPES if etype not in entity})
    relation.update({rel: np.zeros(2) for rel in RELATIONS if rel not in relation})
    return EmbeddingTable(entity, relation, d=2)


def random_kg(n_learners=20, n_courses=15, n_triples=200, seed=0):
    rng = np.random.default_rng(seed)
    vocab = {
        "learner": [f"u{i}" for i in range(n_learners)],
        "course": [f"c{i}" for i in range(n_courses)],
    }
    enrolled = set()
    while len(enrolled) < n_triples:
        enrolled.add((int(rng.integers(n_learners)), int(rng.integers(n_courses))))
    return KnowledgeGraph(vocab, {"enrolled": enrolled})


class TestInit:
    def test_deterministic_per_seed(self, tiny_kg):
        cfg = EmbedConfig(d=8, seed=11)
        a, b = init_embeddings(tiny_kg, cfg), init_embeddings(tiny_kg, cfg)
        for etype in a.entity:
            np.testing.assert_array_equal(a.entity[etype], b.entity[etype])

    def test_bound_and_shape(self, tiny_kg):
        cfg = EmbedConfig(d=4, seed=0)
        table = init_embeddings(tiny_kg, cfg)
        bound = 0.5 / np.sqrt(4)
        vec = table.vector(EntityRef("learner", 0))
        assert vec.shape == (4,)
        assert np.all(np.isfinite(vec)) and np.all(np.abs(vec) <= bound)

    def test_seeds_differ(self, tiny_kg):
        a = init_embeddings(tiny_kg, EmbedConfig(d=4, seed=0))
        b = init_embeddings(tiny_kg, EmbedConfig(d=4, seed=1))
        assert any(
            not np.array_equal(a.entity[e], b.entity[e]) for e in a.entity if a.entity[e].size
        )

    def test_zero_dimension_rejected(self, tiny_kg):
        with pytest.raises(ConfigError):
            init_embeddings(tiny_kg, EmbedConfig(d=0))

    @pytest.mark.parametrize("setting", [
        {"d": 8.0}, {"epochs": 2.0}, {"negatives_per_positive": 2.0}, {"batch_size": 16.0},
        {"seed": 0.5}, {"d": "8"}, {"d": True}, {"epochs": False}, {"seed": -1},
    ])
    def test_bad_count_or_seed_is_config_error(self, tiny_kg, setting):
        # without the check a float count fails as a bare TypeError and a
        # negative seed as numpy's ValueError
        cfg = EmbedConfig(**{"d": 8, "epochs": 1, "batch_size": 16, **setting})
        with pytest.raises(ConfigError):
            cfg.validate()
        with pytest.raises(ConfigError):
            train_embeddings(tiny_kg, cfg)

    @pytest.mark.parametrize("name, value", [
        ("d", 8.0), ("d", True), ("negatives_per_positive", 2.5), ("batch_size", 16.0),
        ("epochs", 1.0), ("epochs", False), ("seed", 0.5), ("d", 0),
        ("negatives_per_positive", 0), ("batch_size", 0), ("epochs", -1), ("seed", -1),
    ])
    def test_count_that_is_not_an_integer_is_config_error(self, name, value):
        # each count names its field, as SynthConfig's do
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            EmbedConfig(**{name: value}).validate()

    def test_numpy_integer_counts_are_accepted(self, tiny_kg):
        cfg = EmbedConfig(d=np.int64(4), epochs=np.int32(1), batch_size=np.int64(16), seed=0)
        _table, losses = train_embeddings(tiny_kg, cfg)
        assert len(losses) == 1


class TestScore:
    def test_hand_dot_product(self):
        table = manual_table()
        got = table.score(EntityRef("learner", 0), "enrolled", EntityRef("course", 0))
        assert got == pytest.approx(2.0)  # (1,0)+(0,1) dot (1,1)

    def test_zero_tail_scores_zero(self):
        table = manual_table()
        got = table.score(EntityRef("learner", 0), "enrolled", EntityRef("course", 1))
        assert got == 0.0

    def test_inverse_equals_forward(self, tiny_kg):
        table = init_embeddings(tiny_kg, EmbedConfig(d=6, seed=2))
        h, t = EntityRef("learner", 1), EntityRef("course", 3)
        assert table.score(t, "enrolled_inv", h) == pytest.approx(
            table.score(h, "enrolled", t)
        )

    def test_score_edges_matches_scalar(self, tiny_kg):
        table = init_embeddings(tiny_kg, EmbedConfig(d=6, seed=2))
        c = EntityRef("course", 2)
        edges = tiny_kg.neighbors(c)
        batch = table.score_edges(tiny_kg.entity_id(c), tiny_kg.edge_ids(tiny_kg.entity_id(c)))
        for (rel, tail), got in zip(edges, batch):
            assert got == pytest.approx(table.score(c, rel, tail))


class TestTraining:
    def test_loss_decreases(self):
        kg = random_kg()
        cfg = EmbedConfig(d=8, epochs=30, seed=0, batch_size=64)
        _table, losses = train_embeddings(kg, cfg)
        assert len(losses) == 30
        assert all(np.isfinite(losses))
        assert losses[-1] < losses[0]

    def test_positive_scores_beat_negative_means(self, synth_train_graph, synth_table):
        rng = np.random.default_rng(0)
        pos, neg = [], []
        for u, c in sorted(synth_train_graph.edges["enrolled"])[:500]:
            learner = EntityRef("learner", u)
            pos.append(synth_table.score(learner, "enrolled", EntityRef("course", c)))
            neg.append(
                synth_table.score(
                    learner, "enrolled", EntityRef("course", int(rng.integers(60)))
                )
            )
        assert np.mean(pos) > np.mean(neg)

    def test_heldout_separation_over_90_percent(self, synth_kg, synth_split, synth_table):
        rng = np.random.default_rng(0)
        enrolled_anywhere = {
            u: {c.index for part in ("train", "val", "test")
                for c in synth_split.part(part)[u]}
            for u in synth_split.train
        }
        wins = total = 0
        for u, courses in sorted(synth_split.test.items()):
            learner = EntityRef("learner", u)
            for course in courses:
                f_pos = synth_table.score(learner, "enrolled", course)
                while True:
                    j = int(rng.integers(synth_kg.n_entities("course")))
                    if j not in enrolled_anywhere[u]:
                        break
                f_neg = synth_table.score(learner, "enrolled", EntityRef("course", j))
                wins += f_pos > f_neg
                total += 1
        assert wins / total >= 0.90

    def test_zero_learning_rate_is_identity(self, tiny_kg):
        cfg = EmbedConfig(d=4, epochs=3, learning_rate=0.0, seed=0, batch_size=4)
        table, _ = train_embeddings(tiny_kg, cfg)
        init = init_embeddings(tiny_kg, cfg)
        for etype in init.entity:
            np.testing.assert_array_equal(table.entity[etype], init.entity[etype])

    def test_deterministic(self):
        kg = random_kg(n_triples=60)
        cfg = EmbedConfig(d=6, epochs=5, seed=9, batch_size=16)
        a, _ = train_embeddings(kg, cfg)
        b, _ = train_embeddings(kg, cfg)
        for etype in a.entity:
            np.testing.assert_array_equal(a.entity[etype], b.entity[etype])
        for rel in a.relation:
            np.testing.assert_array_equal(a.relation[rel], b.relation[rel])


class TestNegatives:
    def test_one_draw_equals_per_row_draws(self):
        # mixed tail sizes, including 1, powers of two and odd sizes
        tail_sizes = [7, 1, 300, 2, 64, 5, 1, 1025, 3, 300]
        m = 5
        one, per_row = np.random.default_rng([3, 1]), np.random.default_rng([3, 1])
        got = draw_negatives(one, tail_sizes, m)
        want = np.stack([per_row.integers(0, n, size=m) for n in tail_sizes])
        assert got.shape == (len(tail_sizes), m)
        np.testing.assert_array_equal(got, want)
        assert one.random() == per_row.random()

    def test_rows_stay_within_their_tail_type(self):
        tail_sizes = [2, 9, 1, 40]
        got = draw_negatives(np.random.default_rng(0), tail_sizes, 50)
        assert np.all(got >= 0)
        assert np.all(got < np.array(tail_sizes)[:, None])


class TestGradCheck:
    def test_max_relative_error_under_1e4(self):
        err = grad_check_embeddings(EmbedConfig(d=6, seed=3), sample_size=100)
        assert err <= 1e-4

    def test_other_seed_and_dimension(self):
        err = grad_check_embeddings(EmbedConfig(d=3, seed=8), sample_size=60)
        assert err <= 1e-4


def spread_params(kg, d, seed):
    """Initial tensors with added noise, so that gradients are not all tiny."""
    table = init_embeddings(kg, EmbedConfig(d=d, seed=seed))
    params = {**table.entity, **table.relation}
    rng = np.random.default_rng([seed, 9])
    return {key: arr + rng.normal(scale=0.3, size=arr.shape) for key, arr in params.items()}


def assert_matches_reference(kg, batch, negatives, d):
    params = spread_params(kg, d, seed=d)
    ref_loss, ref_grads = reference_batch_loss_and_grads(params, batch, negatives)
    W, rows, neg_rows = to_rows(params, batch, negatives)
    loss, grad = batch_loss_and_grads(W, rows, neg_rows)
    assert loss == ref_loss
    assert grad.shape == W.shape
    got = from_rows(grad, params)
    assert got.keys() == ref_grads.keys()
    for key, want in ref_grads.items():
        np.testing.assert_array_equal(got[key], want, err_msg=key)


@pytest.mark.parametrize("d", [3, 24, 100])
class TestFlatMatrixGradient:
    """One gather and one bincount over the stacked matrix W add every
    gradient bin's terms in the order of the per-tensor `np.add.at`
    reference, so loss and gradients are bit-equal to it."""

    kg = make_tiny_kg(with_school=True)
    triples = _canonical_triples(kg)

    def negatives_for(self, batch, m=5, seed=0):
        sizes = [self.kg.n_entities(relation_types(RELATIONS[r])[1]) for r in batch[:, 0]]
        return draw_negatives(np.random.default_rng(seed), sizes, m)

    def test_one_relation_only(self, d):
        batch = self.triples[self.triples[:, 0] == RELATIONS.index("enrolled")]
        assert_matches_reference(self.kg, batch, self.negatives_for(batch), d)

    def test_all_relations_shuffled(self, d):
        batch = self.triples[np.random.default_rng(1).permutation(len(self.triples))]
        assert set(batch[:, 0]) == set(range(len(RELATIONS)))
        assert_matches_reference(self.kg, batch, self.negatives_for(batch), d)

    def test_one_course_as_head_tail_and_negative(self, d):
        course = 2
        r_of = RELATIONS.index
        picks = [
            (r_of("teaches"), 1, course),  # tail
            (r_of("has_concept"), course, 0),  # head
            (r_of("enrolled"), 0, course),  # tail
            (r_of("belongs_to"), course, 1),  # head
            (r_of("provides"), 0, 3),
        ]
        batch = np.array(picks, dtype=np.int64)
        negatives = self.negatives_for(batch, m=3)
        for i, (r, _h, _t) in enumerate(picks):
            if relation_types(RELATIONS[r])[1] == "course":
                negatives[i, 1] = course
        assert_matches_reference(self.kg, batch, negatives, d)

    def test_repeated_negatives_and_triples(self, d):
        batch = np.concatenate([self.triples, self.triples[::3]])
        negatives = np.zeros((len(batch), 4), dtype=np.int64)  # tail 0 of every type, 4 times
        assert_matches_reference(self.kg, batch, negatives, d)

    def test_ragged_last_batch(self, d):
        order = np.random.default_rng(5).permutation(len(self.triples))
        batch = self.triples[order[-(len(self.triples) % 8) :]]
        assert 0 < len(batch) < 8
        assert_matches_reference(self.kg, batch, self.negatives_for(batch), d)


def assert_trainer_matches_reference(kg, cfg):
    table, losses = train_embeddings(kg, cfg)
    params, ref_losses = reference_train_embeddings(kg, cfg)
    assert losses == ref_losses
    for etype, arr in table.entity.items():
        np.testing.assert_array_equal(arr, params[etype], err_msg=etype)
    for rel, vec in table.relation.items():
        np.testing.assert_array_equal(vec, params[rel], err_msg=rel)


class TestFlatMatrixTrainer:
    def test_three_epochs_equal_per_tensor_reference(self):
        kg = generate(SynthConfig(n_learners=24, n_courses=18, seed=2))
        assert_trainer_matches_reference(
            kg, EmbedConfig(d=16, epochs=3, learning_rate=5e-3, batch_size=64, seed=4)
        )

    @pytest.mark.parametrize("batch_size", [1, 7, 10_000])
    def test_batch_sizes_equal_reference(self, batch_size):
        kg = make_tiny_kg(with_school=True)
        assert len(_canonical_triples(kg)) % 7 != 0 and len(_canonical_triples(kg)) < 10_000
        assert_trainer_matches_reference(
            kg, EmbedConfig(d=5, epochs=3, learning_rate=1e-2, batch_size=batch_size, seed=1)
        )

    def test_second_call_leaves_first_table_alone(self):
        kg = make_tiny_kg(with_school=True)
        first, _ = train_embeddings(kg, EmbedConfig(d=6, epochs=2, batch_size=8, seed=0))
        before = {key: arr.copy() for key, arr in {**first.entity, **first.relation}.items()}
        train_embeddings(kg, EmbedConfig(d=6, epochs=2, batch_size=8, seed=0))
        train_embeddings(kg, EmbedConfig(d=6, epochs=2, batch_size=3, seed=5))
        for key, arr in {**first.entity, **first.relation}.items():
            np.testing.assert_array_equal(arr, before[key], err_msg=key)

    def test_huge_learning_rate_diverges(self):
        kg = make_tiny_kg(with_school=True)
        cfg = EmbedConfig(d=4, epochs=3, learning_rate=1e300, batch_size=4, seed=0)
        with pytest.raises(DivergenceError, match="non-finite loss at epoch 1"):
            train_embeddings(kg, cfg)


class TestCheckpoint:
    def test_roundtrip_exact(self, tiny_kg, tmp_path):
        cfg = EmbedConfig(d=5, seed=4)
        table = init_embeddings(tiny_kg, cfg)
        p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
        save_embeddings(table, str(p1), cfg)
        loaded, loaded_cfg = load_embeddings(str(p1))
        assert loaded_cfg == cfg
        save_embeddings(loaded, str(p2), loaded_cfg)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(
            loaded.entity["course"], table.entity["course"].astype(np.float32).astype(np.float64)
        )

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.emb"
        path.write_bytes(b"something else\n")
        with pytest.raises(DataError):
            load_embeddings(str(path))

    def test_non_utf8_magic_is_data_error(self, tiny_kg, tmp_path):
        cfg = EmbedConfig(d=4, seed=0)
        path = tmp_path / "e.emb"
        save_embeddings(init_embeddings(tiny_kg, cfg), str(path), cfg)
        with pytest.raises(DataError, match=r"e\.emb: not a UPGPR-EMB v1 file"):
            load_embeddings(put_bad_byte(path, 3))

    def test_declared_size_past_end_is_data_error(self, tiny_kg, tmp_path):
        cfg = EmbedConfig(d=4, seed=0)
        path = tmp_path / "e.emb"
        save_embeddings(init_embeddings(tiny_kg, cfg), str(path), cfg)
        data = bytearray(path.read_bytes())
        header = data.index(b"\n", data.index(b"\n") + 1) + 1
        # magic and echo lines, <II d and type count, <H name length, then
        # the first type's <I row count: make its top byte 0x7f
        data[header + 8 + 2 + 3] = 0x7F
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="declares .* bytes"):
            load_embeddings(str(path))

    def test_config_echo_out_of_range_is_data_error(self, tiny_kg, tmp_path):
        cfg = EmbedConfig(d=4, seed=0)
        path = tmp_path / "e.emb"
        save_embeddings(init_embeddings(tiny_kg, cfg), str(path), cfg)
        data = path.read_bytes()
        path.write_bytes(data.replace(b'"batch_size": 512', b'"batch_size": -12', 1))
        with pytest.raises(DataError, match="corrupt embedding checkpoint"):
            load_embeddings(str(path))

    def test_non_finite_value_is_data_error(self, tiny_kg, tmp_path):
        # one flipped exponent bit turns a value in [1, 2) into inf or NaN, and
        # the file stays well-formed
        cfg = EmbedConfig(d=4, seed=0)
        path = tmp_path / "e.emb"
        save_embeddings(init_embeddings(tiny_kg, cfg), str(path), cfg)
        path.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", float("nan")))
        with pytest.raises(DataError, match=r"e\.emb contains non-finite values"):
            load_embeddings(str(path))

    @given(at=st.integers(0, 10_000), bit=st.integers(0, 7))
    @settings(max_examples=500)
    def test_bit_flip_raises_only_typed_errors(self, fuzz_dir, at, bit):
        cfg = EmbedConfig(d=4, seed=0)
        path = fuzz_dir / "e.emb"
        save_embeddings(init_embeddings(make_tiny_kg(), cfg), str(path), cfg)
        try:
            load_embeddings(flip_bit(path, at, bit))
        except (DataError, CheckpointMismatchError):
            pass

    def test_matches_graph(self, tiny_kg, synth_kg):
        table = init_embeddings(tiny_kg, EmbedConfig(d=4, seed=0))
        assert table.matches(tiny_kg)
        assert not table.matches(synth_kg)

    def test_desk_table_finite(self, synth_table):
        synth_table.check_finite()
        assert synth_table.d == DESK_EMBED.d
