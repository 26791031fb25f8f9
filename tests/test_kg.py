import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrec.errors import ConfigError, DataError
from pathrec.kg import (
    KnowledgeGraph,
    filter_learners,
    ingest,
    kg_composition,
    load_graph,
    load_split,
    save_graph,
    save_split,
    split_enrollments,
    training_graph,
)
from pathrec.schema import (
    ACTION_RELATIONS, ENTITY_TYPES, FORWARD_RELATIONS, EntityRef, inverse_of, relation_types,
)

from conftest import flip_bit, make_tiny_kg, put_bad_byte
from oracles import reference_adjacency


def write_tsv(path, rows):
    path.write_text("".join(f"{a}\t{b}\n" for a, b in rows), encoding="utf-8")
    return str(path)


@contextmanager
def time_limit(seconds: float):
    """Fail a call that does not return in time instead of hanging the suite."""

    def _expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestIngest:
    def test_duplicate_lines_collapse(self, tmp_path):
        f = write_tsv(tmp_path / "enrollments.tsv", [("u1", "c1"), ("u1", "c1"), ("u2", "c1")])
        kg = ingest({"enrolled": f})
        assert len(kg.edges["enrolled"]) == 2
        # each forward edge has its inverse in the adjacency
        c1 = kg.entity("course", "c1")
        assert sorted(kg.neighbors(c1)) == [
            ("enrolled_inv", kg.entity("learner", "u1")),
            ("enrolled_inv", kg.entity("learner", "u2")),
        ]

    def test_inversion_closure_for_teaches(self, tmp_path):
        f = write_tsv(tmp_path / "teaches.tsv", [("t1", "c1")])
        kg = ingest({"teaches": f})
        c1 = kg.entity("course", "c1")
        assert ("teaches_inv", kg.entity("teacher", "t1")) in kg.neighbors(c1)

    def test_malformed_line_names_file_and_lineno(self, tmp_path):
        path = tmp_path / "enrollments.tsv"
        path.write_text("u1\tc1\nu2\tc1\textra\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"enrollments\.tsv:2"):
            ingest({"enrolled": str(path)})

    def test_non_utf8_byte_is_data_error(self, tmp_path):
        path = tmp_path / "enrollments.tsv"
        write_tsv(path, [("u1", "c1"), ("u2", "c1")])
        with pytest.raises(DataError, match=r"enrollments\.tsv: not UTF-8"):
            ingest({"enrolled": put_bad_byte(path, 7)})

    def test_unknown_relation_rejected(self, tmp_path):
        f = write_tsv(tmp_path / "x.tsv", [("a", "b")])
        with pytest.raises(ConfigError, match="likes"):
            ingest({"likes": f})

    def test_two_ingestions_serialize_identically(self, tmp_path):
        rows = [("u2", "c9"), ("u1", "c3"), ("u2", "c3")]
        f = write_tsv(tmp_path / "enrollments.tsv", rows)
        t = write_tsv(tmp_path / "teaches.tsv", [("t1", "c3"), ("t2", "c9")])
        out1, out2 = tmp_path / "a.kg", tmp_path / "b.kg"
        save_graph(ingest({"enrolled": f, "teaches": t}), str(out1))
        save_graph(ingest({"enrolled": f, "teaches": t}), str(out2))
        assert out1.read_bytes() == out2.read_bytes()


class TestGraphInvariants:
    def test_inversion_closure_exhaustive(self, tiny_kg):
        triples = list(tiny_kg.iter_triples())
        for head, rel, tail in triples:
            assert tiny_kg.has_triple(tail, inverse_of(rel), head)

    def test_no_duplicate_adjacency_entries(self, tiny_kg):
        for ref in [*tiny_kg.learners(), *tiny_kg.courses()]:
            edges = tiny_kg.neighbors(ref)
            assert len(edges) == len(set(edges))

    @given(
        st.sets(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=20
        ),
        st.sets(st.tuples(st.integers(0, 2), st.integers(0, 5)), max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_closure_on_random_graphs(self, enrolled, teaches):
        vocab = {
            "learner": [f"u{i}" for i in range(6)],
            "course": [f"c{i}" for i in range(6)],
            "teacher": [f"t{i}" for i in range(3)],
        }
        kg = KnowledgeGraph(vocab, {"enrolled": enrolled, "teaches": teaches})
        for head, rel, tail in kg.iter_triples():
            assert kg.has_triple(tail, inverse_of(rel), head)

    def test_walk_parity_alternates_course(self, tiny_kg):
        rng = np.random.default_rng(0)
        for _ in range(200):
            current = EntityRef("learner", int(rng.integers(4)))
            for hops in range(1, 5):
                edges = tiny_kg.neighbors(current)
                if not edges:
                    break
                _rel, current = edges[int(rng.integers(len(edges)))]
                assert (current.entity_type == "course") == (hops % 2 == 1)


class TestNeighbors:
    def test_canonical_order(self, tmp_path):
        e = write_tsv(tmp_path / "enrollments.tsv", [("u1", "c1")])
        t = write_tsv(tmp_path / "teaches.tsv", [("t1", "c1")])
        kg = ingest({"enrolled": e, "teaches": t})
        c1 = kg.entity("course", "c1")
        assert kg.neighbors(c1) == (
            ("enrolled_inv", kg.entity("learner", "u1")),
            ("teaches_inv", kg.entity("teacher", "t1")),
        )
        u1 = kg.entity("learner", "u1")
        assert kg.neighbors(u1) == (("enrolled", kg.entity("course", "c1")),)

    def test_isolated_entity_and_unknown(self, tiny_kg):
        orphan = KnowledgeGraph(tiny_kg.vocab, {**tiny_kg.edges, "teaches": set()})
        assert orphan.neighbors(EntityRef("teacher", 0)) == ()
        with pytest.raises(KeyError):
            tiny_kg.neighbors(EntityRef("learner", 99))


@st.composite
def random_graphs(draw):
    """A graph of 0-4 entities per type, with up to 10 edges per relation."""
    sizes = {etype: draw(st.integers(0, 4)) for etype in ENTITY_TYPES}
    edges = {}
    for rel, (h_type, t_type) in FORWARD_RELATIONS.items():
        if sizes[h_type] and sizes[t_type]:
            edges[rel] = draw(st.sets(
                st.tuples(st.integers(0, sizes[h_type] - 1), st.integers(0, sizes[t_type] - 1)),
                max_size=10,
            ))
    vocab = {etype: [f"{etype}{i}" for i in range(n)] for etype, n in sizes.items()}
    return KnowledgeGraph(vocab, edges)


class TestEntityIds:
    def test_entity_of_rejects_a_negative_id(self, tiny_kg):
        assert tiny_kg.entity_of(0) == EntityRef("category", 0)
        with pytest.raises(KeyError):
            tiny_kg.entity_of(-1)

    def test_entity_of_rejects_the_id_past_the_last(self, tiny_kg):
        assert tiny_kg.entity_of(tiny_kg.n_ids - 1) == EntityRef("teacher", 1)
        with pytest.raises(KeyError):
            tiny_kg.entity_of(tiny_kg.n_ids)


class TestCsrAdjacency:
    @given(random_graphs())
    @settings(max_examples=40)
    def test_lookups_equal_the_tuple_adjacency(self, kg):
        adj = reference_adjacency(kg)
        entities = [EntityRef(t, i) for t in ENTITY_TYPES for i in range(kg.n_entities(t))]
        assert [kg.entity_of(kg.entity_id(ref)) for ref in entities] == entities
        for head in entities:
            assert kg.neighbors(head) == adj.get(head, ())
        # tails of every type, and one index past each type's last
        tails = entities + [EntityRef(t, kg.n_entities(t)) for t in ENTITY_TYPES]
        for head in entities:
            edges = set(adj.get(head, ()))
            for rel in ACTION_RELATIONS:
                for tail in tails:
                    assert kg.has_triple(head, rel, tail) == ((rel, tail) in edges)
        triples = list(kg.iter_triples())
        assert len(triples) == len(set(triples))
        assert set(triples) == {(h, rel, t) for h, edges in adj.items() for rel, t in edges}

    @given(
        random_graphs(), st.sampled_from(sorted(FORWARD_RELATIONS)), st.booleans(),
        st.sampled_from([-1, -(2**70), 0, 1, 2**64]),
    )
    @settings(max_examples=40)
    def test_edge_outside_the_vocabulary_is_a_data_error(self, kg, rel, on_head, bad):
        # bad is an offset past the vocabulary's end, or itself when negative
        h_type, t_type = relation_types(rel)
        bad = bad if bad < 0 else kg.n_entities(h_type if on_head else t_type) + bad
        edge = (bad, 0) if on_head else (0, bad)
        with pytest.raises(DataError, match=rel):
            KnowledgeGraph(kg.vocab, {**kg.edges, rel: {*kg.edges[rel], edge}})


class TestFilterLearners:
    def _kg_with_counts(self, counts):
        vocab = {
            "learner": [f"u{i}" for i in range(len(counts))],
            "course": [f"c{i}" for i in range(max(counts))],
        }
        enrolled = {(u, c) for u, n in enumerate(counts) for c in range(n)}
        return KnowledgeGraph(vocab, {"enrolled": enrolled})

    def test_nine_removed_ten_retained(self):
        kg = self._kg_with_counts([9, 10, 12])
        out = filter_learners(kg, 10)
        assert out.vocab["learner"] == ["u1", "u2"]
        assert all(c >= 10 for c in out.enrollment_counts())

    def test_min_zero_is_identity(self):
        kg = self._kg_with_counts([3, 1])
        assert filter_learners(kg, 0) == kg

    def test_idempotent(self):
        kg = self._kg_with_counts([9, 10, 3, 15])
        once = filter_learners(kg, 10)
        assert filter_learners(once, 10) == once

    def test_orphans_retained(self):
        kg = self._kg_with_counts([9, 2])
        out = filter_learners(kg, 5)
        assert out.vocab["course"] == kg.vocab["course"]

    def test_negative_threshold(self, tiny_kg):
        with pytest.raises(ConfigError):
            filter_learners(tiny_kg, -1)

    @pytest.mark.parametrize("value", [2.5, 10.0, True, -1])
    def test_threshold_that_is_not_a_count_is_config_error(self, tiny_kg, value):
        # unchecked, 2.5 filtered as if it were 3
        with pytest.raises(ConfigError, match="min_enrollments must be an integer >= 0"):
            filter_learners(tiny_kg, value)


class TestSplit:
    def _kg_one_learner(self, n):
        vocab = {"learner": ["u0"], "course": [f"c{i}" for i in range(n)]}
        return KnowledgeGraph(vocab, {"enrolled": {(0, c) for c in range(n)}})

    def test_floor_rule_n10(self):
        split = split_enrollments(self._kg_one_learner(10), seed=0)
        assert (len(split.train[0]), len(split.validation[0]), len(split.test[0])) == (8, 1, 1)

    def test_floor_rule_n5(self):
        split = split_enrollments(self._kg_one_learner(5), seed=0)
        assert (len(split.train[0]), len(split.validation[0]), len(split.test[0])) == (5, 0, 0)

    def test_deterministic_and_seed_sensitive(self, synth_kg):
        a = split_enrollments(synth_kg, seed=3)
        b = split_enrollments(synth_kg, seed=3)
        c = split_enrollments(synth_kg, seed=4)
        assert a == b
        assert any(a.train[u] != c.train[u] for u in a.train)

    def test_partition_property(self, synth_kg, synth_split):
        for learner in synth_kg.learners():
            u = learner.index
            enrolled = {t for r, t in synth_kg.neighbors(learner) if r == "enrolled"}
            parts = [set(synth_split.train[u]), set(synth_split.validation[u]),
                     set(synth_split.test[u])]
            assert parts[0] | parts[1] | parts[2] == enrolled
            assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
            assert len(parts[0]) >= 1

    def test_zero_enrollment_learner_rejected(self):
        vocab = {"learner": ["u0", "u1"], "course": ["c0"]}
        kg = KnowledgeGraph(vocab, {"enrolled": {(0, 0)}})
        with pytest.raises(DataError, match="u1"):
            split_enrollments(kg, seed=0)

    def test_bad_ratios(self, tiny_kg):
        with pytest.raises(ConfigError):
            split_enrollments(tiny_kg, ratios=(0.5, 0.2, 0.2), seed=0)

    def test_training_graph_keeps_side_relations(self, synth_kg, synth_split):
        tg = training_graph(synth_kg, synth_split)
        assert tg.edges["teaches"] == synth_kg.edges["teaches"]
        assert tg.edges["enrolled"] == synth_split.enrollment_pairs("train")

    def test_load_non_utf8_byte_is_data_error(self, tmp_path):
        kg, path = make_tiny_kg(), tmp_path / "split.tsv"
        save_split(split_enrollments(kg, seed=0), kg, str(path))
        with pytest.raises(DataError, match=r"split\.tsv: not UTF-8"):
            load_split(put_bad_byte(path, 1), kg)

    @pytest.mark.parametrize("again", ["train", "test"])
    def test_load_rejects_a_pair_listed_twice(self, tmp_path, again):
        # a course listed as training and as test would be scored against while
        # the agent trains on it
        kg, path = make_tiny_kg(), tmp_path / "split.tsv"
        save_split(split_enrollments(kg, seed=0), kg, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        learner, _part, course = lines[0].split("\t")
        lines.append(f"{learner}\t{again}\t{course}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"split\.tsv:{len(lines)}: .* line 1"):
            load_split(str(path), kg)

    def test_load_rejects_a_pair_that_is_not_an_enrollment(self, tmp_path):
        # unchecked, the line loaded and made c3 u0's only test course
        kg, path = make_tiny_kg(), tmp_path / "split.tsv"
        assert (kg.entity("learner", "u0").index, kg.entity("course", "c3").index) not in (
            kg.edges["enrolled"]
        )
        save_split(split_enrollments(kg, seed=0), kg, str(path))
        lines = [*path.read_text(encoding="utf-8").splitlines(), "u0\ttest\tc3"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"split\.tsv:{len(lines)}: u0 is not enrolled in c3"):
            load_split(str(path), kg)

    def test_save_load_roundtrip(self, synth_kg, synth_split, tmp_path):
        path = tmp_path / "split.tsv"
        save_split(synth_split, synth_kg, str(path))
        loaded = load_split(str(path), synth_kg)
        assert loaded.train == synth_split.train
        assert loaded.validation == synth_split.validation
        assert loaded.test == synth_split.test


class TestComposition:
    def test_manual_fraction(self):
        vocab = {"learner": ["u0"], "course": ["c0", "c1", "c2"], "teacher": ["t0"]}
        kg = KnowledgeGraph(
            vocab, {"enrolled": {(0, 0), (0, 1), (0, 2)}, "teaches": {(0, 0)}}
        )
        comp = kg_composition(kg)
        assert comp == {"enrolled": 0.75, "teaches": 0.25}

    def test_only_enrollments(self):
        vocab = {"learner": ["u0"], "course": ["c0"]}
        kg = KnowledgeGraph(vocab, {"enrolled": {(0, 0)}})
        assert kg_composition(kg) == {"enrolled": 1.0}

    def test_fractions_sum_to_one(self, synth_kg):
        assert math.isclose(sum(kg_composition(synth_kg).values()), 1.0, abs_tol=1e-9)

    def test_empty_graph_errors(self):
        kg = KnowledgeGraph({"learner": ["u0"], "course": ["c0"]}, {})
        with pytest.raises(DataError):
            kg_composition(kg)


class TestSerialization:
    def test_byte_identical_roundtrip(self, tiny_kg, tmp_path):
        p1, p2 = tmp_path / "g1.kg", tmp_path / "g2.kg"
        save_graph(tiny_kg, str(p1))
        loaded = load_graph(str(p1))
        assert loaded == tiny_kg
        save_graph(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_header(self, tiny_kg, tmp_path):
        path = tmp_path / "g.kg"
        save_graph(tiny_kg, str(path))
        assert path.read_text(encoding="utf-8").startswith("UPGPR-KG v1\n")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.kg"
        path.write_text("not a graph\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_graph(str(path))

    def test_synth_roundtrip(self, synth_kg, tmp_path):
        path = tmp_path / "synth.kg"
        save_graph(synth_kg, str(path))
        assert load_graph(str(path)) == synth_kg

    def _corrupt(self, tiny_kg, tmp_path, old, new):
        path = tmp_path / "g.kg"
        save_graph(tiny_kg, str(path))
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        return str(path)

    def test_negative_section_count_is_data_error(self, tiny_kg, tmp_path):
        path = self._corrupt(tiny_kg, tmp_path, "rel\tteaches\t6", "rel\tteaches\t-1")
        with time_limit(5), pytest.raises(DataError, match="declares -1"):
            load_graph(path)

    @pytest.mark.parametrize("old, new", [
        ("vocab\tlearner\t", "vocab\tlerner\t"),
        ("rel\tteaches\t", "rel\tteach\t"),
    ])
    def test_misspelled_section_name_is_data_error(self, tiny_kg, tmp_path, old, new):
        path = self._corrupt(tiny_kg, tmp_path, old, new)
        with pytest.raises(DataError, match="unexpected section"):
            load_graph(path)

    def test_non_utf8_byte_is_data_error(self, tiny_kg, tmp_path):
        path = tmp_path / "g.kg"
        save_graph(tiny_kg, str(path))
        with pytest.raises(DataError, match=r"g\.kg: not UTF-8"):
            load_graph(put_bad_byte(path, 30))

    def test_repeated_raw_id_is_data_error(self, tiny_kg, tmp_path):
        # accepted, learner 0's raw id would look up learner 1, and its
        # recommendation lines would load as learner 1's
        path = self._corrupt(tiny_kg, tmp_path, "e\tu0\ne\tu1\n", "e\tu1\ne\tu1\n")
        with pytest.raises(DataError, match="learner vocabulary lists a raw id twice"):
            load_graph(path)

    def test_short_section_body_is_data_error(self, tiny_kg, tmp_path):
        path = tmp_path / "g.kg"
        save_graph(tiny_kg, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="declares 6 lines, 5 follow"):
            load_graph(str(path))


SECTION_NAMES = ("learner", "lerner", "course", "teaches", "enrolled", "rel", "vocab", "")


@st.composite
def damaged(draw, lines: list[str]) -> str:
    """The file text after a few truncations, garbled lines and header edits."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("truncate", "garble", "drop", "duplicate", "section")))
        if op == "truncate":
            lines = lines[:i] + [lines[i][: draw(st.integers(0, len(lines[i])))]]
        elif op == "garble":
            lines[i] = draw(st.text(alphabet="\tuc0159-x_ ", max_size=12))
        elif op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        else:
            cols = lines[i].split("\t")
            cols[draw(st.integers(0, len(cols) - 1))] = draw(
                st.sampled_from(SECTION_NAMES) | st.integers(-3, 40).map(str)
            )
            lines[i] = "\t".join(cols)
    return "\n".join(lines) + "\n"


def _only_data_error(load, *args):
    with time_limit(5):
        try:
            load(*args)
        except DataError:
            pass


class TestLoaderFuzz:
    """Damaged graph and split files raise DataError and nothing else."""

    @given(data=st.data())
    @settings(max_examples=200)
    def test_load_graph(self, fuzz_dir, data):
        path = fuzz_dir / "g.kg"
        save_graph(make_tiny_kg(with_school=True), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(data.draw(damaged(lines)), encoding="utf-8")
        _only_data_error(load_graph, str(path))

    @given(data=st.data())
    @settings(max_examples=200)
    def test_load_split(self, fuzz_dir, data):
        kg, path = make_tiny_kg(), fuzz_dir / "split.tsv"
        save_split(split_enrollments(kg, (0.5, 0.25, 0.25), seed=0), kg, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(data.draw(damaged(lines)), encoding="utf-8")
        _only_data_error(load_split, str(path), kg)

    @given(at=st.integers(0, 10_000), bit=st.integers(0, 7))
    @settings(max_examples=100)
    def test_load_graph_bit_flip(self, fuzz_dir, at, bit):
        path = fuzz_dir / "g.kg"
        save_graph(make_tiny_kg(with_school=True), str(path))
        _only_data_error(load_graph, flip_bit(path, at, bit))

    @given(at=st.integers(0, 10_000), bit=st.integers(0, 7))
    @settings(max_examples=100)
    def test_load_split_bit_flip(self, fuzz_dir, at, bit):
        kg, path = make_tiny_kg(), fuzz_dir / "split.tsv"
        save_split(split_enrollments(kg, (0.5, 0.25, 0.25), seed=0), kg, str(path))
        _only_data_error(load_split, flip_bit(path, at, bit), kg)
