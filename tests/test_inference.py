import numpy as np
import pytest

from pathrec import inference
from pathrec.embeddings import EmbedConfig, init_embeddings
from pathrec.environment import Path, PathEnv
from pathrec.errors import ConfigError, DataError
from pathrec.inference import (
    beam_search,
    load_recommendations,
    rank_candidates,
    recommend_all,
    write_recommendations,
)
from pathrec.policy import AgentConfig, init_policy, policy_forward, state_features
from pathrec.schema import SELF_LOOP, EntityRef
from pathrec.synthetic import SynthConfig, generate

from conftest import make_tiny_kg, put_bad_byte
from oracles import enumerate_terminal_courses, reference_beam_search

L = lambda i: EntityRef("learner", i)
C = lambda i: EntityRef("course", i)
T = lambda i: EntityRef("teacher", i)

TRAIN = {0: frozenset({0, 1, 2}), 1: frozenset({0, 1}), 2: frozenset({2, 3}), 3: frozenset({4})}


def tiny_setup(d=4, seed=1, hidden=8):
    kg = make_tiny_kg()
    table = init_embeddings(kg, EmbedConfig(d=d, seed=seed))
    env = PathEnv(kg, table, max_actions=250, history_len=1)
    params = init_policy(d, AgentConfig(hidden=hidden, seed=seed))
    return kg, env, params


FIVE_HOPS = (6, 4, 3, 2, 2)


def synth_setup(history, d=6, hidden=8):
    """A small generated graph, untrained embeddings and an untrained policy."""
    kg = generate(SynthConfig(
        n_learners=12, n_courses=15, n_teachers=3, n_categories=2, n_concepts=5, n_clusters=2,
    ))
    table = init_embeddings(kg, EmbedConfig(d=d, seed=2))
    env = PathEnv(kg, table, max_actions=250, history_len=history)
    params = init_policy(d, AgentConfig(hidden=hidden, history=history, seed=3))
    return kg, env, params


class TestBeamSearch:
    def test_degenerate_beam_is_greedy(self):
        _kg, env, params = tiny_setup()
        results = beam_search(L(0), env, params, (1, 1, 1))
        assert len(results) == 1
        path, logp = results[0]
        # replay greedily and compare
        state = env.initial_state(L(0), 3)
        expected_hops, expected_lp = [], 0.0
        for _ in range(3):
            aset = env.action_set(state.current)
            x = state_features(state, env.embeddings, env.history_len)
            _probs, lp, _h, _b = policy_forward(params, x, aset.matrix)
            best = int(np.argmax(lp))
            expected_hops.append(aset.actions[best])
            expected_lp += float(lp[best])
            state = env.step(state, aset.actions[best])
        assert path.hops == tuple(expected_hops)
        assert logp == pytest.approx(expected_lp)

    def test_path_count_bounded_by_width_product(self):
        _kg, env, params = tiny_setup()
        results = beam_search(L(0), env, params, (25, 5, 1))
        assert len(results) <= 125
        assert all(len(p.hops) == 3 for p, _ in results)

    def test_deterministic(self):
        _kg, env, params = tiny_setup()
        a = beam_search(L(2), env, params, (4, 3, 2))
        b = beam_search(L(2), env, params, (4, 3, 2))
        assert [(p.hops, lp) for p, lp in a] == [(p.hops, lp) for p, lp in b]

    def test_full_width_equals_exhaustive_enumeration(self):
        kg, env, params = tiny_setup()
        cap = 1 + max(len(kg.neighbors(ref)) for ref in env.kg._adjacency)
        for learner in kg.learners():
            beam = beam_search(learner, env, params, (cap, cap, cap))
            beam_courses = {
                p.final_entity.index
                for p, _ in beam
                if p.final_entity.entity_type == "course"
                and p.final_entity.index not in TRAIN[learner.index]
            }
            oracle = enumerate_terminal_courses(env, learner, 3, TRAIN[learner.index])
            assert beam_courses == oracle

    def test_equals_per_prefix_reference_on_tiny_graph(self):
        kg, env, params = tiny_setup()
        cap = 1 + max(len(kg.neighbors(ref)) for ref in env.kg._adjacency)
        for widths in ((cap, cap, cap), (4, 3, 2), (1, 1, 1)):
            for learner in kg.learners():
                assert beam_search(learner, env, params, widths) == reference_beam_search(
                    learner, env, params, widths
                ), (widths, learner)

    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_equals_per_prefix_reference_on_five_hops(self, history):
        kg, env, params = synth_setup(history)
        for learner in kg.learners()[:4]:
            assert beam_search(learner, env, params, FIVE_HOPS) == reference_beam_search(
                learner, env, params, FIVE_HOPS
            ), learner

    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_one_forward_pass_per_distinct_state(self, monkeypatch, history):
        kg, env, params = synth_setup(history)
        learner = kg.learners()[0]
        calls = []

        def counting_forward(*args):
            calls.append(args)
            return policy_forward(*args)

        monkeypatch.setattr(inference, "policy_forward", counting_forward)
        paths = beam_search(learner, env, params, FIVE_HOPS)
        # every prefix keeps at least its self-loop, so the prefixes of level
        # k are exactly the distinct k-hop heads of the returned paths
        n_prefixes = n_states = 0
        for k in range(len(FIVE_HOPS)):
            heads = {path.hops[:k] for path, _ in paths}
            states = set()
            for hops in heads:
                state = env.initial_state(learner, len(FIVE_HOPS))
                for action in hops:
                    state = env.step(state, action)
                states.add((state.current, state.history))
            n_prefixes += len(heads)
            n_states += len(states)
        assert len(calls) == n_states < n_prefixes

    def test_width_mismatch_rejected(self):
        _kg, env, params = tiny_setup()
        with pytest.raises(ConfigError):
            beam_search(L(0), env, params, (5, 5), hop_budget=3)
        with pytest.raises(ConfigError):
            beam_search(L(0), env, params, (5, 0, 5))


class TestRankCandidates:
    def test_all_teacher_terminal_gives_empty_list(self):
        paths = [
            (Path(L(0), (("enrolled", C(0)), ("teaches_inv", T(0)))), -0.5),
            (Path(L(0), (("enrolled", C(1)), ("teaches_inv", T(1)))), -0.1),
        ]
        rec = rank_candidates(paths, L(0), TRAIN[0], n=10)
        assert rec.items == ()
        assert not rec.is_valid

    def test_max_log_prob_kept_per_course(self):
        hops = (("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(3)))
        paths = [(Path(L(0), hops), -1.2), (Path(L(0), hops), -0.7)]
        rec = rank_candidates(paths, L(0), TRAIN[0], n=10)
        assert len(rec.items) == 1
        assert rec.items[0].score == pytest.approx(-0.7)

    def test_train_course_excluded_even_if_best(self):
        paths = [
            (Path(L(0), (("enrolled", C(0)), (SELF_LOOP, C(0)), (SELF_LOOP, C(0)))), -0.01),
            (Path(L(0), (("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(4)))), -2.0),
        ]
        rec = rank_candidates(paths, L(0), TRAIN[0], n=10)
        assert [item.course for item in rec.items] == [C(4)]

    def test_scores_non_increasing_and_courses_distinct(self):
        _kg, env, params = tiny_setup()
        paths = beam_search(L(1), env, params, (10, 10, 10))
        rec = rank_candidates(paths, L(1), TRAIN[1], n=10)
        scores = [item.score for item in rec.items]
        assert scores == sorted(scores, reverse=True)
        courses = [item.course for item in rec.items]
        assert len(set(courses)) == len(courses)
        assert not {c.index for c in courses} & TRAIN[1]

    def test_best_paths_replayable(self, tiny_kg):
        kg, env, params = tiny_setup()
        paths = beam_search(L(0), env, params, (10, 10, 10))
        rec = rank_candidates(paths, L(0), TRAIN[0], n=10)
        for item in rec.items:
            assert item.best_path.start == L(0)
            assert item.best_path.final_entity == item.course
            assert item.best_path.is_valid_in(kg)


class TestRecommendAll:
    def test_invalid_fraction_arithmetic(self):
        _kg, env, params = tiny_setup()
        lists, invalid = recommend_all(
            [L(i) for i in range(4)], env, params, TRAIN, (10, 10, 10), n=2
        )
        expected = sum(1 for rec in lists.values() if len(rec.items) < 2) / 4
        assert invalid == pytest.approx(expected)

    def test_n_larger_than_catalog_all_invalid(self):
        _kg, env, params = tiny_setup()
        _lists, invalid = recommend_all(
            [L(i) for i in range(4)], env, params, TRAIN, (10, 10, 10), n=7
        )
        assert invalid == 1.0  # catalog holds 6 courses, train exclusions bite further


class TestRecommendationIO:
    def test_jsonl_roundtrip(self, tmp_path):
        kg, env, params = tiny_setup()
        lists, _ = recommend_all(
            [L(i) for i in range(4)], env, params, TRAIN, (10, 10, 10), n=5
        )
        path = tmp_path / "recs.jsonl"
        write_recommendations(lists, kg, str(path))
        loaded = load_recommendations(str(path), kg, n=5)
        assert set(loaded) == set(lists)
        for u in lists:
            got, want = loaded[u], lists[u]
            assert got.learner == want.learner
            assert [i.course for i in got.items] == [i.course for i in want.items]
            assert [i.score for i in got.items] == [i.score for i in want.items]
            assert [i.best_path for i in got.items] == [i.best_path for i in want.items]

    def test_non_utf8_byte_is_data_error(self, tmp_path):
        kg, env, params = tiny_setup()
        lists, _ = recommend_all([L(0)], env, params, TRAIN, (10, 10, 10), n=5)
        path = tmp_path / "recs.jsonl"
        write_recommendations(lists, kg, str(path))
        with pytest.raises(DataError, match=r"recs\.jsonl: not UTF-8"):
            load_recommendations(put_bad_byte(path, 5), kg, n=5)
