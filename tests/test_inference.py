import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from pathrec.policy import (
    AgentConfig, action_queries, init_policy, policy_forward, state_features,
)
from pathrec.schema import SELF_LOOP, EntityRef
from pathrec.synthetic import SynthConfig, generate

from conftest import GOLDEN_SCORE_ABS, flip_bit, make_tiny_kg, put_bad_byte
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
BENCHMARK_WIDTHS = ((25, 10, 10), (25, 5, 5, 5, 1))

# Beam search scores a level's states with one batched hidden layer and sums
# each action set's softmax as a segment, so its log-probabilities round
# differently from the per-prefix oracle's one-state `policy_forward`: by a few
# ulp per hop (at most 5.3e-15 seen on the benchmark graphs). A path score sums
# at most 5 hops of order 1-10, so 1e-12 leaves two orders of magnitude of room
# and is still far below any score gap that could reorder a list. Paths and
# their order must match exactly.
BEAM_SCORE_ABS = 1e-12


def assert_matches_oracle(got, want):
    assert [path for path, _ in got] == [path for path, _ in want]
    worst = max((abs(a - b) for (_, a), (_, b) in zip(got, want)), default=0.0)
    assert worst <= BEAM_SCORE_ABS, worst


def synth_setup(history, d=6, hidden=8):
    """A small generated graph, untrained embeddings and an untrained policy."""
    kg = generate(SynthConfig(
        n_learners=12, n_courses=15, n_teachers=3, n_categories=2, n_concepts=5, n_clusters=2,
    ))
    table = init_embeddings(kg, EmbedConfig(d=d, seed=2))
    env = PathEnv(kg, table, max_actions=250, history_len=history)
    params = init_policy(d, AgentConfig(hidden=hidden, history=history, seed=3))
    return kg, env, params


# beam search at PGPR width (d=100, hidden 512) on the generated graph; prints
# each returned path's hops and score as JSON
BEAM_SCRIPT = """
import json
import numpy as np
from pathrec.embeddings import EmbedConfig, init_embeddings
from pathrec.environment import PathEnv
from pathrec.inference import beam_search
from pathrec.policy import AgentConfig, init_policy
from pathrec.synthetic import SynthConfig, generate

kg = generate(SynthConfig(
    n_learners=12, n_courses=15, n_teachers=3, n_categories=2, n_concepts=5, n_clusters=2,
))
env = PathEnv(kg, init_embeddings(kg, EmbedConfig(d=100, seed=2)), 250, 1)
params = init_policy(100, AgentConfig(hidden=512, seed=3))
params["b1"] = np.random.default_rng(4).normal(0.0, 0.5, 512)
out = [
    [[[rel, ent.entity_type, ent.index] for rel, ent in path.hops], score]
    for learner in kg.learners()[:4]
    for path, score in beam_search(learner, env, params, (25, 10, 10))
]
print(json.dumps(out))
"""


def beam_in_subprocess(blas_threads: str) -> list:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads, "OMP_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", BEAM_SCRIPT], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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
                assert_matches_oracle(
                    beam_search(learner, env, params, widths),
                    reference_beam_search(learner, env, params, widths),
                )

    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_equals_per_prefix_reference_on_five_hops(self, history):
        kg, env, params = synth_setup(history)
        for learner in kg.learners()[:4]:
            assert_matches_oracle(
                beam_search(learner, env, params, FIVE_HOPS),
                reference_beam_search(learner, env, params, FIVE_HOPS),
            )

    @pytest.mark.parametrize("widths", BENCHMARK_WIDTHS)
    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_equals_per_prefix_reference_at_benchmark_widths(self, history, widths):
        kg, env, params = synth_setup(history)
        for learner in kg.learners()[:3]:
            assert_matches_oracle(
                beam_search(learner, env, params, widths),
                reference_beam_search(learner, env, params, widths),
            )

    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_one_batched_forward_per_level(self, monkeypatch, history):
        kg, env, params = synth_setup(history)
        calls = []

        def counting_queries(params, features):
            calls.append(features.shape[0])
            return action_queries(params, features)

        monkeypatch.setattr(inference, "action_queries", counting_queries)
        monkeypatch.setattr(inference, "policy_forward", None)  # not used by the beam
        beam_search(kg.learners()[0], env, params, FIVE_HOPS)
        assert len(calls) == len(FIVE_HOPS)

    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_one_forward_pass_per_distinct_state(self, monkeypatch, history):
        kg, env, params = synth_setup(history)
        learner = kg.learners()[0]
        rows = []

        def counting_queries(params, features):
            rows.append(features.shape[0])
            return action_queries(params, features)

        monkeypatch.setattr(inference, "action_queries", counting_queries)
        paths = beam_search(learner, env, params, FIVE_HOPS)
        # every prefix keeps at least its self-loop, so the prefixes of level
        # k are exactly the distinct k-hop heads of the returned paths
        for k in range(len(FIVE_HOPS)):
            heads = {path.hops[:k] for path, _ in paths}
            states = set()
            for hops in heads:
                state = env.initial_state(learner, len(FIVE_HOPS))
                for action in hops:
                    state = env.step(state, action)
                states.add((state.current, state.history))
            assert rows[k] == len(states) <= len(heads), k
        assert sum(rows) < sum(len({p.hops[:k] for p, _ in paths}) for k in range(len(FIVE_HOPS)))

    def test_same_paths_at_one_and_two_blas_threads(self):
        # a batched hidden layer is a GEMM, which OpenBLAS may split across
        # threads; the split must not change a path, and may move a score by
        # rounding only
        runs = [beam_in_subprocess(threads) for threads in ("1", "2")]
        assert [path for path, _ in runs[0]] == [path for path, _ in runs[1]]
        assert [score for _, score in runs[0]] == pytest.approx(
            [score for _, score in runs[1]], rel=0, abs=GOLDEN_SCORE_ABS
        )

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
    @pytest.mark.parametrize("widths", [(10, 10, 10), *BENCHMARK_WIDTHS])
    def test_lists_equal_oracle_ranking(self, widths):
        kg, env, params = synth_setup(history=1)
        train = {u.index: frozenset({u.index % 15, (3 * u.index) % 15}) for u in kg.learners()}
        lists, _ = recommend_all(kg.learners(), env, params, train, widths, n=5)
        for learner in kg.learners():
            oracle = rank_candidates(
                reference_beam_search(learner, env, params, widths), learner, train[learner.index], 5
            )
            got = lists[learner.index]
            assert got.courses() == oracle.courses()
            assert [i.best_path for i in got.items] == [i.best_path for i in oracle.items]
            for item, want in zip(got.items, oracle.items):
                assert abs(item.score - want.score) <= BEAM_SCORE_ABS

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


@pytest.fixture(scope="module")
def tiny_recs(tmp_path_factory):
    """The tiny graph and the bytes of its learners' saved recommendations."""
    kg, env, params = tiny_setup()
    lists, _ = recommend_all([L(i) for i in range(4)], env, params, TRAIN, (10, 10, 10), n=5)
    path = tmp_path_factory.mktemp("recs") / "recs.jsonl"
    write_recommendations(lists, kg, str(path))
    return kg, path.read_bytes()


def edit_first_item(path, **fields):
    """Rewrite the first line's first item with the given fields replaced."""
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[0])
    obj["items"][0].update(fields)
    lines[0] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestRecommendationLoaderFaults:
    @pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf"), "NaN"])
    def test_non_finite_score_is_data_error(self, tiny_recs, tmp_path, score):
        kg, data = tiny_recs
        path = tmp_path / "recs.jsonl"
        path.write_bytes(data)
        with pytest.raises(DataError, match=r"recs\.jsonl:1: .*not finite"):
            load_recommendations(edit_first_item(path, score=score), kg, n=5)

    def test_path_ending_elsewhere_is_data_error(self, tiny_recs, tmp_path):
        kg, data = tiny_recs
        path = tmp_path / "recs.jsonl"
        path.write_bytes(data)
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])["items"][0]
        assert first["path"], "the first item needs an explanation path"
        other = next(c for c in kg.vocab["course"] if c != first["course"])
        with pytest.raises(DataError, match=r"recs\.jsonl:1: .*not at the item's course"):
            load_recommendations(edit_first_item(path, course=other), kg, n=5)

    @given(at=st.integers(0, 10_000), bit=st.integers(0, 7))
    @settings(max_examples=300)
    def test_bit_flip_raises_only_data_error(self, tiny_recs, fuzz_dir, at, bit):
        kg, data = tiny_recs
        path = fuzz_dir / "recs.jsonl"
        path.write_bytes(data)
        try:
            load_recommendations(flip_bit(path, at, bit), kg, n=5)
        except DataError:
            pass
