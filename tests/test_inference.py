import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathrec.policy as policy_module
from pathrec import inference
from pathrec.embeddings import EmbedConfig, init_embeddings
from pathrec.environment import Path, PathEnv
from pathrec.errors import ConfigError, DataError
from pathrec.inference import (
    Beam,
    beam_search,
    load_recommendations,
    rank_candidates,
    recommend_all,
    write_recommendations,
)
from pathrec.policy import AgentConfig, hop_from_preactivation, init_policy, policy_forward
from pathrec.schema import SELF_LOOP, EntityRef
from pathrec.synthetic import SynthConfig, generate

from conftest import GOLDEN_SCORE_ABS, flip_bit, make_tiny_kg, put_bad_byte
from oracles import (
    enumerate_terminal_courses,
    reference_beam_search,
    reference_rank_candidates,
    state_features,
)

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


def beam_of(learner, pairs):
    """A `Beam` holding the given (Path, score) pairs in order, as one chain of
    back-pointers per path, with hop k of path i numbered k * len(pairs) + i;
    the paths must have equal hop counts."""
    (n_hops,) = {len(path.hops) for path, _ in pairs}
    chain = np.arange(len(pairs))
    levels = [
        (chain if k else np.zeros(len(pairs), dtype=np.intp), k * len(pairs) + chain)
        for k in range(n_hops)
    ]
    actions = [path.hops[k] for k in range(n_hops) for path, _ in pairs]
    final_course = np.array([
        path.final_entity.index if path.final_entity.entity_type == "course" else -1
        for path, _ in pairs
    ])
    scores = np.array([score for _, score in pairs], dtype=float)
    return Beam(learner, levels, actions.__getitem__, scores, final_course, 0)


def assert_same_list(got, want):
    assert got.learner == want.learner and got.n == want.n
    assert [(i.course, i.score, i.best_path) for i in got.items] == [
        (i.course, i.score, i.best_path) for i in want.items
    ]


def synth_setup(history, d=6, hidden=8, isolated=None):
    """A small generated graph, untrained embeddings and an untrained policy;
    learner `isolated`, if given, loses its enrollments, so that its only
    action is the self-loop."""
    kg = generate(SynthConfig(
        n_learners=12, n_courses=15, n_teachers=3, n_categories=2, n_concepts=5, n_clusters=2,
    ))
    if isolated is not None:
        kg = kg.replace_enrollments({e for e in kg.edges["enrolled"] if e[0] != isolated})
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
        path, logp = list(results)[0]
        # replay greedily and compare
        state = env.initial_state(L(0), 3)
        expected_hops, expected_lp = [], 0.0
        for _ in range(3):
            aset = env.action_set(state.current)
            x = state_features(state, env.embeddings, env.history_len)
            _probs, lp, _h = policy_forward(params, x, aset.matrix)
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
        cap = 1 + max(len(kg.neighbors(kg.entity_of(e))) for e in range(kg.n_ids))
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
        cap = 1 + max(len(kg.neighbors(kg.entity_of(e))) for e in range(kg.n_ids))
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

    def test_equals_per_prefix_reference_at_pgpr_width(self):
        # d=100 and hidden 512, the benchmarked width, where the tables'
        # first layer sums the most terms in another order than the features'
        kg, env, params = synth_setup(1, d=100, hidden=512)
        learner = kg.learners()[0]
        assert_matches_oracle(
            beam_search(learner, env, params, FIVE_HOPS),
            reference_beam_search(learner, env, params, FIVE_HOPS),
        )

    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_one_batched_forward_per_level(self, monkeypatch, history):
        kg, env, params = synth_setup(history)
        calls = []

        def counting_forward(params, pre, matrices, runs):
            calls.append(pre.shape[0])
            return hop_from_preactivation(params, pre, matrices, runs)

        monkeypatch.setattr(inference, "hop_from_preactivation", counting_forward)
        monkeypatch.setattr(inference, "policy_forward", None)  # not used by the beam
        beam_search(kg.learners()[0], env, params, FIVE_HOPS)
        assert len(calls) == len(FIVE_HOPS)

    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_one_forward_pass_per_distinct_state(self, monkeypatch, history):
        kg, env, params = synth_setup(history)
        learner = kg.learners()[0]
        rows = []

        def counting_forward(params, pre, matrices, runs):
            rows.append(pre.shape[0])
            return hop_from_preactivation(params, pre, matrices, runs)

        monkeypatch.setattr(inference, "hop_from_preactivation", counting_forward)
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
            beam_search(L(0), env, params, (5, 0, 5))

    def test_beam_is_the_sequence_of_its_pairs(self):
        kg, env, params = synth_setup(history=1)
        beam = beam_search(kg.learners()[0], env, params, FIVE_HOPS)
        pairs = list(beam)
        assert len(pairs) == len(beam) > 2
        assert beam.final_course.tolist() == [
            path.final_entity.index if path.final_entity.entity_type == "course" else -1
            for path, _ in pairs
        ]


class TestRankCandidates:
    def test_all_teacher_terminal_gives_empty_list(self):
        paths = [
            (Path(L(0), (("enrolled", C(0)), ("teaches_inv", T(0)))), -0.5),
            (Path(L(0), (("enrolled", C(1)), ("teaches_inv", T(1)))), -0.1),
        ]
        rec = rank_candidates(beam_of(L(0), paths), L(0), TRAIN[0], n=10)
        assert rec.items == ()
        assert not rec.is_valid

    def test_max_log_prob_kept_per_course(self):
        hops = (("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(3)))
        paths = [(Path(L(0), hops), -1.2), (Path(L(0), hops), -0.7)]
        rec = rank_candidates(beam_of(L(0), paths), L(0), TRAIN[0], n=10)
        assert len(rec.items) == 1
        assert rec.items[0].score == pytest.approx(-0.7)

    def test_train_course_excluded_even_if_best(self):
        paths = [
            (Path(L(0), (("enrolled", C(0)), (SELF_LOOP, C(0)), (SELF_LOOP, C(0)))), -0.01),
            (Path(L(0), (("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(4)))), -2.0),
        ]
        rec = rank_candidates(beam_of(L(0), paths), L(0), TRAIN[0], n=10)
        assert [item.course for item in rec.items] == [C(4)]

    # tie and edge cases: each list must equal the dict oracle's, and show the
    # asserted order on its own
    def test_equal_best_scores_keep_the_earlier_prefix(self):
        first = Path(L(0), (("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(3))))
        second = Path(L(0), (("enrolled", C(1)), ("enrolled_inv", L(2)), ("enrolled", C(3))))
        worse = Path(L(0), (("enrolled", C(2)), ("enrolled_inv", L(3)), ("enrolled", C(3))))
        pairs = [(worse, -2.0), (first, -0.5), (second, -0.5)]
        rec = rank_candidates(beam_of(L(0), pairs), L(0), TRAIN[0], n=10)
        assert_same_list(rec, reference_rank_candidates(pairs, L(0), TRAIN[0], n=10))
        assert [(i.course, i.score, i.best_path) for i in rec.items] == [(C(3), -0.5, first)]

    def test_equal_scores_on_different_courses_rank_by_course_index(self):
        pairs = [
            (Path(L(0), (("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(c)))), score)
            for c, score in ((5, -1.0), (3, -1.0), (4, -1.0), (1, -3.0), (6, -0.25))
        ]
        rec = rank_candidates(beam_of(L(0), pairs), L(0), TRAIN[1], n=10)
        assert_same_list(rec, reference_rank_candidates(pairs, L(0), TRAIN[1], n=10))
        assert rec.courses() == [C(6), C(3), C(4), C(5)]

    @pytest.mark.parametrize("finals", [
        [C(0), C(1), C(2), C(1)],  # every course reached is a train course
        [T(0), L(1), EntityRef("concept", 2), T(1)],  # no prefix ends on a course
    ])
    def test_no_unseen_course_gives_empty_list(self, finals):
        pairs = [
            (Path(L(0), (("enrolled", C(0)), ("x", final))), -0.1 * k)
            for k, final in enumerate(finals)
        ]
        rec = rank_candidates(beam_of(L(0), pairs), L(0), TRAIN[0], n=3)
        assert_same_list(rec, reference_rank_candidates(pairs, L(0), TRAIN[0], n=3))
        assert rec.items == () and not rec.is_valid

    def test_n_below_unseen_count_truncates(self):
        pairs = [
            (Path(L(0), (("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(c)))), score)
            for c, score in ((3, -1.0), (4, -0.2), (5, -0.7), (6, -0.9), (4, -0.1), (7, -0.7))
        ]
        rec = rank_candidates(beam_of(L(0), pairs), L(0), TRAIN[0], n=3)
        assert_same_list(rec, reference_rank_candidates(pairs, L(0), TRAIN[0], n=3))
        assert rec.courses() == [C(4), C(5), C(7)] and rec.is_valid

    @given(ends=st.lists(
        st.tuples(st.sampled_from(["course", "teacher"]), st.integers(0, 5),
                  st.sampled_from([-2.0, -1.0, -0.5, 0.0])),
        min_size=1, max_size=30,
    ), n=st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_equals_dict_oracle_under_ties(self, ends, n):
        pairs = [
            (Path(L(0), ((f"r{k}", C(k)), ("x", EntityRef(kind, i)))), score)
            for k, (kind, i, score) in enumerate(ends)
        ]
        assert_same_list(
            rank_candidates(beam_of(L(0), pairs), L(0), TRAIN[0], n),
            reference_rank_candidates(pairs, L(0), TRAIN[0], n),
        )

    def test_deep_beam_builds_paths_for_listed_items_only(self, monkeypatch):
        kg, env, params = synth_setup(history=1)
        learner = kg.learners()[0]
        beam = beam_search(learner, env, params, (25, 5, 5, 5, 1))
        want = reference_rank_candidates(list(beam), learner, TRAIN[0], n=5)
        built = []

        def counting_path(*args):
            built.append(args)
            return Path(*args)

        monkeypatch.setattr(inference, "Path", counting_path)
        rec = rank_candidates(beam, learner, TRAIN[0], n=5)
        assert len(beam) > 1000
        assert len(built) == len(rec.items) <= 5
        assert_same_list(rec, want)

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
            pairs = reference_beam_search(learner, env, params, widths)
            oracle = reference_rank_candidates(pairs, learner, train[learner.index], 5)
            got = lists[learner.index]
            assert got.courses() == oracle.courses()
            assert [i.best_path for i in got.items] == [i.best_path for i in oracle.items]
            for item, want in zip(got.items, oracle.items):
                assert abs(item.score - want.score) <= BEAM_SCORE_ABS

    @pytest.mark.parametrize("widths", [*BENCHMARK_WIDTHS, FIVE_HOPS])
    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_each_list_is_the_same_alone_and_in_any_block(self, monkeypatch, history, widths):
        # determinism whatever the batch size: learner 5 has only the self-loop,
        # 0 repeats within a block and 3 across blocks
        kg, env, params = synth_setup(history, isolated=5)
        learners = [L(i) for i in (3, 0, 5, 0, 7, 1, 3, 9, 2, 11)]
        assert len(learners) > inference.BLOCK_LEARNERS
        assert env.action_set(L(5)).actions == ((SELF_LOOP, L(5)),)
        train = {u.index: frozenset({u.index % 15, (3 * u.index) % 15}) for u in kg.learners()}
        alone, oracle = {}, {}
        for u in set(learners):
            beam = beam_search(u, env, params, widths)
            alone[u.index] = rank_candidates(beam, u, train[u.index], 5)
            pairs = reference_beam_search(u, env, params, widths)
            oracle[u.index] = reference_rank_candidates(pairs, u, train[u.index], 5)
        assert alone[5].items == ()
        for block in (1, 3, inference.BLOCK_LEARNERS, len(learners)):
            monkeypatch.setattr(inference, "BLOCK_LEARNERS", block)
            lists, invalid = recommend_all(learners, env, params, train, widths, n=5)
            assert sorted(lists) == sorted({u.index for u in learners})
            for u in learners:
                for want in (alone[u.index], oracle[u.index]):
                    got = lists[u.index]
                    assert got.learner == want.learner and got.n == want.n
                    assert [(i.course, i.best_path) for i in got.items] == [
                        (i.course, i.best_path) for i in want.items
                    ]
                    for item, other in zip(got.items, want.items):
                        assert abs(item.score - other.score) <= BEAM_SCORE_ABS
            short = sum(1 for u in learners if not lists[u.index].is_valid)
            assert invalid == short / len(learners)

    def test_one_forward_pass_per_level_of_each_block(self, monkeypatch):
        kg, env, params = synth_setup(history=1)
        learners = kg.learners()[:10]
        calls = []

        def counting_forward(params, pre, matrices, runs):
            calls.append(pre.shape[0])
            return hop_from_preactivation(params, pre, matrices, runs)

        monkeypatch.setattr(inference, "hop_from_preactivation", counting_forward)
        recommend_all(learners, env, params, TRAIN, FIVE_HOPS, n=5)
        size = inference.BLOCK_LEARNERS
        blocks = [learners[i : i + size] for i in range(0, len(learners), size)]
        assert len(blocks) > 1
        assert len(calls) == len(blocks) * len(FIVE_HOPS)
        # a block's first level has one state per learner
        assert calls[:: len(FIVE_HOPS)] == [len(block) for block in blocks]

    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_search_builds_no_features(self, monkeypatch, history):
        # the first layer comes from the tables, so no state's features or
        # action rows are built once the action sets exist
        kg, env, params = synth_setup(history)
        learners = kg.learners()[:6]
        want, _ = recommend_all(learners, env, params, TRAIN, FIVE_HOPS, n=5)

        def forbidden(*args, **kwargs):
            raise AssertionError("the search built features")

        for name in ("start_features", "step_features"):
            monkeypatch.setattr(policy_module, name, forbidden)
            monkeypatch.setattr(inference, name, forbidden, raising=False)
        monkeypatch.setattr(PathEnv, "action_rows", forbidden)
        got, _ = recommend_all(learners, env, params, TRAIN, FIVE_HOPS, n=5)
        assert got == want

    def test_search_memory_is_bounded_by_the_block(self):
        # the same two blocks of learners searched once and three times over:
        # only the block is held at a time, so the peak stays put
        kg, env, params = synth_setup(history=1, d=16, hidden=32)
        for e in range(kg.n_ids):
            env.action_set(kg.entity_of(e))  # the cache of action sets is not the search's
        learners = kg.learners()[: 2 * inference.BLOCK_LEARNERS]
        peaks = []
        for repeats in (1, 3):
            tracemalloc.start()
            try:
                recommend_all(learners * repeats, env, params, TRAIN, FIVE_HOPS, n=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_empty_list_and_non_learners(self):
        kg, env, params = synth_setup(history=1)
        assert recommend_all([], env, params, TRAIN, FIVE_HOPS) == ({}, 0.0)
        learners = kg.learners()[: inference.BLOCK_LEARNERS + 2]
        with pytest.raises(TypeError):
            recommend_all([*learners, C(1)], env, params, TRAIN, FIVE_HOPS)
        with pytest.raises(KeyError):
            recommend_all([*learners, L(99)], env, params, TRAIN, FIVE_HOPS)

    def test_invalid_fraction_arithmetic(self):
        _kg, env, params = tiny_setup()
        lists, invalid = recommend_all(
            [L(i) for i in range(4)], env, params, TRAIN, (10, 10, 10), n=2
        )
        expected = sum(1 for rec in lists.values() if len(rec.items) < 2) / 4
        assert invalid == pytest.approx(expected)

    @pytest.mark.parametrize("n", [-1, 0])
    def test_n_below_one_is_config_error(self, n):
        # a list of at most n items: n=-1 would slice off all but the last
        # course, and n=0 leave every list empty, and both count as valid
        _kg, env, params = tiny_setup()
        beam = beam_search(L(0), env, params, (10, 10, 10))
        with pytest.raises(ConfigError):
            rank_candidates(beam, L(0), TRAIN[0], n=n)
        with pytest.raises(ConfigError):
            recommend_all([L(i) for i in range(4)], env, params, TRAIN, (10, 10, 10), n=n)

    @pytest.mark.parametrize("n", [2.0, 2.5, "3", True, None])
    def test_non_integer_n_is_config_error(self, n):
        _kg, env, params = tiny_setup()
        beam = beam_search(L(0), env, params, (10, 10, 10))
        with pytest.raises(ConfigError):
            rank_candidates(beam, L(0), TRAIN[0], n=n)
        with pytest.raises(ConfigError):
            recommend_all([L(i) for i in range(4)], env, params, TRAIN, (10, 10, 10), n=n)

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

    def test_repeated_learner_line_is_data_error(self, tiny_recs, tmp_path):
        kg, data = tiny_recs
        path = tmp_path / "recs.jsonl"
        lines = data.decode("utf-8").splitlines()
        path.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
        repeat = len(lines) + 1
        with pytest.raises(DataError, match=rf"recs\.jsonl:{repeat}: .*already listed on line 1"):
            load_recommendations(str(path), kg, n=5)

    def test_repeated_course_is_data_error(self, tiny_recs, tmp_path):
        kg, data = tiny_recs
        path = tmp_path / "recs.jsonl"
        lines = data.decode("utf-8").splitlines()
        obj = json.loads(lines[0])
        assert len(obj["items"]) >= 2, "the first list needs two items"
        obj["items"][1] = obj["items"][0]
        path.write_text("\n".join([json.dumps(obj), *lines[1:]]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"recs\.jsonl:1: .*listed twice"):
            load_recommendations(str(path), kg, n=5)

    def test_rising_scores_are_data_error(self, tiny_recs, tmp_path):
        kg, data = tiny_recs
        path = tmp_path / "recs.jsonl"
        lines = data.decode("utf-8").splitlines()
        obj = json.loads(lines[0])
        obj["items"][1]["score"] = obj["items"][0]["score"] + 0.5
        path.write_text("\n".join([json.dumps(obj), *lines[1:]]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"recs\.jsonl:1: .*rises above"):
            load_recommendations(str(path), kg, n=5)

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
