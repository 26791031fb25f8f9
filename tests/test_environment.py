import numpy as np
import pytest

from pathrec.embeddings import EmbedConfig, EmbeddingTable, init_embeddings
from pathrec.environment import (
    Path,
    PathEnv,
    RewardSpec,
    load_pattern_whitelist,
    reward,
)
from pathrec.errors import CheckpointMismatchError, ConfigError, DataError
from pathrec.inference import recommend_all
from pathrec.kg import KnowledgeGraph
from pathrec.policy import AgentConfig, init_policy, sample_episodes, train_agent
from pathrec.schema import SELF_LOOP, EntityRef
from pathrec.synthetic import SynthConfig, generate

from conftest import make_tiny_kg, put_bad_byte
from oracles import reference_action_matrix, reference_adjacency, reference_score_edges

L = lambda i: EntityRef("learner", i)
C = lambda i: EntityRef("course", i)
T = lambda i: EntityRef("teacher", i)


@pytest.fixture
def tiny_env(tiny_kg):
    table = init_embeddings(tiny_kg, EmbedConfig(d=6, seed=1))
    return PathEnv(tiny_kg, table, max_actions=250, history_len=1)


TRAIN = {0: frozenset({0, 1, 2}), 1: frozenset({0, 1}), 2: frozenset({2, 3}), 3: frozenset({4})}
BINARY = RewardSpec(mode="binary", train_enrollments=TRAIN)


class TestPathType:
    def test_effective_hops_exclude_self_loops(self):
        path = Path(L(0), (("enrolled", C(0)), (SELF_LOOP, C(0)), (SELF_LOOP, C(0))))
        assert path.n_hops_effective == 1
        assert path.final_entity == C(0)
        assert path.stripped_relations() == ("enrolled",)

    def test_stripped_form_is_valid(self, tiny_kg):
        path = Path(
            L(0),
            (("enrolled", C(0)), (SELF_LOOP, C(0)), ("enrolled_inv", L(1)), ("enrolled", C(1))),
        )
        assert path.is_valid_in(tiny_kg)
        assert path.stripped().is_valid_in(tiny_kg)
        assert path.stripped().hops == (
            ("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(1)),
        )


class TestInitialState:
    def test_start_at_learner(self, tiny_env):
        state = tiny_env.initial_state(L(1), 3)
        assert state.current == state.start == L(1)
        assert state.history == ()
        assert state.hops_remaining == 3

    def test_training_budget_is_eval_plus_one(self, tiny_env):
        state = tiny_env.initial_state(L(0), 3 + 1)
        assert state.hops_remaining == 4

    def test_non_learner_rejected(self, tiny_env):
        with pytest.raises(TypeError):
            tiny_env.initial_state(C(0), 3)

    def test_zero_budget_rejected(self, tiny_env):
        with pytest.raises(ValueError):
            tiny_env.initial_state(L(0), 0)


class TestConstruction:
    def test_a_table_of_another_graph_is_rejected(self, tiny_kg, synth_kg):
        # the table has more rows than the graph has entities: without the
        # check, both would run and read other entities' rows
        table = init_embeddings(synth_kg, EmbedConfig(d=6, seed=1))
        with pytest.raises(CheckpointMismatchError, match="do not match the graph"):
            PathEnv(tiny_kg, table)
        cfg = AgentConfig(epochs=1, hidden=8, batch_episodes=8)
        with pytest.raises(CheckpointMismatchError, match="do not match the graph"):
            train_agent(tiny_kg, table, cfg, BINARY)

    def test_a_graph_without_entities_has_an_empty_table(self):
        kg = KnowledgeGraph({}, {})
        env = PathEnv(kg, init_embeddings(kg, EmbedConfig(d=4, seed=0)))
        assert env.act_ptr.tolist() == [0] and env.act_ids.size == 0

    @pytest.mark.parametrize("setting", [
        {"max_actions": 0}, {"max_actions": 2.5}, {"max_actions": True},
        {"history_len": -1}, {"history_len": 1.5}, {"history_len": True},
    ])
    def test_bad_count_is_config_error(self, tiny_kg, setting):
        # without the check, max_actions=2.5 fails as a bare TypeError at the
        # first action set, and True is taken as 1
        table = init_embeddings(tiny_kg, EmbedConfig(d=6, seed=1))
        with pytest.raises(ConfigError, match="must be an integer"):
            PathEnv(tiny_kg, table, **setting)


class TestActions:
    def test_self_loop_first_plus_edges(self, tiny_env):
        state = tiny_env.initial_state(L(3), 3)  # u3 has exactly one enrollment
        actions = tiny_env.actions(state)
        assert actions[0] == (SELF_LOOP, L(3))
        assert set(actions[1:]) == {("enrolled", C(4))}

    def test_truncation_to_max_actions(self):
        n = 500
        vocab = {"learner": [f"u{i}" for i in range(n)], "course": ["c0"]}
        kg = KnowledgeGraph(vocab, {"enrolled": {(u, 0) for u in range(n)}})
        table = init_embeddings(kg, EmbedConfig(d=4, seed=0))
        env = PathEnv(kg, table, max_actions=250)
        state = env.initial_state(L(0), 3)
        hub = env.step(state, ("enrolled", C(0)))
        actions = env.actions(hub)
        assert len(actions) == 1 + 250
        assert actions[0] == (SELF_LOOP, C(0))

    def test_equal_scores_break_by_canonical_order(self, tiny_kg):
        table = init_embeddings(tiny_kg, EmbedConfig(d=4, seed=0))
        for arr in table.entity.values():
            arr[:] = 0.0
        for vec in table.relation.values():
            vec[:] = 0.0
        env = PathEnv(tiny_kg, table)
        state = env.initial_state(L(0), 3)
        at_course = env.step(state, ("enrolled", C(0)))
        actions = env.actions(at_course)
        assert actions[0] == (SELF_LOOP, C(0))
        assert list(actions[1:]) == list(tiny_kg.neighbors(C(0)))

    def test_ordered_by_score_descending(self, tiny_env):
        state = tiny_env.initial_state(L(0), 3)
        actions = tiny_env.actions(state)
        scores = [
            tiny_env.embeddings.score(L(0), rel, tail) for rel, tail in actions[1:]
        ]
        assert scores == sorted(scores, reverse=True)

    def test_every_action_is_steppable(self, tiny_env):
        state = tiny_env.initial_state(L(0), 4)
        for _ in range(4):
            for action in tiny_env.actions(state):
                tiny_env.step(state, action)
            actions = tiny_env.actions(state)
            state = tiny_env.step(state, actions[min(1, len(actions) - 1)])


class TestActionIds:
    @pytest.mark.parametrize("graph", ["tiny", "school", "generated", "tied"])
    @pytest.mark.parametrize("max_actions", [250, 3])
    def test_action_sets_equal_the_row_by_row_build(self, graph, max_actions):
        if graph == "generated":
            kg = generate(SynthConfig(n_learners=12, n_courses=15, n_teachers=3, n_categories=2,
                                      n_concepts=5, n_clusters=2))
        else:
            kg = make_tiny_kg(with_school=graph == "school")
        table = init_embeddings(kg, EmbedConfig(d=5, seed=3))
        if graph == "tied":
            # category g1's four belongs_to_inv edges (courses 2-5) all score
            # exactly 0.0, so a cut at 3 falls inside the tie
            table.entity["course"][2:6] = 0.0
            table.relation["belongs_to"][:] = 0.0
        env = PathEnv(kg, table, max_actions=max_actions, history_len=1)
        action_of_id, adjacency = {}, reference_adjacency(kg)
        for etype, raws in kg.vocab.items():
            for index in range(len(raws)):
                entity = EntityRef(etype, index)
                aset = env.action_set(entity)
                assert aset.actions[0] == (SELF_LOOP, entity)
                assert len(aset.actions) <= 1 + max_actions
                assert np.array_equal(aset.matrix, reference_action_matrix(table, aset.actions))
                assert np.array_equal(env.action_rows(aset.action_ids), aset.matrix)
                assert env.kg.decode(aset.action_ids) == aset.actions
                tails = aset.action_ids % kg.n_ids
                assert [kg.entity_of(t) for t in tails.tolist()] == [
                    tail for _rel, tail in aset.actions
                ]
                assert kg.entity_id(entity) == tails[0]
                row = kg.edge_ids(kg.entity_id(entity))
                want = reference_score_edges(table, entity, adjacency.get(entity, ()))
                kept = np.argsort(-want, kind="stable")[:max_actions]
                assert (
                    np.array_equal(table.score_edges(kg.entity_id(entity), row), want)
                    and np.array_equal(aset.action_ids[1:], row[kept])
                )
                for i, action in zip(aset.action_ids.tolist(), aset.actions):
                    assert action_of_id.setdefault(i, action) == action
        # equal ids are equal actions, and equal actions equal ids
        assert len(set(action_of_id.values())) == len(action_of_id)

    def test_the_table_is_built_once(self, monkeypatch):
        # every entity's edges are scored at construction, and neither the
        # search nor the rollouts score them again
        kg = generate(SynthConfig(n_learners=12, n_courses=15, n_teachers=3, n_categories=2,
                                  n_concepts=5, n_clusters=2))
        table = init_embeddings(kg, EmbedConfig(d=5, seed=3))
        calls = []
        score_edges = EmbeddingTable.score_edges

        def counted(self, *args):
            calls.append(args[0])
            return score_edges(self, *args)

        monkeypatch.setattr(EmbeddingTable, "score_edges", counted)
        env = PathEnv(kg, table, max_actions=3, history_len=1)
        assert sorted(calls) == list(range(kg.n_ids))
        params = init_policy(5, AgentConfig(hidden=8, seed=1))
        learners = kg.learners()
        calls.clear()
        recommend_all(learners, env, params, {}, (5, 3, 2))
        assert calls == []
        draws = np.random.default_rng(0).random((len(learners), 3))
        sample_episodes(learners, env, params, BINARY, 3, draws)
        assert calls == []

    def test_unknown_entity_has_no_id_or_action_set(self, tiny_env):
        # learner 4 is one past the last learner: its id would alias teacher 0's
        tiny_env.action_set(T(0))
        for ref in (L(4), C(-1), EntityRef("school", 0), EntityRef("planet", 0)):
            with pytest.raises(KeyError):
                tiny_env.kg.entity_id(ref)
            with pytest.raises(KeyError):
                tiny_env.action_set(ref)

    def test_course_index_of_ids(self, tiny_env):
        ids = np.array([tiny_env.kg.entity_id(ref) for ref in (C(0), L(1), C(5), T(1))])
        assert tiny_env.kg.course_index(ids).tolist() == [0, -1, 5, -1]


class TestStep:
    def test_self_loop_consumes_budget_only(self, tiny_env):
        state = tiny_env.initial_state(L(0), 3)
        after = tiny_env.step(state, (SELF_LOOP, L(0)))
        assert after.current == L(0)
        assert after.hops_remaining == 2

    def test_edge_moves(self, tiny_env):
        state = tiny_env.initial_state(L(0), 3)
        after = tiny_env.step(state, ("enrolled", C(1)))
        assert after.current == C(1)
        assert after.history == (("enrolled", C(1)),)

    def test_zero_budget_step_errors(self, tiny_env):
        state = tiny_env.initial_state(L(0), 1)
        state = tiny_env.step(state, ("enrolled", C(0)))
        with pytest.raises(ValueError):
            tiny_env.step(state, (SELF_LOOP, C(0)))

    def test_illegal_action_errors(self, tiny_env):
        state = tiny_env.initial_state(L(0), 3)
        with pytest.raises(ValueError):
            tiny_env.step(state, ("enrolled", C(5)))  # u0 never enrolled in c5

    def test_history_bounded(self, tiny_kg):
        table = init_embeddings(tiny_kg, EmbedConfig(d=4, seed=0))
        env = PathEnv(tiny_kg, table, history_len=2)
        state = env.initial_state(L(0), 4)
        state = env.step(state, ("enrolled", C(0)))
        state = env.step(state, ("enrolled_inv", L(1)))
        state = env.step(state, ("enrolled", C(1)))
        assert state.history == (("enrolled", C(1)), ("enrolled_inv", L(1)))


class TestBinaryReward:
    def test_one_hop_enrolled_pays_zero(self):
        path = Path(L(0), (("enrolled", C(0)),))
        assert reward(path, BINARY) == 0.0

    def test_two_effective_hop_path_to_train_course_pays_one(self):
        path = Path(L(0), (("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(1))))
        assert reward(path, BINARY) == 1.0

    def test_non_course_terminal_pays_zero(self):
        path = Path(L(0), (("enrolled", C(0)), ("teaches_inv", T(0))))
        assert reward(path, BINARY) == 0.0

    def test_self_loop_padding_cannot_launder_one_hop(self):
        path = Path(L(0), (("enrolled", C(0)), (SELF_LOOP, C(0)), (SELF_LOOP, C(0))))
        assert reward(path, BINARY) == 0.0

    def test_course_outside_train_set_pays_zero(self):
        path = Path(L(0), (("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(5))))
        assert reward(path, BINARY) == 0.0

    def test_range_is_binary(self, tiny_env):
        rng = np.random.default_rng(4)
        for _ in range(300):
            state = tiny_env.initial_state(L(int(rng.integers(4))), 4)
            hops = []
            for _ in range(4):
                actions = tiny_env.actions(state)
                action = actions[int(rng.integers(len(actions)))]
                hops.append(action)
                state = tiny_env.step(state, action)
            r = reward(Path(state.start, tuple(hops)), BINARY)
            assert r in (0.0, 1.0)
            if r == 1.0:
                assert state.current.entity_type == "course"
                assert Path(state.start, tuple(hops)).n_hops_effective % 2 == 1


class TestPgprReward:
    def _spec(self, tiny_kg, whitelist):
        table = init_embeddings(tiny_kg, EmbedConfig(d=6, seed=5))
        return RewardSpec(
            mode="pgpr",
            train_enrollments=TRAIN,
            pattern_whitelist=whitelist,
            embeddings=table,
        )

    def test_missing_pieces_rejected(self):
        with pytest.raises(ConfigError):
            RewardSpec(mode="pgpr", train_enrollments=TRAIN)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            RewardSpec(mode="ternary", train_enrollments=TRAIN)

    def test_whitelisted_pattern_pays_normalized_dot(self, tiny_kg):
        spec = self._spec(tiny_kg, {("enrolled", "enrolled_inv", "enrolled")})
        path = Path(L(0), (("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(1))))
        r = reward(path, spec)
        assert 0.0 <= r <= 1.0

    def test_off_whitelist_pays_zero_exhaustively(self, tiny_kg):
        whitelist = {("enrolled", "teaches_inv", "teaches")}
        spec = self._spec(tiny_kg, whitelist)
        table = init_embeddings(tiny_kg, EmbedConfig(d=6, seed=5))
        env = PathEnv(tiny_kg, table)
        rng = np.random.default_rng(0)
        for _ in range(300):
            state = env.initial_state(L(int(rng.integers(4))), 3)
            hops = []
            for _ in range(3):
                actions = env.actions(state)
                action = actions[int(rng.integers(len(actions)))]
                hops.append(action)
                state = env.step(state, action)
            path = Path(state.start, tuple(hops))
            if path.stripped_relations() not in whitelist:
                assert reward(path, spec) == 0.0

    def test_self_loops_do_not_change_pattern(self, tiny_kg):
        spec = self._spec(tiny_kg, {("enrolled", "teaches_inv", "teaches")})
        bare = Path(L(0), (("enrolled", C(0)), ("teaches_inv", T(0)), ("teaches", C(1))))
        padded = Path(
            L(0),
            ((SELF_LOOP, L(0)), ("enrolled", C(0)), ("teaches_inv", T(0)), ("teaches", C(1))),
        )
        assert reward(bare, spec) == reward(padded, spec)

    def test_best_catalog_course_scores_one(self, tiny_kg):
        spec = self._spec(tiny_kg, {("enrolled",)})
        table = spec.embeddings
        v0 = table.vector(L(0))
        dots = table.entity["course"] @ v0
        best = int(np.argmax(dots))
        if dots[best] > 0:
            path = Path(L(0), (("enrolled", C(best)),))
            assert reward(path, spec) == pytest.approx(1.0)


def test_whitelist_file_parsing(tmp_path):
    path = tmp_path / "patterns.txt"
    path.write_text(
        "# comment\nenrolled|enrolled_inv|enrolled\nenrolled|teaches_inv|teaches\n\n",
        encoding="utf-8",
    )
    got = load_pattern_whitelist(str(path))
    assert got == {
        ("enrolled", "enrolled_inv", "enrolled"),
        ("enrolled", "teaches_inv", "teaches"),
    }


def test_whitelist_non_utf8_byte_is_data_error(tmp_path):
    path = tmp_path / "patterns.txt"
    path.write_text("enrolled|enrolled_inv|enrolled\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"patterns\.txt: not UTF-8"):
        load_pattern_whitelist(put_bad_byte(path, 4))


@pytest.mark.parametrize("text, where", [
    ("enroled|teaches_inv|teaches\nself_loop|enrolled\n", r":1: .*'enroled'"),
    ("# comment\nenrolled|enrolled_inv|enrolled\nself_loop|enrolled\n", r":3: .*'self_loop'"),
])
def test_whitelist_unknown_relation_name_is_data_error(tmp_path, text, where):
    # a pattern naming a relation no stripped path holds could never match,
    # so pgpr would pay 0 for every path without a word
    path = tmp_path / "patterns.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=r"patterns\.txt" + where):
        load_pattern_whitelist(str(path))
