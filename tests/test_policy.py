import gc
import struct
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathrec.policy as policy_module
from pathrec.embeddings import EmbedConfig, init_embeddings
from pathrec.environment import PathEnv, RewardSpec, reward
from pathrec.errors import CheckpointMismatchError, ConfigError, DataError
from pathrec.kg import filter_learners
from pathrec.optim import Adam
from pathrec.policy import (
    AgentConfig,
    baseline,
    batch_gradients,
    compute_advantages,
    feature_size,
    first_layer_tables,
    hop_from_preactivation,
    init_policy,
    key_features,
    load_policy,
    policy_forward,
    reinforce_update,
    sample_episode,
    sample_episodes,
    save_policy,
    start_keys,
    step_keys,
    train_agent,
    walk_draws,
)
from pathrec.schema import ACTION_RELATIONS, SELF_LOOP, EntityRef
from pathrec.synthetic import SynthConfig, generate

from conftest import flip_bit, make_tiny_kg, put_bad_byte
from oracles import (
    fd_policy_gradient_error, reference_advantages, reference_batch_gradients,
    reference_episode, reference_train_agent, state_features,
)

TRAIN = {0: frozenset({0, 1, 2}), 1: frozenset({0, 1}), 2: frozenset({2, 3}), 3: frozenset({4})}
BINARY = RewardSpec(mode="binary", train_enrollments=TRAIN)


def tiny_env(d=4, seed=1, history=1):
    kg = make_tiny_kg()
    table = init_embeddings(kg, EmbedConfig(d=d, seed=seed))
    return PathEnv(kg, table, max_actions=250, history_len=history)


class TestStateFeatures:
    def test_initial_state_blocks(self):
        env = tiny_env(d=4)
        x = key_features(env, start_keys(env, [EntityRef("learner", 0)]))[0]
        d = 4
        v = env.embeddings.vector(EntityRef("learner", 0))
        np.testing.assert_array_equal(x[:d], v)
        np.testing.assert_array_equal(x[d : 2 * d], v)
        np.testing.assert_array_equal(x[2 * d : 3 * d], np.zeros(d))
        np.testing.assert_array_equal(x[3 * d :], np.zeros(2 * d))
        state = env.initial_state(EntityRef("learner", 0), 3)
        np.testing.assert_array_equal(x, state_features(state, env.embeddings, history=1))

    def test_shape_arithmetic_d2_h1(self):
        env = tiny_env(d=2)
        state = env.initial_state(EntityRef("learner", 0), 3)
        state = env.step(state, ("enrolled", EntityRef("course", 0)))
        x = state_features(state, env.embeddings, history=1)
        assert x.shape == (10,)  # 3*2 + 1*2*2
        assert feature_size(2, 1) == 10

    def test_purity(self):
        env = tiny_env(d=3)
        state = env.initial_state(EntityRef("learner", 2), 3)
        a = state_features(state, env.embeddings, history=1)
        b = state_features(state, env.embeddings, history=1)
        np.testing.assert_array_equal(a, b)

    def test_self_loop_history_is_zero_block(self):
        env = tiny_env(d=3)
        state = env.initial_state(EntityRef("learner", 0), 3)
        state = env.step(state, (SELF_LOOP, EntityRef("learner", 0)))
        x = state_features(state, env.embeddings, history=1)
        np.testing.assert_array_equal(x[9:], np.zeros(6))

    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_step_features_equal_features_of_the_stepped_state(self, history):
        env = tiny_env(d=3, history=history)
        rng = np.random.default_rng(history)
        n_ids = env.kg.n_ids
        for learner in env.kg.learners():
            state = env.initial_state(learner, 4)
            key = start_keys(env, [learner])
            for _ in range(4):
                aset = env.action_set(state.current)
                for i, action in enumerate(aset.actions):
                    got = key_features(env, step_keys(key, aset.action_ids[[i]], n_ids))
                    want = state_features(env.step(state, action), env.embeddings, history)
                    np.testing.assert_array_equal(got[0], want)
                j = int(rng.integers(len(aset.actions)))
                state = env.step(state, aset.actions[j])
                key = step_keys(key, aset.action_ids[[j]], n_ids)

    def test_inverse_relation_feature_negates_forward(self):
        env = tiny_env(d=3)
        table = env.embeddings
        np.testing.assert_array_equal(
            table.feature_relation_vector("enrolled_inv"),
            -table.feature_relation_vector("enrolled"),
        )


class TestFirstLayerTables:
    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_preactivations_equal_the_features_product(self, history):
        env = tiny_env(d=6, history=history)
        kg = env.kg
        params = init_policy(6, AgentConfig(hidden=16, history=history, seed=4))
        params["b1"] = np.random.default_rng(5).normal(size=16)  # b1 starts at zero
        rng = np.random.default_rng(history)
        # walks that start, take real hops and take self-loops, in mixed order
        states, last = [], []  # each state, and the relation of the hop into it
        for learner in kg.learners():
            for _ in range(6):
                state = env.initial_state(learner, 4)
                states.append(state)
                last.append(None)
                for _ in range(4):
                    actions = env.action_set(state.current).actions
                    loop = rng.random() < 0.4 or len(actions) == 1
                    action = actions[0 if loop else rng.integers(1, len(actions))]
                    state = env.step(state, action)
                    states.append(state)
                    last.append(action[0])
        assert {None, SELF_LOOP} < set(last) and len(set(last)) > 3
        ids = np.full((len(states), history), -1)
        for row, state in enumerate(states):
            for k, (rel, ent) in enumerate(state.history[:history]):
                ids[row, k] = ACTION_RELATIONS.index(rel) * kg.n_ids + kg.entity_id(ent)
        learner = np.array([s.start.index for s in states])
        entity = np.array([kg.entity_id(s.current) for s in states])
        got = first_layer_tables(params, env).preactivations(learner, entity, ids)
        features = np.array([state_features(s, env.embeddings, history) for s in states])
        want = features @ params["w1"].T + params["b1"]
        assert np.abs(got - want).max() <= 1e-12


def hop_of_features(params, X, matrices, runs):
    """The hop of the states with features X, from the features product."""
    return hop_from_preactivation(params, X @ params["w1"].T + params["b1"], matrices, runs)


class TestPolicyForward:
    def test_single_candidate_prob_one(self):
        env = tiny_env(d=4)
        params = init_policy(4, AgentConfig(hidden=8, seed=0))
        x = np.zeros(feature_size(4, 1))
        a = np.ones((1, 8))
        probs, logp, _h = policy_forward(params, x, a)
        assert probs.shape == (1,)
        assert probs[0] == pytest.approx(1.0)
        assert logp[0] == pytest.approx(0.0)

    def test_zero_parameters_uniform(self):
        params = {k: np.zeros_like(v) for k, v in init_policy(4, AgentConfig(hidden=8)).items()}
        x = np.arange(feature_size(4, 1), dtype=float)
        a = np.random.default_rng(0).normal(size=(7, 8))
        probs, _lp, h = policy_forward(params, x, a)
        np.testing.assert_allclose(probs, np.full(7, 1 / 7))
        assert baseline(params, h) == 0.0

    def test_constant_logit_shift_invariance(self):
        d = 4
        params = init_policy(d, AgentConfig(hidden=8, seed=3))
        rng = np.random.default_rng(1)
        x = rng.normal(size=feature_size(d, 1))
        a = rng.normal(size=(5, 2 * d))
        probs, _, _ = policy_forward(params, x, a)
        # shifting every action embedding by the same vector adds a constant
        # to every logit, so the distribution must not move
        shift = rng.normal(size=2 * d)
        probs2, _, _ = policy_forward(params, x, a + shift)
        np.testing.assert_allclose(probs, probs2, atol=1e-12)

    def test_probability_simplex(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            d = int(rng.integers(2, 6))
            cfg = AgentConfig(hidden=int(rng.integers(2, 12)), seed=trial)
            params = init_policy(d, cfg)
            x = rng.normal(size=feature_size(d, 1)) * 3
            a = rng.normal(size=(int(rng.integers(1, 9)), 2 * d)) * 3
            probs, _, _ = policy_forward(params, x, a)
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) <= 1e-9

    def test_hop_forward_rows_equal_policy_forward(self):
        d, hidden = 5, 16
        params = init_policy(d, AgentConfig(hidden=hidden, seed=4))
        params["b1"] = np.random.default_rng(2).normal(size=hidden)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(9, feature_size(d, 1)))
        # segments of 1 to 12 rows: short ones and ones long enough for numpy's
        # pairwise sums, so the segment sums add in another order than `exp.sum()`
        matrices = [rng.normal(size=(n, 2 * d)) for n in (6, 1, 12, 3, 9, 2, 1, 10, 4)]
        hop = hop_of_features(params, X, matrices, np.ones(len(matrices), dtype=int))
        assert hop.starts.tolist() == np.cumsum([0, 6, 1, 12, 3, 9, 2, 1, 10]).tolist()
        assert hop.seg.tolist() == np.repeat(np.arange(9), [len(m) for m in matrices]).tolist()
        for i, (x, a) in enumerate(zip(X, matrices)):
            probs, logp, h = policy_forward(params, x, a)
            rows = slice(hop.starts[i], hop.starts[i] + len(a))
            np.testing.assert_allclose(hop.hidden[i], h, rtol=0, atol=1e-12)
            np.testing.assert_allclose(hop.probs[rows], probs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(hop.log_probs[rows], logp, rtol=0, atol=1e-12)
            assert hop.entropy[i] == pytest.approx(-np.sum(probs * logp), rel=0, abs=1e-12)

    def test_runs_of_one_score_as_matrix_vector_products(self):
        # the logits of runs of one are those of `matrix @ query`, bit for bit,
        # so the distributions are those of that product under hop_from_preactivation's
        # segment softmax
        d, hidden = 5, 16
        params = init_policy(d, AgentConfig(hidden=hidden, seed=4))
        params["b1"] = np.random.default_rng(2).normal(size=hidden)
        rng = np.random.default_rng(5)
        for trial in range(20):
            sizes = rng.integers(1, 30, size=int(rng.integers(1, 12)))
            X = rng.normal(size=(len(sizes), feature_size(d, 1))) * 3
            matrices = [rng.normal(size=(n, 2 * d)) * 3 for n in sizes]
            hop = hop_of_features(params, X, matrices, np.ones(len(sizes), dtype=int))
            queries = hop.hidden @ params["proj"]
            logits = np.concatenate([m @ q for m, q in zip(matrices, queries)])
            starts = np.cumsum(sizes) - sizes
            seg = np.repeat(np.arange(len(sizes)), sizes)
            shifted = logits - np.maximum.reduceat(logits, starts)[seg]
            z = np.add.reduceat(np.exp(shifted), starts)
            assert hop.log_probs.tobytes() == (shifted - np.log(z)[seg]).tobytes(), trial
            assert hop.probs.tobytes() == (np.exp(shifted) / z[seg]).tobytes(), trial

    def test_longer_runs_agree_with_per_state_products(self):
        d, hidden = 5, 16
        params = init_policy(d, AgentConfig(hidden=hidden, seed=4))
        params["b1"] = np.random.default_rng(2).normal(size=hidden)
        rng = np.random.default_rng(6)
        runs = np.array([3, 1, 7, 2, 1, 12])
        X = rng.normal(size=(runs.sum(), feature_size(d, 1))) * 3
        matrices = [rng.normal(size=(int(rng.integers(1, 25)), 2 * d)) * 3 for _ in runs]
        got = hop_of_features(params, X, matrices, runs)
        per_state = [m for m, r in zip(matrices, runs) for _ in range(r)]
        want = hop_of_features(params, X, per_state, np.ones(len(per_state), dtype=int))
        assert got.matrices is matrices and got.runs is runs
        for name in ("sizes", "starts", "seg", "hidden"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        for name in ("probs", "log_probs", "entropy"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-12)


def walk_setup(graph, history):
    """A graph, its environment, a policy and the binary reward of its enrollments."""
    if graph == "tiny":
        kg = make_tiny_kg()
    else:
        kg = generate(SynthConfig(n_learners=10, n_courses=16, n_teachers=3, n_categories=2,
                                  n_concepts=4, n_clusters=2, seed=4))
    env = PathEnv(kg, init_embeddings(kg, EmbedConfig(d=3, seed=2)), history_len=history)
    params = init_policy(3, AgentConfig(hidden=8, history=history, seed=1))
    train: dict[int, set[int]] = {}
    for u, c in kg.edges["enrolled"]:
        train.setdefault(u, set()).add(c)
    spec = RewardSpec("binary", {u: frozenset(cs) for u, cs in train.items()})
    return kg, env, params, spec


class TestSampleEpisode:
    def test_deterministic_replay(self):
        env = tiny_env()
        params = init_policy(4, AgentConfig(hidden=8, seed=0))
        a = sample_episode(EntityRef("learner", 0), env, params, BINARY, 4,
                           np.random.default_rng(42))
        b = sample_episode(EntityRef("learner", 0), env, params, BINARY, 4,
                           np.random.default_rng(42))
        assert a.path == b.path
        assert a.reward == b.reward

    def test_budget_four_reward_one_contains_self_loop(self):
        env = tiny_env()
        params = init_policy(4, AgentConfig(hidden=8, seed=0))
        rewarded = 0
        for i in range(300):
            ep = sample_episode(EntityRef("learner", i % 4), env, params, BINARY, 4,
                                np.random.default_rng(i))
            assert len(ep.path.hops) == 4
            if ep.reward == 1.0:
                rewarded += 1
                assert any(rel == SELF_LOOP for rel, _ in ep.path.hops)
        assert rewarded > 0

    @pytest.mark.parametrize("graph", ["tiny", "generated"])
    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_walk_equals_a_replay_through_env_step(self, graph, history):
        kg, env, params, spec = walk_setup(graph, history)
        for learner in kg.learners():
            for j in range(4):
                ep = sample_episode(learner, env, params, spec, 4, np.random.default_rng(j))
                path, reward, features = reference_episode(
                    learner, env, params, spec, 4, np.random.default_rng(j)
                )
                assert ep.path == path and ep.reward == reward
                for step, want in zip(ep.steps, features, strict=True):
                    assert step.features.tobytes() == want.tobytes()

    def test_zero_budget_misuse(self):
        env = tiny_env()
        params = init_policy(4, AgentConfig(hidden=8, seed=0))
        with pytest.raises(ValueError):
            sample_episode(EntityRef("learner", 0), env, params, BINARY, 0,
                           np.random.default_rng(0))

    def test_empty_batch_rejected(self):
        env = tiny_env()
        params = init_policy(4, AgentConfig(hidden=8, seed=0))
        with pytest.raises(ValueError, match="empty episode batch"):
            sample_episodes([], env, params, BINARY, 4, np.empty((0, 4)))

    @pytest.mark.parametrize("start, budget, error", [
        (EntityRef("course", 0), 4, TypeError),
        (EntityRef("learner", 99), 4, KeyError),
        (EntityRef("learner", -1), 4, KeyError),
        (EntityRef("learner", 2), 0, ValueError),
    ])
    def test_a_bad_start_in_the_middle_of_a_batch(self, start, budget, error):
        env = tiny_env()
        params = init_policy(4, AgentConfig(hidden=8, seed=0))
        learners = [EntityRef("learner", i) for i in (0, 1, 3)]
        learners.insert(2, start)
        with pytest.raises(error):
            sample_episodes(learners, env, params, BINARY, budget, np.zeros((4, max(budget, 0))))

    @pytest.mark.parametrize("shape", [(1, 4), (4, 3), (4, 5), (3, 4)])
    def test_draws_must_match_the_batch(self, shape):
        env = tiny_env()
        params = init_policy(4, AgentConfig(hidden=8, seed=0))
        learners = [EntityRef("learner", i) for i in range(4)]
        with pytest.raises(ValueError, match="one row per walk"):
            sample_episodes(learners, env, params, BINARY, 4, np.zeros(shape))

    @pytest.mark.parametrize("graph", ["tiny", "generated"])
    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_a_walk_is_the_same_alone_and_in_any_batch(self, graph, history):
        kg, env, params, spec = walk_setup(graph, history)
        walks = [(u, j) for u in kg.learners() for j in range(3)]

        def draws(order):
            return np.array([np.random.default_rng([9, u.index, j]).random(4) for u, j in order])

        alone = [sample_episodes([u], env, params, spec, 4, draws([(u, j)])) for u, j in walks]
        for order in (walks, walks[::-1], walks[1::2]):
            batch = sample_episodes([u for u, _j in order], env, params, spec, 4, draws(order))
            assert batch.keys.shape[:2] == batch.chosen.T.shape == batch.taken.T.shape
            assert len(batch.hops) == 4
            for i, path in enumerate(batch.paths()):
                want = alone[walks.index(order[i])]
                assert path == want.paths()[0] and batch.rewards[i] == want.rewards[0]
                assert batch.learners[i] == want.learners[0]
                assert batch.chosen[i].tolist() == want.chosen[0].tolist()
                assert batch.taken[i].tolist() == want.taken[0].tolist()
                assert batch.keys[:, i].tobytes() == want.keys[:, 0].tobytes()
                for got, one in zip(batch.hops, want.hops):
                    rows = slice(got.starts[i], got.starts[i] + len(got.matrices[i]))
                    np.testing.assert_allclose(got.hidden[i], one.hidden[0], rtol=0, atol=1e-12)
                    np.testing.assert_allclose(got.probs[rows], one.probs, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(
                        got.log_probs[rows], one.log_probs, rtol=0, atol=1e-12
                    )


class TestBatchRewards:
    """A batch's rewards are computed on its action ids; they must be what
    `reward` pays each decoded path, bit for bit."""

    @pytest.mark.parametrize("graph", ["tiny", "generated"])
    @pytest.mark.parametrize("history", [0, 1, 2])
    @pytest.mark.parametrize("budget", [3, 4, 5])
    def test_binary_rewards_equal_path_rewards(self, graph, history, budget):
        kg, env, params, spec = walk_setup(graph, history)
        # learner 0 holds no train enrollment
        spec = RewardSpec("binary", {u: cs for u, cs in spec.train_enrollments.items() if u})
        starts = [u for u in kg.learners() for _ in range(40)]
        draws = np.random.default_rng(budget).random((len(starts), budget))
        draws[::4] = 0.0  # every hop the self-loop, the first action
        draws[1::4, 1:] = 0.0  # one real hop, then self-loops
        batch = sample_episodes(starts, env, params, spec, budget, draws)
        paths = batch.paths()
        assert batch.rewards.tolist() == [reward(path, spec) for path in paths]
        on_course = [p for p in paths if p.final_entity.entity_type == "course"]
        assert 0 < batch.rewards.sum() < len(on_course)
        assert any(p.n_hops_effective == 0 for p in paths)
        assert any(p.n_hops_effective == 1 for p in on_course)
        assert any(p.start.index == 0 and p.n_hops_effective > 1 for p in on_course)

    def test_pgpr_rewards_are_path_rewards(self):
        kg, env, params, spec = walk_setup("generated", 1)
        spec = RewardSpec(
            "pgpr", spec.train_enrollments,
            pattern_whitelist={("enrolled",), ("enrolled", "enrolled_inv", "enrolled")},
            embeddings=init_embeddings(kg, EmbedConfig(d=3, seed=7)),
        )
        starts = [u for u in kg.learners() for _ in range(16)]
        draws = np.random.default_rng(1).random((len(starts), 4))
        draws[1::4, 1:] = 0.0
        batch = sample_episodes(starts, env, params, spec, 4, draws)
        want = [reward(path, spec) for path in batch.paths()]
        assert batch.rewards.tolist() == want
        assert 0 < np.count_nonzero(batch.rewards) < len(want)


class TestWalkDraws:
    """`walk_draws` against numpy's own generators: a change to numpy's
    `SeedSequence` or `PCG64` fails here, before it moves a sampled path."""

    @staticmethod
    def generator_draws(rows, n):
        return np.array([np.random.default_rng(row).random(n) for row in rows])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equals_default_rng_on_four_word_rows(self, n):
        rows = np.random.default_rng(n).integers(0, 2**32, size=(300, 4))
        rows[:3] = 0
        rows[3:6] = 2**32 - 1
        rows[6:12, ::2] = 0
        rows[12:18, 1::2] = 2**32 - 1
        got = walk_draws(rows, n)
        assert got.tobytes() == self.generator_draws(rows.tolist(), n).tobytes()

    @pytest.mark.parametrize("words", [1, 2, 3, 5, 7])
    def test_equals_default_rng_on_shorter_and_longer_rows(self, words):
        rows = np.random.default_rng(words).integers(0, 2**32, size=(100, words))
        got = walk_draws(rows, 4)
        assert got.tobytes() == self.generator_draws(rows.tolist(), 4).tobytes()

    @pytest.mark.parametrize("row", [[0, 0, 0, 0], [2**32 - 1] * 4, [3, 1, 4, 1]])
    def test_a_single_row(self, row):
        assert walk_draws([row], 6).tobytes() == self.generator_draws([row], 6).tobytes()

    @pytest.mark.parametrize("seed", [2**32, 2**40 - 1, 2**40 + 3, 2**64 + 5, 2**96 + 7])
    def test_a_multi_word_seed_is_its_words_least_significant_first(self, seed):
        words = [seed >> s & (2**32 - 1) for s in range(0, seed.bit_length(), 32)]
        rest = np.random.default_rng(seed % 97).integers(0, 2**32, size=(50, 3))
        rows = np.column_stack([np.tile(words, (len(rest), 1)), rest])
        want = np.array([np.random.default_rng([seed, *r]).random(5) for r in rest.tolist()])
        assert walk_draws(rows, 5).tobytes() == want.tobytes()

    def test_warns_of_no_overflow(self):
        rows = np.random.default_rng(0).integers(0, 2**32, size=(20, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            walk_draws(rows, 4)


def episodes_of(batch):
    """Each walk of `batch` as a per-walk record, for the per-step oracles."""
    return [batch.episode(i) for i in range(len(batch.learners))]


def frozen_batch(d=2, n_episodes=2, seed=0, hidden=6):
    """One `sample_episodes` batch, walk i drawing what
    `np.random.default_rng(100 + i)` does."""
    env = tiny_env(d=d, seed=seed)
    params = init_policy(d, AgentConfig(hidden=hidden, seed=seed))
    learners = [EntityRef("learner", i % 4) for i in range(n_episodes)]
    draws = np.array([np.random.default_rng(100 + i).random(4) for i in range(n_episodes)])
    return params, sample_episodes(learners, env, params, BINARY, 4, draws)


def varied_batch():
    """A frozen batch of 81 walks with varied advantages."""
    params, batch = frozen_batch(d=4, n_episodes=81, hidden=8)
    rng = np.random.default_rng(7)
    params["v_w"] = rng.normal(scale=0.5, size=params["v_w"].shape)
    batch.rewards = rng.random(81)
    return params, batch, compute_advantages(params, batch, gamma=0.9)


class TestReinforceUpdate:
    def test_zero_advantage_moves_only_entropy(self):
        params, batch = frozen_batch()
        # force every reward and every baseline output to the same constant
        batch.rewards[:] = 0.5
        params["v_w"][:] = 0.0
        params["v_b"][0] = 0.5
        advantages = compute_advantages(params, batch, gamma=1.0)
        assert all(abs(a) < 1e-12 for advs in advantages for a in advs)
        grads = batch_gradients(params, batch, advantages, entropy_weight=0.0)
        for arr in grads.values():
            np.testing.assert_allclose(arr, 0.0, atol=1e-12)
        with_entropy = batch_gradients(params, batch, advantages, 0.01)
        assert any(np.abs(arr).max() > 0 for arr in with_entropy.values())

    def test_gradient_matches_finite_differences(self):
        params, batch = frozen_batch(d=2, n_episodes=2)
        batch.rewards[0] = 1.0  # make advantages non-trivial
        cfg = AgentConfig(hidden=6, entropy_weight=0.01, seed=0)
        advantages = compute_advantages(params, batch, cfg.gamma)
        analytic = batch_gradients(params, batch, advantages, cfg.entropy_weight)
        err = fd_policy_gradient_error(
            params, batch, advantages, cfg.entropy_weight, cfg.gamma,
            analytic, probes=60, rng=np.random.default_rng(0),
        )
        assert err <= 1e-3

    def test_gradient_matches_per_step_oracle(self):
        params, batch, advantages = varied_batch()
        got = batch_gradients(params, batch, advantages, 0.05)
        want = reference_batch_gradients(params, episodes_of(batch), advantages, 0.05, 0.9)
        for key in params:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)

    def test_advantages_equal_fresh_forward_oracle(self):
        # the baseline is one product per hop, `H @ v_w`, and the stored hidden
        # layers a matrix product, so they agree with a one-state pass by rounding
        params, batch, advantages = varied_batch()
        want = reference_advantages(params, episodes_of(batch), gamma=0.9)
        assert advantages.shape == (81, 4)
        np.testing.assert_allclose(advantages, want, rtol=0, atol=1e-12)

    def test_zero_learning_rate_keeps_params(self):
        params, batch = frozen_batch()
        batch.rewards[0] = 1.0
        cfg = AgentConfig(hidden=6, learning_rate=0.0, seed=0)
        new_params, _stats = reinforce_update(batch, params, Adam(0.0), cfg)
        for key in params:
            np.testing.assert_array_equal(new_params[key], params[key])

    def test_stats_shape(self):
        params, batch = frozen_batch()
        cfg = AgentConfig(hidden=6, seed=0)
        _p, stats = reinforce_update(batch, params, Adam(1e-3), cfg)
        assert set(stats) == {"mean_reward", "mean_entropy"}

    def test_a_one_walk_episode_is_a_whole_batch(self):
        env = tiny_env(d=2, seed=0)
        params = init_policy(2, AgentConfig(hidden=6, seed=0))
        draws = np.random.default_rng(3).random(4)[None]
        batch = sample_episodes([EntityRef("learner", 1)], env, params, BINARY, 4, draws)
        batch.rewards[0] = 1.0
        new_params, stats = reinforce_update(batch, params, Adam(1e-2), AgentConfig(hidden=6))
        assert stats["mean_reward"] == 1.0
        assert any(not np.array_equal(new_params[key], params[key]) for key in params)


class TestTrainAgent:
    def _setup(self):
        kg = make_tiny_kg()
        table = init_embeddings(kg, EmbedConfig(d=4, seed=1))
        return kg, table

    def test_zero_epochs_returns_initial(self):
        kg, table = self._setup()
        cfg = AgentConfig(epochs=0, hidden=8, seed=0)
        params, log = train_agent(kg, table, cfg, BINARY)
        init = init_policy(table.d, cfg)
        for key in params:
            np.testing.assert_array_equal(params[key], init[key])
        assert log.epochs == []

    def test_deterministic_log(self):
        kg, table = self._setup()
        cfg = AgentConfig(epochs=2, hidden=8, batch_episodes=8, seed=5)
        _p1, log1 = train_agent(kg, table, cfg, BINARY)
        _p2, log2 = train_agent(kg, table, cfg, BINARY)
        assert log1.mean_reward == log2.mean_reward
        assert log1.mean_entropy == log2.mean_entropy

    def test_deterministic_params(self):
        kg, table = self._setup()
        cfg = AgentConfig(epochs=2, hidden=8, batch_episodes=8, seed=5)
        p1, _ = train_agent(kg, table, cfg, BINARY)
        p2, _ = train_agent(kg, table, cfg, BINARY)
        for key in p1:
            assert np.array_equal(p1[key], p2[key]), key

    def test_two_seeds_differ(self):
        kg, table = self._setup()
        p1, _ = train_agent(kg, table, AgentConfig(epochs=2, hidden=8, seed=0), BINARY)
        p2, _ = train_agent(kg, table, AgentConfig(epochs=2, hidden=8, seed=1), BINARY)
        assert any(not np.array_equal(p1[k], p2[k]) for k in p1)

    def test_invalid_config_rejected(self):
        kg, table = self._setup()
        with pytest.raises(ConfigError):
            train_agent(kg, table, AgentConfig(max_hops_eval=2), BINARY)

    @pytest.mark.parametrize("setting", [
        {"epochs": 2.0}, {"episodes_per_learner": 2.5}, {"hidden": 8.0}, {"batch_episodes": 6.0},
        {"max_actions": 250.0}, {"history": 1.0}, {"max_hops_eval": 3.0}, {"seed": 0.5},
        {"hidden": "8"}, {"history": True}, {"seed": -1},
    ])
    def test_bad_count_or_seed_is_config_error(self, setting):
        kg, table = self._setup()
        cfg = AgentConfig(**{"epochs": 1, "hidden": 8, **setting})
        with pytest.raises(ConfigError):
            cfg.validate()
        with pytest.raises(ConfigError):
            train_agent(kg, table, cfg, BINARY)

    @pytest.mark.parametrize("name, value", [
        ("max_hops_eval", 3.0), ("epochs", 2.5), ("episodes_per_learner", True),
        ("hidden", 8.0), ("history", False), ("batch_episodes", 6.0), ("max_actions", 250.0),
        ("seed", 1.5), ("max_hops_eval", 0), ("episodes_per_learner", 0), ("hidden", 0),
        ("batch_episodes", 0), ("max_actions", 0), ("epochs", -1), ("history", -1),
        ("seed", -1),
    ])
    def test_count_that_is_not_an_integer_is_config_error(self, name, value):
        # each count names its field, as SynthConfig's do
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            AgentConfig(**{name: value}).validate()

    def test_numpy_integer_counts_are_accepted(self):
        kg, table = self._setup()
        cfg = AgentConfig(epochs=np.int64(1), hidden=np.int32(8), batch_episodes=np.int64(6))
        _params, log = train_agent(kg, table, cfg, BINARY)
        assert log.epochs == [1]

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_graph_without_learners_is_data_error(self, epochs):
        kg = filter_learners(make_tiny_kg(), 1000)
        assert kg.learners() == []
        table = init_embeddings(kg, EmbedConfig(d=4, seed=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "Mean of empty slice"
            with pytest.raises(DataError, match="no learners"):
                train_agent(kg, table, AgentConfig(epochs=epochs, hidden=8), BINARY)

    @pytest.mark.parametrize("graph", ["tiny", "generated"])
    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_equals_the_per_episode_trainer(self, monkeypatch, graph, history):
        kg, env, _params, spec = walk_setup(graph, history)
        # 3 episodes per learner in batches of 7: batches cross learners, and
        # the last batch of an epoch is short
        cfg = AgentConfig(epochs=3, hidden=8, history=history, episodes_per_learner=3,
                          batch_episodes=7, entropy_weight=0.05, seed=3)
        sampled = []
        real = policy_module.sample_episodes

        def recording(*args):
            batch = real(*args)
            sampled.extend(batch.paths())
            return batch

        monkeypatch.setattr(policy_module, "sample_episodes", recording)
        params, log = train_agent(kg, env.embeddings, cfg, spec)
        want_params, want_rewards, want_paths = reference_train_agent(kg, env.embeddings, cfg, spec)
        assert sampled == want_paths
        assert log.mean_reward == want_rewards
        assert any(r > 0 for r in want_rewards)
        for key in params:
            np.testing.assert_allclose(params[key], want_params[key], rtol=0, atol=1e-12,
                                       err_msg=key)

    def test_a_multi_word_seed_equals_the_per_episode_trainer(self, monkeypatch):
        kg, env, _params, spec = walk_setup("generated", 1)
        cfg = AgentConfig(epochs=2, hidden=8, episodes_per_learner=2, batch_episodes=7,
                          seed=2**40 + 3)
        sampled = []
        real = policy_module.sample_episodes

        def recording(*args):
            batch = real(*args)
            sampled.extend(batch.paths())
            return batch

        monkeypatch.setattr(policy_module, "sample_episodes", recording)
        params, log = train_agent(kg, env.embeddings, cfg, spec)
        want_params, want_rewards, want_paths = reference_train_agent(kg, env.embeddings, cfg, spec)
        assert sampled == want_paths
        assert log.mean_reward == want_rewards
        for key in params:
            np.testing.assert_allclose(params[key], want_params[key], rtol=0, atol=1e-12,
                                       err_msg=key)

    def test_binary_training_decodes_no_walk(self, monkeypatch):
        # binary rewards are paid on action ids: no walk becomes a `Path`
        kg, table = self._setup()

        def forbidden(*args):
            raise AssertionError("training decoded a walk")

        monkeypatch.setattr(policy_module, "Path", forbidden)
        monkeypatch.setattr(type(kg), "decode", forbidden)
        _params, log = train_agent(kg, table, AgentConfig(epochs=2, hidden=8, seed=0), BINARY)
        assert any(r > 0 for r in log.mean_reward)

    def test_log_csv(self, tmp_path):
        kg, table = self._setup()
        _params, log = train_agent(
            kg, table, AgentConfig(epochs=2, hidden=8, batch_episodes=8, seed=0), BINARY
        )
        path = tmp_path / "log.csv"
        log.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_reward,mean_entropy"
        assert len(lines) == 3


class TestSinglePass:
    """Training runs the policy forward and the baseline head once per hop of
    a batch: the rollout stores each hop's pass, and the update reads it back."""

    def _setup(self):
        kg = make_tiny_kg()
        table = init_embeddings(kg, EmbedConfig(d=4, seed=1))
        # 8 episodes an epoch in batches of 6: two batches an epoch
        return kg, table, AgentConfig(epochs=3, hidden=8, batch_episodes=6, seed=2)

    def test_one_forward_pass_per_hop_of_a_batch(self, monkeypatch):
        # per batch: one build of the first-layer tables, then per hop one read
        # of the stacked walks' pre-activations and one pass from them
        kg, table, cfg = self._setup()
        calls = []
        real_tables = policy_module.first_layer_tables
        real_pre = policy_module.FirstLayer.preactivations
        real_hop = policy_module.hop_from_preactivation

        def counting_tables(*args):
            calls.append("tables")
            return real_tables(*args)

        def counting_pre(tables, learner, entity, history):
            calls.append(("pre", len(entity)))
            return real_pre(tables, learner, entity, history)

        def counting_hop(params, pre, matrices, runs):
            calls.append(("hop", len(pre)))
            return real_hop(params, pre, matrices, runs)

        def forbidden(*args):
            raise AssertionError("training ran the one-state policy_forward")

        monkeypatch.setattr(policy_module, "first_layer_tables", counting_tables)
        monkeypatch.setattr(policy_module.FirstLayer, "preactivations", counting_pre)
        monkeypatch.setattr(policy_module, "hop_from_preactivation", counting_hop)
        monkeypatch.setattr(policy_module, "policy_forward", forbidden)
        train_agent(kg, table, cfg, BINARY)
        budget = cfg.hop_budget()
        batches = [["tables"] + [("pre", n), ("hop", n)] * budget for n in (6, 2)]
        assert calls == (batches[0] + batches[1]) * cfg.epochs

    def test_one_baseline_product_per_hop_of_a_batch(self, monkeypatch):
        kg, table, cfg = self._setup()
        calls = []
        real = policy_module.baseline

        def counting(params, hidden):
            calls.append(hidden.shape)
            return real(params, hidden)

        monkeypatch.setattr(policy_module, "baseline", counting)
        train_agent(kg, table, cfg, BINARY)
        batches = [(6, cfg.hidden)] * cfg.hop_budget() + [(2, cfg.hidden)] * cfg.hop_budget()
        assert calls == batches * cfg.epochs

    def test_update_makes_no_forward_pass(self, monkeypatch):
        params, batch, _ = varied_batch()

        def forbidden(*args):
            raise AssertionError("the update ran a forward pass")

        monkeypatch.setattr(policy_module, "policy_forward", forbidden)
        monkeypatch.setattr(policy_module, "first_layer_tables", forbidden)
        monkeypatch.setattr(policy_module.FirstLayer, "preactivations", forbidden)
        monkeypatch.setattr(policy_module, "hop_from_preactivation", forbidden)
        advantages = compute_advantages(params, batch, gamma=0.9)
        batch_gradients(params, batch, advantages, 0.05)
        reinforce_update(batch, params, Adam(1e-3), AgentConfig(hidden=8, gamma=0.9))

    def test_a_batch_is_freed_after_its_update(self, monkeypatch):
        # 8 walks an epoch in batches of 3, over 2 epochs: 6 updates
        kg, table, _cfg = self._setup()
        cfg = AgentConfig(epochs=2, hidden=8, batch_episodes=3, seed=2)
        real = policy_module.reinforce_update
        earlier = []

        def watching(batch, params, opt, cfg):
            gc.collect()
            assert all(ref() is None for ref in earlier), "an earlier batch is still alive"
            earlier.append(weakref.ref(batch.hops[0]))
            return real(batch, params, opt, cfg)

        monkeypatch.setattr(policy_module, "reinforce_update", watching)
        train_agent(kg, table, cfg, BINARY)
        assert len(earlier) == 6

    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_stored_forward_equals_a_fresh_one_at_every_update(self, monkeypatch, history):
        kg = make_tiny_kg()
        table = init_embeddings(kg, EmbedConfig(d=4, seed=1))
        # 8 episodes an epoch in batches of 6: the second batch of an epoch is
        # sampled after the first batch's update moved the parameters
        cfg = AgentConfig(epochs=3, hidden=8, batch_episodes=6, history=history, seed=2)
        real = policy_module.reinforce_update
        updates = []

        def checking(batch, params, opt, cfg):
            env = batch.env
            tables = first_layer_tables(params, env)
            for hop, keys in zip(batch.hops, batch.keys, strict=True):
                pre = tables.preactivations(keys[:, 1], keys[:, 0], keys[:, 2:])
                fresh = hop_from_preactivation(params, pre, hop.matrices, hop.runs)
                for name in ("hidden", "probs", "log_probs", "starts", "seg", "entropy"):
                    assert getattr(hop, name).tobytes() == getattr(fresh, name).tobytes(), name
                features = key_features(env, keys)
                for i, (x, matrix) in enumerate(zip(features, hop.matrices)):
                    probs, logp, h = policy_forward(params, x, matrix)
                    rows = slice(hop.starts[i], hop.starts[i] + len(matrix))
                    np.testing.assert_allclose(hop.probs[rows], probs, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(hop.log_probs[rows], logp, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(hop.hidden[i], h, rtol=0, atol=1e-12)
            updates.append(len(batch.learners))
            return real(batch, params, opt, cfg)

        monkeypatch.setattr(policy_module, "reinforce_update", checking)
        train_agent(kg, table, cfg, BINARY)
        assert updates == [6, 2] * cfg.epochs


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = AgentConfig(hidden=8, seed=0)
        params = init_policy(4, cfg)
        path = tmp_path / "p.pol"
        save_policy(params, str(path), cfg, d=4)
        loaded, loaded_cfg, d = load_policy(str(path))
        assert loaded_cfg == cfg and d == 4
        for key in params:
            np.testing.assert_array_equal(
                loaded[key], params[key].astype(np.float32).astype(np.float64)
            )

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.pol"
        path.write_bytes(b"nope\n")
        with pytest.raises(DataError):
            load_policy(str(path))

    def test_non_utf8_magic_is_data_error(self, tmp_path):
        cfg = AgentConfig(hidden=8, seed=0)
        path = tmp_path / "p.pol"
        save_policy(init_policy(4, cfg), str(path), cfg, d=4)
        with pytest.raises(DataError, match=r"p\.pol: not a UPGPR-POL v1 file"):
            load_policy(put_bad_byte(path, 3))

    def test_truncated_file_rejected(self, tmp_path):
        cfg = AgentConfig(hidden=8, seed=0)
        params = init_policy(4, cfg)
        path = tmp_path / "p.pol"
        save_policy(params, str(path), cfg, d=4)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises((DataError, CheckpointMismatchError)):
            load_policy(str(path))

    def test_declared_size_past_end_is_data_error(self, tmp_path):
        cfg = AgentConfig(hidden=8, seed=0)
        path = tmp_path / "p.pol"
        save_policy(init_policy(4, cfg), str(path), cfg, d=4)
        data = bytearray(path.read_bytes())
        header = data.index(b"\n", data.index(b"\n") + 1) + 1
        # magic and echo lines, <I tensor count, then tensor "b1": <HB name
        # length and ndim, the name, and its <I length: make its top byte 0x7f
        assert data[header + 4 + 3 : header + 4 + 5] == b"b1"
        data[header + 4 + 3 + 2 + 3] = 0x7F
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="declares .* bytes"):
            load_policy(str(path))

    @pytest.mark.parametrize("old, new", [
        (b'"gamma": 1.0', b'"gamma": 9.0'),
        (b'"hidden": 8', b'"hidden": 0'),
        (b'"hidden": 8', b'"hidden": 8.0'),
        (b'"episodes_per_learner": 2', b'"episodes_per_learner": 2.5'),
        (b'"learning_rate": 0.001', b'"learning_rate": Infinity'),
        (b'"entropy_weight": 0.01', b'"entropy_weight": Infinity'),
        (b'"d": 4', b'"d": 0'),
        (b'"d": 4', b'"d": -4'),
    ])
    def test_config_echo_out_of_range_is_data_error(self, tmp_path, old, new):
        cfg = AgentConfig(hidden=8, seed=0)
        path = tmp_path / "p.pol"
        save_policy(init_policy(4, cfg), str(path), cfg, d=4)
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
        with pytest.raises(DataError, match="corrupt policy checkpoint"):
            load_policy(str(path))

    def test_non_finite_value_is_data_error(self, tmp_path):
        cfg = AgentConfig(hidden=8, seed=0)
        path = tmp_path / "p.pol"
        save_policy(init_policy(4, cfg), str(path), cfg, d=4)
        path.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", float("inf")))
        with pytest.raises(DataError, match=r"p\.pol contains non-finite values"):
            load_policy(str(path))

    @given(at=st.integers(0, 10_000), bit=st.integers(0, 7))
    @settings(max_examples=500)
    def test_bit_flip_raises_only_typed_errors(self, fuzz_dir, at, bit):
        cfg = AgentConfig(hidden=8, seed=0)
        path = fuzz_dir / "p.pol"
        save_policy(init_policy(4, cfg), str(path), cfg, d=4)
        try:
            load_policy(flip_bit(path, at, bit))
        except (DataError, CheckpointMismatchError):
            pass
