import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathrec.policy as policy_module
from pathrec.embeddings import EmbedConfig, init_embeddings
from pathrec.environment import PathEnv, RewardSpec
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
    hop_forward,
    init_policy,
    load_policy,
    policy_forward,
    reinforce_update,
    sample_episode,
    sample_episodes,
    save_policy,
    start_features,
    step_features,
    train_agent,
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
        x = start_features(env.embeddings, EntityRef("learner", 0), history=1)
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
        for learner in env.kg.learners():
            state = env.initial_state(learner, 4)
            for _ in range(4):
                aset = env.action_set(state.current)
                x = state_features(state, env.embeddings, history)
                for i, action in enumerate(aset.actions):
                    got = step_features(
                        x[None, :], np.array([0]), aset.matrix[[i]], np.array([i == 0]), history
                    )
                    want = state_features(env.step(state, action), env.embeddings, history)
                    np.testing.assert_array_equal(got[0], want)
                state = env.step(state, aset.actions[int(rng.integers(len(aset.actions)))])

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
        got = first_layer_tables(params, env).preactivations(
            np.array([s.start.index for s in states]),
            np.array([kg.entity_id(s.current) for s in states]),
            ids,
        )
        features = np.array([state_features(s, env.embeddings, history) for s in states])
        want = features @ params["w1"].T + params["b1"]
        assert np.abs(got - want).max() <= 1e-12


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
        hop = hop_forward(params, X, matrices, np.ones(len(matrices), dtype=int))
        assert hop.starts.tolist() == np.cumsum([0, 6, 1, 12, 3, 9, 2, 1, 10]).tolist()
        assert hop.seg.tolist() == np.repeat(np.arange(9), [len(m) for m in matrices]).tolist()
        assert hop.chosen is None
        for i, (x, a) in enumerate(zip(X, matrices)):
            probs, logp, h = policy_forward(params, x, a)
            rows = slice(hop.starts[i], hop.starts[i] + len(a))
            np.testing.assert_allclose(hop.hidden[i], h, rtol=0, atol=1e-12)
            np.testing.assert_allclose(hop.probs[rows], probs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(hop.log_probs[rows], logp, rtol=0, atol=1e-12)
            assert hop.entropy[i] == pytest.approx(-np.sum(probs * logp), rel=0, abs=1e-12)
        np.testing.assert_array_equal(hop.features, X)

    def test_runs_of_one_score_as_matrix_vector_products(self):
        # the logits of runs of one are those of `matrix @ query`, bit for bit,
        # so the distributions are those of that product under hop_forward's
        # segment softmax
        d, hidden = 5, 16
        params = init_policy(d, AgentConfig(hidden=hidden, seed=4))
        params["b1"] = np.random.default_rng(2).normal(size=hidden)
        rng = np.random.default_rng(5)
        for trial in range(20):
            sizes = rng.integers(1, 30, size=int(rng.integers(1, 12)))
            X = rng.normal(size=(len(sizes), feature_size(d, 1))) * 3
            matrices = [rng.normal(size=(n, 2 * d)) * 3 for n in sizes]
            hop = hop_forward(params, X, matrices, np.ones(len(sizes), dtype=int))
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
        got = hop_forward(params, X, matrices, runs)
        per_state = [m for m, r in zip(matrices, runs) for _ in range(r)]
        want = hop_forward(params, X, per_state, np.ones(len(per_state), dtype=int))
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
            sample_episodes([], env, params, BINARY, 4, [])

    @pytest.mark.parametrize("graph", ["tiny", "generated"])
    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_a_walk_is_the_same_alone_and_in_any_batch(self, graph, history):
        kg, env, params, spec = walk_setup(graph, history)
        walks = [(u, j) for u in kg.learners() for j in range(3)]
        alone = [
            sample_episode(u, env, params, spec, 4, np.random.default_rng([9, u.index, j]))
            for u, j in walks
        ]
        for order in (walks, walks[::-1], walks[1::2]):
            batch = sample_episodes(
                [u for u, _j in order], env, params, spec, 4,
                [np.random.default_rng([9, u.index, j]) for u, j in order],
            )
            for i, ep in enumerate(batch):
                want = alone[walks.index(order[i])]
                assert ep.path == want.path and ep.reward == want.reward
                assert ep.row == i and len(ep.hops) == 4
                for got, one in zip(ep.hops, want.hops):
                    rows = slice(got.starts[i], got.starts[i] + len(got.matrices[i]))
                    assert got.chosen[i] == one.chosen[0]
                    assert got.features[i].tobytes() == one.features[0].tobytes()
                    np.testing.assert_allclose(got.hidden[i], one.hidden[0], rtol=0, atol=1e-12)
                    np.testing.assert_allclose(got.probs[rows], one.probs, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(
                        got.log_probs[rows], one.log_probs, rtol=0, atol=1e-12
                    )


def frozen_batch(d=2, n_episodes=2, seed=0, hidden=6, lockstep=False):
    """Episodes sampled one by one, so that an update gathers them hop by hop,
    or (lockstep) as one batch, whose hops an update reads as they are."""
    env = tiny_env(d=d, seed=seed)
    params = init_policy(d, AgentConfig(hidden=hidden, seed=seed))
    learners = [EntityRef("learner", i % 4) for i in range(n_episodes)]
    rngs = [np.random.default_rng(100 + i) for i in range(n_episodes)]
    if lockstep:
        return params, sample_episodes(learners, env, params, BINARY, 4, rngs)
    return params, [
        sample_episode(learner, env, params, BINARY, 4, rng) for learner, rng in zip(learners, rngs)
    ]


def varied_batch(lockstep=False):
    """A frozen batch of 81 episodes with varied advantages."""
    params, episodes = frozen_batch(d=4, n_episodes=81, hidden=8, lockstep=lockstep)
    rng = np.random.default_rng(7)
    params["v_w"] = rng.normal(scale=0.5, size=params["v_w"].shape)
    for ep in episodes:
        ep.reward = float(rng.random())
    return params, episodes, compute_advantages(params, episodes, gamma=0.9)


class TestReinforceUpdate:
    def test_zero_advantage_moves_only_entropy(self):
        params, episodes = frozen_batch()
        # force every reward and every baseline output to the same constant
        for ep in episodes:
            ep.reward = 0.5
        params["v_w"][:] = 0.0
        params["v_b"][0] = 0.5
        advantages = compute_advantages(params, episodes, gamma=1.0)
        assert all(abs(a) < 1e-12 for advs in advantages for a in advs)
        grads = batch_gradients(params, episodes, advantages, entropy_weight=0.0)
        for arr in grads.values():
            np.testing.assert_allclose(arr, 0.0, atol=1e-12)
        with_entropy = batch_gradients(params, episodes, advantages, 0.01)
        assert any(np.abs(arr).max() > 0 for arr in with_entropy.values())

    def test_gradient_matches_finite_differences(self):
        params, episodes = frozen_batch(d=2, n_episodes=2)
        episodes[0].reward = 1.0  # make advantages non-trivial
        cfg = AgentConfig(hidden=6, entropy_weight=0.01, seed=0)
        advantages = compute_advantages(params, episodes, cfg.gamma)
        analytic = batch_gradients(params, episodes, advantages, cfg.entropy_weight)
        err = fd_policy_gradient_error(
            params, episodes, advantages, cfg.entropy_weight, cfg.gamma,
            analytic, probes=60, rng=np.random.default_rng(0),
        )
        assert err <= 1e-3

    def test_gradient_matches_per_step_oracle(self):
        for lockstep in (False, True):
            params, episodes, advantages = varied_batch(lockstep)
            got = batch_gradients(params, episodes, advantages, 0.05)
            want = reference_batch_gradients(params, episodes, advantages, 0.05, 0.9)
            for key in params:
                np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)

    def test_advantages_equal_fresh_forward_oracle(self):
        # the baseline is one product per hop, `H @ v_w`, and the stored hidden
        # layers a matrix product, so they agree with a one-state pass by rounding
        for lockstep in (False, True):
            params, episodes, advantages = varied_batch(lockstep)
            want = reference_advantages(params, episodes, gamma=0.9)
            assert advantages.shape == (81, 4)
            np.testing.assert_allclose(advantages, want, rtol=0, atol=1e-12)

    def test_gradient_is_additive_over_episodes(self):
        # the halves of a lockstep batch are gathered from its hops, the whole is read as it is
        for lockstep in (False, True):
            params, episodes, advantages = varied_batch(lockstep)
            whole = batch_gradients(params, episodes, advantages, 0.05)
            half = len(episodes) // 2 + 1
            first = batch_gradients(params, episodes[:half], advantages[:half], 0.05)
            second = batch_gradients(params, episodes[half:], advantages[half:], 0.05)
            for key in params:
                np.testing.assert_allclose(whole[key], first[key] + second[key], rtol=1e-12,
                                           atol=0, err_msg=key)

    def test_zero_learning_rate_keeps_params(self):
        params, episodes = frozen_batch()
        episodes[0].reward = 1.0
        cfg = AgentConfig(hidden=6, learning_rate=0.0, seed=0)
        new_params, _stats = reinforce_update(episodes, params, Adam(0.0), cfg)
        for key in params:
            np.testing.assert_array_equal(new_params[key], params[key])

    def test_stats_shape(self):
        params, episodes = frozen_batch()
        cfg = AgentConfig(hidden=6, seed=0)
        _p, stats = reinforce_update(episodes, params, Adam(1e-3), cfg)
        assert set(stats) == {"mean_reward", "mean_entropy"}

    def test_empty_batch_rejected(self):
        params, _ = frozen_batch()
        with pytest.raises(ValueError):
            reinforce_update([], params, Adam(1e-3), AgentConfig(hidden=6))


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
            episodes = real(*args)
            sampled.extend(ep.path for ep in episodes)
            return episodes

        monkeypatch.setattr(policy_module, "sample_episodes", recording)
        params, log = train_agent(kg, env.embeddings, cfg, spec)
        want_params, want_rewards, want_paths = reference_train_agent(kg, env.embeddings, cfg, spec)
        assert sampled == want_paths
        assert log.mean_reward == want_rewards
        assert any(r > 0 for r in want_rewards)
        for key in params:
            np.testing.assert_allclose(params[key], want_params[key], rtol=0, atol=1e-12,
                                       err_msg=key)

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
        kg, table, cfg = self._setup()
        calls = []
        real = policy_module.hop_forward

        def counting(params, features, matrices, runs):
            calls.append(len(features))
            return real(params, features, matrices, runs)

        def forbidden(*args):
            raise AssertionError("training ran the one-state policy_forward")

        monkeypatch.setattr(policy_module, "hop_forward", counting)
        monkeypatch.setattr(policy_module, "policy_forward", forbidden)
        train_agent(kg, table, cfg, BINARY)
        assert calls == ([6] * cfg.hop_budget() + [2] * cfg.hop_budget()) * cfg.epochs

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
        batches = [varied_batch(lockstep) for lockstep in (False, True)]

        def forbidden(*args):
            raise AssertionError("the update ran a forward pass")

        monkeypatch.setattr(policy_module, "policy_forward", forbidden)
        monkeypatch.setattr(policy_module, "hop_forward", forbidden)
        for params, episodes, _ in batches:
            advantages = compute_advantages(params, episodes, gamma=0.9)
            batch_gradients(params, episodes, advantages, 0.05)
            reinforce_update(episodes, params, Adam(1e-3), AgentConfig(hidden=8, gamma=0.9))

    @pytest.mark.parametrize("history", [0, 1, 2])
    def test_stored_forward_equals_a_fresh_one_at_every_update(self, monkeypatch, history):
        kg = make_tiny_kg()
        table = init_embeddings(kg, EmbedConfig(d=4, seed=1))
        # 8 episodes an epoch in batches of 6: the second batch of an epoch is
        # sampled after the first batch's update moved the parameters
        cfg = AgentConfig(epochs=3, hidden=8, batch_episodes=6, history=history, seed=2)
        real = policy_module.reinforce_update
        updates = []

        def checking(episodes, params, opt, cfg):
            hops = episodes[0].hops
            assert all(ep.hops is hops for ep in episodes)
            assert [ep.row for ep in episodes] == list(range(len(episodes)))
            for hop in hops:
                fresh = hop_forward(params, hop.features, hop.matrices, hop.runs)
                for name in ("hidden", "probs", "log_probs", "starts", "seg", "entropy"):
                    assert getattr(hop, name).tobytes() == getattr(fresh, name).tobytes(), name
                for i, (x, matrix) in enumerate(zip(hop.features, hop.matrices)):
                    probs, logp, h = policy_forward(params, x, matrix)
                    rows = slice(hop.starts[i], hop.starts[i] + len(matrix))
                    np.testing.assert_allclose(hop.probs[rows], probs, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(hop.log_probs[rows], logp, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(hop.hidden[i], h, rtol=0, atol=1e-12)
            updates.append(len(episodes))
            return real(episodes, params, opt, cfg)

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
