import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrec.embeddings import EmbedConfig, init_embeddings
from pathrec.environment import PathEnv, RewardSpec
from pathrec.errors import CheckpointMismatchError, ConfigError, DataError
from pathrec.optim import Adam
from pathrec.policy import (
    GRAD_BLOCK,
    AgentConfig,
    action_queries,
    batch_gradients,
    compute_advantages,
    feature_size,
    init_policy,
    load_policy,
    policy_forward,
    reinforce_update,
    sample_episode,
    save_policy,
    state_features,
    step_features,
    train_agent,
)
from pathrec.schema import SELF_LOOP, EntityRef

from conftest import flip_bit, make_tiny_kg, put_bad_byte
from oracles import fd_policy_gradient_error, reference_batch_gradients

TRAIN = {0: frozenset({0, 1, 2}), 1: frozenset({0, 1}), 2: frozenset({2, 3}), 3: frozenset({4})}
BINARY = RewardSpec(mode="binary", train_enrollments=TRAIN)


def tiny_env(d=4, seed=1, history=1):
    kg = make_tiny_kg()
    table = init_embeddings(kg, EmbedConfig(d=d, seed=seed))
    return PathEnv(kg, table, max_actions=250, history_len=history)


class TestStateFeatures:
    def test_initial_state_blocks(self):
        env = tiny_env(d=4)
        state = env.initial_state(EntityRef("learner", 0), 3)
        x = state_features(state, env.embeddings, history=1)
        d = 4
        v = env.embeddings.vector(EntityRef("learner", 0))
        np.testing.assert_array_equal(x[:d], v)
        np.testing.assert_array_equal(x[d : 2 * d], v)
        np.testing.assert_array_equal(x[2 * d : 3 * d], np.zeros(d))
        np.testing.assert_array_equal(x[3 * d :], np.zeros(2 * d))

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
                        x[None, :], aset.matrix[[i]], np.array([i == 0]), history
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


class TestPolicyForward:
    def test_single_candidate_prob_one(self):
        env = tiny_env(d=4)
        params = init_policy(4, AgentConfig(hidden=8, seed=0))
        x = np.zeros(feature_size(4, 1))
        a = np.ones((1, 8))
        probs, logp, _h, _b = policy_forward(params, x, a)
        assert probs.shape == (1,)
        assert probs[0] == pytest.approx(1.0)
        assert logp[0] == pytest.approx(0.0)

    def test_zero_parameters_uniform(self):
        params = {k: np.zeros_like(v) for k, v in init_policy(4, AgentConfig(hidden=8)).items()}
        x = np.arange(feature_size(4, 1), dtype=float)
        a = np.random.default_rng(0).normal(size=(7, 8))
        probs, _lp, _h, baseline = policy_forward(params, x, a)
        np.testing.assert_allclose(probs, np.full(7, 1 / 7))
        assert baseline == 0.0

    def test_constant_logit_shift_invariance(self):
        d = 4
        params = init_policy(d, AgentConfig(hidden=8, seed=3))
        rng = np.random.default_rng(1)
        x = rng.normal(size=feature_size(d, 1))
        a = rng.normal(size=(5, 2 * d))
        probs, _, h, _ = policy_forward(params, x, a)
        # shifting every action embedding by the same vector adds a constant
        # to every logit, so the distribution must not move
        shift = rng.normal(size=2 * d)
        probs2, _, _, _ = policy_forward(params, x, a + shift)
        np.testing.assert_allclose(probs, probs2, atol=1e-12)

    def test_probability_simplex(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            d = int(rng.integers(2, 6))
            cfg = AgentConfig(hidden=int(rng.integers(2, 12)), seed=trial)
            params = init_policy(d, cfg)
            x = rng.normal(size=feature_size(d, 1)) * 3
            a = rng.normal(size=(int(rng.integers(1, 9)), 2 * d)) * 3
            probs, _, _, _ = policy_forward(params, x, a)
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) <= 1e-9

    def test_action_queries_give_each_states_logits(self):
        d, hidden = 5, 16
        params = init_policy(d, AgentConfig(hidden=hidden, seed=4))
        params["b1"] = np.random.default_rng(2).normal(size=hidden)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(9, feature_size(d, 1)))
        a = rng.normal(size=(6, 2 * d))
        queries = action_queries(params, X)
        assert queries.shape == (9, 2 * d)
        for x, q in zip(X, queries):
            _p, logp, _h, _b = policy_forward(params, x, a)
            logits = a @ q
            np.testing.assert_allclose(logits - logits.max(), logp - logp.max(), rtol=0, atol=1e-12)


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

    def test_zero_budget_misuse(self):
        env = tiny_env()
        params = init_policy(4, AgentConfig(hidden=8, seed=0))
        with pytest.raises(ValueError):
            sample_episode(EntityRef("learner", 0), env, params, BINARY, 0,
                           np.random.default_rng(0))


def frozen_batch(d=2, n_episodes=2, seed=0, hidden=6):
    env = tiny_env(d=d, seed=seed)
    params = init_policy(d, AgentConfig(hidden=hidden, seed=seed))
    episodes = [
        sample_episode(EntityRef("learner", i % 4), env, params, BINARY, 4,
                       np.random.default_rng(100 + i))
        for i in range(n_episodes)
    ]
    return params, episodes


def blocked_batch():
    """A frozen batch longer than one gradient block, with varied advantages."""
    params, episodes = frozen_batch(d=4, n_episodes=GRAD_BLOCK // 4 + 17, hidden=8)
    rng = np.random.default_rng(7)
    params["v_w"] = rng.normal(scale=0.5, size=params["v_w"].shape)
    for ep in episodes:
        ep.reward = float(rng.random())
    assert sum(len(ep.steps) for ep in episodes) > GRAD_BLOCK
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
        grads = batch_gradients(params, episodes, advantages, entropy_weight=0.0, gamma=1.0)
        for arr in grads.values():
            np.testing.assert_allclose(arr, 0.0, atol=1e-12)
        with_entropy = batch_gradients(params, episodes, advantages, 0.01, 1.0)
        assert any(np.abs(arr).max() > 0 for arr in with_entropy.values())

    def test_gradient_matches_finite_differences(self):
        params, episodes = frozen_batch(d=2, n_episodes=2)
        episodes[0].reward = 1.0  # make advantages non-trivial
        cfg = AgentConfig(hidden=6, entropy_weight=0.01, seed=0)
        advantages = compute_advantages(params, episodes, cfg.gamma)
        analytic = batch_gradients(params, episodes, advantages, cfg.entropy_weight, cfg.gamma)
        err = fd_policy_gradient_error(
            params, episodes, advantages, cfg.entropy_weight, cfg.gamma,
            analytic, probes=60, rng=np.random.default_rng(0),
        )
        assert err <= 1e-3

    def test_gradient_matches_per_step_oracle(self):
        params, episodes, advantages = blocked_batch()
        got = batch_gradients(params, episodes, advantages, 0.05, 0.9)
        want = reference_batch_gradients(params, episodes, advantages, 0.05, 0.9)
        for key in params:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)

    def test_gradient_is_additive_over_episodes(self):
        params, episodes, advantages = blocked_batch()
        whole = batch_gradients(params, episodes, advantages, 0.05, 0.9)
        half = len(episodes) // 2 + 1  # so the halves' block boundaries differ from the whole's
        first = batch_gradients(params, episodes[:half], advantages[:half], 0.05, 0.9)
        second = batch_gradients(params, episodes[half:], advantages[half:], 0.05, 0.9)
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

    def test_two_seeds_differ(self):
        kg, table = self._setup()
        p1, _ = train_agent(kg, table, AgentConfig(epochs=2, hidden=8, seed=0), BINARY)
        p2, _ = train_agent(kg, table, AgentConfig(epochs=2, hidden=8, seed=1), BINARY)
        assert any(not np.array_equal(p1[k], p2[k]) for k in p1)

    def test_invalid_config_rejected(self):
        kg, table = self._setup()
        with pytest.raises(ConfigError):
            train_agent(kg, table, AgentConfig(max_hops_eval=2), BINARY)

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
