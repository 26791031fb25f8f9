"""The benchmark's tracer (perfbench/tracing.py) wraps pathrec functions and
methods by attribute name. A renamed or dropped attribute would make its
wrapper fail at install time, or, for an alias such as
`inference.policy_forward`, silently stop counting calls, so every target
must still be defined on its owner, and each observer must still read what
its target returns."""

import os
import sys

import numpy as np
from conftest import make_tiny_kg

from pathrec.embeddings import EmbedConfig, init_embeddings
from pathrec.environment import PathEnv, RewardSpec
from pathrec.inference import beam_search
from pathrec.policy import AgentConfig, init_policy, sample_episode

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import tracing  # noqa: E402


def test_every_traced_attribute_is_defined_on_its_owner():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in tracing.TARGETS
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_inference_observers_read_a_real_beam():
    # the tracer's observers take a beam's length and iterate it as (path,
    # score) pairs, so a return type that stopped behaving as that sequence
    # would skew `inference.paths_per_learner` and `course_terminal_ratio`
    observe = {
        attr: observer for owner, attr, _layer, _call, _count, observer in tracing.TARGETS
        if attr in ("beam_search", "rank_candidates")
    }
    kg = make_tiny_kg()
    env = PathEnv(kg, init_embeddings(kg, EmbedConfig(d=4, seed=1)), 250, 1)
    params = init_policy(4, AgentConfig(hidden=8, seed=1))
    learner, train, widths = kg.learners()[1], frozenset({0, 1}), (10, 10, 10)
    beam = beam_search(learner, env, params, widths)
    unseen = (beam.final_course >= 0) & ~np.isin(beam.final_course, sorted(train))
    assert observe["beam_search"](beam, (learner, env, params, widths), {}) == len(beam.acc) > 1
    got = observe["rank_candidates"](None, (beam, learner, train, 10), {})
    assert got == np.count_nonzero(unseen)
    assert 0 < got < len(beam.acc)


def test_environment_and_rollout_observers_read_real_results():
    # `environment.mean_action_set` counts an action set's actions, and
    # `policy.steps` an episode's steps
    observe = {
        attr: observer for owner, attr, _layer, _call, _count, observer in tracing.TARGETS
        if attr in ("action_set", "sample_episode")
    }
    kg = make_tiny_kg()
    env = PathEnv(kg, init_embeddings(kg, EmbedConfig(d=4, seed=1)), 250, 1)
    params = init_policy(4, AgentConfig(hidden=8, seed=1))
    learner = kg.learners()[0]
    aset = env.action_set(learner)
    assert observe["action_set"](aset, (env, learner), {}) == len(aset.actions) == 4
    spec = RewardSpec(mode="binary", train_enrollments={0: frozenset({0, 1, 2})})
    args = (learner, env, params, spec, 4, np.random.default_rng(0))
    episode = sample_episode(*args)
    assert observe["sample_episode"](episode, args, {}) == len(episode.path.hops) == 4
