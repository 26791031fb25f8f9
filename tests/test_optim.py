"""`Adam`, which keeps its state in place, against the textbook form."""

import numpy as np
import pytest

from pathrec.embeddings import EmbedConfig, init_embeddings
from pathrec.optim import Adam
from pathrec.policy import AgentConfig, policy_shapes
from pathrec.synthetic import SynthConfig, generate

from oracles import ReferenceAdam


def shapes(kind):
    if kind == "paper-width policy":  # d=100, hidden 512
        return policy_shapes(100, AgentConfig(hidden=512))
    kg = generate(SynthConfig(n_learners=64, n_courses=60, seed=0))  # the desk graph
    return {"W": init_embeddings(kg, EmbedConfig(d=24)).W.shape}


@pytest.mark.parametrize("kind", ["paper-width policy", "desk embeddings"])
def test_forty_steps_equal_the_textbook_form(kind):
    rng = np.random.default_rng(0)
    got = {key: rng.normal(size=shape) for key, shape in shapes(kind).items()}
    want = {key: p.copy() for key, p in got.items()}
    opt, ref = Adam(1e-3), ReferenceAdam(1e-3)
    for step in range(40):
        grads = {key: rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 3)
                 for key, p in got.items()}
        for g in grads.values():
            g[rng.random(g.shape) < 0.2] = 0.0
            g[rng.random(g.shape) < 0.1] = -0.0
            if step % 7 == 3:
                g[...] = 0.0  # a whole zero gradient
        old = got
        before = {key: (p.tobytes(), grads[key].tobytes()) for key, p in old.items()}
        got, want = opt.step(got, grads), ref.step(want, grads)
        for key in got:
            assert got[key].tobytes() == want[key].tobytes(), (step, key)
        for key, (p, g) in before.items():  # a step leaves its arguments as they were
            assert old[key].tobytes() == p and grads[key].tobytes() == g
