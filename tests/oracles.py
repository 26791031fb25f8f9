"""Independent brute-force oracles used by unit and acceptance tests.

These deliberately avoid the library's own code paths: metrics are recomputed
with plain loops, policy gradients with central finite differences and with a
per-step loop of outer products, and beam results against exhaustive
action-sequence enumeration and against a beam search that expands every
prefix on its own.
"""

import math

import numpy as np

from pathrec.environment import Path
from pathrec.policy import batch_surrogate, policy_forward, state_features, step_returns


def metrics_oracle(ranked, relevant, k):
    """(ndcg, recall, hr, precision) computed the long way."""
    gains = []
    for item in ranked[:k]:
        gains.append(1.0 if item in relevant else 0.0)
    dcg = 0.0
    for pos in range(len(gains)):
        rank = pos + 1
        dcg += gains[pos] / (math.log(rank + 1) / math.log(2))
    ideal_hits = min(len(relevant), k)
    idcg = 0.0
    for rank in range(1, ideal_hits + 1):
        idcg += 1.0 / (math.log(rank + 1) / math.log(2))
    hits = sum(gains)
    ndcg = dcg / idcg
    recall = hits / len(relevant)
    hr = 1.0 if hits > 0 else 0.0
    precision = hits / k
    return ndcg, recall, hr, precision


def fd_policy_gradient_error(
    params, episodes, advantages, entropy_weight, gamma, analytic, probes, rng, step=1e-5
):
    """Max relative error of `analytic` vs central differences of the surrogate."""
    names = sorted(params)
    worst = 0.0
    for _ in range(probes):
        name = names[int(rng.integers(len(names)))]
        arr = params[name]
        flat_index = int(rng.integers(arr.size))
        orig = arr.flat[flat_index]
        arr.flat[flat_index] = orig + step
        up = batch_surrogate(params, episodes, advantages, entropy_weight, gamma)
        arr.flat[flat_index] = orig - step
        down = batch_surrogate(params, episodes, advantages, entropy_weight, gamma)
        arr.flat[flat_index] = orig
        numeric = (up - down) / (2.0 * step)
        a = analytic[name].flat[flat_index]
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-4))
    return worst


def reference_batch_gradients(params, episodes, advantages, entropy_weight, gamma):
    """Gradient of `batch_surrogate`, accumulated step by step with outer products."""
    grads = {key: np.zeros_like(arr) for key, arr in params.items()}
    for ep, advs in zip(episodes, advantages):
        returns = step_returns(ep, gamma)
        for t, step in enumerate(ep.steps):
            x, A, k = step.features, step.action_matrix, step.chosen
            probs, logp, h, b = policy_forward(params, x, A)
            entropy = -float(np.sum(probs * logp))
            dlogits = -advs[t] * probs
            dlogits[k] += advs[t]
            dlogits += entropy_weight * (-probs * (logp + entropy))
            dbase = -(b - returns[t])
            atd = A.T @ dlogits
            dh = params["proj"] @ atd + dbase * params["v_w"]
            dh_pre = dh * (1.0 - h * h)
            grads["w1"] += np.outer(dh_pre, x)
            grads["b1"] += dh_pre
            grads["proj"] += np.outer(h, atd)
            grads["v_w"] += dbase * h
            grads["v_b"][0] += dbase
    return grads


def reference_beam_search(learner, env, params, beam_widths):
    """`beam_search` with one action set, forward pass and argsort per prefix."""
    beams = [(env.initial_state(learner, len(beam_widths)), (), 0.0)]
    for width in beam_widths:
        grown = []
        for state, hops, acc in beams:
            aset = env.action_set(state.current)
            x = state_features(state, env.embeddings, env.history_len)
            _probs, logp, _h, _b = policy_forward(params, x, aset.matrix)
            top = np.argsort(-logp, kind="stable")[:width]
            for idx in top:
                action = aset.actions[idx]
                grown.append((env.step(state, action), (*hops, action), acc + float(logp[idx])))
        beams = grown
    return [(Path(learner, hops), acc) for _state, hops, acc in beams]


def enumerate_terminal_courses(env, learner, budget, train_courses):
    """Terminal courses of ALL budget-length action sequences, minus train ones."""
    courses = set()

    def walk(state, depth):
        if depth == budget:
            if state.current.entity_type == "course" and state.current.index not in train_courses:
                courses.add(state.current.index)
            return
        for action in env.actions(state):
            walk(env.step(state, action), depth + 1)

    walk(env.initial_state(learner, budget), 0)
    return courses


def enumerate_all_paths(env, learner, budget):
    """Every budget-length path as a Path object (exponential; tiny graphs only)."""
    paths = []

    def walk(state, hops):
        if len(hops) == budget:
            paths.append(Path(learner, tuple(hops)))
            return
        for action in env.actions(state):
            walk(env.step(state, action), [*hops, action])

    walk(env.initial_state(learner, budget), [])
    return paths
