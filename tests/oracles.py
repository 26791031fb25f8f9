"""Independent brute-force oracles used by unit and acceptance tests.

These deliberately avoid the library's own code paths: metrics are recomputed
with plain loops, state features rebuilt from the state's fields, embedding
and policy gradients with central finite differences (embedding gradients
also on one tensor per entity type and relation, with `np.add.at` scatters
and per-tensor Adam in its textbook form; policy gradients also with a
per-step loop of outer products, and advantages with a fresh forward pass
per step), rollouts against a walk through `PathEnv.step`, agent training against a loop of
those walks and per-step updates, beam results against exhaustive
action-sequence enumeration and against a beam search that expands every
prefix on its own, candidate ranking against a dict of each course's
best (Path, score) pair, action-set matrices against a row-by-row build,
action-set scores against a loop over decoded (relation, tail) edges,
the graph's CSR adjacency against a dict of sorted edge tuples per head, and
the latent-factor baseline's row scatter against `np.add.at`.
"""

import math
from types import SimpleNamespace

import numpy as np

from pathrec.embeddings import (
    RELATIONS, _canonical_triples, batch_loss_and_grads, draw_negatives, init_embeddings,
)
from pathrec.environment import Path, PathEnv, reward
from pathrec.errors import DivergenceError
from pathrec.inference import RecommendationList, RecommendedItem
from pathrec.kg import KnowledgeGraph
from pathrec.optim import softplus, stable_sigmoid
from pathrec.policy import baseline, feature_size, init_policy, policy_forward
from pathrec.schema import (
    ENTITY_TYPES, FORWARD_RELATIONS, SELF_LOOP, EntityRef, forward_name, inverse_of, is_forward,
    relation_types,
)


class ReferenceAdam:
    """`Adam` in its textbook form: fresh moment and parameter arrays each step."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps, self.t = lr, beta1, beta2, eps, 0
        self.m, self.v = {}, {}

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        out = {}
        for key, p in params.items():
            g = grads[key]
            m = b1 * self.m.get(key, 0.0) + (1.0 - b1) * g
            v = b2 * self.v.get(key, 0.0) + (1.0 - b2) * g * g
            self.m[key], self.v[key] = m, v
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            out[key] = p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return out


def add_at_rows(param, rows, terms):
    """A copy of `param` with terms[r] added to row rows[r], one term at a
    time in order, by `np.add.at`."""
    out = param.copy()
    np.add.at(out, rows, terms)
    return out


def reference_adjacency(kg):
    """Each head's (relation, tail) edges, inverses included, sorted by
    (relation name, tail index), built one triple at a time."""
    adj: dict[EntityRef, list[tuple[str, EntityRef]]] = {}
    for rel in sorted(kg.edges):
        h_type, t_type = relation_types(rel)
        inv = inverse_of(rel)
        for h, t in kg.edges[rel]:
            href, tref = EntityRef(h_type, h), EntityRef(t_type, t)
            adj.setdefault(href, []).append((rel, tref))
            adj.setdefault(tref, []).append((inv, href))
    return {
        ref: tuple(sorted(items, key=lambda e: (e[0], e[1].index)))
        for ref, items in adj.items()
    }


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


def state_features(state, table, history):
    """[v_start ; v_current ; v_start - v_current ; last H hops (rel, entity)],
    built from an `EnvState`; missing history slots and self-loop hops are zero.
    """
    d = table.d
    x = np.zeros(feature_size(d, history))
    v_start = table.vector(state.start)
    v_current = table.vector(state.current)
    x[:d] = v_start
    x[d : 2 * d] = v_current
    x[2 * d : 3 * d] = v_start - v_current
    for j in range(min(history, len(state.history))):
        rel, ent = state.history[j]
        if rel == SELF_LOOP:
            continue
        base = 3 * d + j * 2 * d
        x[base : base + d] = table.feature_relation_vector(rel)
        x[base + d : base + 2 * d] = table.vector(ent)
    return x


def reference_batch_loss_and_grads(params, batch, negatives):
    """Embedding loss and gradients on one tensor per entity type and relation.

    `params` maps each entity type and each forward relation to its tensor;
    `batch` rows are `_canonical_triples` rows (relation position, head
    index, tail index) and `negatives[i]` the corrupting tail indices of
    batch[i]. Gradients are keyed like `params`, scattered with `np.add.at`.
    """
    loss = 0.0
    grads = {key: np.zeros_like(arr) for key, arr in params.items()}
    order = np.argsort(batch[:, 0], kind="stable")
    rel_ids, starts = np.unique(batch[order, 0], return_index=True)
    for r, rows in zip(rel_ids, np.split(order, starts[1:])):
        rel = RELATIONS[r]
        h_type, t_type = relation_types(rel)
        h_idx, t_idx = batch[rows, 1], batch[rows, 2]
        neg_idx = negatives[rows]  # (B, m)
        H = params[h_type][h_idx]
        T = params[t_type][t_idx]
        HR = H + params[rel]
        f_pos = np.einsum("bd,bd->b", HR, T)
        T_neg = params[t_type][neg_idx]  # (B, m, d)
        f_neg = np.einsum("bd,bmd->bm", HR, T_neg)
        loss += float(np.sum(softplus(-f_pos)) + np.sum(softplus(f_neg)))
        coef_pos = -stable_sigmoid(-f_pos)
        coef_neg = stable_sigmoid(f_neg)
        dHR = coef_pos[:, None] * T + np.einsum("bm,bmd->bd", coef_neg, T_neg)
        np.add.at(grads[h_type], h_idx, dHR)
        grads[rel] += dHR.sum(axis=0)
        np.add.at(grads[t_type], t_idx, coef_pos[:, None] * HR)
        np.add.at(
            grads[t_type],
            neg_idx.ravel(),
            (coef_neg[:, :, None] * HR[:, None, :]).reshape(-1, HR.shape[1]),
        )
    return loss, grads


def reference_train_embeddings(kg, cfg):
    """The embedding trainer on one tensor per entity type and relation, with
    per-tensor Adam and `reference_batch_loss_and_grads`; returns (params,
    per-epoch mean loss) and draws the same random stream as the library."""
    table = init_embeddings(kg, cfg)
    params = {**table.entity, **table.relation}
    triples = _canonical_triples(kg)
    opt = ReferenceAdam(cfg.learning_rate)
    m = cfg.negatives_per_positive
    tail_sizes = np.array([kg.n_entities(relation_types(rel)[1]) for rel in RELATIONS])
    losses = []
    for epoch in range(1, cfg.epochs + 1):
        rng = np.random.default_rng([cfg.seed, 3, epoch])
        order = rng.permutation(len(triples))
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = triples[order[start : start + cfg.batch_size]]
            negatives = draw_negatives(rng, tail_sizes[batch[:, 0]], m)
            loss, grads = reference_batch_loss_and_grads(params, batch, negatives)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            total += loss
            params = opt.step(params, grads)
        losses.append(total / len(triples))
    return params, losses


def to_rows(params, batch, negatives):
    """A dict-form problem in the trainer's layout: the stacked matrix W
    (entity types in ENTITY_TYPES order, then one row per relation in
    RELATIONS order), and the batch and negatives as rows of W."""
    W = np.concatenate([*(params[e] for e in ENTITY_TYPES), [params[r] for r in RELATIONS]])
    first = dict(zip(ENTITY_TYPES, np.cumsum([0] + [len(params[e]) for e in ENTITY_TYPES])))
    shift = np.array([[first[e] for e in relation_types(rel)] for rel in RELATIONS])
    rows = batch.copy()
    rows[:, 1:] += shift[batch[:, 0]]
    return W, rows, negatives + shift[batch[:, 0], 1:]


def from_rows(W, entity):
    """Views into W keyed by entity type and relation, the inverse of
    `to_rows`; `entity[etype]` has as many rows as that type's block."""
    out, row = {}, 0
    for etype in ENTITY_TYPES:
        out[etype] = W[row : row + len(entity[etype])]
        row += len(entity[etype])
    out.update(zip(RELATIONS, W[row:]))
    return out


def grad_check_embeddings(cfg, sample_size=100):
    """Max relative error of analytic vs central-difference embedding gradients.

    Probes `sample_size` random (triple, parameter, coordinate) combinations
    on an internally generated miniature graph; step 1e-5, double precision.
    """
    cfg.validate()
    rng = np.random.default_rng([cfg.seed, 4])
    sizes = {"learner": 6, "course": 5, "teacher": 3, "category": 3, "concept": 4, "school": 2}
    vocab = {etype: [f"{etype}{i}" for i in range(n)] for etype, n in sizes.items()}
    edges = {}
    for rel in FORWARD_RELATIONS:
        h_type, t_type = relation_types(rel)
        n_pairs = 6
        edges[rel] = {
            (int(rng.integers(sizes[h_type])), int(rng.integers(sizes[t_type])))
            for _ in range(n_pairs)
        }
    kg = KnowledgeGraph(vocab, edges)
    table = init_embeddings(kg, cfg)
    # spread the vectors out so probed gradients are not degenerately small
    for arr in (*table.entity.values(), *table.relation.values()):
        arr += rng.normal(scale=0.3, size=arr.shape)

    triples = _canonical_triples(kg)
    m = cfg.negatives_per_positive
    tail_sizes = [sizes[relation_types(RELATIONS[r])[1]] for r in triples[:, 0]]
    negatives = draw_negatives(rng, tail_sizes, m)
    # probe the library's function; params are views of its stacked matrix
    W, rows, neg_rows = to_rows({**table.entity, **table.relation}, triples, negatives)
    params = from_rows(W, table.entity)
    grads = from_rows(batch_loss_and_grads(W, rows, neg_rows)[1], params)

    step = 1e-5
    worst = 0.0
    for _ in range(sample_size):
        i = int(rng.integers(len(triples)))
        r, h, t = (int(v) for v in triples[i])
        rel = RELATIONS[r]
        h_type, t_type = relation_types(rel)
        key, row_index = [
            (h_type, h),
            (rel, None),
            (t_type, t),
            (t_type, int(negatives[i, int(rng.integers(m))])),
        ][int(rng.integers(4))]
        row = params[key] if row_index is None else params[key][row_index]
        col = int(rng.integers(cfg.d))
        analytic = (grads[key] if row_index is None else grads[key][row_index])[col]
        orig = row[col]
        row[col] = orig + step
        up = batch_loss_and_grads(W, rows, neg_rows)[0]
        row[col] = orig - step
        down = batch_loss_and_grads(W, rows, neg_rows)[0]
        row[col] = orig
        numeric = (up - down) / (2.0 * step)
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, err)
    return worst


def step_returns(episode, gamma):
    """G_t of each step: the terminal reward discounted back from the last step."""
    t_final = len(episode.steps) - 1
    return [gamma ** (t_final - t) * episode.reward for t in range(len(episode.steps))]


def batch_surrogate(params, episodes, advantages, entropy_weight, gamma):
    """Objective ascended by one policy update, with advantages held constant.

    sum_t [log pi(a_t|s_t) * adv_t + beta * H(pi(.|s_t))] - 0.5 * sum_t (b_t - G_t)^2
    """
    total = 0.0
    for ep, advs in zip(episodes, advantages):
        returns = step_returns(ep, gamma)
        for t, step in enumerate(ep.steps):
            probs, logp, h = policy_forward(params, step.features, step.action_matrix)
            entropy = -float(np.sum(probs * logp))
            total += advs[t] * float(logp[step.chosen]) + entropy_weight * entropy
            total -= 0.5 * (baseline(params, h) - returns[t]) ** 2
    return total


def fd_policy_gradient_error(
    params, batch, advantages, entropy_weight, gamma, analytic, probes, rng, step=1e-5
):
    """Max relative error of `analytic` vs central differences of the
    surrogate, over the walks of the `sample_episodes` batch `batch`."""
    episodes = [batch.episode(i) for i in range(len(batch.learners))]
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


def reference_advantages(params, episodes, gamma):
    """Return minus baseline per step, each baseline from a fresh forward pass."""
    out = []
    for ep in episodes:
        returns = step_returns(ep, gamma)
        advs = []
        for t, step in enumerate(ep.steps):
            _p, _lp, h = policy_forward(params, step.features, step.action_matrix)
            advs.append(returns[t] - baseline(params, h))
        out.append(advs)
    return out


def reference_batch_gradients(params, episodes, advantages, entropy_weight, gamma):
    """Gradient of `batch_surrogate`, accumulated step by step with outer products."""
    grads = {key: np.zeros_like(arr) for key, arr in params.items()}
    for ep, advs in zip(episodes, advantages):
        returns = step_returns(ep, gamma)
        for t, step in enumerate(ep.steps):
            x, A, k = step.features, step.action_matrix, step.chosen
            probs, logp, h = policy_forward(params, x, A)
            entropy = -float(np.sum(probs * logp))
            dlogits = -advs[t] * probs
            dlogits[k] += advs[t]
            dlogits += entropy_weight * (-probs * (logp + entropy))
            dbase = -(baseline(params, h) - returns[t])
            atd = A.T @ dlogits
            dh = params["proj"] @ atd + dbase * params["v_w"]
            dh_pre = dh * (1.0 - h * h)
            grads["w1"] += np.outer(dh_pre, x)
            grads["b1"] += dh_pre
            grads["proj"] += np.outer(h, atd)
            grads["v_w"] += dbase * h
            grads["v_b"][0] += dbase
    return grads


def reference_episode(learner, env, params, spec, hop_budget, rng):
    """`sample_episode` stepping through `PathEnv.step`, with each state's
    features rebuilt by `state_features`; returns (path, reward, features)."""
    state = env.initial_state(learner, hop_budget)
    hops, features = [], []
    for _ in range(hop_budget):
        aset = env.action_set(state.current)
        x = state_features(state, env.embeddings, env.history_len)
        probs, _logp, _h = policy_forward(params, x, aset.matrix)
        k = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        action = aset.actions[min(k, len(probs) - 1)]
        features.append(x)
        hops.append(action)
        state = env.step(state, action)
    path = Path(learner, tuple(hops))
    return path, reward(path, spec), features


def reference_train_agent(kg, table, cfg, spec):
    """`train_agent` one episode at a time: each walk by `reference_episode`,
    each batch's update by `reference_advantages`, `reference_batch_gradients`
    and an Adam step. Returns (params, per-epoch mean reward, sampled paths)."""
    params = init_policy(table.d, cfg)
    env = PathEnv(kg, table, cfg.max_actions, cfg.history)
    opt = ReferenceAdam(cfg.learning_rate)
    budget = cfg.hop_budget()

    def update(params, episodes):
        advantages = reference_advantages(params, episodes, cfg.gamma)
        grads = reference_batch_gradients(
            params, episodes, advantages, cfg.entropy_weight, cfg.gamma
        )
        return opt.step(params, {key: -g for key, g in grads.items()})

    mean_rewards, paths = [], []
    for epoch in range(1, cfg.epochs + 1):
        buffer, rewards = [], []
        for learner in kg.learners():
            for j in range(cfg.episodes_per_learner):
                rng = np.random.default_rng([cfg.seed, epoch, learner.index, j])
                path, r, features = reference_episode(learner, env, params, spec, budget, rng)
                steps, current = [], learner
                for x, action in zip(features, path.hops):
                    aset = env.action_set(current)
                    steps.append(SimpleNamespace(
                        features=x, action_matrix=aset.matrix, chosen=aset.actions.index(action)
                    ))
                    current = action[1]
                buffer.append(SimpleNamespace(steps=steps, reward=r))
                rewards.append(r)
                paths.append(path)
                if len(buffer) == cfg.batch_episodes:
                    params, buffer = update(params, buffer), []
        if buffer:
            params = update(params, buffer)
        mean_rewards.append(float(np.mean(rewards)))
    return params, mean_rewards, paths


def reference_action_matrix(table, actions):
    """`ActionSet.matrix` built one row at a time: [relation feature vector ;
    tail vector] per action."""
    d = table.d
    matrix = np.empty((len(actions), 2 * d))
    for i, (rel, tail) in enumerate(actions):
        matrix[i, :d] = table.feature_relation_vector(rel)
        matrix[i, d:] = table.vector(tail)
    return matrix


def reference_score_edges(table, head, edges):
    """`EmbeddingTable.score_edges` over decoded (relation, tail) edges of
    `head`, as sorted by `KnowledgeGraph.neighbors`: one product per relation
    run, with tail rows gathered from the per-type tensors."""
    v_h = table.vector(head)
    out = np.empty(len(edges))
    i = 0
    while i < len(edges):
        rel = edges[i][0]
        j = i
        while j < len(edges) and edges[j][0] == rel:
            j += 1
        t_type = edges[i][1].entity_type
        tails = table.entity[t_type][[e[1].index for e in edges[i:j]]]
        if is_forward(rel):
            out[i:j] = tails @ (v_h + table.relation[rel])
        else:
            fwd = table.relation[forward_name(rel)]
            out[i:j] = tails @ v_h + float(fwd @ v_h)
        i = j
    return out


def reference_beam_search(learner, env, params, beam_widths):
    """`beam_search` with one action set, forward pass and argsort per prefix."""
    beams = [(env.initial_state(learner, len(beam_widths)), (), 0.0)]
    for width in beam_widths:
        grown = []
        for state, hops, acc in beams:
            aset = env.action_set(state.current)
            x = state_features(state, env.embeddings, env.history_len)
            _probs, logp, _h = policy_forward(params, x, aset.matrix)
            top = np.argsort(-logp, kind="stable")[:width]
            for idx in top:
                action = aset.actions[idx]
                grown.append((env.step(state, action), (*hops, action), acc + float(logp[idx])))
        beams = grown
    return [(Path(learner, hops), acc) for _state, hops, acc in beams]


def reference_rank_candidates(pairs, learner, train_courses, n=10):
    """`rank_candidates` over a list of (Path, score) pairs, with one dict
    entry per unseen course; a later prefix replaces it only on a strictly
    higher score."""
    best: dict[int, tuple[float, Path]] = {}
    for path, log_prob in pairs:
        final = path.final_entity
        if final.entity_type != "course" or final.index in train_courses:
            continue
        seen = best.get(final.index)
        if seen is None or log_prob > seen[0]:
            best[final.index] = (log_prob, path)
    ranked = sorted(best.items(), key=lambda kv: (-kv[1][0], kv[0]))[:n]
    items = tuple(
        RecommendedItem(EntityRef("course", c), score, path) for c, (score, path) in ranked
    )
    return RecommendationList(learner=learner, items=items, n=n)


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
