"""Stochastic action policy and its REINFORCE training loop.

The network is a two-layer net over state features: a tanh hidden layer,
an action-conditioned output (hidden state dotted with a projection of
each candidate's [relation ; tail] embedding), and a scalar baseline head
on the same hidden layer. Updates ascend the usual score-function
surrogate sum_t log pi(a_t|s_t) * (G_t - b(s_t)) plus an entropy bonus,
while the baseline head is regressed onto the return by squared error.
Rewards are terminal-only, so with the default gamma of 1 the return at
every step equals the episode reward.

A state is an integer key row (see `start_keys`). Training and beam search
both build the per-id `FirstLayer` tables over the whole graph with one
`first_layer_tables` call, once per batch or search, read a stack of states'
first-layer pre-activations off them and run `hop_from_preactivation` on
them. Training runs one such pass per hop over all of a batch's walks, and
the update reuses it; only `w1`'s gradient needs features, which
`key_features` gathers.

A training batch is one `Batch` from its rollout to its update; its walks stay
key rows and action ids, decoded only on demand.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .embeddings import EmbeddingTable
from .environment import Path, PathEnv, RewardSpec, binary_rewards, reward
from .errors import (
    CheckpointMismatchError, ConfigError, DataError, DivergenceError, atomic_write,
    check_count, read_declared,
)
from .kg import KnowledgeGraph
from .optim import Adam
from .schema import ENTITY_TYPES, EntityRef

POL_MAGIC = "UPGPR-POL v1"


@dataclass(frozen=True)
class AgentConfig:
    max_hops_eval: int = 3
    train_extra_hop: bool = True
    epochs: int = 50
    learning_rate: float = 1e-3
    episodes_per_learner: int = 2
    entropy_weight: float = 0.01
    gamma: float = 1.0
    hidden: int = 512
    history: int = 1
    batch_episodes: int = 512
    max_actions: int = 250
    seed: int = 0
    optimizer: str = "adam"

    def validate(self) -> None:
        for name in ("max_hops_eval", "episodes_per_learner", "hidden", "batch_episodes",
                     "max_actions"):
            check_count(getattr(self, name), name)
        for name in ("epochs", "history", "seed"):
            check_count(getattr(self, name), name, least=0)
        if self.max_hops_eval not in (3, 4, 5):
            raise ConfigError("max_hops_eval must be 3, 4 or 5")
        if not 0 <= self.learning_rate < math.inf:  # also rejects NaN
            raise ConfigError("learning_rate must be finite and non-negative")
        if not 0 <= self.entropy_weight < math.inf:
            raise ConfigError("entropy_weight must be finite and non-negative")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError("gamma must lie in (0, 1]")
        if self.optimizer != "adam":
            raise ConfigError(f"unknown optimizer: {self.optimizer!r}")

    def hop_budget(self) -> int:
        return self.max_hops_eval + (1 if self.train_extra_hop else 0)


def feature_size(d: int, history: int) -> int:
    return 3 * d + history * 2 * d


def policy_shapes(d: int, cfg: AgentConfig) -> dict[str, tuple[int, ...]]:
    """Shape of each parameter tensor; follows the embedding dimension and config."""
    w, f = cfg.hidden, feature_size(d, cfg.history)
    return {"w1": (w, f), "b1": (w,), "proj": (w, 2 * d), "v_w": (w,), "v_b": (1,)}


def init_policy(d: int, cfg: AgentConfig) -> dict[str, np.ndarray]:
    """Parameter pytree with the shapes of `policy_shapes`."""
    cfg.validate()
    rng = np.random.default_rng([cfg.seed, 0])
    shapes = policy_shapes(d, cfg)
    return {
        "w1": rng.normal(0.0, 1.0 / np.sqrt(shapes["w1"][1]), size=shapes["w1"]),
        "b1": np.zeros(shapes["b1"]),
        "proj": rng.normal(0.0, 0.1 / np.sqrt(cfg.hidden), size=shapes["proj"]),
        "v_w": np.zeros(shapes["v_w"]),
        "v_b": np.zeros(shapes["v_b"]),
    }


def start_keys(env: PathEnv, learners: list[EntityRef]) -> np.ndarray:
    """The key rows of walks that start at `learners`. A state's key row is its
    entity id, its learner index, and the ids of the last H actions it took,
    most recent first, with -1 before the first hop.

    As `PathEnv.initial_state` does, it raises TypeError for a start that is
    not a learner and KeyError for one the graph does not hold, once for the
    whole list."""
    other = {u.entity_type for u in learners} - {"learner"}
    if other:
        raise TypeError(f"episodes start at a learner, got {', '.join(sorted(other))}")
    key = np.full((len(learners), 2 + env.history_len), -1, dtype=np.intp)
    key[:, 1] = [u.index for u in learners]
    unknown = (key[:, 1] < 0) | (key[:, 1] >= env.kg.n_entities("learner"))
    if unknown.any():
        raise KeyError(f"unknown entity: {learners[int(np.argmax(unknown))]}")
    key[:, 0] = key[:, 1] + env.kg.offsets[ENTITY_TYPES.index("learner")]
    return key


def step_keys(key: np.ndarray, action_ids: np.ndarray, n_ids: int) -> np.ndarray:
    """The key rows of the states one action on: row i takes action_ids[i]
    from the state of key[i]. The entered entity is the action's tail, which
    is the entity itself for a self-loop, whose id is its entity's.
    """
    child = np.column_stack([action_ids % n_ids, key[:, 1], action_ids, key[:, 2:-1]])
    return child[:, : key.shape[1]]


def key_features(env: PathEnv, key: np.ndarray) -> np.ndarray:
    """The features [v_start ; v_current ; v_start - v_current ; (rel ; tail) x H]
    of the states of key rows, gathered from `env`'s rows, bit for bit the same
    in any stack; a history slot at -1 or on a self-loop is zero."""
    start = env.embeddings.entity["learner"][key[:, 1]]
    current = env.entity_rows[key[:, 0]]
    blocks = [start, current, start - current]
    for ids in key[:, 2:].T:
        rows = env.action_rows(ids)
        rows[ids < env.kg.n_ids] = 0.0  # a self-loop's id is its entity's, below n_ids
        blocks.append(rows)
    return np.concatenate(blocks, axis=1)


class FirstLayer(NamedTuple):
    """The first layer's pre-activation `w1 @ x + b1` of a state's features x,
    split by the feature blocks of `key_features`.

    With w1 = [A B C R_1 T_1 ... R_H T_H] over
    [v_start ; v_current ; v_start - v_current ; (rel ; tail) x H], it is
    [(A + C) v_start + b1] + (B - C) v_current + sum_k (R_k rel_k + T_k tail_k).
    `start` holds the first term per learner index, `current` the second per
    entity id, and relation[k] and tail[k] history slot k's terms per
    relation id and per entity id. Each tail[k] ends in one zero row more,
    for the slots that hold no tail.
    """

    start: np.ndarray
    current: np.ndarray
    relation: list[np.ndarray]
    tail: list[np.ndarray]

    def preactivations(
        self, learner: np.ndarray, entity: np.ndarray, history: np.ndarray
    ) -> np.ndarray:
        """`features @ w1.T + b1`, to within rounding, of the walks from
        learner indices `learner` on entity ids `entity`, where history[i, k]
        is the action id walk i took k + 1 hops ago, or -1 before its first
        hop. Such a slot and a self-loop's have zero features: they take the
        self-loop's zero relation row and the zero tail row."""
        n_ids = len(self.current)
        pre = self.start[learner]  # a copy; each sum below adds in place
        pre += self.current[entity]
        for relation, tail, ids in zip(self.relation, self.tail, history.T):
            rel, ent = np.divmod(ids, n_ids)
            real = ids >= n_ids  # a self-loop's id is its entity's, below n_ids
            pre += relation[np.where(real, rel, 0)]
            pre += tail[np.where(real, ent, n_ids)]
        return pre


def first_layer_tables(params: dict[str, np.ndarray], env: PathEnv) -> FirstLayer:
    """The `FirstLayer` of these `params` over `env`: one product per table,
    over every row."""
    d, w1 = env.embeddings.d, params["w1"]
    blocks = [w1[:, k * d : (k + 1) * d].T for k in range(w1.shape[1] // d)]
    zero = np.zeros((1, len(w1)))
    return FirstLayer(
        env.embeddings.entity["learner"] @ (blocks[0] + blocks[2]) + params["b1"],
        env.entity_rows @ (blocks[1] - blocks[2]),
        [env.relation_rows @ block for block in blocks[3::2]],
        [np.concatenate([env.entity_rows @ block, zero]) for block in blocks[4::2]],
    )


def policy_forward(
    params: dict[str, np.ndarray], features: np.ndarray, action_matrix: np.ndarray
):
    """Distribution over the candidate actions, plus the hidden state.

    Returns (probs, log_probs, hidden); probs is a masked softmax over exactly
    the candidates in `action_matrix` rows, and `baseline(params, hidden)`
    is the state's value. `hop_from_preactivation` does this for a stack of
    states.
    """
    h = np.tanh(params["w1"] @ features + params["b1"])
    logits = action_matrix @ (params["proj"].T @ h)
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    z = exp.sum()
    probs = exp / z
    log_probs = shifted - np.log(z)
    return probs, log_probs, h


def baseline(params: dict[str, np.ndarray], hidden: np.ndarray):
    """The baseline head's value b(s) for a state with this hidden layer, or
    one value per row of a stack of hidden layers."""
    return hidden @ params["v_w"] + params["v_b"][0]


@dataclass
class Hop:
    """`hop_from_preactivation` of a stack of states.

    State i has hidden layer hidden[i]. The states come in runs that share an
    action matrix: run r is runs[r] consecutive states over matrices[r].
    Training's hops have runs of one, so there matrices[i] is walk i's. State
    i's distribution is the segment of `probs` and `log_probs` of sizes[i]
    rows from starts[i] (seg[r] is the state of row r), with entropy
    entropy[i].
    """

    hidden: np.ndarray
    matrices: list[np.ndarray]
    runs: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    seg: np.ndarray
    entropy: np.ndarray


def hop_from_preactivation(
    params: dict[str, np.ndarray], pre: np.ndarray, matrices: list[np.ndarray],
    runs: np.ndarray,
) -> Hop:
    """`policy_forward` of the states whose first-layer pre-activations are
    the rows of `pre`, which becomes their hidden layers in place: the runs[r]
    states of run r over the actions of matrices[r].

    The queries `hidden @ proj` are one matrix product, a run's logits
    `queries[a:b] @ matrix.T` one more, and the distributions segments of one
    logit array. They agree with `policy_forward` to within rounding, not bit
    for bit: the products and the segment sums add in another order. A run of
    one state scores its actions as `matrix @ query` does, bit for bit.
    """
    hidden = np.tanh(pre, out=pre)
    queries = hidden @ params["proj"]
    ends = np.cumsum(runs)
    # a run of one takes the matrix-vector product: the same bits as the
    # one-row matrix product, at less per-call cost
    logits = np.concatenate([
        m @ queries[a] if b - a == 1 else (queries[a:b] @ m.T).ravel()
        for m, a, b in zip(matrices, (ends - runs).tolist(), ends.tolist())
    ])
    sizes = np.repeat([len(m) for m in matrices], runs)
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(len(sizes)), sizes)
    # shifted, exponentiated and normalised in place: the same bits, in half the arrays
    logits -= np.maximum.reduceat(logits, starts)[seg]
    probs = np.exp(logits)
    z = np.add.reduceat(probs, starts)
    probs /= z[seg]
    log_probs = np.subtract(logits, np.log(z)[seg], out=logits)
    entropy = -np.add.reduceat(probs * log_probs, starts)
    return Hop(hidden, matrices, runs, probs, log_probs, sizes, starts, seg, entropy)


class Step(NamedTuple):
    features: np.ndarray
    action_matrix: np.ndarray
    chosen: int


class Episode(NamedTuple):
    """One walk of a `Batch`: its path, reward, mean entropy over its steps,
    and each step's state features, action matrix and chosen row."""

    path: Path
    reward: float
    entropy: float
    steps: list[Step]


@dataclass
class Batch:
    """One `sample_episodes` batch of walks on `env`, from its rollout to its update.

    Walk i starts at learner index learners[i]. At hop t its state has the
    key row keys[t, i] (see `step_keys`), and it takes row chosen[i, t] of
    its action set, the action id taken[i, t]. It earns rewards[i], and
    entropy[i] is its mean entropy over the hops. hops[t] is hop t's forward
    pass over all walks; it holds for the parameters that sampled the batch,
    which its update must use.
    """

    env: PathEnv
    learners: np.ndarray
    keys: np.ndarray
    chosen: np.ndarray
    taken: np.ndarray
    rewards: np.ndarray
    entropy: np.ndarray
    hops: list[Hop]

    def paths(self) -> list[Path]:
        """Each walk's `Path`, decoded with one `decode` per hop."""
        walks = zip(*map(self.env.kg.decode, self.taken.T))
        return [Path(EntityRef("learner", u), w) for u, w in zip(self.learners.tolist(), walks)]

    def episode(self, i: int) -> Episode:
        """Walk i, decoded, with its steps' features gathered by `key_features`."""
        features = key_features(self.env, self.keys[:, i])
        steps = map(Step, features, [h.matrices[i] for h in self.hops], self.chosen[i].tolist())
        path = Path(EntityRef("learner", int(self.learners[i])), self.env.kg.decode(self.taken[i]))
        return Episode(path, float(self.rewards[i]), float(self.entropy[i]), list(steps))


_MASK32 = 0xFFFFFFFF
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)  # PCG64's 128-bit multiplier (high, low)


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of each a[i] * b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(hi, lo, b_hi, b_lo):
    total = lo + b_lo
    return hi + b_hi + (total < lo), total


def _pcg_step(hi, lo, inc_hi, inc_lo):
    m_hi, m_lo = _PCG_MULT
    return _add128(_mulhi64(lo, m_lo) + hi * m_lo + lo * m_hi, lo * m_lo, inc_hi, inc_lo)


def walk_draws(entropy_rows: np.ndarray, n: int) -> np.ndarray:
    """Row i is `np.random.default_rng(entropy_rows[i]).random(n)` bit for bit,
    where a row lists a seed's 32-bit words, as `SeedSequence` splits each int
    of its entropy, least significant first.

    All rows at once: numpy's `SeedSequence` entropy mixing and its
    `generate_state(4, uint64)`, PCG64's seeding and XSL-RR steps on pairs of
    uint64 arrays (their products wrap, as the 128-bit state's must), and
    `(x >> 11) * 2**-53` for each double.
    """
    words = np.asarray(entropy_rows, dtype=np.uint32)
    const = 0x43B0D7E5  # SeedSequence's hash constant, stepped on each use

    def hashmix(x):
        nonlocal const
        x = x ^ const
        const = const * 0x931E8875 & _MASK32
        x = x * const
        return x ^ (x >> 16)

    def mix(x, y):
        x = x * 0xCA01F9DD - y * 0x4973F715
        return x ^ (x >> 16)

    zero = np.zeros(len(words), np.uint32)
    pool = [hashmix(words[:, i] if i < words.shape[1] else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, words.shape[1]):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    const, state = 0x8B51F9DD, []
    for k in range(8):
        x = pool[k % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        x = x * const
        state.append((x ^ (x >> 16)).astype(np.uint64))
    s_hi, s_lo, q_hi, q_lo = (state[2 * k] | state[2 * k + 1] << 32 for k in range(4))
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, s_hi, s_lo), inc_hi, inc_lo)
    out = np.empty((len(words), n))
    for t in range(n):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        out[:, t] = (x >> rot | x << (-rot & 63)) >> 11
    return out * 2.0**-53


def sample_episodes(
    learners: list[EntityRef], env: PathEnv, params: dict[str, np.ndarray], spec: RewardSpec,
    hop_budget: int, draws: np.ndarray,
) -> Batch:
    """Roll a walk from each learner for the full hop budget, all in lockstep, into one `Batch`.

    At hop t walk i takes the action where draws[i, t] falls in its cumulative
    probabilities, so its path does not depend on the batch. Walks are key
    rows, stepped by `step_keys`. Binary rewards are computed on the action
    ids; a `pgpr` reward decodes the paths. Every hop reads its
    pre-activations off the one `first_layer_tables` of the batch, as beam
    search does. The batch keeps each hop's forward pass, which
    `compute_advantages` and `batch_gradients` reuse with these same `params`.
    """
    if not learners:
        raise ValueError("empty episode batch")
    key = start_keys(env, learners)
    if hop_budget < 1:
        raise ValueError("hop_budget must be >= 1")
    if np.shape(draws) != (len(learners), hop_budget):  # one row would broadcast to all
        raise ValueError("draws must hold one row per walk and one column per hop")
    tables = first_layer_tables(params, env)
    steps = []  # per hop: its forward pass, key rows, chosen rows and action ids
    for t in range(hop_budget):
        pre = tables.preactivations(key[:, 1], key[:, 0], key[:, 2:])
        matrices = [env.act_matrices[e] for e in key[:, 0].tolist()]
        hop = hop_from_preactivation(params, pre, matrices, np.ones(len(key), int))
        # a zero-padded row per walk: its running sums are those of its segment
        padded = np.zeros((len(hop.sizes), hop.sizes.max()))
        padded[hop.seg, np.arange(len(hop.probs)) - hop.starts[hop.seg]] = hop.probs
        below = np.count_nonzero(np.cumsum(padded, axis=1) <= draws[:, [t]], axis=1)
        rows = np.minimum(below, hop.sizes - 1)
        action_ids = env.act_ids[env.act_ptr[key[:, 0]] + rows]
        steps.append((hop, key, rows, action_ids))
        key = step_keys(key, action_ids, env.kg.n_ids)
    hops, keys, chosen, taken = zip(*steps)
    entropy = sum(hop.entropy for hop in hops) / hop_budget
    batch = Batch(env, keys[0][:, 1], np.stack(keys), np.column_stack(chosen),
                  np.column_stack(taken), None, entropy, list(hops))
    if spec.mode == "binary":
        batch.rewards = binary_rewards(spec, env.kg, batch.learners, batch.taken)
    else:  # a pgpr reward reads the decoded paths
        batch.rewards = np.array([reward(path, spec) for path in batch.paths()])
    return batch


def sample_episode(
    learner: EntityRef, env: PathEnv, params: dict[str, np.ndarray], spec: RewardSpec,
    hop_budget: int, rng: np.random.Generator,
) -> Episode:
    """The one-walk case of `sample_episodes`, with one `rng.random()` per hop."""
    draws = rng.random(max(hop_budget, 0))[None]
    return sample_episodes([learner], env, params, spec, hop_budget, draws).episode(0)


def compute_advantages(
    params: dict[str, np.ndarray], batch: Batch, gamma: float
) -> np.ndarray:
    """Return G_t = gamma^(T-t) * reward minus baseline b_t, one row per walk
    of `batch` and one column per hop.

    The baseline head is read from `params` and applied to each hop's stored
    hidden layers, one product per hop; they must come from the `w1`/`b1` of
    these `params`. It is evaluated here only: `batch_gradients` reuses
    G_t - b_t as its error.
    """
    return np.column_stack([
        gamma ** (len(batch.hops) - 1 - t) * batch.rewards - baseline(params, hop.hidden)
        for t, hop in enumerate(batch.hops)
    ])


def batch_gradients(
    params: dict[str, np.ndarray],
    batch: Batch,
    advantages: np.ndarray,
    entropy_weight: float,
) -> dict[str, np.ndarray]:
    """Gradient of the objective ascended by one update, w.r.t. every parameter.

    The objective, with advantages held constant, is
    sum_t [log pi(a_t|s_t) * adv_t + beta * H(pi(.|s_t))] - 0.5 * sum_t (b_t - G_t)^2.

    Each hop's forward pass is the one `batch` stored when it was sampled, at
    these `w1`, `b1` and `proj`. The advantages must be `compute_advantages`
    at these `params`: each one, G_t - b_t, is also the baseline's error.
    Each hop is one gradient block: the logit gradients are one array over
    the walks' segments, and only dL/d[rel ; tail] takes a product per walk,
    with its action matrix. `w1`'s gradient is one product with the hop's
    state features, gathered from its key rows by `key_features`.
    """
    grads = {key: np.zeros_like(arr) for key, arr in params.items()}
    hops = zip(batch.hops, batch.keys, batch.chosen.T, np.asarray(advantages, dtype=float).T)
    for hop, key_rows, chosen, adv in hops:
        probs, seg = hop.probs, hop.seg
        dlogits = -adv[seg] * probs
        dlogits[hop.starts + chosen] += adv
        dlogits += entropy_weight * (-probs * (hop.log_probs + hop.entropy[seg]))
        ATD = np.array([
            m.T @ dlogits[s : s + len(m)] for m, s in zip(hop.matrices, hop.starts.tolist())
        ])
        H = hop.hidden
        dh_pre = (ATD @ params["proj"].T + adv[:, None] * params["v_w"]) * (1.0 - H * H)
        grads["w1"] += dh_pre.T @ key_features(batch.env, key_rows)
        grads["b1"] += dh_pre.sum(axis=0)
        grads["proj"] += H.T @ ATD
        grads["v_w"] += adv @ H
        grads["v_b"][0] += adv.sum()
    return grads


def reinforce_update(
    batch: Batch,
    params: dict[str, np.ndarray],
    opt,
    cfg: AgentConfig,
) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """One ascent step on one `sample_episodes` batch; returns (params, statistics)."""
    advantages = compute_advantages(params, batch, cfg.gamma)
    grads = batch_gradients(params, batch, advantages, cfg.entropy_weight)
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite policy gradient in {key!r}")
    descent = {key: -g for key, g in grads.items()}
    new_params = opt.step(params, descent)
    stats = {
        "mean_reward": float(np.mean(batch.rewards)),
        "mean_entropy": float(np.mean(batch.entropy)),
    }
    return new_params, stats


@dataclass
class TrainingLog:
    epochs: list[int] = field(default_factory=list)
    mean_reward: list[float] = field(default_factory=list)
    mean_entropy: list[float] = field(default_factory=list)

    def append(self, epoch: int, mean_reward: float, mean_entropy: float) -> None:
        self.epochs.append(epoch)
        self.mean_reward.append(mean_reward)
        self.mean_entropy.append(mean_entropy)

    def to_csv(self, path: str) -> None:
        with atomic_write(path) as fh:
            fh.write("epoch,mean_reward,mean_entropy\n")
            for e, r, h in zip(self.epochs, self.mean_reward, self.mean_entropy):
                fh.write(f"{e},{r:.6f},{h:.6f}\n")


def train_agent(
    kg_train: KnowledgeGraph,
    embeddings: EmbeddingTable,
    cfg: AgentConfig,
    spec: RewardSpec,
) -> tuple[dict[str, np.ndarray], TrainingLog]:
    """Epochs x learners x episodes REINFORCE loop, deterministic per seed.

    Each batch is one `sample_episodes` call and one update, after which only
    its reward and entropy arrays are kept, for the log. Episode j of a
    learner draws what `np.random.default_rng([seed, epoch, learner, j])`
    would, bit for bit, so the paths do not depend on the batch size; each
    epoch's draws are computed at once by `walk_draws`.
    """
    cfg.validate()
    learners = kg_train.learners()
    if not learners:
        raise DataError("training graph has no learners")
    params = init_policy(embeddings.d, cfg)
    env = PathEnv(kg_train, embeddings, cfg.max_actions, cfg.history)
    opt = Adam(cfg.learning_rate)
    budget = cfg.hop_budget()
    log = TrainingLog()
    walks = [(learner, j) for learner in learners for j in range(cfg.episodes_per_learner)]
    # each walk's seed words: the seed's 32-bit words, then epoch, learner and j
    seed_words = [cfg.seed >> s & _MASK32 for s in range(0, max(cfg.seed.bit_length(), 1), 32)]
    entropy = np.array([[*seed_words, 0, u.index, j] for u, j in walks], dtype=np.uint32)
    for epoch in range(1, cfg.epochs + 1):
        entropy[:, -3] = epoch
        draws = walk_draws(entropy, budget)
        rewards, entropies = [], []
        for start in range(0, len(walks), cfg.batch_episodes):
            rows = slice(start, start + cfg.batch_episodes)
            starts = [u for u, _j in walks[rows]]
            batch = sample_episodes(starts, env, params, spec, budget, draws[rows])
            params, _ = reinforce_update(batch, params, opt, cfg)
            rewards.append(batch.rewards)
            entropies.append(batch.entropy)
            del batch  # freed before the next batch is sampled
        # one array per epoch, in walk order: the same pairwise sums as a list of floats
        log.append(epoch, float(np.mean(np.concatenate(rewards))),
                   float(np.mean(np.concatenate(entropies))))
    return params, log


# -- checkpoint I/O ------------------------------------------------------


def save_policy(params: dict[str, np.ndarray], path: str, cfg: AgentConfig, d: int) -> None:
    """Binary checkpoint: magic, config echo (incl. d), f32 tensors."""
    echo = {"agent": asdict(cfg), "d": d}
    with atomic_write(path, binary=True) as fh:
        fh.write((POL_MAGIC + "\n").encode())
        fh.write((json.dumps(echo, sort_keys=True) + "\n").encode())
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            arr = params[name]
            enc = name.encode()
            fh.write(struct.pack("<HB", len(enc), arr.ndim))
            fh.write(enc)
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f4").tobytes())


def load_policy(path: str) -> tuple[dict[str, np.ndarray], AgentConfig, int]:
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\n") != POL_MAGIC.encode():
            raise DataError(f"{path}: not a {POL_MAGIC} file")
        try:
            echo = json.loads(fh.readline().decode())
            cfg = AgentConfig(**echo["agent"])
            cfg.validate()
            d = int(echo["d"])
            if d <= 0:
                raise DataError(f"{path}: corrupt policy checkpoint: echoed d={d}")
            (count,) = struct.unpack("<I", fh.read(4))
            params = {}
            for _ in range(count):
                name_len, ndim = struct.unpack("<HB", fh.read(3))
                name = fh.read(name_len).decode()
                shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
                data = np.frombuffer(read_declared(fh, math.prod(shape) * 4, path), dtype="<f4")
                params[name] = data.reshape(shape).astype(np.float64)
        except (ConfigError, struct.error, ValueError, TypeError, KeyError) as exc:
            raise DataError(f"{path}: corrupt policy checkpoint") from exc
    for name, shape in policy_shapes(d, cfg).items():
        if name not in params or params[name].shape != shape:
            raise CheckpointMismatchError(
                f"{path}: tensor {name!r} missing or shaped unlike the echoed config"
            )
    if not all(np.isfinite(arr).all() for arr in params.values()):
        raise DataError(f"{path} contains non-finite values")
    return params, cfg, d
