"""Stochastic action policy and its REINFORCE training loop.

The network is a two-layer net over state features: a tanh hidden layer,
an action-conditioned output (hidden state dotted with a projection of
each candidate's [relation ; tail] embedding), and a scalar baseline head
on the same hidden layer. Updates ascend the usual score-function
surrogate sum_t log pi(a_t|s_t) * (G_t - b(s_t)) plus an entropy bonus,
while the baseline head is regressed onto the return by squared error.
Rewards are terminal-only, so with the default gamma of 1 the return at
every step equals the episode reward.

Training runs each batch of episodes in lockstep, hop by hop: a hop is one
`hop_forward` over the stacked states of all the batch's walks. The batch
keeps each hop's pass, and the update works on it one hop at a time. Beam
search runs the same pass over a level's states, from first-layer
pre-activations that it reads off per-id `FirstLayer` tables instead of
features.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .embeddings import EmbeddingTable
from .environment import Path, PathEnv, RewardSpec, reward
from .errors import (
    CheckpointMismatchError, ConfigError, DataError, DivergenceError, atomic_write,
    read_declared,
)
from .kg import KnowledgeGraph
from .optim import Adam
from .schema import EntityRef

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
        counts = (self.max_hops_eval, self.epochs, self.episodes_per_learner, self.hidden,
                  self.history, self.batch_episodes, self.max_actions, self.seed)
        # a float count passes the range checks below, then fails as a bare TypeError
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in counts):
            raise ConfigError("count and seed settings must be integers")
        if self.max_hops_eval not in (3, 4, 5):
            raise ConfigError("max_hops_eval must be 3, 4 or 5")
        if self.epochs < 0 or not self.learning_rate >= 0:  # also rejects NaN
            raise ConfigError("epochs and learning_rate must be non-negative")
        positive = (
            self.episodes_per_learner, self.hidden, self.batch_episodes, self.max_actions,
        )
        if any(v <= 0 for v in positive):
            raise ConfigError("episode, width and batch settings must be positive")
        if self.history < 0 or self.seed < 0 or not self.entropy_weight >= 0:
            raise ConfigError("history, seed and entropy_weight must be non-negative")
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


def start_features(table: EmbeddingTable, learner: EntityRef, history: int) -> np.ndarray:
    """Features of a walk that has not moved: [v_start ; v_start ; 0 ; 0...].

    `step_features` grows them one action at a time; the blocks are those of
    [v_start ; v_current ; v_start - v_current ; last H hops (rel, entity)],
    where missing history slots and self-loop hops are zero vectors.
    """
    x = np.zeros(feature_size(table.d, history))
    x[: table.d] = x[table.d : 2 * table.d] = table.vector(learner)
    return x


def step_features(
    features: np.ndarray, source: np.ndarray, action_rows: np.ndarray, self_loop: np.ndarray,
    history: int,
) -> np.ndarray:
    """Features of the states one action on from states of `features`.

    Row i takes the action whose `ActionSet.matrix` row is action_rows[i] from
    the state whose features are features[source[i]]; the bool array
    self_loop marks the rows that take the self-loop. `sample_episodes`
    steps its batch of walks this way (beam search needs no features: it
    reads `FirstLayer` tables). Only the columns a step keeps are gathered
    from `features`. Each value is copied, or is v_start minus the new
    v_current, so a walk's features are the same bit for bit in any stack.
    """
    d = action_rows.shape[1] // 2
    start, tail = features[source, :d], action_rows[:, d:]
    # one concatenate instead of a slice assignment per block: a batch makes
    # this call once per hop, where numpy's per-call overhead is the cost
    blocks = [start, tail, start - tail]
    if history:
        blocks += [action_rows, features[source, 3 * d : -2 * d]]
    out = np.concatenate(blocks, axis=1)
    if history:
        out[self_loop, 4 * d : 5 * d] = 0.0
    return out


class FirstLayer(NamedTuple):
    """The first layer's pre-activation `w1 @ x + b1` of a state's features x,
    split by the feature blocks of `start_features` and `step_features`.

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
        pre = self.start[learner] + self.current[entity]
        for relation, tail, ids in zip(self.relation, self.tail, history.T):
            rel, ent = np.divmod(ids, n_ids)
            real = ids >= n_ids  # a self-loop's id is its entity's, below n_ids
            pre += relation[np.where(real, rel, 0)]
            pre += tail[np.where(real, ent, n_ids)]
        return pre


def first_layer_tables(params: dict[str, np.ndarray], env: PathEnv) -> FirstLayer:
    """The `FirstLayer` of these `params` over `env`'s learners, entities and
    relations: one product per table, from the environment's action rows."""
    d, w1 = env.embeddings.d, params["w1"]
    blocks = [w1[:, k * d : (k + 1) * d].T for k in range(w1.shape[1] // d)]
    tails = [np.zeros((len(env.entity_rows) + 1, len(w1))) for _ in blocks[4::2]]
    for tail, block in zip(tails, blocks[4::2]):
        np.matmul(env.entity_rows, block, out=tail[:-1])  # the last row stays zero
    return FirstLayer(
        env.embeddings.entity["learner"] @ (blocks[0] + blocks[2]) + params["b1"],
        env.entity_rows @ (blocks[1] - blocks[2]),
        [env.relation_rows @ block for block in blocks[3::2]],
        tails,
    )


def policy_forward(
    params: dict[str, np.ndarray], features: np.ndarray, action_matrix: np.ndarray
):
    """Distribution over the candidate actions, plus the hidden state.

    Returns (probs, log_probs, hidden); probs is a masked softmax over exactly
    the candidates in `action_matrix` rows, and `baseline(params, hidden)`
    is the state's value. `hop_forward` does this for a stack of states.
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
    """`hop_forward` of a stack of states, and the action each walk took.

    State i has features[i] and hidden layer hidden[i]; a hop that
    `hop_from_preactivation` made without features has None there. The states
    come in runs that share an action matrix: run r is runs[r] consecutive
    states over matrices[r]. Training's hops have runs of one, so there
    matrices[i] is walk i's. State i's distribution is the segment of `probs`
    and `log_probs` of sizes[i] rows from starts[i] (seg[r] is the state of
    row r), with entropy entropy[i]. `sample_episodes` sets chosen[i], the
    row walk i took.
    """

    features: np.ndarray | None
    hidden: np.ndarray
    matrices: list[np.ndarray]
    runs: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    seg: np.ndarray
    entropy: np.ndarray
    chosen: np.ndarray | None = None


def hop_forward(
    params: dict[str, np.ndarray], features: np.ndarray, matrices: list[np.ndarray],
    runs: np.ndarray,
) -> Hop:
    """`policy_forward` of each row of `features`, the runs[r] rows of run r
    over the actions of matrices[r].

    The hidden layers are one matrix product, then `hop_from_preactivation`.
    They agree with `policy_forward` to within rounding, not bit for bit: the
    products and the segment sums add in another order. A run of one state
    scores its actions as `matrix @ query` does, bit for bit.
    """
    pre = features @ params["w1"].T
    pre += params["b1"]
    hop = hop_from_preactivation(params, pre, matrices, runs)
    hop.features = features
    return hop


def hop_from_preactivation(
    params: dict[str, np.ndarray], pre: np.ndarray, matrices: list[np.ndarray],
    runs: np.ndarray,
) -> Hop:
    """`hop_forward` of the states whose first-layer pre-activations are the
    rows of `pre`, which becomes their hidden layers in place.

    The queries `hidden @ proj` are one matrix product, a run's logits
    `queries[a:b] @ matrix.T` one more, and the distributions segments of one
    logit array.
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
    shifted = logits - np.maximum.reduceat(logits, starts)[seg]
    exp = np.exp(shifted)
    z = np.add.reduceat(exp, starts)
    probs, log_probs = exp / z[seg], shifted - np.log(z)[seg]
    entropy = -np.add.reduceat(probs * log_probs, starts)
    return Hop(None, hidden, matrices, runs, probs, log_probs, sizes, starts, seg, entropy)


class Step(NamedTuple):
    features: np.ndarray
    action_matrix: np.ndarray
    chosen: int


@dataclass
class Episode:
    """One sampled walk, row `row` of each of its batch's `hops`; their forward
    pass holds for the parameters that sampled it, which its update must use."""

    path: Path
    reward: float
    entropy: float  # mean over steps, for logging
    hops: list[Hop]
    row: int

    @property
    def steps(self) -> list[Step]:
        """Each step's state features, action matrix and chosen row."""
        i = self.row
        return [Step(h.features[i], h.matrices[i], int(h.chosen[i])) for h in self.hops]


def sample_episodes(
    learners: list[EntityRef], env: PathEnv, params: dict[str, np.ndarray], spec: RewardSpec,
    hop_budget: int, rngs: list[np.random.Generator],
) -> list[Episode]:
    """Roll a walk from each learner for the full hop budget, all in lockstep.

    Walk i draws each action by one `rngs[i].random()` against its cumulative
    probabilities, so its path does not depend on the batch. Walks step on
    entity and action ids, as in `search_block`, and each path is decoded
    once, through `env.action`. The hops keep their forward pass, which
    `compute_advantages` and `batch_gradients` reuse, so they must be given
    these same `params` (the parameters are frozen within a batch).
    """
    if not learners:
        raise ValueError("empty episode batch")
    for learner in learners:
        env.initial_state(learner, hop_budget)  # rejects a non-learner start and an empty budget
    x = np.array([start_features(env.embeddings, u, env.history_len) for u in learners])
    current = [env.kg.entity_id(u) for u in learners]
    hops, taken = [], []
    for t in range(hop_budget):
        asets = env.action_sets(current)
        hop = hop_forward(params, x, [aset.matrix for aset in asets], np.ones(len(asets), int))
        # a zero-padded row per walk: its running sums are those of its segment
        padded = np.zeros((len(hop.sizes), hop.sizes.max()))
        padded[hop.seg, np.arange(len(hop.probs)) - hop.starts[hop.seg]] = hop.probs
        draws = np.array([rng.random() for rng in rngs])
        below = np.count_nonzero(np.cumsum(padded, axis=1) <= draws[:, None], axis=1)
        hop.chosen = np.minimum(below, hop.sizes - 1)
        hops.append(hop)
        action_ids = np.concatenate([aset.action_ids for aset in asets])[hop.starts + hop.chosen]
        taken.append(action_ids.tolist())
        current = (action_ids % env.kg.n_ids).tolist()  # the self-loop's tail is the entity
        if t + 1 < hop_budget:
            rows = env.action_rows(action_ids)
            x = step_features(x, np.arange(len(x)), rows, hop.chosen == 0, env.history_len)
    entropy = sum(hop.entropy for hop in hops) / hop_budget
    paths = [Path(u, tuple(map(env.action, walk))) for u, walk in zip(learners, zip(*taken))]
    return [
        Episode(path, reward(path, spec), float(entropy[i]), hops, i)
        for i, path in enumerate(paths)
    ]


def sample_episode(
    learner: EntityRef, env: PathEnv, params: dict[str, np.ndarray], spec: RewardSpec,
    hop_budget: int, rng: np.random.Generator,
) -> Episode:
    """The one-walk case of `sample_episodes`."""
    return sample_episodes([learner], env, params, spec, hop_budget, [rng])[0]


def _batch_hops(episodes: list[Episode]) -> list[Hop]:
    """The episodes' hops with walk i in row i: those they were sampled in,
    when they are that whole batch in order, else their rows gathered."""
    hops = episodes[0].hops
    if [ep.row for ep in episodes] == list(range(len(hops[0].chosen))) and all(
        ep.hops is hops for ep in episodes
    ):
        return hops
    gathered = []
    for t in range(len(hops)):
        rows = [(ep.hops[t], ep.row) for ep in episodes]
        sizes = np.array([h.sizes[i] for h, i in rows])
        segments = [slice(h.starts[i], h.starts[i] + h.sizes[i]) for h, i in rows]
        gathered.append(Hop(
            np.array([h.features[i] for h, i in rows]),
            np.array([h.hidden[i] for h, i in rows]),
            [h.matrices[i] for h, i in rows],
            np.ones(len(rows), dtype=int),
            np.concatenate([h.probs[s] for (h, _i), s in zip(rows, segments)]),
            np.concatenate([h.log_probs[s] for (h, _i), s in zip(rows, segments)]),
            sizes,
            np.cumsum(sizes) - sizes,
            np.repeat(np.arange(len(rows)), sizes),
            np.array([h.entropy[i] for h, i in rows]),
            np.array([h.chosen[i] for h, i in rows]),
        ))
    return gathered


def compute_advantages(
    params: dict[str, np.ndarray], episodes: list[Episode], gamma: float
) -> np.ndarray:
    """Return G_t = gamma^(T-t) * reward minus baseline b_t, one row per
    episode and one column per step.

    The baseline head is read from `params` and applied to each hop's stored
    hidden layers, one product per hop; they must come from the `w1`/`b1` of
    these `params`. It is evaluated here only: `batch_gradients` reuses
    G_t - b_t as its error.
    """
    hops = _batch_hops(episodes)
    rewards = np.array([ep.reward for ep in episodes])
    return np.column_stack([
        gamma ** (len(hops) - 1 - t) * rewards - baseline(params, hop.hidden)
        for t, hop in enumerate(hops)
    ])


def batch_gradients(
    params: dict[str, np.ndarray],
    episodes: list[Episode],
    advantages: np.ndarray,
    entropy_weight: float,
) -> dict[str, np.ndarray]:
    """Gradient of the objective ascended by one update, w.r.t. every parameter.

    The objective, with advantages held constant, is
    sum_t [log pi(a_t|s_t) * adv_t + beta * H(pi(.|s_t))] - 0.5 * sum_t (b_t - G_t)^2.

    Each hop's forward pass is the one stored when it was sampled, so the
    episodes must come from `sample_episodes` at these `w1`, `b1` and `proj`.
    The advantages must be `compute_advantages` at these `params`: each one,
    G_t - b_t, is also the baseline's error. Each hop is one gradient block:
    the logit gradients are one array over the episodes' segments, and only
    dL/d[rel ; tail] takes a product per episode, with its action matrix.
    """
    grads = {key: np.zeros_like(arr) for key, arr in params.items()}
    for hop, adv in zip(_batch_hops(episodes), np.asarray(advantages, dtype=float).T):
        probs, seg = hop.probs, hop.seg
        dlogits = -adv[seg] * probs
        dlogits[hop.starts + hop.chosen] += adv
        dlogits += entropy_weight * (-probs * (hop.log_probs + hop.entropy[seg]))
        ATD = np.array([
            m.T @ dlogits[s : s + len(m)] for m, s in zip(hop.matrices, hop.starts.tolist())
        ])
        H = hop.hidden
        dh_pre = (ATD @ params["proj"].T + adv[:, None] * params["v_w"]) * (1.0 - H * H)
        grads["w1"] += dh_pre.T @ hop.features
        grads["b1"] += dh_pre.sum(axis=0)
        grads["proj"] += H.T @ ATD
        grads["v_w"] += adv @ H
        grads["v_b"][0] += adv.sum()
    return grads


def reinforce_update(
    episodes: list[Episode],
    params: dict[str, np.ndarray],
    opt,
    cfg: AgentConfig,
) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """One ascent step on a batch of episodes; returns (params, statistics)."""
    if not episodes:
        raise ValueError("empty episode batch")
    advantages = compute_advantages(params, episodes, cfg.gamma)
    grads = batch_gradients(params, episodes, advantages, cfg.entropy_weight)
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite policy gradient in {key!r}")
    descent = {key: -g for key, g in grads.items()}
    new_params = opt.step(params, descent)
    stats = {
        "mean_reward": float(np.mean([ep.reward for ep in episodes])),
        "mean_entropy": float(np.mean([ep.entropy for ep in episodes])),
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

    Each batch is one `sample_episodes` call and one update. Episode j of a
    learner draws from a generator seeded by (seed, epoch, learner, j), so
    the paths do not depend on the batch size.
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
    for epoch in range(1, cfg.epochs + 1):
        episodes: list[Episode] = []
        for start in range(0, len(walks), cfg.batch_episodes):
            batch = walks[start : start + cfg.batch_episodes]
            rngs = [np.random.default_rng([cfg.seed, epoch, u.index, j]) for u, j in batch]
            buffer = sample_episodes([u for u, _j in batch], env, params, spec, budget, rngs)
            params, _ = reinforce_update(buffer, params, opt, cfg)
            episodes += buffer
        log.append(epoch, float(np.mean([ep.reward for ep in episodes])),
                   float(np.mean([ep.entropy for ep in episodes])))
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
