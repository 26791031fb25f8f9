"""Stochastic action policy and its REINFORCE training loop.

The network is a two-layer net over state features: a tanh hidden layer,
an action-conditioned output (hidden state dotted with a projection of
each candidate's [relation ; tail] embedding), and a scalar baseline head
on the same hidden layer. Updates ascend the usual score-function
surrogate sum_t log pi(a_t|s_t) * (G_t - b(s_t)) plus an entropy bonus,
while the baseline head is regressed onto the return by squared error.
Rewards are terminal-only, so with the default gamma of 1 the return at
every step equals the episode reward.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field

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
# steps stacked per matrix product in `batch_gradients`; bounds the stacked
# arrays to a few MB at PGPR width instead of growing with the batch
GRAD_BLOCK = 256


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
        if self.max_hops_eval not in (3, 4, 5):
            raise ConfigError("max_hops_eval must be 3, 4 or 5")
        if self.epochs < 0 or not self.learning_rate >= 0:  # also rejects NaN
            raise ConfigError("epochs and learning_rate must be non-negative")
        positive = (
            self.episodes_per_learner, self.hidden, self.batch_episodes, self.max_actions,
        )
        if any(v <= 0 for v in positive):
            raise ConfigError("episode, width and batch settings must be positive")
        if self.history < 0 or not self.entropy_weight >= 0:
            raise ConfigError("history and entropy_weight must be non-negative")
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
    features: np.ndarray, action_rows: np.ndarray, self_loop: np.ndarray, history: int
) -> np.ndarray:
    """Features of the states one action on from the states of `features`.

    Row i takes the action whose `ActionSet.matrix` row is action_rows[i] from
    the state whose features are features[i]; the bool array self_loop marks
    the rows that take the self-loop.
    Each value is copied, or is v_start minus the new v_current, so a walk's
    features are the same bit for bit whether it steps alone (`sample_episode`)
    or batched with other states (`beam_search`).
    """
    d = action_rows.shape[1] // 2
    start, tail = features[:, :d], action_rows[:, d:]
    # one concatenate instead of a slice assignment per block: a walk makes
    # this call once per step, where numpy's per-call overhead is the cost
    blocks = [start, tail, start - tail]
    if history:
        blocks += [action_rows, features[:, 3 * d : -2 * d]]
    out = np.concatenate(blocks, axis=1)
    if history:
        out[self_loop, 4 * d : 5 * d] = 0.0
    return out


def policy_forward(
    params: dict[str, np.ndarray], features: np.ndarray, action_matrix: np.ndarray
):
    """Distribution over the candidate actions, plus the hidden state.

    Returns (probs, log_probs, hidden); probs is a masked softmax over exactly
    the candidates in `action_matrix` rows, and `baseline(params, hidden)`
    is the state's value.
    """
    h = np.tanh(params["w1"] @ features + params["b1"])
    logits = action_matrix @ (params["proj"].T @ h)
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    z = exp.sum()
    probs = exp / z
    log_probs = shifted - np.log(z)
    return probs, log_probs, h


def baseline(params: dict[str, np.ndarray], hidden: np.ndarray) -> float:
    """The baseline head's value b(s) for a state with this hidden layer."""
    return float(params["v_w"] @ hidden + params["v_b"][0])


def action_queries(params: dict[str, np.ndarray], features: np.ndarray) -> np.ndarray:
    """One query row per row of `features`: an action's logit is its matrix row
    dotted with the query.

    This is the hidden layer of `policy_forward` for a stack of states, one
    matrix product per weight; a row equals its `proj.T @ h` up to rounding.
    """
    return np.tanh(features @ params["w1"].T + params["b1"]) @ params["proj"]


@dataclass
class EpisodeStep:
    """One sampled step, with the forward pass of the parameters that sampled it.

    `probs`, `log_probs` and `hidden` are what `policy_forward` returned for
    `features` and `action_matrix`. They hold only for that `w1`, `b1` and
    `proj`, so a step is used by an update at those parameters; the baseline
    head is not stored but read from the update's parameters.
    """

    features: np.ndarray
    action_matrix: np.ndarray
    chosen: int
    probs: np.ndarray
    log_probs: np.ndarray
    hidden: np.ndarray


@dataclass
class Episode:
    learner: EntityRef
    path: Path
    steps: list[EpisodeStep]
    reward: float
    entropy: float  # mean over steps, for logging


def sample_episode(
    learner: EntityRef,
    env: PathEnv,
    params: dict[str, np.ndarray],
    spec: RewardSpec,
    hop_budget: int,
    rng: np.random.Generator,
) -> Episode:
    """Roll the full hop budget, sampling each action from the policy.

    The walk steps as `beam_search` does: it stands on the chosen action's
    tail, and its features grow by `step_features`. Each step keeps its
    forward pass, which `compute_advantages` and `batch_gradients` reuse, so
    they must be given these same `params` (the parameters are frozen within
    a batch).
    """
    env.initial_state(learner, hop_budget)  # rejects a non-learner start and an empty budget
    x = start_features(env.embeddings, learner, env.history_len)
    current = learner
    steps: list[EpisodeStep] = []
    hops = []
    entropy_sum = 0.0
    for _ in range(hop_budget):
        aset = env.action_set(current)
        probs, logp, h = policy_forward(params, x, aset.matrix)
        k = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        k = min(k, len(probs) - 1)
        steps.append(EpisodeStep(x, aset.matrix, k, probs, logp, h))
        entropy_sum -= float(np.sum(probs * logp))
        action = aset.actions[k]
        hops.append(action)
        current = action[1]  # action 0 is the self-loop, whose tail is `current`
        if len(steps) < hop_budget:
            x = step_features(
                x[None], aset.matrix[k : k + 1], np.array([k == 0]), env.history_len
            )[0]
    path = Path(learner, tuple(hops))
    return Episode(learner, path, steps, reward(path, spec), entropy_sum / hop_budget)


def compute_advantages(
    params: dict[str, np.ndarray], episodes: list[Episode], gamma: float
) -> list[list[float]]:
    """Return G_t = gamma^(T-t) * reward minus baseline b_t, per step.

    The baseline head is read from `params` and applied to each step's stored
    hidden layer, which must come from the `w1`/`b1` of these `params`. It is
    evaluated here only: `batch_gradients` reuses G_t - b_t as its error.
    """
    return [
        [gamma ** (len(ep.steps) - 1 - t) * ep.reward - baseline(params, s.hidden)
         for t, s in enumerate(ep.steps)]
        for ep in episodes
    ]


def batch_gradients(
    params: dict[str, np.ndarray],
    episodes: list[Episode],
    advantages: list[list[float]],
    entropy_weight: float,
) -> dict[str, np.ndarray]:
    """Gradient of the objective ascended by one update, w.r.t. every parameter.

    The objective, with advantages held constant, is
    sum_t [log pi(a_t|s_t) * adv_t + beta * H(pi(.|s_t))] - 0.5 * sum_t (b_t - G_t)^2.

    Each step's forward pass is the one stored when it was sampled, so the
    steps must come from `sample_episode` at these `w1`, `b1` and `proj`. The
    advantages must be `compute_advantages` at these `params`: each one,
    G_t - b_t, is also the baseline's error. The gradient w.r.t. the logits stays
    per step, because action sets differ in size. What the steps share
    (inputs, hidden states, dL/d[rel ; tail] and the baseline error) is
    stacked for up to GRAD_BLOCK steps, and each parameter gradient of a block
    is one matrix product.
    """
    grads = {key: np.zeros_like(arr) for key, arr in params.items()}
    steps = [
        (step, adv) for ep, advs in zip(episodes, advantages) for step, adv in zip(ep.steps, advs)
    ]
    for start in range(0, len(steps), GRAD_BLOCK):
        block = steps[start : start + GRAD_BLOCK]
        X = np.array([step.features for step, _adv in block])
        H = np.array([step.hidden for step, _adv in block])
        dbase = np.array([adv for _step, adv in block])  # G_t - b_t
        ATD = np.empty((len(block), params["proj"].shape[1]))
        for i, (step, adv) in enumerate(block):
            probs, logp = step.probs, step.log_probs
            entropy = -float(np.sum(probs * logp))
            dlogits = -adv * probs
            dlogits[step.chosen] += adv
            dlogits += entropy_weight * (-probs * (logp + entropy))
            ATD[i] = step.action_matrix.T @ dlogits
        dh_pre = (ATD @ params["proj"].T + dbase[:, None] * params["v_w"]) * (1.0 - H * H)
        grads["w1"] += dh_pre.T @ X
        grads["b1"] += dh_pre.sum(axis=0)
        grads["proj"] += H.T @ ATD
        grads["v_w"] += dbase @ H
        grads["v_b"][0] += dbase.sum()
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
    """Epochs x learners x episodes REINFORCE loop, deterministic per seed."""
    cfg.validate()
    params = init_policy(embeddings.d, cfg)
    env = PathEnv(kg_train, embeddings, cfg.max_actions, cfg.history)
    opt = Adam(cfg.learning_rate)
    budget = cfg.hop_budget()
    log = TrainingLog()
    learners = kg_train.learners()
    for epoch in range(1, cfg.epochs + 1):
        buffer: list[Episode] = []
        rewards: list[float] = []
        entropies: list[float] = []
        for learner in learners:
            for j in range(cfg.episodes_per_learner):
                rng = np.random.default_rng([cfg.seed, epoch, learner.index, j])
                ep = sample_episode(learner, env, params, spec, budget, rng)
                buffer.append(ep)
                rewards.append(ep.reward)
                entropies.append(ep.entropy)
                if len(buffer) >= cfg.batch_episodes:
                    params, _ = reinforce_update(buffer, params, opt, cfg)
                    buffer = []
        if buffer:
            params, _ = reinforce_update(buffer, params, opt, cfg)
        log.append(epoch, float(np.mean(rewards)), float(np.mean(entropies)))
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
