"""Dense entity/relation embeddings trained by translational scoring.

The scorer is f(h, r, t) = dot(v_h + v_r, v_t); an inverse relation scores
through its forward form, f(t, r_inv, h) = f(h, r, t). Training minimizes
the negative-sampling logistic loss over the graph's forward triples, with
tails corrupted uniformly within their entity type.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    CheckpointMismatchError, ConfigError, DataError, DivergenceError, atomic_write,
    read_declared,
)
from .kg import KnowledgeGraph
from .optim import make_optimizer, softplus, stable_sigmoid
from .schema import (
    ENTITY_TYPES,
    FORWARD_RELATIONS,
    SELF_LOOP,
    EntityRef,
    forward_name,
    is_forward,
    relation_types,
)

EMB_MAGIC = "UPGPR-EMB v1"


@dataclass(frozen=True)
class EmbedConfig:
    d: int = 100
    learning_rate: float = 1e-3
    epochs: int = 30
    negatives_per_positive: int = 5
    batch_size: int = 512
    seed: int = 0
    optimizer: str = "adam"

    def validate(self) -> None:
        if self.d <= 0:
            raise ConfigError("embedding dimension d must be positive")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be non-negative")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.negatives_per_positive <= 0 or self.batch_size <= 0:
            raise ConfigError("negatives_per_positive and batch_size must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer: {self.optimizer!r}")


class EmbeddingTable:
    """One float64 vector per entity and per forward relation."""

    def __init__(self, entity: dict[str, np.ndarray], relation: dict[str, np.ndarray], d: int):
        self.entity = entity
        self.relation = relation
        self.d = d
        self._zero = np.zeros(d)

    def vector(self, ref: EntityRef) -> np.ndarray:
        return self.entity[ref.entity_type][ref.index]

    def relation_vector(self, name: str) -> np.ndarray:
        return self.relation[name]

    def feature_relation_vector(self, name: str) -> np.ndarray:
        """Relation vector as used in features: inverse = -forward, self_loop = 0."""
        if name == SELF_LOOP:
            return self._zero
        if is_forward(name):
            return self.relation[name]
        return -self.relation[forward_name(name)]

    def score(self, head: EntityRef, relation: str, tail: EntityRef) -> float:
        if not is_forward(relation):
            return self.score(tail, forward_name(relation), head)
        v_h = self.vector(head)
        return float(np.dot(v_h + self.relation[relation], self.vector(tail)))

    def score_edges(self, head: EntityRef, edges) -> np.ndarray:
        """Vectorized `score` over an adjacency run of (relation, tail) edges."""
        v_h = self.vector(head)
        out = np.empty(len(edges))
        i = 0
        while i < len(edges):
            rel = edges[i][0]
            j = i
            while j < len(edges) and edges[j][0] == rel:
                j += 1
            t_type = edges[i][1].entity_type
            tails = self.entity[t_type][[e[1].index for e in edges[i:j]]]
            if is_forward(rel):
                out[i:j] = tails @ (v_h + self.relation[rel])
            else:
                fwd = self.relation[forward_name(rel)]
                out[i:j] = tails @ v_h + float(fwd @ v_h)
            i = j
        return out

    def check_finite(self) -> None:
        for arr in (*self.entity.values(), *self.relation.values()):
            if not np.all(np.isfinite(arr)):
                raise DataError("embedding table contains non-finite values")

    def matches(self, kg: KnowledgeGraph) -> bool:
        return all(
            self.entity[etype].shape == (kg.n_entities(etype), self.d)
            for etype in ENTITY_TYPES
        )


def init_embeddings(kg: KnowledgeGraph, cfg: EmbedConfig) -> EmbeddingTable:
    """I.i.d. uniform init in [-0.5/sqrt(d), +0.5/sqrt(d)], per-seed deterministic."""
    cfg.validate()
    rng = np.random.default_rng([cfg.seed, 0])
    bound = 0.5 / np.sqrt(cfg.d)
    entity = {
        etype: rng.uniform(-bound, bound, size=(kg.n_entities(etype), cfg.d))
        for etype in ENTITY_TYPES
    }
    relation = {
        rel: rng.uniform(-bound, bound, size=cfg.d) for rel in sorted(FORWARD_RELATIONS)
    }
    return EmbeddingTable(entity, relation, cfg.d)


def _canonical_triples(kg: KnowledgeGraph) -> list[tuple[str, int, int]]:
    out: list[tuple[str, int, int]] = []
    for rel in sorted(kg.edges):
        out.extend((rel, h, t) for h, t in sorted(kg.edges[rel]))
    return out


def _params(table: EmbeddingTable) -> dict:
    p = {("entity", etype): arr for etype, arr in table.entity.items()}
    p.update({("relation", rel): vec for rel, vec in table.relation.items()})
    return p


def _table(params: dict, d: int) -> EmbeddingTable:
    entity = {k[1]: v for k, v in params.items() if k[0] == "entity"}
    relation = {k[1]: v for k, v in params.items() if k[0] == "relation"}
    return EmbeddingTable(entity, relation, d)


def draw_negatives(rng: np.random.Generator, tail_sizes: list[int], m: int) -> np.ndarray:
    """(len(tail_sizes), m) corrupting tails, row i uniform over range(tail_sizes[i]).

    One broadcast draw consumes the generator exactly as one
    `rng.integers(0, tail_sizes[i], size=m)` call per row would.
    """
    return rng.integers(0, np.repeat(tail_sizes, m)).reshape(len(tail_sizes), m)


def batch_loss_and_grads(
    table: EmbeddingTable,
    batch: list[tuple[str, int, int]],
    negatives: np.ndarray,
    want_grads: bool = True,
) -> tuple[float, dict | None]:
    """Negative-sampling logistic loss of one positive batch, and its gradients.

    Row i of the (len(batch), m) array `negatives` holds the corrupting tail
    indices for batch[i]. Gradients come back as a dict keyed like the
    parameter pytree, zero elsewhere.
    """
    loss = 0.0
    grads = {key: np.zeros_like(arr) for key, arr in _params(table).items()} if want_grads else None
    by_rel: dict[str, list[int]] = {}
    for i, (rel, _h, _t) in enumerate(batch):
        by_rel.setdefault(rel, []).append(i)
    for rel in sorted(by_rel):
        rows = by_rel[rel]
        h_type, t_type = relation_types(rel)
        h_idx = np.array([batch[i][1] for i in rows])
        t_idx = np.array([batch[i][2] for i in rows])
        neg_idx = negatives[rows]  # (B, m)
        H = table.entity[h_type][h_idx]
        T = table.entity[t_type][t_idx]
        HR = H + table.relation[rel]
        f_pos = np.einsum("bd,bd->b", HR, T)
        T_neg = table.entity[t_type][neg_idx]  # (B, m, d)
        f_neg = np.einsum("bd,bmd->bm", HR, T_neg)
        loss += float(np.sum(softplus(-f_pos)) + np.sum(softplus(f_neg)))
        if not want_grads:
            continue
        coef_pos = -stable_sigmoid(-f_pos)  # dL/df_pos
        coef_neg = stable_sigmoid(f_neg)  # dL/df_neg
        dHR = coef_pos[:, None] * T + np.einsum("bm,bmd->bd", coef_neg, T_neg)
        np.add.at(grads[("entity", h_type)], h_idx, dHR)
        grads[("relation", rel)] += dHR.sum(axis=0)
        np.add.at(grads[("entity", t_type)], t_idx, coef_pos[:, None] * HR)
        np.add.at(
            grads[("entity", t_type)],
            neg_idx.ravel(),
            (coef_neg[:, :, None] * HR[:, None, :]).reshape(-1, table.d),
        )
    return loss, grads


def train_embeddings(
    kg_train: KnowledgeGraph, cfg: EmbedConfig
) -> tuple[EmbeddingTable, list[float]]:
    """Train on the graph's forward triples; returns (table, per-epoch mean loss)."""
    cfg.validate()
    table = init_embeddings(kg_train, cfg)
    triples = _canonical_triples(kg_train)
    if not triples:
        raise DataError("training graph has no triples")
    params = _params(table)
    opt = make_optimizer(cfg.optimizer, cfg.learning_rate)
    m = cfg.negatives_per_positive
    tail_sizes = {
        rel: kg_train.n_entities(relation_types(rel)[1]) for rel in FORWARD_RELATIONS
    }
    losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        rng = np.random.default_rng([cfg.seed, 3, epoch])
        order = rng.permutation(len(triples))
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            batch = [triples[i] for i in rows]
            negatives = draw_negatives(rng, [tail_sizes[rel] for rel, _h, _t in batch], m)
            table = _table(params, cfg.d)
            loss, grads = batch_loss_and_grads(table, batch, negatives)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            total += loss
            params = opt.step(params, grads)
        losses.append(total / len(triples))
    return _table(params, cfg.d), losses


def grad_check_embeddings(cfg: EmbedConfig, sample_size: int = 100) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Probes `sample_size` random (triple, parameter, coordinate) combinations
    on an internally generated miniature graph; step 1e-5, double precision.
    """
    cfg.validate()
    rng = np.random.default_rng([cfg.seed, 4])
    sizes = {"learner": 6, "course": 5, "teacher": 3, "category": 3, "concept": 4, "school": 2}
    vocab = {etype: [f"{etype}{i}" for i in range(n)] for etype, n in sizes.items()}
    edges: dict[str, set[tuple[int, int]]] = {}
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
    negatives = draw_negatives(rng, [sizes[relation_types(rel)[1]] for rel, _h, _t in triples], m)
    _, grads = batch_loss_and_grads(table, triples, negatives)

    def total_loss(tab: EmbeddingTable) -> float:
        return batch_loss_and_grads(tab, triples, negatives, want_grads=False)[0]

    step = 1e-5
    worst = 0.0
    params = _params(table)
    for _ in range(sample_size):
        i = int(rng.integers(len(triples)))
        rel, h, t = triples[i]
        h_type, t_type = relation_types(rel)
        key = [
            ("entity", h_type, h),
            ("relation", rel, None),
            ("entity", t_type, t),
            ("entity", t_type, int(negatives[i, int(rng.integers(m))])),
        ][int(rng.integers(4))]
        arr = params[key[:2]]
        row = arr[key[2]] if key[2] is not None else arr
        col = int(rng.integers(cfg.d))
        analytic = (grads[key[:2]][key[2]] if key[2] is not None else grads[key[:2]])[col]
        orig = row[col]
        row[col] = orig + step
        up = total_loss(table)
        row[col] = orig - step
        down = total_loss(table)
        row[col] = orig
        numeric = (up - down) / (2.0 * step)
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, err)
    return worst


# -- checkpoint I/O ------------------------------------------------------


def save_embeddings(table: EmbeddingTable, path: str, cfg: EmbedConfig) -> None:
    """Binary checkpoint: magic, config echo, then little-endian f32 matrices."""
    with atomic_write(path, binary=True) as fh:
        fh.write((EMB_MAGIC + "\n").encode())
        fh.write((json.dumps(asdict(cfg), sort_keys=True) + "\n").encode())
        fh.write(struct.pack("<II", table.d, len(ENTITY_TYPES)))
        for etype in ENTITY_TYPES:
            arr = table.entity[etype]
            name = etype.encode()
            fh.write(struct.pack("<HI", len(name), arr.shape[0]))
            fh.write(name)
            fh.write(arr.astype("<f4").tobytes())
        rels = sorted(table.relation)
        fh.write(struct.pack("<I", len(rels)))
        for rel in rels:
            name = rel.encode()
            fh.write(struct.pack("<H", len(name)))
            fh.write(name)
            fh.write(table.relation[rel].astype("<f4").tobytes())


def load_embeddings(path: str) -> tuple[EmbeddingTable, EmbedConfig]:
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\n") != EMB_MAGIC.encode():
            raise DataError(f"{path}: not a {EMB_MAGIC} file")
        try:
            cfg = EmbedConfig(**json.loads(fh.readline().decode()))
            cfg.validate()
            d, n_types = struct.unpack("<II", fh.read(8))
            entity = {}
            for _ in range(n_types):
                name_len, count = struct.unpack("<HI", fh.read(6))
                etype = fh.read(name_len).decode()
                data = np.frombuffer(read_declared(fh, count * d * 4, path), dtype="<f4")
                entity[etype] = data.reshape(count, d).astype(np.float64)
            (n_rels,) = struct.unpack("<I", fh.read(4))
            relation = {}
            for _ in range(n_rels):
                (name_len,) = struct.unpack("<H", fh.read(2))
                rel = fh.read(name_len).decode()
                relation[rel] = np.frombuffer(
                    read_declared(fh, d * 4, path), dtype="<f4"
                ).astype(np.float64)
        except (ConfigError, struct.error, ValueError, TypeError) as exc:
            raise DataError(f"{path}: corrupt embedding checkpoint") from exc
    if cfg.d != d:
        raise CheckpointMismatchError(f"{path}: header d={d} but config echo d={cfg.d}")
    if set(entity) != set(ENTITY_TYPES) or set(relation) != set(FORWARD_RELATIONS):
        raise CheckpointMismatchError(
            f"{path}: tensors {sorted(entity)} / {sorted(relation)} do not name this "
            "schema's entity types and relations"
        )
    return EmbeddingTable(entity, relation, d), cfg
