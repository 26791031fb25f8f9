"""Dense entity/relation embeddings trained by translational scoring.

The scorer is f(h, r, t) = dot(v_h + v_r, v_t); an inverse relation scores
through its forward form, f(t, r_inv, h) = f(h, r, t). Training minimizes
the negative-sampling logistic loss over the graph's forward triples, with
tails corrupted uniformly within their entity type.
"""

from __future__ import annotations

import json
import numbers
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    CheckpointMismatchError, ConfigError, DataError, DivergenceError, atomic_write,
    read_declared,
)
from .kg import KnowledgeGraph
from .optim import Adam, softplus, stable_sigmoid
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
# column 0 of a `_canonical_triples` row indexes this tuple
RELATIONS = tuple(sorted(FORWARD_RELATIONS))


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
        counts = (self.d, self.epochs, self.negatives_per_positive, self.batch_size, self.seed)
        # a float count passes the range checks below, then fails as a bare TypeError
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in counts):
            raise ConfigError("count and seed settings must be integers")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.d <= 0:
            raise ConfigError("embedding dimension d must be positive")
        if not self.learning_rate >= 0:  # also rejects NaN
            raise ConfigError("learning_rate must be non-negative")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.negatives_per_positive <= 0 or self.batch_size <= 0:
            raise ConfigError("negatives_per_positive and batch_size must be positive")
        if self.optimizer != "adam":
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

    def check_finite(self, source: str = "embedding table") -> None:
        for arr in (*self.entity.values(), *self.relation.values()):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"{source} contains non-finite values")

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
    relation = {rel: rng.uniform(-bound, bound, size=cfg.d) for rel in RELATIONS}
    return EmbeddingTable(entity, relation, cfg.d)


def _canonical_triples(kg: KnowledgeGraph) -> np.ndarray:
    """(n, 3) int array of the graph's forward triples, sorted: each row is
    (position of its relation in RELATIONS, head index, tail index)."""
    rows = [(r, h, t) for r, rel in enumerate(RELATIONS) for h, t in sorted(kg.edges[rel])]
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def draw_negatives(
    rng: np.random.Generator, tail_sizes: np.ndarray | list[int], m: int
) -> np.ndarray:
    """(len(tail_sizes), m) corrupting tails, row i uniform over range(tail_sizes[i]).

    One broadcast draw consumes the generator exactly as one
    `rng.integers(0, tail_sizes[i], size=m)` call per row would.
    """
    return rng.integers(0, np.repeat(tail_sizes, m)).reshape(len(tail_sizes), m)


def _scratch(n_rows: int, m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-term weights and flat bin indices for batches of up to n_rows."""
    n_terms = n_rows * (2 + m) + len(RELATIONS)
    return np.empty((n_terms, d)), np.empty(n_terms * d, dtype=np.intp)


def batch_loss_and_grads(
    W: np.ndarray, batch: np.ndarray, negatives: np.ndarray, scratch=None
) -> tuple[float, np.ndarray]:
    """Negative-sampling logistic loss of one positive batch, and its gradient.

    `W` holds the rows of each entity type in ENTITY_TYPES order, then one row
    per relation in RELATIONS order. A `batch` row is (position of its relation
    in RELATIONS, head row, tail row); `negatives[i]` holds the (m,) corrupting
    tail rows of batch[i]. `scratch` is a `_scratch` pair, allocated if omitted.
    """
    d, m = W.shape[1], negatives.shape[1]
    weights, bins = scratch or _scratch(len(batch), m, d)
    order = np.argsort(batch[:, 0], kind="stable")  # by relation, rows ascending within
    r_sorted, h, t = batch[order].T
    rel_ids, starts = np.unique(r_sorted, return_index=True)
    HR = W[h] + W[r_sorted - len(RELATIONS)]
    T, T_neg = W[t], W[negatives[order]]  # (B, d), (B, m, d)
    f_pos, f_neg = np.einsum("bd,bd->b", HR, T), np.einsum("bd,bmd->bm", HR, T_neg)
    coef_pos, coef_neg = -stable_sigmoid(-f_pos), stable_sigmoid(f_neg)  # dL/df_pos, dL/df_neg
    dHR = coef_pos[:, None] * T + np.einsum("bm,bmd->bd", coef_neg, T_neg)
    # Terms go group by group in ascending relation order, each as head rows,
    # relation row, tail rows, negative rows: every bin adds its terms in the
    # order per-tensor `np.add.at` scatters did, so the sums are bit-equal.
    loss, k, rows = 0.0, 0, []
    for r, s, e in zip(rel_ids, starts, [*starts[1:], len(batch)]):
        loss += float(np.sum(softplus(-f_pos[s:e])) + np.sum(softplus(f_neg[s:e])))
        b = e - s
        terms = weights[k : k + (2 + m) * b + 1]
        k += len(terms)
        terms[:b] = dHR[s:e]
        terms[b] = dHR[s:e].sum(axis=0)
        terms[b + 1 : 2 * b + 1] = coef_pos[s:e, None] * HR[s:e]
        np.multiply(coef_neg[s:e, :, None], HR[s:e, None], out=terms[2 * b + 1 :].reshape(b, m, d))
        rows += [h[s:e], [len(W) - len(RELATIONS) + r], t[s:e], negatives[order[s:e]].ravel()]
    np.add(np.concatenate(rows)[:, None] * d, np.arange(d), out=bins[: k * d].reshape(k, d))
    grad = np.bincount(bins[: k * d], weights[:k].ravel(), minlength=W.size)
    return loss, grad.reshape(W.shape)


def train_embeddings(
    kg_train: KnowledgeGraph, cfg: EmbedConfig
) -> tuple[EmbeddingTable, list[float]]:
    """Train on the graph's forward triples; returns (table, per-epoch mean loss)."""
    cfg.validate()
    table = init_embeddings(kg_train, cfg)
    triples = _canonical_triples(kg_train)
    if not len(triples):
        raise DataError("training graph has no triples")
    # W: entity type i's rows from offset[i] on, then the relation rows (both in
    # init_embeddings' order); shift[r] = first rows of r's head and tail types
    W = np.concatenate([*table.entity.values(), [*table.relation.values()]])
    offset = np.cumsum([0] + [kg_train.n_entities(etype) for etype in ENTITY_TYPES])
    types = np.array([[ENTITY_TYPES.index(e) for e in relation_types(rel)] for rel in RELATIONS])
    shift, tail_sizes = offset[types], np.diff(offset)[types[:, 1]]
    triples[:, 1:] += shift[triples[:, 0]]
    opt, m = Adam(cfg.learning_rate), cfg.negatives_per_positive
    # Allocated once per call, not per batch: glibc hands each batch's freed
    # multi-MB temporaries back to the OS, and faulting them in again cost
    # about 150,000 minor page faults per call at d=100 (under 3,000 with these).
    scratch = _scratch(min(cfg.batch_size, len(triples)), m, cfg.d)
    losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        rng = np.random.default_rng([cfg.seed, 3, epoch])
        order = rng.permutation(len(triples))
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = triples[order[start : start + cfg.batch_size]]
            negatives = draw_negatives(rng, tail_sizes[batch[:, 0]], m) + shift[batch[:, 0], 1:]
            loss, grad = batch_loss_and_grads(W, batch, negatives, scratch)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            total += loss
            W = opt.step({"W": W}, {"W": grad})["W"]
        losses.append(total / len(triples))
    entity = dict(zip(ENTITY_TYPES, np.split(W[: offset[-1]], offset[1:-1])))
    return EmbeddingTable(entity, dict(zip(RELATIONS, W[offset[-1] :])), cfg.d), losses


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
    table = EmbeddingTable(entity, relation, d)
    table.check_finite(path)
    return table, cfg
