"""Dense entity/relation embeddings trained by translational scoring.

The scorer is f(h, r, t) = dot(v_h + v_r, v_t); an inverse relation scores
through its forward form, f(t, r_inv, h) = f(h, r, t). Training minimizes
the negative-sampling logistic loss over the graph's forward triples, with
tails corrupted uniformly within their entity type.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    CheckpointMismatchError, ConfigError, DataError, DivergenceError, atomic_write,
    check_count, read_declared,
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
        for name in ("d", "negatives_per_positive", "batch_size"):
            check_count(getattr(self, name), name)
        for name in ("epochs", "seed"):
            check_count(getattr(self, name), name, least=0)
        if not 0 <= self.learning_rate < math.inf:  # also rejects NaN
            raise ConfigError("learning_rate must be finite and non-negative")
        if self.optimizer != "adam":
            raise ConfigError(f"unknown optimizer: {self.optimizer!r}")


class EmbeddingTable:
    """One float64 vector per entity and per forward relation: the rows of `W`,
    entities by type in ENTITY_TYPES order (a matching graph's id order), then
    relations in RELATIONS order. `entity` and `relation` are views of `W`."""

    def __init__(self, entity: dict[str, np.ndarray], relation: dict[str, np.ndarray], d: int):
        rows = [*(entity[etype] for etype in ENTITY_TYPES), [relation[rel] for rel in RELATIONS]]
        self.W = np.concatenate(rows)
        offsets = np.cumsum([len(entity[etype]) for etype in ENTITY_TYPES])
        self.entity = dict(zip(ENTITY_TYPES, np.split(self.W[: offsets[-1]], offsets[:-1])))
        self.relation = dict(zip(RELATIONS, self.W[offsets[-1] :]))
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

    def score_edges(self, head_id: int, action_ids: np.ndarray) -> np.ndarray:
        """Vectorized `score` of the edges of sorted action ids `action_ids`
        (see `KnowledgeGraph`) out of the entity of id `head_id`: one product
        per relation run."""
        n = len(self.W) - len(RELATIONS)
        rel, tail = np.divmod(action_ids, n)
        rels, v_h, out = rel.tolist(), self.W[head_id], np.empty(len(action_ids))
        starts = [i for i in range(len(rels)) if not i or rels[i] != rels[i - 1]]
        for s, e in zip(starts, [*starts[1:], len(rels)]):
            # relation id 2k + 1 is RELATIONS[k], and 2k + 2 its inverse
            k, inverse = divmod(rels[s] - 1, 2)
            tails, fwd = self.W[tail[s:e]], self.W[n + k]
            if inverse:
                out[s:e] = tails @ v_h + float(fwd @ v_h)
            else:
                out[s:e] = tails @ (v_h + fwd)
        return out

    def check_finite(self, source: str = "embedding table") -> None:
        if not np.all(np.isfinite(self.W)):
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
    tail rows of batch[i]; a batch not grouped by relation is first sorted by it,
    stably. `scratch` is a `_scratch` pair, allocated if omitted.
    """
    d, m = W.shape[1], negatives.shape[1]
    weights, bins = scratch or _scratch(len(batch), m, d)
    if np.any(batch[1:, 0] < batch[:-1, 0]):
        order = np.argsort(batch[:, 0], kind="stable")  # by relation, rows ascending within
        batch, negatives = batch[order], negatives[order]
    r, h, t = batch.T
    starts = np.flatnonzero(np.diff(r, prepend=-1))
    HR = W[h] + W[r - len(RELATIONS)]
    T, T_neg = W[t], W[negatives]  # (B, d), (B, m, d)
    f_pos, f_neg = np.einsum("bd,bd->b", HR, T), np.einsum("bd,bmd->bm", HR, T_neg)
    coef_pos, coef_neg = -stable_sigmoid(-f_pos), stable_sigmoid(f_neg)  # dL/df_pos, dL/df_neg
    loss_pos, loss_neg = softplus(-f_pos), softplus(f_neg)
    dHR = coef_pos[:, None] * T + np.einsum("bm,bmd->bd", coef_neg, T_neg)
    # Terms go group by group in ascending relation order, each as head rows,
    # relation row, tail rows, negative rows: every bin adds its terms in the
    # order per-tensor `np.add.at` scatters did, so the sums are bit-equal.
    loss, k, rows = 0.0, 0, []
    for rel, s, e in zip(r[starts].tolist(), starts.tolist(), [*starts[1:].tolist(), len(batch)]):
        loss += float(np.sum(loss_pos[s:e]) + np.sum(loss_neg[s:e]))
        b = e - s
        terms = weights[k : k + (2 + m) * b + 1]
        k += len(terms)
        terms[:b] = dHR[s:e]
        terms[b] = dHR[s:e].sum(axis=0)
        terms[b + 1 : 2 * b + 1] = coef_pos[s:e, None] * HR[s:e]
        np.multiply(coef_neg[s:e, :, None], HR[s:e, None], out=terms[2 * b + 1 :].reshape(b, m, d))
        rows += [h[s:e], [len(W) - len(RELATIONS) + rel], t[s:e], negatives[s:e].ravel()]
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
    # shift[r] = the first rows of r's head and tail types in table.W
    offset = np.array(kg_train.offsets)
    types = np.array([[ENTITY_TYPES.index(e) for e in relation_types(rel)] for rel in RELATIONS])
    shift, tail_sizes = offset[types], np.diff(offset)[types[:, 1]]
    triples[:, 1:] += shift[triples[:, 0]]
    opt, m = Adam(cfg.learning_rate), cfg.negatives_per_positive
    # Allocated once per call, not per batch: glibc hands each batch's freed
    # multi-MB temporaries back to the OS, and faulting them in again cost
    # about 150,000 minor page faults per call at d=100 (under 3,000 with these).
    scratch = _scratch(min(cfg.batch_size, len(triples)), m, cfg.d)
    W, losses = table.W, []
    for epoch in range(1, cfg.epochs + 1):
        rng = np.random.default_rng([cfg.seed, 3, epoch])
        order = rng.permutation(len(triples))
        # each batch grouped by relation, stably; its negatives drawn in its own row order
        batch_start = np.arange(len(order)) // cfg.batch_size * cfg.batch_size
        grouped = np.lexsort((triples[order, 0], batch_start))
        epoch_triples, sizes = triples[order[grouped]], tail_sizes[triples[order, 0]]
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            rows = slice(start, start + cfg.batch_size)
            batch = epoch_triples[rows]
            negatives = draw_negatives(rng, sizes[rows], m)[grouped[rows] - start]
            negatives += shift[batch[:, 0], 1:]
            loss, grad = batch_loss_and_grads(W, batch, negatives, scratch)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            total += loss
            W = opt.step({"W": W}, {"W": grad})["W"]
        losses.append(total / len(triples))
    table.W[:] = W
    return table, losses


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
