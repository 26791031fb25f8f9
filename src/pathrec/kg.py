"""Typed knowledge graph store: ingestion, filtering, splits, serialization.

Edges are ingested from two-column TSV files (one file per forward relation)
and materialized together with their inverses, so the graph can be walked in
both directions. All orderings (vocabularies, adjacency, serialization) are
canonical, which makes ingestion and serialization byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, atomic_write, open_text
from .schema import (
    ENTITY_TYPES,
    FORWARD_RELATIONS,
    EntityRef,
    inverse_of,
    relation_types,
)

KG_MAGIC = "UPGPR-KG v1"

Edge = tuple[str, EntityRef]  # (relation name, neighbor)


class KnowledgeGraph:
    """Immutable typed graph over dense per-type vocabularies.

    `vocab` maps entity type -> list of raw string IDs (position = dense
    index). `edges` holds forward triples only, as per-relation sets of
    (head index, tail index); inverse triples are implied and materialized
    in the adjacency.
    """

    def __init__(self, vocab: dict[str, list[str]], edges: dict[str, set[tuple[int, int]]]):
        for etype in vocab:
            if etype not in ENTITY_TYPES:
                raise ConfigError(f"unknown entity type: {etype!r}")
        for rel in edges:
            if rel not in FORWARD_RELATIONS:
                raise ConfigError(f"unknown relation name: {rel!r}")
        self.vocab = {etype: list(vocab.get(etype, [])) for etype in ENTITY_TYPES}
        self.edges = {rel: frozenset(edges.get(rel, ())) for rel in FORWARD_RELATIONS}
        self._ids = {
            etype: {raw: i for i, raw in enumerate(ids)} for etype, ids in self.vocab.items()
        }
        for rel, pairs in self.edges.items():
            h_type, t_type = relation_types(rel)
            n_h, n_t = len(self.vocab[h_type]), len(self.vocab[t_type])
            for h, t in pairs:
                if not (0 <= h < n_h and 0 <= t < n_t):
                    raise DataError(f"edge ({h},{t}) of {rel} outside vocabulary")
        self._adjacency = self._build_adjacency()

    def _build_adjacency(self) -> dict[EntityRef, tuple[Edge, ...]]:
        adj: dict[EntityRef, list[Edge]] = {}
        for rel in sorted(self.edges):
            h_type, t_type = relation_types(rel)
            inv = inverse_of(rel)
            for h, t in self.edges[rel]:
                href, tref = EntityRef(h_type, h), EntityRef(t_type, t)
                adj.setdefault(href, []).append((rel, tref))
                adj.setdefault(tref, []).append((inv, href))
        return {
            ref: tuple(sorted(items, key=lambda e: (e[0], e[1].index)))
            for ref, items in adj.items()
        }

    # -- lookups ---------------------------------------------------------

    def n_entities(self, entity_type: str) -> int:
        if entity_type not in self.vocab:
            raise KeyError(f"unknown entity type: {entity_type!r}")
        return len(self.vocab[entity_type])

    def entity(self, entity_type: str, raw_id: str) -> EntityRef:
        try:
            return EntityRef(entity_type, self._ids[entity_type][raw_id])
        except KeyError:
            raise KeyError(f"unknown {entity_type} id: {raw_id!r}") from None

    def raw_id(self, ref: EntityRef) -> str:
        self._check_ref(ref)
        return self.vocab[ref.entity_type][ref.index]

    def has_entity(self, ref: EntityRef) -> bool:
        return ref.entity_type in self.vocab and 0 <= ref.index < len(self.vocab[ref.entity_type])

    def _check_ref(self, ref: EntityRef) -> None:
        if not self.has_entity(ref):
            raise KeyError(f"unknown entity: {ref}")

    def neighbors(self, ref: EntityRef) -> tuple[Edge, ...]:
        """Outgoing edges of `ref`, sorted by (relation name, tail index).

        The stay-in-place self_loop is not part of the adjacency; the path
        environment injects it as an action.
        """
        self._check_ref(ref)
        return self._adjacency.get(ref, ())

    def has_triple(self, head: EntityRef, relation: str, tail: EntityRef) -> bool:
        for rel, other in self._adjacency.get(head, ()):
            if rel == relation and other == tail:
                return True
        return False

    def iter_triples(self):
        """Yield every (head, relation, tail), inverses included."""
        for head, items in self._adjacency.items():
            for rel, tail in items:
                yield head, rel, tail

    @property
    def stats(self) -> dict:
        return {
            "entities": {etype: len(ids) for etype, ids in self.vocab.items()},
            "relations": {rel: len(pairs) for rel, pairs in self.edges.items()},
        }

    def enrollment_counts(self) -> np.ndarray:
        """Number of enrolled edges per learner index."""
        counts = np.zeros(self.n_entities("learner"), dtype=np.int64)
        for learner, _course in self.edges["enrolled"]:
            counts[learner] += 1
        return counts

    def courses(self) -> list[EntityRef]:
        return [EntityRef("course", i) for i in range(self.n_entities("course"))]

    def learners(self) -> list[EntityRef]:
        return [EntityRef("learner", i) for i in range(self.n_entities("learner"))]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KnowledgeGraph)
            and self.vocab == other.vocab
            and self.edges == other.edges
        )

    def replace_enrollments(self, enrollments: set[tuple[int, int]]) -> "KnowledgeGraph":
        """New graph with the enrolled edges swapped out, all else shared."""
        edges = dict(self.edges)
        edges["enrolled"] = set(enrollments)
        return KnowledgeGraph(self.vocab, edges)


def graph_from_raw_edges(raw_edges: dict[str, list[tuple[str, str]]]) -> KnowledgeGraph:
    """Build a graph from per-relation lists of (raw head id, raw tail id).

    Relations are processed in sorted-name order and IDs are interned on
    first appearance, so the same raw edges always produce the same dense
    indexing (this is also exactly what `ingest` does with file contents).
    """
    for rel in raw_edges:
        if rel not in FORWARD_RELATIONS:
            raise ConfigError(f"unknown relation name: {rel!r}")
    vocab: dict[str, list[str]] = {etype: [] for etype in ENTITY_TYPES}
    ids: dict[str, dict[str, int]] = {etype: {} for etype in ENTITY_TYPES}

    def intern(etype: str, raw: str) -> int:
        table = ids[etype]
        idx = table.get(raw)
        if idx is None:
            idx = len(table)
            table[raw] = idx
            vocab[etype].append(raw)
        return idx

    edges: dict[str, set[tuple[int, int]]] = {}
    for rel in sorted(raw_edges):
        h_type, t_type = relation_types(rel)
        edges[rel] = {
            (intern(h_type, h), intern(t_type, t)) for h, t in raw_edges[rel]
        }
    return KnowledgeGraph(vocab, edges)


def ingest(relation_files: dict[str, str]) -> KnowledgeGraph:
    """Build a graph from per-relation TSV files (head_id<TAB>tail_id lines).

    Duplicate lines collapse to one edge. Raises ConfigError for unknown
    relation names and DataError for lines without exactly two columns.
    """
    for rel in relation_files:
        if rel not in FORWARD_RELATIONS:
            raise ConfigError(f"unknown relation name: {rel!r}")
    raw_edges: dict[str, list[tuple[str, str]]] = {}
    for rel in sorted(relation_files):
        path = relation_files[rel]
        pairs: list[tuple[str, str]] = []
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                cols = line.split("\t")
                if len(cols) != 2:
                    raise DataError(
                        f"{path}:{lineno}: expected 2 tab-separated columns, got {len(cols)}"
                    )
                pairs.append((cols[0], cols[1]))
        raw_edges[rel] = pairs
    return graph_from_raw_edges(raw_edges)


def filter_learners(kg: KnowledgeGraph, min_enrollments: int) -> KnowledgeGraph:
    """Drop learners with fewer than `min_enrollments` enrolled edges.

    Surviving learners are re-indexed densely (original order preserved);
    courses and other entities are retained even if left without edges.
    """
    if min_enrollments < 0:
        raise ConfigError("min_enrollments must be >= 0")
    counts = kg.enrollment_counts()
    keep = [i for i in range(len(counts)) if counts[i] >= min_enrollments]
    remap = {old: new for new, old in enumerate(keep)}
    vocab = dict(kg.vocab)
    vocab["learner"] = [kg.vocab["learner"][i] for i in keep]
    edges = dict(kg.edges)
    edges["enrolled"] = {
        (remap[h], t) for h, t in kg.edges["enrolled"] if h in remap
    }
    return KnowledgeGraph(vocab, edges)


@dataclass(frozen=True)
class EnrollmentSplit:
    """Per-learner partition of enrollments into train/validation/test."""

    train: dict[int, tuple[EntityRef, ...]]
    validation: dict[int, tuple[EntityRef, ...]]
    test: dict[int, tuple[EntityRef, ...]]
    seed: int
    ratios: tuple[float, float, float]

    def part(self, name: str) -> dict[int, tuple[EntityRef, ...]]:
        try:
            return {"train": self.train, "val": self.validation, "test": self.test}[name]
        except KeyError:
            raise KeyError(f"unknown split part: {name!r}") from None

    def train_course_sets(self) -> dict[int, frozenset[int]]:
        """Learner index -> frozen set of train course indices."""
        return {u: frozenset(c.index for c in courses) for u, courses in self.train.items()}

    def enrollment_pairs(self, name: str) -> set[tuple[int, int]]:
        return {(u, c.index) for u, courses in self.part(name).items() for c in courses}


def split_enrollments(
    kg: KnowledgeGraph,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> EnrollmentSplit:
    """Shuffle each learner's enrollments and split them train/val/test.

    Counts follow the floor rule: n_test = floor(r_test*n), n_val =
    floor(r_val*n), remainder to train, so train is never empty for a
    learner with at least one enrollment. Deterministic per seed.
    """
    if any(r < 0 for r in ratios) or not math.isclose(sum(ratios), 1.0, abs_tol=1e-9):
        raise ConfigError(f"ratios must be non-negative and sum to 1, got {ratios}")
    r_val, r_test = ratios[1], ratios[2]
    train: dict[int, tuple[EntityRef, ...]] = {}
    val: dict[int, tuple[EntityRef, ...]] = {}
    test: dict[int, tuple[EntityRef, ...]] = {}
    for learner in kg.learners():
        courses = [tail for rel, tail in kg.neighbors(learner) if rel == "enrolled"]
        n = len(courses)
        if n == 0:
            raise DataError(
                f"learner {kg.raw_id(learner)!r} has no enrollments; filter before splitting"
            )
        rng = np.random.default_rng([seed, learner.index])
        order = rng.permutation(n)
        shuffled = [courses[i] for i in order]
        n_test = int(r_test * n)
        n_val = int(r_val * n)
        n_train = n - n_val - n_test
        train[learner.index] = tuple(shuffled[:n_train])
        val[learner.index] = tuple(shuffled[n_train : n_train + n_val])
        test[learner.index] = tuple(shuffled[n_train + n_val :])
    return EnrollmentSplit(train, val, test, seed=seed, ratios=tuple(ratios))


def training_graph(kg: KnowledgeGraph, split: EnrollmentSplit) -> KnowledgeGraph:
    """Graph whose enrolled edges are the train split only (all else kept)."""
    return kg.replace_enrollments(split.enrollment_pairs("train"))


def kg_composition(kg: KnowledgeGraph) -> dict[str, float]:
    """Fraction of forward triples per relation (fractions sum to 1)."""
    total = sum(len(pairs) for pairs in kg.edges.values())
    if total == 0:
        raise DataError("graph has no triples")
    return {rel: len(pairs) / total for rel, pairs in kg.edges.items() if pairs}


# -- serialization -------------------------------------------------------


def save_graph(kg: KnowledgeGraph, path: str) -> None:
    """Write the canonical line-oriented form; byte-identical round trips."""
    lines = [KG_MAGIC]
    for etype in ENTITY_TYPES:
        ids = kg.vocab[etype]
        lines.append(f"vocab\t{etype}\t{len(ids)}")
        lines.extend(f"e\t{raw}" for raw in ids)
    for rel in sorted(kg.edges):
        pairs = sorted(kg.edges[rel])
        lines.append(f"rel\t{rel}\t{len(pairs)}")
        lines.extend(f"t\t{h}\t{t}" for h, t in pairs)
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path: str) -> KnowledgeGraph:
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != KG_MAGIC:
        raise DataError(f"{path}: not a {KG_MAGIC} file")
    vocab: dict[str, list[str]] = {}
    edges: dict[str, set[tuple[int, int]]] = {}
    sections = {"vocab": ENTITY_TYPES, "rel": FORWARD_RELATIONS}
    i = 1
    try:
        while i < len(lines):
            kind, name, count = lines[i].split("\t")
            n = int(count)
            if name not in sections.get(kind, ()):
                raise DataError(f"{path}:{i + 1}: unexpected section {kind!r} {name!r}")
            if n < 0 or i + n >= len(lines):
                raise DataError(f"{path}:{i + 1}: {kind} {name} declares {n} lines, "
                                f"{len(lines) - i - 1} follow")
            body = lines[i + 1 : i + 1 + n]
            if kind == "vocab":
                vocab[name] = [ln.split("\t", 1)[1] for ln in body]
            else:
                edges[name] = {
                    (int(h), int(t)) for _, h, t in (ln.split("\t") for ln in body)
                }
            i += 1 + n
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: corrupt graph file near line {i + 1}") from exc
    return KnowledgeGraph(vocab, edges)


def save_split(split: EnrollmentSplit, kg: KnowledgeGraph, path: str) -> None:
    """Write 'learner_id<TAB>{train|val|test}<TAB>course_id' lines."""
    with atomic_write(path) as fh:
        for learner in kg.learners():
            raw_learner = kg.raw_id(learner)
            for part in ("train", "val", "test"):
                for course in split.part(part).get(learner.index, ()):
                    fh.write(f"{raw_learner}\t{part}\t{kg.raw_id(course)}\n")


def load_split(path: str, kg: KnowledgeGraph, seed: int = -1,
               ratios: tuple[float, float, float] = (0.0, 0.0, 0.0)) -> EnrollmentSplit:
    parts: dict[str, dict[int, list[EntityRef]]] = {"train": {}, "val": {}, "test": {}}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 3 or cols[1] not in parts:
                raise DataError(f"{path}:{lineno}: malformed split line")
            try:
                learner = kg.entity("learner", cols[0])
                course = kg.entity("course", cols[2])
            except KeyError as exc:
                raise DataError(f"{path}:{lineno}: {exc.args[0]}") from None
            parts[cols[1]].setdefault(learner.index, []).append(course)
    freeze = lambda d: {u: tuple(v) for u, v in d.items()}
    return EnrollmentSplit(
        freeze(parts["train"]), freeze(parts["val"]), freeze(parts["test"]),
        seed=seed, ratios=ratios,
    )
