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

from .errors import ConfigError, DataError, atomic_write, check_count, open_text
from .schema import (
    ACTION_RELATIONS,
    ENTITY_TYPES,
    FORWARD_RELATIONS,
    EntityRef,
    relation_types,
)

KG_MAGIC = "UPGPR-KG v1"

Edge = tuple[str, EntityRef]  # (relation name, neighbor)


class KnowledgeGraph:
    """Immutable typed graph over dense per-type vocabularies.

    `vocab` maps entity type -> list of distinct raw string IDs (position =
    dense index). `edges` holds forward triples only, as per-relation sets of
    (head index, tail index); inverse triples are implied and materialized
    in the adjacency.

    An entity's id is its index plus `offsets[i]`, the first id of its type
    ENTITY_TYPES[i]; ids run to `n_ids`. The adjacency is a CSR of each
    entity's sorted action ids, `relation id * n_ids + tail id` with relation
    ids indexing ACTION_RELATIONS, which is (relation name, tail index) order.
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
        for etype, ids in self._ids.items():
            if len(ids) < len(self.vocab[etype]):
                raise DataError(f"the {etype} vocabulary lists a raw id twice")
        self._refs = [EntityRef(t, i) for t, ids in self.vocab.items() for i in range(len(ids))]
        self.offsets = np.cumsum([0, *map(len, self.vocab.values())]).tolist()
        self.n_ids = self.offsets[-1]
        self._first_id = dict(zip(ENTITY_TYPES, self.offsets))
        self._indptr, self._edge_ids = self._build_csr()

    def _build_csr(self) -> tuple[np.ndarray, np.ndarray]:
        n, heads, actions = self.n_ids, [], []
        for rel, pairs in self.edges.items():
            h_type, t_type = relation_types(rel)
            try:
                h, t = np.array(list(pairs), dtype=np.int64).reshape(-1, 2).T
            except OverflowError:
                raise DataError(f"an edge of {rel} is outside the vocabulary") from None
            outside = (h < 0) | (t < 0) | (h >= self.n_entities(h_type))
            outside |= t >= self.n_entities(t_type)
            if outside.any():
                i = int(np.argmax(outside))
                raise DataError(f"edge ({h[i]},{t[i]}) of {rel} outside vocabulary")
            r = ACTION_RELATIONS.index(rel)
            h, t = h + self._first_id[h_type], t + self._first_id[t_type]
            heads += [h, t]
            actions += [r * n + t, (r + 1) * n + h]  # the inverse's id is the next one
        heads, actions = np.concatenate(heads), np.concatenate(actions)
        order = np.lexsort((actions, heads))
        return np.searchsorted(heads[order], np.arange(n + 1)), actions[order]

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

    def entity_id(self, ref: EntityRef) -> int:
        self._check_ref(ref)  # an index past its type's would alias another id
        return self._first_id[ref.entity_type] + ref.index

    def entity_of(self, entity_id: int) -> EntityRef:
        if not 0 <= entity_id < self.n_ids:  # a negative list index would alias
            raise KeyError(f"unknown entity id: {entity_id}")
        return self._refs[entity_id]

    def course_index(self, entity_ids: np.ndarray) -> np.ndarray:
        """Each id's course index, or -1 where it is not a course."""
        index = entity_ids - self._first_id["course"]
        return np.where((index >= 0) & (index < len(self.vocab["course"])), index, -1)

    def edge_ids(self, entity_id: int) -> np.ndarray:
        """The action ids of the entity's edges, in `neighbors` order."""
        return self._edge_ids[self._indptr[entity_id] : self._indptr[entity_id + 1]]

    def decode(self, action_ids: np.ndarray) -> tuple[Edge, ...]:
        """The (relation, tail) edge of each action id."""
        n, refs = self.n_ids, self._refs
        return tuple((ACTION_RELATIONS[a // n], refs[a % n]) for a in action_ids.tolist())

    def neighbors(self, ref: EntityRef) -> tuple[Edge, ...]:
        """Outgoing edges of `ref`, sorted by (relation name, tail index).

        The stay-in-place self_loop is not part of the adjacency; the path
        environment injects it as an action.
        """
        return self.decode(self.edge_ids(self.entity_id(ref)))

    def has_triple(self, head: EntityRef, relation: str, tail: EntityRef) -> bool:
        if not (self.has_entity(head) and self.has_entity(tail) and relation in ACTION_RELATIONS):
            return False
        row = self.edge_ids(self.entity_id(head))
        action = ACTION_RELATIONS.index(relation) * self.n_ids + self.entity_id(tail)
        i = np.searchsorted(row, action)
        return bool(i < len(row) and row[i] == action)

    def iter_triples(self):
        """Yield every (head, relation, tail), inverses included."""
        for head in map(self.entity_of, range(self.n_ids)):
            for rel, tail in self.neighbors(head):
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
    check_count(min_enrollments, "min_enrollments", least=0)
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
    """The split of `save_split`'s lines over `kg`. A malformed line, an id
    `kg` does not hold, a pair that is not one of its enrollments, or a pair
    listed twice raises DataError naming its line."""
    parts: dict[str, dict[int, list[EntityRef]]] = {"train": {}, "val": {}, "test": {}}
    enrolled = kg.edges["enrolled"]
    first_line: dict[tuple[int, int], int] = {}  # (learner, course) -> line listing it
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
            if (learner.index, course.index) not in enrolled:
                raise DataError(f"{path}:{lineno}: {cols[0]} is not enrolled in {cols[2]}")
            first = first_line.setdefault((learner.index, course.index), lineno)
            if first != lineno:
                raise DataError(f"{path}:{lineno}: {cols[0]} and {cols[2]} are already "
                                f"paired on line {first}")
            parts[cols[1]].setdefault(learner.index, []).append(course)
    freeze = lambda d: {u: tuple(v) for u, v in d.items()}
    return EnrollmentSplit(
        freeze(parts["train"]), freeze(parts["val"]), freeze(parts["test"]),
        seed=seed, ratios=ratios,
    )
