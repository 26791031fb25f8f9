"""The decision process the agent walks: states, pruned actions, rewards.

An episode starts at a learner and spends a fixed hop budget. Every state
offers a stay-in-place ``self_loop`` plus the current entity's outgoing
edges, ranked by embedding score and truncated. Self-loops consume budget
but not effective hops; they exist because the bipartite schema makes
courses unreachable in an even number of real hops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingTable
from .errors import CheckpointMismatchError, ConfigError, DataError, check_count, open_text
from .kg import Edge as Action, KnowledgeGraph  # Action: (relation name, tail entity)
from .schema import ACTION_RELATIONS, RELATION_SCHEMA, SELF_LOOP, EntityRef


@dataclass(frozen=True)
class Path:
    """A walk: start learner plus ordered (relation, entity) hops."""

    start: EntityRef
    hops: tuple[Action, ...]

    @property
    def n_hops_effective(self) -> int:
        return sum(1 for rel, _ in self.hops if rel != SELF_LOOP)

    @property
    def final_entity(self) -> EntityRef:
        return self.hops[-1][1] if self.hops else self.start

    def stripped_relations(self) -> tuple[str, ...]:
        """Relation sequence with self-loops removed (the path's pattern)."""
        return tuple(rel for rel, _ in self.hops if rel != SELF_LOOP)

    def stripped(self) -> "Path":
        return Path(self.start, tuple(h for h in self.hops if h[0] != SELF_LOOP))

    def is_valid_in(self, kg: KnowledgeGraph) -> bool:
        current = self.start
        for rel, ent in self.hops:
            if rel == SELF_LOOP:
                if ent != current:
                    return False
            elif not kg.has_triple(current, rel, ent):
                return False
            current = ent
        return True


@dataclass(frozen=True)
class EnvState:
    start: EntityRef
    current: EntityRef
    history: tuple[Action, ...]  # most recent hop first, length <= H
    hops_remaining: int


@dataclass
class RewardSpec:
    """Which terminal reward to pay, and the data it needs.

    binary: 1 iff the path ends on a course the start learner holds in the
    train split and took more than one effective hop; 0 otherwise.
    pgpr: 0 unless the stripped relation sequence is whitelisted, else the
    learner-course dot product clipped at 0 and normalized by the best such
    dot product over the whole catalog.
    """

    mode: str
    train_enrollments: dict[int, frozenset[int]]
    pattern_whitelist: set[tuple[str, ...]] | None = None
    embeddings: EmbeddingTable | None = None
    _denominators: dict[int, float] = field(default_factory=dict, repr=False)
    _enrolled: tuple[int, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.mode not in ("binary", "pgpr"):
            raise ConfigError(f"unknown reward mode: {self.mode!r}")
        if self.mode == "pgpr" and (self.pattern_whitelist is None or self.embeddings is None):
            raise ConfigError("pgpr reward needs both a pattern whitelist and embeddings")


def reward(path: Path, spec: RewardSpec) -> float:
    final = path.final_entity
    if spec.mode == "binary":
        if final.entity_type != "course" or path.n_hops_effective <= 1:
            return 0.0
        enrolled = spec.train_enrollments.get(path.start.index, frozenset())
        return 1.0 if final.index in enrolled else 0.0
    if path.stripped_relations() not in spec.pattern_whitelist:
        return 0.0
    if final.entity_type != "course":
        return 0.0
    table = spec.embeddings
    v_learner = table.vector(path.start)
    denom = spec._denominators.get(path.start.index)
    if denom is None:
        denom = max(float(np.max(table.entity["course"] @ v_learner)), 0.0)
        spec._denominators[path.start.index] = denom
    if denom <= 0.0:
        return 0.0
    return max(float(v_learner @ table.vector(final)), 0.0) / denom


def binary_rewards(
    spec: RewardSpec, kg: KnowledgeGraph, learners: np.ndarray, taken: np.ndarray
) -> np.ndarray:
    """`reward` in binary mode, on ids, of the walks from learner indices
    `learners` that took the action ids taken[i]. A walk ends on its last
    action's tail, and its real hops' ids are n_ids or more (a self-loop's is
    its entity's). `spec` keeps its enrollments as the sorted codes learner *
    width + course, width one past the largest course, built on first use."""
    if spec._enrolled is None:
        pairs = [(u, c) for u, cs in spec.train_enrollments.items() for c in cs]
        width = 1 + max((c for _u, c in pairs), default=0)
        spec._enrolled = width, np.sort(np.array([u * width + c for u, c in pairs], np.int64))
    width, codes = spec._enrolled
    course = kg.course_index(taken[:, -1] % kg.n_ids)
    code = np.where((course >= 0) & (course < width), learners * width + course, -1)
    held = np.searchsorted(codes, code, "right") > np.searchsorted(codes, code, "left")
    return (held & (np.count_nonzero(taken >= kg.n_ids, axis=1) > 1)).astype(float)


@dataclass(frozen=True)
class ActionSet:
    """Pruned, ordered actions of one entity plus their feature matrix.

    Row i of `matrix` is [relation feature vector ; tail vector] for
    actions[i]; the self_loop row is [zeros ; current entity vector].
    action_ids[i] is the graph's action id of actions[i] (see
    `KnowledgeGraph`); the self_loop's is the entity's own id.
    """

    actions: tuple[Action, ...]
    matrix: np.ndarray
    action_ids: np.ndarray


class PathEnv:
    """Walks over a fixed graph with embedding-pruned action spaces, all built
    at construction: the entity of id e has the actions act_ids[act_ptr[e] :
    act_ptr[e + 1]], whose `ActionSet.matrix` is act_matrices[e]. Read-only
    and shareable."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        embeddings: EmbeddingTable,
        max_actions: int = 250,
        history_len: int = 1,
    ):
        check_count(max_actions, "max_actions")
        check_count(history_len, "history_len", least=0)
        if not embeddings.matches(kg):
            raise CheckpointMismatchError("embedding vocab sizes do not match the graph")
        self.kg = kg
        self.embeddings = embeddings
        self.max_actions = max_actions
        self.history_len = history_len
        # an action's row is [relation feature vector ; tail vector]: one row per
        # relation id, and one per entity id (the policy's first-layer tables
        # read them too)
        self.relation_rows = np.array([
            embeddings.feature_relation_vector(rel) for rel in ACTION_RELATIONS
        ])
        self.entity_rows = embeddings.W[: kg.n_ids]
        # each entity's self-loop first (its id is the entity's, below n_ids), then
        # its edges by falling score, ties in CSR order (the sort is stable)
        ids, keys = [np.empty(0, np.int64)], [np.empty(0)]  # a graph may hold no entity
        for e in range(kg.n_ids):
            row = kg.edge_ids(e)
            ids += [[e], row]
            keys += [[-np.inf], -embeddings.score_edges(e, row)]
        ids, keys = np.concatenate(ids), np.concatenate(keys)
        head = np.cumsum(ids < kg.n_ids) - 1
        order = np.lexsort((keys, head))
        kept = np.arange(len(ids)) - np.searchsorted(head, head) <= max_actions  # rank in head
        self.act_ids = ids[order[kept]]
        self.act_ptr = np.searchsorted(head[kept], np.arange(kg.n_ids + 1))
        self.act_matrices = np.split(self.action_rows(self.act_ids), self.act_ptr[1:-1])

    def action_rows(self, action_ids: np.ndarray) -> np.ndarray:
        """The `ActionSet.matrix` rows of the given actions: one gather of
        relation rows and one of tail rows."""
        rel, tail = np.divmod(action_ids, self.kg.n_ids)
        return np.concatenate([self.relation_rows[rel], self.entity_rows[tail]], axis=1)

    def initial_state(self, learner: EntityRef, hop_budget: int) -> EnvState:
        if learner.entity_type != "learner":
            raise TypeError(f"episodes start at a learner, got {learner.entity_type}")
        if not self.kg.has_entity(learner):
            raise KeyError(f"unknown entity: {learner}")
        if hop_budget < 1:
            raise ValueError("hop_budget must be >= 1")
        return EnvState(start=learner, current=learner, history=(), hops_remaining=hop_budget)

    def action_set(self, entity: EntityRef) -> ActionSet:
        entity_id = self.kg.entity_id(entity)
        ids = self.act_ids[self.act_ptr[entity_id] : self.act_ptr[entity_id + 1]]
        return ActionSet(self.kg.decode(ids), self.act_matrices[entity_id], ids)

    def actions(self, state: EnvState) -> tuple[Action, ...]:
        """Self_loop first, then pruned outgoing edges by score descending."""
        return self.action_set(state.current).actions

    def step(self, state: EnvState, action: Action) -> EnvState:
        if state.hops_remaining < 1:
            raise ValueError("hop budget exhausted")
        if action not in self.action_set(state.current).actions:
            raise ValueError(f"action {action} not available from {state.current}")
        rel, tail = action
        history = ((rel, tail), *state.history)[: self.history_len]
        return EnvState(
            start=state.start,
            current=state.current if rel == SELF_LOOP else tail,
            history=history,
            hops_remaining=state.hops_remaining - 1,
        )


def load_pattern_whitelist(path: str) -> set[tuple[str, ...]]:
    """One pattern per line, names of `RELATION_SCHEMA` joined by '|'."""
    patterns: set[tuple[str, ...]] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                pattern = tuple(line.split("|"))
                for name in pattern:
                    if name not in RELATION_SCHEMA:
                        raise DataError(f"{path}:{lineno}: unknown relation name {name!r}")
                patterns.add(pattern)
    return patterns
