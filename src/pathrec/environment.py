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
from .errors import ConfigError, open_text
from .kg import Edge as Action, KnowledgeGraph  # Action: (relation name, tail entity)
from .schema import ACTION_RELATIONS, ENTITY_TYPES, SELF_LOOP, EntityRef


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
    """Walks over a fixed graph with embedding-pruned action spaces.

    Action sets depend only on the entity being stood on, so they are
    cached per entity id; the environment is read-only and shareable.
    `action` turns the id of an action of a built action set back into
    that set's `Action`, so decoded paths share the sets' tuples.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        embeddings: EmbeddingTable,
        max_actions: int = 250,
        history_len: int = 1,
    ):
        if max_actions < 1:
            raise ConfigError("max_actions must be >= 1")
        if history_len < 0:
            raise ConfigError("history_len must be >= 0")
        self.kg = kg
        self.embeddings = embeddings
        self.max_actions = max_actions
        self.history_len = history_len
        self._action_sets: dict[int, ActionSet] = {}
        self._actions_by_id: dict[int, Action] = {}
        # an action's row is [relation feature vector ; tail vector]: one row per
        # relation id, and one per entity id (the policy's first-layer tables
        # read them too)
        self.relation_rows = np.array([
            embeddings.feature_relation_vector(rel) for rel in ACTION_RELATIONS
        ])
        self.entity_rows = np.concatenate([embeddings.entity[t] for t in ENTITY_TYPES])

    def action(self, action_id: int) -> Action:
        return self._actions_by_id[action_id]

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

    def action_sets(self, entity_ids: list[int]) -> list[ActionSet]:
        """The action sets of the entities with these ids."""
        cached = self._action_sets
        return [cached.get(e) or self.action_set(self.kg.entity_of(e)) for e in entity_ids]

    def action_set(self, entity: EntityRef) -> ActionSet:
        entity_id = self.kg.entity_id(entity)
        cached = self._action_sets.get(entity_id)
        if cached is not None:
            return cached
        edge_ids = self.kg.edge_ids(entity_id)
        edges = self.kg.decode(edge_ids)
        if edges:
            scores = self.embeddings.score_edges(entity, edges)
            kept = np.argsort(-scores, kind="stable")[: self.max_actions]
            edge_ids, edges = edge_ids[kept], [edges[i] for i in kept.tolist()]
        actions = ((SELF_LOOP, entity), *edges)
        ids = np.concatenate(([entity_id], edge_ids))  # the self_loop's relation id is 0
        aset = self._action_sets[entity_id] = ActionSet(actions, self.action_rows(ids), ids)
        self._actions_by_id.update(zip(ids.tolist(), actions))
        return aset

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
    """One pattern per line, relation names joined by '|'."""
    patterns: set[tuple[str, ...]] = set()
    with open_text(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                patterns.add(tuple(line.split("|")))
    return patterns
