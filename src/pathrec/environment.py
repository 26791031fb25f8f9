"""The decision process the agent walks: states, pruned actions, rewards.

An episode starts at a learner and spends a fixed hop budget. Every state
offers a stay-in-place ``self_loop`` plus the current entity's outgoing
edges, ranked by embedding score and truncated. Self-loops consume budget
but not effective hops; they exist because the bipartite schema makes
courses unreachable in an even number of real hops.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingTable
from .errors import ConfigError, open_text
from .kg import KnowledgeGraph
from .schema import ENTITY_TYPES, RELATION_SCHEMA, SELF_LOOP, EntityRef

Action = tuple[str, EntityRef]  # (relation name, tail entity)


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
    action_ids[i] and tails[i] are the environment's integer ids of
    actions[i] and of its tail entity (see `PathEnv`).
    """

    actions: tuple[Action, ...]
    matrix: np.ndarray
    index: dict[Action, int]
    action_ids: np.ndarray
    tails: np.ndarray


class PathEnv:
    """Walks over a fixed graph with embedding-pruned action spaces.

    Action sets depend only on the entity being stood on, so they are
    cached per entity; the environment is read-only and shareable.

    Entities and actions also have integer ids, so that array code can
    compare them: an entity's id is its index plus its type's offset in
    `ENTITY_TYPES` order, and the action (relation, tail) has id
    `relation id * n_ids + tail id`, with relation ids indexing `RELATIONS`.
    `action` turns the id of an action of a built action set back into
    that set's `Action`, so decoded paths share the sets' tuples.
    """

    RELATIONS = (SELF_LOOP, *sorted(RELATION_SCHEMA))

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
        self._action_sets: dict[EntityRef, ActionSet] = {}
        self._action_sets_by_id: dict[int, ActionSet] = {}
        self._actions_by_id: dict[int, Action] = {}
        self._ends = list(itertools.accumulate(kg.n_entities(t) for t in ENTITY_TYPES))
        self._offset = dict(zip(ENTITY_TYPES, [0, *self._ends[:-1]]))
        self.n_ids = self._ends[-1]
        self._relation_id = {rel: i for i, rel in enumerate(self.RELATIONS)}
        # an action's row is [relation feature vector ; tail vector]: one row per
        # relation id, and one per entity id
        self._relation_rows = np.array([
            embeddings.feature_relation_vector(rel) for rel in self.RELATIONS
        ])
        self._entity_rows = np.concatenate([embeddings.entity[t] for t in ENTITY_TYPES])

    def entity_id(self, ref: EntityRef) -> int:
        if not self.kg.has_entity(ref):  # an index past its type's would alias another id
            raise KeyError(f"unknown entity: {ref}")
        return self._offset[ref.entity_type] + ref.index

    def entity(self, entity_id: int) -> EntityRef:
        etype = ENTITY_TYPES[bisect.bisect_right(self._ends, entity_id)]
        return EntityRef(etype, entity_id - self._offset[etype])

    def action(self, action_id: int) -> Action:
        return self._actions_by_id[action_id]

    def action_rows(self, action_ids: np.ndarray) -> np.ndarray:
        """The `ActionSet.matrix` rows of the given actions: one gather of
        relation rows and one of tail rows."""
        rel, tail = np.divmod(action_ids, self.n_ids)
        return np.concatenate([self._relation_rows[rel], self._entity_rows[tail]], axis=1)

    def course_index(self, entity_ids: np.ndarray) -> np.ndarray:
        """Each id's course index, or -1 where it is not a course."""
        index = entity_ids - self._offset["course"]
        return np.where((index >= 0) & (index < self.kg.n_entities("course")), index, -1)

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
        cached = self._action_sets_by_id
        return [cached.get(e) or self.action_set(self.entity(e)) for e in entity_ids]

    def action_set(self, entity: EntityRef) -> ActionSet:
        cached = self._action_sets.get(entity)
        if cached is not None:
            return cached
        edges = self.kg.neighbors(entity)
        kept = []
        if edges:
            scores = self.embeddings.score_edges(entity, edges)
            kept = [edges[i] for i in np.argsort(-scores, kind="stable")[: self.max_actions]]
        actions = ((SELF_LOOP, entity), *kept)
        offset = self._offset
        tails = np.array([offset[t.entity_type] + t.index for _rel, t in actions], dtype=np.intp)
        rels = np.array([self._relation_id[rel] for rel, _tail in actions], dtype=np.intp)
        ids = rels * self.n_ids + tails
        aset = ActionSet(
            actions, self.action_rows(ids), {a: i for i, a in enumerate(actions)}, ids, tails,
        )
        self._actions_by_id.update(zip(ids.tolist(), actions))
        self._action_sets[entity] = self._action_sets_by_id[int(tails[0])] = aset
        return aset

    def actions(self, state: EnvState) -> tuple[Action, ...]:
        """Self_loop first, then pruned outgoing edges by score descending."""
        return self.action_set(state.current).actions

    def step(self, state: EnvState, action: Action) -> EnvState:
        if state.hops_remaining < 1:
            raise ValueError("hop budget exhausted")
        if self.action_set(state.current).index.get(action) is None:
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
