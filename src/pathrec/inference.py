"""Top-N recommendation by beam search under the trained policy.

Candidates are ranked by accumulated path log-probability; each recommended
course carries its best explanation path. A learner whose list comes up
short of N is counted as invalid.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .environment import Action, ActionSet, Path, PathEnv
from .errors import ConfigError, DataError, atomic_write, open_text
from .kg import KnowledgeGraph
from .policy import FirstLayer, first_layer_tables, hop_from_preactivation
# `policy_forward` is not called here, but it stays bound as `inference.policy_forward`:
# perfbench/tracing.py wraps that attribute by name.
from .policy import policy_forward  # noqa: F401
from .schema import SELF_LOOP, EntityRef, relation_types

DEFAULT_BEAM_WIDTHS = {3: (25, 5, 1), 4: (25, 5, 5, 1), 5: (25, 5, 5, 5, 1)}


@dataclass(frozen=True)
class RecommendedItem:
    course: EntityRef
    score: float
    best_path: Path | None


@dataclass(frozen=True)
class RecommendationList:
    learner: EntityRef
    items: tuple[RecommendedItem, ...]
    n: int

    @property
    def is_valid(self) -> bool:
        return len(self.items) >= self.n

    def courses(self) -> list[EntityRef]:
        return [item.course for item in self.items]


class Beam:
    """The final prefixes of one learner's beam search, as a sequence of (Path, score) pairs.

    A prefix is stored as back-pointers: each level holds every prefix's
    parent prefix and the integer id of its last hop, which `action_of` turns
    back into an `Action`. A search over a block of learners shares its
    levels between their beams; this learner's final prefixes are those from
    `first` on in the last level. `acc` holds their path log-probabilities
    and `final_course` their terminal course index, or -1 where a prefix ends
    on another entity type, so a ranker reads both without building a
    `Path`. `paths` builds the `Path`s of chosen prefixes; iteration goes
    through it.
    """

    def __init__(
        self,
        learner: EntityRef,
        levels: list[tuple[np.ndarray, np.ndarray]],
        action_of: Callable[[int], Action],
        acc: np.ndarray,
        final_course: np.ndarray,
        first: int,
    ):
        self.learner = learner
        self.levels = levels
        self.action_of = action_of
        self.acc = acc
        self.final_course = final_course
        self.first = first

    def __len__(self) -> int:
        return len(self.acc)

    def __iter__(self) -> Iterator[tuple[Path, float]]:
        return zip(self.paths(np.arange(len(self.acc))), self.acc.tolist())

    def paths(self, indices) -> list[Path]:
        """The `Path`s of the given prefixes, walking the levels back column by column."""
        prefix = self.first + np.asarray(indices, dtype=np.intp)
        columns = []
        for parent, hop in reversed(self.levels):
            columns.append(list(map(self.action_of, hop[prefix].tolist())))
            prefix = parent[prefix]
        return [Path(self.learner, hops) for hops in zip(*reversed(columns))]


def _expand(
    params: dict[str, np.ndarray], pre: np.ndarray, asets: list[ActionSet],
    runs: np.ndarray, width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score a level's states from their first-layer pre-activations `pre`,
    run r of runs[r] states over asets[r], and keep each state's `width` most
    probable actions, best first.

    Returns each state's number of kept actions, and each kept action's state,
    slot in its action set and log-probability. The states' -log_probs are
    sorted in rows padded with +inf; the sort is stable, so ties keep action
    order.
    """
    hop = hop_from_preactivation(params, pre, [aset.matrix for aset in asets], runs)
    sizes, starts, seg = hop.sizes, hop.starts, hop.seg
    padded = np.full((len(sizes), sizes.max()), np.inf)
    padded[seg, np.arange(len(seg)) - starts[seg]] = -hop.log_probs
    top = np.argsort(padded, axis=1, kind="stable")[:, :width]
    n_kept = np.minimum(sizes, width)
    kept_state = np.repeat(np.arange(len(sizes)), n_kept)
    kept_slot = top[np.arange(top.shape[1]) < n_kept[:, None]]
    return n_kept, kept_state, kept_slot, hop.log_probs[starts[kept_state] + kept_slot]


def _child_states(
    key: np.ndarray, kept_state: np.ndarray, kept_id: np.ndarray, n_ids: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The states the kept actions enter: each kept action's child state, and
    the children's key rows.

    Equal keys are one state, and sorting the keys puts the children in
    entity order.
    """
    tail = kept_id % n_ids
    child = np.column_stack([tail, key[kept_state, 1], kept_id, key[kept_state, 2:-1]])
    child = child[:, : key.shape[1]]
    order = np.lexsort(child.T[::-1])
    child = child[order]
    new = np.concatenate(([True], (child[1:] != child[:-1]).any(axis=1)))
    child_of = np.empty(len(order), dtype=np.intp)
    child_of[order] = np.cumsum(new) - 1
    return child_of, child[new]


# learners per level-synchronous search in `recommend_all`. A block's levels
# are held until it is ranked, and a level's hidden layers (4 KB a state at
# PGPR width) at once, so the block size bounds the search's memory: at 4,
# its tracemalloc peak on the benchmark workloads is at most 1.2 MB above
# that of searching one learner at a time. The `FirstLayer` tables add a
# constant to both, 1.6 MB at PGPR width.
BLOCK_LEARNERS = 4


def search_block(
    learners: list[EntityRef],
    env: PathEnv,
    params: dict[str, np.ndarray],
    beam_widths: tuple[int, ...],
    tables: FirstLayer,
) -> list[Beam]:
    """Each learner's `beam_search`, run level-synchronously over all of them,
    with `tables` the `first_layer_tables` of `params` over `env`.

    At level k each surviving prefix keeps its beam_widths[k] most probable
    actions (ties broken by action order, so runs are reproducible). The
    policy sees only the learner, the current entity and the history, so a
    level is expanded once per distinct (entity, learner, history) state.
    States are integer rows (entity id, learner position, the last H action
    ids), kept in entity order. A state's first-layer pre-activation is read
    off its key row from `tables`, and the states on one entity form a run
    that `hop_from_preactivation` scores with one product against the
    entity's action matrix.
    Each state keeps its top actions once, and every prefix grows by its
    state's kept actions, in prefix order. Prefixes are learner-major, so
    each learner's `Beam` is a contiguous view of the block's levels. As a
    sequence it is that of expanding each of the learner's prefixes on its
    own, in the same order, with the same paths; the scores agree with it to
    within rounding, not bit for bit, because the tables, the matrix products
    and the segment sums of the softmax add in another order than one state's
    `policy_forward` does.
    """
    if any(w < 1 for w in beam_widths):
        raise ConfigError("beam widths must be >= 1")
    for learner in learners:
        env.initial_state(learner, len(beam_widths))  # rejects a non-learner and no widths
    if not learners:
        return []
    # each state's key row: entity id, learner position, the last H action ids
    # (-1 before the first hop); the rows are kept sorted
    key = np.full((len(learners), 2 + env.history_len), -1, dtype=np.intp)
    key[:, 0] = [env.kg.entity_id(u) for u in learners]
    key[:, 1] = np.arange(len(learners))
    order = np.lexsort(key.T[::-1])
    key = key[order]
    learner_index = np.array([u.index for u in learners])
    state_of = np.argsort(order)  # each prefix's state; prefix b is learner b's
    acc = np.zeros(len(learners))
    levels = []  # per level: each prefix's parent prefix and last hop's action id
    for level, width in enumerate(beam_widths):
        entity = key[:, 0]
        run_start = np.flatnonzero(np.concatenate(([True], entity[1:] != entity[:-1])))
        runs = np.concatenate((run_start[1:], [len(entity)])) - run_start
        asets = env.action_sets(entity[run_start].tolist())
        pre = tables.preactivations(learner_index[key[:, 1]], entity, key[:, 2:])
        n_kept, kept_state, kept_slot, kept_lp = _expand(params, pre, asets, runs, width)
        # the kept actions' ids, gathered from the runs' action sets
        set_sizes = np.array([len(aset.actions) for aset in asets])
        at = np.repeat(np.cumsum(set_sizes) - set_sizes, runs)[kept_state] + kept_slot
        kept_id = np.concatenate([aset.action_ids for aset in asets])[at]

        # every prefix grows by its state's kept actions, in prefix order
        offsets = np.cumsum(n_kept) - n_kept  # each state's first kept action
        n_grown = n_kept[state_of]
        parent = np.repeat(np.arange(len(state_of)), n_grown)
        slot = np.repeat(offsets[state_of] - (np.cumsum(n_grown) - n_grown), n_grown)
        slot += np.arange(len(parent))
        acc = acc[parent] + kept_lp[slot]
        levels.append((parent, kept_id[slot]))
        if level + 1 == len(beam_widths):
            break

        child_of, key = _child_states(key, kept_state, kept_id, env.kg.n_ids)
        state_of = child_of[slot]

    final_course = env.kg.course_index(kept_id[slot] % env.kg.n_ids)
    # prefixes are learner-major: learner b's are those of its level-0 prefix b
    owner = np.arange(len(learners))
    for parent, _hop in levels:
        owner = owner[parent]
    bounds = np.searchsorted(owner, np.arange(len(learners) + 1)).tolist()
    return [
        Beam(u, levels, env.action, acc[a:b], final_course[a:b], a)
        for u, a, b in zip(learners, bounds, bounds[1:])
    ]


def beam_search(
    learner: EntityRef,
    env: PathEnv,
    params: dict[str, np.ndarray],
    beam_widths: tuple[int, ...],
) -> Beam:
    """All completed budget-length paths surviving per-level truncation: the
    one-learner case of `search_block`."""
    return search_block([learner], env, params, beam_widths, first_layer_tables(params, env))[0]


def _check_n(n) -> None:
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
        raise ConfigError(f"list length n must be an integer >= 1, got {n!r}")


def rank_candidates(
    beam: Beam,
    learner: EntityRef,
    train_courses: frozenset[int],
    n: int = 10,
) -> RecommendationList:
    """Keep course-terminal paths to unseen courses; one item per course.

    A course's score is its best path's log-probability, and of equal best
    paths the earlier prefix explains it; ties in score break by course
    index. The list is truncated to n (shorter means invalid user), and
    `Path`s are built only for the listed items.
    """
    _check_n(n)
    prefix = np.flatnonzero(
        (beam.final_course >= 0) & ~np.isin(beam.final_course, list(train_courses))
    )
    course, score = beam.final_course[prefix], beam.acc[prefix]
    # sorted by course, falling score and prefix, each course's run starts with its best
    # prefix; of equal scores the earlier prefix, as a strictly-greater update would keep
    order = np.lexsort((prefix, -score, course))
    best = order[np.flatnonzero(np.diff(course[order], prepend=-1))]
    top = best[np.lexsort((course[best], -score[best]))][:n]
    items = tuple(
        RecommendedItem(EntityRef("course", c), s, path)
        for c, s, path in zip(course[top].tolist(), score[top].tolist(), beam.paths(prefix[top]))
    )
    return RecommendationList(learner=learner, items=items, n=n)


def recommend_all(
    learners: list[EntityRef],
    env: PathEnv,
    params: dict[str, np.ndarray],
    train_sets: dict[int, frozenset[int]],
    beam_widths: tuple[int, ...],
    n: int = 10,
) -> tuple[dict[int, RecommendationList], float]:
    """Per-learner lists plus the fraction of learners with short lists.

    The learners are searched in blocks of `BLOCK_LEARNERS`, all from one
    `first_layer_tables`, and each block's beams are ranked and released
    before the next block starts.
    """
    _check_n(n)
    tables = first_layer_tables(params, env)
    recs: list[RecommendationList] = []
    for start in range(0, len(learners), BLOCK_LEARNERS):
        block = learners[start : start + BLOCK_LEARNERS]
        recs += [
            rank_candidates(beam, u, train_sets.get(u.index, frozenset()), n)
            for u, beam in zip(block, search_block(block, env, params, beam_widths, tables))
        ]
    invalid = sum(1 for rec in recs if not rec.is_valid)
    return {rec.learner.index: rec for rec in recs}, invalid / len(learners) if learners else 0.0


# -- recommendation file I/O ----------------------------------------------


def write_recommendations(
    lists: dict[int, RecommendationList], kg: KnowledgeGraph, path: str
) -> None:
    """One JSON object per line, in learner-index order."""
    with atomic_write(path) as fh:
        for learner_idx in sorted(lists):
            rec = lists[learner_idx]
            obj = {
                "learner": kg.raw_id(rec.learner),
                "items": [
                    {
                        "course": kg.raw_id(item.course),
                        "score": item.score,
                        "path": [
                            {"relation": rel, "entity": kg.raw_id(ent)}
                            for rel, ent in (item.best_path.hops if item.best_path else ())
                        ],
                    }
                    for item in rec.items
                ],
            }
            fh.write(json.dumps(obj) + "\n")


def _path_from_json(learner: EntityRef, hops_json: list[dict], kg: KnowledgeGraph) -> Path | None:
    if not hops_json:
        return None
    hops = []
    current_type = learner.entity_type
    for hop in hops_json:
        rel = hop["relation"]
        current_type = current_type if rel == SELF_LOOP else relation_types(rel)[1]
        hops.append((rel, kg.entity(current_type, hop["entity"])))
    return Path(learner, tuple(hops))


def _item_from_json(learner: EntityRef, item_json: dict, kg: KnowledgeGraph) -> RecommendedItem:
    course = kg.entity("course", item_json["course"])
    score = float(item_json["score"])
    if not math.isfinite(score):
        raise ValueError(f"score {score} is not finite")
    best_path = _path_from_json(learner, item_json.get("path", []), kg)
    if best_path is not None and best_path.final_entity != course:
        raise ValueError(f"path ends at {best_path.final_entity}, not at the item's course")
    return RecommendedItem(course=course, score=score, best_path=best_path)


def _check_ranked(items: tuple[RecommendedItem, ...], kg: KnowledgeGraph) -> None:
    """A saved list names each course once, with scores that never rise."""
    seen: set[EntityRef] = set()
    for prev, item in zip((None, *items), items):
        if item.course in seen:
            raise ValueError(f"course {kg.raw_id(item.course)} is listed twice")
        if prev is not None and item.score > prev.score:
            raise ValueError(f"score {item.score} rises above the previous item's {prev.score}")
        seen.add(item.course)


def load_recommendations(
    path: str, kg: KnowledgeGraph, n: int = 10
) -> dict[int, RecommendationList]:
    lists: dict[int, RecommendationList] = {}
    line_of: dict[int, int] = {}  # learner index -> the line that listed it
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                learner = kg.entity("learner", obj["learner"])
                if learner.index in line_of:
                    first = line_of[learner.index]
                    raise ValueError(f"learner {obj['learner']} is already listed on line {first}")
                items = tuple(_item_from_json(learner, it, kg) for it in obj["items"])
                _check_ranked(items, kg)
            except (KeyError, ValueError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: malformed recommendation line: {exc}") from exc
            line_of[learner.index] = lineno
            lists[learner.index] = RecommendationList(learner=learner, items=items, n=n)
    return lists
