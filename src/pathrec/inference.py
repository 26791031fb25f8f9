"""Top-N recommendation by beam search under the trained policy.

Candidates are ranked by accumulated path log-probability; each recommended
course carries its best explanation path. A learner whose list comes up
short of N is counted as invalid.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .environment import Action, Path, PathEnv
from .errors import ConfigError, DataError, atomic_write, open_text
from .kg import KnowledgeGraph
# `policy_forward` is not called here, but it stays bound as `inference.policy_forward`:
# perfbench/tracing.py wraps that attribute by name.
from .policy import hop_forward, policy_forward, start_features, step_features  # noqa: F401
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
    """The final prefixes of one beam search, as a sequence of (Path, score) pairs.

    A prefix is stored as back-pointers: each level holds every prefix's
    parent prefix and kept slot, and the kept slots' hops. `acc` holds the
    prefixes' path log-probabilities and `final_course` each prefix's
    terminal course index, or -1 where it ends on another entity type, so a
    ranker reads both without building a `Path`. `paths` builds the `Path`s
    of chosen prefixes; indexing and iteration go through it.
    """

    def __init__(
        self,
        learner: EntityRef,
        levels: list[tuple[np.ndarray, np.ndarray, list[Action]]],
        acc: np.ndarray,
    ):
        self.learner = learner
        self.levels = levels
        self.acc = acc
        _parent, slot, hops = levels[-1]
        slot_course = [ent.index if ent.entity_type == "course" else -1 for _rel, ent in hops]
        self.final_course = np.array(slot_course, dtype=np.intp)[slot]

    def __len__(self) -> int:
        return len(self.acc)

    def __getitem__(self, i: int) -> tuple[Path, float]:
        i = range(len(self.acc))[operator.index(i)]  # negative from the end; IndexError past it
        return self.paths([i])[0], float(self.acc[i])

    def __iter__(self) -> Iterator[tuple[Path, float]]:
        return zip(self.paths(np.arange(len(self.acc))), self.acc.tolist())

    def paths(self, indices) -> list[Path]:
        """The `Path`s of the given prefixes, walking the levels back column by column."""
        prefix = np.asarray(indices, dtype=np.intp)
        columns = []
        for parent, slot, hops in reversed(self.levels):
            columns.append(list(map(hops.__getitem__, slot[prefix].tolist())))
            prefix = parent[prefix]
        return [Path(self.learner, hops) for hops in zip(*reversed(columns))]


def beam_search(
    learner: EntityRef,
    env: PathEnv,
    params: dict[str, np.ndarray],
    beam_widths: tuple[int, ...],
) -> Beam:
    """All completed budget-length paths surviving per-level truncation.

    At level k each surviving prefix keeps its beam_widths[k] most probable
    actions (ties broken by action order, so runs are reproducible). The
    policy sees only the current entity and the history, so a level is
    expanded once per distinct (current, history) state: the states' hidden
    layers are one matrix product, and each state scores its action set and
    keeps its top actions once. Prefixes are index arrays (state, parent,
    kept slot) and the path log-probabilities a float64 array grown in the
    per-prefix order; the returned `Beam` keeps them and builds `Path`s on
    demand. As a sequence it is that of expanding every prefix on its own,
    in the same order, with the same paths; the scores agree with it to
    within rounding, not bit for bit, because the matrix product and the
    segment sums of the softmax add in another order than one state's
    `policy_forward` does.
    """
    if any(w < 1 for w in beam_widths):
        raise ConfigError("beam widths must be >= 1")
    env.initial_state(learner, len(beam_widths))  # rejects a non-learner start and no widths
    n_hist = env.history_len
    keys: list[tuple[EntityRef, tuple[Action, ...]]] = [(learner, ())]
    features = start_features(env.embeddings, learner, n_hist)[None, :]
    state_of = np.zeros(1, dtype=np.intp)  # each prefix's row in keys and features
    acc = np.zeros(1)
    levels = []  # per level: each prefix's parent prefix and kept slot, and the slots' hops
    for level, width in enumerate(beam_widths):
        # score every state's action set, as segments of one array of logits
        asets = [env.action_set(current) for current, _history in keys]
        hop = hop_forward(params, features, [aset.matrix for aset in asets])
        log_probs, sizes, seg_start, seg = hop.log_probs, hop.sizes, hop.starts, hop.seg
        # each state's top `width` rows: the sort keeps every state's rows in its
        # own segment, and lexsort is stable, so ties keep action order
        order = np.lexsort((-log_probs, seg))
        kept = order[np.arange(len(order)) - seg_start[seg] < width]
        kept_state = seg[kept]
        kept_action = kept - seg_start[kept_state]
        n_kept = np.minimum(sizes, width)
        offsets = np.cumsum(n_kept) - n_kept  # each state's first kept slot
        hops = [asets[s].actions[i] for s, i in zip(kept_state.tolist(), kept_action.tolist())]

        # every prefix grows by its state's kept actions, in prefix order
        n_grown = n_kept[state_of]
        parent = np.repeat(np.arange(len(state_of)), n_grown)
        block_start = np.cumsum(n_grown) - n_grown
        slot = np.repeat(offsets[state_of] - block_start, n_grown) + np.arange(len(parent))
        acc = acc[parent] + log_probs[kept][slot]
        levels.append((parent, slot, hops))
        if level + 1 == len(beam_widths):
            break

        # the child state each kept action enters; equal children are one state
        child_index: dict[tuple[EntityRef, tuple[Action, ...]], int] = {}
        child_of: list[int] = []
        first: list[int] = []  # child state -> the kept slot that first enters it
        for j, (s, action) in enumerate(zip(kept_state.tolist(), hops)):
            key = (action[1], (action, *keys[s][1])[:n_hist])
            c = child_index.get(key)
            if c is None:
                c = child_index[key] = len(first)
                first.append(j)
            child_of.append(c)
        state_of = np.asarray(child_of, dtype=np.intp)[slot]
        first_slot = np.asarray(first, dtype=np.intp)
        source = kept_state[first_slot]
        rows = np.array([
            asets[s].matrix[i] for s, i in zip(source.tolist(), kept_action[first_slot].tolist())
        ])
        self_loop = np.array([hops[j][0] == SELF_LOOP for j in first], dtype=bool)
        features = step_features(features[source], rows, self_loop, n_hist)
        keys = list(child_index)
    return Beam(learner, levels, acc)


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
    """Per-learner lists plus the fraction of learners with short lists."""
    lists: dict[int, RecommendationList] = {}
    invalid = 0
    for learner in learners:
        beam = beam_search(learner, env, params, beam_widths)
        rec = rank_candidates(beam, learner, train_sets.get(learner.index, frozenset()), n)
        lists[learner.index] = rec
        invalid += 0 if rec.is_valid else 1
    return lists, invalid / len(learners) if learners else 0.0


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
