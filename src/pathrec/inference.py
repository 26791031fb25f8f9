"""Top-N recommendation by beam search under the trained policy.

Candidates are ranked by accumulated path log-probability; each recommended
course carries its best explanation path. A learner whose list comes up
short of N is counted as invalid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .environment import Action, Path, PathEnv
from .errors import ConfigError, DataError, atomic_write, open_text
from .kg import KnowledgeGraph
# `policy_forward` is not called here, but it stays bound as `inference.policy_forward`:
# perfbench/tracing.py wraps that attribute by name.
from .policy import action_queries, policy_forward, state_features, step_features  # noqa: F401
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


def beam_search(
    learner: EntityRef,
    env: PathEnv,
    params: dict[str, np.ndarray],
    beam_widths: tuple[int, ...],
    hop_budget: int | None = None,
) -> list[tuple[Path, float]]:
    """All completed budget-length paths surviving per-level truncation.

    At level k each surviving prefix keeps its beam_widths[k] most probable
    actions (ties broken by action order, so runs are reproducible). The
    policy sees only the current entity and the history, so a level is
    expanded once per distinct (current, history) state: the states' hidden
    layers are one matrix product, and each state scores its action set and
    keeps its top actions once. Prefixes are index arrays (state, parent,
    kept slot) and the path log-probabilities a float64 array grown in the
    per-prefix order; hops are read back once, for the last level. The list
    is that of expanding every prefix on its own, in the same order, with
    the same paths; the scores agree with it to within rounding, not bit for
    bit, because the matrix product and the segment sums of the softmax add
    in another order than one state's `policy_forward` does.
    """
    if hop_budget is not None and len(beam_widths) != hop_budget:
        raise ConfigError(
            f"need one beam width per hop: got {len(beam_widths)} widths for {hop_budget} hops"
        )
    if any(w < 1 for w in beam_widths):
        raise ConfigError("beam widths must be >= 1")
    start = env.initial_state(learner, len(beam_widths))
    n_hist = env.history_len
    keys: list[tuple[EntityRef, tuple[Action, ...]]] = [(start.current, start.history)]
    features = state_features(start, env.embeddings, n_hist)[None, :]
    state_of = np.zeros(1, dtype=np.intp)  # each prefix's row in keys and features
    acc = np.zeros(1)
    levels = []  # per level: each prefix's parent prefix and kept slot, and the slots' hops
    for level, width in enumerate(beam_widths):
        # score every state's action set, as segments of one array of logits
        queries = action_queries(params, features)
        asets = [env.action_set(current) for current, _history in keys]
        logits = np.concatenate([aset.matrix @ q for aset, q in zip(asets, queries)])
        sizes = np.array([len(aset.actions) for aset in asets])
        seg_start = np.cumsum(sizes) - sizes
        seg = np.repeat(np.arange(len(asets)), sizes)
        shifted = logits - np.maximum.reduceat(logits, seg_start)[seg]
        log_probs = shifted - np.log(np.add.reduceat(np.exp(shifted), seg_start))[seg]
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
    prefix = np.arange(len(acc))
    columns = []
    for parent, slot, hops in reversed(levels):
        columns.append(list(map(hops.__getitem__, slot[prefix].tolist())))
        prefix = parent[prefix]
    paths = [Path(learner, hops) for hops in zip(*reversed(columns))]
    return list(zip(paths, acc.tolist()))


def rank_candidates(
    paths: list[tuple[Path, float]],
    learner: EntityRef,
    train_courses: frozenset[int],
    n: int = 10,
) -> RecommendationList:
    """Keep course-terminal paths to unseen courses; one item per course.

    A course's score is its best path's log-probability; ties in score break
    by course index. The list is truncated to n (shorter means invalid user).
    """
    best: dict[int, tuple[float, Path]] = {}
    for path, log_prob in paths:
        final = path.final_entity
        if final.entity_type != "course" or final.index in train_courses:
            continue
        seen = best.get(final.index)
        if seen is None or log_prob > seen[0]:
            best[final.index] = (log_prob, path)
    ranked = sorted(best.items(), key=lambda kv: (-kv[1][0], kv[0]))[:n]
    items = tuple(
        RecommendedItem(EntityRef("course", c), score, path) for c, (score, path) in ranked
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
        paths = beam_search(learner, env, params, beam_widths)
        rec = rank_candidates(paths, learner, train_sets.get(learner.index, frozenset()), n)
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


def load_recommendations(
    path: str, kg: KnowledgeGraph, n: int = 10
) -> dict[int, RecommendationList]:
    lists: dict[int, RecommendationList] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                learner = kg.entity("learner", obj["learner"])
                items = tuple(_item_from_json(learner, it, kg) for it in obj["items"])
            except (KeyError, ValueError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: malformed recommendation line: {exc}") from exc
            lists[learner.index] = RecommendationList(learner=learner, items=items, n=n)
    return lists
