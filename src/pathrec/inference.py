"""Top-N recommendation by beam search under the trained policy.

Candidates are ranked by accumulated path log-probability; each recommended
course carries its best explanation path. A learner whose list comes up
short of N is counted as invalid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .environment import Action, EnvState, Path, PathEnv
from .errors import ConfigError, DataError, open_text
from .kg import KnowledgeGraph
from .policy import policy_forward, state_features
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
    policy sees only the current entity and the history, so the prefixes of
    a level that stand in the same state share one expansion: its action
    set, features, forward pass, top actions and child states are computed
    once, for the first such prefix. Prefixes are still grown in order, so
    the list and its floats are those of expanding every prefix on its own.
    """
    if hop_budget is not None and len(beam_widths) != hop_budget:
        raise ConfigError(
            f"need one beam width per hop: got {len(beam_widths)} widths for {hop_budget} hops"
        )
    if any(w < 1 for w in beam_widths):
        raise ConfigError("beam widths must be >= 1")
    beams = [(env.initial_state(learner, len(beam_widths)), (), 0.0)]
    for width in beam_widths:
        expansions: dict[tuple, list[tuple[EnvState, Action, float]]] = {}
        grown = []
        for state, hops, acc in beams:
            key = (state.current, state.history)
            children = expansions.get(key)
            if children is None:
                aset = env.action_set(state.current)
                x = state_features(state, env.embeddings, env.history_len)
                _probs, logp, _h, _b = policy_forward(params, x, aset.matrix)
                top = np.argsort(-logp, kind="stable")[:width]
                children = [
                    (env.step(state, aset.actions[i]), aset.actions[i], float(logp[i]))
                    for i in top
                ]
                expansions[key] = children
            for child, action, lp in children:
                grown.append((child, (*hops, action), acc + lp))
        beams = grown
    return [(Path(learner, hops), acc) for _state, hops, acc in beams]


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
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
                items = tuple(
                    RecommendedItem(
                        course=kg.entity("course", it["course"]),
                        score=float(it["score"]),
                        best_path=_path_from_json(learner, it.get("path", []), kg),
                    )
                    for it in obj["items"]
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: malformed recommendation line") from exc
            lists[learner.index] = RecommendationList(learner=learner, items=items, n=n)
    return lists
