"""Top-N recommendation by beam search under the trained policy.

Candidates are ranked by accumulated path log-probability; each recommended
course carries its best explanation path. A learner whose list comes up
short of N is counted as invalid.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .environment import Action, Path, PathEnv
from .errors import ConfigError, DataError, atomic_write, check_count, open_text
from .kg import KnowledgeGraph
from .policy import FirstLayer, first_layer_tables, hop_from_preactivation, start_keys, step_keys
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
    parent prefix and the integer id of its last hop, which `decode` turns
    back into `Action`s, one call per level. A search over a block of
    learners shares its levels between their beams; this learner's final
    prefixes are those from `first` on in the last level. `acc` holds their
    path log-probabilities and `final_course` their terminal course index,
    or -1 where a prefix ends on another entity type, so a ranker reads both
    without building a `Path`. `paths` builds the `Path`s of chosen
    prefixes; iteration goes through it.
    """

    def __init__(
        self,
        learner: EntityRef,
        levels: list[tuple[np.ndarray, np.ndarray]],
        decode: Callable[[np.ndarray], Sequence[Action]],
        acc: np.ndarray,
        final_course: np.ndarray,
        first: int,
    ):
        self.learner = learner
        self.levels = levels
        self.decode = decode
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
            columns.append(self.decode(hop[prefix]))
            prefix = parent[prefix]
        return [Path(self.learner, hops) for hops in zip(*reversed(columns))]


def _expand(
    params: dict[str, np.ndarray], pre: np.ndarray, env: PathEnv, heads: np.ndarray,
    runs: np.ndarray, width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score a level's states from their first-layer pre-activations `pre`,
    run r of runs[r] states on `env`'s entity of id heads[r], and keep each
    state's `width` most probable actions, best first.

    Returns each state's number of kept actions, and each kept action's state,
    action id and log-probability. The states' -log_probs are sorted in rows
    padded with +inf; the sort is stable, so ties keep action order.
    """
    hop = hop_from_preactivation(params, pre, [env.act_matrices[e] for e in heads.tolist()], runs)
    sizes, starts, seg = hop.sizes, hop.starts, hop.seg
    padded = np.full((len(sizes), sizes.max()), np.inf)
    padded[seg, np.arange(len(seg)) - starts[seg]] = -hop.log_probs
    top = np.argsort(padded, axis=1, kind="stable")[:, :width]
    n_kept = np.minimum(sizes, width)
    kept_state = np.repeat(np.arange(len(sizes)), n_kept)
    kept_slot = top[np.arange(top.shape[1]) < n_kept[:, None]]
    kept_id = env.act_ids[np.repeat(env.act_ptr[heads], runs)[kept_state] + kept_slot]
    return n_kept, kept_state, kept_id, hop.log_probs[starts[kept_state] + kept_slot]


def _child_states(
    key: np.ndarray, kept_state: np.ndarray, kept_id: np.ndarray, n_ids: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The states the kept actions enter: each kept action's child state, and
    the children's key rows.

    Equal keys are one state, and sorting the keys puts the children in
    entity order.
    """
    child = step_keys(key[kept_state], kept_id, n_ids)
    order = np.lexsort(child.T[::-1])
    child = child[order]
    new = np.concatenate(([True], (child[1:] != child[:-1]).any(axis=1)))
    child_of = np.empty(len(order), dtype=np.intp)
    child_of[order] = np.cumsum(new) - 1
    return child_of, child[new]


# The bytes one level-synchronous search in `recommend_all` may hold. A
# block keeps two back-pointers per prefix until it is ranked, and takes as
# many bytes again in the prefix-length arrays (scores, states, slots) that
# grow a level; a state of its widest level holds its pre-activation row, the
# table row gathered into it, and its query. Blocks are sized from the bytes
# per learner that the block before held, so after the first few the
# hidden-64 shapes get 10-13 learners a block on `deep` and up to 28-31 on
# `desk`, and PGPR width (hidden 512) 5-7. One warm `recommend_all` on the
# seed-0 benchmark graph peaks under tracemalloc, with its `FirstLayer` tables
# (1.6 MB at PGPR width, 0.2 MB on the others), at 2.7 MB on `desk`, 4.3 MB on
# `paper-width` and 3.0 MB on `deep`: 2.1, 0.9 and 1.8 MB above blocks of four.
SEARCH_BUDGET_BYTES = 3_000_000


def search_block(
    learners: list[EntityRef],
    env: PathEnv,
    params: dict[str, np.ndarray],
    beam_widths: tuple[int, ...],
    tables: FirstLayer,
) -> tuple[list[Beam], int]:
    """Each learner's `beam_search`, run level-synchronously over all of them,
    with `tables` the `first_layer_tables` of `params` over `env`, and the
    number of states of the widest level.

    At level k each surviving prefix keeps its beam_widths[k] most probable
    actions (ties broken by action order, so runs are reproducible). The
    policy sees only the learner, the current entity and the history, so a
    level is expanded once per distinct (entity, learner, history) state.
    States are integer rows (entity id, learner index, the last H action
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
    if not beam_widths:
        raise ConfigError("beam search needs at least one width")
    for width in beam_widths:
        check_count(width, "beam width")
    if not learners:
        return [], 0
    key = start_keys(env, learners)  # the rows are kept sorted
    order = np.lexsort(key.T[::-1])
    key = key[order]
    state_of = np.argsort(order)  # each prefix's state; prefix b is learner b's
    acc = np.zeros(len(learners))
    levels = []  # per level: each prefix's parent prefix and last hop's action id
    n_states = 0
    for level, width in enumerate(beam_widths):
        n_states = max(n_states, len(key))
        entity = key[:, 0]
        heads, runs = np.unique(entity, return_counts=True)  # the keys are sorted
        # the pre-activations become the hidden layers, freed when `_expand` returns
        n_kept, kept_state, kept_id, kept_lp = _expand(
            params, tables.preactivations(key[:, 1], entity, key[:, 2:]), env, heads, runs, width
        )

        # every prefix grows by its state's kept actions, in prefix order
        offsets = np.cumsum(n_kept) - n_kept  # each state's first kept action
        n_grown = n_kept[state_of]
        parent = np.repeat(np.arange(len(state_of)), n_grown)
        slot = np.repeat(offsets[state_of] - (np.cumsum(n_grown) - n_grown), n_grown)
        slot += np.arange(len(parent))
        acc = acc[parent]
        acc += kept_lp[slot]
        levels.append((parent, kept_id[slot]))
        if level + 1 == len(beam_widths):
            break

        child_of, key = _child_states(key, kept_state, kept_id, env.kg.n_ids)
        state_of = child_of[slot]
        del n_grown, slot, kept_state, kept_id, kept_lp, child_of  # not held through the next level

    final_course = env.kg.course_index(levels[-1][1] % env.kg.n_ids)
    # prefixes are learner-major: learner b's are those of its level-0 prefix b
    owner = np.arange(len(learners))
    for parent, _hop in levels:
        owner = owner[parent]
    bounds = np.searchsorted(owner, np.arange(len(learners) + 1)).tolist()
    beams = [
        Beam(u, levels, env.kg.decode, acc[a:b], final_course[a:b], a)
        for u, a, b in zip(learners, bounds, bounds[1:])
    ]
    return beams, n_states


def beam_search(
    learner: EntityRef,
    env: PathEnv,
    params: dict[str, np.ndarray],
    beam_widths: tuple[int, ...],
) -> Beam:
    """All completed budget-length paths surviving per-level truncation: the
    one-learner case of `search_block`."""
    (beam,), _n_states = search_block(
        [learner], env, params, beam_widths, first_layer_tables(params, env)
    )
    return beam


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
    check_count(n, "list length n")
    # by course index, whether a path may end there; a prefix off a course reads
    # index -1, the spare last slot, which no course index reaches
    seen = list(train_courses)
    unseen = np.ones(max(beam.final_course.max(initial=-1), *seen, -1) + 2, dtype=bool)
    unseen[seen] = False
    unseen[-1] = False
    prefix = np.flatnonzero(unseen[beam.final_course])
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

    The learners are searched in blocks, all from one `first_layer_tables`,
    and each block's beams are ranked and released before the next block
    starts. The first block is one learner; each next one is as many as fit
    `SEARCH_BUDGET_BYTES` at the bytes per learner its predecessor held, and
    at most four times as many, so that a light learner cannot size a heavy
    block.
    """
    check_count(n, "list length n")
    tables = first_layer_tables(params, env)
    state_bytes = 8 * (2 * len(params["proj"]) + params["proj"].shape[1])
    recs: list[RecommendationList] = []
    start, size = 0, 1
    while start < len(learners):
        block = learners[start : start + size]
        beams, n_states = search_block(block, env, params, beam_widths, tables)
        levels = sum(parent.nbytes + hop.nbytes for parent, hop in beams[0].levels)
        held = 2 * levels + n_states * state_bytes  # as SEARCH_BUDGET_BYTES counts them
        recs += [
            rank_candidates(beam, u, train_sets.get(u.index, frozenset()), n)
            for u, beam in zip(block, beams)
        ]
        del beams  # released before the next block is searched
        start += len(block)
        size = max(1, min(SEARCH_BUDGET_BYTES * len(block) // held, 4 * len(block)))
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
