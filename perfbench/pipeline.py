"""One pass of the paper pipeline through pathrec's public functions.

The pass is the library equivalent of `pathrec run-all` for one seed: it
starts from the workload's TSV files and ends with metrics, baselines and a
path-pattern report, with every artifact saved and loaded back on the way.
Each stage runs inside a named span of a `Recorder`; the spans cost a few
clock reads per pass, so they stay on in the untraced runs too.
`check_outputs` is run after the timed body, never inside it.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import pathrec as pr
from pathrec.cli import TSV_NAMES
from pathrec.inference import load_recommendations, write_recommendations
from pathrec.kg import load_split, save_split

from .workloads import (
    K, MF_EPOCHS, MF_FACTORS, MF_LEARNING_RATE, MIN_ENROLLMENTS, SPLIT_RATIOS, Workload,
)


RELATION_OF_FILE = {name: rel for rel, name in TSV_NAMES.items()}


@dataclass
class Span:
    name: str
    parent: int  # index into Recorder.spans, -1 for a root span
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans and wrapped calls

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans with parent links, plus the call aggregates tracing adds.

    `stack` holds one `[span index, child seconds]` frame per open span or
    wrapped call; the bottom frame stands for "outside any span". Wrapped
    calls add `[count, seconds, self seconds]` into `calls`, keyed by
    (enclosing span index, call name), and observed quantities into `counts`.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[list] = [[-1, 0.0]]
        self.calls: dict[tuple[int, str], list] = {}
        self.counts: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        span = Span(name, self.stack[-1][0], time.perf_counter())
        self.spans.append(span)
        frame = [idx, 0.0]
        self.stack.append(frame)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            span.child_s = frame[1]
            self.stack[-1][1] += span.seconds

    def seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)


@dataclass
class Artifacts:
    """Everything the output checks need from one pass."""

    graph: object
    graph_loaded: object
    split: object
    split_loaded: object
    train_graph: object
    table: object
    table_loaded: object
    emb_cfg: object
    emb_cfg_loaded: object
    params: dict
    params_loaded: dict
    agent_cfg: object
    agent_cfg_loaded: object
    d_loaded: int
    lists: dict
    lists_loaded: dict


@dataclass
class PassResult:
    seconds: float  # wall time of the timed body
    stage_s: dict[str, float]
    ndcg: float
    invalid_pct: float
    pop_ndcg: float
    mf_ndcg: float
    final_reward: float
    n_triples: int  # forward triples of the training graph
    n_learners: int
    n_episodes: int  # over all agent epochs
    n_patterns: int
    artifacts: Artifacts


STAGES = (
    "kg.ingest", "kg.split", "kg.io",
    "embeddings.train", "embeddings.io",
    "policy.train", "policy.io",
    "inference.recommend", "inference.io",
    "metrics.evaluate", "metrics.pop", "metrics.mf",
    "patterns.report",
)


def run_pass(
    w: Workload, seed: int, files: dict[str, str], workdir: str, rec: Recorder
) -> PassResult:
    """Run the pipeline once on the given TSVs; artifacts go to `workdir`."""
    emb_cfg = pr.EmbedConfig(seed=seed, **w.embed)
    agent_cfg = pr.AgentConfig(seed=seed, **w.agent)
    out = {name: os.path.join(workdir, name) for name in (
        "graph.kg", "split.tsv", "embeddings.emb", "policy.pol", "recommendations.jsonl",
    )}
    with rec.span("pipeline") as body:
        with rec.span("kg.ingest"):
            graph = pr.filter_learners(pr.ingest(files), MIN_ENROLLMENTS)
        with rec.span("kg.split"):
            split = pr.split_enrollments(graph, SPLIT_RATIOS, seed)
            train_graph = pr.training_graph(graph, split)
        with rec.span("kg.io"):
            pr.save_graph(graph, out["graph.kg"])
            save_split(split, graph, out["split.tsv"])
            graph_l = pr.load_graph(out["graph.kg"])
            split_l = load_split(out["split.tsv"], graph_l, seed=seed, ratios=SPLIT_RATIOS)

        with rec.span("embeddings.train"):
            table, _losses = pr.train_embeddings(train_graph, emb_cfg)
        with rec.span("embeddings.io"):
            pr.save_embeddings(table, out["embeddings.emb"], emb_cfg)
            table_l, emb_cfg_l = pr.load_embeddings(out["embeddings.emb"])

        train_sets = split_l.train_course_sets()
        with rec.span("policy.train"):
            spec = pr.RewardSpec(mode="binary", train_enrollments=train_sets)
            params, log = pr.train_agent(train_graph, table_l, agent_cfg, spec)
        with rec.span("policy.io"):
            pr.save_policy(params, out["policy.pol"], agent_cfg, table_l.d)
            params_l, agent_cfg_l, d_l = pr.load_policy(out["policy.pol"])

        with rec.span("inference.recommend"):
            env = pr.PathEnv(train_graph, table_l, agent_cfg_l.max_actions, agent_cfg_l.history)
            lists, invalid = pr.recommend_all(
                train_graph.learners(), env, params_l, train_sets, w.widths, n=K
            )
        with rec.span("inference.io"):
            write_recommendations(lists, graph_l, out["recommendations.jsonl"])
            lists_l = load_recommendations(out["recommendations.jsonl"], graph_l, n=K)

        n_courses = graph_l.n_entities("course")
        with rec.span("metrics.evaluate"):
            run = pr.evaluate(lists_l, split_l, K)
        with rec.span("metrics.pop"):
            pop = pr.evaluate(pr.pop_lists(split_l, n_courses, K), split_l, K)
        with rec.span("metrics.mf"):
            ranked = pr.mf_baseline(
                split_l, n_courses, MF_FACTORS, MF_EPOCHS, MF_LEARNING_RATE,
                seed=seed, k=K,
            )
            mf = pr.evaluate(ranked, split_l, K)
        with rec.span("patterns.report"):
            paths = [
                item.best_path
                for learner_idx, courses in sorted(split_l.test.items())
                if courses and learner_idx in lists_l
                for item in lists_l[learner_idx].items
                if item.best_path is not None
            ]
            rows = pr.frequency_report(paths)

    n_learners = len(train_graph.learners())
    return PassResult(
        seconds=body.seconds,
        stage_s={name: rec.seconds(name) for name in STAGES},
        ndcg=run.ndcg,
        invalid_pct=invalid * 100.0,
        pop_ndcg=pop.ndcg,
        mf_ndcg=mf.ndcg,
        final_reward=log.mean_reward[-1] if log.mean_reward else 0.0,
        n_triples=sum(len(pairs) for pairs in train_graph.edges.values()),
        n_learners=n_learners,
        n_episodes=agent_cfg.epochs * n_learners * agent_cfg.episodes_per_learner,
        n_patterns=len(rows),
        artifacts=Artifacts(
            graph, graph_l, split, split_l, train_graph, table, table_l, emb_cfg, emb_cfg_l,
            params, params_l, agent_cfg, agent_cfg_l, d_l, lists, lists_l,
        ),
    )


# -- output checks ------------------------------------------------------------


def _f32(a: np.ndarray) -> np.ndarray:
    return a.astype("<f4").astype(np.float64)


def check_recommendations(lists: dict, train_graph, train_sets: dict, k: int) -> list[str]:
    """Problems with the lists: paths, seen courses, duplicates, score order."""
    problems = []
    for learner in train_graph.learners():
        if learner.index not in lists:
            problems.append(f"learner {learner.index}: no list")
    for learner_idx, rec in sorted(lists.items()):
        where = f"learner {learner_idx}"
        if rec.learner.index != learner_idx or len(rec.items) > k:
            problems.append(f"{where}: list keyed or sized wrongly")
        seen: set[int] = set()
        previous = math.inf
        for rank, item in enumerate(rec.items, start=1):
            at = f"{where} rank {rank}"
            path = item.best_path
            if path is None:
                problems.append(f"{at}: no explanation path")
            elif path.start != rec.learner or path.final_entity != item.course:
                problems.append(f"{at}: path does not run from the learner to the course")
            elif not path.is_valid_in(train_graph):
                problems.append(f"{at}: path is not a walk in the training graph")
            if item.course.entity_type != "course":
                problems.append(f"{at}: item is not a course")
            if item.course.index in train_sets.get(learner_idx, frozenset()):
                problems.append(f"{at}: course is in the learner's train set")
            if item.course.index in seen:
                problems.append(f"{at}: duplicate course")
            seen.add(item.course.index)
            if not item.score <= previous:
                problems.append(f"{at}: score increases down the list")
            previous = item.score
    return problems


def check_round_trips(a: Artifacts) -> list[str]:
    """Problems with save -> load: each artifact must come back equal."""
    problems = []
    if a.graph_loaded != a.graph:
        problems.append("graph changed in its round trip")
    for part in ("train", "validation", "test"):
        if getattr(a.split_loaded, part) != getattr(a.split, part):
            problems.append(f"split {part} changed in its round trip")
    loaded = {**a.table_loaded.entity, **a.table_loaded.relation}
    trained = {**a.table.entity, **a.table.relation}
    tables_equal = (
        a.emb_cfg_loaded == a.emb_cfg
        and loaded.keys() == trained.keys()
        and all(np.array_equal(loaded[k], _f32(v)) for k, v in trained.items())
    )
    if not tables_equal:
        problems.append("embeddings differ from their f32 form after the round trip")
    policy_equal = (
        a.agent_cfg_loaded == a.agent_cfg
        and a.d_loaded == a.table.d
        and a.params_loaded.keys() == a.params.keys()
        and all(np.array_equal(a.params_loaded[k], _f32(v)) for k, v in a.params.items())
    )
    if not policy_equal:
        problems.append("policy differs from its f32 form after the round trip")
    if a.lists_loaded != a.lists:
        problems.append("recommendations changed in their round trip")
    return problems


def check_outputs(result: PassResult) -> list[str]:
    a = result.artifacts
    train_sets = a.split.train_course_sets()
    return check_round_trips(a) + check_recommendations(a.lists, a.train_graph, train_sets, K)
