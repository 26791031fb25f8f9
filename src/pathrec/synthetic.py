"""Cluster-structured synthetic course graphs with known, learnable signal.

Learners, courses, teachers, categories and concepts are partitioned into
clusters; enrollments are biased toward the learner's own cluster, and each
course's teacher/category/concepts come from its cluster. Both collaborative
(shared-enrollment) and content (teacher/category/concept) paths therefore
carry signal, which is what the desk-scale pipeline checks exercise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, atomic_write, check_count
from .kg import KnowledgeGraph, graph_from_raw_edges

RawEdges = dict[str, list[tuple[str, str]]]


@dataclass(frozen=True)
class SynthConfig:
    n_learners: int = 300
    n_courses: int = 60
    n_teachers: int = 10
    n_categories: int = 5
    n_concepts: int = 20
    n_clusters: int = 5
    in_cluster_enroll_prob: float = 0.9
    cross_cluster_enroll_prob: float = 0.1
    enrollments_per_learner: int = 12
    seed: int = 0

    def validate(self) -> None:
        for name in ("n_learners", "n_courses", "n_teachers", "n_categories", "n_concepts",
                     "n_clusters", "enrollments_per_learner"):
            check_count(getattr(self, name), name)
        check_count(self.seed, "seed", least=0)
        p_in, p_cross = self.in_cluster_enroll_prob, self.cross_cluster_enroll_prob
        if not (0.0 <= p_cross <= 1.0 and 0.0 <= p_in <= 1.0):
            raise ConfigError("enrollment probabilities must lie in [0, 1]")
        if not p_in > p_cross:
            raise ConfigError("in_cluster_enroll_prob must exceed cross_cluster_enroll_prob")
        if self.enrollments_per_learner < 10:
            raise ConfigError("enrollments_per_learner must be >= 10 (filter threshold)")
        if self.enrollments_per_learner > self.n_courses:
            raise ConfigError("cannot draw more enrollments than there are courses")


def _clusters(n: int, n_clusters: int) -> list[list[int]]:
    groups: list[list[int]] = [[] for _ in range(n_clusters)]
    for i in range(n):
        groups[i % n_clusters].append(i)
    return groups


def generate_edges(cfg: SynthConfig) -> RawEdges:
    """Raw (head_id, tail_id) edge lists per relation, deterministic per seed."""
    cfg.validate()
    learner_ids = [f"u{i:04d}" for i in range(cfg.n_learners)]
    course_ids = [f"c{i:04d}" for i in range(cfg.n_courses)]
    teacher_ids = [f"t{i:03d}" for i in range(cfg.n_teachers)]
    category_ids = [f"cat{i:02d}" for i in range(cfg.n_categories)]
    concept_ids = [f"k{i:03d}" for i in range(cfg.n_concepts)]

    course_clusters = _clusters(cfg.n_courses, cfg.n_clusters)
    teacher_clusters = _clusters(cfg.n_teachers, cfg.n_clusters)
    category_clusters = _clusters(cfg.n_categories, cfg.n_clusters)
    concept_clusters = _clusters(cfg.n_concepts, cfg.n_clusters)

    p_in, p_cross = cfg.in_cluster_enroll_prob, cfg.cross_cluster_enroll_prob
    w_in = p_in / (p_in + p_cross)

    enrolled: list[tuple[str, str]] = []
    for u in range(cfg.n_learners):
        rng = np.random.default_rng([cfg.seed, 1, u])
        own = u % cfg.n_clusters
        in_pool = list(course_clusters[own])
        cross_pool = [c for k, grp in enumerate(course_clusters) if k != own for c in grp]
        for _ in range(cfg.enrollments_per_learner):
            use_in = rng.random() < w_in
            pool = in_pool if use_in else cross_pool
            if not pool:
                pool = cross_pool if use_in else in_pool
            if not pool:
                raise ConfigError("course pools exhausted; reduce enrollments_per_learner")
            c = pool.pop(int(rng.integers(len(pool))))
            enrolled.append((learner_ids[u], course_ids[c]))

    teaches: list[tuple[str, str]] = []
    belongs_to: list[tuple[str, str]] = []
    has_concept: list[tuple[str, str]] = []
    for c in range(cfg.n_courses):
        rng = np.random.default_rng([cfg.seed, 2, c])
        own = c % cfg.n_clusters
        t_pool = teacher_clusters[own] or teacher_clusters[0]
        teaches.append((teacher_ids[t_pool[int(rng.integers(len(t_pool)))]], course_ids[c]))
        cat_pool = category_clusters[own] or category_clusters[0]
        belongs_to.append((course_ids[c], category_ids[cat_pool[int(rng.integers(len(cat_pool)))]]))
        k_pool = concept_clusters[own] or concept_clusters[0]
        n_k = min(int(rng.integers(1, 4)), len(k_pool))
        picks = rng.choice(len(k_pool), size=n_k, replace=False)
        has_concept.extend((course_ids[c], concept_ids[k_pool[i]]) for i in sorted(picks))

    return {
        "enrolled": enrolled,
        "teaches": teaches,
        "belongs_to": belongs_to,
        "has_concept": has_concept,
    }


def generate(cfg: SynthConfig) -> KnowledgeGraph:
    """In-memory graph; identical to ingesting the TSVs from `write_tsvs`."""
    return graph_from_raw_edges(generate_edges(cfg))


def write_tsvs(cfg: SynthConfig, out_dir: str) -> dict[str, str]:
    """Write the per-relation TSVs, returning relation -> file path."""
    os.makedirs(out_dir, exist_ok=True)
    paths: dict[str, str] = {}
    for rel, pairs in generate_edges(cfg).items():
        path = os.path.join(out_dir, f"{rel if rel != 'enrolled' else 'enrollments'}.tsv")
        with atomic_write(path) as fh:
            fh.writelines(f"{h}\t{t}\n" for h, t in pairs)
        paths[rel] = path
    return paths
