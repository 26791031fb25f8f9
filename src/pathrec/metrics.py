"""Top-K ranking metrics and the non-path baselines (Pop, latent factors)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DivergenceError, atomic_write
from .kg import EnrollmentSplit
from .optim import stable_sigmoid
from .schema import EntityRef


def metrics_at_k(
    ranked: list[int], relevant: frozenset[int] | set[int], k: int = 10
) -> tuple[float, float, float, float]:
    """(ndcg, recall, hit ratio, precision) with binary gains, 1-based ranks.

    DCG discounts hits by 1/log2(rank+1); IDCG assumes min(|relevant|, k)
    leading hits. Precision keeps k in the denominator even for short lists.
    """
    if len(set(ranked)) != len(ranked):
        raise DataError("ranked list contains duplicates")
    if not relevant:
        raise DataError("relevant set is empty")
    top = ranked[:k]
    hits = 0
    dcg = 0.0
    for i, item in enumerate(top, start=1):
        if item in relevant:
            hits += 1
            dcg += 1.0 / math.log2(i + 1)
    idcg = sum(1.0 / math.log2(i + 1) for i in range(1, min(len(relevant), k) + 1))
    return dcg / idcg, hits / len(relevant), 1.0 if hits else 0.0, hits / k


@dataclass(frozen=True)
class RunMetrics:
    """Means over evaluated learners, in percent (one model, one seed)."""

    ndcg: float
    recall: float
    hit_ratio: float
    precision: float
    invalid_fraction: float
    n_learners: int

    def values(self) -> dict[str, float]:
        return {
            "ndcg": self.ndcg,
            "recall": self.recall,
            "hit_ratio": self.hit_ratio,
            "precision": self.precision,
            "invalid_fraction": self.invalid_fraction,
        }


def _ranked_course_indices(entry) -> list[int]:
    if hasattr(entry, "courses"):
        return [c.index for c in entry.courses()]
    return [c.index if isinstance(c, EntityRef) else int(c) for c in entry]


def evaluate(lists: dict[int, object], split: EnrollmentSplit, k: int = 10) -> RunMetrics:
    """Average metrics over learners holding at least one test enrollment.

    Short lists are scored as-is (missing slots are misses) and counted in
    invalid_fraction; a test learner missing from `lists` is an error.
    """
    totals = np.zeros(4)
    invalid = 0
    n = 0
    for learner_idx, courses in sorted(split.test.items()):
        if not courses:
            continue
        if learner_idx not in lists:
            raise DataError(f"no recommendations for test learner index {learner_idx}")
        ranked = _ranked_course_indices(lists[learner_idx])
        relevant = frozenset(c.index for c in courses)
        totals += np.array(metrics_at_k(ranked, relevant, k))
        invalid += 1 if len(ranked) < k else 0
        n += 1
    if n == 0:
        raise DataError("no learner has a non-empty test set")
    means = totals / n * 100.0
    return RunMetrics(
        ndcg=float(means[0]),
        recall=float(means[1]),
        hit_ratio=float(means[2]),
        precision=float(means[3]),
        invalid_fraction=invalid / n * 100.0,
        n_learners=n,
    )


# -- baselines -------------------------------------------------------------


def pop_baseline(split: EnrollmentSplit, n_courses: int) -> list[EntityRef]:
    """Catalog ranked by train enrollment count (desc), index ascending on ties."""
    counts = np.zeros(n_courses, dtype=np.int64)
    for courses in split.train.values():
        for c in courses:
            counts[c.index] += 1
    order = np.lexsort((np.arange(n_courses), -counts))
    return [EntityRef("course", int(i)) for i in order]


def pop_lists(
    split: EnrollmentSplit, n_courses: int, k: int = 10
) -> dict[int, list[EntityRef]]:
    """Serve the global ranking minus each learner's own train courses."""
    ranking = pop_baseline(split, n_courses)
    out = {}
    for learner_idx, courses in split.train.items():
        seen = {c.index for c in courses}
        out[learner_idx] = [c for c in ranking if c.index not in seen][:k]
    return out


def mf_baseline(
    split: EnrollmentSplit,
    n_courses: int,
    factors: int = 32,
    epochs: int = 30,
    learning_rate: float = 0.05,
    seed: int = 0,
    k: int = 10,
    batch_size: int = 1024,
) -> dict[int, list[EntityRef]]:
    """Latent-factor rankings trained with a pairwise (positive vs sampled
    negative) logistic ranking loss; train courses are excluded from output."""
    if not split.train:
        raise DataError("train split is empty")
    rng = np.random.default_rng([seed, 7])
    learners = sorted(split.train)
    row_of = {u: i for i, u in enumerate(learners)}
    train_sets = {u: {c.index for c in split.train[u]} for u in learners}
    pairs = np.array(
        [(row_of[u], c.index) for u in learners for c in split.train[u]], dtype=np.int64
    )
    p = rng.normal(0.0, 0.1, size=(len(learners), factors))
    q = rng.normal(0.0, 0.1, size=(n_courses, factors))
    for _epoch in range(epochs):
        order = rng.permutation(len(pairs))
        for start in range(0, len(order), batch_size):
            rows = pairs[order[start : start + batch_size]]
            u, i = rows[:, 0], rows[:, 1]
            j = rng.integers(0, n_courses, size=len(rows))
            for _ in range(10):  # resample negatives that hit train courses
                bad = np.array(
                    [jj in train_sets[learners[uu]] for uu, jj in zip(u, j)], dtype=bool
                )
                if not bad.any():
                    break
                j[bad] = rng.integers(0, n_courses, size=int(bad.sum()))
            x = np.einsum("bf,bf->b", p[u], q[i] - q[j])
            e = stable_sigmoid(-x)[:, None]
            dp = e * (q[i] - q[j])
            dqi = e * p[u]
            if not np.all(np.isfinite(x)):
                raise DivergenceError("non-finite scores in latent-factor training")
            np.add.at(p, u, learning_rate * dp)
            np.add.at(q, i, learning_rate * dqi)
            np.add.at(q, j, -learning_rate * dqi)
    out = {}
    course_ids = np.arange(n_courses)
    for u in learners:
        scores = q @ p[row_of[u]]
        scores[list(train_sets[u])] = -np.inf
        order = np.lexsort((course_ids, -scores))[:k]
        out[u] = [EntityRef("course", int(c)) for c in order]
    return out


# -- multi-seed report ------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    """One table row: per-seed metrics aggregated as mean +/- population std."""

    model: str
    model_type: str
    path_length: int | None
    runs: tuple[RunMetrics, ...]
    mean: dict[str, float] = field(default_factory=dict)
    std: dict[str, float] = field(default_factory=dict)

    @staticmethod
    def aggregate(
        model: str, model_type: str, path_length: int | None, runs: list[RunMetrics]
    ) -> "MetricsReport":
        keys = runs[0].values().keys()
        per_key = {key: np.array([r.values()[key] for r in runs]) for key in keys}
        return MetricsReport(
            model=model,
            model_type=model_type,
            path_length=path_length,
            runs=tuple(runs),
            mean={key: float(v.mean()) for key, v in per_key.items()},
            std={key: float(v.std(ddof=0)) for key, v in per_key.items()},
        )

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "type": self.model_type,
            "path_length": self.path_length,
            "mean": self.mean,
            "std": self.std,
            "runs": [r.values() for r in self.runs],
        }


_COLUMNS = ("ndcg", "recall", "hit_ratio", "precision")


def format_report_table(reports: list[MetricsReport]) -> str:
    header = (
        f"{'Model':<10} {'Type':<24} {'Path Length':>11} "
        f"{'NDCG':>14} {'Recall':>14} {'HR':>14} {'Precision':>14} {'Invalid users':>16}"
    )
    lines = [header, "-" * len(header)]
    for rep in reports:
        cells = [
            f"{rep.mean[key]:05.2f} ± {rep.std[key]:.1f}".rjust(14) for key in _COLUMNS
        ]
        invalid = f"{rep.mean['invalid_fraction']:04.1f}% ± {rep.std['invalid_fraction']:.1f}"
        lines.append(
            f"{rep.model:<10} {rep.model_type:<24} "
            f"{str(rep.path_length) if rep.path_length else '-':>11} "
            + " ".join(cells)
            + invalid.rjust(17)
        )
    return "\n".join(lines)


def save_report_json(reports: list[MetricsReport], path: str) -> None:
    with atomic_write(path) as fh:
        json.dump([rep.to_dict() for rep in reports], fh, indent=2)
        fh.write("\n")
