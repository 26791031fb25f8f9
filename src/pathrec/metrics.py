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


def _add_rows(param: np.ndarray, rows: np.ndarray, *terms: np.ndarray) -> np.ndarray:
    """`np.add.at(param, rows, np.concatenate(terms))` bit for bit, as one
    `np.bincount` on a new array: each bin starts from the parameter's own
    value and adds its terms in order."""
    n, f = param.shape
    at = np.empty(param.size + len(rows) * f, dtype=np.intp)  # each value's flat index
    at[: param.size] = np.arange(param.size)
    np.add((rows * f)[:, None], np.arange(f), out=at[param.size :].reshape(-1, f))
    weights = np.concatenate([param.ravel(), *(block.ravel() for block in terms)])
    return np.bincount(at, weights, minlength=param.size).reshape(n, f)


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
    negative) logistic ranking loss; train courses are excluded from output,
    so a list is shorter than k when fewer than k courses are left."""
    if not split.train:
        raise DataError("train split is empty")
    rng = np.random.default_rng([seed, 7])
    learners = sorted(split.train)
    pairs = np.array(
        [(row, c.index) for row, u in enumerate(learners) for c in split.train[u]],
        dtype=np.int64,
    ).reshape(-1, 2)
    seen = np.zeros((len(learners), n_courses), dtype=bool)  # learner row x course: in train
    seen[pairs[:, 0], pairs[:, 1]] = True
    p = rng.normal(0.0, 0.1, size=(len(learners), factors))
    q = rng.normal(0.0, 0.1, size=(n_courses, factors))
    for _epoch in range(epochs):
        order = rng.permutation(len(pairs))
        for start in range(0, len(order), batch_size):
            rows = pairs[order[start : start + batch_size]]
            u, i = rows[:, 0], rows[:, 1]
            j = rng.integers(0, n_courses, size=len(rows))
            for _ in range(10):  # resample negatives that hit train courses
                bad = seen[u, j]
                if not bad.any():
                    break
                j[bad] = rng.integers(0, n_courses, size=int(bad.sum()))
            diff = q[i] - q[j]
            x = np.einsum("bf,bf->b", p[u], diff)
            e = stable_sigmoid(-x)[:, None]
            if not np.all(np.isfinite(x)):
                raise DivergenceError("non-finite scores in latent-factor training")
            step = learning_rate * (e * p[u])  # positive courses' terms; negatives take -step
            p = _add_rows(p, u, learning_rate * (e * diff))
            q = _add_rows(q, np.concatenate((i, j)), step, -step)
    out = {}
    course_ids = np.arange(n_courses)
    for row, u in enumerate(learners):
        order = np.lexsort((course_ids, -(q @ p[row])))
        out[u] = [EntityRef("course", int(c)) for c in order[~seen[row, order]][:k]]
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
