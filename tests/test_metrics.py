import json
from pathlib import Path

import numpy as np
import pytest

from pathrec.errors import ConfigError, DataError
from pathrec.kg import EnrollmentSplit
from pathrec.metrics import (
    MetricsReport,
    _add_rows,
    RunMetrics,
    evaluate,
    format_report_table,
    metrics_at_k,
    mf_baseline,
    pop_baseline,
    pop_lists,
)
from pathrec.schema import EntityRef
from pathrec.synthetic import SynthConfig, generate
from pathrec.kg import split_enrollments

from oracles import add_at_rows, metrics_oracle

# mf_baseline lists of `golden_mf_split()` at seeds 0-2 (factors 8, 10 epochs,
# batch 256), written while the train sets were a dict of Python sets
GOLDEN_MF = Path(__file__).parent / "golden" / "mf_lists.json"


def golden_mf_split():
    kg = generate(SynthConfig(n_learners=60, n_courses=30, n_clusters=2, n_categories=2,
                              n_concepts=4, seed=2))
    return split_enrollments(kg, seed=1)

C = lambda i: EntityRef("course", i)


def make_split(train, test, val=None):
    freeze = lambda d: {u: tuple(C(c) for c in cs) for u, cs in d.items()}
    val = val if val is not None else {u: () for u in train}
    return EnrollmentSplit(
        freeze(train), freeze(val), freeze(test), seed=0, ratios=(0.8, 0.1, 0.1)
    )


class TestMetricsAtK:
    def test_perfect_single_relevant(self):
        ndcg, recall, hr, precision = metrics_at_k([5, 1, 2], {5}, k=10)
        assert (ndcg, recall, hr, precision) == (1.0, 1.0, 1.0, 0.1)

    def test_single_relevant_at_rank_three(self):
        ndcg, _r, _h, _p = metrics_at_k([1, 2, 9], {9}, k=10)
        assert ndcg == pytest.approx(0.5)  # 1/log2(4)

    def test_no_hits_all_zero(self):
        assert metrics_at_k([1, 2, 3], {7}, k=10) == (0.0, 0.0, 0.0, 0.0)

    def test_duplicates_rejected(self):
        with pytest.raises(DataError):
            metrics_at_k([1, 1, 2], {1}, k=10)

    def test_empty_relevant_rejected(self):
        with pytest.raises(DataError):
            metrics_at_k([1, 2], set(), k=10)

    def test_oracle_equivalence_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n_items = int(rng.integers(1, 40))
            ranked = list(rng.permutation(100)[:n_items])
            relevant = set(rng.choice(100, size=int(rng.integers(1, 15)), replace=False))
            k = int(rng.integers(1, 15))
            got = metrics_at_k(ranked, relevant, k)
            want = metrics_oracle(ranked, relevant, k)
            assert got == pytest.approx(want, abs=1e-12)

    def test_sanity_relations(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            ranked = list(rng.permutation(50)[: int(rng.integers(1, 20))])
            relevant = set(rng.choice(50, size=int(rng.integers(1, 10)), replace=False))
            k = int(rng.integers(1, 15))
            ndcg, recall, hr, precision = metrics_at_k(ranked, relevant, k)
            assert all(0.0 <= m <= 1.0 for m in (ndcg, recall, hr, precision))
            assert hr >= recall
            assert precision == pytest.approx(recall * len(relevant) / k)


class TestEvaluate:
    def test_mean_is_percent(self):
        split = make_split({0: [9], 1: [9]}, {0: [1], 1: [2]})
        lists = {0: [C(1), C(3)], 1: [C(3), C(4)]}
        run = evaluate(lists, split, k=10)
        assert run.hit_ratio == pytest.approx(50.0)
        assert run.n_learners == 2

    def test_missing_learner_rejected(self):
        split = make_split({0: [9], 1: [9]}, {0: [1], 1: [2]})
        with pytest.raises(DataError):
            evaluate({0: [C(1)]}, split, k=10)

    def test_empty_test_sets_excluded(self):
        split = make_split({0: [9], 1: [9]}, {0: [1], 1: []})
        run = evaluate({0: [C(1)]}, split, k=10)
        assert run.n_learners == 1

    def test_short_lists_counted_invalid(self):
        split = make_split({0: [9], 1: [9]}, {0: [1], 1: [2]})
        lists = {0: [C(i) for i in range(1, 11)], 1: [C(2)]}
        run = evaluate(lists, split, k=10)
        assert run.invalid_fraction == pytest.approx(50.0)


@pytest.mark.parametrize("k", [0, -1, 2.5, True])
@pytest.mark.parametrize("entry", ["metrics_at_k", "evaluate", "pop_lists", "mf_baseline"])
def test_k_that_is_not_an_integer_of_at_least_one_is_config_error(entry, k):
    # unchecked, 0 and -1 divided by a zero ideal DCG, 2.5 failed to slice, True
    # served lists of one, and -1 cut each baseline list's last course
    split = make_split({0: [0, 1], 1: [1]}, {0: [2], 1: [3]})
    calls = {
        "metrics_at_k": lambda: metrics_at_k([1, 2, 3], {1, 3}, k),
        "evaluate": lambda: evaluate({0: [C(2)], 1: [C(3)]}, split, k),
        "pop_lists": lambda: pop_lists(split, 4, k),
        "mf_baseline": lambda: mf_baseline(split, 4, factors=2, epochs=1, k=k),
    }
    with pytest.raises(ConfigError, match="k must be an integer >= 1"):
        calls[entry]()


@pytest.mark.parametrize("name, value, least", [
    ("factors", 0, 1), ("factors", 2.5, 1), ("factors", True, 1),
    ("batch_size", 0, 1), ("batch_size", 64.0, 1), ("epochs", -1, 0), ("epochs", 1.5, 0),
    ("seed", -1, 0), ("seed", 2.5, 0),
])
def test_mf_count_that_is_not_an_integer_in_range_is_config_error(name, value, least):
    # unchecked, factors=0 and batch_size=0 failed as bare ValueErrors, from a
    # reshape and from range, and seed=-1 from the generator
    split = make_split({0: [0, 1], 1: [1]}, {0: [2], 1: [3]})
    kwargs = {"factors": 2, "epochs": 1, name: value}
    with pytest.raises(ConfigError, match=f"{name} must be an integer >= {least}"):
        mf_baseline(split, 4, **kwargs)


class TestPopBaseline:
    def test_count_then_index_order(self):
        split = make_split(
            {0: [0] * 1, 1: [0], 2: [0], 3: [0], 4: [0]},
            {0: [1]},
        )
        # c0 five times, c2 and c1 tie at zero -> index order
        ranking = pop_baseline(split, n_courses=3)
        assert [c.index for c in ranking] == [0, 1, 2]

    def test_tie_broken_by_course_index(self):
        train = {u: [0] for u in range(5)}
        for u in range(3):
            train[u].extend([1, 2])
        split = make_split(train, {0: [3]})
        ranking = pop_baseline(split, n_courses=4)
        # counts: c0=5, c1=3, c2=3, c3=0; the c1/c2 tie breaks by index
        assert [c.index for c in ranking] == [0, 1, 2, 3]

    def test_served_lists_exclude_own_train(self):
        split = make_split({0: [0], 1: [1]}, {0: [1], 1: [0]})
        lists = pop_lists(split, n_courses=3, k=10)
        assert 0 not in [c.index for c in lists[0]]
        assert 1 not in [c.index for c in lists[1]]

    def test_permutation_stable(self):
        train = {0: [3, 1, 2], 1: [2, 3, 1], 2: [1, 2]}
        a = pop_baseline(make_split(train, {0: [0]}), 5)
        shuffled = {u: list(reversed(cs)) for u, cs in train.items()}
        b = pop_baseline(make_split(shuffled, {0: [0]}), 5)
        assert a == b


class TestMfBaseline:
    def test_deterministic_with_zero_lr(self):
        split = make_split({0: [0, 1], 1: [2]}, {0: [2], 1: [0]})
        a = mf_baseline(split, 4, factors=3, epochs=2, learning_rate=0.0, seed=3)
        b = mf_baseline(split, 4, factors=3, epochs=2, learning_rate=0.0, seed=3)
        assert a == b

    def test_lists_match_golden(self):
        split = golden_mf_split()
        want = json.loads(GOLDEN_MF.read_text(encoding="utf-8"))
        for seed in (0, 1, 2):
            lists = mf_baseline(split, 30, factors=8, epochs=10, seed=seed, k=10, batch_size=256)
            assert {str(u): [c.index for c in ranked] for u, ranked in lists.items()} == want[str(seed)]

    def test_row_scatter_is_add_at_bit_for_bit(self):
        # rows repeat, and terms of mixed sign and scale meet in one bin, so
        # only adding each bin's terms in add.at's order gives the same bits
        rng = np.random.default_rng(0)
        for _ in range(200):
            n, f, m = rng.integers(1, 12), rng.integers(1, 6), rng.integers(0, 40)
            param = rng.normal(0.0, 0.1, size=(n, f))
            rows = rng.integers(0, n, size=m)
            terms = rng.normal(size=(m, f)) * 10.0 ** rng.integers(-8, 3, size=(m, 1))
            cut = rng.integers(0, m + 1)  # the terms may come in two blocks
            got = _add_rows(param, rows, terms[:cut], terms[cut:])
            assert np.array_equal(got, add_at_rows(param, rows, terms))

    def test_no_train_course_is_returned(self):
        # k is the whole catalog, so every course a list leaves out is a train course
        split = golden_mf_split()
        train = split.train_course_sets()
        lists = mf_baseline(split, 30, factors=8, epochs=10, seed=0, k=30)
        for u, ranked in lists.items():
            assert sorted(c.index for c in ranked) == sorted(set(range(30)) - train[u]), u

    def test_beats_pop_on_clustered_synth(self, synth_kg, synth_split):
        n = synth_kg.n_entities("course")
        mf_run = evaluate(mf_baseline(synth_split, n, seed=0), synth_split, k=10)
        pop_run = evaluate(pop_lists(synth_split, n, k=10), synth_split, k=10)
        assert mf_run.ndcg > pop_run.ndcg

    def test_single_factor_separates_clusters(self):
        cfg = SynthConfig(
            n_learners=60, n_courses=30, n_clusters=2, n_categories=2, n_concepts=4,
            cross_cluster_enroll_prob=0.0, in_cluster_enroll_prob=0.9, seed=3,
        )
        kg = generate(cfg)
        split = split_enrollments(kg, seed=0)
        rankings = mf_baseline(split, 30, factors=1, epochs=40, seed=1, k=30)
        cluster_of_course = {i: int(kg.vocab["course"][i][1:]) % 2 for i in range(30)}
        train_sets = split.train_course_sets()
        good = 0
        for u, ranked in rankings.items():
            u_cluster = int(kg.vocab["learner"][u][1:]) % 2
            candidates = [c for c in ranked if c.index not in train_sets[u]]
            own = [r for r, c in enumerate(candidates) if cluster_of_course[c.index] == u_cluster]
            other = [r for r, c in enumerate(candidates) if cluster_of_course[c.index] != u_cluster]
            if own and other and np.mean(own) < np.mean(other):
                good += 1
        assert good / len(rankings) >= 0.8


class TestReportAggregation:
    def test_population_std(self):
        runs = [
            RunMetrics(ndcg=v, recall=0, hit_ratio=0, precision=0,
                       invalid_fraction=0, n_learners=1)
            for v in (20.7, 20.9, 21.0)
        ]
        rep = MetricsReport.aggregate("UPGPR", "Path-Based", 3, runs)
        assert rep.mean["ndcg"] == pytest.approx(20.8667, abs=1e-4)
        # population std (ddof=0) of {20.7, 20.9, 21.0}
        assert rep.std["ndcg"] == pytest.approx(0.124722, abs=1e-6)

    def test_table_formatting(self):
        runs = [RunMetrics(3.06, 4.80, 9.30, 0.97, 0.0, 100)]
        rep = MetricsReport.aggregate("Pop", "Popularity", None, runs)
        table = format_report_table([rep])
        assert "Pop" in table and "03.06" in table and "Invalid users" in table
