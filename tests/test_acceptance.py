"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one printed line per
criterion. Criteria that need the full public datasets or a completed
full-scale run are skipped unless the corresponding environment variable
points at the data (see the individual tests).
"""

import json
import math
import os
import time

import numpy as np
import pytest

from pathrec.embeddings import EmbedConfig, train_embeddings
from pathrec.environment import Path, PathEnv, RewardSpec, reward
from pathrec.inference import beam_search, recommend_all
from pathrec.kg import (
    KnowledgeGraph,
    filter_learners,
    ingest,
    split_enrollments,
)
from pathrec.metrics import evaluate, metrics_at_k, pop_lists
from pathrec.patterns import enumerate_patterns, frequency_report
from pathrec.policy import (
    AgentConfig,
    batch_gradients,
    compute_advantages,
    init_policy,
    sample_episodes,
    train_agent,
)
from pathrec.schema import SELF_LOOP, EntityRef

from conftest import DESK_EMBED, make_tiny_kg
from oracles import (
    enumerate_terminal_courses,
    fd_policy_gradient_error,
    grad_check_embeddings,
    metrics_oracle,
)

DESK_AGENT = AgentConfig(max_hops_eval=3, epochs=50, hidden=64, batch_episodes=128)
DESK_WIDTHS = (25, 10, 10)
SEEDS = (0, 1, 2)

L = lambda i: EntityRef("learner", i)
C = lambda i: EntityRef("course", i)
T = lambda i: EntityRef("teacher", i)
G = lambda i: EntityRef("category", i)
K = lambda i: EntityRef("concept", i)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def skip(criterion: int, why: str) -> None:
    print(f"\nACCEPTANCE {criterion}: SKIP - {why}")
    pytest.skip(why)


def test_criterion_1_reward_exactness(tiny_kg):
    train = {0: frozenset({0, 1, 2}), 1: frozenset({0, 1}), 2: frozenset({2, 3}),
             3: frozenset({4})}
    spec = RewardSpec(mode="binary", train_enrollments=train)
    sl = lambda e: (SELF_LOOP, e)
    cases = [
        # (description, path, expected)
        ("one-hop enrolled (trivial)", Path(L(0), (("enrolled", C(0)),)), 0.0),
        ("one-hop padded with self-loops",
         Path(L(0), (("enrolled", C(0)), sl(C(0)), sl(C(0)))), 0.0),
        ("shared-enrollment 3-hop to train course",
         Path(L(0), (("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(1)))), 1.0),
        ("3-hop to test-only course (not in train set)",
         Path(L(0), (("enrolled", C(2)), ("enrolled_inv", L(2)), ("enrolled", C(3)))), 0.0),
        ("teacher 3-hop to train course",
         Path(L(0), (("enrolled", C(0)), ("teaches_inv", T(0)), ("teaches", C(1)))), 1.0),
        ("category 3-hop to train course",
         Path(L(0), (("enrolled", C(0)), ("belongs_to", G(0)), ("belongs_to_inv", C(1)))), 1.0),
        ("concept 3-hop to train course",
         Path(L(0), (("enrolled", C(2)), ("has_concept", K(0)), ("has_concept_inv", C(0)))), 1.0),
        ("teacher-terminal path",
         Path(L(0), (("enrolled", C(0)), ("teaches_inv", T(0)))), 0.0),
        ("learner-terminal path",
         Path(L(0), (("enrolled", C(0)), ("enrolled_inv", L(1)))), 0.0),
        ("category-terminal path",
         Path(L(0), (("enrolled", C(0)), ("belongs_to", G(0)))), 0.0),
        ("budget-4 path with interleaved self-loop",
         Path(L(0), (("enrolled", C(0)), sl(C(0)), ("enrolled_inv", L(1)),
                     ("enrolled", C(1)))), 1.0),
        ("all-self-loop path (never leaves learner)",
         Path(L(0), (sl(L(0)), sl(L(0)), sl(L(0)))), 0.0),
        ("five-effective-hop path to train course",
         Path(L(0), (("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(1)),
                     ("enrolled_inv", L(1)), ("enrolled", C(0)))), 1.0),
        ("two-effective-hop learner-terminal with self-loop pad",
         Path(L(0), (("enrolled", C(0)), ("enrolled_inv", L(1)), sl(L(1)))), 0.0),
    ]
    start = time.time()
    for description, path, expected in cases:
        assert path.is_valid_in(tiny_kg), description
        got = reward(path, spec)
        assert got == expected, f"{description}: expected {expected}, got {got}"
    elapsed = time.time() - start
    report(1, elapsed < 1.0, f"{len(cases)} hand-built paths exact, {elapsed:.3f}s")


def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(0)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        n_items = int(rng.integers(1, 40))
        ranked = list(rng.permutation(120)[:n_items])
        relevant = set(rng.choice(120, size=int(rng.integers(1, 15)), replace=False))
        k = int(rng.integers(1, 15))
        got = np.array(metrics_at_k(ranked, relevant, k))
        want = np.array(metrics_oracle(ranked, relevant, k))
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.time() - start
    report(2, worst <= 1e-12 and elapsed < 5.0,
           f"1000 instances, max abs diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_gradient_checks():
    start = time.time()
    emb_err = grad_check_embeddings(EmbedConfig(d=6, seed=3), sample_size=100)

    kg = make_tiny_kg()
    from pathrec.embeddings import init_embeddings

    table = init_embeddings(kg, EmbedConfig(d=2, seed=0))
    env = PathEnv(kg, table, max_actions=250, history_len=1)
    params = init_policy(2, AgentConfig(hidden=6, seed=0))
    spec = RewardSpec(
        mode="binary",
        train_enrollments={0: frozenset({0, 1, 2}), 1: frozenset({0, 1}),
                           2: frozenset({2, 3}), 3: frozenset({4})},
    )
    draws = np.array([np.random.default_rng(50 + i).random(4) for i in range(4)])
    episodes = sample_episodes([L(i % 4) for i in range(4)], env, params, spec, 4, draws)
    episodes.rewards[0] = 1.0
    cfg = AgentConfig(hidden=6, entropy_weight=0.01, seed=0)
    advantages = compute_advantages(params, episodes, cfg.gamma)
    analytic = batch_gradients(params, episodes, advantages, cfg.entropy_weight)
    pol_err = fd_policy_gradient_error(
        params, episodes, advantages, cfg.entropy_weight, cfg.gamma,
        analytic, probes=50, rng=np.random.default_rng(1),
    )
    elapsed = time.time() - start
    report(3, emb_err <= 1e-4 and pol_err <= 1e-3 and elapsed < 60.0,
           f"embedding grad err {emb_err:.2e} (<=1e-4), "
           f"policy grad err {pol_err:.2e} (<=1e-3), {elapsed:.1f}s")


def test_criterion_4_parity_and_schema_properties(synth_train_graph, synth_split, synth_table):
    env = PathEnv(synth_train_graph, synth_table, max_actions=250, history_len=1)
    train_sets = synth_split.train_course_sets()
    spec = RewardSpec(mode="binary", train_enrollments=train_sets)
    allowed_3hop = enumerate_patterns(3, set(synth_train_graph.edges))
    rng = np.random.default_rng(0)
    learners = synth_train_graph.learners()
    violations = []
    for budget in (3, 4):
        for _ in range(5000):
            learner = learners[int(rng.integers(len(learners)))]
            state = env.initial_state(learner, budget)
            hops = []
            for _ in range(budget):
                actions = env.actions(state)
                action = actions[int(rng.integers(len(actions)))]
                hops.append(action)
                state = env.step(state, action)
            path = Path(learner, tuple(hops))
            if reward(path, spec) == 1.0 and path.n_hops_effective % 2 == 0:
                violations.append(f"even-hop reward-1 path at budget {budget}")
            final = path.final_entity
            valid = (
                final.entity_type == "course"
                and final.index not in train_sets[learner.index]
            )
            if valid:
                pattern = path.stripped_relations()
                if budget == 3 and pattern not in allowed_3hop:
                    violations.append(f"unexpected 3-hop pattern {pattern}")
                if budget == 4 and len(pattern) != 3:
                    violations.append(f"budget-4 valid pattern of length {len(pattern)}")
    report(4, not violations,
           f"10000 random rollouts, {len(violations)} violations"
           + (f" (first: {violations[0]})" if violations else ""))


def test_criterion_5_beam_search_oracle():
    kg = make_tiny_kg()  # 16 entities
    from pathrec.embeddings import init_embeddings

    table = init_embeddings(kg, EmbedConfig(d=4, seed=1))
    env = PathEnv(kg, table, max_actions=250, history_len=1)
    params = init_policy(4, AgentConfig(hidden=8, seed=1))
    train = {0: frozenset({0, 1, 2}), 1: frozenset({0, 1}), 2: frozenset({2, 3}),
             3: frozenset({4})}
    cap = 1 + max(len(kg.neighbors(kg.entity_of(e))) for e in range(kg.n_ids))
    start = time.time()
    mismatches = []
    for learner in kg.learners():
        beam = beam_search(learner, env, params, (cap, cap, cap))
        beam_courses = {
            p.final_entity.index
            for p, _ in beam
            if p.final_entity.entity_type == "course"
            and p.final_entity.index not in train[learner.index]
        }
        oracle = enumerate_terminal_courses(env, learner, 3, train[learner.index])
        if beam_courses != oracle:
            mismatches.append(learner)
    elapsed = time.time() - start
    report(5, not mismatches and elapsed < 10.0,
           f"full-width beam equals exhaustive enumeration on "
           f"{sum(len(v) for v in kg.vocab.values())}-entity graph, {elapsed:.2f}s")


def test_criterion_6_end_to_end_learning_signal(synth_kg, synth_split, synth_train_graph):
    start = time.time()
    train_sets = synth_split.train_course_sets()
    spec = RewardSpec(mode="binary", train_enrollments=train_sets)
    pop_run = evaluate(
        pop_lists(synth_split, synth_kg.n_entities("course"), k=10), synth_split, k=10
    )
    details = []
    ok = True
    for seed in SEEDS:
        table, _losses = train_embeddings(
            synth_train_graph, EmbedConfig(**{**DESK_EMBED.__dict__, "seed": seed})
        )
        agent_cfg = AgentConfig(**{**DESK_AGENT.__dict__, "seed": seed})
        params, log = train_agent(synth_train_graph, table, agent_cfg, spec)
        env = PathEnv(synth_train_graph, table, agent_cfg.max_actions, agent_cfg.history)
        lists, _invalid = recommend_all(
            synth_train_graph.learners(), env, params, train_sets, DESK_WIDTHS, n=10
        )
        run = evaluate(lists, synth_split, k=10)
        improved = log.mean_reward[-1] > log.mean_reward[0]
        lift = run.ndcg / pop_run.ndcg
        ok = ok and improved and lift >= 1.2
        details.append(
            f"seed {seed}: ndcg {run.ndcg:.2f} ({lift:.2f}x pop), "
            f"reward {log.mean_reward[0]:.3f}->{log.mean_reward[-1]:.3f}"
        )
    elapsed = time.time() - start
    report(6, ok and elapsed < 600.0,
           f"pop ndcg {pop_run.ndcg:.2f}; " + "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_7_split_and_ingestion_invariants(tmp_path):
    # partition property over 1000 random learners
    rng = np.random.default_rng(0)
    n_learners, n_courses = 1000, 150
    enrolled = set()
    for u in range(n_learners):
        size = int(rng.integers(1, 26))
        for c in rng.choice(n_courses, size=size, replace=False):
            enrolled.add((u, int(c)))
    vocab = {
        "learner": [f"u{i}" for i in range(n_learners)],
        "course": [f"c{i}" for i in range(n_courses)],
    }
    kg = KnowledgeGraph(vocab, {"enrolled": enrolled})
    split = split_enrollments(kg, seed=5)
    for learner in kg.learners():
        u = learner.index
        full = {t for r, t in kg.neighbors(learner) if r == "enrolled"}
        parts = (set(split.train[u]), set(split.validation[u]), set(split.test[u]))
        assert parts[0] | parts[1] | parts[2] == full, f"union broken for {u}"
        assert sum(len(p) for p in parts) == len(full), f"overlap for {u}"
        assert len(parts[0]) >= 1

    # inversion closure on every ingested graph
    from pathrec.schema import inverse_of
    from pathrec.synthetic import SynthConfig, write_tsvs

    files = write_tsvs(SynthConfig(n_learners=40, n_courses=30, n_teachers=4,
                                   n_categories=2, n_concepts=6, n_clusters=2, seed=9),
                       str(tmp_path))
    ingested = ingest(files)
    for head, rel, tail in ingested.iter_triples():
        assert ingested.has_triple(tail, inverse_of(rel), head)

    table1_checked = []
    for name, env_var, expected in (
        ("COCO", "PATHREC_COCO_DIR", (25_979, 23_319, 428_930)),
        ("Xuetang", "PATHREC_XUETANG_DIR", (6_548, 687, 97_592)),
    ):
        data_dir = os.environ.get(env_var)
        if not data_dir:
            continue
        from pathrec.cli import TSV_NAMES

        files = {
            rel: os.path.join(data_dir, fname)
            for rel, fname in TSV_NAMES.items()
            if os.path.exists(os.path.join(data_dir, fname))
        }
        graph = filter_learners(ingest(files), 10)
        got = (
            graph.n_entities("learner"),
            graph.n_entities("course"),
            len(graph.edges["enrolled"]),
        )
        assert got == expected, f"{name}: {got} != {expected}"
        table1_checked.append(name)
    extra = f"; dataset counts checked: {table1_checked}" if table1_checked else \
        "; dataset counts skipped (set PATHREC_COCO_DIR / PATHREC_XUETANG_DIR)"
    report(7, True, "partition and closure invariants hold" + extra)


def test_criterion_8_full_data_targets():
    """Needs PATHREC_FULLRUN_METRICS = JSON file {dataset: [report rows]}.

    Rows are the dicts written by `pathrec run-all` (out/metrics.json), with
    UPGPR rows at path lengths 3 and 5 plus a Pop row per dataset.
    """
    path = os.environ.get("PATHREC_FULLRUN_METRICS")
    if not path:
        skip(8, "full-data run not supplied (set PATHREC_FULLRUN_METRICS)")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    targets = {"xuetang": 20.85, "coco": 8.87}
    problems = []
    for dataset, rows in data.items():
        by_key = {(r["model"], r.get("path_length")): r for r in rows}
        pop = by_key.get(("Pop", None))
        u3, u5 = by_key.get(("UPGPR", 3)), by_key.get(("UPGPR", 5))
        if not (pop and u3 and u5):
            problems.append(f"{dataset}: missing Pop/UPGPR rows")
            continue
        target = targets.get(dataset.lower())
        if target is not None and abs(u5["mean"]["ndcg"] - target) > 3.0:
            problems.append(f"{dataset}: UPGPR@5 ndcg {u5['mean']['ndcg']:.2f} "
                            f"outside {target}+-3.0")
        if not u5["mean"]["ndcg"] > u3["mean"]["ndcg"]:
            problems.append(f"{dataset}: UPGPR@5 <= UPGPR@3")
        for key, row in by_key.items():
            if key[0] != "Pop" and row["mean"]["ndcg"] <= pop["mean"]["ndcg"]:
                problems.append(f"{dataset}: {key[0]} does not beat Pop")
        if u5["mean"]["invalid_fraction"] != 0.0:
            problems.append(f"{dataset}: UPGPR@5 invalid fraction nonzero")
    report(8, not problems, "full-data orderings and bands" +
           (f" violated: {problems}" if problems else " hold"))


def test_criterion_9_pattern_report_fidelity():
    shared = Path(L(0), (("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(1))))
    teacher = Path(L(0), (("enrolled", C(0)), ("teaches_inv", T(0)), ("teaches", C(1))))
    category = Path(L(0), (("enrolled", C(0)), ("belongs_to", G(0)), ("belongs_to_inv", C(1))))
    dead = Path(L(0), (("enrolled", C(0)), ("teaches_inv", T(0))))
    corpus = [shared] * 77 + [teacher] * 15 + [category] * 7 + [dead] * 13
    rows = frequency_report(corpus)
    got = {row[0].relations: (row[1], row[2]) for row in rows}
    exact = (
        got[("enrolled", "enrolled_inv", "enrolled")] == (77, 77 / 99)
        and got[("enrolled", "teaches_inv", "teaches")] == (15, 15 / 99)
        and got[("enrolled", "belongs_to", "belongs_to_inv")] == (7, 7 / 99)
        and len(rows) == 3
        and math.isclose(sum(r[2] for r in rows), 1.0, abs_tol=1e-9)
    )
    assert exact

    csv_path = os.environ.get("PATHREC_COCO_PATTERNS")
    band = "band check skipped (set PATHREC_COCO_PATTERNS)"
    band_ok = True
    if csv_path:
        with open(csv_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        fractions = {
            row.split(",")[0]: float(row.split(",")[2]) for row in lines if row
        }
        frac = fractions.get("enrolled|enrolled_inv|enrolled", 0.0)
        band_ok = 0.60 <= frac <= 0.90
        band = f"shared-enrollment fraction {frac:.3f} in [0.60, 0.90]"
    report(9, exact and band_ok, f"hand-built corpus exact; {band}")
