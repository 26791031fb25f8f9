"""Tests of the benchmark itself (run: python -m pytest perfbench/tests)."""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import pathrec as pr
from perfbench import pipeline, tracing
from perfbench.workloads import K, WORKLOADS, smoke

from conftest import ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_benchmark(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.fixture(scope="module")
def desk_pass(tmp_path_factory):
    w = smoke(WORKLOADS["desk"])
    tmp = tmp_path_factory.mktemp("desk")
    files = pr.write_tsvs(pr.SynthConfig(n_learners=w.n_learners, n_courses=w.n_courses), tmp)
    return w, pipeline.run_pass(w, 0, files, str(tmp), pipeline.Recorder())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes_its_checks(workload):
    proc, result = run_benchmark(
        "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0", "--smoke"
    )
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    proc, result = run_benchmark(
        "--workload", "deep", "--seed", "0", "--seconds", "0", "--trace", "1", "--smoke"
    )
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == declared("per_layer")
    assert result["metrics"]["policy.forward_per_step"]["value"] == 3.0


def test_traced_restores_every_wrapped_attribute(desk_pass, tmp_path):
    w, _ = desk_pass
    originals = [owner.__dict__[attr] for owner, attr, *_ in tracing.TARGETS]
    files = pr.write_tsvs(pr.SynthConfig(n_learners=w.n_learners, n_courses=w.n_courses), tmp_path)
    rec = pipeline.Recorder()
    with pytest.raises(RuntimeError):
        with tracing.traced(rec):
            assert all(
                owner.__dict__[attr] is not original
                for (owner, attr, *_), original in zip(tracing.TARGETS, originals)
            )
            result = pipeline.run_pass(w, 0, files, str(tmp_path), rec)
            raise RuntimeError("leave the block by an error")
    assert all(
        owner.__dict__[attr] is original
        for (owner, attr, *_), original in zip(tracing.TARGETS, originals)
    )
    assert tracing.trace_problems(rec) == []
    metrics = tracing.layer_metrics(rec, result)
    assert set(metrics) | {"trace_overhead_pct"} == declared("per_layer")
    assert metrics["inference.beam_calls"] == w.n_learners


def test_metric_names_use_the_allowed_characters():
    names = declared("end_to_end") | declared("per_layer")
    assert names
    assert all(NAME.fullmatch(name) for name in names)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert all(NAME.fullmatch(w["name"]) for w in spec["workloads"])
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_checks_accept_the_real_outputs(desk_pass):
    _w, result = desk_pass
    assert pipeline.check_outputs(result) == []


def _check_with_items(w, result, items) -> list[str]:
    """Check the pass's lists with the first learner's items replaced."""
    a = result.artifacts
    learner_idx = min(a.lists)
    lists = {**a.lists, learner_idx: dataclasses.replace(a.lists[learner_idx], items=items)}
    return pipeline.check_recommendations(
        lists, a.train_graph, a.split.train_course_sets(), K
    )


def _first_list(result):
    return result.artifacts.lists[min(result.artifacts.lists)]


def test_checks_reject_an_invalid_path(desk_pass):
    w, result = desk_pass
    rec = _first_list(result)
    first = rec.items[0]
    # straight from the learner to an unseen course: no such edge in the train graph
    bogus = pr.Path(rec.learner, (("enrolled", first.course),))
    items = (dataclasses.replace(first, best_path=bogus), *rec.items[1:])
    assert any("not a walk" in p for p in _check_with_items(w, result, items))


def test_checks_reject_a_train_course(desk_pass):
    w, result = desk_pass
    rec = _first_list(result)
    seen = result.artifacts.split.train[rec.learner.index][0]
    walk = pr.Path(rec.learner, (("enrolled", seen),))
    items = (dataclasses.replace(rec.items[0], course=seen, best_path=walk), *rec.items[1:])
    problems = _check_with_items(w, result, items)
    assert any("train set" in p for p in problems)
    assert not any("not a walk" in p for p in problems)


def test_checks_reject_duplicates_and_rising_scores(desk_pass):
    w, result = desk_pass
    rec = _first_list(result)
    first, second = rec.items[0], rec.items[1]
    assert first.score > second.score
    duplicated = _check_with_items(w, result, (first, first, *rec.items[2:]))
    assert any("duplicate" in p for p in duplicated)
    swapped = _check_with_items(w, result, (second, first, *rec.items[2:]))
    assert any("score increases" in p for p in swapped)


def test_checks_reject_a_changed_round_trip(desk_pass):
    _w, result = desk_pass
    a = result.artifacts
    table = a.table_loaded
    entity = {k: v.copy() for k, v in table.entity.items()}
    entity["course"][0, 0] += 1e-3
    changed = dataclasses.replace(a, table_loaded=pr.EmbeddingTable(entity, table.relation, table.d))
    assert pipeline.check_round_trips(changed) == [
        "embeddings differ from their f32 form after the round trip"
    ]
    params = {k: v.copy() for k, v in a.params_loaded.items()}
    params["w1"][0, 0] = np.float64(np.float32(params["w1"][0, 0]) + np.float32(1.0))
    changed = dataclasses.replace(a, params_loaded=params)
    assert pipeline.check_round_trips(changed) == [
        "policy differs from its f32 form after the round trip"
    ]


def test_benchmark_fails_without_the_program(tmp_path):
    """A directory with only the benchmark's files must exit non-zero, printing no result."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
