"""Per-layer tracing from outside the program.

`traced(rec)` replaces chosen pathrec functions and methods with wrappers
that add a count, summed seconds and self seconds to `rec.calls`, keyed by
the enclosing stage span, and puts every original back on exit. The wrappers
aggregate instead of keeping one span per call: a `deep` pass makes about
150,000 `policy_forward` calls.

`layer_metrics` turns one traced pass into the per-layer metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pathrec.embeddings
import pathrec.environment
import pathrec.inference
import pathrec.optim
import pathrec.policy

from .pipeline import PassResult, Recorder

LAYERS = ("kg", "embeddings", "optim", "environment", "policy", "inference", "metrics", "patterns")


def _unseen_course_paths(result, args, kwargs) -> float:
    paths, _learner, train_courses = args[:3]
    return sum(
        1 for path, _lp in paths
        if path.final_entity.entity_type == "course" and path.final_entity.index not in train_courses
    )


# (owner, attribute, layer, call name, observed count name, observer)
TARGETS = (
    (pathrec.embeddings, "batch_loss_and_grads", "embeddings", "loss_grad", None, None),
    (pathrec.embeddings.EmbeddingTable, "score_edges", "embeddings", "score_edges", None, None),
    (pathrec.optim.Adam, "step", "optim", "adam_step", None, None),
    (pathrec.environment.PathEnv, "action_set", "environment", "action_set",
     "action_rows", lambda r, a, k: len(r.actions)),
    (pathrec.environment.PathEnv, "step", "environment", "env_step", None, None),
    (pathrec.policy, "sample_episode", "policy", "sample_episode",
     "episode_steps", lambda r, a, k: len(r.steps)),
    (pathrec.policy, "reinforce_update", "policy", "reinforce_update", None, None),
    (pathrec.policy, "compute_advantages", "policy", "compute_advantages", None, None),
    (pathrec.policy, "batch_gradients", "policy", "batch_gradients", None, None),
    (pathrec.policy, "policy_forward", "policy", "policy_forward", None, None),
    # inference.py imports policy_forward by name, so its reference is separate
    (pathrec.inference, "policy_forward", "policy", "policy_forward", None, None),
    (pathrec.inference, "beam_search", "inference", "beam_search",
     "beam_paths", lambda r, a, k: len(r)),
    (pathrec.inference, "rank_candidates", "inference", "rank_candidates",
     "unseen_course_paths", _unseen_course_paths),
)

CALL_LAYER = {call: layer for _o, _a, layer, call, _c, _f in TARGETS}


def _wrap(fn, rec: Recorder, call: str, count_name, observe):
    stack, calls, counts = rec.stack, rec.calls, rec.counts
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        frame = [stack[-1][0], 0.0]
        stack.append(frame)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            stack.pop()
            stack[-1][1] += dt
            key = (frame[0], call)
            agg = calls.get(key)
            if agg is None:
                agg = calls[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dt
            agg[2] += dt - frame[1]
        if observe is not None:
            counts[count_name] = counts.get(count_name, 0) + observe(result, args, kwargs)
        return result

    return wrapper


@contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block, then restore."""
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in TARGETS]
    try:
        for owner, attr, _layer, call, count_name, observe in TARGETS:
            setattr(owner, attr, _wrap(owner.__dict__[attr], rec, call, count_name, observe))
        yield rec
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def trace_problems(rec: Recorder) -> list[str]:
    """A span's children (spans and wrapped calls) may not outlast it."""
    return [
        f"span {s.name}: children sum to {s.child_s:.6f} s of {s.seconds:.6f} s"
        for s in rec.spans
        if s.child_s > s.seconds + 1e-6
    ]


def span_records(rec: Recorder) -> list[dict]:
    """Spans and per-span call aggregates as JSON-ready records."""
    out = [
        {"span": i, "name": s.name, "parent": s.parent,
         "start_s": s.start - rec.spans[0].start, "seconds": s.seconds,
         "self_s": s.seconds - s.child_s}
        for i, s in enumerate(rec.spans)
    ]
    out += [
        {"span": span, "call": call, "count": n, "seconds": sec, "self_s": self_s}
        for (span, call), (n, sec, self_s) in sorted(rec.calls.items())
    ]
    return out


def layer_metrics(rec: Recorder, result: PassResult) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    span_name = {i: s.name for i, s in enumerate(rec.spans)}

    def calls(call: str, stage: str | None = None) -> tuple[int, float]:
        n, sec = 0, 0.0
        for (span, name), (count, seconds, _self) in rec.calls.items():
            if name == call and (stage is None or span_name.get(span) == stage):
                n += count
                sec += seconds
        return n, sec

    count = rec.counts.get
    m: dict[str, float] = {}
    m["kg.ingest_s"] = rec.seconds("kg.ingest")
    m["kg.split_s"] = rec.seconds("kg.split")
    m["kg.io_s"] = rec.seconds("kg.io")
    m["kg.triples"] = result.n_triples

    m["embeddings.train_s"] = rec.seconds("embeddings.train")
    m["embeddings.loss_grad_calls"], m["embeddings.loss_grad_s"] = calls("loss_grad")
    m["optim.embed_step_calls"], m["optim.embed_step_s"] = calls("adam_step", "embeddings.train")
    m["embeddings.sampling_s"] = (
        m["embeddings.train_s"] - m["embeddings.loss_grad_s"] - m["optim.embed_step_s"]
    )
    m["embeddings.io_s"] = rec.seconds("embeddings.io")
    m["optim.agent_step_calls"], m["optim.agent_step_s"] = calls("adam_step", "policy.train")

    m["environment.action_set_calls"], _ = calls("action_set")
    m["environment.action_set_builds"], _ = calls("score_edges")
    m["environment.cache_hit_ratio"] = 1.0 - m["environment.action_set_builds"] / max(
        m["environment.action_set_calls"], 1
    )
    m["environment.step_calls"], m["environment.step_s"] = calls("env_step")
    m["environment.mean_action_set"] = count("action_rows", 0) / max(
        m["environment.action_set_calls"], 1
    )

    m["policy.rollout_s"] = calls("sample_episode")[1]
    m["policy.updates"], m["policy.update_s"] = calls("reinforce_update")
    m["policy.advantage_s"] = calls("compute_advantages")[1]
    m["policy.gradient_s"] = calls("batch_gradients")[1]
    m["policy.forward_calls"], m["policy.forward_s"] = calls("policy_forward", "policy.train")
    m["policy.steps"] = count("episode_steps", 0)
    m["policy.forward_per_step"] = m["policy.forward_calls"] / max(m["policy.steps"], 1)
    m["policy.final_reward"] = result.final_reward
    m["policy.io_s"] = rec.seconds("policy.io")

    m["inference.beam_calls"], m["inference.beam_s"] = calls("beam_search")
    m["inference.forward_calls"], _ = calls("policy_forward", "inference.recommend")
    m["inference.paths_per_learner"] = count("beam_paths", 0) / max(m["inference.beam_calls"], 1)
    m["inference.rank_s"] = calls("rank_candidates")[1]
    m["inference.course_terminal_ratio"] = count("unseen_course_paths", 0) / max(
        count("beam_paths", 0), 1
    )
    m["inference.io_s"] = rec.seconds("inference.io")

    m["metrics.evaluate_s"] = rec.seconds("metrics.evaluate")
    m["metrics.pop_s"] = rec.seconds("metrics.pop")
    m["metrics.mf_s"] = rec.seconds("metrics.mf")
    m["patterns.report_s"] = rec.seconds("patterns.report")

    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in rec.spans:
        layer = s.name.split(".")[0]
        if layer in self_s:
            self_s[layer] += s.seconds - s.child_s
    for (_span, call), (_n, _sec, call_self) in rec.calls.items():
        self_s[CALL_LAYER[call]] += call_self
    for layer, seconds in self_s.items():
        m[f"{layer}.self_s"] = seconds
    return {k: float(v) for k, v in m.items()}
