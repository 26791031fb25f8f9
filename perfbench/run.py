"""Benchmark entry point: time the pathrec pipeline on one workload.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 34 --trace 0

Set-up generates the workload's input graphs from --seed in fresh
interpreters and times "import pathrec + write the TSVs" there. The body is
closed-loop, one pipeline pass at a time in this process, with BLAS pinned
to one thread. Every pass is checked (see pipeline.check_outputs); a pass
that raises or fails a check counts in `failed`.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics. Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # must precede the first numpy import

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "pathrec", "__init__.py")):
    sys.exit(f"perfbench: no pathrec sources under {SRC}")
sys.path[:0] = [ROOT, SRC]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from perfbench import pipeline, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, smoke  # noqa: E402

# Input graphs per run. Quality is averaged over all of them, which narrows
# its seed-to-seed spread.
N_GRAPHS = 3
SETUP_REPEATS = 5
# Counts a traced pass must reproduce exactly on the same inputs.
EXACT_COUNTS = (
    "policy.forward_calls", "inference.forward_calls", "environment.step_calls", "kg.triples",
)


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for "end_to_end" or "per_layer" of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import json
spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
import pathrec
for seed, out_dir in spec["graphs"]:
    cfg = pathrec.SynthConfig(n_learners=spec["n_learners"], n_courses=spec["n_courses"], seed=seed)
    pathrec.write_tsvs(cfg, out_dir)
print(time.perf_counter() - t0)
"""


def graph_seeds(seed: int) -> list[int]:
    return [seed * N_GRAPHS + g for g in range(N_GRAPHS)]


def set_up(w: Workload, seed: int, workdir: str) -> tuple[list[dict], list[float]]:
    """Generate the inputs SETUP_REPEATS times; return one copy and the timings."""
    seconds, copies = [], []
    for r in range(SETUP_REPEATS):
        dirs = [os.path.join(workdir, f"inputs{r}", f"g{g}") for g in range(N_GRAPHS)]
        spec = {
            "src": SRC, "n_learners": w.n_learners, "n_courses": w.n_courses,
            "graphs": list(zip(graph_seeds(seed), dirs)),
        }
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, json.dumps(spec)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        seconds.append(float(proc.stdout.split()[-1]))
        copies.append(dirs)
    files = []
    for g, first in enumerate(copies[0]):
        names = sorted(os.listdir(first))
        for other in copies[1:]:
            for name in names:
                with open(os.path.join(first, name), "rb") as a, \
                        open(os.path.join(other[g], name), "rb") as b:
                    if a.read() != b.read():
                        raise RuntimeError(f"set-up is not deterministic: {name} of graph {g}")
        files.append({
            pipeline.RELATION_OF_FILE[name]: os.path.join(first, name) for name in names
        })
    return files, seconds


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for dirpath, _dirs, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
        "graph_seeds": graph_seeds(seed),
        "src_lines": src_lines,
    }


class Runner:
    """Runs and checks passes, counting attempts and failures."""

    def __init__(self, w: Workload, files: list[dict], workdir: str):
        self.w, self.files, self.workdir = w, files, workdir
        self.attempted = self.failed = 0
        self.quality: dict[int, tuple[float, float]] = {}

    def run(self, g: int, seed: int, rec: pipeline.Recorder, check=None):
        """One checked pass on graph g; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            result = pipeline.run_pass(self.w, seed, self.files[g], self.workdir, rec)
            problems = pipeline.check_outputs(result)
            if check is not None:
                problems += check(rec, result)
            quality = (result.ndcg, result.invalid_pct)
            if self.quality.setdefault(g, quality) != quality:
                problems.append(f"graph {g}: NDCG/invalid {quality} differ from {self.quality[g]}")
        except Exception:  # a failing pass is counted, and the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        result.artifacts = None
        if problems:
            self.failed += 1
            print(f"pass {self.attempted} failed {len(problems)} checks:", file=sys.stderr)
            for problem in problems[:20]:
                print(f"  {problem}", file=sys.stderr)
            return None
        return result


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def end_to_end(w: Workload, runner: Runner, seeds: list[int], seconds: float) -> dict:
    """Untraced passes over the graphs in turn until the time is spent.

    Each quantity is a median over the repeats of one graph, then a mean (or
    a ratio of sums) over the graphs, so that a costly graph weighs the same
    whether or not the time allowed a second pass on it.
    """
    by_graph: dict[int, list[pipeline.PassResult]] = {}
    start = time.perf_counter()
    i = 0
    while True:
        g = i % N_GRAPHS
        result = runner.run(g, seeds[g], pipeline.Recorder())
        if result is not None:
            by_graph.setdefault(g, []).append(result)
        i += 1
        now = time.perf_counter()
        done = [r.seconds for rs in by_graph.values() for r in rs]
        per_pass = _median(done) if done else (now - start) / i
        if i >= N_GRAPHS and now + per_pass > start + seconds:
            break
    if len(by_graph) < N_GRAPHS:
        return {}

    def per_graph(value) -> list[float]:
        return [_median([value(r) for r in rs]) for rs in by_graph.values()]

    def rate(work, stage: str) -> float:
        return sum(per_graph(work)) / sum(per_graph(lambda r: r.stage_s[stage]))

    epochs = w.embed["epochs"]
    pass_s = per_graph(lambda r: r.seconds)
    return {
        "pipeline_s": statistics.fmean(pass_s),
        "embed_triples_per_s": rate(lambda r: epochs * r.n_triples, "embeddings.train"),
        "agent_episodes_per_s": rate(lambda r: r.n_episodes, "policy.train"),
        "recommend_learners_per_s": rate(lambda r: r.n_learners, "inference.recommend"),
        "ndcg_at_10": statistics.fmean(q[0] for q in runner.quality.values()),
        "valid_user_pct": 100.0 - statistics.fmean(q[1] for q in runner.quality.values()),
        "_stage_share": {
            stage: sum(per_graph(lambda r: r.stage_s[stage])) / sum(pass_s)
            for stage in pipeline.STAGES
        },
        "_pass_s": {g: [round(r.seconds, 3) for r in rs] for g, rs in sorted(by_graph.items())},
    }


def per_layer(runner: Runner, seed: int, seconds: float, trace_path: str) -> dict:
    """Pairs of untraced and traced passes on graph 0 until the time is spent."""
    untraced, traced, layers = [], [], []

    def traced_checks(rec, result) -> list[str]:
        problems = tracing.trace_problems(rec)
        if layers:
            got = tracing.layer_metrics(rec, result)
            problems += [
                f"{name} is {got[name]} in a repeat traced pass, {layers[0][name]} before"
                for name in EXACT_COUNTS
                if got[name] != layers[0][name]
            ]
        return problems

    start = time.perf_counter()
    while True:
        result = runner.run(0, seed, pipeline.Recorder())
        if result is not None:
            untraced.append(result.seconds)
        rec = pipeline.Recorder()
        with tracing.traced(rec):
            result = runner.run(0, seed, rec, check=traced_checks)
        if result is not None:
            traced.append(result.seconds)
            layers.append(tracing.layer_metrics(rec, result))
            if len(layers) == 1:
                with open(trace_path, "w", encoding="utf-8") as fh:
                    for record in tracing.span_records(rec):
                        fh.write(json.dumps(record) + "\n")
        now = time.perf_counter()
        per_pair = (now - start) / (runner.attempted / 2)
        if now + per_pair > start + seconds:
            break
    if not layers or not untraced:
        return {}
    metrics = {name: _median([m[name] for m in layers]) for name in layers[0]}
    metrics["trace_overhead_pct"] = (_median(traced) / _median(untraced) - 1.0) * 100.0
    metrics["_trace_file"] = os.path.relpath(trace_path, ROOT)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrunken inputs, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke(w)

    scratch = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        files, setup_times = set_up(w, args.seed, workdir)
        runner = Runner(w, files, workdir)
        seeds = graph_seeds(args.seed)
        if args.trace:
            trace_path = os.path.join(scratch, f"trace-{args.workload}-s{args.seed}.jsonl")
            metrics = per_layer(runner, seeds[0], args.seconds, trace_path)
        else:
            metrics = end_to_end(w, runner, seeds, args.seconds)
            if metrics:
                metrics["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                )
                metrics["setup_s"] = _median(setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {k: metrics.pop(k) for k in [k for k in metrics if k.startswith("_")]}
    units = declared_units("per_layer" if args.trace else "end_to_end")
    correct = runner.failed == 0 and bool(metrics)
    if metrics and metrics.keys() != units.keys():
        print(f"metrics {sorted(metrics.keys() ^ units.keys())} are not both measured and "
              "declared in BENCHMARK.json", file=sys.stderr)
        correct = False
    failed_pct = 100.0 * runner.failed / max(runner.attempted, 1)
    print(f"workload {args.workload}  seed {args.seed}  passes {runner.attempted}  "
          f"failed_pct {failed_pct:.2f} %")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units.get(name, '?')}")
    print(json.dumps({"environment": environment(args.seed), **info}))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items() if name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
