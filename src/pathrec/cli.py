"""Command-line front end chaining the pipeline from TSVs to reports.

Every subcommand reads one flat config file; artifacts land in the config's
output directory with per-seed suffixes. Errors exit with distinct codes:
2 config, 3 missing file, 4 checkpoint mismatch, 5 bad data, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import kg as kgmod
from . import synthetic
from .config import RunConfig, default_config_text, load_config
from .embeddings import load_embeddings, save_embeddings, train_embeddings
from .environment import PathEnv, RewardSpec, load_pattern_whitelist
from .errors import (
    CheckpointMismatchError, ConfigError, DataError, PathrecError, atomic_write,
)
from .inference import load_recommendations, recommend_all, write_recommendations
from .metrics import (
    MetricsReport,
    evaluate,
    format_report_table,
    mf_baseline,
    pop_lists,
    save_report_json,
)
from .patterns import (
    format_frequency_block,
    frequency_report,
    render_path,
    render_path_dot,
    save_frequency_csv,
)
from .policy import load_policy, save_policy, train_agent

TSV_NAMES = {
    "enrolled": "enrollments.tsv",
    "teaches": "teaches.tsv",
    "has_concept": "has_concept.tsv",
    "belongs_to": "belongs_to.tsv",
    "provides": "provides.tsv",
}


def _out(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _graph_path(cfg: RunConfig) -> str:
    return _out(cfg, "graph.kg")


def _split_path(cfg: RunConfig) -> str:
    return _out(cfg, "split.tsv")


def _load_graph_and_split(cfg: RunConfig):
    graph = kgmod.load_graph(_graph_path(cfg))
    split = kgmod.load_split(_split_path(cfg), graph, seed=cfg.split_seed,
                             ratios=tuple(cfg.split_ratios))
    return graph, split


def _reward_spec(cfg: RunConfig, split, table) -> RewardSpec:
    whitelist = None
    if cfg.reward_mode == "pgpr":
        if not cfg.reward_pattern_whitelist:
            raise ConfigError("reward.mode = pgpr requires reward.pattern_whitelist")
        whitelist = load_pattern_whitelist(cfg.reward_pattern_whitelist)
    return RewardSpec(
        mode=cfg.reward_mode,
        train_enrollments=split.train_course_sets(),
        pattern_whitelist=whitelist,
        embeddings=table if cfg.reward_mode == "pgpr" else None,
    )


def _check_embedding(cfg: RunConfig, table, emb_cfg, graph) -> None:
    if emb_cfg.d != cfg.embed.d:
        raise CheckpointMismatchError(
            f"embedding checkpoint has d={emb_cfg.d}, config asks embed.d={cfg.embed.d}"
        )
    if not table.matches(graph):
        raise CheckpointMismatchError("embedding vocab sizes do not match the graph")


def cmd_synth(cfg: RunConfig, args) -> int:
    paths = synthetic.write_tsvs(cfg.synth, cfg.data_dir)
    print(f"wrote {len(paths)} relation files under {cfg.data_dir}")
    return 0


def cmd_ingest(cfg: RunConfig, args) -> int:
    files = {}
    for rel, name in TSV_NAMES.items():
        path = os.path.join(cfg.data_dir, name)
        if os.path.exists(path):
            files[rel] = path
    if "enrolled" not in files:
        raise FileNotFoundError(os.path.join(cfg.data_dir, TSV_NAMES["enrolled"]))
    graph = kgmod.ingest(files)
    graph = kgmod.filter_learners(graph, cfg.min_enrollments)
    kgmod.save_graph(graph, _graph_path(cfg))
    stats = graph.stats
    print(f"graph: {stats['entities']}")
    print(f"relations: {stats['relations']}")
    print(f"saved {_graph_path(cfg)}")
    return 0


def cmd_split(cfg: RunConfig, args) -> int:
    graph = kgmod.load_graph(_graph_path(cfg))
    split = kgmod.split_enrollments(graph, tuple(cfg.split_ratios), cfg.split_seed)
    kgmod.save_split(split, graph, _split_path(cfg))
    n_train = sum(len(v) for v in split.train.values())
    n_val = sum(len(v) for v in split.validation.values())
    n_test = sum(len(v) for v in split.test.values())
    print(f"split enrollments: train={n_train} val={n_val} test={n_test}")
    print(f"saved {_split_path(cfg)}")
    return 0


def cmd_train_embed(cfg: RunConfig, args) -> int:
    graph, split = _load_graph_and_split(cfg)
    train_graph = kgmod.training_graph(graph, split)
    emb_cfg = cfg.embed_config(args.seed)
    table, losses = train_embeddings(train_graph, emb_cfg)
    path = _out(cfg, f"embeddings_s{args.seed}.emb")
    save_embeddings(table, path, emb_cfg)
    print(f"epoch losses: first={losses[0]:.4f} last={losses[-1]:.4f}" if losses else "no epochs")
    print(f"saved {path}")
    return 0


def cmd_train_agent(cfg: RunConfig, args) -> int:
    graph, split = _load_graph_and_split(cfg)
    table, emb_cfg = load_embeddings(_out(cfg, f"embeddings_s{args.seed}.emb"))
    _check_embedding(cfg, table, emb_cfg, graph)
    train_graph = kgmod.training_graph(graph, split)
    agent_cfg = cfg.agent_config(args.seed)
    spec = _reward_spec(cfg, split, table)
    params, log = train_agent(train_graph, table, agent_cfg, spec)
    pol_path = _out(cfg, f"policy_s{args.seed}.pol")
    save_policy(params, pol_path, agent_cfg, table.d)
    log.to_csv(_out(cfg, f"agent_log_s{args.seed}.csv"))
    if log.mean_reward:
        print(f"mean reward: epoch1={log.mean_reward[0]:.4f} "
              f"epoch{log.epochs[-1]}={log.mean_reward[-1]:.4f}")
    print(f"saved {pol_path}")
    return 0


def cmd_recommend(cfg: RunConfig, args) -> int:
    graph, split = _load_graph_and_split(cfg)
    table, emb_cfg = load_embeddings(_out(cfg, f"embeddings_s{args.seed}.emb"))
    _check_embedding(cfg, table, emb_cfg, graph)
    params, agent_cfg, d = load_policy(_out(cfg, f"policy_s{args.seed}.pol"))
    if d != table.d:
        raise CheckpointMismatchError(
            f"policy checkpoint expects d={d}, embeddings have d={table.d}"
        )
    if agent_cfg.max_hops_eval != cfg.agent.max_hops_eval:
        raise CheckpointMismatchError(
            f"policy was trained for {agent_cfg.max_hops_eval} hops, "
            f"config asks {cfg.agent.max_hops_eval}"
        )
    train_graph = kgmod.training_graph(graph, split)
    env = PathEnv(train_graph, table, agent_cfg.max_actions, agent_cfg.history)
    widths = cfg.widths()
    if len(widths) != cfg.agent.max_hops_eval:
        raise ConfigError(
            f"beam.widths must list {cfg.agent.max_hops_eval} widths, got {len(widths)}"
        )
    lists, invalid = recommend_all(
        train_graph.learners(), env, params, split.train_course_sets(), widths, n=cfg.eval_k
    )
    rec_path = _out(cfg, f"recommendations_s{args.seed}.jsonl")
    write_recommendations(lists, graph, rec_path)
    print(f"invalid-user fraction: {invalid * 100:.2f}%")
    print(f"saved {rec_path}")
    return 0


def cmd_evaluate(cfg: RunConfig, args) -> int:
    graph, split = _load_graph_and_split(cfg)
    rec_path = args.recommendations or _out(cfg, f"recommendations_s{args.seed}.jsonl")
    lists = load_recommendations(rec_path, graph, n=cfg.eval_k)
    run = evaluate(lists, split, k=cfg.eval_k)
    model_name = "UPGPR" if cfg.reward_mode == "binary" else "PGPR"
    report = MetricsReport.aggregate(model_name, "Path-Based", cfg.agent.max_hops_eval, [run])
    save_report_json([report], _out(cfg, f"metrics_s{args.seed}.json"))
    print(format_report_table([report]))
    return 0


def cmd_patterns(cfg: RunConfig, args) -> int:
    graph, split = _load_graph_and_split(cfg)
    rec_path = args.recommendations or _out(cfg, f"recommendations_s{args.seed}.jsonl")
    lists = load_recommendations(rec_path, graph, n=cfg.eval_k)
    paths = [
        item.best_path
        for learner_idx, courses in sorted(split.test.items())
        if courses and learner_idx in lists
        for item in lists[learner_idx].items
        if item.best_path is not None
    ]
    rows = frequency_report(paths)
    csv_path = _out(cfg, f"patterns_s{args.seed}.csv")
    save_frequency_csv(rows, csv_path)
    print(format_frequency_block(rows))
    print(f"saved {csv_path}")
    return 0


def cmd_explain(cfg: RunConfig, args) -> int:
    graph, _split = _load_graph_and_split(cfg)
    rec_path = args.recommendations or _out(cfg, f"recommendations_s{args.seed}.jsonl")
    lists = load_recommendations(rec_path, graph, n=cfg.eval_k)
    learner = graph.entity("learner", args.learner)
    rec = lists.get(learner.index)
    if rec is None:
        raise DataError(f"no recommendations stored for learner {args.learner!r}")
    if not 1 <= args.rank <= len(rec.items):
        raise DataError(f"rank {args.rank} out of range (list has {len(rec.items)} items)")
    item = rec.items[args.rank - 1]
    if item.best_path is None:
        raise DataError("stored item carries no explanation path")
    if args.format == "dot":
        print(render_path_dot(item.best_path, graph))
    else:
        print(render_path(item.best_path, graph))
    return 0


def cmd_run_all(cfg: RunConfig, args) -> int:
    if not os.path.exists(_graph_path(cfg)):
        cmd_ingest(cfg, args)
    if not os.path.exists(_split_path(cfg)):
        cmd_split(cfg, args)
    graph, split = _load_graph_and_split(cfg)
    n_courses = graph.n_entities("course")
    seeds = [cfg.run_base_seed + i for i in range(cfg.run_seeds)]

    pop_run = evaluate(pop_lists(split, n_courses, cfg.eval_k), split, cfg.eval_k)
    reports = [MetricsReport.aggregate("Pop", "Popularity", None, [pop_run] * len(seeds))]

    mf_runs = []
    for seed in seeds:
        ranked = mf_baseline(
            split, n_courses, cfg.mf_factors, cfg.mf_epochs,
            cfg.mf_learning_rate, seed=seed, k=cfg.eval_k,
        )
        mf_runs.append(evaluate(ranked, split, cfg.eval_k))
    reports.append(MetricsReport.aggregate("MF", "Collaborative Filtering", None, mf_runs))

    model_name = "UPGPR" if cfg.reward_mode == "binary" else "PGPR"
    agent_runs = []
    for seed in seeds:
        ns = argparse.Namespace(seed=seed, recommendations=None)
        cmd_train_embed(cfg, ns)
        cmd_train_agent(cfg, ns)
        cmd_recommend(cfg, ns)
        lists = load_recommendations(
            _out(cfg, f"recommendations_s{seed}.jsonl"), graph, n=cfg.eval_k
        )
        agent_runs.append(evaluate(lists, split, cfg.eval_k))
    reports.append(
        MetricsReport.aggregate(model_name, "Path-Based", cfg.agent.max_hops_eval, agent_runs)
    )

    save_report_json(reports, _out(cfg, "metrics.json"))
    table = format_report_table(reports)
    with atomic_write(_out(cfg, "metrics.txt")) as fh:
        fh.write(table + "\n")
    print(table)
    print(f"saved {_out(cfg, 'metrics.json')}")
    return 0


def cmd_init_config(cfg: RunConfig, args) -> int:
    sys.stdout.write(default_config_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathrec",
        description="Explainable course recommendation via path reasoning over a knowledge graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "synth": (cmd_synth, "generate a synthetic dataset's TSV files"),
        "ingest": (cmd_ingest, "build, filter and store the knowledge graph"),
        "split": (cmd_split, "write per-learner train/val/test enrollment splits"),
        "train-embed": (cmd_train_embed, "train entity/relation embeddings"),
        "train-agent": (cmd_train_agent, "train the path-walking policy"),
        "recommend": (cmd_recommend, "beam-search top-K recommendations with paths"),
        "evaluate": (cmd_evaluate, "score stored recommendations against the test split"),
        "patterns": (cmd_patterns, "report path-pattern frequencies"),
        "explain": (cmd_explain, "render one stored recommendation's path"),
        "run-all": (cmd_run_all, "chain the full pipeline over several seeds"),
        "init-config": (cmd_init_config, "print a config file with all defaults"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--config", default="pathrec.ini", help="run configuration file")
        if name not in ("synth", "init-config"):
            p.add_argument("--seed", type=int, default=None,
                           help="run seed (default: run.base_seed)")
        if name in ("evaluate", "patterns", "explain"):
            p.add_argument("--recommendations", default=None,
                           help="recommendations JSONL (default: per-seed artifact)")
        if name == "explain":
            p.add_argument("--learner", required=True, help="raw learner id")
            p.add_argument("--rank", type=int, default=1, help="1-based item rank")
            p.add_argument("--format", choices=("text", "dot"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.fn is cmd_init_config:
            cfg = RunConfig()
        else:
            cfg = load_config(args.config)
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = cfg.run_base_seed
        if not hasattr(args, "recommendations"):
            args.recommendations = None
        return args.fn(cfg, args)
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        missing = exc.filename if exc.filename else exc
        print(f"error[missing-file]: {missing}", file=sys.stderr)
        return 3
    except CheckpointMismatchError as exc:
        print(f"error[checkpoint-mismatch]: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return 5
    except PathrecError as exc:
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
