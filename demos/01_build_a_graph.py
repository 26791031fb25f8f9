#!/usr/bin/env python3
"""Build a typed course knowledge graph and poke at its structure.

The graph is generated synthetically (clustered learners/courses), written
to the same TSV format real datasets are converted into, ingested back, and
inspected: vocabularies, inverse edges, deterministic adjacency, relation
composition, and byte-stable serialization.
"""

import tempfile
from pathlib import Path

from pathrec.kg import ingest, kg_composition, load_graph, save_graph
from pathrec.schema import EntityRef, inverse_of
from pathrec.synthetic import SynthConfig, write_tsvs


def main():
    with tempfile.TemporaryDirectory(prefix="pathrec-demo-") as tmp:
        build_and_inspect(Path(tmp))


def build_and_inspect(workdir: Path):
    cfg = SynthConfig(n_learners=50, n_courses=30, n_teachers=6, n_categories=3,
                      n_concepts=9, n_clusters=3, seed=7)

    print("== writing relation TSVs ==")
    files = write_tsvs(cfg, str(workdir / "data"))
    for rel, path in files.items():
        print(f"  {rel:<12} -> {path}")

    print("\n== ingesting ==")
    kg = ingest(files)
    for etype, count in kg.stats["entities"].items():
        if count:
            print(f"  {count:>5} x {etype}")
    for rel, count in kg.stats["relations"].items():
        if count:
            print(f"  {count:>5} {rel} edges (+ inverses)")

    print("\n== walking both directions ==")
    course = EntityRef("course", 0)
    print(f"  neighbors of course {kg.raw_id(course)!r} (canonical order):")
    for rel, tail in kg.neighbors(course)[:6]:
        print(f"    --{rel}--> {tail.entity_type} {kg.raw_id(tail)!r}")
    head, rel, tail = next(iter(kg.iter_triples()))
    print(f"  closure: ({kg.raw_id(head)}, {rel}, {kg.raw_id(tail)}) implies "
          f"({kg.raw_id(tail)}, {inverse_of(rel)}, {kg.raw_id(head)}): "
          f"{kg.has_triple(tail, inverse_of(rel), head)}")

    print("\n== relation composition (forward triples) ==")
    for rel, fraction in sorted(kg_composition(kg).items(), key=lambda kv: -kv[1]):
        print(f"  {rel:<12} {fraction * 100:5.1f}%")

    print("\n== serialization round trip ==")
    graph_path = workdir / "graph.kg"
    save_graph(kg, str(graph_path))
    reread = load_graph(str(graph_path))
    save_graph(reread, str(workdir / "graph2.kg"))
    identical = graph_path.read_bytes() == (workdir / "graph2.kg").read_bytes()
    print(f"  {graph_path} ({graph_path.stat().st_size} bytes), "
          f"byte-identical after reload: {identical}")


if __name__ == "__main__":
    main()
