"""The benchmark's workloads: one synthetic graph shape, three model shapes.

Every workload uses the same generated graph shape, so the `kg` and
`metrics` layers cost the same on all of them and act as controls. Only the
model width and the hop shape change. BENCHMARK.json and README.md give the
reason for each.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Workload:
    name: str
    # graph (pathrec.SynthConfig fields; the seed comes from --seed)
    n_learners: int = 64
    n_courses: int = 60
    # embeddings (pathrec.EmbedConfig fields)
    embed: dict = field(default_factory=dict)
    # agent (pathrec.AgentConfig fields)
    agent: dict = field(default_factory=dict)
    widths: tuple[int, ...] = (25, 10, 10)


# Settings every workload shares: the CLI defaults.
K = 10
MIN_ENROLLMENTS = 10
SPLIT_RATIOS = (0.8, 0.1, 0.1)
MF_FACTORS, MF_EPOCHS, MF_LEARNING_RATE = 32, 30, 0.05


DESK_EMBED = {"d": 24, "epochs": 40, "learning_rate": 5e-3, "batch_size": 256}
DESK_AGENT = {"hidden": 64, "batch_episodes": 128, "epochs": 5, "max_hops_eval": 3}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            embed=DESK_EMBED,
            agent=DESK_AGENT,
        ),
        Workload(
            name="paper-width",  # the hidden-512 / d-100 shape of PGPR
            embed={**DESK_EMBED, "d": 100, "batch_size": 512},
            agent={**DESK_AGENT, "hidden": 512, "batch_episodes": 512},
        ),
        Workload(
            name="deep",  # the shipped 5-hop beams
            embed=DESK_EMBED,
            agent={**DESK_AGENT, "max_hops_eval": 5},
            widths=(25, 5, 5, 5, 1),
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same workload shrunk to run in a second or two, for tests."""
    return replace(
        w,
        n_learners=24,
        n_courses=20,
        embed={**w.embed, "epochs": 2},
        agent={**w.agent, "epochs": 1, "hidden": min(w.agent["hidden"], 32)},
    )
