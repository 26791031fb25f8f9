"""Explainable course recommendation by path reasoning over a knowledge graph.

The pipeline: build a typed knowledge graph from enrollment and course
metadata, train translational embeddings on the training split, train a
REINFORCE agent whose binary reward pays for multi-hop paths ending on a
held course, then beam-search top-K recommendations whose explanation is
the path itself.
"""

from .embeddings import (
    EmbedConfig,
    EmbeddingTable,
    init_embeddings,
    load_embeddings,
    save_embeddings,
    train_embeddings,
)
from .environment import Path, PathEnv, RewardSpec, load_pattern_whitelist, reward
from .errors import (
    CheckpointMismatchError,
    ConfigError,
    DataError,
    DivergenceError,
    PathrecError,
)
from .inference import (
    Beam,
    RecommendationList,
    RecommendedItem,
    beam_search,
    rank_candidates,
    recommend_all,
)
from .kg import (
    EnrollmentSplit,
    KnowledgeGraph,
    filter_learners,
    ingest,
    kg_composition,
    load_graph,
    save_graph,
    split_enrollments,
    training_graph,
)
from .metrics import (
    MetricsReport,
    RunMetrics,
    evaluate,
    metrics_at_k,
    mf_baseline,
    pop_baseline,
    pop_lists,
)
from .patterns import PathPattern, enumerate_patterns, frequency_report, pattern_of
from .policy import (
    AgentConfig,
    load_policy,
    policy_forward,
    reinforce_update,
    sample_episode,
    save_policy,
    train_agent,
)
from .schema import SELF_LOOP, EntityRef
from .synthetic import SynthConfig, generate, write_tsvs

__version__ = "0.1.0"
