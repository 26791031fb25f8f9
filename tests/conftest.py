import numpy as np
import pytest
from hypothesis import settings

from pathrec.embeddings import EmbedConfig, train_embeddings
from pathrec.kg import KnowledgeGraph, split_enrollments, training_graph
from pathrec.synthetic import SynthConfig, generate

# the same examples on every run, and no per-example deadline: a shared
# machine's timing noise must not decide whether the suite passes
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

# desk-scale settings shared by the pipeline-level tests; module defaults
# target full datasets and are exercised separately
DESK_EMBED = EmbedConfig(d=24, epochs=40, learning_rate=5e-3, batch_size=256, seed=0)


def make_tiny_kg(with_school: bool = False) -> KnowledgeGraph:
    """Hand-built 16-entity graph with stable indices (vocab position = index)."""
    vocab = {
        "learner": ["u0", "u1", "u2", "u3"],
        "course": ["c0", "c1", "c2", "c3", "c4", "c5"],
        "teacher": ["t0", "t1"],
        "category": ["g0", "g1"],
        "concept": ["k0", "k1"],
        "school": ["s0"] if with_school else [],
    }
    edges = {
        "enrolled": {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 2), (2, 3), (3, 4)},
        "teaches": {(0, 0), (0, 1), (0, 4), (1, 2), (1, 3), (1, 5)},
        "belongs_to": {(0, 0), (1, 0), (2, 1), (3, 1), (4, 1), (5, 1)},
        "has_concept": {(0, 0), (2, 0), (2, 1), (5, 1)},
    }
    if with_school:
        edges["provides"] = {(0, 0), (0, 3)}
    return KnowledgeGraph(vocab, edges)


def put_bad_byte(path, at: int) -> str:
    """Overwrite byte `at` of the file with 0xff, which no UTF-8 text contains."""
    data = bytearray(path.read_bytes())
    data[at] = 0xFF
    path.write_bytes(bytes(data))
    return str(path)


def flip_bit(path, at: int, bit: int) -> str:
    """Flip one bit of the file, at a byte offset taken modulo its size."""
    data = bytearray(path.read_bytes())
    data[at % len(data)] ^= 1 << bit
    path.write_bytes(bytes(data))
    return str(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture
def tiny_kg() -> KnowledgeGraph:
    return make_tiny_kg()


@pytest.fixture(scope="session")
def synth_kg() -> KnowledgeGraph:
    return generate(SynthConfig())


@pytest.fixture(scope="session")
def synth_split(synth_kg):
    return split_enrollments(synth_kg, seed=1)


@pytest.fixture(scope="session")
def synth_train_graph(synth_kg, synth_split):
    return training_graph(synth_kg, synth_split)


@pytest.fixture(scope="session")
def synth_table(synth_train_graph):
    table, losses = train_embeddings(synth_train_graph, DESK_EMBED)
    assert all(np.isfinite(losses))
    return table
