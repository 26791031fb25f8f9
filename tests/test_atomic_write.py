"""Artifacts are written through a temporary file and one `os.replace`, so a
write that fails part way leaves the previous file as it was."""

import os

import numpy as np
import pytest

from pathrec.errors import atomic_write
from pathrec.inference import RecommendationList, write_recommendations
from pathrec.patterns import save_frequency_csv
from pathrec.policy import AgentConfig, TrainingLog, save_policy
from pathrec.schema import EntityRef

from conftest import make_tiny_kg

OLD = b"the previous artifact\n"


def files_in(directory):
    return sorted(os.listdir(directory))


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("binary", [False, True])
def test_error_mid_write_keeps_old_file_and_leaves_no_temp(tmp_path, binary, error):
    path = tmp_path / "artifact"
    path.write_bytes(OLD)
    with pytest.raises(error):
        with atomic_write(str(path), binary=binary) as fh:
            fh.write(b"half of the new" if binary else "half of the new")
            fh.flush()
            raise error()
    assert path.read_bytes() == OLD
    assert files_in(tmp_path) == ["artifact"]


def test_completed_write_replaces_file_with_plain_open_mode(tmp_path):
    path, plain = tmp_path / "artifact", tmp_path / "plain"
    path.write_bytes(OLD)
    with atomic_write(str(path)) as fh:
        fh.write("line one\nline two\n")
    with open(plain, "w", encoding="utf-8") as fh:
        fh.write("x")
    assert path.read_bytes() == b"line one\nline two\n"
    assert os.stat(path).st_mode == os.stat(plain).st_mode
    assert files_in(tmp_path) == ["artifact", "plain"]


def test_failed_first_write_leaves_no_file(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(str(tmp_path / "new")) as fh:
            fh.write("partial")
            raise RuntimeError()
    assert files_in(tmp_path) == []


def failing_policy_save(path):
    # the second tensor is not an array, so the write fails after the first
    params = {"a": np.zeros(3), "b": "not a tensor"}
    save_policy(params, path, AgentConfig(), 4)


def failing_recommendations_write(path):
    lists = {
        0: RecommendationList(EntityRef("learner", 0), (), 10),
        1: RecommendationList(EntityRef("learner", 99), (), 10),  # not in the graph
    }
    write_recommendations(lists, make_tiny_kg(), path)


def failing_csv_log(path):
    log = TrainingLog([1, 2], [0.5, "not a number"], [0.1, 0.2])
    log.to_csv(path)


def failing_frequency_csv(path):
    save_frequency_csv([(None, 1, 1.0)], path)


@pytest.mark.parametrize(
    "write", [failing_policy_save, failing_recommendations_write, failing_csv_log,
              failing_frequency_csv],
)
def test_failing_writer_keeps_old_artifact(tmp_path, write):
    path = tmp_path / "artifact"
    path.write_bytes(OLD)
    with pytest.raises((AttributeError, KeyError, ValueError)):
        write(str(path))
    assert path.read_bytes() == OLD
    assert files_in(tmp_path) == ["artifact"]
