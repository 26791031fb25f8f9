"""Exception types shared across the package, the readers that map
undecodable or truncated input onto them, and the one writer of artifacts."""

import os
from contextlib import contextmanager, suppress


class PathrecError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(PathrecError):
    """Invalid configuration value, unknown key, or inconsistent options."""


class DataError(PathrecError):
    """Malformed or contradictory input data (bad TSV line, empty graph, ...)."""


class CheckpointMismatchError(PathrecError):
    """A checkpoint's embedded config disagrees with the requested one."""


class DivergenceError(PathrecError):
    """Training produced a non-finite loss or gradient."""


@contextmanager
def open_text(path: str, error: type[PathrecError] = DataError):
    """Open `path` as UTF-8 text; a byte that does not decode raises `error`."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_declared(fh, n: int, path: str) -> bytes:
    """The next `n` bytes of binary file `fh`, where `n` is a size the file itself
    declares; a size past the end of the file raises DataError before any read."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if not 0 <= n <= left:
        raise DataError(f"{path}: a field declares {n} bytes, but {left} remain")
    return fh.read(n)


@contextmanager
def atomic_write(path: str, binary: bool = False):
    """Write `path` through a temporary file beside it, which replaces `path` in
    one `os.replace` when the block completes. If the block raises, the
    temporary file is removed and `path` keeps its old content (or stays
    absent). Text is UTF-8 with "\\n" line ends. There is no fsync: this guards
    against a failing run, not against power loss."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        if binary:
            fh = open(tmp, "xb")
        else:
            fh = open(tmp, "x", encoding="utf-8", newline="\n")
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
