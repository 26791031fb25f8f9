"""Exception types shared across the package, and the readers that map
undecodable or truncated input onto them."""

import os
from contextlib import contextmanager


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
