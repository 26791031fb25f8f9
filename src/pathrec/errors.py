"""Exception types shared across the package, and the text reader that maps
undecodable input onto them."""

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
