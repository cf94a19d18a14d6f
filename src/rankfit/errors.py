"""Exception hierarchy shared across the toolkit.

Everything raised on purpose derives from RankfitError, so callers (and the
CLI) can separate data/config problems (exit code 2) from genuine bugs.
"""

from __future__ import annotations


class RankfitError(Exception):
    """Base class for all toolkit errors."""


class MalformedRecord(RankfitError):
    """A line in a jsonl file could not be parsed or fails schema checks."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateId(MalformedRecord):
    """An identifier appears more than once where uniqueness is required."""


class UnknownDocument(MalformedRecord):
    """A referenced document id is not in the corpus, or is not of the kind required."""


class EmptyPool(MalformedRecord):
    """A retrieval pool has no candidates."""


class InvalidK(RankfitError):
    """A metric cutoff k is zero or negative."""


class NoPositives(RankfitError):
    """A relevance vector contains no positive entry; callers must pre-filter."""


class InvalidNdcg(RankfitError):
    """An nDCG value passed to the reward is outside its valid range."""


class UnknownCandidate(RankfitError):
    """A candidate id is not part of the window it was answered for."""


class EmptyGroup(RankfitError):
    """A reward group is empty."""


class MissingDifficulty(RankfitError):
    """A difficulty-dependent filter ran on a window without a difficulty score."""


class MalformedAnswer(RankfitError):
    """A ranker answer has no usable <answer> block."""


class InvalidOrdering(RankfitError):
    """An ordering is not a permutation of the expected candidate set."""


class NumericalError(RankfitError):
    """A gradient or objective became non-finite."""

    def __init__(self, message: str, window_id: str | None = None):
        self.window_id = window_id
        if window_id is not None:
            message = f"{message} (window {window_id})"
        super().__init__(message)


class ConfigError(RankfitError):
    """Invalid configuration, missing paths, or fatal endpoint misconfiguration."""


def check_fields(obj, names, kind, ok, rule: str, prefix: str = "") -> None:
    """Raise ConfigError unless each field ``names`` of ``obj`` is a ``kind`` that passes ``ok``.

    ``float`` also takes an int, and a bool is never a number. The error
    reads ``<prefix><name> must be <rule>, got <value>``.
    """
    kinds = (int, float) if kind is float else kind
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, kinds) or not ok(value):
            raise ConfigError(f"{prefix}{name} must be {rule}, got {value!r}")
