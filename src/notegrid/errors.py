"""Exception types shared across the package."""

from __future__ import annotations


class NotegridError(Exception):
    """Base class for all errors raised by notegrid."""


class FormatError(NotegridError):
    """Input bytes or text do not conform to the expected file format."""


class RangeError(NotegridError):
    """A parsed value lies outside its permitted range."""


class ValidationError(NotegridError):
    """Parsed data violates a domain invariant (e.g. zero-length note)."""


class UnsupportedError(NotegridError):
    """The input is well-formed but uses a feature we do not support."""


class ContractError(NotegridError):
    """A function was called with arguments violating its contract."""


class DivergenceError(NotegridError):
    """Training produced a non-finite loss.

    Carries the epoch and batch index where divergence was detected, and
    the indices of the stacked models that diverged there, so batch
    drivers can report which run failed.
    """

    def __init__(self, message: str, *, epoch: int | None = None,
                 batch: int | None = None, models: tuple[int, ...] | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.models = models
