"""Exception types shared across the :mod:`repro` package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """An architecture / experiment configuration is inconsistent."""


class QuantizationError(ReproError):
    """A quantization or packing request cannot be satisfied."""


class SimulationError(ReproError):
    """The SIMT simulator was driven into an invalid state."""


class EncodingError(ReproError):
    """A value cannot be represented in the requested bit-level format."""


class RequestError(ReproError, ValueError):
    """A serving request cannot be admitted (e.g. prompt exceeds the
    model context window).

    Also a :class:`ValueError`, so callers holding only the request —
    not the library's error types — can catch rejection idiomatically.
    """


class KernelBuildError(ReproError):
    """The engine's C kernel could not be compiled or loaded.

    Names the compiler command and carries its stderr.
    """
