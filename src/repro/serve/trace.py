"""Synthetic request traces.

A *trace* is a list of :class:`~repro.serve.scheduler.Request` objects
whose ``arrival`` fields are scheduler-step timestamps.
:func:`synthesize` draws one deterministically from a
:class:`TraceSpec` (geometric inter-arrivals, uniform prompt/budget
lengths, per-request sampling seeds), and
:meth:`~repro.serve.scheduler.Scheduler.run` replays it with arrival
semantics: requests become visible only once the step clock reaches
their arrival, and the clock ticks through idle gaps.  Replay is fully
deterministic for a fixed spec — the generated token streams depend
only on the seeds, never on wall-clock timing — which is what the CLI
``serve-sim`` subcommand and the trace-replay tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.serve.scheduler import Request


@dataclass(frozen=True)
class TraceSpec:
    """Parameters of a synthetic request trace.

    ``prompt_len`` and ``max_new`` are inclusive ``(lo, hi)`` ranges
    sampled uniformly; ``mean_interarrival`` is the mean gap between
    consecutive arrivals in scheduler steps (0 = all at once,
    otherwise geometric); ``top_k``/``temperature``/``eos_token``
    apply to every request (``top_k=None`` decodes greedily).

    ``shared_prefix_len``/``shared_fraction`` model the million-user
    prompt shape: with probability ``shared_fraction`` a request's
    prompt starts with one fixed ``shared_prefix_len``-token preamble
    (drawn once per spec — the "system prompt"), followed by its own
    random suffix.  Shared prompts are at least ``shared_prefix_len +
    1`` tokens long so every request still contributes a fresh final
    position.  ``shared_fraction=0`` (the default) leaves the token
    stream byte-identical to pre-prefix traces.
    """

    requests: int = 16
    seed: int = 0
    prompt_len: tuple[int, int] = (4, 24)
    max_new: tuple[int, int] = (4, 16)
    mean_interarrival: float = 2.0
    top_k: int | None = None
    temperature: float = 1.0
    eos_token: int | None = None
    shared_prefix_len: int = 0
    shared_fraction: float = 0.0


def synthesize(spec: TraceSpec, vocab: int, context_window: int) -> list[Request]:
    """Draw a deterministic trace within a model's limits.

    Prompt lengths are clamped so every request fits
    ``context_window``; request ``i`` samples with seed
    ``spec.seed * 10007 + i`` so replays are reproducible and requests
    are decorrelated.
    """
    if spec.requests < 1:
        raise ConfigError("a trace needs at least one request")
    lo_p, hi_p = spec.prompt_len
    lo_n, hi_n = spec.max_new
    if not (1 <= lo_p <= hi_p and 1 <= lo_n <= hi_n):
        raise ConfigError(f"invalid trace ranges in {spec}")
    if hi_n >= context_window:
        # Even a 1-token prompt could not fit prompt + max_new.
        raise ConfigError(
            f"max_new range up to {hi_n} cannot fit the context window "
            f"{context_window} alongside any prompt"
        )
    if spec.mean_interarrival < 0:
        raise ConfigError("mean_interarrival must be >= 0")
    if not 0.0 <= spec.shared_fraction <= 1.0:
        raise ConfigError("shared_fraction must lie in [0, 1]")
    shared = spec.shared_fraction > 0
    if shared:
        if spec.shared_prefix_len < 1:
            raise ConfigError(
                "shared_fraction > 0 needs shared_prefix_len >= 1"
            )
        if spec.shared_prefix_len + 1 + hi_n > context_window:
            raise ConfigError(
                f"shared prefix of {spec.shared_prefix_len} tokens plus a "
                f"suffix and max_new up to {hi_n} cannot fit the context "
                f"window {context_window}"
            )
    rng = np.random.default_rng(spec.seed)
    # The one preamble every shared request opens with; drawn only for
    # shared specs so shared_fraction=0 traces stay byte-identical.
    prefix = rng.integers(0, vocab, size=spec.shared_prefix_len) if shared else None
    requests = []
    arrival = 0
    for i in range(spec.requests):
        if i and spec.mean_interarrival > 0:
            p = min(1.0, 1.0 / spec.mean_interarrival)
            arrival += int(rng.geometric(p)) - 1
        max_new = int(rng.integers(lo_n, hi_n + 1))
        cap = max(1, min(hi_p, context_window - max_new))
        prompt_len = int(rng.integers(min(lo_p, cap), cap + 1))
        if shared and rng.random() < spec.shared_fraction:
            prompt_len = min(
                max(prompt_len, spec.shared_prefix_len + 1),
                context_window - max_new,
            )
            suffix = rng.integers(
                0, vocab, size=prompt_len - spec.shared_prefix_len
            )
            prompt = np.concatenate([prefix, suffix])
        else:
            prompt = rng.integers(0, vocab, size=prompt_len)
        requests.append(
            Request(
                prompt=prompt,
                max_new=max_new,
                top_k=spec.top_k,
                temperature=spec.temperature,
                seed=spec.seed * 10007 + i,
                eos_token=spec.eos_token,
                arrival=arrival,
            )
        )
    return requests
