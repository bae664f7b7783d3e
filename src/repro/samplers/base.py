"""Common sampler interface and the library-wide batch-update engine.

Every sampler in the library — substrates, baselines, and the paper's new
algorithms — implements the :class:`StreamingSampler` protocol so that the
evaluation harness, the benchmarks, and the examples can drive them
uniformly:

* ``update(index, delta)`` processes one turnstile update;
* ``update_batch(indices, deltas)`` processes a whole batch of updates in
  one call (see *Batched ingest* below);
* ``update_stream(stream)`` replays a whole stream;
* ``sample()`` returns a :class:`Sample` or ``None`` (the paper's ``FAIL`` /
  ``⊥`` symbol);
* ``space_counters()`` reports the number of stored counters/registers for
  the space-scaling experiments.

Batched ingest
--------------
``update_batch(indices, deltas)`` takes parallel arrays (anything
``np.asarray`` accepts) and applies all updates at once.  Because every
sketching substrate in the library is a *linear* function of the stream,
the batch can be aggregated with a handful of numpy operations — per-row
scatter-adds for bucketed tables (CountSketch/CountMin), dense
sign-matrix accumulation for AMS, matrix products for ``p``-stable
projections, vectorised Mersenne-prime fingerprints for sparse recovery —
instead of one Python round-trip per update.  The semantics are exactly
those of replaying ``update`` over the batch in order:

* an empty batch is a no-op;
* mismatched ``indices``/``deltas`` lengths raise
  :class:`~repro.exceptions.InvalidParameterError`;
* out-of-range indices are rejected with the same exception type as the
  scalar path;
* order-sensitive samplers (reservoirs, exponential races) inherit a
  fallback that replays scalar updates in stream order, so their internal
  randomness is consumed identically.

``update_stream`` is implemented exactly once, by :func:`replay_stream`:
it extracts ``(indices, deltas)`` arrays from the stream and feeds them to
``update_batch`` in chunks of ``batch_size`` (default
:data:`DEFAULT_BATCH_SIZE`).  Classes obtain both methods by inheriting
:class:`BatchUpdateMixin`.  The implementation lives in
:mod:`repro.utils.batching` (imported from both the ``sketch`` and
``samplers`` packages without cycles); this module is the documented
surface and re-exports every name.

>>> import numpy as np
>>> from repro.sketch.countsketch import CountSketch
>>> sketch = CountSketch(16, buckets=8, rows=3, seed=0)
>>> sketch.update_batch([1, 5, 1], [2.0, -1.0, 3.0])   # one vectorised call
>>> round(sketch.estimate(1))
5

Returning ``None`` (rather than raising) on failure mirrors Definition 1.1,
where a sampler may output ``⊥`` with bounded probability; callers that need
a sample simply retry with a fresh sampler or draw again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol, runtime_checkable

import numpy as np

from repro.streams.stream import TurnstileStream
from repro.utils.batching import (
    DEFAULT_BATCH_SIZE,
    BatchUpdateMixin,
    check_batch_bounds,
    coerce_batch,
    iter_batches,
    replay_stream,
    require_finite_delta,
    stream_arrays,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "BatchUpdateMixin",
    "Sample",
    "StreamingSampler",
    "check_batch_bounds",
    "coerce_batch",
    "collect_samples",
    "iter_batches",
    "replay_stream",
    "require_finite_delta",
    "stream_arrays",
]


@dataclass(frozen=True)
class Sample:
    """The outcome of a successful sampler query.

    Attributes
    ----------
    index:
        The sampled coordinate ``i* in [0, n)``.
    value_estimate:
        Estimate of ``x_{i*}`` when the sampler provides one (the paper's
        ``(1 + eps)``-estimation guarantee); ``None`` otherwise.
    exact_value:
        The exact coordinate value when the sampler recovers it exactly
        (the ``L_0`` sampler of Theorem 5.4 does); ``None`` otherwise.
    weight:
        Sampler-specific weight attached to the draw, e.g. the
        accepted-probability normalisation used by rejection samplers or
        importance weights used by estimators built on the sampler.
    metadata:
        Free-form diagnostic information (number of rejection rounds,
        which subsampling level succeeded, gap-test margins, ...).
    """

    index: int
    value_estimate: Optional[float] = None
    exact_value: Optional[float] = None
    weight: float = 1.0
    metadata: dict = field(default_factory=dict)


@runtime_checkable
class StreamingSampler(Protocol):
    """Protocol implemented by every sampler in the library."""

    def update(self, index: int, delta: float) -> None:
        """Process a single turnstile update."""

    def update_batch(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Process a batch of turnstile updates in one call."""

    def update_stream(self, stream: TurnstileStream | Iterable) -> None:
        """Replay a whole stream of updates."""

    def sample(self) -> Optional[Sample]:
        """Return a draw, or ``None`` for the failure symbol ``⊥``."""

    def space_counters(self) -> int:
        """Number of stored counters/registers (for space experiments)."""


def collect_samples(factory, num_samples: int, *, max_attempts_per_sample: int = 8,
                    stream: TurnstileStream | None = None) -> list[Optional[Sample]]:
    """Draw ``num_samples`` samples, rebuilding a sampler for each draw.

    Perfect samplers of the paper are one-shot objects: their randomness
    (exponential scalings, hash functions) is baked in at construction time
    and a single maximum/rejection decision is extracted at query time.
    Experiments that need many independent draws therefore construct many
    independent sampler instances.  ``factory(seed_index)`` must return a
    fresh, un-updated sampler; if ``stream`` is given it is replayed into
    every instance.

    ``None`` entries in the result correspond to samplers that failed
    ``max_attempts_per_sample`` times in a row.
    """
    samples: list[Optional[Sample]] = []
    for draw in range(num_samples):
        result: Optional[Sample] = None
        for attempt in range(max_attempts_per_sample):
            sampler = factory(draw * max_attempts_per_sample + attempt)
            if stream is not None:
                sampler.update_stream(stream)
            result = sampler.sample()
            if result is not None:
                break
        samples.append(result)
    return samples
