"""Reservoir sampling [Vit85].

Reservoir sampling is the classical *truly perfect* ``L_1`` sampler for
insertion-only streams (Table 1, first comparison row): it keeps a single
item (or ``k`` items) chosen uniformly at random among all unit increments
seen so far, using ``O(log n)`` bits, with zero distortion and no additive
error.  It fundamentally cannot handle deletions, which is exactly the gap
the paper's turnstile samplers fill; the library includes it so benchmarks
and examples can demonstrate that gap.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import StreamError
from repro.samplers.base import BatchUpdateMixin, Sample, coerce_batch, require_finite_delta
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_positive_int


class ReservoirL1Sampler(BatchUpdateMixin):
    """Weighted reservoir sampler over an insertion-only stream.

    Each update ``(i, delta)`` with ``delta > 0`` is treated as ``delta``
    units of mass for item ``i``; the reservoir retains one item with
    probability proportional to its total mass, i.e. an exact ``L_1``
    sample.  Negative updates raise :class:`StreamError`, documenting the
    insertion-only limitation.
    """

    def __init__(self, n: int, seed: SeedLike = None) -> None:
        require_positive_int(n, "n")
        self._n = n
        self._rng = ensure_rng(seed)
        self._total_mass = 0.0
        self._current_index: Optional[int] = None
        self._current_mass = 0.0

    def update(self, index: int, delta: float) -> None:
        """Process one insertion; deletions are rejected."""
        require_finite_delta(delta)
        if delta < 0:
            raise StreamError(
                "reservoir sampling supports insertion-only streams; "
                "use a turnstile sampler for deletions"
            )
        if delta == 0:
            return
        if not (0 <= index < self._n):
            raise StreamError(f"index {index} outside universe [0, {self._n})")
        self._total_mass += delta
        # Replace the reservoir item with probability delta / total_mass:
        # this maintains Pr[reservoir = i] = mass_i / total_mass exactly.
        if self._rng.random() < delta / self._total_mass:
            self._current_index = index
            self._current_mass = delta
        elif self._current_index == index:
            self._current_mass += delta

    # ``update_batch`` is the order-preserving scalar fallback from
    # BatchUpdateMixin: the reservoir flips one coin per update, so batches
    # must replay in stream order to keep the draw exact.

    def sample(self) -> Optional[Sample]:
        """Return the reservoir item (an exact ``L_1`` draw), or ``None`` if empty."""
        if self._current_index is None:
            return None
        return Sample(index=self._current_index, metadata={"total_mass": self._total_mass})

    def space_counters(self) -> int:
        """The reservoir stores a constant number of registers."""
        return 3


class KReservoirL1Sampler(BatchUpdateMixin):
    """A reservoir of ``k`` independent :class:`ReservoirL1Sampler` instances.

    Distinct draws come from distinct, independently seeded reservoirs, so
    the joint distribution of the ``k`` samples is a product of exact
    ``L_1`` distributions — the behaviour downstream histogram applications
    assume.
    """

    def __init__(self, n: int, k: int, seed: SeedLike = None) -> None:
        require_positive_int(k, "k")
        rng = ensure_rng(seed)
        self._samplers = [
            ReservoirL1Sampler(n, int(child)) for child in rng.integers(0, 2**63 - 1, size=k)
        ]

    def update(self, index: int, delta: float) -> None:
        """Process one insertion in every reservoir."""
        for sampler in self._samplers:
            sampler.update(index, delta)

    def update_batch(self, indices, deltas) -> None:
        """Process a batch in every reservoir (each keeps its own coin order)."""
        indices, deltas = coerce_batch(indices, deltas)
        for sampler in self._samplers:
            sampler.update_batch(indices, deltas)

    def samples(self) -> list[Optional[Sample]]:
        """The ``k`` independent draws."""
        return [sampler.sample() for sampler in self._samplers]

    def space_counters(self) -> int:
        """Counters across all reservoirs."""
        return sum(sampler.space_counters() for sampler in self._samplers)


def reservoir_sample_indices(values: np.ndarray, k: int, seed: SeedLike = None) -> np.ndarray:
    """Offline helper: ``k`` i.i.d. ``L_1`` draws from a non-negative vector."""
    values = np.asarray(values, dtype=float)
    if np.any(values < 0):
        raise StreamError("offline reservoir helper requires a non-negative vector")
    total = values.sum()
    if total <= 0:
        raise StreamError("vector must have positive total mass")
    rng = ensure_rng(seed)
    return rng.choice(len(values), size=k, p=values / total)
