"""Exact offline samplers (ground-truth oracles).

These samplers materialise the full frequency vector and draw directly from
the target distribution ``G(x_i) / sum_j G(x_j)``.  They are *not* streaming
algorithms — they exist so that tests and benchmarks can compare every
sketched sampler against the exact distribution it is supposed to realise,
and so that examples can display the ground truth next to sketched output.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.samplers.base import (
    BatchUpdateMixin,
    Sample,
    check_batch_bounds,
    coerce_batch,
    require_finite_delta,
)
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_moment_order, require_positive_int


class ExactGSampler(BatchUpdateMixin):
    """Exact sampler for an arbitrary non-negative function ``G``.

    Parameters
    ----------
    n:
        Universe size.
    g:
        Non-negative function applied coordinate-wise to ``x_i``; the target
        distribution is ``G(x_i) / sum_j G(x_j)``.
    seed:
        Seed of the internal generator used by :meth:`sample`.
    """

    def __init__(self, n: int, g: Callable[[float], float], seed: SeedLike = None) -> None:
        require_positive_int(n, "n")
        self._n = n
        self._g = g
        self._vector = np.zeros(n, dtype=float)
        self._rng = ensure_rng(seed)

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    def update(self, index: int, delta: float) -> None:
        """Apply the stream update ``(index, delta)``."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        require_finite_delta(delta)
        self._vector[index] += delta

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch with a single scatter-add into the exact vector."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        np.add.at(self._vector, indices, deltas)

    def target_distribution(self) -> np.ndarray:
        """The exact target pmf ``G(x_i) / sum_j G(x_j)``."""
        weights = np.asarray([self._g(value) for value in self._vector], dtype=float)
        if np.any(weights < 0):
            raise InvalidParameterError("G must be non-negative")
        total = weights.sum()
        if total <= 0:
            raise InvalidParameterError("target distribution has zero total mass")
        return weights / total

    def sample(self) -> Optional[Sample]:
        """Draw exactly from the target distribution."""
        probabilities = self.target_distribution()
        index = int(self._rng.choice(self._n, p=probabilities))
        return Sample(
            index=index,
            exact_value=float(self._vector[index]),
            value_estimate=float(self._vector[index]),
            metadata={"oracle": True},
        )

    def space_counters(self) -> int:
        """The oracle stores the full vector."""
        return self._n


class ExactLpSampler(ExactGSampler):
    """Exact ``L_p`` sampler: ``G(z) = |z|^p``."""

    def __init__(self, n: int, p: float, seed: SeedLike = None) -> None:
        require_moment_order(p, "p", minimum=0.0, minimum_exclusive=False)
        self._p = float(p)
        if self._p == 0:
            super().__init__(n, lambda z: 1.0 if z != 0 else 0.0, seed)
        else:
            super().__init__(n, lambda z: abs(z) ** self._p, seed)

    @property
    def p(self) -> float:
        """Moment order of the sampler."""
        return self._p
