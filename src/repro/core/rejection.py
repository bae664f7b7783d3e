"""Algorithm 8: rejection-sampling framework for general ``G``-samplers.

Section 5.3 of the paper observes that *any* non-negative function ``G``
bounded between ``Q <= G(x_i) <= H`` over the stream's value range admits a
perfect ``G``-sampler on turnstile streams:

1. draw a perfect ``L_0`` sample — a uniformly random support element ``i``
   together with its exact value ``x_i`` (Theorem 5.4);
2. accept ``i`` with probability ``G(x_i) / H``;
3. repeat ``R = O(H / Q)`` times.

Conditioned on acceptance the output distribution is exactly
``G(x_i) / sum_j G(x_j)`` because the uniform ``1/||x||_0`` sampling weight
cancels.  The cap sampler (Algorithm 7) and logarithmic sampler
(Algorithm 6) are the two named instantiations; they live in their own
modules and delegate to :class:`RejectionGSampler`.
"""

from __future__ import annotations

import math
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
from repro.samplers.l0_sampler import PerfectL0Sampler
from repro.utils.rng import SeedLike, ensure_rng, random_seed_array
from repro.utils.validation import require_positive_int


class RejectionGSampler(BatchUpdateMixin):
    """Perfect ``G``-sampler built from perfect ``L_0`` samples.

    Parameters
    ----------
    n:
        Universe size.
    g:
        The non-negative target function ``G``; it must satisfy
        ``G(x_i) <= upper_bound`` for every value the stream can produce and
        ``G(x_i) >= lower_bound`` for every *non-zero* value (the bounds
        drive the number of repetitions).
    upper_bound:
        The normaliser ``H`` of the acceptance probability.
    lower_bound:
        The lower bound ``Q`` used only to size the number of repetitions
        ``R = O(H / Q)``.
    num_repetitions:
        Overrides the default repetition count.
    sparsity:
        Per-level sparsity of the underlying ``L_0`` samplers.
    """

    def __init__(self, n: int, g: Callable[[float], float], *, upper_bound: float,
                 lower_bound: float, seed: SeedLike = None,
                 num_repetitions: int | None = None, sparsity: int = 12) -> None:
        require_positive_int(n, "n")
        if upper_bound <= 0 or lower_bound <= 0:
            raise InvalidParameterError("upper_bound and lower_bound must be positive")
        if lower_bound > upper_bound:
            raise InvalidParameterError("lower_bound cannot exceed upper_bound")
        self._n = n
        self._g = g
        self._upper_bound = float(upper_bound)
        self._lower_bound = float(lower_bound)
        rng = ensure_rng(seed)
        self._rng = rng
        if num_repetitions is None:
            num_repetitions = max(4, int(math.ceil(4.0 * upper_bound / lower_bound)))
        require_positive_int(num_repetitions, "num_repetitions")
        self._num_repetitions = num_repetitions
        seeds = random_seed_array(rng, num_repetitions)
        self._l0_samplers = [
            PerfectL0Sampler(n, sparsity=sparsity, seed=int(seed_value))
            for seed_value in seeds
        ]
        self._num_updates = 0
        self._clip_events = 0

    @property
    def num_repetitions(self) -> int:
        """Number of independent ``L_0`` samplers (the repetition count ``R``)."""
        return self._num_repetitions

    @property
    def upper_bound(self) -> float:
        """The acceptance normaliser ``H``."""
        return self._upper_bound

    @property
    def clip_events(self) -> int:
        """How many acceptance probabilities exceeded one and were clipped."""
        return self._clip_events

    def space_counters(self) -> int:
        """Counters across all ``L_0`` samplers."""
        return sum(sampler.space_counters() for sampler in self._l0_samplers)

    def update(self, index: int, delta: float) -> None:
        """Apply a turnstile update to every repetition."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        require_finite_delta(delta)
        for sampler in self._l0_samplers:
            sampler.update(index, delta)
        self._num_updates += 1

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch to every ``L_0`` repetition (vectorised per level)."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        for sampler in self._l0_samplers:
            sampler.update_batch(indices, deltas)
        self._num_updates += int(indices.size)

    def sample(self) -> Optional[Sample]:
        """Return a perfect ``G``-sample, or ``None`` for the ``FAIL`` symbol."""
        if self._num_updates == 0:
            return None
        for repetition, sampler in enumerate(self._l0_samplers):
            drawn = sampler.sample()
            if drawn is None or drawn.exact_value is None:
                continue
            weight = self._g(drawn.exact_value)
            if weight < 0:
                raise InvalidParameterError("G must be non-negative")
            acceptance = weight / self._upper_bound
            if acceptance > 1.0:
                self._clip_events += 1
                acceptance = 1.0
            if self._rng.random() < acceptance:
                return Sample(
                    index=drawn.index,
                    exact_value=drawn.exact_value,
                    value_estimate=drawn.exact_value,
                    metadata={
                        "acceptance_probability": acceptance,
                        "repetition": repetition,
                        "g_value": weight,
                    },
                )
        return None

    def target_distribution(self, vector: np.ndarray) -> np.ndarray:
        """The exact target pmf ``G(x_i) / sum_j G(x_j)`` for a given vector."""
        weights = np.asarray([self._g(value) for value in np.asarray(vector, dtype=float)])
        total = weights.sum()
        if total <= 0:
            raise InvalidParameterError("G-mass of the vector is zero")
        return weights / total
