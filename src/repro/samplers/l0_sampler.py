"""Perfect ``L_0`` sampler for turnstile streams [JST11] (Theorem 5.4).

The sampler returns a uniformly random element of the support of ``x``
together with its *exact* value, which is precisely what the ``G``-samplers
of Algorithms 6-8 need for their rejection steps.

Construction (the standard one):

1. every coordinate ``i`` receives a uniform "level variate"
   ``u_i in [0, 1)`` from a seeded per-coordinate oracle; coordinate ``i``
   participates in subsampling level ``j`` iff ``u_i < 2^{-j}``, so level 0
   contains everything and successive levels halve the expected support;
2. each level maintains an exact :class:`~repro.sketch.sparse_recovery.KSparseRecovery`
   structure over the coordinates routed to it;
3. at query time the sampler walks the levels and finds one whose surviving
   support was recovered exactly and non-empty; among the recovered items it
   returns the one with the *smallest* level variate ``u_i``.

Because the recovered set at a successful level is exactly
``{i in support(x) : u_i < 2^{-j}}`` and that set (when non-empty) always
contains the globally minimal ``u_i`` of the support, the returned index is
``argmin_{i in support} u_i`` — a uniformly random support element,
independent of the values ``x_i``.  Failure (no level decodes) happens with
probability ``2^{-Omega(k)}``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.samplers.base import (
    BatchUpdateMixin,
    Sample,
    check_batch_bounds,
    coerce_batch,
    require_finite_delta,
)
from repro.sketch.sparse_recovery import KSparseRecovery
from repro.utils.batching import deepest_levels, route_subsampled_batch
from repro.utils.ensemble import LevelStackEnsemble, register_ensemble
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import (
    require_merge_compatible,
    require_merge_peer,
    require_positive_int,
)


class PerfectL0Sampler(BatchUpdateMixin):
    """Perfect ``L_0`` sampler with exact value recovery.

    Parameters
    ----------
    n:
        Universe size.
    sparsity:
        Per-level recovery sparsity ``k``; larger values reduce the failure
        probability at a linear cost in space.
    seed:
        Root seed for the level variates, hash functions, and fingerprints.
    """

    def __init__(self, n: int, sparsity: int = 12, seed: SeedLike = None) -> None:
        require_positive_int(n, "n")
        require_positive_int(sparsity, "sparsity")
        self._n = n
        self._sparsity = sparsity
        rng = ensure_rng(seed)
        self._num_levels = int(math.ceil(math.log2(max(n, 2)))) + 2
        # Per-coordinate level variates u_i (the "random oracle"), and the
        # precomputed deepest level of every coordinate so the scalar and
        # batched routing share one vectorised computation.
        self._level_variates = rng.random(n)
        self._deepest_of = deepest_levels(
            self._level_variates, np.arange(n, dtype=np.int64), self._num_levels
        )
        level_seeds = rng.integers(0, 2**63 - 1, size=self._num_levels)
        self._levels = [
            KSparseRecovery(n, sparsity, rows=6, seed=int(level_seed))
            for level_seed in level_seeds
        ]
        self._num_updates = 0

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @property
    def num_levels(self) -> int:
        """Number of subsampling levels."""
        return self._num_levels

    def space_counters(self) -> int:
        """Counters across all levels plus the level-variate oracle."""
        return sum(level.space_counters() for level in self._levels)

    def _max_level(self, index: int) -> int:
        """Deepest level the coordinate participates in."""
        return int(self._deepest_of[index])

    def update(self, index: int, delta: float) -> None:
        """Route the update to every level the coordinate participates in."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        require_finite_delta(delta)
        deepest = self._max_level(index)
        for level in range(deepest + 1):
            self._levels[level].update(index, delta)
        self._num_updates += 1

    def update_batch(self, indices, deltas) -> None:
        """Route a batch to every subsampling level with one mask per level.

        Each level receives the sub-batch of coordinates participating in
        it (in stream order), which the level's
        :class:`~repro.sketch.sparse_recovery.KSparseRecovery` then applies
        with its own grouped scatter strategy.
        """
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        route_subsampled_batch(self._levels, self._deepest_of[indices],
                               indices, deltas)
        self._num_updates += int(indices.size)

    def merge(self, other: "PerfectL0Sampler") -> "PerfectL0Sampler":
        """Merge a same-seed sampler fed a disjoint stream shard.

        Level membership is a per-coordinate oracle and every level's
        :class:`~repro.sketch.sparse_recovery.KSparseRecovery` state is
        linear, so two same-seed samplers over disjoint sub-streams fold
        entrywise into the sampler of the union stream; query-time
        behaviour (the level walk and the min-variate pick) then matches a
        monolithic ingest.  Exact for integer-delta streams.  In place;
        returns ``self``.
        """
        self.check_mergeable(other)
        for level, other_level in zip(self._levels, other._levels):
            level.merge(other_level)
        self._num_updates += other._num_updates
        return self

    def check_mergeable(self, other: "PerfectL0Sampler") -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing.

        Recurses into every level so a mismatched peer is refused before
        any level is touched — never a half-merged stack.
        """
        require_merge_peer(self, other)
        require_merge_compatible(
            "L0 samplers",
            {"n": self._n, "sparsity": self._sparsity,
             "num_levels": self._num_levels,
             "level variates": self._level_variates},
            {"n": other._n, "sparsity": other._sparsity,
             "num_levels": other._num_levels,
             "level variates": other._level_variates})
        for level, other_level in zip(self._levels, other._levels):
            level.check_mergeable(other_level)

    def sample(self) -> Optional[Sample]:
        """Return a uniform support element with its exact value, or ``None``.

        Also returns ``None`` when the stream's frequency vector is
        identically zero (there is nothing to sample).
        """
        if self._num_updates == 0:
            return None
        # Walk from the deepest (sparsest) level towards level 0 and use the
        # first level whose surviving support decodes exactly and is
        # non-empty.  Exact decoding guarantees the minimal-u_i item of the
        # whole support is present whenever the level is non-empty.
        for level_index in range(self._num_levels - 1, -1, -1):
            level = self._levels[level_index]
            if level.is_zero():
                continue
            items = level.recover()
            if items is None or not items:
                continue
            if len(items) > self._sparsity:
                # Too dense to be certified; move to a sparser level.
                continue
            chosen = min(items, key=lambda item: self._level_variates[item.index])
            return Sample(
                index=chosen.index,
                exact_value=chosen.value,
                value_estimate=chosen.value,
                metadata={
                    "level": level_index,
                    "level_support": len(items),
                },
            )
        return None

    def support_estimate(self) -> Optional[list[int]]:
        """Exact support if some level-0-adjacent structure can decode it.

        Only succeeds when the true support size is at most the per-level
        sparsity; used by tests and small examples.
        """
        items = self._levels[0].recover()
        if items is None:
            return None
        return [item.index for item in items]


# Replica ensembles of the L_0 sampler share the per-batch deepest-level
# routing across replicas (one stacked gather); level state stays inside
# the replica instances.
register_ensemble(PerfectL0Sampler, LevelStackEnsemble)
