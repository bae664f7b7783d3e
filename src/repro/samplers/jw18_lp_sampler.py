"""Perfect ``L_p`` sampler for ``p in (0, 2]`` in the style of [JW18].

This is the substrate Theorem 1.10 provides to Algorithms 1-3 of the paper.
The construction follows the exponential-scaling blueprint:

1. every coordinate ``i`` is assigned an independent standard exponential
   ``e_i`` and the stream is rerouted to the *scaled* vector
   ``z_i = x_i / e_i^{1/p}``;
2. by Lemma 1.16, ``argmax_i |z_i|`` is distributed exactly as
   ``|x_i|^p / ||x||_p^p``, so a perfect sample is obtained by recovering
   the maximum of ``z``;
3. the maximum is a ``1/log^2 n``-heavy hitter of ``z`` with high
   probability (Lemma 1.17), so a CountSketch with ``polylog(n)`` buckets
   recovers it; an AMS sketch of ``z`` provides the ``L_2`` scale used by a
   gap-based statistical test that declares ``FAIL`` whenever the top two
   estimates are too close for the CountSketch error to separate them
   (failure probability a constant, as Definition 1.9 permits);
4. the value of the sampled coordinate is estimated by averaging
   ``polylog(n)`` further independent CountSketch instances of ``z`` and
   multiplying back by ``e_i^{1/p}`` (Corollary 2.3).

The implementation supports an ``exact_recovery`` oracle mode in which the
scaled vector is tracked exactly instead of sketched.  The sampling
*distribution* is identical when the sketches succeed; oracle mode exists so
that distribution-level statistical tests (thousands of independent draws)
run at laptop speed.  DESIGN.md records this as an evaluation device, not as
part of the algorithm.
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
from repro.sketch.ams import AMSEnsemble, AMSSketch
from repro.sketch.countsketch import AveragedCountSketch, CountSketch, CountSketchEnsemble
from repro.utils.ensemble import ReplicaEnsemble, register_ensemble
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_moment_order, require_positive_int


def _cyclic_group_means(estimates: np.ndarray, count: int,
                        group_size: int | None) -> np.ndarray:
    """Means of ``count`` groups of ``group_size`` consecutive estimates.

    Group ``g`` starts at estimate ``g * group_size`` and wraps around the
    end; ``group_size=None`` splits the estimates evenly over ``count``.
    """
    size = len(estimates)
    if group_size is None:
        group_size = max(1, size // count)
    if group_size > size:
        raise InvalidParameterError(
            f"group_size {group_size} exceeds the {size} value-bank estimates")
    starts = np.arange(count) * group_size % size
    return estimates[(starts[:, None] + np.arange(group_size)) % size].mean(axis=1)


class JW18LpSampler(BatchUpdateMixin):
    """Perfect ``L_p`` sampler for ``p in (0, 2]`` on turnstile streams.

    Parameters
    ----------
    n:
        Universe size.
    p:
        Moment order in ``(0, 2]``.
    buckets, rows:
        Dimensions of the CountSketch used to recover the maximum of the
        scaled vector; ``buckets=None`` selects ``Theta(log^2 n)``.
    value_instances, value_buckets, value_rows:
        Configuration of the averaged CountSketch bank used for value
        estimation (Corollary 2.3); ``value_instances`` controls how many
        *independent* coordinate estimates downstream algorithms may draw.
    gap_test:
        Whether to run the statistical gap test (the paper's samplers do;
        disabling it is useful in ablations).
    gap_multiplier:
        The gap threshold is ``gap_multiplier * R / sqrt(buckets)`` where
        ``R`` is the AMS estimate of ``||z||_2``, randomised by a uniform
        factor in ``[1/2, 3/2]`` as in Algorithm 4.
    exact_recovery:
        Oracle mode (see module docstring).
    """

    def __init__(self, n: int, p: float, seed: SeedLike = None, *,
                 buckets: int | None = None, rows: int = 5,
                 value_instances: int = 8, value_buckets: int | None = None,
                 value_rows: int = 5, gap_test: bool = True,
                 gap_multiplier: float = 2.0,
                 exact_recovery: bool = False) -> None:
        require_positive_int(n, "n")
        require_moment_order(p, "p", minimum=0.0, maximum=2.0)
        self._n = n
        self._p = float(p)
        self._gap_test = gap_test
        self._gap_multiplier = float(gap_multiplier)
        self._exact_recovery = exact_recovery
        rng = ensure_rng(seed)
        self._rng = rng

        log_n = max(2.0, math.log2(max(n, 4)))
        if buckets is None:
            buckets = int(math.ceil(4 * log_n**2))
        if value_buckets is None:
            value_buckets = int(math.ceil(4 * log_n**2))
        self._buckets = int(buckets)

        # Independent exponentials; dense because every coordinate may be
        # touched and the evaluation harness compares against them directly.
        self._exponentials = rng.exponential(size=n)
        self._inverse_scale = self._exponentials ** (-1.0 / self._p)

        if exact_recovery:
            self._scaled_vector = np.zeros(n, dtype=float)
            self._main_sketch: CountSketch | None = None
            self._value_bank: AveragedCountSketch | None = None
            self._ams: AMSSketch | None = None
        else:
            self._scaled_vector = None
            self._main_sketch = CountSketch(
                n, self._buckets, rows, int(rng.integers(0, 2**63 - 1))
            )
            self._value_bank = AveragedCountSketch(
                n, int(value_buckets), value_rows, value_instances,
                int(rng.integers(0, 2**63 - 1)),
            )
            self._ams = AMSSketch(n, width=12, depth=5, seed=int(rng.integers(0, 2**63 - 1)))
        self._num_updates = 0

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @property
    def p(self) -> float:
        """Moment order."""
        return self._p

    def space_counters(self) -> int:
        """Stored counters (sketch cells, or the exact scaled vector in oracle mode)."""
        if self._exact_recovery:
            return self._n
        return (
            self._main_sketch.space_counters()
            + self._value_bank.space_counters()
            + self._ams.space_counters()
        )

    # ------------------------------------------------------------------ #
    # Stream processing
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float) -> None:
        """Apply the stream update ``(index, delta)`` to the scaled vector."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        require_finite_delta(delta)
        scaled_delta = delta * self._inverse_scale[index]
        if self._exact_recovery:
            self._scaled_vector[index] += scaled_delta
        else:
            self._main_sketch.update(index, scaled_delta)
            self._value_bank.update(index, scaled_delta)
            self._ams.update(index, scaled_delta)
        self._num_updates += 1

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch of updates to the scaled vector in one pass."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        scaled = deltas * self._inverse_scale[indices]
        if self._exact_recovery:
            np.add.at(self._scaled_vector, indices, scaled)
        else:
            self._main_sketch.update_batch(indices, scaled)
            self._value_bank.update_batch(indices, scaled)
            self._ams.update_batch(indices, scaled)
        self._num_updates += int(indices.size)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _scaled_estimates(self) -> np.ndarray:
        if self._exact_recovery:
            return self._scaled_vector
        return self._main_sketch.estimate_all()

    def _l2_scale(self) -> float:
        if self._exact_recovery:
            return float(np.linalg.norm(self._scaled_vector))
        return self._ams.estimate_l2()

    def sample(self) -> Optional[Sample]:
        """Return a perfect ``L_p`` draw, or ``None`` on the ``FAIL`` event."""
        if self._num_updates == 0:
            return None
        estimates = self._scaled_estimates()
        magnitudes = np.abs(estimates)
        if not np.any(magnitudes > 0):
            return None
        order = np.argsort(-magnitudes)
        best = int(order[0])
        runner_up_magnitude = float(magnitudes[order[1]]) if self._n > 1 else 0.0
        gap = float(magnitudes[best]) - runner_up_magnitude

        threshold = 0.0
        if self._gap_test and not self._exact_recovery:
            scale = self._l2_scale()
            jitter = self._rng.uniform(0.5, 1.5)
            threshold = self._gap_multiplier * jitter * scale / math.sqrt(self._buckets)
            if gap <= threshold:
                return None

        value_estimate = self.estimate_value(best)
        return Sample(
            index=best,
            value_estimate=value_estimate,
            metadata={
                "gap": gap,
                "gap_threshold": threshold,
                "scaled_maximum": float(magnitudes[best]),
                "exponential": float(self._exponentials[best]),
            },
        )

    def estimate_value(self, index: int) -> float:
        """Estimate ``x_index`` by unscaling the averaged CountSketch estimate."""
        if self._exact_recovery:
            scaled = float(self._scaled_vector[index])
        else:
            scaled = self._value_bank.estimate(index)
        return scaled * self._exponentials[index] ** (1.0 / self._p)

    def independent_value_estimates(self, index: int, count: int,
                                    group_size: int | None = None) -> np.ndarray:
        """``count`` (nearly) independent estimates of ``x_index``.

        Algorithm 1 consumes ``p - 2`` independent estimates and Algorithm 2
        consumes ``Q = O(log n)`` of them; each estimate here is the average
        of an independent group of CountSketch instances, unscaled by
        ``e_index^{1/p}``.  In oracle mode all estimates equal the exact
        value.
        """
        require_positive_int(count, "count")
        unscale = self._exponentials[index] ** (1.0 / self._p)
        if self._exact_recovery:
            return np.full(count, float(self._scaled_vector[index]) * unscale)
        estimates = self._value_bank.instance_estimates(index)
        return _cyclic_group_means(estimates, count, group_size) * unscale

    def scaled_vector_estimate(self) -> np.ndarray:
        """The estimated scaled vector (exact in oracle mode)."""
        return np.array(self._scaled_estimates(), copy=True)


class _EpochCache:
    """What a JW18 ensemble derives from its substrates between two writes.

    ``top_two`` holds four ``(R,)`` arrays: each replica's top coordinate,
    its magnitude, the runner-up magnitude, and whether any estimate is
    non-zero.  ``l2_scales`` holds each replica's AMS estimate of
    ``||z||_2`` (sketch mode).  Both are built by the first draw of the
    epoch, which also enters each replica's value-bank estimates at its top
    coordinate into ``member_estimates``; the dictionaries are keyed by
    ``(replica, index)`` and fill further as queries reach other pairs.
    """

    def __init__(self) -> None:
        self.top_two: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        self.l2_scales: np.ndarray | None = None
        self.member_estimates: dict[tuple[int, int], np.ndarray] = {}
        self.values: dict[tuple[int, int], float] = {}


class JW18LpSamplerEnsemble(ReplicaEnsemble):
    """``R`` independent JW18 samplers driven by one shared ingest pass.

    The per-replica exponential scalings are stacked into an ``(R, n)``
    matrix; every stream batch is scaled for all replicas at once and lands
    in the replicas' substrates through three native ensembles (the main
    CountSketch, the flattened ``R * value_instances`` value-bank members,
    and the AMS sketches) — or, in oracle mode, one stacked
    ``(R, n)`` scaled-vector scatter.  Per-replica query math runs on
    identically laid-out slices and consumes each replica's own generator
    exactly as the standalone ``sample()`` does, so both state and samples
    are bit-identical to driving each instance separately.

    Replicas must be *fresh* (un-updated) when the ensemble is built: the
    stacked state starts from the instances' (zero) tables.

    Everything a draw reads from the substrates is fixed between two
    writes, so it is derived once per write epoch (see :class:`_EpochCache`)
    and every mutator calls :meth:`_invalidate`.  Only the gap-test jitter
    is drawn afresh on every :meth:`sample_replica`.
    """

    def __init__(self, instances) -> None:
        super().__init__(instances)
        first = instances[0]
        def _config(inst):
            value_instances = (None if inst._exact_recovery
                               else inst._value_bank.num_instances)
            return (inst._n, inst._p, inst._exact_recovery, inst._gap_test,
                    inst._gap_multiplier, inst._buckets, value_instances)

        if any(_config(inst) != _config(first) for inst in instances):
            raise InvalidParameterError(
                "ensemble replicas must share (n, p, mode, gap and value-bank "
                "configuration)")
        self._n = first._n
        self._p = first._p
        self._exact = first._exact_recovery
        self._inverse_scale = np.stack([inst._inverse_scale for inst in instances])
        if self._exact:
            self._scaled_vectors = np.zeros((len(instances), self._n), dtype=float)
            self._main = None
            self._value = None
            self._ams = None
            self._value_group = 0
        else:
            self._scaled_vectors = None
            self._main = CountSketchEnsemble(
                [inst._main_sketch for inst in instances])
            self._value = CountSketchEnsemble.concat(
                [inst._value_bank._ensemble for inst in instances])
            self._value_group = first._value_bank.num_instances
            self._ams = AMSEnsemble([inst._ams for inst in instances])
        self._num_updates = 0
        self._invalidate()

    def _invalidate(self) -> None:
        """Forget the query state derived from the substrates."""
        self._epoch = _EpochCache()

    def __getstate__(self):
        """Pickle without the derived query state (rebuilt on demand)."""
        state = self.__dict__.copy()
        del state["_epoch"]
        return state

    def __setstate__(self, state):
        """Restore with an empty query state; drops a legacy estimates cache."""
        state.pop("_estimates_cache", None)
        state.pop("_epoch", None)
        self.__dict__.update(state)
        self._invalidate()

    @classmethod
    def concat(cls, ensembles: "list[JW18LpSamplerEnsemble]") -> "JW18LpSamplerEnsemble":
        """Stack replica-shard ensembles along the replica axis (no recompute).

        The per-replica exponential scalings and all substrate state (main
        sketches, flattened value banks, AMS counters — or the oracle
        scaled vectors) are concatenated as-is.  Every shard must have
        ingested the same stream (replica sharding shares the stream), so
        the shared update count is taken from the first shard.
        """
        if not ensembles:
            raise InvalidParameterError("need at least one ensemble")
        first = ensembles[0]
        if any((e._n, e._p, e._exact, e._value_group)
               != (first._n, first._p, first._exact, first._value_group)
               for e in ensembles):
            raise InvalidParameterError(
                "ensembles must share (n, p, mode, value-bank configuration)")
        merged = cls.__new__(cls)
        ReplicaEnsemble.__init__(
            merged, [inst for e in ensembles for inst in e._instances])
        merged._n = first._n
        merged._p = first._p
        merged._exact = first._exact
        merged._value_group = first._value_group
        merged._inverse_scale = np.concatenate(
            [e._inverse_scale for e in ensembles])
        if first._exact:
            merged._scaled_vectors = np.concatenate(
                [e._scaled_vectors for e in ensembles])
            merged._main = None
            merged._value = None
            merged._ams = None
        else:
            merged._scaled_vectors = None
            merged._main = CountSketchEnsemble.concat([e._main for e in ensembles])
            merged._value = CountSketchEnsemble.concat([e._value for e in ensembles])
            merged._ams = AMSEnsemble.concat([e._ams for e in ensembles])
        merged._num_updates = first._num_updates
        merged._invalidate()
        return merged

    def merge(self, other: "JW18LpSamplerEnsemble") -> "JW18LpSamplerEnsemble":
        """Entrywise-add a same-seed ensemble built over a disjoint sub-stream.

        All substrates are linear sketches of the (per-replica) scaled
        vector, so same-seed shard copies fed disjoint stream shards add
        into the ensemble of the concatenated stream; the query-time
        generators of ``self``'s replicas are untouched by ingest and keep
        producing the monolithic draw sequence.  In place; returns ``self``.
        """
        if not isinstance(other, JW18LpSamplerEnsemble):
            raise InvalidParameterError(
                "can only merge JW18LpSamplerEnsemble with its own kind")
        if ((other._n, other._p, other._exact, other._value_group)
                != (self._n, self._p, self._exact, self._value_group)
                or other.num_replicas != self.num_replicas
                or not np.array_equal(self._inverse_scale, other._inverse_scale)):
            raise InvalidParameterError(
                "can only merge identically seeded, identically configured ensembles")
        if self._exact:
            self._scaled_vectors += other._scaled_vectors
        else:
            # Validate all three substrates before touching any, so a
            # mismatched peer cannot leave a partially merged replica.
            self._main.check_mergeable(other._main)
            self._value.check_mergeable(other._value)
            self._ams.check_mergeable(other._ams)
            self._main.merge(other._main)
            self._value.merge(other._value)
            self._ams.merge(other._ams)
        self._num_updates += other._num_updates
        self._invalidate()
        return self

    def update_batch(self, indices, deltas) -> None:
        """Scale one batch for every replica and ingest it everywhere."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        scaled = deltas * self._inverse_scale[:, indices]
        if self._exact:
            replica_index = np.arange(self.num_replicas)[:, None]
            np.add.at(self._scaled_vectors, (replica_index, indices[None, :]),
                      scaled)
        else:
            self._main.update_batch(indices, scaled)
            self._value.update_batch(indices, scaled)
            self._ams.update_batch(indices, scaled)
        self._num_updates += int(indices.size)
        self._invalidate()

    def _epoch_state(self) -> _EpochCache:
        """The epoch's query state, built for every replica on first use.

        One pass over the ``(R, n)`` estimates finds each replica's top
        coordinate (``argmax``) and runner-up magnitude (``np.partition``).
        ``argmax`` takes the first of tied maxima where ``argsort(-|z|)``
        may take another, so a row tied at the top (or holding a NaN)
        keeps the ``argsort`` of the standalone ``sample()``.  In sketch
        mode one gather then reads every replica's value-bank estimates at
        its top coordinate, and one pass the AMS ``L_2`` scales.
        """
        epoch = self._epoch
        if epoch.top_two is None:
            estimates = (self._scaled_vectors if self._exact
                         else self._main.estimate_all_members())
            magnitudes = np.abs(estimates)
            best = np.argmax(magnitudes, axis=1)
            top = np.take_along_axis(magnitudes, best[:, None], axis=1)[:, 0]
            nonzero = np.any(magnitudes > 0, axis=1)
            if self._n > 1:
                runner_up = np.partition(magnitudes, self._n - 2, axis=1)[:, self._n - 2]
            else:
                runner_up = np.zeros(len(best))
            for row in np.flatnonzero(nonzero & ~(runner_up < top)):
                order = np.argsort(-magnitudes[row])
                best[row] = order[0]
                top[row] = magnitudes[row, order[0]]
                runner_up[row] = magnitudes[row, order[1]]
            epoch.top_two = (best, top, runner_up, nonzero)
            if not self._exact:
                group = self._value_group
                bank = self._value.estimate_each_member_at(np.repeat(best, group))
                for replica, estimates in enumerate(bank.reshape(-1, group)):
                    epoch.member_estimates[(replica, int(best[replica]))] = estimates
                epoch.l2_scales = self._ams.estimate_l2_members()
        return epoch

    def _value_member_estimates(self, replica: int, index: int) -> np.ndarray:
        """Per-member value-bank estimates of one replica at one coordinate."""
        cache = self._epoch.member_estimates
        key = (replica, index)
        if key not in cache:
            cache[key] = self._value.estimate_members_at(
                replica * self._value_group, (replica + 1) * self._value_group, index)
        return cache[key]

    def estimate_value(self, replica: int, index: int) -> float:
        """Replica's estimate of ``x_index`` (matches the standalone method)."""
        cache = self._epoch.values
        key = (replica, index)
        if key not in cache:
            instance = self._instances[replica]
            if self._exact:
                scaled = float(self._scaled_vectors[replica, index])
            else:
                scaled = float(np.mean(self._value_member_estimates(replica, index)))
            cache[key] = scaled * instance._exponentials[index] ** (1.0 / self._p)
        return cache[key]

    def independent_value_estimates(self, replica: int, index: int, count: int,
                                    group_size: int | None = None) -> np.ndarray:
        """Replica's ``count`` (nearly) independent estimates of ``x_index``."""
        require_positive_int(count, "count")
        instance = self._instances[replica]
        unscale = instance._exponentials[index] ** (1.0 / self._p)
        if self._exact:
            return np.full(count, float(self._scaled_vectors[replica, index]) * unscale)
        estimates = self._value_member_estimates(replica, index)
        return _cyclic_group_means(estimates, count, group_size) * unscale

    def sample_replica(self, replica: int) -> Optional[Sample]:
        """One-shot draw of replica ``replica`` (mirrors ``sample()``)."""
        if self._num_updates == 0:
            return None
        instance = self._instances[replica]
        epoch = self._epoch_state()
        best, top, runner_up, nonzero = epoch.top_two
        if not nonzero[replica]:
            return None
        best = int(best[replica])
        top = float(top[replica])
        gap = top - float(runner_up[replica])

        threshold = 0.0
        if instance._gap_test and not self._exact:
            scale = float(epoch.l2_scales[replica])
            jitter = instance._rng.uniform(0.5, 1.5)
            threshold = (instance._gap_multiplier * jitter * scale
                         / math.sqrt(instance._buckets))
            if gap <= threshold:
                return None

        value_estimate = self.estimate_value(replica, best)
        return Sample(
            index=best,
            value_estimate=value_estimate,
            metadata={
                "gap": gap,
                "gap_threshold": threshold,
                "scaled_maximum": top,
                "exponential": float(instance._exponentials[best]),
            },
        )


register_ensemble(JW18LpSampler, JW18LpSamplerEnsemble)


class PerfectL2Sampler(JW18LpSampler):
    """Perfect ``L_2`` sampler — the exact substrate Algorithms 1-2 call for."""

    def __init__(self, n: int, seed: SeedLike = None, **kwargs) -> None:
        super().__init__(n, 2.0, seed, **kwargs)
