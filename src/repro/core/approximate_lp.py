"""Algorithm 4: approximate ``L_p`` sampler for ``p > 2`` with fast updates.

The approximate sampler trades the perfect distribution of Algorithms 1-2
for optimal space (``n^{1-2/p} log^2 n log(1/eps)`` up to ``loglog`` factors)
and fast update time.  The ingredients, following Section 3:

* **Duplication via max-stability.**  Each coordinate conceptually owns
  ``duplication`` copies scaled by independent inverse exponentials;
  only the per-coordinate *maximum* scaled copy matters for the sampling
  distribution, and the remaining copies act as a noise floor that washes
  out the dependence of the failure event on which coordinate achieves the
  maximum.  The per-coordinate maximum factor and the residual-copy profile
  are produced by :class:`repro.core.fast_update.DiscretizedDuplication`.
* **Discretisation.**  Scale factors are rounded to powers of ``(1 + eta)``
  with ``eta = O(eps)/sqrt(log n)``, which caps the distortion of the
  sampling probabilities at ``O(eps)``.
* **Two-stage CountSketch.**  ``CountSketch1`` (width
  ``Theta(n^{1-2/p} log(1/eps))``) sketches the vector of per-coordinate
  maxima ``v_i``; the candidate set ``B`` collects coordinates whose
  estimate clears an ``F_p``-scaled threshold (Lemma 3.3/3.15 bound
  ``|B| = polylog(1/eps)``).  ``CountSketch2`` (only ``|B|``-many buckets
  per row materialised) carries the residual copies; the estimates of the
  two stages are summed for the candidates.
* **Anti-concentration (gap) test.**  The sampler reports the maximum
  candidate only when the top-two gap exceeds a threshold proportional to
  an ``L_2`` estimate of the duplicated scaled vector divided by
  ``(n * duplication)^{1/2 - 1/p}``; otherwise it outputs ``FAIL``
  (Lemma 3.10/3.13 bound the conditional failure probability drift by
  ``O(eta sqrt(log n))``).
* **Value estimation.**  A separate CountSketch with
  ``Theta(eps^{-2} n^{1-2/p} log(1/eps))`` buckets yields a
  ``(1 + eps)``-estimate of the sampled coordinate.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.fast_update import DiscretizedDuplication, FastUpdateState, default_eta
from repro.exceptions import InvalidParameterError
from repro.samplers.base import (
    BatchUpdateMixin,
    Sample,
    check_batch_bounds,
    coerce_batch,
    require_finite_delta,
)
from repro.sketch.ams import AMSSketch
from repro.sketch.countsketch import CountSketch
from repro.sketch.fp_estimator import MaxStabilityFpEstimator
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import (
    require_in_open_interval,
    require_moment_order,
    require_positive_int,
)


class ApproximateLpSampler(BatchUpdateMixin):
    """Approximate ``L_p`` sampler for ``p > 2`` on turnstile streams.

    Parameters
    ----------
    n:
        Universe size.
    p:
        Moment order, ``p > 2``.
    epsilon:
        Target relative distortion of the sampling probabilities.
    duplication:
        Number of conceptual copies per coordinate (the paper's ``n^c``);
        larger values reduce the dependence of the failure event on the
        identity of the maximum at no update-time cost when
        ``fast_update=True``.
    eta:
        ``rnd_eta`` discretisation parameter; ``None`` selects
        ``epsilon / sqrt(log n)``.
    fast_update:
        Use the binomial-counting fast-update scheme (True) or explicit
        enumeration of the duplicated copies (False, the slow ablation path
        benchmarked by E9).
    rows, cs1_buckets, cs2_buckets, value_buckets:
        Sketch dimensions; ``None`` picks the paper's scalings.
    threshold_factor:
        Constant in the candidate-set threshold
        ``duplication^{1/p} * F̂_p^{1/p} / (threshold_factor * max(1, ln(1/eps)))``.
    gap_constant:
        Constant of the anti-concentration test threshold
        ``gap_constant * R / (n * duplication)^{1/2 - 1/p}``; calibrated so
        the failure probability is a constant rather than the paper's
        asymptotic ``100``.
    """

    def __init__(self, n: int, p: float, epsilon: float = 0.25, *,
                 seed: SeedLike = None, duplication: int = 4096,
                 eta: float | None = None, fast_update: bool = True,
                 rows: int | None = None, cs1_buckets: int | None = None,
                 cs2_buckets: int | None = None, value_buckets: int | None = None,
                 threshold_factor: float = 4.0, gap_constant: float = 0.2,
                 fp_repetitions: int = 20, track_value: bool = True) -> None:
        require_positive_int(n, "n")
        require_moment_order(p, "p", minimum=2.0)
        require_in_open_interval(epsilon, "epsilon", 0.0, 1.0)
        require_positive_int(duplication, "duplication")
        self._n = n
        self._p = float(p)
        self._epsilon = float(epsilon)
        self._duplication = duplication
        self._fast_update = fast_update
        self._threshold_factor = float(threshold_factor)
        self._gap_constant = float(gap_constant)
        self._track_value = track_value
        rng = ensure_rng(seed)
        self._rng = rng

        log_n = max(2.0, math.log2(max(n, 4)))
        log_inv_eps = max(1.0, math.log(1.0 / epsilon))
        exponent = 1.0 - 2.0 / self._p
        if eta is None:
            eta = default_eta(epsilon, n)
        self._eta = float(eta)
        if rows is None:
            rows = int(math.ceil(log_n))
        if cs1_buckets is None:
            cs1_buckets = max(8, int(math.ceil(4 * n**exponent * log_inv_eps)))
        if cs2_buckets is None:
            cs2_buckets = max(8, int(math.ceil(4 * log_inv_eps**2)))
        if value_buckets is None:
            value_buckets = max(
                8, int(math.ceil(4 * n**exponent * log_inv_eps / epsilon**2))
            )
        self._rows = int(rows)
        self._cs1_buckets = int(cs1_buckets)
        self._cs2_buckets = int(cs2_buckets)

        # Duplication / discretisation machinery.
        self._dup = DiscretizedDuplication(
            self._p, self._eta, duplication,
            dynamic_range=float(max(n, 16)) ** 3,
            seed=int(rng.integers(0, 2**63 - 1)),
        )
        conceptual_buckets = max(
            self._cs2_buckets,
            int(math.ceil((n * duplication) ** max(exponent, 0.0))),
        )
        self._fast_state = FastUpdateState(
            self._dup, self._rows, self._cs2_buckets,
            seed=int(rng.integers(0, 2**63 - 1)), fast=fast_update,
            conceptual_buckets=conceptual_buckets,
        )

        # Stage-one CountSketch over the per-coordinate maxima v_i.
        self._cs1 = CountSketch(n, self._cs1_buckets, self._rows,
                                int(rng.integers(0, 2**63 - 1)))
        # Stage-two table over the residual duplicated copies.
        self._cs2_table = np.zeros((self._rows, self._cs2_buckets), dtype=float)
        cs2_rng = np.random.default_rng(int(rng.integers(0, 2**63 - 1)))
        self._cs2_query_bucket = cs2_rng.integers(0, self._cs2_buckets, size=(self._rows, n))
        # AMS estimates of the L2 norms of the maxima and of the residuals.
        self._ams_max = AMSSketch(n, width=12, depth=5, seed=int(rng.integers(0, 2**63 - 1)))
        self._ams_residual = AMSSketch(n, width=12, depth=5, seed=int(rng.integers(0, 2**63 - 1)))
        # F_p estimate for the candidate threshold.
        self._fp_estimator = MaxStabilityFpEstimator(
            n, self._p, repetitions=fp_repetitions, seed=int(rng.integers(0, 2**63 - 1)),
        )
        # Value-estimation CountSketch (the optional (1+eps) estimate).
        if track_value:
            self._value_sketch = CountSketch(
                n, int(value_buckets), self._rows, int(rng.integers(0, 2**63 - 1))
            )
        else:
            self._value_sketch = None
        self._num_updates = 0

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def epsilon(self) -> float:
        """Target relative distortion."""
        return self._epsilon

    @property
    def p(self) -> float:
        """Moment order."""
        return self._p

    @property
    def duplication(self) -> int:
        """Number of conceptual copies per coordinate."""
        return self._duplication

    @property
    def eta(self) -> float:
        """Discretisation parameter of ``rnd_eta``."""
        return self._eta

    def space_counters(self) -> int:
        """Stored counters across every stage."""
        total = self._cs1.space_counters()
        total += self._cs2_table.size
        total += self._ams_max.space_counters() + self._ams_residual.space_counters()
        total += self._fp_estimator.space_counters()
        if self._value_sketch is not None:
            total += self._value_sketch.space_counters()
        return total

    # ------------------------------------------------------------------ #
    # Stream processing
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float) -> None:
        """Apply the stream update ``(index, delta)`` to every stage."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        require_finite_delta(delta)
        max_factor = self._dup.max_factor(index, fast=self._fast_update)
        scaled_delta = delta * max_factor
        self._cs1.update(index, scaled_delta)
        self._ams_max.update(index, scaled_delta)
        self._fast_state.apply_update(self._cs2_table, index, delta)
        residual_scale = self._fast_state.residual_l2_scale(index)
        if residual_scale > 0:
            self._ams_residual.update(index, delta * residual_scale)
        self._fp_estimator.update(index, delta)
        if self._value_sketch is not None:
            self._value_sketch.update(index, scaled_delta)
        self._num_updates += 1

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch of updates across every stage of the sampler.

        The per-coordinate duplication profiles (max factor, residual L2
        scale, sparse residual coefficients) are looked up once per
        *distinct* coordinate through their caches; all sketch stages then
        ingest the batch with their own vectorised ``update_batch``.
        """
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        unique, inverse = np.unique(indices, return_inverse=True)
        unique_factors = np.asarray(
            [self._dup.max_factor(int(item), fast=self._fast_update) for item in unique]
        )
        scaled = deltas * unique_factors[inverse]
        self._cs1.update_batch(indices, scaled)
        self._ams_max.update_batch(indices, scaled)
        if self._value_sketch is not None:
            self._value_sketch.update_batch(indices, scaled)
        unique_residual_scales = np.asarray(
            [self._fast_state.residual_l2_scale(int(item)) for item in unique]
        )
        residual_scales = unique_residual_scales[inverse]
        residual_mask = residual_scales > 0
        if residual_mask.any():
            self._ams_residual.update_batch(
                indices[residual_mask],
                (deltas * residual_scales)[residual_mask],
            )
        self._fp_estimator.update_batch(indices, deltas)
        self._fast_state.apply_update_batch(self._cs2_table, indices, deltas)
        self._num_updates += int(indices.size)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def _candidate_set(self, estimates: np.ndarray) -> np.ndarray:
        """The set ``B`` of coordinates whose estimate clears the threshold."""
        fp_estimate = max(self._fp_estimator.estimate(), 0.0)
        if fp_estimate <= 0:
            return np.asarray([], dtype=np.int64)
        norm_estimate = fp_estimate ** (1.0 / self._p)
        log_inv_eps = max(1.0, math.log(1.0 / self._epsilon))
        threshold = (
            self._duplication ** (1.0 / self._p)
            * norm_estimate
            / (self._threshold_factor * log_inv_eps)
        )
        return np.flatnonzero(np.abs(estimates) >= threshold)

    def _residual_estimate(self, index: int) -> float:
        """Median residual-stage contribution attributed to ``index``."""
        values = self._cs2_table[np.arange(self._rows), self._cs2_query_bucket[:, index]]
        return float(np.median(values))

    def _l2_scale(self) -> float:
        """Estimate of ``||u||_2`` for the duplicated scaled vector ``u``."""
        maxima_f2 = self._ams_max.estimate_f2()
        try:
            residual_f2 = self._ams_residual.estimate_f2()
        except Exception:  # no residual updates at all (duplication == 1)
            residual_f2 = 0.0
        return float(math.sqrt(max(maxima_f2, 0.0) + max(residual_f2, 0.0)))

    def sample(self) -> Optional[Sample]:
        """Return an approximate ``L_p`` draw, or ``None`` for ``FAIL``."""
        if self._num_updates == 0:
            return None
        estimates = self._cs1.estimate_all()
        candidates = self._candidate_set(estimates)
        if candidates.size == 0:
            return None

        combined = np.asarray(
            [estimates[index] + self._residual_estimate(int(index)) for index in candidates]
        )
        magnitudes = np.abs(combined)
        order = np.argsort(-magnitudes)
        best_position = int(order[0])
        best_index = int(candidates[best_position])
        best_magnitude = float(magnitudes[best_position])
        runner_up = float(magnitudes[order[1]]) if len(order) > 1 else 0.0
        gap = best_magnitude - runner_up

        scale = self._l2_scale()
        mu = self._rng.uniform(0.5, 1.5)
        denominator = (self._n * self._duplication) ** (0.5 - 1.0 / self._p)
        threshold = self._gap_constant * scale / (mu * max(denominator, 1.0))
        if gap <= threshold:
            return None

        value_estimate = None
        if self._value_sketch is not None:
            max_factor = self._dup.max_factor(best_index, fast=self._fast_update)
            if max_factor > 0:
                value_estimate = self._value_sketch.estimate(best_index) / max_factor
        return Sample(
            index=best_index,
            value_estimate=value_estimate,
            metadata={
                "gap": gap,
                "gap_threshold": threshold,
                "candidate_set_size": int(candidates.size),
                "scaled_maximum": best_magnitude,
            },
        )
