"""Algorithm 3: perfect polynomial sampler (Theorem 2.14).

The target functions are positive combinations of powers,

    ``G(z) = sum_{d in [D]} alpha_d * |z|^{p_d}``,   ``0 < p_1 < ... < p_D = p``,

which — unlike ``|z|^p`` — are *not* scale invariant: rescaling the stream
changes the sampling distribution.  The paper's algorithm therefore anchors
itself on a perfect ``L_p`` sample for the top exponent ``p`` and corrects
the distribution by rejection:

1. draw ``N = O(log n)`` perfect ``L_p`` samples (Algorithm 1/2);
2. for a sample landing on ``j``, estimate ``x_j^{p_d - p}`` for every term
   (note the exponents are non-positive) with the Taylor machinery of
   Theorem 2.10;
3. accept ``j`` with probability
   ``(1 / (5 D M)) * sum_d alpha_d * |x̂_j^{p_d - p}|``, which is at most one
   because each ``|x_j|^{p_d - p} <= 1`` for integer-valued frequencies and
   ``alpha_d <= M``.

Conditioned on acceptance, the output distribution is proportional to
``|x_j|^p * G(x_j) / |x_j|^p = G(x_j)`` — a perfect polynomial sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.perfect_lp_general import make_perfect_lp_sampler
from repro.exceptions import InvalidParameterError
from repro.samplers.base import (
    BatchUpdateMixin,
    Sample,
    check_batch_bounds,
    coerce_batch,
    require_finite_delta,
)
from repro.utils.rng import SeedLike, ensure_rng, random_seed_array
from repro.utils.taylor import TaylorPowerEstimator, default_num_terms
from repro.utils.validation import require_positive_int


@dataclass(frozen=True)
class PolynomialFunction:
    """The polynomial ``G(z) = sum_d coefficients[d] * |z| ** exponents[d]``.

    Attributes
    ----------
    coefficients:
        The positive weights ``alpha_d`` (all bounded by a constant ``M``).
    exponents:
        The strictly increasing positive exponents ``p_d``; the largest one
        is the anchor exponent ``p`` of the underlying ``L_p`` sampler.
    """

    coefficients: tuple[float, ...]
    exponents: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) != len(self.exponents):
            raise InvalidParameterError("coefficients and exponents must align")
        if not self.coefficients:
            raise InvalidParameterError("polynomial must have at least one term")
        if any(c <= 0 for c in self.coefficients):
            raise InvalidParameterError("all coefficients must be positive")
        if any(e <= 0 for e in self.exponents):
            raise InvalidParameterError("all exponents must be positive")
        if list(self.exponents) != sorted(self.exponents):
            raise InvalidParameterError("exponents must be strictly increasing")
        if len(set(self.exponents)) != len(self.exponents):
            raise InvalidParameterError("exponents must be distinct")

    @classmethod
    def from_terms(cls, terms: Sequence[tuple[float, float]]) -> "PolynomialFunction":
        """Build from ``(coefficient, exponent)`` pairs in any order."""
        ordered = sorted(terms, key=lambda term: term[1])
        return cls(
            coefficients=tuple(float(c) for c, _ in ordered),
            exponents=tuple(float(e) for _, e in ordered),
        )

    @property
    def degree(self) -> float:
        """The anchor exponent ``p = p_D``."""
        return self.exponents[-1]

    @property
    def num_terms(self) -> int:
        """Number of terms ``D``."""
        return len(self.coefficients)

    @property
    def max_coefficient(self) -> float:
        """The bound ``M`` on the coefficients."""
        return max(self.coefficients)

    def __call__(self, z: float | np.ndarray) -> float | np.ndarray:
        """Evaluate ``G`` at ``z`` (coordinate-wise for arrays)."""
        magnitude = np.abs(z)
        result = sum(
            coefficient * magnitude**exponent
            for coefficient, exponent in zip(self.coefficients, self.exponents)
        )
        if np.isscalar(z):
            return float(result)
        return result


class PolynomialSampler(BatchUpdateMixin):
    """Perfect sampler for positive-coefficient polynomials of ``|x_i|``.

    Parameters
    ----------
    n:
        Universe size.
    polynomial:
        The target :class:`PolynomialFunction`.
    seed:
        Root seed.
    num_lp_samples:
        Number ``N`` of anchor ``L_p`` samples; ``None`` selects
        ``ceil(margin * D * M / alpha_D * ln(1/failure_probability))``,
        i.e. the inverse of the Theorem 2.14 acceptance-rate floor
        ``alpha_D / (5 D M)`` times the usual repetition factor (the paper
        absorbs the ``D, M, alpha_D`` constants into its ``O(log n)``).
    backend:
        Forwarded to the underlying perfect ``L_p`` samplers (``"sketch"``
        or ``"oracle"``).
    rejection_margin:
        The ``5`` in the ``1 / (5 D M)`` normaliser; raising it lowers the
        acceptance rate but makes clipping rarer.
    failure_probability:
        Target probability of returning ``FAIL``; drives the default ``N``.
    """

    def __init__(self, n: int, polynomial: PolynomialFunction, seed: SeedLike = None, *,
                 num_lp_samples: int | None = None, backend: str = "oracle",
                 rejection_margin: float = 5.0, taylor_terms: int | None = None,
                 failure_probability: float = 1.0 / 3.0, **lp_kwargs) -> None:
        require_positive_int(n, "n")
        if polynomial.degree <= 2.0 and backend == "sketch":
            # The anchor sampler requires p > 2; for small-degree polynomials
            # the oracle backend (or the L_0-based rejection framework of
            # Algorithm 8) should be used instead.
            raise InvalidParameterError(
                "PolynomialSampler's sketch backend requires the top exponent to exceed 2"
            )
        self._n = n
        self._polynomial = polynomial
        self._backend = backend
        self._rejection_margin = float(rejection_margin)
        rng = ensure_rng(seed)
        self._rng = rng
        if num_lp_samples is None:
            if not (0.0 < failure_probability < 1.0):
                raise InvalidParameterError("failure_probability must lie in (0, 1)")
            # Acceptance-rate floor of Lemma 2.12: alpha_D / (margin * D * M).
            top_coefficient = polynomial.coefficients[-1]
            inverse_floor = (rejection_margin * polynomial.num_terms
                             * polynomial.max_coefficient / top_coefficient)
            num_lp_samples = max(
                4, int(math.ceil(inverse_floor * math.log(1.0 / failure_probability))) + 1,
            )
        self._num_lp_samples = num_lp_samples
        if taylor_terms is None:
            taylor_terms = default_num_terms(n)
        self._taylor_terms = taylor_terms

        anchor_p = max(polynomial.degree, 2.0 + 1e-9) if backend == "sketch" else polynomial.degree
        seeds = random_seed_array(rng, num_lp_samples)
        if backend == "sketch":
            self._anchor_samplers = [
                make_perfect_lp_sampler(n, anchor_p, int(seed_value), backend="sketch", **lp_kwargs)
                for seed_value in seeds
            ]
            self._exact_vector = None
        else:
            self._anchor_samplers = []
            self._exact_vector = np.zeros(n, dtype=float)
        self._num_updates = 0
        self._clip_events = 0

    @property
    def polynomial(self) -> PolynomialFunction:
        """The target polynomial ``G``."""
        return self._polynomial

    @property
    def clip_events(self) -> int:
        """Number of acceptance probabilities clipped at one."""
        return self._clip_events

    def space_counters(self) -> int:
        """Stored counters across the anchor samplers (or the oracle vector)."""
        if self._backend == "oracle":
            return self._n
        return sum(sampler.space_counters() for sampler in self._anchor_samplers)

    # ------------------------------------------------------------------ #
    # Stream processing
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float) -> None:
        """Apply a turnstile update."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        require_finite_delta(delta)
        if self._backend == "oracle":
            self._exact_vector[index] += delta
        else:
            for sampler in self._anchor_samplers:
                sampler.update(index, delta)
        self._num_updates += 1

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch to the oracle vector or every anchor sampler."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        if self._backend == "oracle":
            np.add.at(self._exact_vector, indices, deltas)
        else:
            for sampler in self._anchor_samplers:
                sampler.update_batch(indices, deltas)
        self._num_updates += int(indices.size)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def _acceptance_probability(self, value_estimates: np.ndarray, pivot: float) -> float:
        """``(1 / (margin * D * M)) * sum_d alpha_d |x̂^{p_d - p}|``."""
        polynomial = self._polynomial
        anchor = polynomial.degree
        normaliser = self._rejection_margin * polynomial.num_terms * polynomial.max_coefficient
        total = 0.0
        magnitude_pivot = abs(pivot) if pivot != 0 else max(abs(float(np.mean(value_estimates))), 1e-12)
        magnitudes = np.abs(value_estimates)
        for coefficient, exponent in zip(polynomial.coefficients, polynomial.exponents):
            power = exponent - anchor
            if power == 0.0:
                estimate = 1.0
            else:
                estimator = TaylorPowerEstimator(exponent=power, num_terms=min(self._taylor_terms, len(magnitudes)))
                estimate = abs(estimator.estimate(magnitudes, magnitude_pivot))
            total += coefficient * estimate
        return total / normaliser

    def _anchor_draws(self):
        """Yield ``(index, estimates, pivot)`` triples from the anchor ``L_p`` samples."""
        if self._backend == "oracle":
            vector = self._exact_vector
            weights = np.abs(vector) ** self._polynomial.degree
            total = weights.sum()
            if total <= 0:
                return
            probabilities = weights / total
            draws = self._rng.choice(self._n, size=self._num_lp_samples, p=probabilities)
            for index in draws:
                index = int(index)
                exact = float(vector[index])
                estimates = np.full(max(self._taylor_terms, 1), exact)
                yield index, estimates, exact
        else:
            for sampler in self._anchor_samplers:
                drawn = sampler.sample()
                if drawn is None:
                    continue
                estimates = np.full(
                    max(self._taylor_terms, 1),
                    drawn.value_estimate if drawn.value_estimate else 1.0,
                )
                yield drawn.index, estimates, drawn.value_estimate or 1.0

    def sample(self) -> Optional[Sample]:
        """Return a perfect polynomial (``G``-) sample, or ``None`` on failure."""
        if self._num_updates == 0:
            return None
        attempts = 0
        for index, estimates, pivot in self._anchor_draws():
            attempts += 1
            acceptance = self._acceptance_probability(estimates, pivot)
            if acceptance > 1.0:
                self._clip_events += 1
                acceptance = 1.0
            if self._rng.random() < acceptance:
                return Sample(
                    index=index,
                    value_estimate=float(np.mean(estimates)) if len(estimates) else None,
                    metadata={
                        "acceptance_probability": acceptance,
                        "attempts": attempts,
                        "polynomial_degree": self._polynomial.degree,
                    },
                )
        return None

    def target_distribution(self, vector: np.ndarray) -> np.ndarray:
        """The exact target pmf ``G(x_i) / sum_j G(x_j)`` for a given vector."""
        weights = self._polynomial(np.asarray(vector, dtype=float))
        total = weights.sum()
        if total <= 0:
            raise InvalidParameterError("polynomial mass of the vector is zero")
        return weights / total
