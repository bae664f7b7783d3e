"""The four workloads: inputs from a seed, the timed phases, and the checks.

Every workload runs one paper sampler in ``sketch`` mode the way a user
does: construct it, ingest a turnstile stream, draw samples.  Inputs are
generated from the seed before any timer starts, and the amount of work is
fixed by the seed and ``--seconds``, so one seed always produces the same
sampler state, the same draws and the same counts; only the timings vary.
The sizes were set so that each phase lasts a few seconds on a 2-CPU
Xeon builder at ``--seconds 15``.  See ``README.md`` for why each workload
exists and which layers it stresses.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import (
    ApproximateLpSampler,
    PerfectLpSampler,
    PerfectLpSamplerInteger,
    cache_clear,
    cache_stats,
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.streams import sliding_window_stream
from speed import SpeedReference

# Independent sampler instances per run.  A sampler's FAIL rate and the
# number of candidates a draw examines depend on its own random state, so
# pooling draws over several instances keeps the draw timings of one run
# close to those of another.
INSTANCES = 6


@dataclass
class Inputs:
    """One workload's generated inputs."""

    n: int
    first: tuple[np.ndarray, np.ndarray]
    batches: list[tuple[np.ndarray, np.ndarray]]
    draws: int
    interleave: bool


@dataclass
class Measurement:
    """Timings, draws and counts of one pass over a workload.

    Times are as measured; ``*_segment`` records, for each timed call, the
    speed-reference segment it ran in, so that ``scaled`` can put it at
    reference speed.
    """

    setup_s: list[float] = field(default_factory=list)
    setup_segment: list[int] = field(default_factory=list)
    ingest_s: list[float] = field(default_factory=list)
    ingest_segment: list[int] = field(default_factory=list)
    ingest_updates: int = 0
    draw_s: list[float] = field(default_factory=list)
    draw_segment: list[int] = field(default_factory=list)
    # (number of batches ingested after the first one, sample or None)
    draws: list[tuple[int, object]] = field(default_factory=list)
    space_counters: list[int] = field(default_factory=list)
    clip_events: int = 0
    # Table-cache counts of every instance, read before the next clear.
    cache_misses: int = 0
    cache_hits: int = 0
    cache_bytes: int = 0
    # Timed seconds of each instance: its set-up, ingest and draw calls.
    instance_s: list[float] = field(default_factory=list)
    speed: SpeedReference = field(default_factory=SpeedReference)

    @property
    def wall_s(self) -> float:
        return sum(self.setup_s) + sum(self.ingest_s) + sum(self.draw_s)

    @property
    def operations(self) -> int:
        return len(self.setup_s) + len(self.ingest_s) + len(self.draw_s)

    def scaled(self, seconds: list[float], segments: list[int]) -> np.ndarray:
        """Call times at reference speed."""
        return np.asarray(seconds) * np.take(self.speed.factors(), segments)


def _sliding_window(n: int, updates: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """At least ``updates`` updates of a Zipfian sliding-window stream."""
    window = n
    # The stream holds one insertion per arrival plus one deletion per
    # arrival older than the window.
    arrivals = (updates + window) // 2 + 1
    stream = sliding_window_stream(n, window=window, total_items=arrivals, seed=seed)
    return stream.indices[:updates], stream.deltas[:updates]


def _cancellations(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A churn-heavy stream whose final vector is a Zipfian vector."""
    vector = zipfian_frequency_vector(n, seed=seed)
    stream = turnstile_stream_with_cancellations(vector, seed=seed + 1)
    return stream.indices, stream.deltas


def _split(indices: np.ndarray, deltas: np.ndarray, size: int):
    return [(indices[i:i + size], deltas[i:i + size])
            for i in range(0, len(indices), size)]


def _log_n(n: int) -> float:
    return max(2.0, math.log2(max(n, 4)))


def _rejection_space(n: int, p: float) -> int:
    """Counters of Algorithms 1/2 as configured by their defaults.

    ``N = ceil(8 n^{1-2/p} ln 3) + 4`` perfect L2 samplers, each with a
    main CountSketch (5 rows), a value bank of 8 CountSketches (5 rows) and
    a 12x5 AMS sketch; one 16x5 AMS sketch for F2; and an F_p estimator of
    5 groups x 20 max-stability repetitions, each a 5-row CountSketch plus
    one stored scale factor per coordinate.
    """
    exponent = 1.0 - 2.0 / p
    replicas = int(math.ceil(8.0 * n ** exponent * math.log(3.0))) + 4
    l2_buckets = int(math.ceil(4 * _log_n(n) ** 2))
    per_replica = 5 * l2_buckets + 8 * 5 * l2_buckets + 12 * 5
    fp_buckets = int(np.ceil(4 * n ** exponent * max(1.0, np.log2(max(n, 2))))) + 4
    fp = 5 * 20 * (5 * fp_buckets + n)
    return replicas * per_replica + 16 * 5 + fp


def _approximate_space(n: int, p: float, epsilon: float = 0.25) -> int:
    """Counters of Algorithm 4 as configured by its defaults."""
    exponent = 1.0 - 2.0 / p
    rows = int(math.ceil(_log_n(n)))
    log_inv_eps = max(1.0, math.log(1.0 / epsilon))
    cs1 = max(8, int(math.ceil(4 * n ** exponent * log_inv_eps)))
    cs2 = max(8, int(math.ceil(4 * log_inv_eps ** 2)))
    value = max(8, int(math.ceil(4 * n ** exponent * log_inv_eps / epsilon ** 2)))
    fp_buckets = int(np.ceil(4 * n ** exponent * max(1.0, np.log2(max(n, 2))))) + 4
    fp = 20 * (5 * fp_buckets + n)
    return rows * cs1 + rows * cs2 + 2 * 12 * 5 + fp + rows * value


@dataclass(frozen=True)
class Workload:
    """One sampler and the shape of the stream and draws it gets.

    ``stream`` is ``"sliding_window"`` (a Zipfian sliding-window stream cut
    into batches of ``batch`` updates, the first of which is set-up) or
    ``"cancellations"`` (one churn-heavy stream whose final vector is
    Zipfian: set-up ingests it whole and each warm batch replays it, so
    set-up touches every coordinate).  Counts are per ``share`` of
    ``--seconds``; with ``interleave`` each warm batch is followed by one
    draw instead of ``draws_per_share`` draws after the last batch.
    """

    name: str
    sampler: type
    n: int
    p: float
    stream: str
    batches_per_share: int
    draws_per_share: int = 0
    batch: int = 0
    interleave: bool = False
    space: Callable[[int, float], int] = _rejection_space

    def inputs(self, seed: int, seconds: int) -> Inputs:
        """The stream and draw count one sampler instance gets.

        Every instance of a run ingests the same stream; sizes grow with
        ``seconds`` so that the ``INSTANCES`` instances together measure
        about that long.
        """
        share = math.ceil(seconds / INSTANCES)
        batches = self.batches_per_share * share
        if self.stream == "sliding_window":
            indices, deltas = _sliding_window(self.n, self.batch * (1 + batches), seed)
            first, *rest = _split(indices, deltas, self.batch)
        else:
            first = _cancellations(self.n, seed)
            rest = [first] * batches
        draws = len(rest) if self.interleave else self.draws_per_share * share
        return Inputs(self.n, first, rest, draws=draws, interleave=self.interleave)

    def construct(self, seed: int):
        return self.sampler(self.n, self.p, seed=seed)

    def expected_space(self) -> int:
        return self.space(self.n, self.p)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ingest-p3", PerfectLpSamplerInteger, 2000, 3, "sliding_window",
                 batches_per_share=1, draws_per_share=8, batch=4096),
        Workload("draws-p2.5", PerfectLpSampler, 500, 2.5, "cancellations",
                 batches_per_share=3, draws_per_share=30),
        Workload("window-p3", PerfectLpSamplerInteger, 1000, 3, "sliding_window",
                 batches_per_share=10, batch=256, interleave=True),
        Workload("approx-p3", ApproximateLpSampler, 300, 3, "cancellations",
                 batches_per_share=40, draws_per_share=250, space=_approximate_space),
    )
}


def measure(workload: Workload, inputs: Inputs, seed: int) -> Measurement:
    """Run ``INSTANCES`` independent samplers through set-up, ingest, draws.

    Each instance starts from an empty table cache, as in a fresh process;
    the previous instance is dropped first, so the peak holds one sampler.
    The speed reference runs before and after each set-up and between
    timed calls, never inside them.
    """
    clock = time.perf_counter
    m = Measurement()
    speed = m.speed
    for instance in range(INSTANCES):
        timed_before = m.wall_s
        sampler = None
        gc.collect()
        cache_clear()
        speed.mark()
        start = clock()
        sampler = workload.construct(seed * INSTANCES + instance)
        sampler.update_batch(*inputs.first)
        m.setup_s.append(clock() - start)
        m.setup_segment.append(speed.segment)
        speed.mark()

        def ingest(indices, deltas):
            start = clock()
            sampler.update_batch(indices, deltas)
            m.ingest_s.append(clock() - start)
            m.ingest_segment.append(speed.segment)
            m.ingest_updates += len(indices)
            speed.maybe_mark()

        def draw(ingested):
            start = clock()
            drawn = sampler.sample()
            m.draw_s.append(clock() - start)
            m.draw_segment.append(speed.segment)
            m.draws.append((ingested, drawn))
            speed.maybe_mark()

        if inputs.interleave:
            for ingested, (indices, deltas) in enumerate(inputs.batches, start=1):
                ingest(indices, deltas)
                draw(ingested)
        else:
            for indices, deltas in inputs.batches:
                ingest(indices, deltas)
            for _ in range(inputs.draws):
                draw(len(inputs.batches))
        m.space_counters.append(sampler.space_counters())
        m.clip_events += getattr(sampler, "clip_events", 0)
        stats = cache_stats()
        m.cache_misses += stats.misses
        m.cache_hits += stats.hits
        m.cache_bytes += stats.current_bytes
        m.instance_s.append(m.wall_s - timed_before)
    speed.mark()
    return m


@dataclass
class CheckResult:
    failures: list[str]
    accepted: int
    relative_errors: list[float]


def check(workload: Workload, inputs: Inputs, m: Measurement) -> CheckResult:
    """Check every draw against the exact vector the inputs produce.

    A draw made after ``ingested`` warm batches is checked against the
    vector of the first batch plus those batches.
    """
    n = inputs.n
    failures: list[str] = []
    vector = np.zeros(n)
    applied = None
    accepted = 0
    errors: list[float] = []
    for ingested, drawn in m.draws:
        if applied is None or ingested < applied:
            # The next instance starts again from the first batch.
            vector[:] = 0.0
            np.add.at(vector, *inputs.first)
            applied = 0
        while applied < ingested:
            np.add.at(vector, *inputs.batches[applied])
            applied += 1
        if drawn is None:
            continue
        accepted += 1
        index = drawn.index
        if not 0 <= index < n:
            failures.append(f"draw index {index} outside [0, {n})")
        elif vector[index] == 0:
            failures.append(f"draw index {index} is off the support of the exact vector")
        elif drawn.value_estimate is not None:
            errors.append(abs(drawn.value_estimate - vector[index]) / abs(vector[index]))
    expected = workload.expected_space()
    for space in m.space_counters:
        if space != expected:
            failures.append(f"space_counters {space} != expected {expected}")
    return CheckResult(failures, accepted, errors)


def end_to_end_metrics(m: Measurement, scaled: bool = True) -> dict:
    """The user-visible metrics of one untraced pass, as (value, unit).

    Times are at reference speed unless ``scaled`` is false.
    """
    setup_s, ingest_s, draw_s = m.setup_s, m.ingest_s, m.draw_s
    if scaled:
        setup_s = m.scaled(setup_s, m.setup_segment)
        ingest_s = m.scaled(ingest_s, m.ingest_segment)
        draw_s = m.scaled(draw_s, m.draw_segment)
    draw_ms = np.asarray(draw_s) * 1e3
    return {
        "setup_s": (float(np.median(setup_s)), "s"),
        "ingest_updates_per_s": (m.ingest_updates / float(np.sum(ingest_s)), "1/s"),
        # The mean, not the median: draw times mix fast accepted draws with
        # slow FAIL draws, and the median sits in the gap between the two,
        # so it jumps with each instance's FAIL share.
        "draw_ms_mean": (float(draw_ms.mean()), "ms"),
        "draw_ms_p90": (float(np.percentile(draw_ms, 90)), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "space_counters": (m.space_counters[-1], "count"),
    }


def outcome_metrics(m: Measurement, checked: CheckResult) -> dict:
    """What the draws returned: deterministic per seed, timings aside.

    These vary with each sampler instance's random state far more than the
    timings do (an Algorithm 4 instance either passes its gap test on
    nearly every draw or on none), so the traced run reports them without
    a bound.
    """
    errors = checked.relative_errors
    return {
        "core.fail_rate": (1.0 - checked.accepted / len(m.draws), "share"),
        "core.samples_per_s": (checked.accepted / float(m.scaled(m.draw_s, m.draw_segment).sum()),
                               "1/s"),
        "core.value_rel_err_p50": (float(np.median(errors)) if errors else 0.0, "share"),
        "core.draws": (len(m.draws), "count"),
    }
