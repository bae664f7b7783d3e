"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public methods of ``repro.sketch``, ``repro.samplers``,
``repro.core`` and ``repro.utils`` by patching their class attributes from
this file, so the library source stays untouched.  Every call of a wrapped
method records one span ``[name, start, end, parent]``; spans stay in memory
and are reduced to per-name self time and call counts when the run ends.
One thread makes every call, so spans nest strictly and a parent's children
never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from repro import (
    AMSEnsemble,
    AMSSketch,
    ApproximateLpSampler,
    CountSketch,
    CountSketchEnsemble,
    DiscretizedDuplication,
    FastUpdateState,
    FpEstimator,
    JW18LpSamplerEnsemble,
    MaxStabilityFpEstimator,
    PerfectLpSampler,
    PerfectLpSamplerInteger,
)
from repro.core.lp_base import RejectionLpSamplerBase
from repro.sketch.hashing import KWiseHashFamily, SignHashFamily
from repro.utils.taylor import TaylorPowerEstimator


def _count_candidates(tracer: "Tracer", drawn) -> None:
    if drawn is not None:
        tracer.counts["candidates"] += 1


def _count_accepted(tracer: "Tracer", drawn) -> None:
    if drawn is not None:
        tracer.counts["accepted"] += 1


# (class, attribute, span name, hook on the return value)
SPANS = [
    (CountSketchEnsemble, "update_batch", "sketch.cs_ensemble.update_batch", None),
    (AMSEnsemble, "update_batch", "sketch.ams_ensemble.update_batch", None),
    (JW18LpSamplerEnsemble, "update_batch", "samplers.l2_ensemble.update_batch", None),
    (AMSSketch, "update_batch", "sketch.ams.update_batch", None),
    (AMSSketch, "estimate_f2", "sketch.ams.estimate_f2", None),
    (FpEstimator, "update_batch", "sketch.fp.update_batch", None),
    # The groups of FpEstimator, and Algorithm 4's standalone estimator.
    (MaxStabilityFpEstimator, "update_batch", "sketch.fp_group.update_batch", None),
    (MaxStabilityFpEstimator, "estimate", "sketch.fp_group.estimate", None),
    # The ``*_tensor`` bridges of the ensembles and the scalar sketches'
    # direct calls all end in these three cached evaluations.
    (KWiseHashFamily, "hash_table", "sketch.hash_table", None),
    (SignHashFamily, "sign_table", "sketch.hash_table", None),
    (SignHashFamily, "sign_table_float", "sketch.hash_table", None),
    (FpEstimator, "estimate", "sketch.fp.estimate", None),
    (CountSketchEnsemble, "estimate_all_members", "sketch.cs_ensemble.estimate_all_members", None),
    (JW18LpSamplerEnsemble, "sample_replica", "samplers.l2_ensemble.sample_replica",
     _count_candidates),
    (JW18LpSamplerEnsemble, "independent_value_estimates",
     "samplers.l2_ensemble.independent_value_estimates", None),
    (CountSketchEnsemble, "estimate_members_at", "sketch.cs_ensemble.estimate_members_at", None),
    (TaylorPowerEstimator, "estimate", "utils.taylor.estimate", None),
    (RejectionLpSamplerBase, "sample", "core.lp.sample", _count_accepted),
    (PerfectLpSamplerInteger, "__init__", "core.lp.construct", None),
    (PerfectLpSampler, "__init__", "core.lp.construct", None),
    (RejectionLpSamplerBase, "update_batch", "core.lp.update_batch", None),
    (ApproximateLpSampler, "__init__", "core.approx.construct", None),
    (ApproximateLpSampler, "update_batch", "core.approx.update_batch", None),
    (ApproximateLpSampler, "sample", "core.approx.sample", None),
    # Private, but it is the per-candidate loop of Algorithm 4's draw; left
    # unwrapped, its time sits in core.approx.sample and fails the coverage
    # check.
    (ApproximateLpSampler, "_residual_estimate", "core.approx.residual_estimate", None),
    (FastUpdateState, "apply_update_batch", "core.fast_update.apply_update_batch", None),
    (DiscretizedDuplication, "max_factor", "core.fast_update.max_factor", None),
    (FastUpdateState, "residual_l2_scale", "core.fast_update.residual_l2_scale", None),
    (CountSketch, "update_batch", "sketch.countsketch.update_batch", None),
    (CountSketch, "estimate_all", "sketch.countsketch.estimate_all", None),
    (CountSketch, "estimate", "sketch.countsketch.estimate", None),
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name, _ in SPANS))

# The samplers' public entry points.  Their self time is work that no layer
# span covers, so the coverage check counts it as unattributed.
ENTRY_SPANS = ("core.lp.construct", "core.lp.update_batch", "core.lp.sample",
               "core.approx.construct", "core.approx.update_batch", "core.approx.sample")


class Tracer:
    """Records spans of the wrapped methods while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[type, str, object]] = []

    def _wrap(self, cls: type, attr: str, name: str, hook) -> None:
        original = cls.__dict__[attr]
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        setattr(cls, attr, traced)
        self._patched.append((cls, attr, original))

    def __enter__(self) -> "Tracer":
        for cls, attr, name, hook in SPANS:
            self._wrap(cls, attr, name, hook)
        return self

    def __exit__(self, *exc) -> None:
        for cls, attr, original in reversed(self._patched):
            setattr(cls, attr, original)
        self._patched.clear()

    def summary(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per-name self seconds, per-name calls, and total root-span seconds.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child_time = [0.0] * len(self.spans)
        root_time = 0.0
        for name, start, end, parent in self.spans:
            if parent < 0:
                root_time += end - start
            else:
                child_time[parent] += end - start
        self_s = {name: 0.0 for name in SPAN_NAMES}
        calls = {name: 0 for name in SPAN_NAMES}
        for (name, start, end, _), children in zip(self.spans, child_time):
            self_s[name] += (end - start) - children
            calls[name] += 1
        return self_s, calls, root_time
