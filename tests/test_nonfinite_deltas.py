"""Non-finite deltas are refused at the boundary.

A linear sketch that adds a NaN or an infinite delta keeps it forever, and
a sampler whose query state is derived once per write would then serve the
poisoned state on every later draw.  ``coerce_batch`` and the samplers'
scalar ``update`` refuse such deltas before any state changes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ApproximateLpSampler,
    CountSketch,
    PerfectLpSampler,
    PerfectLpSamplerInteger,
)
from repro.exceptions import InvalidParameterError
from repro.samplers.base import coerce_batch
from repro.samplers.jw18_lp_sampler import JW18LpSampler

BAD = [np.nan, np.inf, -np.inf]

SAMPLERS = {
    "integer-p3": lambda: PerfectLpSamplerInteger(16, 3, seed=1),
    "general-p2.5": lambda: PerfectLpSampler(16, 2.5, seed=1),
    "integer-p3-oracle": lambda: PerfectLpSamplerInteger(16, 3, seed=1, backend="oracle"),
    "approximate-p3": lambda: ApproximateLpSampler(16, 3, seed=1),
    "jw18-p1": lambda: JW18LpSampler(16, 1.0, seed=1),
}


@pytest.mark.parametrize("bad", BAD)
def test_coerce_batch_refuses_non_finite_deltas(bad):
    with pytest.raises(InvalidParameterError, match="finite"):
        coerce_batch([0, 1, 2], [1.0, bad, 2.0])


@pytest.mark.parametrize("bad", BAD)
def test_countsketch_batch_refuses_and_stays_clean(bad):
    sketch = CountSketch(16, 8, 3, seed=2)
    sketch.update_batch([1, 2], [3.0, 4.0])
    before = sketch.estimate_all()
    with pytest.raises(InvalidParameterError):
        sketch.update_batch([1, 2], [bad, 4.0])
    np.testing.assert_array_equal(sketch.estimate_all(), before)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("case", sorted(SAMPLERS))
def test_sampler_scalar_update_refuses(case, bad):
    sampler, twin = SAMPLERS[case](), SAMPLERS[case]()
    for target in (sampler, twin):
        target.update_batch(np.arange(16), np.arange(1.0, 17.0))
    with pytest.raises(InvalidParameterError, match="finite"):
        sampler.update(3, bad)
    with pytest.raises(InvalidParameterError, match="finite"):
        sampler.update_batch([3], [bad])
    # Nothing was applied: the sampler still draws what its twin draws.
    for _ in range(3):
        drawn, expected = sampler.sample(), twin.sample()
        assert (drawn is None) == (expected is None)
        if drawn is not None:
            assert (drawn.index, drawn.value_estimate) == (expected.index,
                                                          expected.value_estimate)
