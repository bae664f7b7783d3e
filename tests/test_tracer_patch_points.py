"""The benchmark tracer's patch points still exist where it looks for them.

``perfbench/tracing.py`` wraps library methods by reading
``cls.__dict__[attr]``, so a method it names must stay defined directly on
that class.  Entering and leaving the tracer once fails here, rather than
in a benchmark run, if such a method is renamed or moved to another class.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_every_patched_method_is_defined_on_its_class(tracing):
    missing = [f"{cls.__name__}.{attr}" for cls, attr, _, _ in tracing.SPANS
               if attr not in cls.__dict__]
    assert not missing


def test_tracer_enters_records_and_restores(tracing):
    from repro import PerfectLpSampler

    originals = {(cls, attr): cls.__dict__[attr] for cls, attr, _, _ in tracing.SPANS}
    with tracing.Tracer() as tracer:
        sampler = PerfectLpSampler(32, 2.5, seed=1)
        sampler.update_batch([0, 1, 2, 3], [5.0, -2.0, 7.0, 1.0])
        sampler.sample()
    for (cls, attr), original in originals.items():
        assert cls.__dict__[attr] is original
    _, calls, _ = tracer.summary()
    assert calls["core.lp.construct"] == 1
    assert calls["core.lp.update_batch"] == 1
    assert calls["core.lp.sample"] == 1
