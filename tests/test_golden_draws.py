"""Golden draw sequences of the paper's sketch-mode samplers.

Each case builds one sampler at a small universe with a fixed seed and runs
the schedule: batch write, 5 draws, batch write, 1 draw, scalar ``update``,
2 draws.  Every draw's index, value estimate, scalar metadata and the
sampler's running ``clip_events`` must equal the recorded sequence in
``tests/data/golden_draws.json`` exactly.  Draws made on an unchanged
sketch share one write epoch, so this pins that answering queries from
state derived once per write gives the same draws, bit for bit, as
recomputing it on every draw.

Regenerate the data (only when a change is *meant* to alter draws) with::

    PYTHONPATH=src python tests/test_golden_draws.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro import (
    ApproximateLpSampler,
    PerfectLpSampler,
    PerfectLpSamplerInteger,
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)

DATA = pathlib.Path(__file__).parent / "data" / "golden_draws.json"

N = 48

CASES = {
    "integer-p3": lambda seed: PerfectLpSamplerInteger(N, 3, seed=seed),
    "integer-p4": lambda seed: PerfectLpSamplerInteger(N, 4, seed=seed),
    "general-p2.5": lambda seed: PerfectLpSampler(N, 2.5, seed=seed),
    "approximate-p3": lambda seed: ApproximateLpSampler(N, 3, seed=seed),
}
SEEDS = (1, 2, 3)


def _record(drawn, sampler) -> dict:
    entry = {"clip_events": getattr(sampler, "clip_events", None)}
    if drawn is None:
        entry["index"] = None
        return entry
    entry["index"] = int(drawn.index)
    entry["value_estimate"] = (
        None if drawn.value_estimate is None else float(drawn.value_estimate))
    entry["metadata"] = {
        key: value.item() if isinstance(value, np.generic) else value
        for key, value in sorted(drawn.metadata.items())
        if isinstance(value, (int, float, str, np.generic))
    }
    return entry


def draw_sequence(case: str, seed: int) -> list[dict]:
    """Run the golden schedule and return one record per draw."""
    vector = zipfian_frequency_vector(N, seed=seed + 100)
    stream = turnstile_stream_with_cancellations(vector, seed=seed + 200)
    indices, deltas = stream.indices, stream.deltas
    half = len(indices) // 2
    sampler = CASES[case](seed)
    records = []
    sampler.update_batch(indices[:half], deltas[:half])
    records += [_record(sampler.sample(), sampler) for _ in range(5)]
    sampler.update_batch(indices[half:], deltas[half:])
    records.append(_record(sampler.sample(), sampler))
    sampler.update(int(np.argmax(np.abs(vector))), 3.0)
    records += [_record(sampler.sample(), sampler) for _ in range(2)]
    return records


def _golden() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_draw_sequence_matches_golden(case, seed):
    expected = _golden()[f"{case}/seed={seed}"]
    assert draw_sequence(case, seed) == expected


def test_golden_data_covers_accepted_draws():
    """The recorded sequences exercise accepted draws, not only FAILs."""
    golden = _golden()
    for case in CASES:
        accepted = sum(entry["index"] is not None
                       for seed in SEEDS for entry in golden[f"{case}/seed={seed}"])
        assert accepted > 0, case


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    payload = {f"{case}/seed={seed}": draw_sequence(case, seed)
               for case in sorted(CASES) for seed in SEEDS}
    DATA.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
