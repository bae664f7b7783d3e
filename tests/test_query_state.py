"""Query state derived once per write epoch.

Algorithms 1 and 2 read ``F̂_2``, ``F̂_p`` and, for every ``L_2`` sampler,
its top two coordinates, ``L_2`` scale and value estimates.  All of it is
fixed between two writes, so the query path derives it on the first draw
after a write and keeps it until the next one.  These tests pin that down:

* after every mutator (``update``, ``update_batch``, ``merge`` of same-seed
  shards, ``concat``) each cached quantity equals a fresh recomputation;
* interleaving writes and draws gives exactly the draws of an uncached
  reference that recomputes every quantity from the sketch tables, with
  ``np.median`` and ``argsort``, on every draw (it lives only here, so the
  library keeps one code path);
* pickles and snapshots carry no derived state;
* the kernels behind the state (the median network, the Taylor estimator)
  equal their references bit for bit.
"""

from __future__ import annotations

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    MaxStabilityFpEstimator,
    table_mode,
    PerfectLpSampler,
    PerfectLpSamplerInteger,
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.samplers.jw18_lp_sampler import PerfectL2Sampler
from repro.sketch.countsketch import _transposition_median, median_of_rows
from repro.sketch.hashing import KWiseHashFamily, SignHashFamily
from repro.utils.ensemble import build_ensemble
from repro.utils.snapshot import object_from_snapshot, snapshot_bytes
from repro.utils.taylor import TaylorPowerEstimator, taylor_power_estimate

N = 40


def _stream(seed: int, n: int = N):
    vector = zipfian_frequency_vector(n, seed=seed)
    stream = turnstile_stream_with_cancellations(vector, seed=seed + 1)
    return stream.indices, stream.deltas


# --------------------------------------------------------------------- #
# Uncached reference: every quantity from the tables, on every call
# --------------------------------------------------------------------- #
def reference_estimates(sketches) -> np.ndarray:
    """``(M, n)`` point queries of a CountSketch ensemble via ``np.median``."""
    sketches._ensure_tables()
    members = np.arange(sketches.num_members)[:, None, None]
    rows = np.arange(sketches.shape[0])[None, :, None]
    values = sketches._sign_of * sketches.member_tables()[members, rows, sketches._bucket_of]
    return np.median(values, axis=1)


def reference_fp(group: MaxStabilityFpEstimator) -> float:
    maxima = np.max(np.abs(reference_estimates(group._sketch_ensemble)), axis=1)
    if np.any(maxima <= 0):
        return 0.0
    return float((group._repetitions - 1) / (maxima ** (-group._p)).sum())


def reference_top_two(ensemble):
    """Per replica ``(best, top, runner_up)`` by ``argsort``, or ``None``."""
    result = []
    for magnitudes in np.abs(reference_estimates(ensemble._main)):
        if not np.any(magnitudes > 0):
            result.append(None)
            continue
        order = np.argsort(-magnitudes)
        runner_up = float(magnitudes[order[1]]) if len(magnitudes) > 1 else 0.0
        result.append((int(order[0]), float(magnitudes[order[0]]), runner_up))
    return result


def reference_member_estimates(ensemble, replica: int, index: int) -> np.ndarray:
    group = ensemble._value_group
    return reference_estimates(ensemble._value)[replica * group:(replica + 1) * group, index]


def reference_value(ensemble, replica: int, index: int) -> float:
    instance = ensemble.replicas[replica]
    scaled = float(np.mean(reference_member_estimates(ensemble, replica, index)))
    return scaled * instance._exponentials[index] ** (1.0 / ensemble._p)


def reference_independent_estimates(ensemble, replica, index, count) -> np.ndarray:
    estimates = reference_member_estimates(ensemble, replica, index)
    unscale = ensemble.replicas[replica]._exponentials[index] ** (1.0 / ensemble._p)
    group_size = max(1, len(estimates) // count)
    groups = []
    for group_index in range(count):
        start = (group_index * group_size) % len(estimates)
        chunk = estimates[start:start + group_size]
        if len(chunk) < group_size:
            chunk = np.concatenate([chunk, estimates[: group_size - len(chunk)]])
        groups.append(float(np.mean(chunk)))
    return np.asarray(groups) * unscale


def reference_power(sampler, estimates, pivot) -> float:
    if isinstance(sampler, PerfectLpSampler):
        if pivot == 0.0:
            pivot = float(np.mean(estimates)) or 1.0
        value = taylor_power_estimate(np.abs(estimates), abs(pivot), sampler.p - 2.0,
                                      sampler.taylor_terms)
        return abs(value) if math.isfinite(value) else 0.0
    return abs(float(np.prod(estimates[: sampler._power_factors])))


def reference_sample(sampler):
    """One draw of Algorithm 1/2 recomputing everything; returns (draw, clips).

    Consumes the sampler's generators exactly as ``sample()`` does.
    """
    if sampler._num_updates == 0:
        return None, 0
    f2 = sampler._f2_sketch.estimate_f2()
    fp = float(np.median([reference_fp(group) for group in sampler._fp_sketch._groups]))
    if fp <= 0:
        return None, 0
    scale = f2 / (sampler._rejection_constant * sampler.n ** sampler._space_exponent * fp)
    ensemble = sampler._l2_ensemble
    needed = max(sampler._num_estimates_needed(), 1)
    attempts = clips = 0
    for replica, top_two in enumerate(reference_top_two(ensemble)):
        if top_two is None:
            continue
        best, top, runner_up = top_two
        instance = ensemble.replicas[replica]
        l2_scale = ensemble._ams.estimate_l2_member(replica)
        jitter = instance._rng.uniform(0.5, 1.5)
        threshold = (instance._gap_multiplier * jitter * l2_scale
                     / math.sqrt(instance._buckets))
        if top - runner_up <= threshold:
            continue
        estimates = reference_independent_estimates(ensemble, replica, best, needed)
        pivot = reference_value(ensemble, replica, best)
        if pivot == 0.0:
            pivot = float(np.mean(estimates)) or 1.0
        attempts += 1
        acceptance = scale * reference_power(sampler, estimates, pivot)
        if acceptance > 1.0:
            clips += 1
            acceptance = 1.0
        if sampler._rng.random() < acceptance:
            return (best, float(np.mean(estimates)), acceptance, attempts, f2, fp), clips
    return None, clips


def _outcome(drawn):
    if drawn is None:
        return None
    meta = drawn.metadata
    return (drawn.index, drawn.value_estimate, meta["acceptance_probability"],
            meta["attempts"], meta["f2_estimate"], meta["fp_estimate"])


SAMPLERS = {
    "integer-p3": lambda seed: PerfectLpSamplerInteger(N, 3, seed=seed),
    "general-p2.5": lambda seed: PerfectLpSampler(N, 2.5, seed=seed),
}

_operation = st.one_of(
    st.tuples(st.just("batch"), st.integers(0, 2**16)),
    st.tuples(st.just("update"), st.integers(0, N - 1), st.integers(-40, 40)),
    st.tuples(st.just("draw"), st.integers(1, 4)),
)


@pytest.mark.parametrize("case", sorted(SAMPLERS))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**20), operations=st.lists(_operation, min_size=1, max_size=7))
def test_interleaved_writes_and_draws_match_uncached_reference(case, seed, operations):
    cached = SAMPLERS[case](seed)
    reference = SAMPLERS[case](seed)
    indices, deltas = _stream(seed)
    cached.update_batch(indices, deltas)
    reference.update_batch(indices, deltas)
    reference_clips = 0
    for operation in operations:
        if operation[0] == "batch":
            rng = np.random.default_rng(operation[1])
            batch = (rng.integers(0, N, size=20), rng.integers(-5, 6, size=20).astype(float))
            cached.update_batch(*batch)
            reference.update_batch(*batch)
        elif operation[0] == "update":
            cached.update(operation[1], float(operation[2]))
            reference.update(operation[1], float(operation[2]))
        else:
            for _ in range(operation[1]):
                expected, clips = reference_sample(reference)
                reference_clips += clips
                assert _outcome(cached.sample()) == expected
    assert cached.clip_events == reference_clips


# --------------------------------------------------------------------- #
# Staleness: every mutator drops the state it invalidates
# --------------------------------------------------------------------- #
def _l2_ensemble(seeds):
    return build_ensemble([PerfectL2Sampler(N, seed) for seed in seeds])


def _query_every_replica(ensemble) -> None:
    for replica in range(ensemble.num_replicas):
        ensemble.sample_replica(replica)
        best = int(ensemble._epoch_state().top_two[0][replica])
        ensemble.independent_value_estimates(replica, best, 3)


def assert_l2_state_fresh(ensemble) -> None:
    """The cached state, queried again, equals the uncached reference."""
    _query_every_replica(ensemble)
    best, top, runner_up, nonzero = ensemble._epoch_state().top_two
    for replica, expected in enumerate(reference_top_two(ensemble)):
        assert bool(nonzero[replica]) == (expected is not None)
        if expected is not None:
            assert (int(best[replica]), float(top[replica]),
                    float(runner_up[replica])) == expected
            index = expected[0]
            np.testing.assert_array_equal(
                ensemble.independent_value_estimates(replica, index, 3),
                reference_independent_estimates(ensemble, replica, index, 3))
            assert ensemble.estimate_value(replica, index) == reference_value(
                ensemble, replica, index)
    for replica, scale in enumerate(ensemble._epoch.l2_scales):
        assert scale == ensemble._ams.estimate_l2_member(replica)


def test_l2_ensemble_state_follows_update_batch():
    ensemble = _l2_ensemble([1, 2, 3, 4])
    indices, deltas = _stream(5)
    ensemble.update_batch(indices, deltas)
    assert_l2_state_fresh(ensemble)
    ensemble.update_batch(indices[:7], -3.0 * deltas[:7])
    assert_l2_state_fresh(ensemble)
    ensemble.update_batch([3], [11.0])
    assert_l2_state_fresh(ensemble)


def test_l2_ensemble_state_follows_merge_of_same_seed_shards():
    indices, deltas = _stream(6)
    half = len(indices) // 2
    ensemble, shard = _l2_ensemble([7, 8, 9]), _l2_ensemble([7, 8, 9])
    ensemble.update_batch(indices[:half], deltas[:half])
    assert_l2_state_fresh(ensemble)
    shard.update_batch(indices[half:], deltas[half:])
    ensemble.merge(shard)
    assert_l2_state_fresh(ensemble)


def test_l2_ensemble_state_follows_concat():
    indices, deltas = _stream(7)
    left, right = _l2_ensemble([1, 2]), _l2_ensemble([3, 4])
    for part in (left, right):
        part.update_batch(indices, deltas)
        _query_every_replica(part)
    merged = type(left).concat([left, right])
    assert merged._epoch.top_two is None
    assert_l2_state_fresh(merged)


def test_top_two_keeps_argsort_choice_on_ties_and_nan():
    ensemble = _l2_ensemble(list(range(30, 42)))
    ensemble.update_batch(*_stream(16))
    rng = np.random.default_rng(0)
    crafted = rng.integers(-3, 4, size=(ensemble.num_replicas, N)).astype(float)
    crafted[0] = 0.0
    crafted[1, 5] = np.nan
    # Integer rows are full of ties at the top, where argmax and argsort differ.
    assert any(int(np.argsort(-np.abs(row))[0]) != int(np.argmax(np.abs(row)))
               for row in crafted[2:])
    ensemble._main.estimate_all_members = lambda: crafted
    best, top, runner_up, nonzero = ensemble._epoch_state().top_two
    for replica, row in enumerate(np.abs(crafted)):
        assert bool(nonzero[replica]) == bool(np.any(row > 0))
        if nonzero[replica]:
            order = np.argsort(-row)
            assert int(best[replica]) == int(order[0])
            assert top[replica] == row[order[0]]
            assert runner_up[replica] == row[order[1]]


def test_fp_estimate_follows_update_and_update_batch():
    estimator = MaxStabilityFpEstimator(N, 3.0, repetitions=6, seed=3)
    indices, deltas = _stream(8)
    estimator.update_batch(indices, deltas)
    assert estimator.estimate() == reference_fp(estimator)
    before = estimator.estimate()
    estimator.update(int(indices[0]), 1e4)
    assert estimator.estimate() == reference_fp(estimator) != before
    estimator.update_batch(indices[:2], [-1e4, 3e4])
    assert estimator.estimate() == reference_fp(estimator)


def test_fp_ensemble_update_batch_and_merge_invalidate_members():
    seeds = [11, 12, 13]
    make = lambda: build_ensemble(  # noqa: E731
        [MaxStabilityFpEstimator(N, 3.0, repetitions=6, seed=s) for s in seeds])
    ensemble, shard = make(), make()
    indices, deltas = _stream(9)
    half = len(indices) // 2
    ensemble.update_batch(indices[:half], deltas[:half])
    for replica, member in enumerate(ensemble.replicas):
        assert ensemble.estimate_replica(replica) == reference_fp(member)
    before = [ensemble.estimate_replica(r) for r in range(ensemble.num_replicas)]
    ensemble.update_batch([0, 1], [1e4, -2e4])
    for replica, member in enumerate(ensemble.replicas):
        assert ensemble.estimate_replica(replica) == reference_fp(member) != before[replica]
    shard.update_batch(indices[half:], deltas[half:])
    ensemble.merge(shard)
    for replica, member in enumerate(ensemble.replicas):
        assert ensemble.estimate_replica(replica) == reference_fp(member)


@pytest.mark.parametrize("case", sorted(SAMPLERS))
def test_sampler_candidates_follow_writes(case):
    sampler = SAMPLERS[case](4)
    indices, deltas = _stream(10)
    needed = max(sampler._num_estimates_needed(), 1)
    for write in (lambda: sampler.update_batch(indices, deltas),
                  lambda: sampler.update(int(indices[1]), 9.0),
                  lambda: sampler.update_batch(indices[:4], -deltas[:4])):
        write()
        assert sampler._candidates == {}
        for _ in range(4):
            sampler.sample()
        ensemble = sampler._l2_ensemble
        for replica, (index, power, value) in sampler._candidates.items():
            estimates = reference_independent_estimates(ensemble, replica, index, needed)
            pivot = reference_value(ensemble, replica, index)
            if pivot == 0.0:
                pivot = float(np.mean(estimates)) or 1.0
            assert index == reference_top_two(ensemble)[replica][0]
            assert power == reference_power(sampler, estimates, pivot)
            assert value == float(np.mean(estimates))


# --------------------------------------------------------------------- #
# Pickles and snapshots carry no derived state
# --------------------------------------------------------------------- #
def _generators(sampler):
    return [sampler._rng] + [inst._rng for inst in sampler._l2_ensemble.replicas]


def test_draw_leaves_snapshot_unchanged_but_for_generators():
    indices, deltas = _stream(12, n=200)
    drawn = PerfectLpSamplerInteger(200, 3, seed=1)
    untouched = PerfectLpSamplerInteger(200, 3, seed=1)
    for sampler in (drawn, untouched):
        sampler.update_batch(indices, deltas)
    drawn.sample()
    assert drawn._candidates or drawn._l2_ensemble._epoch.top_two is not None
    # Give the untouched sampler the generator states the draw advanced.
    for source, target in zip(_generators(drawn), _generators(untouched)):
        target.bit_generator.state = source.bit_generator.state
    untouched._clip_events = drawn._clip_events
    assert (snapshot_bytes(drawn, compression=None)
            == snapshot_bytes(untouched, compression=None))


def test_restored_sampler_draws_the_same_sequence():
    indices, deltas = _stream(13)
    sampler = PerfectLpSampler(N, 2.5, seed=2)
    sampler.update_batch(indices, deltas)
    sampler.sample()
    restored, _ = object_from_snapshot(snapshot_bytes(sampler))
    assert restored._candidates == {}
    assert restored._l2_ensemble._epoch.top_two is None
    assert ([_outcome(sampler.sample()) for _ in range(6)]
            == [_outcome(restored.sample()) for _ in range(6)])
    clone = pickle.loads(pickle.dumps(sampler))
    sampler.update_batch(indices[:5], deltas[:5])
    clone.update_batch(indices[:5], deltas[:5])
    assert ([_outcome(sampler.sample()) for _ in range(3)]
            == [_outcome(clone.sample()) for _ in range(3)])


def test_legacy_pickle_state_without_caches_restores():
    sampler = PerfectLpSamplerInteger(N, 3, seed=5)
    sampler.update_batch(*_stream(14))
    ensemble = sampler._l2_ensemble
    state = ensemble.__getstate__()
    state["_estimates_cache"] = np.zeros((ensemble.num_replicas, N))
    legacy = type(ensemble).__new__(type(ensemble))
    legacy.__setstate__(state)
    assert not hasattr(legacy, "_estimates_cache")
    assert legacy._epoch.top_two is None
    group = sampler._fp_sketch._groups[0]
    group_state = group.__getstate__()
    del group_state["_estimate_cache"]
    old_group = type(group).__new__(type(group))
    old_group.__setstate__(group_state)
    assert old_group.estimate() == group.estimate()


def test_legacy_taylor_pickle_without_coefficients_restores():
    """A pickle made before the coefficients were precomputed still draws."""
    sampler = PerfectLpSampler(N, 2.5, seed=6)
    sampler.update_batch(*_stream(16))
    legacy = pickle.loads(pickle.dumps(sampler))
    del legacy._taylor.__dict__["_coefficients"]
    restored = pickle.loads(pickle.dumps(legacy))
    assert restored._taylor._coefficients == sampler._taylor._coefficients
    assert ([_outcome(restored.sample()) for _ in range(6)]
            == [_outcome(sampler.sample()) for _ in range(6)])


# --------------------------------------------------------------------- #
# Kernels
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", ["cached", "private", "blocked"])
def test_batched_epoch_kernels_equal_per_member_queries(mode):
    with table_mode(mode):
        ensemble = _l2_ensemble([21, 22, 23, 24, 25])
    ensemble.update_batch(*_stream(15))
    bank, group = ensemble._value, ensemble._value_group
    coordinates = np.random.default_rng(1).integers(0, N, size=ensemble.num_replicas)
    batched = bank.estimate_each_member_at(np.repeat(coordinates, group))
    for replica, index in enumerate(coordinates):
        start, stop = replica * group, (replica + 1) * group
        np.testing.assert_array_equal(
            batched[start:stop].view(np.uint64),
            bank.estimate_members_at(start, stop, int(index)).view(np.uint64))
    scattered = np.random.default_rng(2).integers(0, N, size=bank.num_members)
    each = bank.estimate_each_member_at(scattered)
    for member, index in enumerate(scattered):
        assert each[member].view(np.uint64) == bank.estimate_members_at(
            member, member + 1, int(index))[0].view(np.uint64)
    scales = ensemble._ams.estimate_l2_members()
    assert [float(s) for s in scales] == [
        ensemble._ams.estimate_l2_member(r) for r in range(ensemble.num_replicas)]


_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.5, -2.5])


def _median_inputs(rng, rows, trial, lanes):
    shape = [int(rng.integers(1, 6)), int(rng.integers(1, lanes))]
    axis = int(rng.integers(0, 3))
    shape.insert(axis, rows)
    if trial % 3 == 0:
        values = rng.normal(size=shape)
    elif trial % 3 == 1:
        values = rng.choice(_SPECIALS, size=shape)
    else:
        values = rng.normal(size=shape)
        mask = rng.random(size=shape) < 0.3
        values[mask] = rng.choice(_SPECIALS, size=int(mask.sum()))
    return values, axis


def _assert_median_bitwise(median, values, axis):
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = np.median(values, axis=axis)
        got = median(values, axis=axis)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("rows", range(1, 21))
def test_transposition_median_equals_np_median_bitwise(rows):
    rng = np.random.default_rng(rows)
    for trial in range(60):
        _assert_median_bitwise(_transposition_median,
                               *_median_inputs(rng, rows, trial, lanes=30))


@pytest.mark.parametrize("rows", range(1, 21))
def test_median_of_rows_equals_np_median_bitwise(rows):
    """Both sides of the network's range: short and long lanes."""
    rng = np.random.default_rng(100 + rows)
    for trial in range(12):
        lanes = 30 if trial % 2 else 64 * rows
        _assert_median_bitwise(median_of_rows,
                               *_median_inputs(rng, rows, trial, lanes=lanes))


def test_hash_each_is_the_diagonal_of_hash_all():
    rng = np.random.default_rng(3)
    for k in (2, 4):
        family = KWiseHashFamily.from_rng(rng, 50, k, 97)
        keys = rng.integers(-(2**62), 2**62, size=50)
        np.testing.assert_array_equal(family.hash_each(keys),
                                      np.diagonal(family.hash_all(keys)))
    signs = SignHashFamily.from_rng(rng, 50)
    keys = rng.integers(0, 10**6, size=50)
    np.testing.assert_array_equal(signs.sign_each(keys),
                                  np.diagonal(signs.sign_all(keys)))


def test_median_of_rows_leaves_input_untouched():
    values = np.random.default_rng(0).normal(size=(3, 5, 7))
    before = values.copy()
    median_of_rows(values, axis=1)
    np.testing.assert_array_equal(values, before)


@settings(max_examples=200, deadline=None)
@given(
    exponent=st.floats(-3.0, 3.0, allow_nan=False),
    num_terms=st.integers(0, 40),
    pivot=st.floats(0.01, 1e6, allow_nan=False),
    spread=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_taylor_estimator_equals_reference_bitwise(exponent, num_terms, pivot, spread, seed):
    rng = np.random.default_rng(seed)
    estimates = pivot * (1.0 + spread * rng.uniform(-1.0, 1.0, size=num_terms + 2))
    estimator = TaylorPowerEstimator(exponent=exponent, num_terms=num_terms)
    got = estimator.estimate(estimates, pivot)
    expected = taylor_power_estimate(estimates, pivot, exponent, num_terms)
    assert np.float64(got).view(np.uint64) == np.float64(expected).view(np.uint64)
