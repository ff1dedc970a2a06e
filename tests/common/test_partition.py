"""Unit and property tests for partitioners."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import (
    HashPartitioner,
    ModPartitioner,
    RangePartitioner,
    stable_hash,
)

key_strategy = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.text(max_size=30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.tuples(st.integers(), st.integers()),
)


@given(key_strategy, st.integers(min_value=1, max_value=64))
def test_hash_partitioner_in_range(key, n):
    p = HashPartitioner()(key, n)
    assert 0 <= p < n


@given(key_strategy, st.integers(min_value=1, max_value=64))
def test_hash_partitioner_deterministic(key, n):
    assert HashPartitioner()(key, n) == HashPartitioner()(key, n)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=64))
def test_mod_partitioner_is_mod_for_ints(key, n):
    assert ModPartitioner()(key, n) == key % n


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=16))
def test_range_partitioner_covers_all_partitions_contiguously(total, n):
    part = RangePartitioner(total)
    assignments = [part(k, n) for k in range(total)]
    # Non-decreasing and within range.
    assert all(0 <= p < n for p in assignments)
    assert assignments == sorted(assignments)


def test_range_partitioner_balance():
    part = RangePartitioner(100)
    counts = [0] * 4
    for k in range(100):
        counts[part(k, 4)] += 1
    assert counts == [25, 25, 25, 25]


def test_range_partitioner_clamps_out_of_range_keys():
    """Negative keys clamp to partition 0, keys past the range to the
    last partition — in the call, the bound and the array form alike."""
    import numpy as np

    part = RangePartitioner(100)
    keys = [-3, -100, -(2**40), 0, 5, 60, 99, 130]
    want = [0, 0, 0, 0, 0, 2, 3, 3]
    bound = part.bind(4)
    assert [part(k, 4) for k in keys] == want
    assert [bound(k) for k in keys] == want
    assert part.bind_array(4)(np.array(keys, dtype=np.int64)).tolist() == want


def test_stable_hash_known_types_distinct():
    values = [0, "0", 0.0, False, None, (0,)]
    hashes = {stable_hash(v) for v in values}
    assert len(hashes) == len(values)


def test_stable_hash_rejects_unsupported():
    with pytest.raises(TypeError):
        stable_hash(object())


def test_zero_partitions_rejected():
    for part in (HashPartitioner(), ModPartitioner(), RangePartitioner(10)):
        with pytest.raises(ValueError):
            part(1, 0)


def test_hash_partitioner_spreads_sequential_keys():
    """Sequential integer keys must not all land in one partition."""
    p = HashPartitioner()
    buckets = {p(k, 8) for k in range(1000)}
    assert len(buckets) == 8


def test_stable_hash_is_process_independent():
    """Pin a few values: these must never change across releases, or
    persisted static-data partitions would stop matching state shuffles."""
    assert stable_hash(0) == stable_hash(0)
    pinned = {stable_hash("node-1") % 8, stable_hash("node-1") % 8}
    assert len(pinned) == 1


# ------------------------------------------------------- bound fast paths --
def test_bind_matches_call_for_all_partitioners():
    from repro.common import bind_partitioner

    keys = [0, 1, -3, 17, 2**40, True, False, "node-1", 3.5, None, (1, 2)]
    for part in (HashPartitioner(), ModPartitioner(), RangePartitioner(100)):
        for n in (1, 3, 8):
            bound = bind_partitioner(part, n)
            for key in keys:
                if isinstance(part, RangePartitioner) and not isinstance(
                    key, (int, float)
                ):
                    continue
                assert bound(key) == part(key, n), (type(part).__name__, key, n)


def test_bind_partitioner_rejects_zero_partitions():
    from repro.common import bind_partitioner

    with pytest.raises(ValueError):
        bind_partitioner(ModPartitioner(), 0)


def test_bind_partitioner_wraps_plain_callables():
    from repro.common import bind_partitioner

    bound = bind_partitioner(lambda key, n: (key + 1) % n, 4)
    assert bound(2) == 3
    assert bound(3) == 0


def test_mod_bind_int_fast_path_excludes_bool():
    """``True % n`` would be valid Python but bools must keep going
    through ``stable_hash`` so they land where they always landed."""
    from repro.common import bind_partitioner

    part = ModPartitioner()
    bound = bind_partitioner(part, 8)
    assert bound(True) == part(True, 8)
    assert bound(False) == part(False, 8)
