"""Unit and property tests for the columnar layout primitives.

The encode/decode round trip is the load-bearing contract: every state
record that enters the kernel path must come back out with the record
path's value types (Python ints/floats, per-row arrays for vector
state), or the differential oracles would compare unlike things.
Routing and merging carry the rest of the contract — stray keys,
uncovered owned keys and values-only batches whose keys never arrived
must *raise*, never silently corrupt state — and the reusable route
and merge plans must reproduce the one-shot forms bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import pagerank, sssp
from repro.common import HashPartitioner, ModPartitioner, RangePartitioner
from repro.common.records import group_by_key
from repro.imapreduce import Kernel, KernelContractError, kernel_enabled
from repro.imapreduce.columnar import (
    KeysOnceReceiver,
    KeysOnceSender,
    RoutePlan,
    concat_broadcast,
    decode_columnar,
    encode_columnar,
    merge_columnar,
    route_columnar,
)

STATE = "/t/state"
STATIC = "/t/static"
OUT = "/t/out"


# ------------------------------------------------------- encode/decode --
unique_keys = st.lists(
    st.integers(min_value=-(2**40), max_value=2**40),
    min_size=0, max_size=50, unique=True,
)


@given(unique_keys, st.data())
def test_roundtrip_scalar_float(keys, data):
    vals = data.draw(
        st.lists(
            st.floats(allow_nan=False, width=64),
            min_size=len(keys), max_size=len(keys),
        )
    )
    records = list(zip(keys, vals))
    ks, vs = encode_columnar(records, "float64", 0)
    assert ks.dtype == np.int64 and vs.dtype == np.float64
    assert list(ks) == sorted(keys)  # ascending owned-key contract
    assert decode_columnar(ks, vs) == sorted(records)
    assert all(type(v) is float for _, v in decode_columnar(ks, vs))


@given(unique_keys, st.data())
def test_roundtrip_scalar_int(keys, data):
    vals = data.draw(
        st.lists(
            st.integers(min_value=-(2**31), max_value=2**31),
            min_size=len(keys), max_size=len(keys),
        )
    )
    records = list(zip(keys, vals))
    ks, vs = encode_columnar(records, "int64", 0)
    assert decode_columnar(ks, vs) == sorted(records)
    assert all(type(v) is int for _, v in decode_columnar(ks, vs))


@given(unique_keys, st.integers(min_value=1, max_value=4), st.data())
def test_roundtrip_vector(keys, width, data):
    rows = data.draw(
        st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                min_size=width, max_size=width,
            ),
            min_size=len(keys), max_size=len(keys),
        )
    )
    records = [(k, np.array(row)) for k, row in zip(keys, rows)]
    ks, vs = encode_columnar(records, "float64", width)
    assert vs.shape == (len(keys), width)
    decoded = decode_columnar(ks, vs)
    expect = sorted(records, key=lambda kv: kv[0])
    assert [k for k, _ in decoded] == [k for k, _ in expect]
    for (_, got), (_, want) in zip(decoded, expect):
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, want)


def test_encode_rejects_non_int_keys():
    with pytest.raises(KernelContractError):
        encode_columnar([("a", 1.0)], "float64", 0)
    with pytest.raises(KernelContractError):
        encode_columnar([(True, 1.0)], "float64", 0)  # bools are not keys


def test_encode_rejects_duplicate_keys():
    with pytest.raises(KernelContractError):
        encode_columnar([(3, 1.0), (3, 2.0)], "float64", 0)


# ------------------------------------------------------------- routing --
@given(
    st.lists(st.integers(min_value=0, max_value=199), max_size=80),
    st.integers(min_value=1, max_value=7),
)
def test_route_matches_scalar_partitioner(keys, num_pairs):
    """bind_array must agree with the scalar bind on every key, and the
    routed batches must preserve per-destination emission order."""
    part = ModPartitioner()
    out_keys = np.array(keys, dtype=np.int64)
    out_vals = out_keys.astype(np.float64) * 0.5
    routed = route_columnar(
        out_keys, out_vals, part.bind_array(num_pairs), num_pairs
    )
    scalar = part.bind(num_pairs)
    seen = {}
    for q, ks, vs in routed:
        assert ks.size > 0  # skip-empty contract
        for k in ks.tolist():
            assert scalar(k) == q
        seen[q] = ks.tolist()
    # Emission order within a destination is preserved (stable sort).
    for q, ks in seen.items():
        assert ks == [k for k in keys if scalar(k) == q]


def test_range_bind_array_matches_scalar():
    part = RangePartitioner(100)
    keys = np.arange(0, 130, dtype=np.int64)  # includes out-of-range tail
    arr = part.bind_array(4)(keys)
    scalar = part.bind(4)
    assert arr.tolist() == [scalar(int(k)) for k in keys]


def test_range_route_keeps_negative_keys():
    """A negative key under RangePartitioner routes to pair 0 instead of
    being dropped by the columnar route."""
    keys = np.array([-3, 5, 60], dtype=np.int64)
    routed = route_columnar(
        keys, keys.astype(np.float64), RangePartitioner(100).bind_array(4), 4
    )
    assert [(q, ks.tolist(), vs.tolist()) for q, ks, vs in routed] == [
        (0, [-3, 5], [-3.0, 5.0]),
        (2, [60], [60.0]),
    ]


def test_route_plan_rejects_destinations_outside_the_mesh():
    keys = np.array([1, 7, -4, 2], dtype=np.int64)

    def part_array(ks):
        return np.where(ks == 7, 3, np.where(ks == -4, -1, 0))

    with pytest.raises(KernelContractError, match=r"\[7, -4\]"):
        RoutePlan(keys, part_array, 3)


# --------------------------------------------------------------- merge --
class _SumKernel(Kernel):
    merge = "sum"


class _MinKernel(Kernel):
    merge = "min"


def test_merge_sum_accumulates():
    owned = np.array([2, 5, 9], dtype=np.int64)
    batches = [
        (np.array([2, 5, 2]), np.array([1.0, 2.0, 3.0])),
        (np.array([9, 2]), np.array([10.0, 0.5])),
    ]
    acc = merge_columnar(_SumKernel(), owned, batches)
    assert acc.tolist() == [4.5, 2.0, 10.0]


def test_merge_min_takes_minimum():
    owned = np.array([1, 2], dtype=np.int64)
    batches = [
        (np.array([1, 2, 1]), np.array([5.0, np.inf, 3.0])),
        (np.array([2]), np.array([7.0])),
    ]
    acc = merge_columnar(_MinKernel(), owned, batches)
    assert acc.tolist() == [3.0, 7.0]


def test_merge_rejects_stray_keys():
    owned = np.array([1, 2], dtype=np.int64)
    with pytest.raises(KernelContractError):
        merge_columnar(
            _SumKernel(), owned, [(np.array([3]), np.array([1.0]))]
        )


def test_merge_rejects_uncovered_owned_key():
    owned = np.array([1, 2], dtype=np.int64)
    with pytest.raises(KernelContractError):
        merge_columnar(
            _SumKernel(), owned, [(np.array([1]), np.array([1.0]))]
        )


def test_merge_rejects_empty_inbox():
    with pytest.raises(KernelContractError):
        merge_columnar(_SumKernel(), np.array([1], dtype=np.int64), [])


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.floats(-100, 100, width=32)),
        min_size=1, max_size=60,
    )
)
def test_merge_min_equals_record_reduce(emissions):
    """The vectorized min merge agrees with a per-record min fold —
    exactly, because min never rounds."""
    owned = np.array(sorted({k for k, _ in emissions}), dtype=np.int64)
    keys = np.array([k for k, _ in emissions], dtype=np.int64)
    vals = np.array([v for _, v in emissions], dtype=np.float64)
    acc = merge_columnar(_MinKernel(), owned, [(keys, vals)])
    record = {k: min(v for kk, v in emissions if kk == k) for k in owned.tolist()}
    assert acc.tolist() == [record[k] for k in owned.tolist()]


# ---------------------------------------------- route + merge plans --
def _bits(a):
    return a.view(np.int64) if a.dtype == np.float64 else a


@settings(max_examples=150, deadline=None)
@given(
    universe=st.lists(
        st.integers(min_value=-(2**62), max_value=2**62),
        min_size=1, max_size=30, unique=True,
    ),
    use_range=st.booleans(),
    merge=st.sampled_from(["sum", "min"]),
    width=st.sampled_from([0, 3]),
    num_pairs=st.integers(min_value=1, max_value=5),
    actions=st.lists(
        st.lists(st.sampled_from(["keep", "copy", "new", "drop"]),
                 min_size=5, max_size=5),
        min_size=1, max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_plans_with_keys_once_batches_equal_one_shot(
    universe, use_range, merge, width, num_pairs, actions, seed
):
    """Several iterations in which sources keep their keys (the same
    array or an equal copy), draw new ones or drop out: the planned
    route + merge over keys-once batches equals the one-shot
    route_columnar + merge_columnar bit for bit, and a batch carries
    keys exactly when its sender's plan was (re)built."""
    rng = np.random.default_rng(seed)
    part = RangePartitioner(2**40) if use_range else ModPartitioner()
    part_array = part.bind_array(num_pairs)
    kernel = _SumKernel() if merge == "sum" else _MinKernel()
    pool = np.array(universe, dtype=np.int64)
    dest = part_array(pool)
    owned = [np.sort(pool[dest == q]) for q in range(num_pairs)]
    sender = KeysOnceSender(part_array, num_pairs)
    receiver = KeysOnceReceiver(merge)
    last: dict[int, np.ndarray] = {}

    for row in actions:
        emitted = {}
        for p in range(num_pairs):
            action, prev = row[p], last.get(p)
            if action in ("keep", "copy") and prev is not None:
                emitted[p] = prev if action == "keep" else prev.copy()
            elif action == "drop":
                emitted[p] = pool[:0]
            else:
                emitted[p] = rng.choice(pool, size=rng.integers(1, 2 * pool.size))
        # Keep every owned key covered: the first source emits the rest.
        seen = np.concatenate(list(emitted.values()))
        missing = pool[~np.isin(pool, seen)]
        if missing.size:
            emitted[0] = np.concatenate([emitted[0], missing])
        expect_keys = {
            p: prev is None or not np.array_equal(emitted[p], prev)
            for p, prev in ((p, last.get(p)) for p in range(num_pairs))
        }
        last = emitted

        shape = lambda n: (n,) if width == 0 else (n, width)  # noqa: E731
        inbox_ref = [[] for _ in range(num_pairs)]
        inbox = [[] for _ in range(num_pairs)]
        for p in range(num_pairs):
            keys = emitted[p]
            vals = rng.standard_normal(shape(keys.size)) * 10.0 ** rng.integers(
                -8, 8, size=shape(keys.size)
            )
            for q, ks, vs in route_columnar(keys, vals, part_array, num_pairs):
                inbox_ref[q].append((ks, vs))
            for q, ks, vs in sender.route(p, keys, vals):
                assert (ks is not None) == expect_keys[p]
                inbox[q].append((p, ks, vs))
        for q in range(num_pairs):
            if owned[q].size == 0:
                continue
            want = merge_columnar(kernel, owned[q], inbox_ref[q])
            got = receiver.merge_into(q, owned[q], inbox[q])
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))


def test_receiver_rejects_values_only_batch_before_its_keys():
    owned = np.array([1, 2], dtype=np.int64)
    vals = np.array([1.0, 2.0])
    with pytest.raises(KernelContractError, match="before its keys"):
        KeysOnceReceiver("sum").merge_into(0, owned, [(0, None, vals)])
    # A plan exists for source 0 only: a values-only newcomer still fails.
    receiver = KeysOnceReceiver("sum")
    receiver.merge_into(0, owned, [(0, owned, vals)])
    with pytest.raises(KernelContractError, match="from pair 1"):
        receiver.merge_into(0, owned, [(0, None, vals), (1, None, vals)])


def test_receiver_rejects_stray_key():
    owned = np.array([1, 2], dtype=np.int64)
    with pytest.raises(KernelContractError, match="outside the owned set"):
        KeysOnceReceiver("min").merge_into(
            0, owned, [(0, np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]))]
        )


def test_receiver_rejects_uncovered_owned_key():
    owned = np.array([1, 2], dtype=np.int64)
    with pytest.raises(KernelContractError, match="no contribution"):
        KeysOnceReceiver("sum").merge_into(
            0, owned, [(0, np.array([1]), np.array([1.0]))]
        )


def test_concat_broadcast_is_key_sorted():
    parts = [
        (np.array([4, 8]), np.array([1.0, 2.0])),
        (np.array([1, 5]), np.array([3.0, 4.0])),
    ]
    ks, vs = concat_broadcast(parts)
    assert ks.tolist() == [1, 4, 5, 8]
    assert vs.tolist() == [3.0, 1.0, 4.0, 2.0]


# ------------------------------------------------------ dispatch rules --
def test_kernel_enabled_dispatch_rules():
    n = 12
    job = pagerank.build_imr_job(
        n, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=2, threshold=1e-4, use_kernel=True,
    )
    assert job.distance_fn is not None  # the NoDistance check needs one
    assert kernel_enabled(job)
    # No kernel → record path.
    plain = pagerank.build_imr_job(
        n, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=2,
    )
    assert not kernel_enabled(plain)
    # A partitioner without bind_array → record path.
    assert not kernel_enabled(replace(job, partitioner=HashPartitioner()))
    # Mapping / needs_broadcast mismatch → record path.
    o2a = replace(
        job, phases=[replace(job.phases[0], mapping="one2all")]
    )
    assert not kernel_enabled(o2a)

    # distance_fn without distance_partial → record path.
    class NoDistance(Kernel):
        def map_kernel(self, pair, keys, values, prepared, broadcast):
            return keys, values

    assert not kernel_enabled(replace(job, kernel=NoDistance()))


def test_sssp_kernel_enabled():
    job = sssp.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=2, use_kernel=True,
    )
    assert kernel_enabled(job)


# -------------------------------------------- group_by_key fast path --
def test_group_by_key_homogeneous_matches_old_order():
    pairs = [(3, "a"), (1, "b"), (3, "c"), (2, "d"), (1, "e")]
    assert group_by_key(pairs) == [(1, ["b", "e"]), (2, ["d"]), (3, ["a", "c"])]


def test_group_by_key_unorderable_mix_falls_back():
    """int and tuple keys can't compare natively; the TypeError fallback
    must still produce the type-name-prefixed total order."""
    pairs = [((1, 2), "t"), (5, "i"), ((0, 0), "u"), (3, "j")]
    grouped = group_by_key(pairs)
    assert grouped == [
        (3, ["j"]), (5, ["i"]), ((0, 0), ["u"]), ((1, 2), ["t"])
    ]


def test_group_by_key_single_group_short_circuits():
    assert group_by_key([(7, 1), (7, 2)]) == [(7, [1, 2])]
    assert group_by_key([]) == []
