"""Columnar execution path: vectorized per-pair kernels.

The record-level executors (:func:`~repro.imapreduce.localrun.run_local`
and the multiprocess backend) spend their time in per-record Python —
``map_pair`` → ``group_by_key`` → ``reduce`` — which the PR5 phase
profiler showed dominating wall clock by ~30× over serialization.  The
hot algorithms don't need per-record generality: their updates are
accumulative merges over a *fixed integer key space* (``sum`` for
pagerank/jacobi/k-means partials, ``min`` for sssp/components), so a
whole pair's iteration collapses into a handful of numpy array
operations — the same structure Maiter exploits, and the same code shape
as the ``reference_iterations`` oracles.

Layout
------

A pair's state is two contiguous arrays instead of a list of records:

* ``keys``   — int64, strictly ascending (the pair's *owned* key set,
  fixed for the whole job: the initial state keys this pair's partition
  received, mirroring §3.2's static task-pair assignment);
* ``values`` — float64/int64, shape ``(n,)`` for scalar state or
  ``(n, width)`` for vector state (k-means centroids), row-aligned with
  ``keys``.

A :class:`Kernel` carried by the job (``IterativeJob.kernel``) replaces
the per-record loops:

* ``prepare(pair, owned_keys, static_table)`` runs once at partition
  load, building CSR-style static columns that stay resident across
  iterations (§3.2.1 — the static data is never touched again);
* ``map_kernel(pair, keys, values, prepared, broadcast)`` returns the
  pair's whole emission set as ``(out_keys, out_values)`` arrays;
* emissions are routed by a :class:`RoutePlan` and merged at the owning
  pair by a :class:`MergePlan` — the reduce;
* optional ``finalize`` post-processes the merged accumulator (k-means
  divides sums by counts), and ``distance_partial`` supplies the
  vectorized per-pair convergence contribution.

Route and merge plans
---------------------

Only state changes between iterations (§3.2), and with it only the
emitted *values*: a pair whose static data is fixed emits to the same
keys in the same order every iteration.  So routing and merge indexing
are derived once and reused:

* a :class:`RoutePlan`, built from one source pair's emitted key array,
  holds the vectorized partition call's outcome (``bind_array``) as a
  stable per-destination order — a selector into the emission arrays
  and the key slice for every fed destination.  Routing an iteration is
  then one gather per destination;
* a :class:`MergePlan`, built per destination pair from the key arrays
  of its arriving batches, holds the owned-key slot of every arriving
  emission, checked once for stray keys and full owned-key coverage.
  Merging is then one scatter: ``np.bincount(slots, weights)`` for a
  1-D float64 ``sum`` (sequential in input order, so the same bits as
  ``np.add.at``), ``np.add.at`` for vector ``sum`` and
  ``np.minimum.at`` for ``min``.

A plan is reused while the pair emits the same key array (the same
object, or ``np.array_equal``) and rebuilt otherwise — as sssp's
frontier grows.  The same plans put the keys on the wire only once
(:class:`KeysOnceSender` / :class:`KeysOnceReceiver`): a shuffle batch
carries its key array only on the iteration its sender's plan was
(re)built and is values-only otherwise; the receiver keeps the last
keys from each source pair and rebuilds its merge plan when any batch
brings keys or the set of source pairs changes.  The serial executor
runs the same protocol in memory.  :func:`route_columnar` and
:func:`merge_columnar` are the one-shot forms: build a plan, apply it
once.

Dispatch rules (:func:`kernel_enabled`): the job must carry a kernel,
have exactly one phase, no aux phase, a partitioner with ``bind_array``,
and the phase mapping must match the kernel's ``needs_broadcast``.
Anything else falls back to the record path, on every backend, so both
backends always agree on which path runs.

Float-ordering caveat
---------------------

``min`` merges are order-independent, so sssp/components kernels are
*bit-exact* against the record path.  ``sum`` merges reorder the float
additions (the merge accumulates in routed-concatenation order, the
record path in ``group_by_key`` emission order), so summation kernels
are compared with a tolerance oracle.  The worst-case error of summing
``n`` floats in any order is bounded by ``(n-1)·eps·Σ|xᵢ|`` (Higham,
*Accuracy and Stability of Numerical Algorithms*, §4.2); with
``eps = 2⁻⁵³`` and the bench-scale fan-ins (n ≲ 10⁵, values ≲ 1) that is
≲ 10⁻¹¹ absolute — six orders under the differential oracle's 1e-6
relative tolerance.  Kernel-serial vs kernel-parallel stays bit-exact:
both assemble merge inputs in ascending source-pair order and run the
identical numpy reduction.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

from ..common.errors import JobError
from ..common.partition import bind_partitioner

__all__ = [
    "Kernel",
    "AccumKernel",
    "KernelContractError",
    "kernel_enabled",
    "accum_kernel_enabled",
    "encode_columnar",
    "decode_columnar",
    "RoutePlan",
    "MergePlan",
    "KeysOnceSender",
    "KeysOnceReceiver",
    "route_columnar",
    "merge_columnar",
    "absorb_columnar",
    "pending_priority",
    "concat_broadcast",
    "run_local_kernel",
    "run_accum_local_kernel",
]


class KernelContractError(JobError):
    """A kernel violated the columnar contract (non-int keys, emission
    to a key outside the job's key universe or to a pair outside the
    mesh, an owned key that received no contribution, or a values-only
    batch whose keys never arrived)."""


class Kernel:
    """Base class for vectorized per-pair compute kernels.

    Subclasses set the class attributes and implement ``map_kernel``
    (and ``distance_partial`` when the job measures a distance).
    Kernels ship to worker processes inside the job pickle, so they
    must be picklable — plain classes with ``__slots__`` work.
    """

    #: ``"sum"`` or ``"min"`` (see :class:`MergePlan`).
    merge = "sum"
    #: True for one2all jobs: ``map_kernel`` receives the full state as
    #: a globally key-sorted ``(keys, values)`` broadcast.
    needs_broadcast = False
    #: dtype of the state value array (``"float64"`` or ``"int64"``).
    state_dtype = "float64"
    #: 0 for scalar state; otherwise the number of value columns.
    state_width = 0

    def prepare(self, pair: int, owned_keys: np.ndarray, static_table: dict):
        """Build per-pair static columns once at partition load (§3.2)."""
        return None

    def map_kernel(
        self,
        pair: int,
        keys: np.ndarray,
        values: np.ndarray,
        prepared: Any,
        broadcast: tuple[np.ndarray, np.ndarray] | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def finalize(
        self,
        pair: int,
        keys: np.ndarray,
        merged: np.ndarray,
        prev_values: np.ndarray,
        prepared: Any,
    ) -> np.ndarray:
        """Post-process the merged accumulator into the new state values
        (default: the accumulator *is* the new state)."""
        return merged


class AccumKernel:
    """Vectorized twin of the accumulative (Maiter-mode) engine.

    A pair's engine state is three aligned dense arrays over the owned
    key set: ``state`` (starts at ``identity``), ``pending`` (the
    coalesced delta queue, also at ``identity``) and an ``active``
    boolean mask marking keys that currently hold a pending delta.
    Per round the executor scores pending deltas vectorized
    (:func:`pending_priority`), selects the top-priority fraction,
    applies them with one elementwise merge, and asks the kernel for
    the emissions of the *changed* subset.

    Like :class:`Kernel`, subclasses ship inside the job pickle — keep
    them plain and picklable.  The algebra laws are still validated at
    build time through the job's record-level :class:`Accumulator`; a
    kernel must implement the same merge ("sum"/"min") it declares.
    """

    #: ``"sum"`` (elementwise add) or ``"min"`` (elementwise minimum).
    merge = "sum"
    #: dtype of the state/pending arrays.
    state_dtype = "float64"
    #: The algebra identity in this dtype (``np.inf`` or the int64 max
    #: sentinel for ``min``; 0 for ``sum``).
    identity: Any = 0.0

    def prepare(self, pair: int, owned_keys: np.ndarray, static_table: dict):
        """Build per-pair CSR static columns once at partition load."""
        return None

    def emit_deltas(
        self,
        pair: int,
        owned_keys: np.ndarray,
        idx: np.ndarray,
        deltas: np.ndarray,
        states: np.ndarray,
        prepared: Any,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Emissions for the applied deltas whose merge changed state.

        ``idx`` indexes ``owned_keys`` in application (priority) order;
        ``deltas``/``states`` are the applied delta and the post-merge
        state, row-aligned with ``idx``.  Returns ``(out_keys,
        out_values)`` in the same per-source order the record-level
        update function would emit.
        """
        raise NotImplementedError


def kernel_enabled(job) -> bool:
    """Does this job run on the columnar path?  Both backends call this
    one predicate, so they always agree; anything unsupported falls
    back to the record path silently."""
    kernel = getattr(job, "kernel", None)
    if kernel is None:
        return False
    if len(job.phases) != 1 or job.aux is not None:
        return False
    if getattr(job.partitioner, "bind_array", None) is None:
        return False
    if (job.phases[0].mapping == "one2all") != bool(kernel.needs_broadcast):
        return False
    if job.distance_fn is not None and not hasattr(kernel, "distance_partial"):
        return False
    return True


def accum_kernel_enabled(job) -> bool:
    """Does this accumulative job run on the columnar delta path?

    The requirements are lighter than :func:`kernel_enabled` — an
    :class:`~repro.imapreduce.accum.AccumJob` has no phases or aux —
    but the key universe must be closed (every emission targets a
    static-table or initial-delta key; true for all bundled graph
    algorithms, whose emissions follow edges of the loaded graph).
    """
    kernel = getattr(job, "kernel", None)
    if kernel is None or not isinstance(kernel, AccumKernel):
        return False
    if getattr(job.partitioner, "bind_array", None) is None:
        return False
    return True


# ------------------------------------------------------------- layout --
def encode_columnar(
    records: Iterable[tuple[int, Any]],
    dtype: str = "float64",
    width: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Records → ``(keys, values)`` arrays sorted by key.

    ``width == 0`` encodes scalar values into shape ``(n,)``; otherwise
    each value must be a length-``width`` vector and the result is
    ``(n, width)``.  Keys must be Python ints (the columnar contract).
    """
    recs = list(records)
    n = len(recs)
    keys = np.empty(n, dtype=np.int64)
    for i, (k, _v) in enumerate(recs):
        if isinstance(k, bool) or not isinstance(k, int):
            raise KernelContractError(
                f"columnar keys must be ints, got {type(k).__name__}"
            )
        keys[i] = k
    if width == 0:
        values = np.empty(n, dtype=dtype)
        for i, (_k, v) in enumerate(recs):
            values[i] = v
    else:
        values = np.empty((n, width), dtype=dtype)
        for i, (_k, v) in enumerate(recs):
            values[i] = v
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if n > 1 and (keys[1:] == keys[:-1]).any():
        raise KernelContractError("duplicate keys in columnar state")
    return keys, values[order]


def decode_columnar(
    keys: np.ndarray, values: np.ndarray
) -> list[tuple[int, Any]]:
    """``(keys, values)`` → records with the record path's value types:
    Python ints/floats for scalar state, per-row ndarray copies for
    vector state (what the record-path reducers emit)."""
    if values.ndim == 1:
        if values.dtype.kind == "i":
            return [(int(k), int(v)) for k, v in zip(keys.tolist(), values.tolist())]
        return [(int(k), float(v)) for k, v in zip(keys.tolist(), values.tolist())]
    return [(int(k), values[i].copy()) for i, k in enumerate(keys.tolist())]


# ------------------------------------------------------- route + merge --
def _index_array(idx: np.ndarray, bound: int) -> np.ndarray:
    """Plans stay resident for the whole job: store an index array into
    ``bound`` elements as int32 whenever it fits."""
    return idx.astype(np.int32) if bound < 2**31 else idx


class RoutePlan:
    """One source pair's routing, derived once from its emitted keys.

    One vectorized partition call plus a stable argsort: within each
    destination, emission order is preserved, so the serial and the
    multiprocess executor concatenate identical per-source batches.
    The argsort runs on the destinations narrowed to the smallest
    unsigned dtype that holds ``num_pairs`` — the same stable order,
    but numpy radix-sorts ≤16-bit keys.  ``routes`` holds ``(dest_pair,
    selector, dest_keys)`` for every fed destination in ascending order
    (the mesh's skip-empty contract).  A destination outside ``[0,
    num_pairs)`` raises :class:`KernelContractError` — checked once,
    here.
    """

    __slots__ = ("keys", "routes")

    def __init__(
        self,
        out_keys: np.ndarray,
        part_array: Callable[[np.ndarray], np.ndarray],
        num_pairs: int,
    ):
        self.keys = out_keys
        self.routes: list[tuple[int, np.ndarray, np.ndarray]] = []
        if out_keys.size == 0:
            return
        dest = np.asarray(part_array(out_keys))
        if dest.min() < 0 or dest.max() >= num_pairs:
            bad = (dest < 0) | (dest >= num_pairs)
            raise KernelContractError(
                f"partitioner routed keys outside pairs [0, {num_pairs}): "
                f"{out_keys[bad][:5].tolist()}"
            )
        dest = dest.astype(np.min_scalar_type(num_pairs - 1))
        order = _index_array(np.argsort(dest, kind="stable"), out_keys.size)
        hi = 0
        for q, count in enumerate(np.bincount(dest, minlength=num_pairs).tolist()):
            if count:
                lo, hi = hi, hi + count
                sel = order[lo:hi]
                self.routes.append((q, sel, out_keys[sel]))

    def matches(self, out_keys: np.ndarray) -> bool:
        """Does this plan route ``out_keys`` (the array it was built from,
        or an equal one)?"""
        keys = self.keys
        return out_keys is keys or (
            out_keys.shape == keys.shape and np.array_equal(out_keys, keys)
        )

    def split(self, out_values: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """``(dest_pair, keys, values)`` per fed destination: one gather
        each."""
        return [(q, keys, out_values[sel]) for q, sel, keys in self.routes]


class MergePlan:
    """One destination pair's merge indexing, derived once from the key
    arrays of its arriving batches (in ascending source-pair order).

    ``slots`` is the owned-key position of every arriving emission.
    Building the plan checks the contract once: no emission may target
    a key outside the owned set, and every owned key must receive at
    least one contribution (all bundled kernels self-emit) — both
    violations raise :class:`KernelContractError`.
    """

    __slots__ = ("merge", "size", "slots")

    def __init__(self, merge: str, owned_keys: np.ndarray,
                 key_batches: list[np.ndarray]):
        if not key_batches:
            raise KernelContractError("no contributions arrived for a non-empty pair")
        all_keys = np.concatenate(key_batches)
        idx = np.searchsorted(owned_keys, all_keys)
        clipped = np.minimum(idx, owned_keys.size - 1)
        bad = (idx >= owned_keys.size) | (owned_keys[clipped] != all_keys)
        if bad.any():
            stray = all_keys[bad][:5].tolist()
            raise KernelContractError(
                f"kernel emitted to keys outside the owned set: {stray}"
            )
        if merge not in ("sum", "min"):
            raise KernelContractError(f"unknown merge {merge!r}")
        present = np.zeros(owned_keys.size, dtype=bool)
        present[idx] = True
        if not present.all():
            missing = owned_keys[~present][:5].tolist()
            raise KernelContractError(
                f"owned keys received no contribution: {missing}"
            )
        self.merge = merge
        self.size = owned_keys.size
        self.slots = _index_array(idx, owned_keys.size)

    def apply(self, value_batches: list[np.ndarray]) -> np.ndarray:
        """The vectorized reduce: fold the value batches (row-aligned with
        the plan's key batches) into an accumulator aligned with the
        owned keys.  ``sum`` starts from zero, ``min`` from the dtype's
        +∞."""
        vals = np.concatenate(value_batches)
        slots = self.slots
        if vals.shape[0] != slots.size:
            raise KernelContractError(
                f"{vals.shape[0]} values arrived for {slots.size} planned keys"
            )
        shape = (self.size,) + vals.shape[1:]
        if self.merge == "sum":
            if vals.ndim == 1 and vals.dtype == np.float64:
                # bincount adds in input order, as np.add.at does: same bits.
                return np.bincount(slots, weights=vals, minlength=self.size)
            acc = np.zeros(shape, dtype=vals.dtype)
            np.add.at(acc, slots, vals)
            return acc
        fill = np.iinfo(vals.dtype).max if vals.dtype.kind == "i" else np.inf
        acc = np.full(shape, fill, dtype=vals.dtype)
        np.minimum.at(acc, slots, vals)
        return acc


class KeysOnceSender:
    """Sender end of the keys-once shuffle: one :class:`RoutePlan` per
    source pair, rebuilt whenever the pair's emitted keys change."""

    def __init__(self, part_array: Callable[[np.ndarray], np.ndarray],
                 num_pairs: int):
        self.part_array = part_array
        self.num_pairs = num_pairs
        self.plans: dict[int, RoutePlan] = {}

    def route(
        self, pair: int, out_keys: np.ndarray, out_values: np.ndarray
    ) -> list[tuple[int, np.ndarray | None, np.ndarray]]:
        """``(dest_pair, keys, values)`` per fed destination, with
        ``keys`` ``None`` unless this call (re)built the pair's plan."""
        plan = self.plans.get(pair)
        if plan is not None and plan.matches(out_keys):
            return [(q, None, vs) for q, _keys, vs in plan.split(out_values)]
        plan = self.plans[pair] = RoutePlan(out_keys, self.part_array, self.num_pairs)
        return plan.split(out_values)


class KeysOnceReceiver:
    """Receiver end of the keys-once shuffle: per destination pair, the
    last keys from each source pair and the :class:`MergePlan` built on
    them, rebuilt when any batch brings keys or the set of source pairs
    changes."""

    def __init__(self, merge: str):
        self.merge = merge
        #: pair -> (last keys per source pair, the plan built on them)
        self.plans: dict[int, tuple[dict[int, np.ndarray], MergePlan]] = {}

    def merge_into(
        self,
        pair: int,
        owned_keys: np.ndarray,
        arrivals: list[tuple[int, np.ndarray | None, np.ndarray]],
    ) -> np.ndarray:
        """Merge ``(src_pair, keys or None, values)`` arrivals, in
        ascending source order, into ``pair``'s accumulator.  A
        values-only batch from a source whose keys this end does not
        hold raises :class:`KernelContractError`."""
        known, plan = self.plans.get(pair, ({}, None))
        if (
            plan is None
            or any(keys is not None for _src, keys, _vs in arrivals)
            or list(known) != [src for src, _keys, _vs in arrivals]
        ):
            fresh: dict[int, np.ndarray] = {}
            for src, keys, _vs in arrivals:
                if keys is None:
                    keys = known.get(src)
                    if keys is None:
                        raise KernelContractError(
                            f"values-only batch from pair {src} to pair "
                            f"{pair} before its keys"
                        )
                fresh[src] = keys
            plan = MergePlan(self.merge, owned_keys, list(fresh.values()))
            self.plans[pair] = (fresh, plan)
        return plan.apply([vs for _src, _keys, vs in arrivals])


def route_columnar(
    out_keys: np.ndarray,
    out_values: np.ndarray,
    part_array: Callable[[np.ndarray], np.ndarray],
    num_pairs: int,
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Split one pair's emissions by destination pair: a one-shot
    :class:`RoutePlan`."""
    return RoutePlan(out_keys, part_array, num_pairs).split(out_values)


def merge_columnar(
    kernel: Kernel,
    owned_keys: np.ndarray,
    batches: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Fold arriving ``(keys, values)`` batches (already in ascending
    source-pair order) into an accumulator aligned with ``owned_keys``:
    a one-shot :class:`MergePlan`."""
    plan = MergePlan(kernel.merge, owned_keys, [b[0] for b in batches])
    return plan.apply([b[1] for b in batches])


def concat_broadcast(
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the one2all broadcast: concatenate per-pair state in
    ascending pair order, then sort globally by key.  Keys are unique,
    so the stable argsort is fully deterministic — the serial executor
    and the parallel sorter worker produce identical arrays."""
    keys = np.concatenate([p[0] for p in parts])
    values = np.concatenate([p[1] for p in parts])
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]


# ------------------------------------------------------ serial executor --
def run_local_kernel(
    job,
    state_records: Iterable[tuple[Any, Any]],
    static_records: dict[str, Iterable[tuple[Any, Any]]] | None = None,
    *,
    num_pairs: int = 4,
    keep_history: bool = False,
):
    """Serial columnar executor — :func:`run_local`'s kernel dispatch
    target.  Same result surface (:class:`LocalRunResult`), one
    ``map_kernel`` + one vectorized merge per pair per iteration, routed
    and merged through the keys-once plans exactly as the multiprocess
    step does, with the inbox in place of the mesh.
    """
    from .localrun import LocalRunResult, order_key  # avoid import cycle

    kernel: Kernel = job.kernel
    phase = job.phases[0]
    one2all = phase.mapping == "one2all"
    part = bind_partitioner(job.partitioner, num_pairs)
    part_array = job.partitioner.bind_array(num_pairs)

    g_keys, g_vals = encode_columnar(
        state_records, kernel.state_dtype, kernel.state_width
    )
    empty_keys = g_keys[:0]
    empty_vals = g_vals[:0]
    owned: list[np.ndarray] = [empty_keys] * num_pairs
    values: list[np.ndarray] = [empty_vals] * num_pairs
    for p, ks, vs in route_columnar(g_keys, g_vals, part_array, num_pairs):
        owned[p] = ks  # route preserves key order per destination: sorted
        values[p] = vs

    static_by_path = {k: dict(v) for k, v in (static_records or {}).items()}
    table = static_by_path.get(phase.static_path or "", {})
    static_tables: list[dict] = [{} for _ in range(num_pairs)]
    for key, value in table.items():
        static_tables[part(key)][key] = value
    prepared = [
        kernel.prepare(p, owned[p], static_tables[p]) for p in range(num_pairs)
    ]

    distance_fn = job.distance_fn
    prev: list[np.ndarray] | None = (
        [v.copy() for v in values] if distance_fn is not None else None
    )

    distances: list[float | None] = []
    history: list[list[tuple[Any, Any]]] = []
    iterations_run = 0
    terminated_by = ""
    max_iterations = job.max_iterations if job.max_iterations is not None else 10**9
    sender = KeysOnceSender(part_array, num_pairs)
    receiver = KeysOnceReceiver(kernel.merge)

    for iteration in range(max_iterations):
        broadcast = None
        if one2all:
            broadcast = concat_broadcast(
                [(owned[p], values[p]) for p in range(num_pairs)]
            )
        # ---- map + route: inbox[q] holds batches in ascending src order --
        inbox: list[list[tuple]] = [[] for _ in range(num_pairs)]
        for p in range(num_pairs):
            out_keys, out_vals = kernel.map_kernel(
                p, owned[p], values[p], prepared[p], broadcast
            )
            for q, ks, vs in sender.route(p, out_keys, out_vals):
                inbox[q].append((p, ks, vs))
        # ---- vectorized merge + finalize ----
        for q in range(num_pairs):
            if owned[q].size == 0:
                continue
            acc = receiver.merge_into(q, owned[q], inbox[q])
            values[q] = kernel.finalize(q, owned[q], acc, values[q], prepared[q])
        iterations_run = iteration + 1

        if keep_history:
            history.append(
                sorted(
                    (
                        rec
                        for p in range(num_pairs)
                        for rec in decode_columnar(owned[p], values[p])
                    ),
                    key=lambda kv: order_key(kv[0]),
                )
            )

        distance: float | None = None
        if distance_fn is not None and prev is not None:
            distance = 0.0
            for p in range(num_pairs):
                if owned[p].size:
                    distance += kernel.distance_partial(
                        owned[p], prev[p], values[p]
                    )
                prev[p] = values[p].copy()
        distances.append(distance)

        if (
            job.threshold is not None
            and distance is not None
            and distance <= job.threshold
        ):
            terminated_by = "threshold"
            break
    else:
        terminated_by = "maxiter"

    final = sorted(
        (
            rec
            for p in range(num_pairs)
            for rec in decode_columnar(owned[p], values[p])
        ),
        key=lambda kv: order_key(kv[0]),
    )
    return LocalRunResult(
        state=final,
        iterations_run=iterations_run,
        converged=terminated_by == "threshold",
        terminated_by=terminated_by,
        distances=distances,
        history=history,
    )


# -------------------------------------------- accumulative delta path --
def absorb_columnar(
    merge: str,
    owned_keys: np.ndarray,
    pending: np.ndarray,
    active: np.ndarray,
    in_keys: np.ndarray,
    in_values: np.ndarray,
) -> None:
    """Coalesce an arriving delta batch into the dense pending queue
    (the vectorized twin of ``AccumPair.absorb``).  Emissions to keys
    outside the owned set violate the closed-universe contract."""
    if in_keys.size == 0:
        return
    idx = np.searchsorted(owned_keys, in_keys)
    clipped = np.minimum(idx, owned_keys.size - 1)
    bad = (idx >= owned_keys.size) | (owned_keys[clipped] != in_keys)
    if bad.any():
        stray = in_keys[bad][:5].tolist()
        raise KernelContractError(
            f"delta kernel emitted to keys outside the owned set: {stray}"
        )
    if merge == "sum":
        np.add.at(pending, idx, in_values)
    elif merge == "min":
        np.minimum.at(pending, idx, in_values)
    else:
        raise KernelContractError(f"unknown merge {merge!r}")
    active[idx] = True


def pending_priority(
    merge: str,
    state: np.ndarray,
    pending: np.ndarray,
    active: np.ndarray,
) -> np.ndarray:
    """Vectorized impact scores: ``|state − (state ⊕ pending)|`` as
    float64, 0 where no delta is pending (``Accumulator.priority``'s
    default, over the whole pair at once)."""
    if merge == "sum":
        pr = np.abs((state + pending) - state)
    else:
        merged = np.minimum(state, pending)
        improves = state > merged
        with np.errstate(invalid="ignore"):
            # np.where evaluates both branches: inf − inf is masked out.
            pr = np.where(improves, state - merged, 0)
    pr = pr.astype(np.float64, copy=False)
    return np.where(active, pr, 0.0)


def run_accum_local_kernel(
    job,
    delta_records: Iterable[tuple[Any, Any]],
    static_records: dict[str, Iterable[tuple[Any, Any]]] | None = None,
    *,
    num_pairs: int = 4,
    mode: str = "async",
    keep_trace: bool = False,
    initial_state: Iterable[tuple[Any, Any]] | None = None,
):
    """Serial columnar executor for accumulative jobs —
    :func:`~repro.imapreduce.localrun.run_accum_local`'s kernel
    dispatch target.  Same round protocol (mass check before the round,
    pair-ascending sums, ascending-source absorption) over dense
    state/pending arrays with an active-key mask.  ``initial_state``
    (incremental warm start) scatters memoized values into the dense
    state arrays without marking them pending — the record engine's
    preload semantics.
    """
    import math

    from .accum import (
        AccumRunResult,
        check_mode,
        partition_accum_inputs,
        partition_state,
    )
    from .localrun import order_key

    check_mode(mode)
    kernel: AccumKernel = job.kernel
    merge = kernel.merge
    dtype = np.dtype(kernel.state_dtype)
    identity = kernel.identity
    part = bind_partitioner(job.partitioner, num_pairs)
    part_array = job.partitioner.bind_array(num_pairs)
    delta_parts, static_tables = partition_accum_inputs(
        job, delta_records, static_records, num_pairs, part
    )
    state_parts = partition_state(initial_state, num_pairs, part)

    # Owned key universe per pair: static keys ∪ initial-delta keys
    # (∪ warm-start keys), ascending (searchsorted needs sorted sets).
    owned: list[np.ndarray] = []
    state: list[np.ndarray] = []
    pending: list[np.ndarray] = []
    active: list[np.ndarray] = []
    for p in range(num_pairs):
        key_set = set(static_tables[p])
        key_set.update(k for k, _d in delta_parts[p])
        key_set.update(k for k, _v in state_parts[p])
        for k in key_set:
            if isinstance(k, bool) or not isinstance(k, int):
                raise KernelContractError(
                    f"columnar keys must be ints, got {type(k).__name__}"
                )
        ks = np.array(sorted(key_set), dtype=np.int64)
        owned.append(ks)
        state.append(np.full(ks.size, identity, dtype=dtype))
        pending.append(np.full(ks.size, identity, dtype=dtype))
        active.append(np.zeros(ks.size, dtype=bool))
        if state_parts[p]:
            wk = np.array([k for k, _v in state_parts[p]], dtype=np.int64)
            wv = np.array([v for _k, v in state_parts[p]], dtype=dtype)
            state[p][np.searchsorted(ks, wk)] = wv
        if delta_parts[p]:
            dk = np.array([k for k, _d in delta_parts[p]], dtype=np.int64)
            dv = np.array([d for _k, d in delta_parts[p]], dtype=dtype)
            absorb_columnar(merge, ks, pending[p], active[p], dk, dv)
    prepared = [
        kernel.prepare(p, owned[p], static_tables[p]) for p in range(num_pairs)
    ]

    threshold = job.threshold if job.threshold is not None else 0.0
    max_rounds = job.max_rounds if job.max_rounds is not None else 10**9
    frac = job.top_fraction
    trace: list[dict] = []
    rounds = 0
    updates = 0
    emitted = 0
    shipped = 0
    mass = 0.0
    terminated_by = ""

    while True:
        # ---- global accumulated-progress check ----
        priorities = [
            pending_priority(merge, state[p], pending[p], active[p])
            for p in range(num_pairs)
        ]
        mass = 0.0
        for p in range(num_pairs):
            mass += float(priorities[p].sum())
        if keep_trace:
            trace.append(
                {
                    "round": rounds,
                    "pending_mass": mass,
                    "updates": updates,
                    "emitted": emitted,
                    "shipped": shipped,
                }
            )
        if mass <= threshold:
            terminated_by = "progress"
            break
        if rounds >= max_rounds:
            terminated_by = "maxrounds"
            break
        # ---- select + apply + emit (pairs ascending) ----
        inbox: list[list[tuple[int, np.ndarray, np.ndarray]]] = [
            [] for _ in range(num_pairs)
        ]
        for p in range(num_pairs):
            if mode == "sync":
                idx = np.flatnonzero(active[p])
            else:
                pr = priorities[p]
                act = np.flatnonzero(pr > 0)
                if act.size == 0:
                    continue
                count = max(1, math.ceil(frac * act.size))
                # Stable argsort over −priority: ties keep ascending
                # key order — the record scheduler's exact tie-break.
                order = np.argsort(-pr[act], kind="stable")[:count]
                idx = act[order]
            if idx.size == 0:
                continue
            d = pending[p][idx].copy()
            old = state[p][idx]
            merged = old + d if merge == "sum" else np.minimum(old, d)
            state[p][idx] = merged
            pending[p][idx] = identity
            active[p][idx] = False
            updates += int(idx.size)
            changed = merged != old
            if not changed.any():
                continue
            out_keys, out_vals = kernel.emit_deltas(
                p,
                owned[p],
                idx[changed],
                d[changed],
                merged[changed],
                prepared[p],
            )
            emitted += int(out_keys.size)
            for q, ks, vs in route_columnar(
                out_keys, out_vals, part_array, num_pairs
            ):
                inbox[q].append((p, ks, vs))
                if q != p:
                    shipped += int(ks.size)
        # ---- absorb (dest ascending; batches arrive src-ascending) ----
        for q in range(num_pairs):
            for _src, ks, vs in inbox[q]:
                absorb_columnar(merge, owned[q], pending[q], active[q], ks, vs)
        rounds += 1

    final = sorted(
        (
            rec
            for p in range(num_pairs)
            for rec in decode_columnar(owned[p], state[p])
        ),
        key=lambda kv: order_key(kv[0]),
    )
    return AccumRunResult(
        state=final,
        rounds=rounds,
        converged=terminated_by == "progress",
        terminated_by=terminated_by,
        pending_mass=mass,
        updates_processed=updates,
        deltas_emitted=emitted,
        deltas_shipped=shipped,
        mode=mode,
        trace=trace,
    )
