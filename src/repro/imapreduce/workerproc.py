"""Worker-process side of the real multiprocess backend.

One :func:`worker_main` process hosts a *set* of persistent map/reduce
task pairs for the whole job (§3.1: tasks are assigned once and live
for every iteration).  The static-data partitions for its pairs arrive
in the init blob and are deserialized exactly once; only state batches
cross process boundaries afterwards (§3.2's static/state separation).

One loop, three steps
---------------------

Every job kind runs the same :func:`_worker_loop`, which owns the data
plane (:class:`_Port`), the stats, the per-iteration report →
checkpoint → verdict handshake and the final report.  The iteration
itself is a pluggable *step* that loads its own state and supplies its
report, checkpoint (with its ``path`` tag) and final-state payloads:
:class:`_RecordStep` (map/route/reduce/repartition on record lists),
:class:`_KernelStep` (map_kernel/merge/finalize on ``(keys, values)``
arrays, for kernel-enabled jobs) and :class:`_AccumStep`
(select/apply/absorb on one :class:`~repro.imapreduce.accum.AccumPair`
per pair, with the handshake *before* each round: the pre-round mass
check).

Data plane
----------

The mesh is a set of point-to-point OS pipes — one
:class:`multiprocessing.connection.Connection` per ordered worker pair —
plus a verdict pipe from and a report pipe to the coordinator.  On the
wire every logical message is a *frame*:

* a small pickled header ``(kind, iteration, phase, src, buf_sizes)``;
* for data frames, one payload pickle (protocol 5) whose large leaves
  (numpy state: centroids, coordinate vectors) are split out by
  ``buffer_callback`` and written as raw out-of-band parts straight from
  the array memory — the array bytes are never copied into the pickle
  stream, and the receiver reads them into fresh writable storage with
  ``recv_bytes_into`` (one unavoidable pipe copy, nothing else);
* header-only *manifest* frames (``buf_sizes is None``): a sender that
  feeds a destination ships data, a sender that does not ships the
  60-byte manifest, and receivers count arrivals (data or manifest)
  against the peer set instead of timing out.  ``batches_sent`` counts
  only data frames.

Shuffle payloads are a flat ``[(dest_pair, src_pair, data…), ...]``
list — one pickle per destination worker — where ``data`` is a record
list or a ``keys, values`` array pair.  Columnar batches carry their
key array only when the sender's route plan was (re)built and ``None``
otherwise (keys-once, see :mod:`.columnar`).  Record route decisions
(``part(key) → (owner_worker, pair)``) are memoized per worker: the key
universe of graph workloads is stable, so after the first iteration the
partitioner is never re-evaluated on the hot path.

The one2all broadcast (§5.1) is hoisted: every worker sends its state
parts to pair-0's owner, which assembles in ascending pair order, sorts
*once*, and ships the sorted broadcast back — ``2(W-1)`` messages and
one sort per iteration instead of ``W(W-1)`` messages and ``W`` sorts.

All sends go through a per-worker feeder thread, so the main thread
never blocks on a full pipe (two workers exchanging batches larger than
the pipe buffer would otherwise deadlock); serialization stays on the
main thread so the profiler can attribute it.

Control plane: per-iteration reports (distance partials and state
snapshots, only when the job measures a distance, runs an aux phase, or
keeps history; pending masses on the accumulative path), and the final
state.  Synchronous jobs that terminate by ``maxiter`` alone free-run:
workers cross zero synchronization points per iteration beyond the data
mesh itself.

Profiler: every worker accumulates wall-time per phase of its loop
(:data:`PHASE_COUNTERS`) into ``stats["phase_seconds"]``, surfaced by
``repro bench --profile``.

Fault tolerance (§3.4): when the coordinator arms checkpointing, each
worker spools its pair states to disk every ``checkpoint_every``
iterations through :class:`~repro.imapreduce.checkpoint.CheckpointStore`
and reports the file receipt; a heartbeat thread multiplexes liveness
beacons onto the report pipe so a SIGSTOPped (not just dead) worker is
detectable.  Respawned workers start at ``cfg.start_iteration`` from
restored state — see :mod:`.parallel` for the recovery protocol.

Determinism contract: every step processes pairs in ascending pair id
and assembles incoming batches in ascending source-pair order, so
reduce value lists — and therefore every float fold — are ordered
exactly as the serial executors order them.  The differential oracles
can demand record-for-record equality.
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
import traceback
from itertools import chain
from multiprocessing.connection import wait as _conn_wait
from typing import Any

from ..common.partition import bind_partitioner
from ..common.records import group_by_key
from ..mapreduce.api import Context
from .accum import AccumJob, AccumPair
from .checkpoint import CheckpointStore, fire_fault
from .columnar import (
    KeysOnceReceiver,
    KeysOnceSender,
    concat_broadcast,
    decode_columnar,
    encode_columnar,
    kernel_enabled,
)
from .localrun import map_pair, order_key, sorted_static

__all__ = ["WorkerConfig", "worker_main", "PHASE_COUNTERS", "PEER_LOST_EXIT"]

#: Control-plane message kinds (worker → coordinator).
ITER_REPORT = "iter"
FINAL_REPORT = "final"
ERROR_REPORT = "error"
#: Liveness beacon (worker → coordinator, header-only, off the stats).
HEARTBEAT = "hb"
#: Checkpoint spool-file receipt (worker → coordinator).
CKPT_REPORT = "ckpt"
#: Coordinator → worker.
VERDICT = "verdict"
CONTINUE = "continue"
#: Worker ↔ worker data-plane kinds.
SHUFFLE = "shuffle"
REPART = "repart"
BCAST = "bcast"
BCAST_SORTED = "bcast+"

#: Wire pickle protocol: 5 for out-of-band buffer support.
_PROTOCOL = 5

#: The profiler's wall-time counters, in reporting order.  ``kernel``
#: attributes the columnar path's compute (prepare + map_kernel + merge
#: + finalize + broadcast assembly); it stays zero on the record path,
#: whose compute lands in ``map``/``combine``/``reduce``.  ``checkpoint``
#: is the durable-spool write path (§3.4.1) and ``recover`` the
#: restore-from-checkpoint load after a respawn; both stay zero on an
#: unfaulted run without checkpointing.  ``schedule`` (priority scoring
#: + selection) and ``delta`` (apply/emit/absorb) belong to the
#: accumulative Maiter-mode loop and stay zero on synchronous jobs.
PHASE_COUNTERS = (
    "map",
    "combine",
    "kernel",
    "schedule",
    "delta",
    "serialize",
    "deserialize",
    "send",
    "wait",
    "reduce",
    "report",
    "checkpoint",
    "recover",
)

#: Exit code for a worker that lost a peer or coordinator pipe (EOF /
#: EPIPE under the spawn start method when a sibling dies).  It is a
#: *quiet* exit — no error frame — because the root cause is the peer's
#: death, which the coordinator detects and recovers on its own.
PEER_LOST_EXIT = 3

#: Sender-side marker for a header-only manifest frame (never pickled).
_NO_PAYLOAD = object()


# ------------------------------------------------------------- framing --
def encode_frame(kind, iteration: int, phase: int, src: int, payload):
    """Build one wire frame; returns ``(parts, nbytes)``.

    ``parts`` is the list of byte-likes to ship with consecutive
    ``send_bytes`` calls on one connection: header, then (for data
    frames) the payload pickle, then each out-of-band buffer written
    directly from its source memory.
    """
    if payload is _NO_PAYLOAD:
        header = pickle.dumps(
            (kind, iteration, phase, src, None), protocol=_PROTOCOL
        )
        return [header], len(header)
    buffers: list = []
    data = pickle.dumps(payload, protocol=_PROTOCOL, buffer_callback=buffers.append)
    try:
        raws = [b.raw() for b in buffers]
    except BufferError:  # pragma: no cover - non-contiguous exotic buffer
        data = pickle.dumps(payload, protocol=_PROTOCOL)
        raws = []
    sizes = tuple(r.nbytes for r in raws)
    header = pickle.dumps(
        (kind, iteration, phase, src, sizes), protocol=_PROTOCOL
    )
    nbytes = len(header) + len(data) + sum(sizes)
    return [header, data, *raws], nbytes


def read_frame(conn):
    """Read one frame; returns ``(kind, iteration, phase, src, payload,
    nbytes)`` — ``payload is None`` for header-only manifest frames.

    Out-of-band buffers are received into fresh ``bytearray`` storage so
    reconstructed numpy arrays stay writable.
    """
    return _read_frame(conn, lambda: None)


def _read_frame(conn, await_part):
    """:func:`read_frame` calling ``await_part()`` before every part
    after the header — the hook the coordinator's torn-frame guard
    uses (a writer killed mid-frame never sends the rest)."""
    header = conn.recv_bytes()
    kind, iteration, phase, src, sizes = pickle.loads(header)
    if sizes is None:
        return kind, iteration, phase, src, None, len(header)
    await_part()
    data = conn.recv_bytes()
    nbytes = len(header) + len(data)
    buffers = []
    for size in sizes:
        await_part()
        buf = bytearray(size)
        conn.recv_bytes_into(buf)
        buffers.append(buf)
        nbytes += size
    payload = pickle.loads(data, buffers=buffers) if sizes else pickle.loads(data)
    return kind, iteration, phase, src, payload, nbytes


class WorkerConfig:
    """Everything one worker needs, shipped as a single pickle blob.

    The blob is pickled explicitly by the coordinator (not implicitly by
    the spawn machinery) so the job's pickle round-trip is exercised on
    every backend start regardless of the multiprocessing start method.
    """

    def __init__(
        self,
        worker_id: int,
        num_workers: int,
        num_pairs: int,
        job,
        state_parts: dict[int, list],
        static_parts: list[dict[int, dict]],
        send_state: bool,
        wait_verdict: bool,
        *,
        generation: int = 0,
        start_iteration: int = 0,
        owner_of: list[int] | None = None,
        checkpoint_every: int | None = None,
        spool_dir: str | None = None,
        faults: tuple = (),
        accum_mode: str = "async",
        accum_initial_state: dict[int, list] | None = None,
    ):
        self.worker_id = worker_id
        self.num_workers = num_workers
        self.num_pairs = num_pairs
        self.job = job
        self.state_parts = state_parts  # pair -> records (this worker's pairs)
        self.static_parts = static_parts  # [phase] -> pair -> key->static
        self.send_state = send_state
        self.wait_verdict = wait_verdict
        #: Incarnation of the whole mesh; bumped on every recovery so a
        #: replayed iteration does not re-fire generation-0 fault plans.
        self.generation = generation
        #: First iteration this mesh runs (checkpoint iteration + 1).
        self.start_iteration = start_iteration
        #: Explicit pair→worker map (round-robin when ``None``); made
        #: explicit so recovery can reassign a dead worker's pairs.
        self.owner_of = owner_of
        self.checkpoint_every = checkpoint_every
        self.spool_dir = spool_dir
        #: Seeded self-inflicted process faults (:class:`ProcFault`).
        self.faults = tuple(faults)
        #: Accumulative jobs only: the round scheduling mode
        #: (``"sync"`` drains every pending delta, ``"async"`` the
        #: top-priority fraction).
        self.accum_mode = accum_mode
        #: Accumulative warm start (incremental mode): pair → memoized
        #: converged records, preloaded into the pairs' state without
        #: propagation; ``state_parts`` then carries only the
        #: change-scoped perturbation deltas.
        self.accum_initial_state = accum_initial_state

    def resolved_owner_of(self) -> list[int]:
        if self.owner_of is not None:
            return list(self.owner_of)
        return [p % self.num_workers for p in range(self.num_pairs)]

    def to_blob(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def from_blob(blob: bytes) -> "WorkerConfig":
        return pickle.loads(blob)


class _Feeder(threading.Thread):
    """Per-worker sender thread: the main thread frames and enqueues,
    the feeder performs the (possibly blocking) pipe writes.

    Decoupling sends from the worker loop is what makes the pipe mesh
    deadlock-free: main threads only ever block *reading*, so some
    receiver is always draining and every blocked write eventually
    completes.  ``seconds`` accumulates actual write wall-time for the
    profiler's ``send`` counter (read after :meth:`flush`).
    """

    def __init__(self, worker_id: int):
        super().__init__(name=f"imr-feeder-{worker_id}", daemon=True)
        self._q: queue.Queue = queue.Queue()
        self.seconds = 0.0
        self.error: BaseException | None = None

    def run(self) -> None:
        while True:
            item = self._q.get()
            if item is None:
                self._q.task_done()
                return
            conn, parts = item
            started = time.perf_counter()
            try:
                for part in parts:
                    conn.send_bytes(part)
            except BaseException as exc:  # surfaced on the next send/flush
                if self.error is None:
                    self.error = exc
            self.seconds += time.perf_counter() - started
            self._q.task_done()

    def send(self, conn, parts) -> None:
        if self.error is not None:
            raise self.error
        self._q.put((conn, parts))

    def flush(self) -> None:
        """Block until every enqueued frame hit the pipe."""
        self._q.join()
        if self.error is not None:
            raise self.error

    def stop(self) -> None:
        self._q.put(None)
        self.join(timeout=10.0)


class _PeerLost(Exception):
    """A mesh or coordinator pipe hit EOF/EPIPE: a peer process died.

    Raised instead of letting the raw OS error bubble into an error
    frame — the death is the *peer's* story, and the coordinator hears
    it from that peer's sentinel.  The holder exits quietly with
    :data:`PEER_LOST_EXIT` so recovery treats it as collateral, not as a
    deterministic worker bug."""


class _Heartbeat(threading.Thread):
    """Liveness beacon: one header-only frame onto the report pipe every
    ``interval`` seconds, routed through the feeder so beacon writes can
    never interleave with (and corrupt) a data frame mid-parts.

    Runs through SIGSTOP detection's *negative* space: a stopped process
    freezes this thread with everything else, the beacons cease, and the
    coordinator's suspicion timeout fires.
    """

    def __init__(self, feeder: "_Feeder", conn, worker_id: int, interval: float):
        super().__init__(name=f"imr-heartbeat-{worker_id}", daemon=True)
        self._feeder = feeder
        self._conn = conn
        self._interval = interval
        self._parts, _ = encode_frame(HEARTBEAT, 0, 0, worker_id, _NO_PAYLOAD)
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            try:
                self._feeder.send(self._conn, self._parts)
            except BaseException:
                return  # pipe gone: the main thread is already failing

    def stop(self) -> None:
        self._halt.set()


class _Inbox:
    """Readiness-based receive with out-of-order stashing.

    Blocks in :func:`multiprocessing.connection.wait` over every inbound
    connection (peer mesh pipes + the coordinator's verdict pipe), so a
    ready message costs microseconds, not a poll interval.  A fast
    worker may deliver its phase-``k+1`` frame while this worker still
    waits on a slow peer's phase-``k`` frame; anything not yet wanted is
    stashed under its ``(kind, iteration, phase)`` slot and found there
    when the step catches up.
    """

    def __init__(self, conns: list, timings: dict[str, float]):
        self._conns = list(conns)
        self._timings = timings
        self._stash: dict[tuple, dict[int, Any]] = {}
        self._verdicts: dict[int, str] = {}

    def _pump(self, timeout: float | None) -> None:
        timings = self._timings
        started = time.perf_counter()
        ready = _conn_wait(self._conns, timeout)
        timings["wait"] += time.perf_counter() - started
        if not ready:
            raise TimeoutError(f"no mesh message within {timeout}s")
        for conn in ready:
            started = time.perf_counter()
            kind, iteration, phase, src, payload, _ = read_frame(conn)
            timings["deserialize"] += time.perf_counter() - started
            if kind == VERDICT:
                self._verdicts[iteration] = payload
            else:
                self._stash.setdefault((kind, iteration, phase), {})[src] = payload

    def gather(
        self, kind: str, iteration: int, phase: int, sources: list[int],
        timeout: float | None,
    ) -> dict[int, Any]:
        """Block until a frame (data or manifest) from every source
        arrived; manifest senders appear with a ``None`` payload."""
        if not sources:  # single worker: nothing to wait for
            return {}
        slot = (kind, iteration, phase)
        while True:
            have = self._stash.get(slot)
            if have is not None and all(s in have for s in sources):
                return self._stash.pop(slot)
            self._pump(timeout)

    def verdict(self, iteration: int, timeout: float | None) -> str:
        while iteration not in self._verdicts:
            self._pump(timeout)
        return self._verdicts.pop(iteration)


def worker_main(
    worker_id: int,
    blob: bytes,
    peer_recv: dict[int, Any],
    peer_send: dict[int, Any],
    verdict_conn,
    report_conn,
    timeout: float | None = None,
    heartbeat_interval: float | None = None,
) -> None:
    """Process entry point: run every iteration for this worker's pairs.

    ``worker_id`` and ``heartbeat_interval`` travel as their own
    arguments (not only inside ``blob``) so the error path never has to
    re-unpickle the whole config just to label a traceback — and so the
    liveness beacon starts *before* the potentially large blob unpickle,
    keeping startup inside the coordinator's suspicion window.
    """
    feeder: _Feeder | None = None
    heartbeat: _Heartbeat | None = None
    try:
        feeder = _Feeder(worker_id)
        feeder.start()
        if heartbeat_interval is not None:
            heartbeat = _Heartbeat(feeder, report_conn, worker_id, heartbeat_interval)
            heartbeat.start()
        cfg = WorkerConfig.from_blob(blob)
        _worker_loop(
            cfg, peer_recv, peer_send, verdict_conn, report_conn, feeder, timeout
        )
        feeder.flush()
        if heartbeat is not None:
            heartbeat.stop()
        feeder.stop()
    except (_PeerLost, EOFError, BrokenPipeError, ConnectionResetError):
        # A peer (or the coordinator) died under us: exit quietly with a
        # recognizable code.  The coordinator learns the root cause from
        # the dead peer's own sentinel; an error frame here would turn a
        # recoverable death into a spurious deterministic failure.
        raise SystemExit(PEER_LOST_EXIT)
    except BaseException:
        parts, _ = encode_frame(ERROR_REPORT, 0, 0, worker_id, traceback.format_exc())
        try:
            if feeder is not None and feeder.is_alive() and feeder.error is None:
                feeder.send(report_conn, parts)
                feeder.stop()
            else:
                for part in parts:
                    report_conn.send_bytes(part)
        except Exception:  # pragma: no cover - coordinator gone; sentinel
            pass  # detection still reports the death


class _Port:
    """This worker's end of the data plane, shared by every step: framing,
    the mesh counters, and the skip-empty :meth:`exchange` and hoisted
    one2all :meth:`allgather`.  Batch items are ``(pair, …)`` tuples
    whose *last* part — a record list or a value array — has one entry
    per record, so one counting rule serves every step: records count
    values, and a keys-once columnar batch whose keys are ``None``
    counts the same as one that carries them."""

    def __init__(self, cfg: WorkerConfig, peer_send: dict[int, Any],
                 inbox: _Inbox, feeder: _Feeder, timings: dict[str, float],
                 stats: dict[str, Any], timeout: float | None):
        self.cfg = cfg
        self.wid = cfg.worker_id
        self.peers = sorted(peer_send)
        self.owner_of = cfg.resolved_owner_of()
        self.sorter = self.owner_of[0]  # hoisted one2all assembly runs here
        self.inbox = inbox
        self.timings = timings
        self.stats = stats
        self._peer_send = peer_send
        self._feeder = feeder
        self._timeout = timeout

    def fire_faults(self, iteration: int, phase: int) -> None:
        """Self-inflict any seeded fault scheduled for this exact point."""
        cfg = self.cfg
        for fault in cfg.faults:
            if fault.matches(cfg.generation, cfg.worker_id, iteration, phase):
                fire_fault(fault)

    def ship(self, kind: str, iteration: int, phase: int, dest: int, payload,
             records: int = 0) -> None:
        started = time.perf_counter()
        parts, nbytes = encode_frame(kind, iteration, phase, self.wid, payload)
        self.timings["serialize"] += time.perf_counter() - started
        stats = self.stats
        stats["bytes_pickled"] += nbytes
        if payload is _NO_PAYLOAD:
            stats["manifest_frames"] += 1
        else:
            stats["batches_sent"] += 1
            stats["records_sent"] += records
        self._feeder.send(self._peer_send[dest], parts)

    def exchange(
        self, kind: str, iteration: int, phase: int, routed: dict[int, list]
    ) -> dict[int, dict[int, tuple]]:
        """Skip-empty send + gather of ``dest_worker → [(dest_pair,
        src_pair, data…), …]`` batches: a data frame to every fed peer,
        a manifest to every other.  Returns ``dest_pair → src_pair →
        item`` over the local and the arrived batches."""
        for v in self.peers:
            batch = routed.get(v)
            if batch:
                self.ship(kind, iteration, phase, v, batch,
                          sum(len(item[-1]) for item in batch))
            else:
                self.ship(kind, iteration, phase, v, _NO_PAYLOAD)
        merged: dict[int, dict[int, tuple]] = {}
        for item in routed.get(self.wid, ()):
            merged.setdefault(item[0], {})[item[1]] = item
        arrived = self.inbox.gather(kind, iteration, phase, self.peers, self._timeout)
        for batch in arrived.values():
            if batch:
                for item in batch:
                    merged.setdefault(item[0], {})[item[1]] = item
        return merged

    def allgather(self, iteration: int, phase: int, mine: list, assemble):
        """Hoisted one2all broadcast (§5.1): every worker ships its
        ``(pair, data…)`` parts to pair 0's owner, which calls
        ``assemble(pair → item)`` once — returning ``(broadcast,
        records)`` — and ships the result to everyone else."""
        peers = self.peers
        if self.wid == self.sorter:
            by_pair = {item[0]: item for item in mine}
            gathered = self.inbox.gather(BCAST, iteration, phase, peers, self._timeout)
            for batch in gathered.values():
                if batch:
                    for item in batch:
                        by_pair[item[0]] = item
            broadcast, records = assemble(by_pair)
            for v in peers:
                self.ship(BCAST_SORTED, iteration, phase, v, broadcast, records)
            return broadcast
        records = sum(len(item[-1]) for item in mine)
        self.ship(BCAST, iteration, phase, self.sorter,
                  mine if records else _NO_PAYLOAD, records)
        got = self.inbox.gather(
            BCAST_SORTED, iteration, phase, [self.sorter], self._timeout
        )
        return got[self.sorter]


#: Iteration bound of a loop whose end only a verdict decides.
_UNBOUNDED = 10**9


def _arrivals(merged: dict[int, dict[int, tuple]], q: int) -> list[tuple]:
    """Pair ``q``'s batch items in ascending source-pair order (not
    arrival order): float folds must see values in the serial
    executor's sequence."""
    by_src = merged.get(q)
    return [by_src[s] for s in sorted(by_src)] if by_src else []


def _records(merged: dict[int, dict[int, tuple]], q: int) -> list:
    """Pair ``q``'s arrived records, concatenated by :func:`_arrivals`."""
    return list(chain.from_iterable(item[2] for item in _arrivals(merged, q)))


class _SyncStep:
    """The synchronous steps' shared shape: the handshake follows each
    iteration, and the report carries the per-pair distance partials
    (when the job measures one) and the state (when the coordinator
    consumes it)."""

    pre_round_verdict = False

    def __init__(self, cfg: WorkerConfig, port: _Port):
        job = cfg.job
        self.port = port
        self.num_pairs = cfg.num_pairs
        self.my_pairs = sorted(cfg.state_parts)
        self.send_state = cfg.send_state
        self.measures_distance = job.distance_fn is not None
        self.max_iterations = (
            job.max_iterations if job.max_iterations is not None else _UNBOUNDED
        )
        #: The record step's memoized key routes; the columnar path
        #: routes whole arrays and leaves this empty.
        self.route_cache: dict[Any, tuple[int, int]] = {}

    def final_stats(self) -> dict[str, Any]:
        return {"route_cache_size": len(self.route_cache)}

    def report(self) -> dict[str, Any]:
        started = time.perf_counter()
        report: dict[str, Any] = {}
        if self.measures_distance:
            report["distance"] = self._distance_partials()
        if self.send_state:
            report["state"] = self.final_state()
        self.port.timings["report"] += time.perf_counter() - started
        return report


class _RecordStep(_SyncStep):
    """Record-sync step: the shared :func:`map_pair` (+ combiner), route,
    ascending-source reduce, and multi-phase repartition (§5.2).

    State is per-pair record lists; ``prev`` (the distance baseline) is
    rebuilt from the loaded snapshot, which is exact after a recovery
    respawn too: at the start of iteration k+1 an unfaulted worker's
    ``prev`` is precisely the state at the end of iteration k, i.e.
    what the checkpoint holds.
    """

    path = "record"

    def __init__(self, cfg: WorkerConfig, port: _Port):
        super().__init__(cfg, port)
        job = cfg.job
        self.phases = job.phases
        self.part = bind_partitioner(job.partitioner, cfg.num_pairs)
        self.distance_fn = job.distance_fn
        # Static data: deserialized from the init blob exactly once for
        # the whole job; iterations only ever read it (§3.2.1).
        self.static_parts = cfg.static_parts
        self.static_sorted = [
            {p: sorted_static(per_pair[p]) for p in self.my_pairs}
            if phase.mapping == "one2all"
            else None
            for phase, per_pair in zip(self.phases, cfg.static_parts)
        ]
        started = time.perf_counter()
        self.current = {p: list(recs) for p, recs in cfg.state_parts.items()}
        self.prev = (
            {p: dict(recs) for p, recs in self.current.items()}
            if self.measures_distance
            else None
        )
        if cfg.start_iteration:
            port.timings["recover"] += time.perf_counter() - started

    def _route(self, out_records: dict[int, list]) -> dict[int, list]:
        """Group emissions as ``dest_worker → [(dest_pair, src_pair,
        records), …]``.  ``part(key) → (owner, pair)`` is memoized for
        the job's stable key universe: after iteration 0 the partitioner
        never runs again on the shuffle hot path."""
        part, owner_of = self.part, self.port.owner_of
        route_cache = self.route_cache
        cached_route = route_cache.get
        routed: dict[int, dict[tuple[int, int], list]] = {}
        for src_pair, records in out_records.items():
            for rec in records:
                key = rec[0]
                hop = cached_route(key)
                if hop is None:
                    q = part(key)
                    hop = route_cache[key] = (owner_of[q], q)
                dest = routed.setdefault(hop[0], {})
                slot = (hop[1], src_pair)
                bucket = dest.get(slot)
                if bucket is None:
                    bucket = dest[slot] = []
                bucket.append(rec)
        return {
            v: [(q, src, recs) for (q, src), recs in slots.items()]
            for v, slots in routed.items()
        }

    def _assemble(self, by_pair: dict[int, tuple]) -> tuple[list, int]:
        """Flatten every pair's records in ascending pair order and sort
        once."""
        started = time.perf_counter()
        broadcast = sorted(
            (rec for p in sorted(by_pair) for rec in by_pair[p][1]),
            key=lambda kv: order_key(kv[0]),
        )
        self.port.timings["map"] += time.perf_counter() - started
        return broadcast, len(broadcast)

    def iterate(self, iteration: int) -> None:
        port, timings = self.port, self.port.timings
        my_pairs = self.my_pairs
        perf = time.perf_counter
        for phase_index, phase in enumerate(self.phases):
            port.fire_faults(iteration, phase_index)
            current = self.current
            broadcast = None
            if phase.mapping == "one2all":
                broadcast = port.allgather(
                    iteration, phase_index,
                    [(p, current.get(p, [])) for p in my_pairs], self._assemble,
                )

            # ---- map (+ combiner), then route to the reduce side ----
            phase_static = self.static_parts[phase_index]
            phase_sorted = self.static_sorted[phase_index]
            emitted_by_pair = {
                p: map_pair(
                    phase,
                    current.get(p, []),
                    phase_static[p],
                    phase_sorted[p] if phase_sorted is not None else None,
                    broadcast,
                    self.part,
                    timings=timings,
                )
                for p in my_pairs
            }
            merged = port.exchange(
                SHUFFLE, iteration, phase_index, self._route(emitted_by_pair)
            )

            # ---- reduce ----
            started = perf()
            out_parts: dict[int, list] = {}
            for q in my_pairs:
                ctx = Context()
                for key, values in group_by_key(_records(merged, q)):
                    phase.reduce_fn(key, values, ctx)
                out_parts[q] = ctx.take()
            timings["reduce"] += perf() - started

            if phase_index == len(self.phases) - 1:
                # Persistent pair channel: reduce k's output is map k+1's
                # input for the same pair, never leaving this process.
                self.current = out_parts
            else:
                # Multi-phase routing (§5.2): repartition to the next
                # phase's maps across the mesh.
                merged = port.exchange(
                    REPART, iteration, phase_index, self._route(out_parts)
                )
                self.current = {p: _records(merged, p) for p in my_pairs}

    def _distance_partials(self) -> dict[int, float]:
        distance_fn, prev = self.distance_fn, self.prev
        partials = {}
        for p in self.my_pairs:
            prev_get = prev[p].get
            partial = 0.0
            new_prev = {}  # built during the distance pass: no
            for key, value in self.current.get(p, ()):  # second rebuild
                partial += distance_fn(key, prev_get(key), value)
                new_prev[key] = value
            partials[p] = partial
            prev[p] = new_prev
        return partials

    def final_state(self) -> dict[int, list]:
        return {p: self.current.get(p, []) for p in self.my_pairs}

    checkpoint = final_state



class _KernelStep(_SyncStep):
    """Kernel-sync step: one ``map_kernel`` + planned route, merge and
    ``finalize`` per pair on ``(keys, values)`` arrays, which cross the
    mesh as out-of-band buffers — keys only when a route plan was
    (re)built.  Merges and broadcast assembly follow the serial columnar
    executor's order and plans, so kernel-parallel results are bit-equal
    to kernel-serial ones.  Plans are not checkpointed: a respawned mesh
    starts with empty plans on both ends and ships keys again.  Reports
    and the final state decode to records (the coordinator is
    path-agnostic); checkpoints keep the arrays."""

    path = "kernel"

    def __init__(self, cfg: WorkerConfig, port: _Port):
        super().__init__(cfg, port)
        job = cfg.job
        kernel = self.kernel = job.kernel
        self.one2all = job.phases[0].mapping == "one2all"
        self.sender = KeysOnceSender(
            job.partitioner.bind_array(cfg.num_pairs), cfg.num_pairs
        )
        self.receiver = KeysOnceReceiver(kernel.merge)
        timings = port.timings

        # A respawn after recovery (start_iteration > 0) loads a
        # restored checkpoint, which already holds the encoded
        # (keys, values) arrays — the ``recover`` phase; the initial
        # encode from records is ``kernel`` time.
        restored = cfg.start_iteration > 0
        started = time.perf_counter()
        self.owned: dict[int, Any] = {}
        self.values: dict[int, Any] = {}
        for p in self.my_pairs:
            self.owned[p], self.values[p] = (
                cfg.state_parts[p]
                if restored
                else encode_columnar(
                    cfg.state_parts[p], kernel.state_dtype, kernel.state_width
                )
            )
        timings["recover" if restored else "kernel"] += time.perf_counter() - started
        started = time.perf_counter()
        static_tables = cfg.static_parts[0]
        self.prepared = {
            p: kernel.prepare(p, self.owned[p], static_tables[p])
            for p in self.my_pairs
        }
        timings["kernel"] += time.perf_counter() - started
        self.prev = (
            {p: self.values[p].copy() for p in self.my_pairs}
            if self.measures_distance
            else None
        )

    def _assemble(self, by_pair: dict[int, tuple]) -> tuple[tuple, int]:
        """Concatenate every pair's columns and sort the unique key
        array once."""
        started = time.perf_counter()
        broadcast = concat_broadcast([by_pair[p][1:] for p in sorted(by_pair)])
        self.port.timings["kernel"] += time.perf_counter() - started
        return broadcast, int(broadcast[0].size)

    def iterate(self, iteration: int) -> None:
        port, timings = self.port, self.port.timings
        kernel, owned, values = self.kernel, self.owned, self.values
        my_pairs, owner_of = self.my_pairs, port.owner_of
        port.fire_faults(iteration, 0)
        broadcast = None
        if self.one2all:
            broadcast = port.allgather(
                iteration, 0, [(p, owned[p], values[p]) for p in my_pairs],
                self._assemble,
            )

        # ---- map + route (columnar) ----
        started = time.perf_counter()
        routed: dict[int, list] = {}  # dest worker -> [(q, src, keys, vals)]
        for p in my_pairs:
            out_keys, out_vals = kernel.map_kernel(
                p, owned[p], values[p], self.prepared[p], broadcast
            )
            for q, ks, vs in self.sender.route(p, out_keys, out_vals):
                routed.setdefault(owner_of[q], []).append((q, p, ks, vs))
        timings["kernel"] += time.perf_counter() - started

        merged = port.exchange(SHUFFLE, iteration, 0, routed)

        # ---- vectorized merge + finalize, ascending source order ----
        started = time.perf_counter()
        for q in my_pairs:
            if owned[q].size == 0:
                continue
            arrivals = [item[1:] for item in _arrivals(merged, q)]
            acc = self.receiver.merge_into(q, owned[q], arrivals)
            values[q] = kernel.finalize(q, owned[q], acc, values[q], self.prepared[q])
        timings["kernel"] += time.perf_counter() - started

    def _distance_partials(self) -> dict[int, float]:
        owned, values, prev = self.owned, self.values, self.prev
        partials = {}
        for p in self.my_pairs:
            partials[p] = (
                self.kernel.distance_partial(owned[p], prev[p], values[p])
                if owned[p].size
                else 0.0
            )
            prev[p] = values[p].copy()
        return partials

    def checkpoint(self) -> dict[int, tuple]:
        """The encoded arrays ride the same protocol-5 out-of-band
        buffer path to disk that they ride over the mesh."""
        return {p: (self.owned[p], self.values[p]) for p in self.my_pairs}

    def final_state(self) -> dict[int, list]:
        return {
            p: decode_columnar(self.owned[p], self.values[p]) for p in self.my_pairs
        }



class _AccumStep:
    """Accum step (Maiter mode): select, apply + emit, and absorb on one
    :class:`AccumPair` per hosted pair, in
    :func:`~repro.imapreduce.localrun.run_accum_local`'s operation order.

    Rounds are mass-checked *before* they execute (``pre_round_verdict``):
    the report carries the per-pair pending-priority masses (round 0
    reports the initial deltas' mass) plus cumulative work counters.
    ``cfg.accum_mode`` selects sync or top-fraction async scheduling;
    only nonzero delta batches cross the mesh.
    """

    pre_round_verdict = True
    max_iterations = _UNBOUNDED  # the coordinator's verdict ends the run

    def __init__(self, cfg: WorkerConfig, port: _Port):
        job = self.job = cfg.job
        self.port = port
        self.mode = cfg.accum_mode
        self.num_pairs = cfg.num_pairs
        self.my_pairs = sorted(cfg.state_parts)
        self.part = bind_partitioner(job.partitioner, cfg.num_pairs)
        static_tables = cfg.static_parts[0]
        warm = cfg.accum_initial_state or {}
        self.pairs = {
            p: AccumPair(p, job.accumulator, static_tables[p],
                         keys=static_tables[p], initial_state=warm.get(p))
            for p in self.my_pairs
        }
        for p in self.my_pairs:
            self.pairs[p].absorb(cfg.state_parts[p])
        self.shipped = 0  # cumulative cross-pair delta records

    def iterate(self, rnd: int) -> None:
        port, timings = self.port, self.port.timings
        pairs, my_pairs, num_pairs = self.pairs, self.my_pairs, self.num_pairs
        perf = time.perf_counter

        # ---- select (priority queues) ----
        started = perf()
        frac = self.job.top_fraction
        selections = {p: pairs[p].select(self.mode, frac) for p in my_pairs}
        timings["schedule"] += perf() - started

        # ---- apply + emit ----
        started = perf()
        routed: dict[int, list] = {}
        for p in my_pairs:
            outbox: list[list] = [[] for _ in range(num_pairs)]
            pairs[p].apply(self.job, selections[p], self.part, outbox)
            for q, recs in enumerate(outbox):
                if recs:
                    routed.setdefault(port.owner_of[q], []).append((q, p, recs))
                    if q != p:
                        self.shipped += len(recs)
        timings["delta"] += perf() - started

        merged = port.exchange(SHUFFLE, rnd, 0, routed)

        # ---- absorb (ascending source-pair order) ----
        started = perf()
        for q in my_pairs:
            target = pairs[q]
            for item in _arrivals(merged, q):
                target.absorb(item[2])
        timings["delta"] += perf() - started

    def report(self) -> dict[str, Any]:
        started = time.perf_counter()
        pairs, my_pairs = self.pairs, self.my_pairs
        masses = {p: pairs[p].mass() for p in my_pairs}
        self.port.timings["schedule"] += time.perf_counter() - started
        return {
            "mass": masses,
            "updates": sum(pairs[p].updates_processed for p in my_pairs),
            "emitted": sum(pairs[p].deltas_emitted for p in my_pairs),
            "shipped": self.shipped,
        }

    def final_state(self) -> dict[int, list]:
        return {p: self.pairs[p].final_records() for p in self.my_pairs}

    def final_stats(self) -> dict[str, Any]:
        pairs = self.pairs.values()
        return {
            "updates_processed": sum(pair.updates_processed for pair in pairs),
            "deltas_emitted": sum(pair.deltas_emitted for pair in pairs),
            "deltas_shipped": self.shipped,
        }


def _worker_loop(
    cfg: WorkerConfig,
    peer_recv: dict[int, Any],
    peer_send: dict[int, Any],
    verdict_conn,
    report_conn,
    feeder: _Feeder,
    timeout: float | None,
) -> None:
    """The one worker iteration loop, for every job kind (see the module
    docstring): the job kind picks the step; synchronous steps report
    after each iteration, the accum step before each round."""
    wid = cfg.worker_id
    perf = time.perf_counter
    timings = {name: 0.0 for name in PHASE_COUNTERS}
    # ``static_loads`` is the observable the wall-clock benchmark
    # asserts on: static partitions are deserialized once per worker.
    stats: dict[str, Any] = {
        "worker": wid,
        "pairs": sorted(cfg.state_parts),
        "static_loads": 1,
        "static_records": sum(len(d) for per in cfg.static_parts for d in per.values()),
        "records_sent": 0,
        "batches_sent": 0,
        "manifest_frames": 0,
        "bytes_pickled": 0,
        "ckpt_writes": 0,
        "ckpt_bytes": 0,
    }
    inbox = _Inbox([*peer_recv.values(), verdict_conn], timings)
    port = _Port(cfg, peer_send, inbox, feeder, timings, stats, timeout)
    if isinstance(cfg.job, AccumJob):
        step = _AccumStep(cfg, port)
    elif kernel_enabled(cfg.job):
        step = _KernelStep(cfg, port)
    else:
        step = _RecordStep(cfg, port)
    ckpt_store = (
        CheckpointStore(cfg.spool_dir)
        if cfg.checkpoint_every and cfg.spool_dir
        else None
    )

    terminated_by = ""

    def handshake(iteration: int) -> bool:
        """Report, checkpoint, and await the verdict if the coordinator
        decides termination; returns whether to go on."""
        nonlocal terminated_by
        report = step.report()
        started = perf()
        if report or cfg.wait_verdict:
            parts, nbytes = encode_frame(ITER_REPORT, iteration, 0, wid, report)
            stats["bytes_pickled"] += nbytes
            feeder.send(report_conn, parts)
        timings["report"] += perf() - started

        # ---- durable checkpoint (§3.4.1) ----
        # After the report, before the verdict: the report for iteration
        # k always reaches the coordinator ahead of the checkpoint
        # receipt on the same FIFO pipe, so a committed manifest is
        # never ahead of the merged control-plane state.
        if ckpt_store is not None and (iteration + 1) % cfg.checkpoint_every == 0:
            started = perf()
            entry = ckpt_store.write(
                cfg.generation, iteration, wid,
                {"path": step.path, "pairs": step.checkpoint()},
            )
            stats["ckpt_writes"] += 1
            stats["ckpt_bytes"] += entry["bytes"]
            parts, _ = encode_frame(CKPT_REPORT, iteration, 0, wid, entry)
            feeder.send(report_conn, parts)
            timings["checkpoint"] += perf() - started

        if cfg.wait_verdict:  # maxiter-only jobs free-run
            verdict = inbox.verdict(iteration, timeout)
            if verdict != CONTINUE:
                terminated_by = verdict
                return False
        return True

    iterations_run = cfg.start_iteration
    for iteration in range(cfg.start_iteration, step.max_iterations):
        if step.pre_round_verdict and not handshake(iteration):
            break
        step.iterate(iteration)
        iterations_run = iteration + 1
        if not step.pre_round_verdict and not handshake(iteration):
            break

    feeder.flush()  # pick up the feeder's write time before reporting
    timings["send"] = feeder.seconds
    stats["phase_seconds"] = {k: round(v, 6) for k, v in timings.items()}
    stats.update(step.final_stats())
    final = {
        "state": step.final_state(),
        "iterations_run": iterations_run,
        "terminated_by": terminated_by,
        "stats": stats,
    }
    parts, _ = encode_frame(FINAL_REPORT, iterations_run, 0, wid, final)
    feeder.send(report_conn, parts)
