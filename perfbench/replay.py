"""Step-by-step replays of the serial engines, with a span per layer call.

Each replay performs the same operations, in the same order, as the
serial executor it mirrors (``run_local`` on the record and columnar
paths, ``run_accum_local``), but calls the layer functions one at a
time so every call gets a span.  Its final state must equal the
engine's bit for bit; the benchmark checks that on every traced run,
which shows the replay did the engine's work.

Only the job shapes the benchmark's workloads use are supported: one
phase, no auxiliary phase, no history, no warm start.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from repro.common.partition import bind_partitioner
from repro.common.records import group_by_key
from repro.imapreduce import AccumPair, patch_static_table, plan_changes
from repro.imapreduce.accum import partition_accum_inputs
from repro.imapreduce.columnar import (
    decode_columnar,
    encode_columnar,
    merge_columnar,
    route_columnar,
)
from repro.imapreduce.incremental import ADJACENCY_KINDS
from repro.imapreduce.localrun import map_pair, order_key, sorted_static
from repro.mapreduce.api import Context

from spans import Spans


def _sorted_state(records) -> list:
    return sorted(records, key=lambda kv: order_key(kv[0]))


def _single_phase(job):
    if len(job.phases) != 1 or job.aux is not None:
        raise ValueError("replay supports single-phase jobs without aux")
    return job.phases[0]


def partition_static(table: dict, part, num_pairs: int) -> list[dict]:
    per_pair: list[dict] = [{} for _ in range(num_pairs)]
    for key, value in table.items():
        per_pair[part(key)][key] = value
    return per_pair


def replay_kernel(job, state_records, static_records, num_pairs, spans: Spans):
    """Mirror of the columnar ``run_local`` path.  Returns the final
    state and the first iteration's per-destination batches
    ``[q] -> [(src_pair, keys, values), ...]``."""
    phase = _single_phase(job)
    if phase.mapping != "one2one" or job.distance_fn is not None:
        raise ValueError("kernel replay supports one2one maxiter jobs")
    kernel = job.kernel
    first: list = []
    with spans.span("job"):
        with spans.span("parallel.partition"):
            part = bind_partitioner(job.partitioner, num_pairs)
            table = dict(static_records.get(phase.static_path or "", {}))
            static_tables = partition_static(table, part, num_pairs)
        with spans.span("columnar.prepare"):
            part_array = job.partitioner.bind_array(num_pairs)
            g_keys, g_vals = encode_columnar(
                state_records, kernel.state_dtype, kernel.state_width
            )
            owned = [g_keys[:0]] * num_pairs
            values = [g_vals[:0]] * num_pairs
            for p, ks, vs in route_columnar(g_keys, g_vals, part_array, num_pairs):
                owned[p], values[p] = ks, vs
            prepared = [
                kernel.prepare(p, owned[p], static_tables[p])
                for p in range(num_pairs)
            ]
        for iteration in range(job.max_iterations):
            with spans.span("iteration"):
                inbox: list[list] = [[] for _ in range(num_pairs)]
                for p in range(num_pairs):
                    with spans.span("columnar.map_kernel"):
                        out_keys, out_vals = kernel.map_kernel(
                            p, owned[p], values[p], prepared[p], None
                        )
                    with spans.span("columnar.route"):
                        for q, ks, vs in route_columnar(
                            out_keys, out_vals, part_array, num_pairs
                        ):
                            inbox[q].append((p, ks, vs))
                for q in range(num_pairs):
                    if owned[q].size == 0:
                        continue
                    with spans.span("columnar.merge"):
                        acc = merge_columnar(
                            kernel, owned[q], [(ks, vs) for _, ks, vs in inbox[q]]
                        )
                    with spans.span("columnar.finalize"):
                        values[q] = kernel.finalize(
                            q, owned[q], acc, values[q], prepared[q]
                        )
                if iteration == 0:
                    first = inbox
        with spans.span("columnar.decode"):
            final = _sorted_state(
                rec
                for p in range(num_pairs)
                for rec in decode_columnar(owned[p], values[p])
            )
    return final, first


def kernel_combine_ratio(first: list) -> float:
    """Distinct destination keys over emitted records in one iteration:
    the share of the columnar shuffle a combiner would keep."""
    emitted = sum(ks.size for batches in first for _, ks, _ in batches)
    distinct = sum(
        np.unique(np.concatenate([ks for _, ks, _ in batches])).size
        for batches in first
        if batches
    )
    return distinct / emitted


def replay_record(job, state_records, static_records, num_pairs, spans: Spans,
                  timings: dict[str, float]):
    """Mirror of the record-path ``run_local``.  ``timings`` receives
    ``map_pair``'s own ``map``/``combine`` split.  Returns the final
    state and the first iteration's map output as outboxes
    ``[src][dst]``."""
    phase = _single_phase(job)
    one2all = phase.mapping == "one2all"
    distance_fn = job.distance_fn
    first: list = []
    with spans.span("job"):
        with spans.span("parallel.partition"):
            part = bind_partitioner(job.partitioner, num_pairs)
            state_parts: list[list] = [[] for _ in range(num_pairs)]
            for rec in state_records:
                state_parts[part(rec[0])].append(rec)
            table = dict(static_records.get(phase.static_path or "", {}))
            static_parts = partition_static(table, part, num_pairs)
        with spans.span("localrun.broadcast"):
            static_sorted = (
                [sorted_static(d) for d in static_parts] if one2all else None
            )
        with spans.span("localrun.distance"):
            prev_parts = (
                [dict(p) for p in state_parts] if distance_fn is not None else None
            )
        for iteration in range(job.max_iterations):
            with spans.span("iteration"):
                with spans.span("localrun.broadcast"):
                    broadcast = (
                        _sorted_state(r for recs in state_parts for r in recs)
                        if one2all
                        else None
                    )
                shuffled: list[list] = [[] for _ in range(num_pairs)]
                for p in range(num_pairs):
                    with spans.span("localrun.map_pair"):
                        emitted = map_pair(
                            phase,
                            state_parts[p],
                            static_parts[p],
                            static_sorted[p] if static_sorted is not None else None,
                            broadcast,
                            part,
                            timings,
                        )
                    with spans.span("localrun.shuffle"):
                        for rec in emitted:
                            shuffled[part(rec[0])].append(rec)
                    if iteration == 0:
                        first.append(emitted)
                new_parts: list[list] = [[] for _ in range(num_pairs)]
                for q in range(num_pairs):
                    with spans.span("localrun.reduce"):
                        ctx = Context()
                        for key, vals in group_by_key(shuffled[q]):
                            phase.reduce_fn(key, vals, ctx)
                        new_parts[q] = ctx.take()
                state_parts = new_parts
                distance = None
                if prev_parts is not None:
                    with spans.span("localrun.distance"):
                        distance = 0.0
                        for p in range(num_pairs):
                            prev_get = prev_parts[p].get
                            partial = 0.0
                            new_prev = {}
                            for key, value in state_parts[p]:
                                partial += distance_fn(key, prev_get(key), value)
                                new_prev[key] = value
                            distance += partial
                            prev_parts[p] = new_prev
            if (job.threshold is not None and distance is not None
                    and distance <= job.threshold):
                break
        with spans.span("localrun.collect"):
            final = _sorted_state(r for recs in state_parts for r in recs)
    outboxes = [[[] for _ in range(num_pairs)] for _ in first]
    for p, emitted in enumerate(first):
        for rec in emitted:
            outboxes[p][part(rec[0])].append(rec)
    return final, outboxes


def record_combine_ratio(job, state_records, static_records, num_pairs,
                         first: list) -> float:
    """Records after the combiner over records the map emitted, for the
    first iteration (the map is rerun once without the combiner)."""
    phase = _single_phase(job)
    bare = dataclasses.replace(phase, combiner=None)
    part = bind_partitioner(job.partitioner, num_pairs)
    state_parts: list[list] = [[] for _ in range(num_pairs)]
    for rec in state_records:
        state_parts[part(rec[0])].append(rec)
    static_parts = partition_static(
        dict(static_records.get(phase.static_path or "", {})), part, num_pairs
    )
    one2all = phase.mapping == "one2all"
    broadcast = _sorted_state(state_records) if one2all else None
    raw = 0
    for p in range(num_pairs):
        raw += len(map_pair(
            bare, state_parts[p], static_parts[p],
            sorted_static(static_parts[p]) if one2all else None,
            broadcast, part,
        ))
    return sum(len(recs) for row in first for recs in row) / raw


def replay_accum(job, delta_records, static_records, num_pairs, mode,
                 spans: Spans):
    """Mirror of the record-path ``run_accum_local`` (call it inside an
    open ``job`` span).  Returns the final state, counters and the first
    round's outboxes ``[src][dst]``."""
    with spans.span("parallel.partition"):
        part = bind_partitioner(job.partitioner, num_pairs)
        delta_parts, static_tables = partition_accum_inputs(
            job, delta_records, static_records, num_pairs, part
        )
    with spans.span("accum.load"):
        pairs = [
            AccumPair(p, job.accumulator, static_tables[p], keys=static_tables[p])
            for p in range(num_pairs)
        ]
    with spans.span("accum.absorb"):
        for p in range(num_pairs):
            pairs[p].absorb(delta_parts[p])
    threshold = job.threshold if job.threshold is not None else 0.0
    max_rounds = job.max_rounds if job.max_rounds is not None else 10**9
    frac = job.top_fraction
    rounds = shipped = 0
    first: list = []
    while True:
        with spans.span("round"):
            with spans.span("accum.mass"):
                mass = 0.0
                for ps in pairs:
                    mass += ps.mass()
            if mass <= threshold or rounds >= max_rounds:
                break
            outboxes = [[[] for _ in range(num_pairs)] for _ in range(num_pairs)]
            for ps in pairs:
                with spans.span("accum.select"):
                    selected = ps.select(mode, frac)
                with spans.span("accum.apply"):
                    ps.apply(job, selected, part, outboxes[ps.pair])
            with spans.span("accum.absorb"):
                for dst in range(num_pairs):
                    target = pairs[dst]
                    for src in range(num_pairs):
                        batch = outboxes[src][dst]
                        if batch:
                            target.absorb(batch)
                            if src != dst:
                                shipped += len(batch)
            if rounds == 0:
                first = outboxes
            rounds += 1
    with spans.span("accum.collect"):
        final = _sorted_state(rec for ps in pairs for rec in ps.state.items())
    counts = {
        "rounds": rounds,
        "updates": sum(ps.updates_processed for ps in pairs),
        "emitted": sum(ps.deltas_emitted for ps in pairs),
        "shipped": shipped,
    }
    return final, counts, first


def replay_plan(spans: Spans, algorithm, table, delta, memo_state,
                **plan_kwargs) -> int:
    """The incremental layer's two calls on a churn ``delta`` against a
    converged ``memo_state``, under a root span of their own: the
    ``patch_static_table`` and ``plan_changes`` of a warm refresh.
    ``plan_changes`` patches its own copy of the table, and the two
    patched tables must agree.  Returns the frontier size."""
    with spans.span("refresh"):
        with spans.span("incremental.patch"):
            patched = dict(table)
            patch_static_table(patched, delta, ADJACENCY_KINDS[algorithm])
        with spans.span("incremental.plan"):
            planned = dict(table)
            plan = plan_changes(
                algorithm, planned, delta, dict(memo_state), **plan_kwargs
            )
    if patched != planned:
        raise AssertionError("patch_static_table and plan_changes disagree")
    return len(plan.frontier)


def record_batch(first: list, owner_of, src_worker: int,
                 dst_worker: int) -> list[tuple[int, int, Any]]:
    """The shuffle payload one worker ships another in the first
    iteration or round, in the worker loop's flat ``(dest, src,
    records)`` form, from outboxes ``[src][dst]``."""
    return [
        (q, p, recs)
        for p, row in enumerate(first)
        if owner_of(p) == src_worker
        for q, recs in enumerate(row)
        if recs and owner_of(q) == dst_worker
    ]


def kernel_batch(first: list, owner_of, src_worker: int,
                 dst_worker: int) -> list:
    """The columnar shuffle payload ``[(dest, src, keys, values)]``."""
    return [
        (q, p, ks, vs)
        for q, batches in enumerate(first)
        if owner_of(q) == dst_worker
        for p, ks, vs in batches
        if owner_of(p) == src_worker
    ]
