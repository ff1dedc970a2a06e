"""Golden wire counters for every multiprocess execution path.

The mesh counters (``records_sent``, ``batches_sent``,
``manifest_frames``, ``bytes_pickled``) are deterministic for a fixed
job, seed, pair count and worker count: they belong to the wire
protocol, not to the host.  Each case below runs one small job at two
workers on one worker-loop path and pins the counters to the values the
protocol produced when they were recorded, so a restructuring of the
worker loop or the coordinator cannot silently change what crosses the
wire.  Record and manifest counts are exact; ``bytes_pickled`` gets the
same 2% band :func:`~repro.experiments.wallclock.compare_counters`
allows for pickle drift across Python and numpy releases.
"""

import numpy as np
import pytest

from repro.algorithms import kmeans, matrixpower, pagerank
from repro.data.lastfm import load_lastfm
from repro.graph.generators import pagerank_graph
from repro.imapreduce import run_accum_parallel, run_parallel

STATE, STATIC, OUT = "/golden/state", "/golden/static", "/golden/out"
WORKERS = 2
BYTES_TOLERANCE = 0.02


def _record_one2all_combiner():
    """Record path: combiner + hoisted one2all broadcast + distance."""
    data = load_lastfm(num_users=40, num_artists=6, num_tastes=2, seed=5)
    job = kmeans.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=3, num_pairs=4, combiner=True,
    )
    return run_parallel(
        job, kmeans.initial_centroids(data, 3, seed=9),
        {STATIC: data.user_records()}, num_pairs=4, num_workers=WORKERS,
    )


def _record_multi_phase():
    """Record path: two phases per iteration, so REPART frames ship."""
    rng = np.random.default_rng(7)
    m = rng.uniform(-1, 1, size=(6, 6))
    job = matrixpower.build_imr_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=3, num_pairs=4,
    )
    return run_parallel(
        job, matrixpower.matrix_to_state_records(m),
        {STATIC: matrixpower.matrix_to_column_records(m)},
        num_pairs=4, num_workers=WORKERS,
    )


def _kernel_pagerank():
    """Columnar path: (keys, values) batches out of band + threshold."""
    graph = pagerank_graph(40, seed=7)
    job = pagerank.build_imr_job(
        40, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=5, threshold=1e-4, combiner=True, use_kernel=True,
    )
    return run_parallel(
        job, pagerank.initial_state(graph),
        {STATIC: pagerank.static_records(graph)},
        num_pairs=4, num_workers=WORKERS,
    )


def _accum_async_pagerank():
    """Accumulative path: delta batches + pre-round mass verdicts."""
    graph = pagerank_graph(60, seed=11)
    job = pagerank.build_accum_job(
        state_path=STATE, static_path=STATIC, output_path=OUT,
        threshold=1e-9, max_rounds=100_000,
    )
    return run_accum_parallel(
        job, pagerank.accum_initial_deltas(60, pagerank.DAMPING),
        {STATIC: pagerank.static_records(graph)},
        num_pairs=4, num_workers=WORKERS, mode="async",
    )


#: name -> (runner, records_sent, batches_sent, manifest_frames,
#: bytes_pickled), recorded on the protocol these tests protect.
GOLDEN = {
    "record-one2all-combiner": (_record_one2all_combiner, 47, 12, 0, 5297),
    "record-multi-phase": (_record_multi_phase, 378, 12, 6, 7662),
    "kernel-pagerank": (_kernel_pagerank, 155, 10, 0, 4942),
    "accum-async-pagerank": (_accum_async_pagerank, 2146, 315, 5, 88530),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_wire_counters_match_golden(name):
    runner, records, batches, manifests, nbytes = GOLDEN[name]
    result = runner()
    got = {
        key: result.counter(key)
        for key in ("records_sent", "batches_sent", "manifest_frames",
                    "bytes_pickled")
    }
    assert got["records_sent"] == records
    assert got["batches_sent"] == batches
    assert got["manifest_frames"] == manifests
    assert abs(got["bytes_pickled"] - nbytes) <= nbytes * BYTES_TOLERANCE
