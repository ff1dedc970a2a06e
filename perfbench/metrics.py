"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's tests check that the two agree.
"""

from __future__ import annotations

#: Workload names, in ``BENCHMARK.json`` order (defined in workloads.py).
WORKLOADS = ("pagerank-kernel", "pagerank-async", "kmeans-record")

#: Untraced runs (``--trace 0``): what a user of the engine sees.
END_TO_END = {
    "job_s": "s",          # call to checked result, 2 workers
    "serial_s": "s",       # the same job on the serial backend
    "setup_s": "s",        # the job cut to one iteration or round
    "wire_mb": "MB",       # bytes pickled onto the mesh per job
    "peak_rss_mb": "MB",   # largest peak RSS of coordinator and workers
    "success_rate": "ratio",  # 1 - failed/attempted
}

#: Phases of the worker profiler reported one by one.
PHASES = ("map", "combine", "kernel", "schedule", "delta", "serialize",
          "deserialize", "send", "wait", "reduce")

#: Per-layer metrics read as the summed duration of one span name in
#: the traced replay.
SPAN_METRICS = {
    "parallel.partition_s": "parallel.partition",
    "columnar.prepare_s": "columnar.prepare",
    "columnar.map_kernel_s": "columnar.map_kernel",
    "columnar.route_s": "columnar.route",
    "columnar.merge_s": "columnar.merge",
    "columnar.finalize_s": "columnar.finalize",
    "localrun.reduce_s": "localrun.reduce",
    "localrun.broadcast_s": "localrun.broadcast",
    "accum.mass_s": "accum.mass",
    "accum.select_s": "accum.select",
    "accum.apply_s": "accum.apply",
    "accum.absorb_s": "accum.absorb",
    "incremental.patch_s": "incremental.patch",
    "incremental.plan_s": "incremental.plan",
}

#: Traced runs (``--trace 1``), by layer (module).  A layer a workload
#: does not exercise reports 0.
PER_LAYER = {
    "parallel.partition_s": "s",
    "parallel.boot_fork_s": "s",
    "parallel.boot_spawn_s": "s",
    "parallel.iterations": "count",
    "parallel.recoveries": "count",
    "workerproc.config_bytes": "bytes",
    "workerproc.config_encode_s": "s",
    "workerproc.records_sent": "count",
    "workerproc.batches_sent": "count",
    "workerproc.manifest_frames": "count",
    "workerproc.frame_encode_s": "s",
    "workerproc.frame_decode_s": "s",
    "workerproc.frame_bytes": "bytes",
    **{f"workerproc.phase.{p}_s": "s" for p in PHASES},
    "workerproc.coverage": "ratio",
    "columnar.prepare_s": "s",
    "columnar.map_kernel_s": "s",
    "columnar.route_s": "s",
    "columnar.merge_s": "s",
    "columnar.finalize_s": "s",
    "columnar.combine_ratio": "ratio",
    "localrun.map_s": "s",
    "localrun.combine_s": "s",
    "localrun.reduce_s": "s",
    "localrun.broadcast_s": "s",
    "localrun.combine_ratio": "ratio",
    "accum.mass_s": "s",
    "accum.select_s": "s",
    "accum.apply_s": "s",
    "accum.absorb_s": "s",
    "accum.updates": "count",
    "accum.rounds": "count",
    "accum.ship_ratio": "ratio",
    "incremental.patch_s": "s",
    "incremental.plan_s": "s",
    "incremental.frontier_keys": "count",
    "incremental.frontier_frac": "ratio",
    "trace.replay_coverage": "ratio",
    "trace.overhead": "ratio",
}
