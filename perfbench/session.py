"""One benchmark run of one workload, in a process of its own.

``run.py`` starts this script under a hard deadline.  It reports what it
observes as JSON lines on standard output, one event per line, so a run
killed part way still leaves every finished operation counted:

* ``start``: the engine imported and the inputs were built;
* ``provenance``: seed, input sizes, machine and versions;
* ``op``: one operation with its kind, outcome, wall seconds, bytes
  pickled onto the mesh and the coordinator's peak resident set;
* ``layers``: the traced run's per-layer metrics;
* ``done``: the run ended normally.

Usage::

    python3 perfbench/session.py WORKLOAD SEED SECONDS TRACE OUT_DIR QUICK

The module imports nothing but the standard library at the top level:
``spawn`` workers import it again as ``__mp_main__``, and that import
must stay cheap and free of side effects.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Timed rounds a run makes even when ``--seconds`` runs out first.
MIN_ROUNDS = 3
#: Rounds that also time the one-iteration job; later rounds leave it
#: out, so the run's time goes to more samples of the full jobs.
SETUP_ROUNDS = 5
#: Traced replays a run makes even when ``--seconds`` runs out first.
MIN_REPLAYS = 2
#: Samples per microbenchmark (cold starts, config encode, frames).
MICRO_REPEATS = 3


def emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


# ------------------------------------------------------------ peak RSS --
def _reset_peak() -> None:
    """Reset this process's peak resident set (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # the peak then covers the whole process life


def _peak_kb() -> int:
    try:
        with open("/proc/self/status") as f:
            return int(re.search(r"VmHWM:\s+(\d+)", f.read()).group(1))
    except (OSError, AttributeError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------- operations --
def run_op(kind: str, call, check, warmup: bool = False):
    """Time one operation and check its output.  Returns the event and
    the result (``None`` when the call raised).  A raise, a timeout or
    a failed check is a failed operation, never a crash of the run."""
    gc.collect()
    _reset_peak()
    event = {"event": "op", "kind": kind, "warmup": warmup}
    started = time.perf_counter()
    try:
        result = call()
        seconds = time.perf_counter() - started
        peak_kb = _peak_kb()
        problems = check(result)
    except Exception as exc:  # counted as a failure and reported
        event.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        return event, None
    stats = getattr(result, "worker_stats", None)
    event.update(
        ok=not problems,
        error="; ".join(problems) or None,
        seconds=seconds,
        wire_bytes=result.counter("bytes_pickled") if stats else 0,
        coord_peak_kb=peak_kb,
    )
    return event, result


def measure(w, seconds: float) -> None:
    """Untraced run: a warm-up, then closed-loop rounds of the parallel
    job, the serial job and the one-iteration job until ``seconds``."""
    emit(run_op("parallel", w.parallel, lambda r: w.check("parallel", r),
                warmup=True)[0])
    emit(run_op("setup", w.setup, lambda r: w.check("setup", r),
                warmup=True)[0])
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_ROUNDS or time.perf_counter() < deadline:
        calls = [("parallel", w.parallel), ("serial", w.serial)]
        if i < SETUP_ROUNDS:
            calls.append(("setup", w.setup))
        for kind, call in calls:
            emit(run_op(kind, call, lambda r, kind=kind: w.check(kind, r))[0])
        i += 1


# ------------------------------------------------------------ traced run --
def traced(w, seconds: float, out_dir: Path) -> None:
    """Traced run: span-recorded serial replays alternating with
    untraced serial runs, one measured parallel run for the engine's own
    counters, and the microbenchmarks."""
    from repro.testing.oracles import records_identical

    from metrics import PER_LAYER, PHASES, SPAN_METRICS
    from spans import Spans, write_chrome, write_jsonl

    check_par = lambda r: w.check("parallel", r)  # noqa: E731
    emit(run_op("parallel", w.parallel, check_par, warmup=True)[0])
    event, par = run_op("parallel", w.parallel, check_par)
    emit(event)

    recorded, serial_walls, extras, payload = [], [], [], None
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_REPLAYS or time.perf_counter() < deadline:
        i += 1
        serial_event, engine = run_op("serial", w.serial,
                                      lambda r: w.check("serial", r))
        emit(serial_event)
        if engine is None:
            continue
        spans = Spans(i)
        event, out = run_op(
            "replay", lambda: w.replay(spans),
            lambda r: [] if records_identical(r[0], engine.state)
            else ["replay: final state differs from the engine's"],
        )
        emit(event)
        if event["ok"]:
            serial_walls.append(serial_event["seconds"])
            recorded.append(spans)
            extras.append(out[1])
            payload = out[2]
    if not recorded or par is None:
        return

    layers = dict.fromkeys(PER_LAYER, 0)
    totals = [s.totals() for s in recorded]
    for metric, span_name in SPAN_METRICS.items():
        layers[metric] = statistics.median(t.get(span_name, 0.0) for t in totals)
    for metric in extras[0]:
        layers[metric] = statistics.median(e[metric] for e in extras)
    layers["trace.replay_coverage"] = statistics.median(
        s.coverage() for s in recorded)
    layers["trace.overhead"] = (
        statistics.median(s.wall() for s in recorded)
        / statistics.median(serial_walls))

    phases: dict[str, float] = {}
    for stats in par.worker_stats:
        for name, secs in stats.get("phase_seconds", {}).items():
            phases[name] = phases.get(name, 0.0) + secs
    for name in PHASES:
        layers[f"workerproc.phase.{name}_s"] = phases.get(name, 0.0)
    layers["workerproc.coverage"] = (
        sum(phases.values()) / (len(par.worker_stats) * par.wall_seconds))
    layers["parallel.iterations"] = getattr(
        par, "iterations_run", getattr(par, "rounds", 0))
    layers["parallel.recoveries"] = getattr(par, "recoveries", 0)
    for name in ("records_sent", "batches_sent", "manifest_frames"):
        layers[f"workerproc.{name}"] = par.counter(name)
    layers.update(micro_layers(w, payload))
    emit({"event": "layers", "metrics": layers})

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{w.seed}"
    write_jsonl(recorded, out_dir / f"{stem}.spans.jsonl")
    write_chrome(recorded, out_dir / f"{stem}.trace.json")


# ------------------------------------------------------- microbenchmarks --
#: Nodes of the tiny one-iteration job whose cold start is timed.
BOOT_NODES = 200


def _send_parts(conn, parts) -> None:
    for part in parts:
        conn.send_bytes(part)


def frame_roundtrip(payload):
    """Encode one shuffle frame, push it through a pipe from a thread
    and read it back: ``(encode_s, decode_s, nbytes, decoded)``."""
    import multiprocessing

    from repro.imapreduce.workerproc import SHUFFLE, encode_frame, read_frame

    recv, send = multiprocessing.Pipe(duplex=False)
    try:
        started = time.perf_counter()
        parts, nbytes = encode_frame(SHUFFLE, 0, 0, 0, payload)
        encode_s = time.perf_counter() - started
        sender = threading.Thread(target=_send_parts, args=(send, parts))
        sender.start()
        started = time.perf_counter()
        frame = read_frame(recv)
        decode_s = time.perf_counter() - started
        sender.join()
    finally:
        recv.close()
        send.close()
    return encode_s, decode_s, nbytes, frame[4]


def micro_layers(w, payload) -> dict:
    """Cold starts under fork and spawn, config encode, frame codec."""
    from repro.algorithms import pagerank
    from repro.graph.generators import pagerank_graph
    from repro.imapreduce import run_local, run_parallel
    from repro.testing.oracles import records_identical, values_identical

    from workloads import JOB_TIMEOUT, STATE, STATIC, OUT, WORKERS

    def sampled(kind, call, check, pick):
        values = []
        for _ in range(MICRO_REPEATS):
            event, result = run_op(kind, call, check)
            emit(event)
            if event["ok"]:
                values.append(pick(event, result))
        return values

    out: dict = {}
    graph = pagerank_graph(BOOT_NODES, seed=w.seed)
    job = pagerank.build_imr_job(
        BOOT_NODES, state_path=STATE, static_path=STATIC, output_path=OUT,
        max_iterations=1, num_pairs=WORKERS,
    )
    state = pagerank.initial_state(graph)
    static = {STATIC: pagerank.static_records(graph)}
    ref = run_local(job, state, static, num_pairs=WORKERS)
    for method in ("fork", "spawn"):
        secs = sampled(
            f"boot_{method}",
            lambda: run_parallel(job, state, static, num_pairs=WORKERS,
                                 num_workers=WORKERS, start_method=method,
                                 timeout=JOB_TIMEOUT),
            lambda r: [] if records_identical(r.state, ref.state)
            else ["boot: state differs from the serial run"],
            lambda event, r: event["seconds"],
        )
        out[f"parallel.boot_{method}_s"] = statistics.median(secs) if secs else 0.0

    configs = w.worker_configs()
    blobs = sampled(
        "config_encode", lambda: [c.to_blob() for c in configs],
        lambda r: [], lambda event, r: (event["seconds"], sum(map(len, r))),
    )
    if blobs:
        out["workerproc.config_encode_s"] = statistics.median(b[0] for b in blobs)
        out["workerproc.config_bytes"] = blobs[0][1]

    frames = sampled(
        "frame", lambda: frame_roundtrip(payload),
        lambda r: [] if values_identical(r[3], payload)
        else ["frame: decoded payload differs"],
        lambda event, r: r[:3],
    )
    if frames:
        out["workerproc.frame_encode_s"] = statistics.median(f[0] for f in frames)
        out["workerproc.frame_decode_s"] = statistics.median(f[1] for f in frames)
        out["workerproc.frame_bytes"] = frames[0][2]
    return out


# ------------------------------------------------------------ provenance --
def _llc_bytes() -> int | None:
    """Size of the highest-level cache of CPU 0, from sysfs."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        nbytes = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, nbytes)
    return best[1] if best else None


def _commit() -> str:
    """The git commit, or a digest of ``src/`` outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()


def provenance(w) -> dict:
    import numpy

    from workloads import WORKERS

    sizes = w.sizes()
    llc = _llc_bytes()
    return {
        "event": "provenance",
        "workload": w.name,
        "seed": w.seed,
        "quick": w.quick,
        "sizes": sizes,
        "llc_bytes": llc,
        "working_set_over_llc": sizes["static_bytes"] / llc if llc else None,
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "start_methods": {"jobs": w.start_method, "boot": ["fork", "spawn"]},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, out_dir, quick = argv
    import workloads

    w = workloads.WORKLOADS[name](int(seed), quick=quick == "1")
    emit({"event": "start"})
    emit(provenance(w))
    emit(run_op("reference", w.prepare_references, lambda r: [], warmup=True)[0])
    if trace == "1":
        traced(w, float(seconds), Path(out_dir))
    else:
        measure(w, float(seconds))
    emit({"event": "done",
          "worker_peak_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
