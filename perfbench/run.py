"""Benchmark of the iMapReduce engine: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pagerank-kernel --seed 1 \\
        --seconds 15 --trace 0

The run itself executes in a child process (``session.py``) under a
hard deadline; a hung or crashed child is killed with every process it
started and counted as a failed operation.  This driver turns the
child's events into the metrics: with ``--trace 0`` the end-to-end
metrics (medians over the run's timed jobs), with ``--trace 1`` the
per-layer metrics of the traced run.  It prints the provenance, one line
per metric with its unit, and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of traced
runs and a record of every run are written under ``.perfbench/``.

Exit code 0 when a result was printed; 2 when the engine could not be
run at all (no sources, import failure), with no result printed.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
#: Hard deadline on one run's child process, below the 180 s a run may
#: take in all.
DEADLINE_S = 170.0
#: How long to wait for killed processes to disappear.
REAP_S = 5.0


def supervise(cmd: list[str], deadline_s: float, env: dict | None = None):
    """Run ``cmd`` in its own session, collecting the JSON events it
    prints one per line.  At the deadline the whole session (the child
    and every worker it started) is killed.  Returns ``(events,
    killed, returncode)``."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)
    events: list[dict] = []
    killed = False
    buf = b""
    end = time.monotonic() + deadline_s
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = end - time.monotonic()
            if left <= 0:
                killed = True
                break
            if not sel.select(left):
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                try:
                    events.append(json.loads(line))
                except ValueError:
                    sys.stderr.write(line.decode(errors="replace") + "\n")
    if not killed:
        try:
            proc.wait(timeout=max(0.0, end - time.monotonic()))
        except subprocess.TimeoutExpired:
            killed = True
    if killed:
        _kill_session(proc)
    proc.stdout.close()
    return events, killed, proc.returncode


def _kill_session(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    # Workers of the killed child are reparented; wait until the kill
    # has taken every member of the session.
    gone_by = time.monotonic() + REAP_S
    while time.monotonic() < gone_by:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def summarize(events: list[dict], killed: bool, returncode: int | None,
              trace: bool) -> dict:
    """The run's result: counts of operations and the metrics."""
    from metrics import END_TO_END, PER_LAYER

    ops = [e for e in events if e["event"] == "op"]
    done = any(e["event"] == "done" for e in events)
    attempted = len(ops)
    failed = sum(1 for e in ops if not e["ok"])
    if not done:  # the operation in flight when the child died or hung
        attempted += 1
        failed += 1
    if trace:
        layers = next((e["metrics"] for e in events if e["event"] == "layers"), {})
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER.items() if k in layers}
    else:
        timed = [e for e in ops if e["ok"] and not e["warmup"]]

        def of(kind, field):
            return [e[field] for e in timed if e["kind"] == kind]

        values = {
            "job_s": _median(of("parallel", "seconds")),
            "serial_s": _median(of("serial", "seconds")),
            "setup_s": _median(of("setup", "seconds")),
            "wire_mb": _median(b / 1e6 for b in of("parallel", "wire_bytes")),
            "success_rate": 1.0 - failed / attempted,
        }
        coord = _median(of("parallel", "coord_peak_kb"))
        if coord is not None:
            workers = max([e.get("worker_peak_kb", 0) for e in events
                           if e["event"] == "done"], default=0)
            values["peak_rss_mb"] = max(coord, workers) * 1024 / 1e6
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items() if values.get(k) is not None}
    return {
        "correct": done and failed == 0 and returncode == 0 and not killed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    from metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no engine sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "session.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), str(OUT_DIR),
           "1" if args.quick else "0"]
    events, killed, code = supervise(cmd, DEADLINE_S, env)
    if not any(e["event"] == "start" for e in events):
        print(f"error: the benchmark session did not start (exit {code})",
              file=sys.stderr)
        return 2

    result = summarize(events, killed, code, bool(args.trace))
    prov = next((e for e in events if e["event"] == "provenance"), {})
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"provenance": prov, "killed": killed, "result": result,
         "events": events}, indent=1))

    print("provenance: " + json.dumps({k: v for k, v in prov.items()
                                       if k != "event"}))
    for e in events:
        if e["event"] == "op" and not e["ok"]:
            print(f"FAILED {e['kind']}: {e.get('error')}")
    if killed:
        print(f"FAILED: run killed at the {DEADLINE_S:.0f} s deadline")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
