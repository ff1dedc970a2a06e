"""The benchmark's three workloads.

Each workload builds its inputs from the seed with the repository's own
generators, runs its job through the public ``repro.imapreduce`` API on
2 workers, on the serial backend, and cut to one iteration or round,
checks every output, and replays the serial job step by step for the
traced run.  Why each workload is here:

* ``pagerank-kernel`` -- big numpy frames, few coordinator round trips;
  time goes to the columnar map/route/merge.
* ``pagerank-async`` -- many small pickled-record frames and one
  coordinator barrier per round; time goes to accumulative
  select/apply and per-round sync, with no columnar work.  Its traced
  run also times the incremental layer (patch and plan of a seeded
  edge churn against the converged state).
* ``kmeans-record`` -- the default record engine (``map_pair`` with a
  combiner, ``group_by_key`` plus reduce), the one2all broadcast and a
  distance verdict every iteration; Python map/combine dominates.
"""

from __future__ import annotations

import pickle

from repro.algorithms import kmeans, pagerank
from repro.common.partition import bind_partitioner
from repro.data.lastfm import load_lastfm
from repro.graph.generators import (
    lognormal_graph,
    mu_for_mean_degree,
    pagerank_graph,
)
from repro.imapreduce import (
    random_edge_churn,
    run_accum_local,
    run_accum_parallel,
    run_local,
    run_parallel,
)
from repro.imapreduce.accum import partition_accum_inputs
from repro.imapreduce.workerproc import WorkerConfig
from repro.testing.oracles import records_identical, states_match

import replay
from spans import Spans

STATE, STATIC, OUT = "/bench/state", "/bench/static", "/bench/out"
#: Worker processes per parallel job: one per core on the 2-core
#: machine the benchmark was sized on.
WORKERS = 2
#: Bound on every coordinator wait of every parallel job.
JOB_TIMEOUT = 60.0
#: Mean out-degree of the pagerank-async graph: the pagerank family's
#: at 10k nodes.
MEAN_DEGREE = 4.85


def _owner(p: int) -> int:
    """Round-robin pair placement, as the parallel backend assigns it."""
    return p % WORKERS


def _static_bytes(static_records: dict) -> int:
    return len(pickle.dumps(static_records, protocol=pickle.HIGHEST_PROTOCOL))


def _identical(result, reference, what: str) -> list[str]:
    if records_identical(result.state, reference.state):
        return []
    return [f"{what}: state differs from the reference"]


class Workload:
    """One workload: seeded inputs, the timed calls, checks and replay.

    Subclasses build ``job`` (the full job), ``job1`` (cut to one
    iteration or round), ``static``, ``nodes`` and ``edges``, and
    implement :meth:`_run`.
    """

    name = ""
    start_method = "fork"
    num_pairs = 8

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick

    def _run(self, job, parallel: bool):
        """Run ``job`` on 2 workers or on the serial backend."""
        raise NotImplementedError

    # -- the timed calls --------------------------------------------------
    def parallel(self):
        return self._run(self.job, True)

    def serial(self):
        return self._run(self.job, False)

    def setup(self):
        return self._run(self.job1, True)

    def serial_setup(self):
        return self._run(self.job1, False)

    # -- checks -------------------------------------------------------------
    def prepare_references(self) -> None:
        """Untimed: the serial results every timed output is checked
        against."""
        self.reference = self.serial()
        self.setup_reference = self.serial_setup()

    def check(self, kind: str, result) -> list[str]:
        if kind == "setup":
            return _identical(result, self.setup_reference, kind)
        return _identical(result, self.reference, kind)

    def sizes(self) -> dict:
        return {"nodes": self.nodes, "edges": self.edges,
                "static_bytes": _static_bytes(self.static)}

    # -- traced run ---------------------------------------------------------
    def replay(self, spans: Spans) -> tuple[list, dict, list]:
        """Traced serial replay: the final state, the per-layer values
        the spans do not give (by metric name), and one real shuffle
        payload from worker 0 to worker 1 for the frame microbenchmark."""
        raise NotImplementedError

    def worker_configs(self) -> list[WorkerConfig]:
        """Per-worker configs exactly as the parallel backend builds them."""
        raise NotImplementedError


class SyncWorkload(Workload):
    """A synchronous iterative job on fixed state and static inputs."""

    def _run(self, job, parallel):
        if parallel:
            return run_parallel(
                job, self.state, self.static, num_pairs=self.num_pairs,
                num_workers=WORKERS, start_method=self.start_method,
                timeout=JOB_TIMEOUT,
            )
        return run_local(job, self.state, self.static, num_pairs=self.num_pairs)

    def check(self, kind, result):
        problems = super().check(kind, result)
        reference = self.setup_reference if kind == "setup" else self.reference
        if result.iterations_run != reference.iterations_run:
            problems.append(f"{kind}: ran {result.iterations_run} iterations, "
                            f"reference {reference.iterations_run}")
        return problems

    def worker_configs(self):
        part = bind_partitioner(self.job.partitioner, self.num_pairs)
        state_parts: list[list] = [[] for _ in range(self.num_pairs)]
        for rec in self.state:
            state_parts[part(rec[0])].append(rec)
        static_parts = [
            replay.partition_static(
                dict(self.static.get(phase.static_path or "", {})),
                part, self.num_pairs,
            )
            for phase in self.job.phases
        ]
        return _configs(
            self.job, self.num_pairs, state_parts, static_parts,
            wait_verdict=self.job.aux is not None or self.job.threshold is not None,
        )


# ------------------------------------------------------ pagerank-kernel --
class PagerankKernel(SyncWorkload):
    name = "pagerank-kernel"

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.nodes = 2_000 if quick else 100_000
        graph = pagerank_graph(self.nodes, seed=seed)
        self.edges = int(graph.num_edges)
        self.state = pagerank.initial_state(graph)
        self.static = {STATIC: pagerank.static_records(graph)}
        self.job = self._job(3 if quick else 20)
        self.job1 = self._job(1)

    def _job(self, iterations: int):
        return pagerank.build_imr_job(
            self.nodes, state_path=STATE, static_path=STATIC, output_path=OUT,
            max_iterations=iterations, num_pairs=self.num_pairs, use_kernel=True,
        )

    def replay(self, spans):
        final, first = replay.replay_kernel(
            self.job, self.state, self.static, self.num_pairs, spans
        )
        return (
            final,
            {"columnar.combine_ratio": replay.kernel_combine_ratio(first)},
            replay.kernel_batch(first, _owner, 0, 1),
        )


# -------------------------------------------------------- kmeans-record --
class KmeansRecord(SyncWorkload):
    name = "kmeans-record"
    num_pairs = 4
    k = 8

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        # nodes: users; edges: non-zero (user, artist) ratings.
        self.nodes = 400 if quick else 8_000
        data = load_lastfm(num_users=self.nodes, num_artists=60,
                           num_tastes=self.k, seed=seed)
        self.state = kmeans.initial_centroids(data, self.k, seed=seed)
        self.static = {STATIC: data.user_records()}
        self.edges = sum(len(ids) for ids, _counts in data.records)
        self.job = self._job(3 if quick else 6)
        self.job1 = self._job(1)

    def _job(self, iterations: int):
        # threshold=0.0 arms the per-iteration distance check and the
        # coordinator verdict; centroids still moving keep it running
        # to the iteration cap.
        return kmeans.build_imr_job(
            state_path=STATE, static_path=STATIC, output_path=OUT,
            max_iterations=iterations, threshold=0.0,
            num_pairs=self.num_pairs, combiner=True,
        )

    def replay(self, spans):
        timings = {"map": 0.0, "combine": 0.0}
        final, first = replay.replay_record(
            self.job, self.state, self.static, self.num_pairs, spans, timings
        )
        return (
            final,
            {
                "localrun.map_s": timings["map"],
                "localrun.combine_s": timings["combine"],
                "localrun.combine_ratio": replay.record_combine_ratio(
                    self.job, self.state, self.static, self.num_pairs, first
                ),
            },
            replay.record_batch(first, _owner, 0, 1),
        )


# ------------------------------------------------------- pagerank-async --
class PagerankAsync(Workload):
    name = "pagerank-async"
    churn = 0.01

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.nodes = 500 if quick else 10_000
        # The pagerank family's out-degrees are lognormal with sigma=2;
        # at 10k nodes a few hubs then carry a seed-dependent share of
        # the edges, and with them of the run's work.  sigma=1 at the
        # same mean degree keeps runs of different seeds comparable.
        graph = lognormal_graph(
            self.nodes, degree_mu=mu_for_mean_degree(MEAN_DEGREE, 1.0),
            degree_sigma=1.0, seed=seed,
        )
        self.edges = int(graph.num_edges)
        self.deltas = pagerank.accum_initial_deltas(self.nodes)
        self.static = {STATIC: pagerank.static_records(graph)}
        self.job = self._job(100_000)
        self.job1 = self._job(1)
        # The incremental layer is timed on a seeded edge churn against
        # the converged state, as an i2MapReduce refresh would plan it.
        self.table = dict(self.static[STATIC])
        edits = max(2, round(self.churn * self.edges))
        self.delta = random_edge_churn(
            self.table, "pagerank", insert=edits // 2,
            delete=edits - edits // 2, seed=seed,
        )

    def _job(self, max_rounds: int):
        return pagerank.build_accum_job(
            state_path=STATE, static_path=STATIC, output_path=OUT,
            threshold=1e-9, max_rounds=max_rounds, num_pairs=self.num_pairs,
        )

    def _run(self, job, parallel):
        if parallel:
            return run_accum_parallel(
                job, self.deltas, self.static, num_pairs=self.num_pairs,
                num_workers=WORKERS, mode="async",
                start_method=self.start_method, timeout=JOB_TIMEOUT,
            )
        return run_accum_local(job, self.deltas, self.static,
                               num_pairs=self.num_pairs, mode="async")

    def check(self, kind, result):
        # Sum algebra: a parallel run is held to the tolerance contract,
        # the deterministic serial engine to bit equality.
        if kind == "serial":
            return super().check(kind, result)
        reference = self.setup_reference if kind == "setup" else self.reference
        return [f"{kind}: {p}" for p in states_match(result.state, reference.state)]

    def replay(self, spans):
        with spans.span("job"):
            final, counts, first = replay.replay_accum(
                self.job, self.deltas, self.static, self.num_pairs, "async", spans
            )
        frontier = replay.replay_plan(
            spans, "pagerank", self.table, self.delta, final,
            damping=pagerank.DAMPING,
        )
        layers = _accum_layers(counts)
        layers["incremental.frontier_keys"] = frontier
        layers["incremental.frontier_frac"] = frontier / self.nodes
        return final, layers, replay.record_batch(first, _owner, 0, 1)

    def worker_configs(self):
        part = bind_partitioner(self.job.partitioner, self.num_pairs)
        delta_parts, static_tables = partition_accum_inputs(
            self.job, self.deltas, self.static, self.num_pairs, part
        )
        return _configs(self.job, self.num_pairs, delta_parts, [static_tables],
                        wait_verdict=True)


# --------------------------------------------------------------- helpers --
def _accum_layers(counts: dict) -> dict:
    return {
        "accum.updates": counts["updates"],
        "accum.rounds": counts["rounds"],
        "accum.ship_ratio": counts["shipped"] / counts["emitted"],
    }


def _configs(job, num_pairs, state_parts, static_parts, *,
             wait_verdict) -> list[WorkerConfig]:
    """One :class:`WorkerConfig` per worker, built field for field as
    the parallel backend's mesh start builds them."""
    owner_of = [_owner(p) for p in range(num_pairs)]
    configs = []
    for w in range(WORKERS):
        mine = [p for p in range(num_pairs) if owner_of[p] == w]
        configs.append(WorkerConfig(
            worker_id=w, num_workers=WORKERS, num_pairs=num_pairs, job=job,
            state_parts={p: state_parts[p] for p in mine},
            static_parts=[{p: per_pair[p] for p in mine} for per_pair in static_parts],
            send_state=False, wait_verdict=wait_verdict, owner_of=owner_of,
        ))
    return configs


WORKLOADS = {
    cls.name: cls for cls in (PagerankKernel, PagerankAsync, KmeansRecord)
}
