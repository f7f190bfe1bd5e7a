"""The execution core and the batch service: many runs, many workers.

Lenzen's routing and sorting finish in O(1) rounds *per instance*, so the
axis this reproduction scales along is throughput across **many**
instances.  This module holds the pieces every front end shares:

* Requests are :class:`~repro.core.engine.RunRequest` envelopes — picklable
  coordinates, not live objects — resolved through the scenario taxonomy
  and the algorithm registry.  Anything registered with
  :func:`repro.scenarios.runner.register_algorithm` is addressable.
* :func:`execute_request` judges every run exactly as the scenario harness
  judges it (oracle verification, round bounds, message budget) and
  collapses it to a :class:`~repro.core.engine.RunSummary`.
* :class:`WorkerPool` is the one execution core: it builds the executor
  (process workers warm from one pickled plan snapshot), dispatches
  request lists as RENV envelopes, and isolates the request that kills a
  worker so that nothing else fails with it.  The batch service below and
  the streaming gateway (:mod:`repro.service.stream`) both drive it.
* :class:`BatchService` is the offline driver: a structural prefetch pass
  (one representative request per distinct ``(kind, family, n,
  algorithm, engine)`` group runs in the parent, and the resulting
  :class:`~repro.core.context.PlanCache` snapshot warms every worker;
  prefetch summaries are spliced back into the batch), then a sliding
  window of chunks through the core, results streamed in request order.
  :class:`SequentialBackend` is the in-process reference.

The digests let any two paths over the same batch — sequential, pooled, or
direct ``engine.execute`` calls — be compared byte-for-byte; CI's service
smoke job and :mod:`benchmarks.bench_service` both gate on that.
"""

from __future__ import annotations

import hashlib
import pickle
import queue
import threading
import time
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, replace
from typing import Deque, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.context import plan_cache
from ..core.engine import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    RunRequest,
    RunSummary,
    available_engines,
)
from ..scenarios.generators import Scenario
from ..scenarios.runner import ScenarioOutcome, ScenarioRunner
# The hop reaches the codec through the module, not through names bound
# here, so wrappers installed on repro.service.transport (span tracing)
# see every executor-boundary encode and decode.
from . import transport

__all__ = [
    "BatchReport",
    "BatchService",
    "CHAOS_TAG_PREFIX",
    "SequentialBackend",
    "WorkerPool",
    "execute_request",
    "requests_from_scenarios",
    "structural_key",
    "summaries_digest",
]

#: Tag prefix that routes a request through the chaos fault injector
#: (:mod:`repro.service.chaos`) before execution.
CHAOS_TAG_PREFIX = "chaos:"


def summaries_digest(summaries: Iterable[RunSummary]) -> str:
    """Order-independent digest over the *resolved* per-run output digests.

    Byte-identical across backends, worker counts and scheduling — the
    cross-backend equivalence gate CI and the benches assert on.  The
    batch service and the streaming gateway both fold their summaries
    through here, which is what makes "streaming == batch == sequential"
    a one-line comparison.

    Unresolved runs — crashed engines, dead pool workers, resolution
    errors, anything with no output digest — are skipped, so the fold
    covers exactly the runs that executed to a judged end.  That is the
    chaos-harness invariant: the digest of the runs that *survived* a
    fault must match a fault-free execution of those same requests.
    """
    blob = "\n".join(
        sorted(f"{s.request.name} {s.digest}" for s in summaries if s.digest)
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def requests_from_scenarios(
    scenarios: Iterable[Scenario],
    engine: Optional[str] = None,
    algorithm: Optional[str] = None,
) -> List[RunRequest]:
    """Wrap scenario coordinates into service request envelopes."""
    return [
        RunRequest(
            kind=sc.kind,
            family=sc.family,
            n=sc.n,
            seed=sc.seed,
            algorithm=algorithm,
            engine=engine,
        )
        for sc in scenarios
    ]


def structural_key(req: RunRequest) -> Tuple:
    """The coordinate that decides "same structural plans" for warmup.

    Requests sharing this key replay identical Koenig colorings, group
    partitions and header codecs from the plan cache (the seed only varies
    payloads, never structure).  Both the batch service's prefetch pass and
    the streaming gateway's ``structural_warmup`` dedupe through here, so
    the two regimes can never disagree on what counts as warm.
    """
    return (req.kind, req.family, req.n, req.algorithm, req.engine)


#: Shared runner for request execution (stateless between runs: every
#: ``run`` builds its own workload and judges it independently).
_RUNNER = ScenarioRunner()


def _summarize(req: RunRequest, outcome: ScenarioOutcome) -> RunSummary:
    return RunSummary(
        request=req,
        ok=outcome.ok,
        status=STATUS_COMPLETED,
        engine=outcome.engine,
        rounds=outcome.rounds,
        total_packets=outcome.total_packets,
        total_words=outcome.total_words,
        max_edge_words=outcome.max_edge_words,
        digest=outcome.digest,
        wall_s=outcome.wall_s,
        shared_cache_hits=outcome.shared_cache_hits,
        shared_cache_misses=outcome.shared_cache_misses,
        error=outcome.error,
    )


def execute_request(req: RunRequest) -> RunSummary:
    """Resolve, run, verify and summarize one request (any process).

    ``engine=None`` resolves to the simulator's default (the fully-audited
    reference engine) — when dispatching through :class:`BatchService`,
    unset engines are stamped with the service's default first.

    Resolution errors (unknown family/algorithm/engine) and engine crashes
    are carried in the summary's ``error`` field with ``status ==
    STATUS_FAILED`` rather than raised: one malformed or poisoned request
    must not take down a shard of good ones.

    Requests whose ``tag`` starts with ``"chaos:"`` route through the
    fault injector first (:func:`repro.service.chaos.apply_fault`) — the
    tag travels inside the picklable envelope, so a fault fires in
    whatever process executes the request, with no worker-side setup.
    """
    try:
        if req.tag.startswith(CHAOS_TAG_PREFIX):
            from .chaos import apply_fault

            apply_fault(req.tag)
        scenario = Scenario(req.kind, req.family, req.n, req.seed)
        outcome = _RUNNER.run(
            scenario,
            algorithm=req.algorithm,
            engine=req.engine if req.engine is not None else "reference",
        )
    except Exception as exc:  # resolution/registry errors or engine crashes
        return RunSummary(
            request=req,
            ok=False,
            status=STATUS_FAILED,
            error=f"{type(exc).__name__}: {exc}",
        )
    return _summarize(req, outcome)


def _pickle_plans(plans: Dict[Hashable, object]) -> bytes:
    """Freeze a plan-cache snapshot into one reusable initializer blob.

    Pickled **once per** :class:`WorkerPool` and handed to every worker
    initializer — including the workers of every pool rebuilt after a
    chaos kill.
    Before this existed the snapshot dict rode the ``initargs`` tuple and
    was re-pickled on every pool (re)build, which made recovery cost
    scale with the warm set.
    """
    return pickle.dumps(plans, protocol=pickle.HIGHEST_PROTOCOL)


def _warm_worker_blob(blob: bytes) -> None:
    """Pool-worker initializer: adopt a pre-pickled plan snapshot."""
    plan_cache().warm(pickle.loads(blob))


class SequentialBackend:
    """In-process, in-order execution — the determinism baseline."""

    name = "sequential"

    def execute(self, requests: Sequence[RunRequest]) -> Iterator[RunSummary]:
        for req in requests:
            yield execute_request(req)

    def close(self) -> None:
        pass


#: Executor backends of :class:`WorkerPool`.
BACKENDS = ("process", "thread")

#: Inbox message that tells the pool's dispatcher thread to wind down.
_CLOSE = object()


class _Job:
    """One :meth:`WorkerPool.submit` call: its requests and its future."""

    def __init__(self, requests: List[RunRequest]) -> None:
        self.requests = requests
        self.results: List[Optional[RunSummary]] = [None] * len(requests)
        self.pending = len(requests)
        self.future: "Future[List[RunSummary]]" = Future()
        # A running future cannot be cancelled, so the dispatcher thread
        # never races a consumer's cancel() when it resolves the job.
        self.future.set_running_or_notify_cancel()

    def fill(self, start: int, summaries: Sequence[RunSummary]) -> None:
        self.results[start:start + len(summaries)] = summaries
        self.pending -= len(summaries)
        if not self.pending and not self.future.done():
            self.future.set_result(self.results)  # type: ignore[arg-type]


class _Envelope:
    """A slice ``[start, stop)`` of a job, crossing the boundary as one hop."""

    __slots__ = ("job", "start", "stop", "gen")

    def __init__(self, job: _Job, start: int, stop: int) -> None:
        self.job = job
        self.start = start
        self.stop = stop
        self.gen = -1  # executor generation it was dispatched to

    @property
    def requests(self) -> List[RunRequest]:
        return self.job.requests[self.start:self.stop]

    def halves(self) -> Tuple["_Envelope", "_Envelope"]:
        mid = (self.start + self.stop) // 2
        return (
            _Envelope(self.job, self.start, mid),
            _Envelope(self.job, mid, self.stop),
        )


class WorkerPool:
    """The one execution core behind the batch service and the gateway.

    Args:
        workers: executor size (>= 1).
        backend: ``"process"`` (a ``ProcessPoolExecutor`` whose workers
            warm from ``warm_plans``) or ``"thread"`` (a
            ``ThreadPoolExecutor`` sharing the process-wide plan cache).
        warm_plans: plan-cache snapshot installed in every process
            worker's :class:`~repro.core.context.PlanCache` before it takes
            work.  Pickled **once** (:func:`_pickle_plans`) into the
            initializer blob of every pool this core builds, including
            rebuilds after breakage.

    :meth:`submit` is the only dispatch path: a request list crosses the
    executor boundary as one RENV envelope (:mod:`repro.service.transport`)
    through the executor's own pickle channel, and the returned future
    resolves with the summaries in request order.  A private dispatcher
    thread owns the executor; every hop and every completion passes
    through its inbox, so recovery decisions are made in one place.

    **Fault isolation.**  A dead child breaks a ``ProcessPoolExecutor``
    whole: every envelope in flight fails with ``BrokenExecutor``, the
    innocent ones with the guilty.  The core rebuilds the pool, holds new
    dispatch, and re-runs each failed envelope *alone* on the fresh pool.
    An envelope that breaks a pool while alone is halved and the halves
    re-run alone in turn, until singletons remain; a singleton that breaks
    a pool alone resolves ``STATUS_FAILED`` ("worker pool died
    mid-batch").  Execution is deterministic, so which requests fail
    depends only on the requests, never on scheduling: exactly the ones
    that kill their worker.  Each alone re-run counts in
    ``isolation_runs``: one per envelope caught in a pool death, plus
    about ``2 * log2(envelope size)`` per killer for the halving.  Other
    executor exceptions (a pickling error, say) are not pool deaths and
    propagate through the job's future.
    """

    def __init__(
        self,
        workers: int,
        backend: str = "process",
        warm_plans: Optional[Dict[Hashable, object]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("worker pool needs workers >= 1")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; want one of {BACKENDS}"
            )
        self.workers = workers
        self.backend = backend
        self._warm_blob = (
            _pickle_plans(warm_plans or {}) if backend == "process" else b""
        )
        #: pools rebuilt after breakage (chaos gates read this).
        self.pool_replacements = 0
        #: envelopes re-run alone to isolate a pool-breaking request.
        self.isolation_runs = 0
        self._executor = self._build()
        self._gen = 0
        self._inbox: "queue.SimpleQueue[object]" = queue.SimpleQueue()
        self._waiting: Deque[_Envelope] = deque()
        self._suspects: Deque[_Envelope] = deque()
        self._alone: Optional[_Envelope] = None
        self._running = 0  # normal hops in flight on the current executor
        self._outstanding = 0  # hops in flight on any executor
        self._lock = threading.Lock()
        self._closed = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="worker-pool", daemon=True
        )
        self._thread.start()

    def _build(self) -> Executor:
        if self.backend == "thread":
            return ThreadPoolExecutor(max_workers=self.workers)
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_warm_worker_blob,
            initargs=(self._warm_blob,),
        )

    def submit(
        self, requests: Sequence[RunRequest]
    ) -> "Future[List[RunSummary]]":
        """Run ``requests`` as one envelope; the future yields summaries."""
        job = _Job(list(requests))
        if not job.requests:
            job.future.set_result([])
            return job.future
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            self._inbox.put(_Envelope(job, 0, len(job.requests)))
        return job.future

    def close(self) -> None:
        """Finish every submitted job, then shut the executor down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._inbox.put(_CLOSE)
        self._thread.join()

    # -- the dispatcher thread ----------------------------------------------

    def _dispatch_loop(self) -> None:
        closing = False
        while True:
            item = self._inbox.get()
            if item is _CLOSE:
                closing = True
            elif isinstance(item, _Envelope):
                self._waiting.append(item)
            else:
                self._settle(*item)  # type: ignore[misc]
            self._pump()
            if closing and not (
                self._waiting or self._suspects or self._outstanding
            ):
                break
        self._executor.shutdown(wait=True)

    def _pump(self) -> None:
        if self._suspects or self._alone is not None:
            # Isolating: one suspect at a time, with nothing else in
            # flight on the pool, and new dispatch held until it is done.
            if self._alone is None and not self._running:
                self._alone = self._suspects.popleft()
                self.isolation_runs += 1
                self._launch(self._alone)
            return
        while self._waiting:
            self._running += 1
            self._launch(self._waiting.popleft())

    def _launch(self, env: _Envelope) -> None:
        env.gen = self._gen
        self._outstanding += 1
        try:
            blob = transport.encode_requests(env.requests)
            hop = self._executor.submit(transport._run_envelope_bytes, blob)
        # repro: ignore[RPR006] -- not swallowed: the exception settles
        # through _settle exactly as a failed hop would (an unencodable
        # request must not kill the dispatcher thread).
        except Exception as exc:
            hop = Future()
            hop.set_exception(exc)
        hop.add_done_callback(lambda f: self._inbox.put((env, f)))

    def _settle(self, env: _Envelope, hop: "Future[bytes]") -> None:
        self._outstanding -= 1
        alone = env is self._alone
        current = env.gen == self._gen
        if alone:
            self._alone = None
        elif current:
            self._running -= 1
        try:
            summaries = transport.decode_summaries(hop.result(), env.requests)
        except BrokenExecutor as exc:
            if current:
                self._executor.shutdown(wait=False)
                self._executor = self._build()
                self._gen += 1
                self._running = 0
                self.pool_replacements += 1
            if not alone:
                self._suspects.append(env)
            elif env.stop - env.start > 1:
                self._suspects.extendleft(reversed(env.halves()))
            else:
                env.job.fill(env.start, [RunSummary(
                    request=env.requests[0],
                    ok=False,
                    status=STATUS_FAILED,
                    error=(
                        f"worker pool died mid-batch: "
                        f"{type(exc).__name__}: {exc}"
                    ),
                )])
        # repro: ignore[RPR006] -- not swallowed: anything but a pool death
        # is the caller's error and re-raises from the job's future.
        except Exception as exc:
            if not env.job.future.done():
                env.job.future.set_exception(exc)
        else:
            env.job.fill(env.start, summaries)


@dataclass
class BatchReport:
    """Aggregate view of one executed batch."""

    summaries: List[RunSummary]
    backend: str
    workers: int
    wall_s: float
    warmed_plans: int = 0
    prefetch_runs: int = 0
    plan_cache_stats: Tuple[int, int, int] = (0, 0, 0)
    #: worker pools rebuilt after mid-batch breakage (0 on a healthy run).
    pool_replacements: int = 0
    #: envelopes re-run alone to isolate a pool-breaking request.
    isolation_runs: int = 0

    @property
    def ok(self) -> bool:
        return bool(self.summaries) and all(s.ok for s in self.summaries)

    @property
    def unresolved(self) -> List[RunSummary]:
        """Runs that never executed to a judged end (no output digest)."""
        return [s for s in self.summaries if not s.resolved]

    @property
    def failures(self) -> List[RunSummary]:
        return [s for s in self.summaries if not s.ok]

    @property
    def throughput(self) -> float:
        """Completed instances per wall-clock second."""
        return len(self.summaries) / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def shared_cache_hit_rate(self) -> float:
        hits = sum(s.shared_cache_hits for s in self.summaries)
        misses = sum(s.shared_cache_misses for s in self.summaries)
        return hits / (hits + misses) if hits + misses else 0.0

    def batch_digest(self) -> str:
        """Order-independent digest over the resolved runs' output digests.

        See :func:`summaries_digest` — shared with the streaming gateway;
        covers exactly the runs that executed to a judged end.
        """
        return summaries_digest(self.summaries)

    def by_family(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Per ``(kind, family)`` rollup used by the CLI table."""
        rollup: Dict[Tuple[str, str], Dict[str, float]] = {}
        for s in self.summaries:
            row = rollup.setdefault(
                (s.request.kind, s.request.family),
                {"runs": 0, "ok": 0, "rounds": 0, "packets": 0, "wall_s": 0.0},
            )
            row["runs"] += 1
            row["ok"] += 1 if s.ok else 0
            row["rounds"] += s.rounds
            row["packets"] += s.total_packets
            row["wall_s"] += s.wall_s
        return rollup

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready document (the ``--json`` CLI output)."""
        hits, misses, size = self.plan_cache_stats
        return {
            "backend": self.backend,
            "workers": self.workers,
            "ok": self.ok,
            "requests": len(self.summaries),
            "failed": len(self.failures),
            "wall_s": round(self.wall_s, 4),
            "throughput_per_s": round(self.throughput, 2),
            "total_rounds": sum(s.rounds for s in self.summaries),
            "total_packets": sum(s.total_packets for s in self.summaries),
            "total_words": sum(s.total_words for s in self.summaries),
            "shared_cache_hit_rate": round(self.shared_cache_hit_rate, 4),
            "unresolved": len(self.unresolved),
            "pool_replacements": self.pool_replacements,
            "isolation_runs": self.isolation_runs,
            "plan_cache": {
                "hits": hits,
                "misses": misses,
                "size": size,
                "warmed_to_workers": self.warmed_plans,
                "prefetch_runs": self.prefetch_runs,
            },
            "batch_digest": self.batch_digest(),
            "failures": [
                {"request": s.request.name, "error": s.error}
                for s in self.failures
            ],
        }


class BatchService:
    """The batch-execution front end: a thin driver over :class:`WorkerPool`.

    Args:
        workers: ``0`` or ``1`` selects the in-process
            :class:`SequentialBackend`; ``>= 2`` shards across a
            :class:`WorkerPool` of that many process workers.
        engine: default engine name stamped on requests that carry
            ``engine=None``.
        warmup: run the structural prefetch pass before sharding (pool
            backend only; the sequential backend warms its own cache as a
            side effect of running).
        max_prefetch: cap on prefetch runs.  Warmup is best-effort
            amortization: a batch sweeping many distinct structures (every
            request its own group) must not degenerate into running the
            whole batch serially in the parent, so at most this many
            representatives execute up front and the remaining groups start
            cold in the workers.
        chunk: requests per envelope; ``None`` picks ``ceil(batch / (4 *
            workers))`` capped at 32 — large enough to amortize IPC, small
            enough to keep the pool balanced and summaries streaming.
    """

    def __init__(
        self,
        workers: int = 0,
        engine: str = "fast",
        warmup: bool = True,
        max_prefetch: int = 32,
        chunk: Optional[int] = None,
    ) -> None:
        if engine not in available_engines():
            raise ValueError(
                f"unknown engine {engine!r}; available: "
                f"{', '.join(available_engines())}"
            )
        self.workers = max(0, int(workers))
        self.engine = engine
        self.warmup = warmup
        self.max_prefetch = max(0, int(max_prefetch))
        self.chunk = chunk

    # -- internals ----------------------------------------------------------

    def _stamp(self, requests: Iterable[RunRequest]) -> List[RunRequest]:
        return [
            req if req.engine is not None else replace(req, engine=self.engine)
            for req in requests
        ]

    def _prefetch_indices(self, requests: Sequence[RunRequest]) -> List[int]:
        """Index of the first request of every distinct structural group.

        Capped so warmup stays best-effort amortization: at most
        ``max_prefetch`` representatives, and never more than a small
        fraction of the batch per worker — a structurally diverse batch
        must not serialize into the parent while the pool sits idle.
        """
        cap = min(
            self.max_prefetch,
            len(requests) // (2 * max(1, self.workers)) + 1,
        )
        seen = set()
        picks = []
        for i, req in enumerate(requests):
            if req.tag.startswith(CHAOS_TAG_PREFIX):
                # Prefetch executes in the parent process; a chaos fault
                # (worst case ``chaos:kill``) must only ever fire behind
                # the executor boundary, in a disposable pool worker.
                continue
            key = structural_key(req)
            if key not in seen:
                seen.add(key)
                picks.append(i)
                if len(picks) >= cap:
                    break
        return picks

    def _pooled(
        self, core: WorkerPool, requests: List[RunRequest]
    ) -> Iterator[RunSummary]:
        """Chunks through ``core`` in a sliding window, summaries in order."""
        size = self.chunk
        if size is None:
            size = min(32, -(-len(requests) // (4 * self.workers)))
        size = max(1, size)
        chunks = (
            requests[i:i + size] for i in range(0, len(requests), size)
        )
        window: Deque["Future[List[RunSummary]]"] = deque()
        for chunk in chunks:
            window.append(core.submit(chunk))
            if len(window) >= 4 * self.workers:
                yield from window.popleft().result()
        while window:
            yield from window.popleft().result()

    # -- execution ----------------------------------------------------------

    def execute(
        self,
        requests: Iterable[RunRequest],
        _info: Optional[Dict[str, object]] = None,
    ) -> Iterator[Tuple[RunRequest, RunSummary]]:
        """Execute a batch, streaming ``(request, summary)`` in order.

        ``_info``, when given, receives warmup and recovery accounting
        (``warmed``, ``prefetch_runs``, ``pool_replacements``,
        ``isolation_runs``) — internal plumbing for :meth:`run_batch`.
        """
        stamped = self._stamp(requests)
        if self.workers < 2:
            yield from zip(stamped, SequentialBackend().execute(stamped))
            return
        prefetched: Dict[int, RunSummary] = {}
        warm_plans: Dict[Hashable, object] = {}
        if self.warmup:
            for i in self._prefetch_indices(stamped):
                prefetched[i] = execute_request(stamped[i])
            warm_plans = plan_cache().snapshot()
        if _info is not None:
            _info["warmed"] = len(warm_plans)
            _info["prefetch_runs"] = len(prefetched)
        core = WorkerPool(self.workers, warm_plans=warm_plans)
        rest = [req for i, req in enumerate(stamped) if i not in prefetched]
        try:
            pooled = self._pooled(core, rest)
            for i, req in enumerate(stamped):
                yield req, prefetched[i] if i in prefetched else next(pooled)
        finally:
            core.close()
            if _info is not None:
                _info["pool_replacements"] = core.pool_replacements
                _info["isolation_runs"] = core.isolation_runs

    def run_batch(self, requests: Iterable[RunRequest]) -> BatchReport:
        """Execute a batch to completion and aggregate the summaries."""
        pc = plan_cache()
        hits0, misses0, _ = pc.stats()
        info: Dict[str, object] = {}
        t0 = time.perf_counter()
        summaries = [s for _, s in self.execute(requests, _info=info)]
        wall = time.perf_counter() - t0
        hits1, misses1, size1 = pc.stats()
        pooled = self.workers >= 2
        return BatchReport(
            summaries=summaries,
            backend="process-pool" if pooled else SequentialBackend.name,
            workers=self.workers if pooled else 1,
            wall_s=wall,
            warmed_plans=int(info.get("warmed", 0)),
            prefetch_runs=int(info.get("prefetch_runs", 0)),
            plan_cache_stats=(hits1 - hits0, misses1 - misses0, size1),
            pool_replacements=int(info.get("pool_replacements", 0)),
            isolation_runs=int(info.get("isolation_runs", 0)),
        )
