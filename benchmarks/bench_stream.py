"""E16: streaming-gateway throughput and tail latency vs the sequential
backend.

The ISSUE 4 acceptance gate: a saturated (permanently backlogged) stream
of >= 192 mixed instances on a 4-worker process-backed gateway must
sustain >= 2x the throughput of the 1-worker sequential batch backend,
with the stream's output digests byte-identical to the sequential run.
Alongside the gate, an open-loop Poisson run at ~70% of the measured
saturated throughput records the latency profile (p50/p95/p99) a
non-overloaded service would see.

Correctness is asserted unconditionally (digest parity, zero losses under
the blocking policy).  The *speedup* gate only means something when the
hardware can run 4 workers — on fewer than 4 CPUs the rows are recorded
and the assertion is skipped, exactly as in ``bench_service.py``.

Results land in ``BENCH_engines.json`` under the ``stream`` section.
"""

import os

from repro.scenarios import mixed_batch, saturated_arrivals, poisson_arrivals
from repro.service import BatchService, requests_from_scenarios, serve

#: the acceptance-gate shape: >= 192 mixed instances, 4 workers, >= 2x.
BATCH = 192
WORKERS = 4
SPEEDUP_TARGET = 2.0
ENGINE = "fast"
QUEUE_CAP = 64

#: best-of-N timing to shrug off CI-runner noise.
REPEAT = 2

SIZES = dict(routing_sizes=(16,), sorting_sizes=(16,), multiplex_sizes=(16,))


def _requests():
    return requests_from_scenarios(
        mixed_batch(BATCH, seed0=0, **SIZES), engine=ENGINE
    )


def _best_sequential(requests):
    service = BatchService(workers=1, engine=ENGINE)
    best = None
    for _ in range(REPEAT):
        report = service.run_batch(requests)
        if best is None or report.wall_s < best.wall_s:
            best = report
    return best


def _best_stream(requests, arrivals, warmup, micro_batch=1):
    best = None
    for _ in range(REPEAT):
        report = serve(
            requests,
            arrivals,
            workers=WORKERS,
            engine=ENGINE,
            backend="process",
            queue_cap=QUEUE_CAP,
            policy="block",
            warmup=warmup,
            micro_batch=micro_batch,
        )
        if best is None or report.wall_s < best.wall_s:
            best = report
    return best


def _latency(report, q):
    return report.metrics["latency"][q]


def _measure():
    requests = _requests()

    sequential = _best_sequential(requests)
    assert sequential.ok, sequential.failures[:3]

    # Saturated stream: arrival clock at t=0 for every request, blocking
    # policy — sustained throughput is bounded by the worker pool alone.
    # micro_batch > 1 exercises the adaptive coalescer where it pays:
    # a permanently backlogged queue amortizes per-hop dispatch cost.
    saturated = _best_stream(
        requests, saturated_arrivals(BATCH), warmup=True, micro_batch=4
    )
    assert saturated.ok, saturated.failures[:3]
    assert len(saturated.completed) == BATCH
    assert not saturated.rejected and not saturated.cancelled
    assert saturated.stream_digest() == sequential.batch_digest(), (
        "stream digests diverge from the sequential backend"
    )

    # Open-loop Poisson at ~70% of measured capacity: the latency profile
    # of a provisioned (non-overloaded) gateway.  No gate — recorded as
    # context.
    rate = max(1.0, 0.7 * saturated.throughput)
    open_loop = _best_stream(
        requests, poisson_arrivals(rate, BATCH, seed=0), warmup=False
    )
    assert open_loop.ok, open_loop.failures[:3]

    speedup = sequential.wall_s / saturated.wall_s
    rows = [
        {
            "config": "sequential-batch",
            "workers": 1,
            "micro_batch": None,
            "offered": BATCH,
            "completed": BATCH,
            "wall_s": round(sequential.wall_s, 3),
            "instances_per_s": round(sequential.throughput, 2),
            "speedup": 1.0,
            "gated": False,
            "p50_ms": None,
            "p95_ms": None,
            "p99_ms": None,
            "digest": sequential.batch_digest(),
        },
        {
            "config": "stream-saturated",
            "workers": WORKERS,
            "micro_batch": 4,
            "offered": BATCH,
            "completed": len(saturated.completed),
            "wall_s": round(saturated.wall_s, 3),
            "instances_per_s": round(saturated.throughput, 2),
            "speedup": round(speedup, 3),
            "gated": True,
            "p50_ms": _latency(saturated, "p50_ms"),
            "p95_ms": _latency(saturated, "p95_ms"),
            "p99_ms": _latency(saturated, "p99_ms"),
            "digest": saturated.stream_digest(),
        },
        {
            "config": f"stream-poisson@{rate:.0f}/s",
            "workers": WORKERS,
            "micro_batch": 1,
            "offered": BATCH,
            "completed": len(open_loop.completed),
            "wall_s": round(open_loop.wall_s, 3),
            "instances_per_s": round(open_loop.throughput, 2),
            "speedup": None,
            "gated": False,
            "p50_ms": _latency(open_loop, "p50_ms"),
            "p95_ms": _latency(open_loop, "p95_ms"),
            "p99_ms": _latency(open_loop, "p99_ms"),
            "digest": open_loop.stream_digest(),
        },
    ]
    return rows


def test_bench_stream_throughput(benchmark, table_printer, bench_json):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    from repro.analysis import render_table

    cpus = os.cpu_count() or 1
    enforced = cpus >= WORKERS

    def fmt(v, spec="{}"):
        return "-" if v is None else spec.format(v)

    table_printer(
        render_table(
            f"E16  streaming gateway - {BATCH} mixed instances, "
            f"engine={ENGINE} (best-of-{REPEAT}, {cpus} cpus)",
            ["config", "workers", "done", "wall s", "inst/s", "speedup",
             "p50 ms", "p95 ms", "p99 ms"],
            [
                [
                    r["config"],
                    r["workers"],
                    r["completed"],
                    f"{r['wall_s']:.2f}",
                    f"{r['instances_per_s']:.1f}",
                    fmt(r["speedup"], "{:.2f}x"),
                    fmt(r["p50_ms"], "{:.1f}"),
                    fmt(r["p95_ms"], "{:.1f}"),
                    fmt(r["p99_ms"], "{:.1f}"),
                ]
                for r in rows
            ],
        )
    )
    payload = {
        "description": (
            f"{BATCH}-instance mixed stream on the asyncio gateway "
            f"(process backend, block policy); speedup = sequential "
            f"batch wall / saturated stream wall; digests byte-checked "
            f"against the sequential backend; poisson row records the "
            f"open-loop latency profile at ~70% capacity"
        ),
        "engine": ENGINE,
        "queue_cap": QUEUE_CAP,
        "speedup_target": SPEEDUP_TARGET,
        "speedup_gate_enforced": enforced,
        "rows": rows,
    }
    if not enforced:
        payload["gate_skip_reason"] = (
            f"host has {cpus} cpu(s) < {WORKERS} workers; parallel speedup "
            f"is unmeasurable here (see top-level meta)"
        )
    bench_json("stream", payload)
    speedup = rows[1]["speedup"]
    if enforced:
        assert speedup >= SPEEDUP_TARGET, (
            f"{WORKERS}-worker sustained stream speedup {speedup:.2f}x "
            f"below target {SPEEDUP_TARGET}x on {cpus} cpus"
        )
    else:
        print(
            f"\n[bench_stream] {cpus} cpu(s) < {WORKERS} workers: "
            f"recorded {speedup:.2f}x, speedup gate not enforced"
        )


if __name__ == "__main__":
    from conftest import run_standalone

    raise SystemExit(run_standalone(__file__))
