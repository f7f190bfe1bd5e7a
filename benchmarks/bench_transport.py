"""E18: serialization — the columnar envelope codec vs per-envelope pickle.

The ISSUE 7 acceptance gate: on a 256-instance mixed batch, the columnar
request/summary round trip (encode requests, decode them, encode the
judged summaries, decode them back) must cost >= 5x less time per
request and >= 3x fewer bytes than the wire paid before envelopes
existed.  Unlike the throughput benches, these gates are enforced
on *every* host — codec ratios are single-threaded and do not depend on
the core count.

Both sides measure the *complete dispatch payload* at their production
granularity, which is the point of the comparison:

* **pickle baseline** — per request, one ``pickle.dumps``/``loads`` of
  ``(execute_request, (request,))`` out (the work item the pre-envelope
  gateway's executor pickled per ticket hop — callable reference
  included) and one of the judged ``RunSummary`` back.  Pickle
  re-instantiates the nested ``RunRequest`` inside every summary it
  loads.
* **columnar** — per dispatch batch, the real work item of the worker
  pool: ``(_run_envelope_bytes, (request_envelope,))`` pickled out
  through the executor's pickle channel, and the pickled summary
  envelope bytes back, cost amortized per request; summaries rejoin the
  requests the parent already holds instead of re-shipping them.

The per-payload rows (requests alone, summaries alone) are recorded as
context; the gate rides the ``round_trip`` row, which is what one
request costs end to end on the wire.  Results land in
``BENCH_engines.json`` under the ``serialization`` section;
``check_regression`` re-enforces the recorded targets against fresh runs.
"""

import gc
import pickle
import time

from repro.scenarios import mixed_batch
from repro.service import requests_from_scenarios
from repro.service.batch import execute_request
from repro.service.transport import (
    _run_envelope_bytes,
    decode_requests,
    decode_summaries,
    encode_requests,
    encode_summaries,
)

BATCH = 256
ENGINE = "fast"
TIME_RATIO_TARGET = 5.0
BYTES_RATIO_TARGET = 3.0

#: best-of-N timing to shrug off CI-runner noise.
REPEAT = 9

SIZES = dict(routing_sizes=(16,), sorting_sizes=(16,), multiplex_sizes=(16,))


def _envelopes():
    requests = requests_from_scenarios(
        mixed_batch(BATCH, seed0=0, **SIZES), engine=ENGINE
    )
    summaries = [execute_request(r) for r in requests]
    return requests, summaries


def _best_us(fn, repeat=REPEAT):
    """Best-of-N wall time for one whole-batch pass, in µs per request.

    The collector is off while timing, as in ``timeit``: a collection
    over the warm process's large heap costs more than a whole columnar
    pass, so wherever one lands it would decide the ratio.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best / BATCH * 1e6


def _measure():
    requests, summaries = _envelopes()

    # Fidelity first: the speed comparison is meaningless unless the
    # columnar codec reproduces the envelopes exactly.
    req_buf = encode_requests(requests)
    sum_buf = encode_summaries(summaries)
    assert decode_requests(req_buf) == requests
    assert decode_summaries(sum_buf, requests) == summaries

    proto = pickle.HIGHEST_PROTOCOL
    # What WorkerPool actually sends each way through the pickle channel.
    req_item = len(pickle.dumps((_run_envelope_bytes, (req_buf,)), proto))
    sum_item = len(pickle.dumps(sum_buf, proto))
    req_pkl = sum(
        len(pickle.dumps((execute_request, (r,)), proto)) for r in requests
    )
    sum_pkl = sum(len(pickle.dumps(s, proto)) for s in summaries)

    def pickle_requests():
        for r in requests:
            pickle.loads(pickle.dumps((execute_request, (r,)), proto))

    def pickle_summaries():
        for s in summaries:
            pickle.loads(pickle.dumps(s, proto))

    def columnar_requests():
        item = (_run_envelope_bytes, (encode_requests(requests),))
        _, (blob,) = pickle.loads(pickle.dumps(item, proto))
        decode_requests(blob)

    def columnar_summaries():
        blob = pickle.loads(pickle.dumps(encode_summaries(summaries), proto))
        decode_summaries(blob, requests)

    timings = {
        "requests": (
            _best_us(pickle_requests),
            _best_us(columnar_requests),
            req_pkl,
            req_item,
        ),
        "summaries": (
            _best_us(pickle_summaries),
            _best_us(columnar_summaries),
            sum_pkl,
            sum_item,
        ),
    }

    def round_trip_pickle():
        pickle_requests()
        pickle_summaries()

    def round_trip_columnar():
        columnar_requests()
        columnar_summaries()

    timings["round_trip"] = (
        _best_us(round_trip_pickle),
        _best_us(round_trip_columnar),
        req_pkl + sum_pkl,
        req_item + sum_item,
    )

    rows = []
    for payload, (pkl_us, col_us, pkl_b, col_b) in timings.items():
        rows.append({
            "payload": payload,
            "pickle_us_per_req": round(pkl_us, 3),
            "columnar_us_per_req": round(col_us, 3),
            "pickle_bytes_per_req": round(pkl_b / BATCH, 1),
            "columnar_bytes_per_req": round(col_b / BATCH, 1),
            "time_ratio": round(pkl_us / col_us, 2),
            "bytes_ratio": round(pkl_b / col_b, 2),
            "gated": payload == "round_trip",
        })
    return rows


def test_bench_transport_serialization(benchmark, table_printer, bench_json):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    from repro.analysis import render_table

    table_printer(
        render_table(
            f"E18  envelope codec - {BATCH} mixed instances "
            f"(best-of-{REPEAT}, µs and bytes per request)",
            ["payload", "pickle µs", "columnar µs", "time ratio",
             "pickle B", "columnar B", "bytes ratio"],
            [
                [
                    r["payload"],
                    f"{r['pickle_us_per_req']:.2f}",
                    f"{r['columnar_us_per_req']:.2f}",
                    f"{r['time_ratio']:.1f}x",
                    f"{r['pickle_bytes_per_req']:.0f}",
                    f"{r['columnar_bytes_per_req']:.0f}",
                    f"{r['bytes_ratio']:.1f}x",
                ]
                for r in rows
            ],
        )
    )
    bench_json(
        "serialization",
        {
            "description": (
                f"{BATCH}-instance mixed batch, complete dispatch payload "
                f"per request: the worker pool's pickled envelope work "
                f"item out and pickled summary envelope back per dispatch "
                f"(repro.service.transport, amortized) vs per-ticket pickling of (execute_request, (request,)) "
                f"out and the RunSummary back (the pre-envelope hop); "
                f"the round_trip row is gated on every host (codec ratios "
                f"are core-count independent)"
            ),
            "engine": ENGINE,
            "time_ratio_target": TIME_RATIO_TARGET,
            "bytes_ratio_target": BYTES_RATIO_TARGET,
            "rows": rows,
        },
    )
    gated = next(r for r in rows if r["gated"])
    assert gated["time_ratio"] >= TIME_RATIO_TARGET, (
        f"columnar round trip only {gated['time_ratio']:.1f}x faster than "
        f"pickle; target {TIME_RATIO_TARGET:g}x"
    )
    assert gated["bytes_ratio"] >= BYTES_RATIO_TARGET, (
        f"columnar round trip only {gated['bytes_ratio']:.1f}x smaller than "
        f"pickle; target {BYTES_RATIO_TARGET:g}x"
    )


if __name__ == "__main__":
    from conftest import run_standalone

    raise SystemExit(run_standalone(__file__))
