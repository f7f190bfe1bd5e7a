"""The batch-execution service: backends agree with each other and with
direct engine execution, envelopes are picklable, the CLI smoke-tests.

The heavyweight differential here is the ISSUE 3 satellite: a >= 256
instance mixed batch must produce byte-identical output digests and
per-run statistics across the sequential backend, the process-pool
backend, and plain ``engine.execute`` runs.
"""

import json
import pickle
import struct

import pytest

from repro.core import RunRequest, RunSummary
from repro.scenarios import Scenario, mixed_batch, output_digest, parse_mix
from repro.scenarios.generators import DEFAULT_MIX
from repro.scenarios.runner import ALGORITHMS, default_algorithm
from repro.service import (
    BatchService,
    WorkerPool,
    execute_request,
    requests_from_scenarios,
)
from repro.service import batch as batch_mod
from repro.service.__main__ import main as service_main

BATCH = 256
SMALL_SIZES = dict(
    routing_sizes=(16,), sorting_sizes=(16,), multiplex_sizes=(16,)
)


def _requests(batch=BATCH, engine="fast"):
    scenarios = mixed_batch(batch, seed0=100, **SMALL_SIZES)
    return requests_from_scenarios(scenarios, engine=engine)


def _stat_rows(report):
    """The per-run record the backends must agree on, in request order."""
    return [
        (
            s.request.name,
            s.ok,
            s.engine,
            s.rounds,
            s.total_packets,
            s.total_words,
            s.max_edge_words,
            s.digest,
            s.shared_cache_hits,
            s.shared_cache_misses,
        )
        for s in report.summaries
    ]


def _direct_digests(requests):
    """Bypass the service entirely: resolve and run via the algorithm
    registry (plain ``engine.execute`` under the hood), digest outputs.
    """
    rows = []
    for req in requests:
        scenario = Scenario(req.kind, req.family, req.n, req.seed)
        spec = ALGORITHMS[
            (req.kind, req.algorithm or default_algorithm(req.kind))
        ]
        result = spec.run(scenario.build(), req.engine, req.seed)
        rows.append(
            (
                req.name,
                result.rounds,
                result.stats.total_packets,
                result.stats.total_words,
                output_digest(req.kind, result.outputs),
            )
        )
    return rows


def test_service_vs_direct_differential_256():
    requests = _requests(BATCH)
    sequential = BatchService(workers=0).run_batch(requests)
    pooled = BatchService(workers=2).run_batch(requests)

    assert sequential.ok, sequential.failures
    assert pooled.ok, pooled.failures
    assert len(sequential.summaries) == BATCH
    assert _stat_rows(sequential) == _stat_rows(pooled)
    assert sequential.batch_digest() == pooled.batch_digest()

    # Direct engine.execute runs, no service layer at all.
    direct = _direct_digests(requests)
    service_rows = [
        (s.request.name, s.rounds, s.total_packets, s.total_words, s.digest)
        for s in sequential.summaries
    ]
    assert service_rows == direct

    # The pool really warmed its workers from a structural prefetch pass.
    assert pooled.prefetch_runs > 0
    assert pooled.warmed_plans > 0


def test_streaming_order_matches_request_order():
    requests = _requests(24)
    service = BatchService(workers=2)
    streamed = list(service.execute(requests))
    assert [req for req, _ in streamed] == requests
    assert all(s.request == req for req, s in streamed)


def test_sequential_backend_is_deterministic_across_runs():
    requests = _requests(12)
    a = BatchService(workers=0).run_batch(requests)
    b = BatchService(workers=0).run_batch(requests)
    assert _stat_rows(a) == _stat_rows(b)
    assert a.batch_digest() == b.batch_digest()


def test_envelopes_are_picklable():
    req = RunRequest(
        kind="routing", family="balanced", n=16, seed=3, engine="fast",
        tag="t-1",
    )
    summary = execute_request(req)
    assert isinstance(summary, RunSummary) and summary.ok
    clone = pickle.loads(pickle.dumps(summary))
    assert clone == summary
    assert clone.request is not req and clone.request == req


def test_bad_requests_are_reported_not_raised():
    requests = [
        RunRequest(kind="routing", family="balanced", n=16, engine="fast"),
        RunRequest(kind="routing", family="no-such-family", n=16),
        RunRequest(
            kind="routing", family="balanced", n=16, algorithm="bogus"
        ),
        RunRequest(kind="routing", family="balanced", n=16, engine="bogus"),
    ]
    report = BatchService(workers=0).run_batch(requests)
    assert not report.ok
    oks = [s.ok for s in report.summaries]
    assert oks == [True, False, False, False]
    assert all(s.error for s in report.failures)
    assert len(report.failures) == 3


def test_service_engine_stamping():
    requests = [
        RunRequest(kind="routing", family="balanced", n=16),
        RunRequest(kind="routing", family="balanced", n=16, engine="reference"),
    ]
    report = BatchService(workers=0, engine="fast").run_batch(requests)
    assert [s.engine for s in report.summaries] == ["fast", "reference"]
    with pytest.raises(ValueError, match="unknown engine"):
        BatchService(engine="warp")


def test_prefetch_pass_is_capped(monkeypatch):
    """A structurally diverse batch must not serialize into the parent:
    at most ``MAX_PREFETCH`` representatives run up front.
    """
    monkeypatch.setattr(batch_mod, "MAX_PREFETCH", 2)
    requests = _requests(12)
    report = BatchService(workers=2).run_batch(requests)
    assert report.ok
    assert report.prefetch_runs == 2
    baseline = BatchService(workers=0).run_batch(requests)
    assert report.batch_digest() == baseline.batch_digest()


def test_process_pool_backend_rejects_zero_workers():
    with pytest.raises(ValueError, match="workers >= 1"):
        WorkerPool(0)
    with pytest.raises(ValueError, match="unknown backend"):
        WorkerPool(1, backend="fiber")


def test_worker_pool_surfaces_unencodable_requests_and_keeps_serving():
    """An error before the hop (here: a seed no envelope column can hold)
    re-raises from that submit's future; the dispatcher thread survives
    to serve the next submit and to close cleanly."""
    good = _requests(2)
    bad = RunRequest(kind="routing", family="balanced", n=16, seed=2 ** 70)
    pool = WorkerPool(1, backend="thread")
    try:
        with pytest.raises(struct.error):
            pool.submit([bad]).result(timeout=60)
        summaries = pool.submit(good).result(timeout=60)
        assert [s.request for s in summaries] == good
        assert all(s.ok for s in summaries)
        assert pool.submit([]).result(timeout=60) == []
    finally:
        pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.submit(good)


# -- workload mix feed -------------------------------------------------------


def test_mixed_batch_is_deterministic_and_weighted():
    a = mixed_batch(32, seed0=7, **SMALL_SIZES)
    b = mixed_batch(32, seed0=7, **SMALL_SIZES)
    assert a == b
    assert len(a) == 32
    assert len({sc.seed for sc in a}) == 32  # distinct seeds
    weights = {
        (kind, family): w for kind, family, w in parse_mix(DEFAULT_MIX)
    }
    counts = {}
    for sc in a:
        counts[(sc.kind, sc.family)] = counts.get((sc.kind, sc.family), 0) + 1
    # Weighted round-robin: family counts track mix weights (+-1 cycle).
    total_weight = sum(weights.values())
    for coord, weight in weights.items():
        expected = 32 * weight / total_weight
        assert abs(counts.get(coord, 0) - expected) <= weight
    single = mixed_batch(5, mix="routing/balanced", **SMALL_SIZES)
    assert single == [
        Scenario("routing", "balanced", 16, seed=i) for i in range(5)
    ]


def test_parse_mix_and_mixed_batch_errors():
    assert parse_mix("routing/balanced") == [("routing", "balanced", 1)]
    assert parse_mix(" routing/skewed : 4 ,sorting/uniform") == [
        ("routing", "skewed", 4),
        ("sorting", "uniform", 1),
    ]
    for bad in (
        "", "balanced", "routing/x:1", "routing/balanced:0",
        "routing/balanced:-2", "routing/balanced:x", "routing/nope",
    ):
        with pytest.raises(ValueError):
            parse_mix(bad)
    with pytest.raises(ValueError, match="perfect squares"):
        mixed_batch(4, sorting_sizes=(15,))
    with pytest.raises(ValueError):
        mixed_batch(0)


# -- CLI ---------------------------------------------------------------------


def test_cli_json_sequential(capsys):
    code = service_main(
        ["--batch", "8", "--workers", "0", "--engine", "fast", "--json"]
    )
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["ok"] is True
    assert doc["requests"] == 8
    assert doc["backend"] == "sequential"
    assert doc["batch_digest"]


def test_cli_selfcheck_pooled(capsys):
    code = service_main(
        [
            "--batch", "6", "--workers", "2", "--engine", "fast",
            "--selfcheck", "--json",
        ]
    )
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["backend"] == "process-pool"
    assert doc["selfcheck"]["match"] is True
    assert doc["selfcheck"]["sequential_digest"] == doc["batch_digest"]


def test_cli_rejects_bad_mix(capsys):
    with pytest.raises(SystemExit):
        service_main(["--scenario-mix", "routing/never"])
