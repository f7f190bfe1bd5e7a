"""Chaos harness: fault transport, containment, recovery, digest parity.

Poison requests resolve as failed (never completed), a SIGKILLed pool
worker breaks neither the gateway nor the batch service (pool replaced,
judged summaries still reported), fault isolation fails exactly the
killers whatever the scheduling, and the digests over surviving runs stay
byte-identical to a sequential re-execution.
"""

import time

import pytest

from repro.core import RunRequest
from repro.core.engine import STATUS_COMPLETED, STATUS_FAILED
from repro.scenarios import mixed_batch
from repro.service import (
    CHAOS_TAG_PREFIX,
    BatchService,
    ChaosFault,
    ChaosPlan,
    apply_fault,
    build_chaos_plan,
    inject,
    requests_from_scenarios,
    run_chaos,
    serve,
    summaries_digest,
)
from repro.service.chaos import main as chaos_main
from repro.service.stream import structural_warmup

SMALL_SIZES = dict(
    routing_sizes=(16,), sorting_sizes=(16,), multiplex_sizes=(16,)
)


def _requests(batch, engine="fast", seed0=900):
    return requests_from_scenarios(
        mixed_batch(batch, seed0=seed0, **SMALL_SIZES), engine=engine
    )


# -- fault transport ----------------------------------------------------------


def test_inject_arms_the_envelope_tag():
    req = _requests(1)[0]
    assert inject(req, "poison").tag == f"{CHAOS_TAG_PREFIX}poison"
    assert inject(req, "slow:25").tag == f"{CHAOS_TAG_PREFIX}slow:25"
    # The armed request is a new envelope; the original is untouched.
    assert req.tag == ""


def test_apply_fault_semantics():
    with pytest.raises(ChaosFault, match="poison"):
        apply_fault(f"{CHAOS_TAG_PREFIX}poison")
    with pytest.raises(ChaosFault, match="unknown chaos fault"):
        apply_fault(f"{CHAOS_TAG_PREFIX}meteor")
    with pytest.raises(ChaosFault, match="malformed slow"):
        apply_fault(f"{CHAOS_TAG_PREFIX}slow:soon")
    t0 = time.perf_counter()
    apply_fault(f"{CHAOS_TAG_PREFIX}slow:30")  # sleeps, then returns
    assert time.perf_counter() - t0 >= 0.030


def test_slow_fault_completes_with_correct_digest():
    """A straggler is delayed, not corrupted: same digest as its clean
    twin, just later."""
    req = _requests(1)[0]
    report = serve(
        [inject(req, "slow:40")], [0.0], workers=1, backend="thread",
        warmup=False,
    )
    (slowed,) = report.summaries
    assert slowed.status == STATUS_COMPLETED and slowed.ok
    assert slowed.latency_s >= 0.040
    baseline = BatchService(workers=0).run_batch([req])
    assert slowed.digest == baseline.summaries[0].digest


def test_warmup_passes_skip_chaos_requests():
    """Warmup/prefetch execute in the parent process — a chaos:kill there
    would take down the gateway itself, so armed requests never warm."""
    requests = [inject(r, "poison") for r in _requests(4)]
    assert structural_warmup(requests) == []
    service = BatchService(workers=2)
    assert service._prefetch_indices(requests) == []


# -- containment in the gateway ----------------------------------------------


def test_poison_request_fails_cleanly_in_gateway():
    requests = _requests(4)
    requests[1] = inject(requests[1], "poison")
    report = serve(
        requests, [0.0] * 4, workers=2, backend="thread", policy="block",
        warmup=False,
    )
    poisoned = report.summaries[1]
    assert poisoned.status == STATUS_FAILED
    assert not poisoned.ok and not poisoned.resolved
    assert "ChaosFault" in poisoned.error
    assert len(report.completed) == 3
    assert report.metrics["failed"] == 1
    assert report.metrics["latency"]["count"] == 3  # success p99 untouched
    baseline = BatchService(workers=0).run_batch(
        [s.request for s in report.completed]
    )
    assert report.stream_digest() == baseline.batch_digest()


# -- pool death mid-batch (satellite regression) ------------------------------


def test_pool_death_mid_batch_reports_judged_summaries():
    """Regression: a worker dying mid-batch used to surface as a raw
    ``BrokenProcessPool`` out of ``BatchService.execute`` — already-judged
    summaries were lost with it.  Now every request resolves, the pool is
    replaced, the batch digest covers exactly the resolved runs, and those
    runs match a sequential re-execution byte for byte."""
    requests = _requests(8)
    requests[4] = inject(requests[4], "kill")
    service = BatchService(workers=2, warmup=False, chunk=2)
    report = service.run_batch(requests)

    assert len(report.summaries) == len(requests)  # nothing lost
    assert not report.ok
    killed = report.summaries[4]
    assert killed.status == STATUS_FAILED and not killed.resolved
    assert "pool died mid-batch" in killed.error
    assert report.pool_replacements >= 1
    assert report.unresolved  # the dead chunk(s)
    resolved = [s for s in report.summaries if s.resolved]
    assert resolved  # chunks judged before the kill are still reported
    assert all(s.status == STATUS_COMPLETED for s in resolved)

    baseline = BatchService(workers=0).run_batch(
        [s.request for s in resolved]
    )
    assert baseline.ok
    assert baseline.batch_digest() == report.batch_digest()
    assert report.to_dict()["pool_replacements"] >= 1


# -- the harness --------------------------------------------------------------


def test_build_chaos_plan_layout():
    plan = build_chaos_plan(
        12, kills=1, poisons=2, straggler_frac=0.25, seed=5
    )
    assert len(plan.requests) == 12
    assert plan.kill_indices == [4]
    assert len(plan.poison_indices) == 2
    assert plan.straggler_indices  # 25% of the 9 clean ones
    untouched = (
        set(range(12))
        - set(plan.fault_indices)
        - set(plan.straggler_indices)
    )
    for i in untouched:
        assert plan.requests[i] == plan.clean[i]
    for i in plan.kill_indices:
        assert plan.requests[i].tag == f"{CHAOS_TAG_PREFIX}kill"
    with pytest.raises(ValueError, match="at least"):
        build_chaos_plan(3, kills=2, poisons=1)


def test_run_chaos_rejects_kills_on_thread_backend():
    with pytest.raises(ValueError, match="process backend"):
        run_chaos(count=8, kills=1, backend="thread", compare_clean=False)


def test_run_chaos_gates_pass_with_worker_kill():
    """The headline gate: a live gateway survives a SIGKILLed pool worker
    — pool replaced, later requests complete, surviving digests correct."""
    requests = _requests(10, seed0=77)
    armed = list(requests)
    armed[3] = inject(armed[3], "kill")
    armed[6] = inject(armed[6], "poison")
    plan = ChaosPlan(
        requests=armed,
        clean=requests,
        kill_indices=[3],
        poison_indices=[6],
    )
    report = run_chaos(plan, workers=2, compare_clean=False)
    assert report.ok, report.gates
    assert report.pool_replacements >= 1
    assert report.counts["post_kill_completed"] >= 1
    assert report.chaos_digest == report.baseline_digest
    doc = report.to_dict()
    assert doc["ok"] is True
    assert set(doc["gates"]) == {
        "recovered", "faults_contained", "digests_correct", "p99_bounded",
    }
    assert doc["isolation_runs"] >= 1


# -- deterministic fault isolation --------------------------------------------

#: trials per isolation test: the failed set must not depend on timing.
ISOLATION_TRIALS = 5


def _failed_indices(summaries):
    return {i for i, s in enumerate(summaries) if s.status == STATUS_FAILED}


def _assert_survivors_match_sequential(completed):
    baseline = BatchService(workers=0).run_batch(
        [s.request for s in completed]
    )
    assert baseline.ok
    assert baseline.batch_digest() == summaries_digest(completed)


def test_batch_isolation_fails_exactly_the_killers():
    """Two killers in 2-request chunks: only the killers fail, in every
    trial, whatever else shared an envelope or a pool with them."""
    requests = _requests(10, seed0=70)
    requests[1] = inject(requests[1], "kill")
    requests[9] = inject(requests[9], "kill")
    for _ in range(ISOLATION_TRIALS):
        report = BatchService(workers=2, warmup=False, chunk=2).run_batch(
            requests
        )
        assert _failed_indices(report.summaries) == {1, 9}
        for i in (1, 9):
            assert "worker pool died mid-batch" in report.summaries[i].error
        assert report.pool_replacements >= 2
        assert report.isolation_runs >= 2
        _assert_survivors_match_sequential(
            [s for s in report.summaries if s.resolved]
        )


def test_stream_isolation_fails_exactly_the_killers():
    """The same contract through the gateway with micro-batched hops."""
    requests = _requests(16, seed0=300)
    requests[3] = inject(requests[3], "kill")
    requests[11] = inject(requests[11], "kill")
    for _ in range(ISOLATION_TRIALS):
        report = serve(
            requests, [0.0] * 16, workers=2, backend="process",
            policy="block", micro_batch=4, warmup=False,
        )
        assert _failed_indices(report.summaries) == {3, 11}
        assert len(report.completed) == 14
        assert report.metrics["isolation_runs"] >= 2
        _assert_survivors_match_sequential(report.completed)


# -- CLI ----------------------------------------------------------------------


def test_chaos_cli_rejects_impossible_plan(capsys):
    with pytest.raises(SystemExit) as exc:
        chaos_main(["--requests", "3", "--kills", "2", "--poisons", "1"])
    assert exc.value.code == 2
    assert "at least" in capsys.readouterr().err
