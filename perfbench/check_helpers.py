"""Unit tests of the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/check_helpers.py -q`` from the
root of a checkout.  The file is not named ``test_*.py`` so the
repository's own suite does not collect it.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    GateFailure,
    Span,
    Tracer,
    attribute,
    covered,
    require_source,
    self_times,
    tail,
)

require_source()

import rpc  # noqa: E402
from repro.service.net import MockClient  # noqa: E402


# -- tail percentile rule -------------------------------------------------------


def test_tail_picks_highest_percentile_with_ten_beyond():
    values = list(range(1, 1001))  # p99 rank is 990: exactly 10 beyond
    assert tail(values) == (99.0, 990.0, 10)


def test_tail_steps_down_when_too_few_beyond():
    values = list(range(1, 1000))  # p99 rank 990 leaves only 9 beyond
    pct, value, beyond = tail(values)
    assert (pct, value) == (95.0, 950.0)
    assert beyond == 49


def test_tail_of_a_handful_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


def test_tail_ignores_input_order():
    values = [float(v) for v in range(200)]
    assert tail(values) == tail(list(reversed(values)))


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        tail([])


# -- span self time -------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered([], 0, 10) == 0
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_union_of_children_only():
    spans = [
        Span(0, "root", 0.0, 10.0),
        Span(1, "a", 1.0, 3.0, parent=0),
        Span(2, "b", 2.0, 5.0, parent=0),  # overlaps a: counted once
        Span(3, "c", 8.0, 12.0, parent=0),  # overflows root: clipped
        Span(4, "a.inner", 1.5, 2.5, parent=1),  # grandchild
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - 6)
    assert own[1] == pytest.approx(2 - 1)
    assert own[4] == pytest.approx(1)


def test_attribution_accounts_for_the_median_request():
    tracer = Tracer()
    for k in range(21):
        d = 10.0 + k
        root = tracer.add("request", 100.0 * k, 100.0 * k + d)
        child = tracer.add("gateway", 100.0 * k + 1, 100.0 * k + 7, root)
        tracer.add("worker", 100.0 * k + 2, 100.0 * k + 5, child)
    attr = attribute(tracer.spans, "request", band=0.0)
    assert attr.e2e_p50_s == 20.0
    assert attr.layer_s == {"gateway": 3.0, "worker": 3.0}
    assert attr.unattributed_s == pytest.approx(14.0)
    assert attr.accounting_error() == pytest.approx(0.0)


def test_attribution_flags_double_counted_spans():
    tracer = Tracer()
    root = tracer.add("request", 0.0, 10.0)
    tracer.add("net", 0.0, 8.0, root)
    # a sibling of another layer covering the same interval again
    tracer.add("transport", 0.0, 8.0, root)
    attr = attribute(tracer.spans, "request")
    assert attr.accounting_error() > 0.5


# -- load loops against MockClient ----------------------------------------------


def passes(workload, seed=5, size=3):
    """Pass function of ``workload`` cut to ``size`` requests per pass."""
    return lambda k: rpc.make_pass(workload, seed, k)[:size]


def test_passes_keep_composition_and_change_seeds():
    first, second = (rpc.make_pass("rpc-mix", 5, k) for k in (0, 1))
    shape = [(r.kind, r.family, r.n) for r in first]
    assert shape == [(r.kind, r.family, r.n) for r in second]
    assert not {r.seed for r in first} & {r.seed for r in second}
    assert first == rpc.make_pass("rpc-mix", 5, 0)


def test_warm_requests_cover_every_structure_once():
    from repro.service.batch import structural_key

    warm = rpc.warm_requests("rpc-mix")
    keys = [structural_key(r) for r in warm]
    assert len(keys) == len(set(keys))
    assert set(keys) == {structural_key(r) for r in rpc.make_pass("rpc-mix", 5, 0)}


def test_closed_loop_runs_one_whole_pass():
    with MockClient() as client:
        samples = rpc.closed_loop(client, passes("rpc-small"), 3, seconds=0)
    assert [s.index for s in samples] == [0, 1, 2]
    for s, req in zip(samples, passes("rpc-small")(0)):
        assert s.summary.request == req
        assert s.summary.ok and s.summary.status == "completed"
        assert s.submit0 <= s.submit1 <= s.collect0 <= s.collect1


def test_closed_loop_stops_on_pass_boundary():
    with MockClient() as client:
        samples = rpc.closed_loop(client, passes("rpc-small"), 3, seconds=0.05)
    assert len(samples) % 3 == 0
    assert len(samples) > 3
    second = [s.summary.request for s in samples[3:6]]
    assert second == passes("rpc-small")(1)


def test_windowed_keeps_order_and_window():
    with MockClient() as client:
        samples = rpc.windowed(client, passes("rpc-mix"), 3, seconds=0, window=2)
        assert client.metrics()["gateway"]["offered"] == 3
    assert [s.index for s in samples] == [0, 1, 2]
    assert [s.summary.request for s in samples] == passes("rpc-mix")(0)
    # with a window of two, request k is collected only after k+1 is sent
    for early, late in zip(samples, samples[1:]):
        assert late.submit0 <= early.collect0


def test_windowed_rejects_empty_window():
    with MockClient() as client, pytest.raises(ValueError):
        rpc.windowed(client, passes("rpc-mix"), 3, seconds=0, window=0)


def _full_pass(workload, seed=5):
    size = rpc.PASS_SIZE[workload]
    with MockClient() as client:
        return rpc.closed_loop(
            client, lambda k: rpc.make_pass(workload, seed, k), size, seconds=0
        )


def test_check_accepts_a_correct_pass():
    samples = _full_pass("rpc-small")
    assert rpc.check("rpc-small", 5, samples)


def test_check_rejects_a_changed_digest():
    samples = _full_pass("rpc-small")
    samples[1].summary = replace(samples[1].summary, digest="0" * 16)
    with pytest.raises(GateFailure, match="digest"):
        rpc.check("rpc-small", 5, samples)


def test_check_rejects_a_wrong_round_count():
    samples = _full_pass("rpc-mix")
    routed = next(s for s in samples if s.summary.request.kind == "routing")
    routed.summary = replace(routed.summary, rounds=17)
    with pytest.raises(GateFailure, match="rounds"):
        rpc.check("rpc-mix", 5, samples)


def test_check_rejects_an_unverified_summary():
    samples = _full_pass("rpc-small")
    samples[0].summary = replace(samples[0].summary, ok=False)
    with pytest.raises(GateFailure, match="ok=False"):
        rpc.check("rpc-small", 5, samples)
