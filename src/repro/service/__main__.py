"""Batch service CLI: ``python -m repro.service [options]``.

Generates a deterministic mixed batch from the scenario taxonomy, executes
it on the selected backend, and prints per-family rollups plus aggregate
throughput.  Exits non-zero if any run fails verification/bounds or (with
``--selfcheck``) if the parallel backend's batch digest diverges from the
sequential baseline's.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from ..analysis import render_table
from . import cli
from .batch import BatchReport, BatchService


def _render(report: BatchReport) -> str:
    rows = []
    for (kind, family), agg in sorted(report.by_family().items()):
        runs = int(agg["runs"])
        rows.append([
            f"{kind}/{family}",
            runs,
            int(agg["ok"]),
            int(agg["rounds"]),
            int(agg["packets"]),
            f"{agg['wall_s'] * 1e3:.1f}",
        ])
    table = render_table(
        f"batch service [{report.backend}, workers={report.workers}]",
        ["workload", "runs", "ok", "rounds", "packets", "run ms"],
        rows,
    )
    hits, misses, size = report.plan_cache_stats
    lines = [
        table,
        f"batch: {len(report.summaries)} runs in {report.wall_s:.2f}s "
        f"({report.throughput:.1f} instances/s), digest "
        f"{report.batch_digest()}",
        f"caches: shared hit rate {report.shared_cache_hit_rate:.1%}; "
        f"parent plans {size} resident ({hits} hits / {misses} misses), "
        f"{report.warmed_plans} shipped to workers via "
        f"{report.prefetch_runs} prefetch runs",
    ]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Sharded batch execution of mixed routing/sorting/multiplex "
            "workloads on the congested-clique simulator.  --workers 0 or 1 "
            "runs in-process and sequentially; W >= 2 runs a process pool "
            "of W."
        ),
    )
    cli.add_flags(
        parser, "batch", *cli.WORKLOAD, "selfcheck", "no_warmup", "record",
        workers=0,
    )
    args = parser.parse_args(argv)
    requests = cli.build_requests(parser, args, args.batch)

    service = BatchService(
        workers=args.workers,
        engine=args.engine,
        warmup=not args.no_warmup,
    )
    if args.record is not None:
        from .recording import Recorder

        with Recorder(
            args.record,
            meta={
                "source": "batch",
                "workers": args.workers,
                "engine": args.engine,
            },
        ) as recorder:
            report = recorder.record_batch(service, requests)
    else:
        report = service.run_batch(requests)

    doc = report.to_dict()
    if args.selfcheck:
        doc["selfcheck"] = cli.sequential_check(
            requests, args.engine, report.batch_digest()
        )
    return cli.verdict(
        args, doc, _render(report), what="batch", failures=report.failures
    )


if __name__ == "__main__":
    raise SystemExit(main())
