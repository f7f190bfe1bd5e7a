"""Network service CLI: ``python -m repro.service.net <command>``.

Four subcommands::

    serve      run a NetServer in the foreground (Ctrl-C to stop)
    client     connect to a running server, execute a mixed batch
    selfcheck  loopback server + client in one process; digests must
               match the sequential baseline (CI smoke mode)
    soak       reconnect soak: loopback server behind a flapping fault
               proxy, resilient client under poisson load; gates on
               digest parity, zero stranded futures, zero duplicate
               executions, bounded retries

``client --selfcheck`` re-executes the batch on the in-process
sequential baseline and requires byte-identical digests — the same
gate CI's ``net-smoke`` job runs against a real two-process serve.
``client``/``selfcheck`` accept ``--resilient`` (use the reconnecting
:class:`~repro.service.net.resilience.ResilientClient`) and repeatable
``--toxic SPEC`` flags, which interpose the wire-level fault proxy —
CI's ``net-fault-smoke`` job is ``selfcheck --resilient --toxic ...``
with the same digest gate plus a bounded-retries gate.  Loopback
round-trip percentiles and wire bytes per request are recorded by
``benchmarks/bench_net.py`` (E19).
"""

from __future__ import annotations

import argparse
import asyncio
import math
import sys
import threading
import time
from typing import Dict, List, Optional

from ...core.engine import RunRequest
from ...scenarios.generators import (
    REMOTE_SELFCHECK_MIX,
    flap_times,
    poisson_arrivals,
)
from .. import cli
from ..batch import summaries_digest
from .client import Client, CommonClient
from .faultproxy import ProxyThread
from .framing import MAX_FRAME_BYTES
from .resilience import BackoffPolicy, ResilientClient
from .server import DEFAULT_SESSION_QUOTA, NetServer, ServerThread


def _add_gateway_args(parser: argparse.ArgumentParser) -> None:
    cli.add_flags(parser, *cli.GATEWAY, backend="thread")
    parser.add_argument(
        "--quota", type=int, default=DEFAULT_SESSION_QUOTA, metavar="N",
        help=f"per-session queue quota (default {DEFAULT_SESSION_QUOTA})",
    )
    parser.add_argument(
        "--max-frame", type=int, default=MAX_FRAME_BYTES, metavar="BYTES",
        help="maximum frame payload size (default 8 MiB)",
    )


def _add_batch_args(parser: argparse.ArgumentParser, **defaults: str) -> None:
    cli.add_flags(parser, "batch", *cli.WORKLOAD, **defaults)
    parser.add_argument(
        "--chunk", type=int, default=32, metavar="N",
        help="requests per SUBMIT envelope (default 32)",
    )
    parser.add_argument(
        "--protocol", type=int, default=None, metavar="V",
        help="pin the session to protocol version V (default: negotiate)",
    )


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--resilient", action="store_true",
        help="use the reconnecting ResilientClient (protocol v2)",
    )
    parser.add_argument(
        "--toxic", action="append", default=[], metavar="SPEC",
        help=(
            "interpose the fault proxy with this toxic (repeatable): "
            "latency:MS, jitter:MS, rate:KBPS, disconnect:BYTES, "
            "blackhole[:MS], corrupt:PROB, each optionally @up/@down"
        ),
    )
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help=(
            "fail if the resilient client resubmitted more than N times "
            "(default: 8 per envelope, the backoff attempt cap)"
        ),
    )


def _server_kwargs(args: argparse.Namespace) -> dict:
    return dict(
        host=args.host,
        port=args.port,
        workers=args.workers,
        engine=args.engine,
        backend=args.backend,
        queue_cap=args.queue_cap,
        policy=args.policy,
        deadline_ms=args.deadline_ms,
        micro_batch=args.micro_batch,
        session_quota=args.quota,
        max_frame=args.max_frame,
    )


def _cmd_serve(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    async def _run() -> None:
        server = NetServer(**_server_kwargs(args))
        await server.start()
        print(
            f"repro.service.net serving on {server.host}:{server.port} "
            f"(engine {args.engine}, backend {args.backend}, "
            f"quota {args.quota})",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            raise
        finally:
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _make_client(
    args: argparse.Namespace, host: str, port: int
) -> CommonClient:
    if args.resilient:
        return ResilientClient(
            host, port, timeout=args.timeout, seed=args.seed
        )
    return Client(host, port, protocol=args.protocol, timeout=args.timeout)


def _retry_bound(args: argparse.Namespace, envelopes: int) -> int:
    if args.max_retries is not None:
        return int(args.max_retries)
    return BackoffPolicy().max_attempts * max(1, envelopes)


def _run_client(
    args: argparse.Namespace, requests: List[RunRequest], host: str, port: int
) -> int:
    toxics = list(args.toxic)
    proxy: Optional[ProxyThread] = None
    if toxics:
        proxy = ProxyThread(host, port, toxics=toxics, seed=args.seed)
        proxy.start()
        host, port = proxy.host, proxy.port
    stats: Dict[str, int] = {}
    try:
        with _make_client(args, host, port) as client:
            t0 = time.perf_counter()
            summaries = client.run(requests, chunk=args.chunk)
            wall = time.perf_counter() - t0
            info = client.server_info
            version = client.protocol_version
            cache_hits = client.cache_hits
            sent = getattr(client, "bytes_sent", 0)
            received = getattr(client, "bytes_received", 0)
            if isinstance(client, ResilientClient):
                stats = client.stats()
    finally:
        if proxy is not None:
            proxy.close()
    digest = summaries_digest(summaries)
    envelopes = math.ceil(len(requests) / max(1, args.chunk))
    gates: Dict[str, bool] = {}
    doc = {
        "server": info.get("server"),
        "protocol": version,
        "requests": len(requests),
        "ok": all(s.ok for s in summaries),
        "wall_s": round(wall, 4),
        "digest": digest,
        "bytes_sent": sent,
        "bytes_received": received,
        "cache_hits": cache_hits,
    }
    if toxics:
        doc["toxics"] = toxics
    if stats:
        gates["bounded_retries"] = (
            stats["resubmits"] <= _retry_bound(args, envelopes)
        )
        doc["resilience"] = dict(stats)
        doc["retries_bounded"] = gates["bounded_retries"]
    if args.selfcheck:
        doc["selfcheck"] = cli.sequential_check(requests, args.engine, digest)
    lines = [
        f"net client: {len(requests)} requests over protocol v{version} "
        f"in {wall:.2f}s — digest {digest}",
        f"wire: {sent} bytes sent, {received} received "
        f"({(sent + received) / max(1, len(requests)):.0f} B/request)",
    ]
    if stats:
        lines.append(
            f"resilience: {stats['reconnects']} reconnects, "
            f"{stats['resubmits']} resubmits, "
            f"{stats['retry_afters']} retry-afters, "
            f"{stats['cache_hits']} cache hits"
        )
    return cli.verdict(
        args,
        doc,
        "\n".join(lines),
        what="net client",
        gates=gates,
        failures=[s for s in summaries if not s.ok],
    )


def _cmd_client(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    requests = cli.build_requests(parser, args, args.batch)
    return _run_client(args, requests, args.host, args.port)


def _cmd_selfcheck(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    requests = cli.build_requests(parser, args, args.batch)
    args.selfcheck = True
    with ServerThread(**_server_kwargs(args)) as st:
        return _run_client(args, requests, st.host, st.port)


def _cmd_soak(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    """Reconnect soak: flapping proxy, poisson load, four gates.

    The proxy drops every live connection every ``--flap-every``
    seconds (jittered) while a :class:`ResilientClient` pushes a
    poisson-arrival workload through it.  Gates:

    1. every submitted envelope is collected (zero stranded futures);
    2. the digest matches the sequential baseline byte-for-byte;
    3. the gateway executed each request exactly once (its ``offered``
       counter equals the unique request count — resubmits after flaps
       were answered by the idempotency cache, not re-executed);
    4. retries stayed bounded (resubmits <= the backoff attempt cap
       per envelope).
    """
    count = max(1, int(args.rate * args.duration))
    requests = cli.build_requests(parser, args, count)
    arrivals = poisson_arrivals(args.rate, count, seed=args.seed)
    flaps = flap_times(
        args.flap_every, args.duration, jitter_frac=0.2, seed=args.seed
    )

    with ServerThread(**_server_kwargs(args)) as st:
        with ProxyThread(
            st.host, st.port, toxics=args.toxic, seed=args.seed
        ) as proxy:
            backoff = BackoffPolicy(
                base_s=0.05,
                max_s=1.0,
                deadline_s=max(60.0, 3.0 * args.duration),
            )
            client = ResilientClient(
                proxy.host,
                proxy.port,
                timeout=args.timeout,
                backoff=backoff,
                seed=args.seed,
            )
            client.connect()
            stop = threading.Event()
            t0 = time.perf_counter()

            def flapper() -> None:
                for at in flaps:
                    delay = at - (time.perf_counter() - t0)
                    if delay > 0 and stop.wait(delay):
                        return
                    proxy.drop_connections()

            flap_thread = threading.Thread(target=flapper, daemon=True)
            flap_thread.start()
            window = max(1, client.session_quota // 2)
            order: List[int] = []
            inflight: List[int] = []
            collected: Dict[int, List] = {}
            try:
                for request, at in zip(requests, arrivals):
                    delay = at - (time.perf_counter() - t0)
                    if delay > 0:
                        time.sleep(delay)
                    while len(inflight) >= window:
                        oldest = inflight.pop(0)
                        collected[oldest] = client.collect(oldest)
                    channel = client.submit([request])
                    order.append(channel)
                    inflight.append(channel)
                for channel in inflight:
                    collected[channel] = client.collect(channel)
            finally:
                stop.set()
                flap_thread.join(timeout=10.0)
            stranded = client.pending
            metrics = client.metrics()
            stats = client.stats()
            client.close()
            proxy_stats = proxy.stats()

    summaries = [s for channel in order for s in collected[channel]]
    digest = summaries_digest(summaries)
    check = cli.sequential_check(requests, args.engine, digest)
    gateway = metrics.get("gateway", {})
    offered = gateway.get("offered") if isinstance(gateway, dict) else None
    gates = {
        "all_collected": len(summaries) == count and stranded == 0,
        "digest_match": check["match"],
        "no_duplicate_execution": offered == count,
        "bounded_retries": (
            stats["resubmits"] <= _retry_bound(args, count)
        ),
    }
    doc = {
        "requests": count,
        "duration_s": args.duration,
        "rate": args.rate,
        "flaps": len(flaps),
        "stranded": stranded,
        "gateway_offered": offered,
        "digest": digest,
        "baseline_digest": check["sequential_digest"],
        "resilience": dict(stats),
        "proxy": dict(proxy_stats),
        "idempotency": metrics.get("idempotency"),
        "gates": gates,
        "ok": all(gates.values()),
    }
    text = (
        f"soak: {count} requests over {args.duration:.0f}s, "
        f"{len(flaps)} connection flaps -> "
        f"{stats['reconnects']} reconnects, "
        f"{stats['resubmits']} resubmits, "
        f"{stats['cache_hits']} cache hits, {stranded} stranded\n"
        f"executions: gateway offered {offered} for {count} unique "
        f"requests; digest {digest} "
        f"({'match' if gates['digest_match'] else 'MISMATCH'})"
    )
    return cli.verdict(args, doc, text, what="soak", gates=gates)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.net",
        description="Versioned binary RPC front end for the simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run a server in the foreground")
    cli.add_flags(p_serve, "host", "port", "engine")
    _add_gateway_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser("client", help="run a batch against a server")
    cli.add_flags(p_client, "host", "port", "timeout", "selfcheck")
    _add_batch_args(p_client)
    _add_fault_args(p_client)
    p_client.set_defaults(func=_cmd_client)

    # the selfcheck differential and the soak default to full-taxonomy
    # coverage
    p_self = sub.add_parser(
        "selfcheck", help="loopback server+client digest check (CI smoke)"
    )
    cli.add_flags(p_self, "host", "timeout", port=0)
    _add_gateway_args(p_self)
    _add_batch_args(p_self, scenario_mix=REMOTE_SELFCHECK_MIX)
    _add_fault_args(p_self)
    p_self.set_defaults(func=_cmd_selfcheck)

    p_soak = sub.add_parser(
        "soak",
        help="reconnect soak: flapping fault proxy + resilient client",
    )
    cli.add_flags(p_soak, "host", port=0, timeout=30.0)
    p_soak.add_argument(
        "--duration", type=float, default=60.0, metavar="S",
        help="soak length in seconds (default 60)",
    )
    p_soak.add_argument(
        "--rate", type=float, default=4.0, metavar="R",
        help="poisson arrival rate per second (default 4)",
    )
    p_soak.add_argument(
        "--flap-every", type=float, default=3.0, metavar="S",
        help="drop every proxied connection this often (default 3s)",
    )
    _add_gateway_args(p_soak)
    _add_batch_args(p_soak, scenario_mix=REMOTE_SELFCHECK_MIX)
    _add_fault_args(p_soak)
    p_soak.set_defaults(func=_cmd_soak, policy="block", resilient=True)

    args = parser.parse_args(argv)
    # each command gets its own subparser, for usage errors
    return int(args.func(sub.choices[args.command], args))


if __name__ == "__main__":
    raise SystemExit(main())
