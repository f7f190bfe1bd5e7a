"""Shared flags, request build, selfcheck and verdict of the service CLIs.

``python -m repro.service``, ``.stream``, ``.chaos``, ``.recording`` and
``.net`` drive the same workload generator and the same gateway, so the
flags they share are declared here once (:data:`FLAGS`).  Each CLI picks
the flags it takes, and its own defaults, with :func:`add_flags`.  The
helpers below then turn the parsed flags into requests
(:func:`build_requests`), re-run requests on the in-process sequential
backend (:func:`sequential_check`), and print the report and choose the
exit code (:func:`verdict`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..core.engine import RunRequest, RunSummary, available_engines
from ..scenarios.generators import DEFAULT_MIX, mixed_batch
from .batch import BACKENDS, BatchService, requests_from_scenarios
from .stream import POLICIES

#: ``add_argument`` keywords of every shared flag.  ``default`` holds
#: unless the CLI passes its own to :func:`add_flags`.
FLAGS: Dict[str, Dict[str, Any]] = {
    # workload
    "--batch": dict(
        type=int, default=64, metavar="B",
        help="number of instances (default %(default)s)",
    ),
    "--scenario-mix": dict(
        default=DEFAULT_MIX, metavar="MIX",
        help="weighted kind/family:weight mix, comma-separated "
        "(default %(default)r)",
    ),
    "--seed": dict(
        type=int, default=0,
        help="base seed; request i uses seed+i (default %(default)s)",
    ),
    "--engine": dict(
        default="fast", choices=available_engines(),
        help="execution engine for every run (default %(default)s)",
    ),
    "--json": dict(
        action="store_true",
        help="emit the machine-readable report instead of text",
    ),
    # gateway
    "--workers": dict(
        type=int, default=2, metavar="W",
        help="worker count / pool size (default %(default)s)",
    ),
    "--backend": dict(
        default="process", choices=BACKENDS,
        help="executor backend (default %(default)s)",
    ),
    "--queue-cap": dict(
        type=int, default=64, metavar="N",
        help="request queue bound (default %(default)s)",
    ),
    "--policy": dict(
        default="reject", choices=POLICIES,
        help="backpressure policy when the queue is full "
        "(default %(default)s)",
    ),
    "--deadline-ms": dict(
        type=float, default=None, metavar="MS",
        help="per-request latency budget (default: none)",
    ),
    "--micro-batch": dict(
        type=int, default=1, metavar="K",
        help="coalesce up to K queued requests into one executor hop "
        "(default %(default)s)",
    ),
    # run
    "--selfcheck": dict(
        action="store_true",
        help="re-run on the in-process sequential backend and require "
        "byte-identical digests (CI smoke mode)",
    ),
    "--no-warmup": dict(
        action="store_true",
        help="skip the structural plan-cache warmup",
    ),
    "--record": dict(
        default=None, metavar="PATH",
        help="append every request/summary envelope to a capture file "
        "(replay with python -m repro.service.recording)",
    ),
    # socket
    "--host": dict(
        default="127.0.0.1", help="server address (default %(default)s)"
    ),
    "--port": dict(
        type=int, default=7707, help="server port (default %(default)s)"
    ),
    "--timeout": dict(
        type=float, default=60.0, metavar="S",
        help="socket timeout in seconds (default %(default)s)",
    ),
}

#: The workload flag group: which requests run, and how they report.
WORKLOAD = ("scenario_mix", "seed", "engine", "json")
#: The gateway flag group: the shape of the executor serving them.
GATEWAY = (
    "workers", "backend", "queue_cap", "policy", "deadline_ms", "micro_batch",
)


def add_flags(
    parser: argparse.ArgumentParser, *names: str, **defaults: Any
) -> None:
    """Add the shared flags named by ``names`` and by the keys of
    ``defaults`` (argparse dests, e.g. ``queue_cap``) to ``parser``.

    A keyword also overrides that flag's default.
    """
    for dest in dict.fromkeys(names + tuple(defaults)):
        flag = "--" + dest.replace("_", "-")
        spec = dict(FLAGS[flag])
        if dest in defaults:
            spec["default"] = defaults[dest]
        parser.add_argument(flag, **spec)


def build_requests(
    parser: argparse.ArgumentParser, args: argparse.Namespace, count: int
) -> List[RunRequest]:
    """The ``count``-request mixed batch the workload flags describe.

    A mix the generator rejects is a usage error (exit 2), not a crash.
    """
    try:
        scenarios = mixed_batch(count, mix=args.scenario_mix, seed0=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    return requests_from_scenarios(scenarios, engine=args.engine)


def sequential_check(
    requests: Sequence[RunRequest], engine: str, digest: str
) -> Dict[str, Any]:
    """Re-run ``requests`` on the in-process sequential backend.

    ``match`` holds only if every re-run passes and the digests are
    byte-identical.  No requests is a mismatch: a selfcheck over no runs
    proves nothing.
    """
    if not requests:
        return {"sequential_digest": "", "match": False}
    baseline = BatchService(workers=0, engine=engine).run_batch(requests)
    return {
        "sequential_digest": baseline.batch_digest(),
        "match": baseline.ok and baseline.batch_digest() == digest,
    }


def verdict(
    args: argparse.Namespace,
    doc: Mapping[str, Any],
    text: str,
    *,
    what: str,
    gates: Optional[Mapping[str, bool]] = None,
    failures: Sequence[RunSummary] = (),
) -> int:
    """Print the report and return the exit code.

    ``--json`` prints ``doc``; otherwise ``text``, then the
    ``doc["selfcheck"]`` outcome and one line per gate.  Failed runs and
    failed gates (a selfcheck mismatch counts as one) go to stderr and
    make the exit code 1.
    """
    gates = gates or {}
    check = doc.get("selfcheck")
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(text)
        if check is not None:
            status = "match" if check["match"] else "MISMATCH"
            print(f"selfcheck: sequential digest -> {status}")
        for gate, passed in gates.items():
            print(f"gate {gate}: {'pass' if passed else 'FAIL'}")
    for s in failures:
        print(f"FAIL {s.request.name}: {s.error}", file=sys.stderr)
    failed = [g for g, passed in gates.items() if not passed]
    if check is not None and not check["match"]:
        failed.append("selfcheck")
    if failed:
        print(f"{what} gates FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failures or failed else 0
