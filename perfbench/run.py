"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload clique-n256 --seed 0 --seconds 10 --trace 0

Workloads (the reasons of the gated ones are in ``BENCHMARK.json``):

* ``clique-n256`` — Lenzen routing and sorting at n=256 as in-process
  library calls on the fast engine (``clique.py``);
* ``rpc-mix`` — windowed full-taxonomy requests against a served
  gateway (``rpc.py``);
* ``rpc-small`` — closed loop of cheap requests against the same server.
  It runs by name but is not listed in ``BENCHMARK.json``: its ~5 ms
  round trips are dominated, at the tail, by scheduler stalls of a
  shared 2-vCPU host, so its run-to-run spread exceeds any usable bound.

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` is a separate run that records spans at the layer
boundaries, reports the per-layer metrics, each layer's self time, the
share of the end-to-end p50 no layer covers and the tracing overhead,
and checks that the layers account for the traced p50.

Every run checks its outputs (see ``check`` in each workload module);
a failed check prints the reason to stderr and exits 1 without a
result.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    SPEC,
    GateFailure,
    host_stamp,
    require_source,
)

WORKLOADS = ("clique-n256", "rpc-small", "rpc-mix")
#: the layers whose self time the traced run reports (``self_ms.<layer>``).
LAYERS = (
    "scenarios", "protocol", "verify", "digest",
    "transport", "gateway", "worker", "net",
)
#: |layers + unattributed - p50| allowed, as a share of the traced p50.
ACCOUNTING_TOLERANCE = 0.02


def per_layer_doc(workload: str, traced: dict) -> dict:
    """Every per-layer metric of ``BENCHMARK.json``; absent layers read 0."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    attr = traced["attribution"]
    values = dict(traced["values"])
    for layer in LAYERS:
        values[f"self_ms.{layer}"] = attr.layer_s.get(layer, 0.0) * 1e3
    values["trace.unattributed_frac"] = attr.unattributed_frac
    err = attr.accounting_error()
    print(
        f"{workload} accounting: layers {sum(attr.layer_s.values()) * 1e3:.3f} ms "
        f"+ unattributed {attr.unattributed_s * 1e3:.3f} ms vs traced p50 "
        f"{attr.e2e_p50_s * 1e3:.3f} ms (error {err:.2%})",
        flush=True,
    )
    if err > ACCOUNTING_TOLERANCE or attr.unattributed_s < 0:
        print(
            f"ACCOUNTING MISMATCH on {workload}: the per-layer self times and "
            f"trace.unattributed_frac do not account for the traced p50",
            flush=True,
        )
    moves = SPEC["moves"]
    out = {}
    for entry in bench["per_layer"]:
        name = entry["name"]
        out[name] = {"value": float(values.get(name, 0.0)), "unit": entry["unit"]}
        note = f" (moves {moves[name]})" if name in moves else ""
        print(f"  {name} = {out[name]['value']:.6g} {entry['unit']}{note}",
              flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    trace = bool(args.trace)
    stamp = host_stamp(args.seed, args.workload, trace)
    print(f"host {json.dumps(stamp, sort_keys=True)}", flush=True)
    try:
        if args.workload == "clique-n256":
            import clique

            result, attempted, failed = clique.run(args.seed, args.seconds, trace)
        else:
            import rpc

            result, attempted, failed = rpc.run(
                args.workload, args.seed, args.seconds, trace
            )
    except GateFailure as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer_doc(args.workload, result) if trace else result
    if not trace:
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}", flush=True)
        print(f"  failed_frac = {failed / attempted:.6g} ratio", flush=True)
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
