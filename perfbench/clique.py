"""Workload ``clique-n256``: Lenzen routing and sorting as library calls.

One pass is a Lenzen routing instance on ``routing/balanced`` and a
Lenzen sorting instance on ``sorting/uniform``, both at n=256 on the fast
engine, each built, run, verified by its problem oracle and digested in
this process.  The run measures whole passes (distinct seeds per pass)
until ``--seconds`` have elapsed; one pass is the minimum.

Correctness: every instance passes its oracle and takes exactly the
paper's 16 (routing) or 37 (sorting) rounds, and with the default seed
the first pass's digest equals the one recorded in ``spec.json``.  For
other seeds no second, in-process execution is made: here the timed
path already is the in-process library call, and repeating it would
double a run that is dominated by two 10-20 s instances.

Run as a script (``python3 perfbench/clique.py probe``) it is the set-up
probe: a fresh interpreter that imports the library and answers one cold
instance per algorithm, which is what a library user pays before the
first answer.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    SPEC,
    GateFailure,
    Tracer,
    attribute,
    metric,
    p50,
    require_source,
    source_env,
    tail,
)

require_source()

from repro.core import plan_cache  # noqa: E402
from repro.core.engine import RunRequest, RunSummary  # noqa: E402
from repro.routing import route_lenzen, verify_delivery  # noqa: E402
from repro.scenarios import Scenario  # noqa: E402
from repro.scenarios.runner import output_digest  # noqa: E402
from repro.service.batch import summaries_digest  # noqa: E402
from repro.sorting import sort_lenzen, verify_sorted_batches  # noqa: E402

N = 256
#: (kind, family, protocol call, its oracle, rounds the paper's protocol takes)
INSTANCES = (
    ("routing", "balanced", route_lenzen, verify_delivery, 16),
    ("sorting", "uniform", sort_lenzen, verify_sorted_batches, 37),
)
SETUP_REPEATS = 9
PROBE_N = 16


def pass_seed(seed: int, k: int) -> int:
    """Instance seed of pass ``k``: pass 0 uses the run seed itself."""
    return seed if k == 0 else seed * 1000 + k


def run_instance(tracer: Tracer, kind: str, family: str, protocol, oracle,
                 rounds: int, seed: int, n: int = N) -> Tuple[dict, RunSummary]:
    """Build, run, verify and digest one instance inside a ``call`` span."""
    algo = "route" if kind == "routing" else "sort"
    t0 = time.perf_counter()
    root = tracer.add("call", t0, t0)
    scenario = Scenario(kind, family, n, seed)
    workload, _ = tracer.timed("scenarios.build", scenario.build, parent=root)
    result, _ = tracer.timed(
        f"protocol.{algo}", lambda w: protocol(w, engine="fast"), workload,
        parent=root,
    )
    tracer.timed("verify", oracle, workload, result.outputs, parent=root)
    digest, _ = tracer.timed(
        "digest", output_digest, kind, result.outputs, parent=root
    )
    tracer.spans[root].end = time.perf_counter()
    if result.rounds != rounds:
        raise GateFailure(
            f"{scenario.name}: Lenzen {algo} took {result.rounds} rounds, "
            f"the paper's protocol takes {rounds}"
        )
    summary = RunSummary(
        request=RunRequest(kind, family, n, seed, engine="fast"), ok=True,
        rounds=result.rounds, total_packets=result.stats.total_packets,
        digest=digest,
    )
    return {"algo": algo, "span": root, "packets": result.stats.total_packets,
            "rounds": result.rounds}, summary


def run_pass(tracer: Tracer, seed: int, k: int):
    return [
        run_instance(tracer, *spec, seed=pass_seed(seed, k))
        for spec in INSTANCES
    ]


def measure_setup() -> List[float]:
    """Wall seconds of :data:`SETUP_REPEATS` fresh-interpreter probes."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "probe"],
            env=source_env(), capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise GateFailure(f"set-up probe failed:\n{proc.stderr}")
    return times


def measure(seed: int, seconds: float) -> dict:
    """Timed passes; returns the raw observations of this run."""
    cache = plan_cache()
    tracer = Tracer()
    hits0, misses0, _ = cache.stats()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(tracer, seed, len(passes)))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    hits, misses, _ = cache.stats()
    return {
        "tracer": tracer, "passes": passes, "wall": wall, "cpu": cpu,
        "hits": hits - hits0, "misses": misses - misses0,
    }


def check_digest(seed: int, summaries) -> str:
    digest = summaries_digest(summaries)
    if seed == SPEC["default_seed"]:
        want = SPEC["digests"]["clique-n256"]
        if digest != want:
            raise GateFailure(
                f"clique-n256 digest {digest} != recorded {want} for the "
                f"default seed"
            )
    return digest


def _calls(obs) -> List[float]:
    spans = obs["tracer"].spans
    return [spans[r["span"]].duration for p in obs["passes"] for r, _ in p]


def run(seed: int, seconds: float, trace: bool) -> Tuple[dict, int, int]:
    """One benchmark run: ``(metrics, attempted, failed)``."""
    setup = None if trace else measure_setup()
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        # Untraced reference pass for trace.overhead_frac (and the memory
        # high-water mark); the plan cache is cleared so both passes
        # start equally cold.
        ref = measure(seed, 0)
        rss_ref = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        plan_cache().clear()
    obs = measure(seed, seconds)
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    digest = check_digest(seed, [s for _, s in obs["passes"][0]])
    print(f"clique-n256 digest {digest} (pass 0, seed {seed})", flush=True)

    records = [r for p in obs["passes"] for r, _ in p]
    calls = _calls(obs)
    packets = sum(r["packets"] for r in records)
    count = len(records)
    if not trace:
        pct, tail_s, beyond = tail(calls)
        print(
            f"latency_tail_ms is p{pct:g} of {count} calls "
            f"({beyond} beyond it)", flush=True,
        )
        metrics = {
            "setup_s": metric(p50(setup), "s"),
            "throughput_ips": metric(count / obs["wall"], "1/s"),
            "packets_per_s": metric(packets / obs["wall"], "1/s"),
            "latency_p50_ms": metric(p50(calls) * 1e3, "ms"),
            "latency_tail_ms": metric(tail_s * 1e3, "ms"),
            "completed_frac": metric(1.0, "ratio"),
            "cpu_ms_per_instance": metric(obs["cpu"] * 1e3 / count, "ms"),
            "peak_rss_mb": metric(rss1 / 1024.0, "MB"),
        }
        return metrics, count, 0

    spans = obs["tracer"].spans
    by_name: Dict[str, List[float]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s.duration)
    first = obs["passes"][0]
    lookups = obs["hits"] + obs["misses"]
    values = {
        "scenarios.build_ms": p50(by_name["scenarios.build"]) * 1e3,
        "protocol.route_ms": p50(by_name["protocol.route"]) * 1e3,
        "protocol.sort_ms": p50(by_name["protocol.sort"]) * 1e3,
        "protocol.us_per_packet": (
            sum(by_name["protocol.route"]) + sum(by_name["protocol.sort"])
        ) * 1e6 / packets,
        "protocol.rounds": sum(r["rounds"] for r, _ in first),
        "protocol.packets": sum(r["packets"] for r, _ in first),
        "protocol.peak_kib_per_node": (rss_ref - rss0) / N,
        "plan_cache.hit_ratio": obs["hits"] / lookups if lookups else 0.0,
        "plan_cache.misses": obs["misses"],
        "verify.ms": p50(by_name["verify"]) * 1e3,
        "digest.ms": p50(by_name["digest"]) * 1e3,
        "trace.overhead_frac": p50(calls) / p50(_calls(ref)) - 1.0,
    }
    return {"attribution": attribute(spans, "call"), "values": values}, count, 0


def probe() -> int:
    """Set-up probe body: one cold instance per algorithm after import."""
    tracer = Tracer()
    for spec in INSTANCES:
        run_instance(tracer, *spec, seed=0, n=PROBE_N)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["probe"]:
        raise SystemExit("usage: clique.py probe")
    raise SystemExit(probe())
