"""Workloads ``rpc-small`` and ``rpc-mix``: a client against a served gateway.

The server is ``python -m repro.service.net serve --backend process
--workers 2`` in its own subprocess (its own process group), on an
ephemeral port, with the default transport and a negotiated protocol
version.  The benchmark is the one client, on one connection:

* ``rpc-small`` — closed loop, one request outstanding at a time, of
  ``multiplex/bursty`` n=16 requests;
* ``rpc-mix`` — windowed: a new request is submitted whenever fewer than
  a session quota's worth are outstanding; collection is in submission
  order, as ``Client.run`` delivers.  Requests are the full-taxonomy
  ``remote_selfcheck_batch`` (n=16/25).

Requests come in passes of a fixed composition (family and size); each
pass draws fresh instance seeds from the run seed, and the run measures
whole passes until ``--seconds`` have passed, so every run does the same
mix of work on instances no earlier pass has warmed.  Set-up ends when a
freshly launched server has answered one request per structural key of
the workload.  Each server is stopped with SIGINT and must drain, exit
0, leave no process of its group behind and no new ``renv-*``
shared-memory segment.
"""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import instrument
from common import (
    ROOT,
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

import repro.scenarios.generators as generators  # noqa: E402
import repro.scenarios.runner as runner  # noqa: E402
from repro.scenarios.generators import Scenario, remote_selfcheck_batch  # noqa: E402
from repro.service.batch import (  # noqa: E402
    execute_request,
    requests_from_scenarios,
    structural_key,
    summaries_digest,
)
from repro.service.net import Client  # noqa: E402

HERE = Path(__file__).resolve().parent
SERVE_ARGS = (
    "serve", "--host", "127.0.0.1", "--port", "0",
    "--backend", "process", "--workers", "2",
)
#: server launches per run; the median launch-to-first-reply is setup_s
#: and the last launched server is the one measured.
SETUP_LAUNCHES = 5
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
#: how long the stopped server's process group may take to empty.
ORPHAN_GRACE_S = 10.0
SHM_DIR = Path("/dev/shm")

#: requests per pass of each workload.
PASS_SIZE = {"rpc-small": 64, "rpc-mix": 128}
ROUNDS = {"routing": 16, "sorting": 37}
#: instance seeds of pass k of run seed s start at s * SEED_STRIDE + k * size.
SEED_STRIDE = 1_000_000
#: run seed whose first pass warms each server; no timed run uses it.
WARM_SEED = 1_000_000


# -- requests ----------------------------------------------------------------


def make_pass(workload: str, seed: int, k: int):
    """Requests of pass ``k``: fixed composition, seeds unique to the pass."""
    count = PASS_SIZE[workload]
    seed0 = seed * SEED_STRIDE + k * count
    if workload == "rpc-small":
        scenarios = [
            Scenario("multiplex", "bursty", 16, seed0 + i) for i in range(count)
        ]
    else:
        scenarios = remote_selfcheck_batch(count, seed0=seed0)
    return requests_from_scenarios(scenarios, engine="fast")


def warm_requests(workload: str):
    """One request per structural key of the workload, on untimed seeds."""
    first = {}
    for req in make_pass(workload, WARM_SEED, 0):
        first.setdefault(structural_key(req), req)
    return list(first.values())


# -- load loops ---------------------------------------------------------------


@dataclass
class Sample:
    """One request as the client saw it (monotonic-clock seconds)."""

    index: int
    submit0: float
    submit1: float
    collect0: float
    collect1: float
    summary: object

    @property
    def latency(self) -> float:
        return self.collect1 - self.submit0


def _done(count: int, total: int, t_start: float, seconds: float) -> bool:
    """Stop at the first whole pass after ``seconds``."""
    return (
        count > 0 and count % total == 0
        and time.perf_counter() - t_start >= seconds
    )


def _requests(passes: Callable[[int], Sequence]):
    """Endless stream of ``(index, request)`` over passes 0, 1, 2, ..."""
    index, k = 0, 0
    while True:
        for req in passes(k):
            yield index, req
            index += 1
        k += 1


def closed_loop(
    client, passes: Callable[[int], Sequence], size: int, seconds: float
) -> List[Sample]:
    """One outstanding request: submit, collect, next."""
    samples: List[Sample] = []
    stream = _requests(passes)
    t_start = time.perf_counter()
    while not _done(len(samples), size, t_start, seconds):
        index, req = next(stream)
        s0 = time.perf_counter()
        channel = client.submit([req])
        s1 = time.perf_counter()
        (summary,) = client.collect(channel)
        samples.append(Sample(index, s0, s1, s1, time.perf_counter(), summary))
    return samples


def windowed(
    client, passes: Callable[[int], Sequence], size: int, seconds: float,
    window: int,
) -> List[Sample]:
    """Keep ``window`` requests outstanding; collect in submission order."""
    if window < 1:
        raise ValueError("window must be >= 1")
    samples: List[Sample] = []
    pending: deque = deque()

    def collect_oldest() -> None:
        index, channel, s0, s1 = pending.popleft()
        c0 = time.perf_counter()
        (summary,) = client.collect(channel)
        samples.append(Sample(index, s0, s1, c0, time.perf_counter(), summary))

    stream = _requests(passes)
    t_start = time.perf_counter()
    sent = 0
    while not _done(sent, size, t_start, seconds):
        if len(pending) >= window:
            collect_oldest()
        index, req = next(stream)
        s0 = time.perf_counter()
        channel = client.submit([req])
        pending.append((index, channel, s0, time.perf_counter()))
        sent += 1
    while pending:
        collect_oldest()
    return samples


def drive(workload: str, client, seed: int, seconds: float) -> List[Sample]:
    size = PASS_SIZE[workload]

    def passes(k: int):
        return make_pass(workload, seed, k)

    if workload == "rpc-small":
        return closed_loop(client, passes, size, seconds)
    window = min(client.session_quota, 64)
    return windowed(client, passes, size, seconds, window)


# -- the server process --------------------------------------------------------


def _shm_segments() -> set:
    if not SHM_DIR.is_dir():
        return set()
    return {name for name in os.listdir(SHM_DIR) if name.startswith("renv-")}


def _default_sigint() -> None:
    """Child-side: SIGINT back to its default, so the server can install
    its own handler even when this benchmark was started with SIGINT
    ignored (as a shell does for background jobs)."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _children_usage() -> Tuple[float, float]:
    """(CPU seconds, peak RSS KiB) of every reaped descendant so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss


class Server:
    """One ``serve`` subprocess, optionally through the traced shim."""

    def __init__(self, spans_path: Optional[Path] = None) -> None:
        self.spans_path = spans_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.cpu_s = 0.0
        self._cpu0 = 0.0
        self._shm0: set = set()

    def start(self) -> "Server":
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "repro.service.net", *SERVE_ARGS]
        else:
            cmd = [
                sys.executable, str(HERE / "server_shim.py"),
                str(self.spans_path), *SERVE_ARGS,
            ]
        self._shm0 = _shm_segments()
        self._cpu0 = _children_usage()[0]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=source_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True, preexec_fn=_default_sigint,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if " serving on " not in line:
            self.kill()
            raise GateFailure(f"server did not become ready: {line!r}")
        self.port = int(line.split(" serving on ", 1)[1].split()[0].rsplit(":", 1)[1])
        return self

    def kill(self) -> None:
        """Hard stop of the whole process group (error paths only)."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.communicate()
        self.proc = None

    def stop(self) -> None:
        """SIGINT, graceful drain, and the clean-shutdown gate."""
        proc, self.proc = self.proc, None
        proc.send_signal(signal.SIGINT)
        try:
            _, err = proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # An exited server whose output pipes are still open has left
            # processes of its group behind.
            exited = proc.poll() is not None
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise GateFailure(
                "server left orphan processes behind" if exited
                else "server did not drain and exit after SIGINT"
            )
        self.cpu_s = _children_usage()[0] - self._cpu0
        if proc.returncode != 0:
            raise GateFailure(f"server exited {proc.returncode}:\n{err}")
        deadline = time.monotonic() + ORPHAN_GRACE_S
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                raise GateFailure("server left orphan processes behind")
            time.sleep(0.05)
        leaked = _shm_segments() - self._shm0
        if leaked:
            raise GateFailure(f"server leaked shm segments: {sorted(leaked)}")


def launch(workload: str, spans_path: Optional[Path] = None):
    """Start a server and wait until it has warmed; ``(server, client, s)``."""
    t0 = time.perf_counter()
    server = Server(spans_path).start()
    try:
        client = Client("127.0.0.1", server.port, timeout=120.0).connect()
        client.collect(client.submit(warm_requests(workload)))
    except BaseException:
        server.kill()
        raise
    return server, client, time.perf_counter() - t0


def session(spans_path, workload: str, seed: int, seconds: float):
    """Launch, drive, sample metrics, stop; returns the observations."""
    server, client, setup_s = launch(workload, spans_path)
    try:
        wire0 = client.bytes_sent + client.bytes_received
        t0 = time.perf_counter()
        samples = drive(workload, client, seed, seconds)
        wall = time.perf_counter() - t0
        wire = client.bytes_sent + client.bytes_received - wire0
        server_metrics = client.metrics()
        client.close()
    except BaseException:
        server.kill()
        raise
    server.stop()
    return {
        "samples": samples, "wall": wall, "wire": wire, "t0": t0,
        "t1": t0 + wall, "metrics": server_metrics, "setup_s": setup_s,
        "cpu_s": server.cpu_s,
    }


# -- correctness ---------------------------------------------------------------


def check(workload: str, seed: int, samples: List[Sample], reexecuted=None) -> str:
    """The correctness gate; returns the first pass's digest.

    Every summary must be completed and verified by its problem oracle
    (``ok``), Lenzen routing and sorting must take exactly 16 and 37
    rounds, and the first pass's digest must equal the recorded one
    (default seed) or an in-process re-execution (any other seed;
    ``reexecuted`` passes one already made).
    """
    for s in samples:
        summ = s.summary
        if summ.status != "completed" or not summ.ok:
            raise GateFailure(
                f"{summ.request.name}: status {summ.status!r}, ok={summ.ok}, "
                f"error {summ.error!r}"
            )
        want = ROUNDS.get(summ.request.kind)
        if want is not None and summ.rounds != want:
            raise GateFailure(
                f"{summ.request.name}: {summ.rounds} rounds, Lenzen takes {want}"
            )
    first = make_pass(workload, seed, 0)
    digest = summaries_digest(s.summary for s in samples[: len(first)])
    if seed == SPEC["default_seed"]:
        want_digest = SPEC["digests"][workload]
        source = "recorded"
    else:
        if reexecuted is None:
            reexecuted = [execute_request(r) for r in first]
        want_digest = summaries_digest(reexecuted)
        source = "in-process re-execution"
    if digest != want_digest:
        raise GateFailure(
            f"{workload} digest {digest} != {source} digest {want_digest}"
        )
    return digest


# -- metrics -------------------------------------------------------------------


def pass_rates(samples: List[Sample], size: int, t0: float) -> Tuple[List[float], List[float]]:
    """Per-pass ``(requests/s, packets/s)``; a pass ends at its last reply."""
    ips, pps = [], []
    start = t0
    for k in range(0, len(samples), size):
        chunk = samples[k:k + size]
        end = max(s.collect1 for s in chunk)
        ips.append(len(chunk) / (end - start))
        pps.append(sum(s.summary.total_packets for s in chunk) / (end - start))
        start = end
    return ips, pps


def e2e_metrics(obs, size: int, setups: List[float], setup_cpu: List[float],
                rss_kib: int) -> dict:
    """The end-to-end metrics; rates are medians over passes."""
    samples = obs["samples"]
    lat = [s.latency for s in samples]
    pct, tail_s, beyond = tail(lat)
    print(
        f"latency_tail_ms is p{pct:g} of {len(lat)} requests "
        f"({beyond} beyond it)", flush=True,
    )
    ips, pps = pass_rates(samples, size, obs["t0"])
    timed_cpu = obs["cpu_s"] - p50(setup_cpu)
    return {
        "setup_s": metric(p50(setups), "s"),
        "throughput_ips": metric(p50(ips), "1/s"),
        "packets_per_s": metric(p50(pps), "1/s"),
        "latency_p50_ms": metric(p50(lat) * 1e3, "ms"),
        "latency_tail_ms": metric(tail_s * 1e3, "ms"),
        "completed_frac": metric(1.0, "ratio"),
        "cpu_ms_per_instance": metric(timed_cpu * 1e3 / len(samples), "ms"),
        "peak_rss_mb": metric(rss_kib / 1024.0, "MB"),
    }


def request_spans(obs, client_records, server_records) -> Tracer:
    """One ``request`` root per sample with its layer spans below it.

    Client-side codec spans hang below the request whose submit or
    collect call they ran in.  The rest of a request's path is placed
    after its submit call, in path order: the server's wire decode (its
    per-request mean), then ``gateway`` (``latency_s``) holding ``queue``
    (``queue_s``), the executor hop's codec (per-request mean) and
    ``worker`` (``wall_s``) — the gateway's self time is the hop — then
    the server's wire encode (per-request mean).
    """
    samples = obs["samples"]
    n = len(samples)
    server_mean: Dict[str, float] = {}
    for name, t0, t1, _ in server_records:
        server_mean[name] = server_mean.get(name, 0.0) + (t1 - t0) / n
    tracer = Tracer()
    calls = sorted(
        [(s.submit0, s.submit1, k) for k, s in enumerate(samples)]
        + [(s.collect0, s.collect1, k) for k, s in enumerate(samples)]
    )
    roots = [tracer.add("request", s.submit0, s.collect1) for s in samples]
    ci = 0
    for name, t0, t1, _ in sorted(client_records, key=lambda r: r[1]):
        while ci < len(calls) and calls[ci][1] < t0:
            ci += 1
        if ci < len(calls) and calls[ci][0] <= t0:
            tracer.add(name, t0, t1, roots[calls[ci][2]])
    recv = ("net.frame_decode", "transport.decode")
    hop = ("transport.hop_encode", "transport.hop_decode")
    send = ("transport.encode", "net.frame_encode")
    for root, s in zip(roots, samples):
        summ = s.summary
        t = s.submit1
        for name in recv:
            t = _place(tracer, name, t, server_mean.get(name, 0.0), root)
        gw = tracer.add("gateway", t, t + summ.latency_s, root)
        u = _place(tracer, "gateway.queue", t, summ.queue_s, gw)
        for name in hop:
            u = _place(tracer, name, u, server_mean.get(name, 0.0), gw)
        _place(tracer, "worker", u, summ.wall_s, gw)
        t += summ.latency_s
        for name in send:
            t = _place(tracer, name, t, server_mean.get(name, 0.0), root)
    return tracer


def _place(tracer: Tracer, name: str, start: float, dur: float, parent: int) -> float:
    tracer.add(name, start, start + dur, parent)
    return start + dur


def layer_metrics(obs, client_records, server_records, size, ref_p50_s) -> dict:
    """Per-layer values of a traced session (see ``spec.json``)."""
    samples = obs["samples"]
    n = len(samples)
    t0, t1 = obs["t0"], obs["t1"]
    server_records = [r for r in server_records if t0 <= r[1] <= t1]
    records = [r for r in client_records if t0 <= r[1] <= t1] + server_records

    def seconds_in(names) -> float:
        return sum(r[2] - r[1] for r in records if r[0] in names)

    def bytes_in(names) -> int:
        return sum(r[3] for r in records if r[0] in names)

    codec_enc = ("transport.encode", "transport.hop_encode")
    codec_dec = ("transport.decode", "transport.hop_decode")
    frames = ("net.frame_encode", "net.frame_decode")
    summ = [s.summary for s in samples]
    m = obs["metrics"]
    gw = m.get("gateway", {})
    hits = sum(x.shared_cache_hits for x in summ)
    misses = sum(x.shared_cache_misses for x in summ)
    tracer = request_spans(
        obs, [r for r in client_records if t0 <= r[1] <= t1], server_records
    )
    lat = [s.latency for s in samples]
    values = {
        "transport.encode_us_per_req": seconds_in(codec_enc) * 1e6 / n,
        "transport.decode_us_per_req": seconds_in(codec_dec) * 1e6 / n,
        "transport.bytes_per_req": bytes_in(codec_enc) / n,
        "gateway.queue_ms": p50([x.queue_s for x in summ]) * 1e3,
        "gateway.queue_depth_mean": float(gw.get("queue_depth_mean", 0.0)),
        "gateway.hop_ms": p50([x.latency_s - x.queue_s - x.wall_s for x in summ]) * 1e3,
        "gateway.completed_ratio": gw.get("completed", 0) / max(1, gw.get("offered", 0)),
        "gateway.pool_replacements": gw.get("pool_replacements", 0),
        "worker.run_ms": p50([x.wall_s for x in summ]) * 1e3,
        "net.overhead_ms": p50([s.latency - s.summary.latency_s for s in samples]) * 1e3,
        "net.frame_codec_us": seconds_in(frames) * 1e6 / n,
        "net.bytes_per_req": obs["wire"] / n,
        "net.idempotency_hits": m.get("idempotency", {}).get("hits", 0),
        "plan_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "plan_cache.misses": misses,
        "protocol.rounds": sum(x.rounds for x in summ[:size]),
        "protocol.packets": sum(x.total_packets for x in summ[:size]),
        "trace.overhead_frac": p50(lat) / ref_p50_s - 1.0,
    }
    return {"attribution": attribute(tracer.spans, "request"), "values": values}


def reexecution_layers(requests) -> Tuple[dict, list]:
    """Worker-side layers timed on an untimed in-process re-execution.

    The pool workers run ``execute_request``; the same calls are made
    here with span wrappers on the scenario runner's module names.
    Returns the layer values and the re-executed summaries.
    """
    spans: Dict[str, List[float]] = {}
    packets = [0]

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            out = fn(*args, **kwargs)
            spans.setdefault(name, []).append(time.perf_counter() - t)
            if name.startswith("protocol."):
                packets[0] += out.stats.total_packets
            return out
        return wrapper

    patches = [
        (Scenario, "build", "scenarios.build"),
        (runner, "route_lenzen", "protocol.route"),
        (runner, "sort_lenzen", "protocol.sort"),
        (runner, "verify_delivery", "verify"),
        (runner, "verify_sorted_batches", "verify"),
        (generators.BurstyMultiplexWorkload, "verify", "verify"),
        (runner, "output_digest", "digest"),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, name in patches:
        setattr(owner, attr, timed(name, getattr(owner, attr)))
    try:
        summaries = [execute_request(r) for r in requests]
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)

    def med_ms(name):
        return p50(spans[name]) * 1e3 if name in spans else 0.0

    proto = sum(spans.get("protocol.route", [])) + sum(spans.get("protocol.sort", []))
    return {
        "scenarios.build_ms": med_ms("scenarios.build"),
        "protocol.route_ms": med_ms("protocol.route"),
        "protocol.sort_ms": med_ms("protocol.sort"),
        "protocol.us_per_packet": proto * 1e6 / packets[0] if packets[0] else 0.0,
        "verify.ms": med_ms("verify"),
        "digest.ms": med_ms("digest"),
    }, summaries


# -- runs ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run: ``(metrics, attempted, failed)``."""
    if not trace:
        setups, setup_cpu = [], []
        for _ in range(SETUP_LAUNCHES - 1):
            server, client, setup_s = launch(workload)
            client.close()
            server.stop()
            setups.append(setup_s)
            setup_cpu.append(server.cpu_s)
        obs = session(None, workload, seed, seconds)
        setups.append(obs["setup_s"])
        digest = check(workload, seed, obs["samples"])
        print(f"{workload} digest {digest} (pass 0, seed {seed})", flush=True)
        rss = _children_usage()[1]
        n = len(obs["samples"])
        size = PASS_SIZE[workload]
        return e2e_metrics(obs, size, setups, setup_cpu, rss), n, 0

    # Traced: an untraced reference session, then a session against the
    # traced server shim with the client-side wrappers installed.
    ref = session(None, workload, seed, seconds)
    client_records: List[tuple] = []
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        spans_path = Path(tmp) / "server_spans.json"
        remove = instrument.install(client_records)
        try:
            obs = session(spans_path, workload, seed, seconds)
        finally:
            remove()
        server_records = [tuple(r) for r in json.loads(spans_path.read_text())]
    worker_layers, reexecuted = reexecution_layers(make_pass(workload, seed, 0))
    for traced in (ref, obs):
        check(workload, seed, traced["samples"], reexecuted)
    result = layer_metrics(
        obs, client_records, server_records, PASS_SIZE[workload],
        p50([s.latency for s in ref["samples"]]),
    )
    result["values"].update(worker_layers)
    return result, len(obs["samples"]), 0
