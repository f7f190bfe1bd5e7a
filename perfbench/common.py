"""Shared helpers of the benchmark: percentiles, spans, results, host stamp.

Nothing here imports the program under test, so the helpers (and their
unit tests in ``check_helpers.py``) run without ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())

#: Tail percentiles tried, highest first; ``tail`` picks the first one
#: with at least ``TAIL_MIN_BEYOND`` samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class GateFailure(Exception):
    """A correctness gate failed: the run prints no result and exits 1."""


def require_source() -> None:
    """Exit 2 unless the program's source tree is present beside us."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC}/repro; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_env() -> Dict[str, str]:
    """Environment for subprocesses that import the program from ``src/``."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


# -- percentiles --------------------------------------------------------------


def p50(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def nearest_rank(ordered: Sequence[float], pct: float) -> int:
    """Index of the nearest-rank ``pct`` percentile in sorted ``ordered``."""
    return max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, samples_beyond)`` of the reported tail.

    The tail is the highest of :data:`TAIL_PERCENTILES` that leaves at
    least ten samples strictly beyond its rank.  With too few samples for
    any of them the tail is the maximum, reported as percentile 100 with
    zero samples beyond, so the reader sees that it is not a percentile.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        k = nearest_rank(ordered, pct)
        beyond = len(ordered) - 1 - k
        if beyond >= TAIL_MIN_BEYOND:
            return pct, float(ordered[k]), beyond
    return 100.0, float(ordered[-1]), 0


# -- spans ---------------------------------------------------------------------


@dataclass
class Span:
    """One timed interval: ``[start, end)`` seconds on the monotonic clock."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span store; nothing is written until the caller asks."""

    spans: List[Span] = field(default_factory=list)

    def add(
        self, name: str, start: float, end: float, parent: Optional[int] = None
    ) -> int:
        span = Span(len(self.spans), name, start, end, parent)
        self.spans.append(span)
        return span.id

    def timed(
        self, name: str, fn: Callable, *args, parent: Optional[int] = None
    ):
        """Call ``fn(*args)`` inside a span; returns ``(result, span_id)``."""
        t0 = time.perf_counter()
        out = fn(*args)
        return out, self.add(name, t0, time.perf_counter(), parent)


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def layer_of(name: str) -> str:
    """Layer a span name belongs to: the part before the first dot."""
    return name.split(".", 1)[0]


@dataclass
class Attribution:
    """Per-request self time by layer over the requests around the p50."""

    e2e_p50_s: float
    layer_s: Dict[str, float]
    unattributed_s: float

    @property
    def unattributed_frac(self) -> float:
        return self.unattributed_s / self.e2e_p50_s

    def accounting_error(self) -> float:
        """|sum of layers + unattributed - e2e p50| as a share of the p50."""
        total = sum(self.layer_s.values()) + self.unattributed_s
        return abs(total - self.e2e_p50_s) / self.e2e_p50_s


def attribute(spans: Sequence[Span], root: str, band: float = 0.05) -> Attribution:
    """Split the end-to-end p50 of ``root`` spans into layer self times.

    Requests are the spans named ``root``; every other span hangs below
    one of them.  The layer times are means over the requests whose
    duration lies within ``band`` (in percentile terms) of the median, so
    they describe a median request.  A root's own self time is what no
    layer covers (``unattributed``).  Layer and residue are computed from
    the span tree independently of the p50 itself, so double-counted or
    overflowing spans show up in :meth:`Attribution.accounting_error`.
    """
    roots = sorted((s for s in spans if s.name == root), key=lambda s: s.duration)
    if not roots:
        raise ValueError(f"no {root!r} spans")
    lo = nearest_rank(roots, 50.0 - 100.0 * band)
    hi = max(lo, nearest_rank(roots, 50.0 + 100.0 * band))
    chosen = {s.id for s in roots[lo:hi + 1]}
    by_parent: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            by_parent.setdefault(s.parent, []).append(s)
    own = self_times(spans)
    layer_s: Dict[str, float] = {}
    residue = 0.0

    def walk(span_id: int) -> None:
        for child in by_parent.get(span_id, ()):
            key = layer_of(child.name)
            layer_s[key] = layer_s.get(key, 0.0) + own[child.id]
            walk(child.id)

    for rid in chosen:
        residue += own[rid]
        walk(rid)
    k = len(chosen)
    return Attribution(
        e2e_p50_s=p50([s.duration for s in roots]),
        layer_s={name: t / k for name, t in sorted(layer_s.items())},
        unattributed_s=residue / k,
    )


# -- results -------------------------------------------------------------------


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def host_stamp(seed: int, workload: str, trace: bool) -> Dict[str, object]:
    """Host fingerprint, source revision and seed for the result header."""
    head = ROOT / ".git" / "HEAD"
    revision = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            revision = target.read_text().strip() if target.is_file() else ref
        else:
            revision = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": revision,
        "src_sha256": digest.hexdigest()[:16],
    }
