"""Span wrappers around the public codec functions of the wire path.

The same wrappers are installed in the benchmark (client side) and, by
``server_shim.py``, in the server process.  Each wrapper records
``(name, start, end, nbytes)`` into a caller-owned list; ``nbytes`` is
the length of a ``bytes`` result and 0 otherwise.  Only the process that
installed the wrappers records: pool workers forked from the server
inherit the wrappers but their calls are skipped, because worker time
is split from the summaries' own ``queue_s`` / ``wall_s`` / ``latency_s``.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable, List, Tuple

Record = Tuple[str, float, float, int]

#: (module, attribute, span name).  The wire dialects bind the RENV codec
#: under their own module names; the gateway's executor hop calls it from
#: ``repro.service.transport`` itself, so the two uses get distinct spans.
TARGETS = (
    ("repro.service.net._v0", "encode_requests", "transport.encode"),
    ("repro.service.net._v0", "decode_requests", "transport.decode"),
    ("repro.service.net._v0", "encode_summaries", "transport.encode"),
    ("repro.service.net._v0", "decode_summaries", "transport.decode"),
    ("repro.service.net._v2", "encode_requests", "transport.encode"),
    ("repro.service.net._v2", "decode_requests", "transport.decode"),
    ("repro.service.net._v2", "decode_summaries", "transport.decode"),
    ("repro.service.transport", "encode_requests", "transport.hop_encode"),
    ("repro.service.transport", "decode_summaries", "transport.hop_decode"),
    ("repro.service.net.client", "encode_frame", "net.frame_encode"),
    ("repro.service.net.server", "encode_frame", "net.frame_encode"),
)


def _wrap(fn: Callable, name: str, sink: List[Record], pid: int) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() != pid:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        nbytes = len(out) if isinstance(out, (bytes, bytearray)) else 0
        sink.append((name, t0, t1, nbytes))
        return out

    return wrapper


def install(sink: List[Record]) -> Callable[[], None]:
    """Install every wrapper; returns a function that removes them."""
    import importlib

    from repro.service.net.framing import FrameDecoder

    pid = os.getpid()
    undo = []
    for modname, attr, name in TARGETS:
        module = importlib.import_module(modname)
        original = getattr(module, attr)
        setattr(module, attr, _wrap(original, name, sink, pid))
        undo.append((module, attr, original))
    original_next = FrameDecoder.next_frame
    FrameDecoder.next_frame = _wrap(original_next, "net.frame_decode", sink, pid)
    undo.append((FrameDecoder, "next_frame", original_next))

    def remove() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return remove
