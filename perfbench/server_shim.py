"""Traced server: ``python -m repro.service.net serve`` with span wrappers.

Usage: ``python3 perfbench/server_shim.py SPANS.json serve [serve args]``.
Installs the wrappers of ``instrument.py`` in the server process, serves
until SIGINT exactly as the plain command does, then writes the spans it
kept in memory to ``SPANS.json`` and exits with the server's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_source  # noqa: E402


def main(argv) -> int:
    require_source()
    import instrument
    from repro.service.net.__main__ import main as net_main

    out, serve_args = Path(argv[0]), argv[1:]
    spans = []
    instrument.install(spans)
    try:
        code = net_main(serve_args)
    finally:
        out.write_text(json.dumps(spans))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
