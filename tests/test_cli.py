"""The service command lines: shared flags, usage errors, serve contract."""

import ast
import json
import os
import queue
import signal
import subprocess
import sys
import threading
from argparse import Namespace
from pathlib import Path

import pytest

from repro.scenarios.__main__ import main as scenarios_main
from repro.scenarios.generators import mixed_batch
from repro.service import requests_from_scenarios
from repro.service.__main__ import main as service_main
from repro.service.batch import execute_request
from repro.service.chaos import main as chaos_main
from repro.service.cli import verdict
from repro.service.net import Client
from repro.service.net.__main__ import main as net_main
from repro.service.stream import main as stream_main

REPO = Path(__file__).resolve().parents[1]
SERVICE = REPO / "src" / "repro" / "service"

# Nothing listens on port 1, so a client that wrongly gets past argument
# checking fails fast instead of waiting on a socket.
CLIS = {
    "batch": (service_main, []),
    "stream": (stream_main, []),
    "chaos": (chaos_main, []),
    "net-client": (net_main, ["client", "--port", "1"]),
    "net-selfcheck": (net_main, ["selfcheck"]),
    "net-soak": (net_main, ["soak", "--duration", "1"]),
}
BAD = {"mix": ["--scenario-mix", "bogus"], "engine": ["--engine", "bogus"]}


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("cli", sorted(CLIS))
def test_bad_workload_flag_is_a_usage_error(cli, bad, capsys):
    main, prefix = CLIS[cli]
    with pytest.raises(SystemExit) as exc:
        main(prefix + BAD[bad])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error:" in err and "Traceback" not in err


def test_serve_rejects_an_unknown_engine_before_binding(capsys):
    with pytest.raises(SystemExit) as exc:
        net_main(["serve", "--port", "0", "--engine", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_scenarios_main_reads_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["repro.scenarios", "--kinds", "bogus"])
    with pytest.raises(SystemExit) as exc:
        scenarios_main()
    assert exc.value.code == 2
    assert "unknown kind" in capsys.readouterr().err


def test_verdict_reports_failed_gates_and_selfcheck(capsys):
    doc = {"selfcheck": {"sequential_digest": "ab", "match": False}}
    args = Namespace(json=False)
    code = verdict(args, doc, "report", what="demo", gates={"g": True})
    out, err = capsys.readouterr()
    assert code == 1
    assert out.splitlines() == [
        "report", "selfcheck: sequential digest -> MISMATCH", "gate g: pass",
    ]
    assert err == "demo gates FAILED: selfcheck\n"

    args = Namespace(json=True)
    assert verdict(args, {"ok": True}, "unused", what="demo") == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True}


def _string_constants(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def test_shared_flags_are_declared_once():
    """Every flag two service CLIs share is spelled in one place, and so
    is the sequential-digest selfcheck."""
    shared = [
        "--scenario-mix", "--seed", "--engine", "--workers", "--backend",
        "--queue-cap", "--policy", "--deadline-ms", "--micro-batch",
        "--selfcheck", "--no-warmup", "--record", "--json", "--host",
        "--port", "--timeout",
    ]
    files = sorted(SERVICE.rglob("*.py"))
    constants = [c for f in files for c in _string_constants(f)]
    for flag in shared:
        assert constants.count(flag) == 1, flag
    source = "".join(f.read_text(encoding="utf-8") for f in files)
    assert source.count("BatchService(workers=0") == 1


# -- the serve contract perfbench/rpc.py drives -----------------------------


def _first_line(stream, timeout):
    lines = queue.Queue()
    threading.Thread(
        target=lambda: lines.put(stream.readline()), daemon=True
    ).start()
    return lines.get(timeout=timeout)


def test_serve_subprocess_prints_address_serves_and_exits_on_sigint():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.net", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--backend", "process", "--workers", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO,
        env=env,
    )
    try:
        line = _first_line(proc.stdout, timeout=60)
        assert " serving on " in line, line
        host, port = line.split(" serving on ")[1].split()[0].rsplit(":", 1)
        requests = requests_from_scenarios(
            mixed_batch(6, seed0=11), engine="fast"
        )
        with Client(host, int(port), timeout=60) as client:
            summaries = client.run(requests, chunk=2)
        assert [s.digest for s in summaries] == [
            execute_request(r).digest for r in requests
        ]
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
