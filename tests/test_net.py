"""The network service: framing, negotiation, parity, shutdown.

The ISSUE 9 satellites: typed errors on every malformed-input path
(unknown magic, oversized frames, mid-frame disconnects — never hangs),
a ``_v0`` client downgrading cleanly against a ``_latest`` server, the
256-instance digest-parity differential (remote client == MockClient ==
in-process gateway == sequential), the drain test (server shutdown with
in-flight tickets resolves every future), per-session quotas, and the
docstring pass over the public client API.
"""

import socket
import time

import pytest

from repro.scenarios.generators import (
    REMOTE_SELFCHECK_MIX,
    mixed_batch,
    remote_selfcheck_batch,
)
from repro.scenarios.runner import ALGORITHMS, AlgorithmSpec, register_algorithm
from repro.service import BatchService, requests_from_scenarios, summaries_digest
from repro.service.net import (
    LATEST,
    PROTOCOLS,
    SUPPORTED_VERSIONS,
    BadMagic,
    Frame,
    FrameDecoder,
    HandshakeError,
    NetError,
    NetTimeout,
    OversizedFrame,
    ServerError,
    SessionClosed,
    TruncatedFrame,
    UnsupportedFrame,
    choose_version,
    protocol_for_version,
)
from repro.service.net._v0 import ProtocolV0
from repro.service.net.client import Client, CommonClient, MockClient
from repro.service.net.framing import (
    FRAME_DRAIN,
    FRAME_ERROR,
    FRAME_GOODBYE,
    FRAME_HELLO,
    FRAME_NEGOTIATE,
    FRAME_SUBMIT,
    FRAME_SUMMARY,
    HEADER,
    MAGIC,
    control_payload,
    encode_frame,
    pack_channel,
    parse_control,
    unpack_channel,
)
from repro.service.net.server import NetServer, ServerThread
from repro.service.stream import serve

SMALL_SIZES = dict(
    routing_sizes=(16,), sorting_sizes=(16,), multiplex_sizes=(16,)
)


def _requests(batch, engine="fast", seed0=900, **kwargs):
    return requests_from_scenarios(
        mixed_batch(batch, seed0=seed0, **SMALL_SIZES), engine=engine, **kwargs
    )


# -- framing: round-trips and typed malformed-input errors -------------------


def test_frame_roundtrip_survives_arbitrary_chunking():
    """The decoder reassembles frames from any byte-chunk schedule —
    including one byte at a time — because TCP never aligns reads with
    frame boundaries.
    """
    frames = [
        Frame(FRAME_HELLO, control_payload({"server": "x", "versions": [0, 1]})),
        Frame(FRAME_SUBMIT, pack_channel(7, b"\x01\x02\x03")),
        Frame(FRAME_GOODBYE, b""),
    ]
    wire = b"".join(encode_frame(f) for f in frames)
    for chunk in (1, 2, 5, len(wire)):
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(wire), chunk):
            decoder.feed(wire[i:i + chunk])
            while True:
                frame = decoder.next_frame()
                if frame is None:
                    break
                out.append(frame)
        decoder.eof()  # clean boundary: must not raise
        assert out == frames
        assert decoder.buffered == 0


def test_bad_magic_is_a_typed_error():
    decoder = FrameDecoder()
    decoder.feed(b"GET / HTTP/1.1\r\n")
    with pytest.raises(BadMagic):
        decoder.next_frame()


def test_oversized_frame_rejected_from_header_alone():
    """The length prefix is validated before the payload is buffered, so
    a corrupt (or hostile) header can never force a giant allocation."""
    decoder = FrameDecoder(max_frame=1024)
    decoder.feed(HEADER.pack(MAGIC, FRAME_SUBMIT, 0, 1 << 30))
    with pytest.raises(OversizedFrame):
        decoder.next_frame()
    with pytest.raises(OversizedFrame):
        encode_frame(Frame(FRAME_SUBMIT, b"x" * 2048), max_frame=1024)


def test_mid_frame_eof_is_a_typed_error():
    full = encode_frame(Frame(FRAME_SUBMIT, pack_channel(1, b"payload")))
    for cut in (1, HEADER.size, len(full) - 1):
        decoder = FrameDecoder()
        decoder.feed(full[:cut])
        assert decoder.next_frame() is None
        with pytest.raises(TruncatedFrame):
            decoder.eof()


def test_control_payloads_are_canonical_and_validated():
    assert control_payload({"b": 1, "a": 2}) == b'{"a":2,"b":1}'
    assert parse_control(b'{"x": 3}') == {"x": 3}
    with pytest.raises(NetError):
        parse_control(b"not json")
    with pytest.raises(NetError):
        parse_control(b"[1,2,3]")  # must be an object


def test_channel_prefix_roundtrip_and_truncation():
    channel, envelope = unpack_channel(pack_channel(41, b"abc"))
    assert (channel, envelope) == (41, b"abc")
    with pytest.raises(TruncatedFrame):
        unpack_channel(b"\x00\x01")  # shorter than the u32 prefix


# -- version negotiation (factory) -------------------------------------------


def test_factory_registry_and_version_choice():
    assert SUPPORTED_VERSIONS == tuple(sorted(PROTOCOLS))
    assert protocol_for_version(LATEST.version) is LATEST
    # default: highest mutual version wins
    assert choose_version([0, 1]) == 1
    # a v0-only server downgrades a latest client transparently
    assert choose_version([0]) == 0
    # unknown advertised versions are ignored, not fatal
    assert choose_version([0, 99]) == 0
    # an explicit pin must be mutual
    assert choose_version([0, 1], requested=0) == 0
    with pytest.raises(HandshakeError):
        choose_version([99])
    with pytest.raises(HandshakeError):
        choose_version([0, 1], requested=99)
    with pytest.raises(HandshakeError):
        protocol_for_version(99)


def test_protocol_versions_are_nested_dialects():
    """v1 is a superset of v0: every v0 frame type stays legal, and only
    v1 relaxes summary ordering."""
    v0, v1 = PROTOCOLS[0], PROTOCOLS[1]
    assert v0.frame_types < v1.frame_types
    assert v0.ordered_summaries and not v1.ordered_summaries
    assert not v0.supports(FRAME_DRAIN) and v1.supports(FRAME_DRAIN)


# -- raw-socket protocol violations: typed errors, never hangs ---------------


def _read_frame(sock, decoder):
    while True:
        frame = decoder.next_frame()
        if frame is not None:
            return frame
        data = sock.recv(65536)
        if not data:
            decoder.eof()
            raise AssertionError("peer closed without the expected frame")
        decoder.feed(data)


def _expect_error_then_goodbye(sock, decoder, code):
    frame = _read_frame(sock, decoder)
    assert frame.type == FRAME_ERROR, frame.name
    doc = parse_control(frame.payload)
    assert doc["code"] == code, doc
    assert frame.type == FRAME_ERROR
    bye = _read_frame(sock, decoder)
    assert bye.type == FRAME_GOODBYE


@pytest.fixture(scope="module")
def loopback_server():
    """One shared small server for the raw-socket violation tests."""
    with ServerThread(workers=2, max_frame=65536, session_quota=8) as st:
        yield st


def _dial(st):
    sock = socket.create_connection((st.host, st.port), timeout=10)
    sock.settimeout(10)
    decoder = FrameDecoder()
    hello = _read_frame(sock, decoder)
    assert hello.type == FRAME_HELLO
    return sock, decoder, parse_control(hello.payload)


def test_server_hello_advertises_info(loopback_server):
    sock, decoder, hello = _dial(loopback_server)
    try:
        assert hello["server"] == "repro.service.net"
        assert hello["versions"] == list(SUPPORTED_VERSIONS)
        assert hello["max_frame"] == 65536
        assert hello["quota"] == 8
    finally:
        sock.close()


def test_garbage_bytes_get_typed_error_and_goodbye(loopback_server):
    sock, decoder, _ = _dial(loopback_server)
    try:
        sock.sendall(b"\x00garbage that is definitely not a frame\x00")
        _expect_error_then_goodbye(sock, decoder, "bad-magic")
    finally:
        sock.close()


def test_oversized_announcement_gets_typed_error(loopback_server):
    sock, decoder, _ = _dial(loopback_server)
    try:
        sock.sendall(HEADER.pack(MAGIC, FRAME_NEGOTIATE, 0, 1 << 30))
        _expect_error_then_goodbye(sock, decoder, "oversized-frame")
    finally:
        sock.close()


def test_unknown_version_gets_typed_error(loopback_server):
    sock, decoder, _ = _dial(loopback_server)
    try:
        sock.sendall(
            encode_frame(
                Frame(FRAME_NEGOTIATE, control_payload({"version": 99}))
            )
        )
        _expect_error_then_goodbye(sock, decoder, "handshake")
    finally:
        sock.close()


def test_data_frame_before_handshake_gets_typed_error(loopback_server):
    sock, decoder, _ = _dial(loopback_server)
    try:
        sock.sendall(encode_frame(Frame(FRAME_SUBMIT, pack_channel(1, b"x"))))
        _expect_error_then_goodbye(sock, decoder, "handshake")
    finally:
        sock.close()


def test_mid_frame_disconnect_leaves_server_serving(loopback_server):
    """A peer that dies mid-frame must not wedge the server: the next
    connection gets a normal HELLO and a working session."""
    sock, decoder, _ = _dial(loopback_server)
    frame = encode_frame(Frame(FRAME_NEGOTIATE, control_payload({"version": 1})))
    sock.sendall(frame[: len(frame) - 3])  # cut the frame short
    sock.close()
    # the server carries on: a fresh client completes a full exchange
    with Client(
        loopback_server.host, loopback_server.port, timeout=10
    ) as client:
        summaries = client.run(_requests(4), chunk=2)
    assert len(summaries) == 4 and all(s.ok for s in summaries)


def test_v0_session_rejects_v1_frames(loopback_server):
    """DRAIN is a v1 frame; a v0 session sending it gets the typed
    ``unsupported-frame`` error, server-side."""
    sock, decoder, _ = _dial(loopback_server)
    try:
        sock.sendall(
            encode_frame(
                Frame(FRAME_NEGOTIATE, control_payload({"version": 0}))
            )
        )
        accept = _read_frame(sock, decoder)
        assert parse_control(accept.payload)["version"] == 0
        sock.sendall(encode_frame(Frame(FRAME_DRAIN, control_payload({}))))
        _expect_error_then_goodbye(sock, decoder, "unsupported-frame")
    finally:
        sock.close()


def test_client_never_hangs_on_a_silent_server():
    """A listener that accepts and says nothing: every client operation
    surfaces a typed NetTimeout within its deadline."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()
    client = Client(host, port, timeout=0.3)
    t0 = time.monotonic()
    with pytest.raises(NetTimeout):
        client.connect()
    assert time.monotonic() - t0 < 5.0
    listener.close()


# -- negotiated sessions over real sockets -----------------------------------


def test_v0_client_downgrades_cleanly_against_latest_server():
    """The headline negotiation satellite: a client pinned to the v0
    dialect completes a full batch against a latest server, and the v1
    frames stay client-side-gated."""
    requests = _requests(12)
    with ServerThread(workers=2) as st:
        with Client(st.host, st.port, protocol=0, timeout=30) as client:
            assert client.protocol_version == 0
            assert client.session_id >= 1
            summaries = client.run(requests, chunk=4)
            with pytest.raises(UnsupportedFrame):
                client.drain()
            with pytest.raises(UnsupportedFrame):
                client.metrics()
    assert summaries_digest(summaries) == summaries_digest(
        BatchService(workers=0).run_batch(requests).summaries
    )


def test_v1_session_metrics_and_drain():
    requests = _requests(6)
    with ServerThread(workers=2) as st:
        with Client(st.host, st.port, timeout=30) as client:
            assert client.protocol_version == LATEST.version
            channel = client.submit(requests)
            flushed = client.drain()
            assert flushed >= 0
            doc = client.metrics()
            assert doc["engine"] == "fast"
            assert doc["sessions"] == 1
            gateway = doc["gateway"]
            assert gateway["offered"] == len(requests)
            summaries = client.collect(channel)
    assert all(s.ok for s in summaries)


def test_session_quota_is_enforced_and_survivable():
    """An envelope above the session quota gets a channel-tagged
    ``quota-exceeded`` error; the session stays usable afterwards."""
    requests = _requests(8)
    with ServerThread(workers=2, session_quota=4) as st:
        with Client(st.host, st.port, timeout=30) as client:
            assert client.session_quota == 4
            channel = client.submit(requests)  # 8 > quota of 4
            with pytest.raises(ServerError) as excinfo:
                client.collect(channel)
            assert excinfo.value.code == "quota-exceeded"
            assert excinfo.value.channel == channel
            # the same session still serves within-quota envelopes
            ok_channel = client.submit(requests[:3])
            summaries = client.collect(ok_channel)
            assert len(summaries) == 3 and all(s.ok for s in summaries)
            # and run() windows itself under the quota automatically
            summaries = client.run(requests, chunk=8)
            assert len(summaries) == 8 and all(s.ok for s in summaries)


def test_sessions_get_distinct_ids():
    with ServerThread(workers=2) as st:
        with Client(st.host, st.port, timeout=30) as a:
            with Client(st.host, st.port, timeout=30) as b:
                assert a.session_id != b.session_id


@pytest.fixture
def sleepy_algorithm():
    """A routing algorithm that sleeps before delegating to ``naive`` —
    guarantees tickets are genuinely in flight when shutdown starts."""
    name = "test-net-sleepy"
    naive = ALGORITHMS[("routing", "naive")]

    def run(inst, engine, seed):
        time.sleep(0.05)
        return naive.run(inst, engine, seed)

    register_algorithm(AlgorithmSpec(kind="routing", name=name, run=run))
    yield name
    del ALGORITHMS[("routing", name)]


def test_graceful_shutdown_resolves_inflight_tickets(sleepy_algorithm):
    """The drain satellite: closing the server with tickets in flight
    flushes every SUMMARY before GOODBYE — no future is dropped."""
    scenarios = mixed_batch(6, mix="routing/balanced:1", seed0=77, **SMALL_SIZES)
    requests = requests_from_scenarios(
        scenarios, engine="fast", algorithm=sleepy_algorithm
    )
    st = ServerThread(workers=2)
    st.start()
    try:
        client = Client(st.host, st.port, timeout=30).connect()
        first = client.submit(requests[:3])
        second = client.submit(requests[3:])
        # the metrics round-trip is the acceptance barrier: the read loop
        # answers it only after both SUBMITs, so their tickets are now
        # genuinely in the gateway (and still running — each request
        # sleeps 50ms) when shutdown starts.
        doc = client.metrics()
        assert doc["inflight"] > 0 or doc["gateway"]["offered"] == 6
        st.close()
        summaries = client.collect(first) + client.collect(second)
        assert len(summaries) == len(requests)
        assert all(s.ok for s in summaries), [s.error for s in summaries]
        # after the flush the server is gone: the next exchange says so
        with pytest.raises((SessionClosed, NetError, OSError)):
            client.submit(requests[:1])
            client.collect(3)
        client.close()
    finally:
        st.close()


def test_draining_server_refuses_new_submits():
    """A SUBMIT that lands in the shutdown window gets the typed
    ``draining`` refusal plus GOODBYE rather than silently vanishing."""
    import asyncio

    requests = _requests(1)

    async def _read_frame(reader, decoder):
        while True:
            frame = decoder.next_frame()
            if frame is not None:
                return frame
            data = await reader.read(65536)
            assert data, "server closed before the expected frame"
            decoder.feed(data)

    async def _run():
        server = NetServer(workers=2)
        await server.start()
        assert not server.draining
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        decoder = FrameDecoder()
        hello = await _read_frame(reader, decoder)
        assert hello.type == FRAME_HELLO
        writer.write(
            encode_frame(
                Frame(FRAME_NEGOTIATE, control_payload({"version": 1}))
            )
        )
        await writer.drain()
        accept = await _read_frame(reader, decoder)
        assert parse_control(accept.payload)["version"] == 1
        # freeze the shutdown window: draining flag up, socket still open
        server._draining = True
        writer.write(
            encode_frame(ProtocolV0.encode_submit(1, requests))
        )
        await writer.drain()
        err = await _read_frame(reader, decoder)
        assert err.type == FRAME_ERROR
        assert parse_control(err.payload)["code"] == "draining"
        bye = await _read_frame(reader, decoder)
        assert bye.type == FRAME_GOODBYE
        writer.close()
        await server.close()
        assert server.sessions == 0

    asyncio.run(_run())


# -- the 256-instance digest-parity differential -----------------------------


def test_256_instance_differential_remote_mock_gateway_sequential():
    """The headline acceptance gate: one 256-instance full-taxonomy
    batch executed four ways — remote Client over loopback TCP,
    MockClient in memory, in-process StreamGateway, sequential
    baseline — must produce byte-identical digests."""
    requests = requests_from_scenarios(
        remote_selfcheck_batch(256, seed0=0), engine="fast"
    )

    sequential = BatchService(workers=0).run_batch(requests)
    assert sequential.ok, sequential.failures
    expected = sequential.batch_digest()

    mock = MockClient().connect()
    mock_digest = summaries_digest(mock.run(requests))
    mock.close()
    assert mock_digest == expected

    gateway_report = serve(
        requests,
        [0.0] * len(requests),
        workers=4,
        backend="thread",
        policy="block",
        queue_cap=64,
    )
    assert gateway_report.ok, gateway_report.failures
    assert summaries_digest(gateway_report.summaries) == expected

    with ServerThread(workers=4, queue_cap=64) as st:
        with Client(st.host, st.port, timeout=120) as client:
            remote = client.run(requests, chunk=32)
    assert len(remote) == len(requests)
    assert all(s.ok for s in remote), [s.error for s in remote if not s.ok]
    assert summaries_digest(remote) == expected


def test_mock_client_mirrors_the_client_surface():
    requests = _requests(5)
    mock = MockClient(engine="fast")
    with pytest.raises(SessionClosed):
        mock.submit(requests)
    with mock as client:
        assert client.protocol_version == LATEST.version
        assert client.server_info["server"] == MockClient.SERVER
        channel = client.submit(requests)
        summaries = client.collect(channel)
        assert len(summaries) == 5 and all(s.ok for s in summaries)
        with pytest.raises(NetError):
            client.collect(channel)  # each channel collects exactly once
        assert client.drain() == 0
        assert client.metrics()["engine"] == "fast"
    with pytest.raises(SessionClosed):
        mock.drain()


# -- CLI ---------------------------------------------------------------------


def test_cli_selfcheck(capsys):
    from repro.service.net.__main__ import main as net_main

    assert net_main(["selfcheck", "--batch", "10", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "selfcheck: sequential digest -> match" in out


def test_remote_selfcheck_mix_covers_the_full_taxonomy():
    """The selfcheck differential's value is coverage: its mix must name
    every family the scenario taxonomy registers."""
    from repro.scenarios.generators import _BUILDERS, parse_mix

    covered = {(k, f) for k, f, _ in parse_mix(REMOTE_SELFCHECK_MIX)}
    assert covered == set(_BUILDERS)
    batch = remote_selfcheck_batch(64, seed0=3)
    assert len(batch) == 64
    assert {(s.kind, s.family) for s in batch} == set(_BUILDERS)


# -- docstring pass over the public client API -------------------------------


def test_public_client_api_is_documented():
    """The docs satellite's enforcement clause: every public class and
    method of the client library carries a docstring."""
    import inspect

    for cls in (CommonClient, Client, MockClient):
        assert inspect.getdoc(cls), f"{cls.__name__} lacks a docstring"
        for name, member in vars(cls).items():
            if name.startswith("_") or not callable(member):
                continue
            assert inspect.getdoc(member), (
                f"{cls.__name__}.{name} lacks a docstring"
            )
        for name, member in vars(cls).items():
            if isinstance(member, property) and not name.startswith("_"):
                assert member.__doc__, (
                    f"property {cls.__name__}.{name} lacks a docstring"
                )
