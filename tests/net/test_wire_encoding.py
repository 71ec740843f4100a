"""Binary columnar wire negotiation, fallback, metrics, and fetch paging.

The binary encoding is *negotiated*: a v2 client advertises
``encodings`` in ``hello``, the server answers with what it supports,
and each ``fetch`` then opts in per request.  A client that never
advertises (``wire_encoding="json"``, the ``REPRO_WIRE_ENCODING`` env
var, or any protocol-v1 build) must get byte-for-byte the JSON behaviour
it always had — same rows, same errors — against the new server.
"""

import asyncio

import pytest

from repro.errors import FrameError, OptionsError, ProtocolError
from repro.net import protocol
from repro.net.client import (
    WIRE_ENCODING_ENV,
    RemoteSession,
    connect_async,
)
from repro.net.server import ServerThread
from repro.obs.metrics import global_registry
from repro.service import QueryService

from tests.conftest import graph_database
from tests.net.frames import read_frames

QUERY = "edge(a,b), edge(b,c)"


@pytest.fixture(scope="module")
def service():
    with QueryService(graph_database(14, 40, seed=5)) as service:
        yield service


@pytest.fixture(scope="module")
def server(service):
    with ServerThread(service) as server:
        yield server


def _normalized(rows):
    return sorted(tuple(row) for row in rows)


# ----------------------------------------------------------------------
# Negotiation
# ----------------------------------------------------------------------
def test_default_client_negotiates_binary(server):
    with RemoteSession(server.url) as session:
        assert session.wire_encoding == "binary"
        assert session.server_info["encoding"] == "binary"
        assert list(session.server_info["encodings"]) == \
            list(protocol.WIRE_ENCODINGS)


def test_forced_json_client_stays_json(server):
    with RemoteSession(server.url, wire_encoding="json") as session:
        # No advertisement -> the server answers "json", exactly as it
        # would to a protocol-v1 client that has no encodings field.
        assert session.wire_encoding == "json"
        assert session.server_info["encoding"] == "json"


def test_env_var_forces_json(server, monkeypatch):
    monkeypatch.setenv(WIRE_ENCODING_ENV, "json")
    with RemoteSession(server.url) as session:
        assert session.wire_encoding == "json"


def test_explicit_argument_beats_env(server, monkeypatch):
    monkeypatch.setenv(WIRE_ENCODING_ENV, "json")
    with RemoteSession(server.url, wire_encoding="binary") as session:
        assert session.wire_encoding == "binary"


def test_unknown_encoding_rejected(server):
    with pytest.raises(OptionsError, match="wire_encoding"):
        RemoteSession(server.url, wire_encoding="msgpack")


def test_server_rejects_bad_fetch_encoding(server):
    with RemoteSession(server.url) as session:
        result = session.run(QUERY)
        result.fetchmany(1)  # open the cursor on the session's connection
        with pytest.raises(ProtocolError):
            session._request("fetch", cursor=result._inner._cursor_id,
                             size=1, encoding="msgpack")


# ----------------------------------------------------------------------
# Parity: both encodings, same answer
# ----------------------------------------------------------------------
def test_binary_and_json_fetch_identical_rows(server):
    with RemoteSession(server.url) as binary, \
            RemoteSession(server.url, wire_encoding="json") as json_only:
        expected = _normalized(json_only.run(QUERY).fetchall())
        assert expected  # the graph is dense enough to answer
        assert _normalized(binary.run(QUERY).fetchall()) == expected


def test_async_binary_matches_sync_json(server):
    with RemoteSession(server.url, wire_encoding="json") as json_only:
        expected = _normalized(json_only.run(QUERY).fetchall())

    async def fetch_binary():
        session = await connect_async(server.url)
        try:
            assert session.wire_encoding == "binary"
            return await (await session.run(QUERY)).fetchall()
        finally:
            await session.close()

    assert _normalized(asyncio.run(fetch_binary())) == expected


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_wire_metrics_count_both_encodings(server):
    counter = global_registry().counter("repro_wire_encoding_total")
    before_binary = counter.value(encoding="binary")
    before_json = counter.value(encoding="json")
    with RemoteSession(server.url) as session:
        session.run(QUERY).fetchall()
    with RemoteSession(server.url, wire_encoding="json") as session:
        session.run(QUERY).fetchall()
    assert counter.value(encoding="binary") > before_binary
    assert counter.value(encoding="json") > before_json


def test_payload_bytes_histogram_rendered_in_metrics(server):
    with RemoteSession(server.url) as session:
        session.run(QUERY).fetchall()
        text = session.metrics()
    assert 'repro_wire_encoding_total{encoding="binary"}' in text
    assert "repro_wire_fetch_payload_bytes" in text
    buckets = [line for line in text.splitlines()
               if line.startswith("repro_wire_fetch_payload_bytes_count")
               and 'encoding="binary"' in line]
    assert buckets and float(buckets[0].split()[-1]) > 0


# ----------------------------------------------------------------------
# fetch_size: validated, honored per option bundle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [0, -1, True, 2.5, "many"])
def test_fetch_size_validates(bad):
    from repro.api.options import QueryOptions
    with pytest.raises(OptionsError, match="fetch_size"):
        QueryOptions(fetch_size=bad)


def test_fetch_size_controls_page_count(server):
    counter = global_registry().counter("repro_wire_encoding_total")
    with RemoteSession(server.url) as session:
        total = len(session.run(QUERY).fetchall())
        assert total > 8
        before = counter.value(encoding="binary")
        rows = session.run(QUERY, fetch_size=(total + 1) // 2).fetchall()
        assert len(rows) == total
        # ceil(total / page) pages plus the final empty "done" page at
        # most — far fewer than one per row, and more than one page.
        pages = counter.value(encoding="binary") - before
        assert 2 <= pages <= 3


def test_fetch_size_ignored_locally():
    from repro.api.session import Session
    with Session(graph_database(10, 30, seed=3)) as session:
        rows = session.run(QUERY, fetch_size=2)
        assert rows.count() >= 0  # validated, accepted, no paging locally


# ----------------------------------------------------------------------
# FrameError: oversized frames report size and cap, both read paths
# ----------------------------------------------------------------------
def test_encode_frame_reports_size_and_cap(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
    with pytest.raises(FrameError, match="limit") as info:
        protocol.encode_frame({"pad": "x" * 100})
    assert info.value.size > 64
    assert info.value.limit == 64
    assert str(info.value.size) in str(info.value)
    assert "64" in str(info.value)


def test_encode_binary_frame_reports_size_and_cap(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
    with pytest.raises(FrameError) as info:
        protocol.encode_binary_frame({"ok": True}, [b"y" * 100])
    assert info.value.size > 64 and info.value.limit == 64


def test_stream_read_path_reports_announced_size():
    oversized = protocol.MAX_FRAME_BYTES + 17
    with pytest.raises(FrameError) as info:
        read_frames(protocol._LENGTH.pack(oversized))
    assert info.value.size == oversized
    assert info.value.limit == protocol.MAX_FRAME_BYTES
    assert str(oversized) in str(info.value)


def test_async_read_path_reports_announced_size():
    oversized = protocol.MAX_FRAME_BYTES + 23

    async def readexactly(n):
        return protocol._LENGTH.pack(oversized)

    async def go():
        await protocol.read_frame_async(readexactly)

    with pytest.raises(FrameError) as info:
        asyncio.run(go())
    assert info.value.size == oversized
    assert info.value.limit == protocol.MAX_FRAME_BYTES


def test_frame_error_is_protocol_error_and_pickles():
    import pickle
    error = FrameError("too big", size=100, limit=64)
    assert isinstance(error, ProtocolError)
    clone = pickle.loads(pickle.dumps(error))
    assert (clone.size, clone.limit) == (100, 64)
