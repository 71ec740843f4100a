"""Framing and error envelopes: the pure, socket-free protocol layer."""

import asyncio
import json
import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    AdmissionError,
    CursorError,
    OptionsError,
    ParseError,
    ProtocolError,
    ReproError,
    ServiceError,
    TimeoutExceeded,
    UnknownAlgorithmError,
)
from repro.net import protocol

from tests.net.frames import read_frames


def encode_many(*payloads) -> bytes:
    return b"".join(protocol.encode_frame(p) for p in payloads)


class TestFraming:
    def test_round_trip(self):
        payload = {"id": 1, "op": "run", "query": "edge(a,b)", "β": "✓"}
        assert read_frames(encode_many(payload)) == [payload]

    def test_multiple_frames_share_a_stream(self):
        frames = [{"id": i, "op": "fetch"} for i in range(5)]
        # read_frames stops at the clean EOF after the last frame.
        assert read_frames(encode_many(*frames)) == frames

    def test_eof_at_boundary_is_none(self):
        assert read_frames(b"") == []

    def test_eof_inside_length_prefix_raises(self):
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_frames(b"\x00\x00")

    def test_eof_inside_body_raises(self):
        truncated = protocol.encode_frame({"id": 1})[:-2]
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_frames(truncated)

    def test_oversized_announcement_rejected(self):
        prefix = struct.pack("!I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="limit"):
            read_frames(prefix + b"x")

    def test_non_object_body_rejected(self):
        body = json.dumps([1, 2, 3]).encode()
        framed = struct.pack("!I", len(body)) + body
        with pytest.raises(ProtocolError, match="JSON object"):
            read_frames(framed)

    def test_invalid_json_rejected(self):
        body = b"{not json"
        framed = struct.pack("!I", len(body)) + body
        with pytest.raises(ProtocolError, match="not valid JSON"):
            read_frames(framed)

    def test_reset_after_a_partial_frame_is_truncation(self):
        # A peer that dies mid-frame with a reset (SO_LINGER 0 sends RST,
        # not FIN) truncated the stream exactly as an EOF there would:
        # the reader must say "mid-frame", not report a transport error.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def serve():
            conn, _ = listener.accept()
            conn.sendall(struct.pack("!I", 100) + b'{"x')
            time.sleep(0.2)  # the reader takes the prefix, awaits the body
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            conn.close()

        async def main():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                return await protocol.read_frame_async(reader.readexactly)
            finally:
                writer.close()

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        try:
            with pytest.raises(ProtocolError, match="mid-frame"):
                asyncio.run(main())
        finally:
            server.join(timeout=5)
            listener.close()

    def test_stream_reader_round_trip(self):
        payload = {"id": 9, "op": "hello"}
        data = protocol.encode_frame(payload)

        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            first = await protocol.read_frame_async(reader.readexactly)
            second = await protocol.read_frame_async(reader.readexactly)
            return first, second

        first, second = asyncio.run(main())
        assert first == payload
        assert second is None

    def test_async_reader_mid_frame_eof_raises(self):
        data = protocol.encode_frame({"id": 1})[:-1]

        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await protocol.read_frame_async(reader.readexactly)

        with pytest.raises(ProtocolError, match="mid-frame"):
            asyncio.run(main())


class TestErrorEnvelopes:
    """The taxonomy survives the wire: same class out as went in."""

    CASES = [
        (ParseError("bad query"), "parse", 3, ParseError),
        (UnknownAlgorithmError("no such"), "unknown_algorithm", 4,
         UnknownAlgorithmError),
        (OptionsError("bad options"), "options", 5, OptionsError),
        (TimeoutExceeded(2.5, 1.0), "timeout", 6, TimeoutExceeded),
        (CursorError("gone"), "cursor", 1, CursorError),
        (AdmissionError("full"), "admission", 1, AdmissionError),
        (ServiceError("down"), "service", 1, ServiceError),
        (ReproError("other"), "error", 1, ReproError),
    ]

    @pytest.mark.parametrize(
        "error,code,exit_code,cls", CASES,
        ids=[code for _, code, _, _ in CASES])
    def test_round_trip_preserves_class_and_exit_code(
            self, error, code, exit_code, cls):
        envelope = protocol.error_envelope(error)
        assert envelope["code"] == code
        assert envelope["exit_code"] == exit_code
        with pytest.raises(cls) as excinfo:
            protocol.raise_remote_error(envelope)
        assert type(excinfo.value) is cls

    def test_timeout_carries_elapsed_and_budget(self):
        envelope = protocol.error_envelope(TimeoutExceeded(2.5, 1.0))
        with pytest.raises(TimeoutExceeded) as excinfo:
            protocol.raise_remote_error(envelope)
        assert excinfo.value.elapsed == 2.5
        assert excinfo.value.budget == 1.0

    def test_envelope_survives_json(self):
        envelope = protocol.error_envelope(ParseError("α is not a query"))
        decoded = json.loads(json.dumps(envelope))
        with pytest.raises(ParseError, match="α"):
            protocol.raise_remote_error(decoded)

    def test_unknown_code_degrades_to_repro_error(self):
        with pytest.raises(ReproError, match="mystery"):
            protocol.raise_remote_error(
                {"code": "from-the-future", "message": "mystery"}
            )

    def test_malformed_envelope_degrades_to_repro_error(self):
        with pytest.raises(ReproError):
            protocol.raise_remote_error("not an envelope")

    def test_responses_echo_the_request_id(self):
        assert protocol.ok_response(41, rows=[])["id"] == 41
        failed = protocol.error_response(42, ParseError("x"))
        assert failed["id"] == 42
        assert failed["ok"] is False
