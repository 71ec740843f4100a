"""Decode raw frame bytes through the one frame reader the wire uses."""

import asyncio

from repro.net import protocol


def read_frames(data: bytes) -> list:
    """Every frame in ``data``, in order.

    The bytes are fed to an :class:`asyncio.StreamReader` followed by
    EOF and read back with :func:`protocol.read_frame_async` — the path
    the client and the server both read with — until the clean EOF at a
    frame boundary.  Truncation, oversized announcements and malformed
    bodies raise exactly as they do on a live connection.
    """
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = []
        while True:
            frame = await protocol.read_frame_async(reader.readexactly)
            if frame is None:
                return frames
            frames.append(frame)

    return asyncio.run(main())
