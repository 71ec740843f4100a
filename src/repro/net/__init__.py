"""``repro.net`` — the wire layer: protocol, asyncio server, remote sessions.

The subsystem that turns the engine + service + api stack into an actual
multi-client system::

    RemoteSession ──frames──►  ReproServer (asyncio)  ──►  QueryService
    (sync/async)               per-connection cursors       (shared plan +
                               + stats                       result caches,
                                                             admission control)

* :mod:`repro.net.protocol` — length-prefixed JSON frames with request
  ids and error envelopes mapping onto the :class:`~repro.errors.ReproError`
  taxonomy (and therefore onto the CLI's exit codes).
* :mod:`repro.net.server` — an :mod:`asyncio` TCP server fronting one
  shared :class:`~repro.service.QueryService`; results are held open as
  **server-side cursors** the client pages with ``FETCH`` requests.
* :mod:`repro.net.client` — one asyncio wire client,
  :class:`AsyncRemoteSession` (``connect_async``): a single multiplexed
  connection that pipelines concurrent requests, reconnects with
  bounded-backoff retry of idempotent ops, and re-prepares lost
  statement handles.  ``connect("repro://host:port")`` returns a
  :class:`RemoteSession` with the exact :class:`~repro.api.session.Session`
  surface (``run`` / ``explain`` / ``close``): a thin synchronous façade
  that drives that same async core from a private event-loop thread.

Everything here sits at the very top of the layer stack; nothing below
:mod:`repro.cli` imports it at module level.
"""

from repro.net.client import (
    WIRE_ENCODING_ENV,
    AsyncRemotePreparedHandle,
    AsyncRemoteSession,
    RemotePreparedHandle,
    RemoteResultSet,
    RemoteSession,
    connect,
    connect_async,
    parse_url,
)
from repro.net.protocol import PROTOCOL_VERSION, WIRE_ENCODINGS
from repro.net.server import ReproServer, ServerThread

__all__ = [
    "AsyncRemotePreparedHandle",
    "AsyncRemoteSession",
    "PROTOCOL_VERSION",
    "RemotePreparedHandle",
    "RemoteResultSet",
    "RemoteSession",
    "ReproServer",
    "ServerThread",
    "WIRE_ENCODINGS",
    "WIRE_ENCODING_ENV",
    "connect",
    "connect_async",
    "parse_url",
]
