"""A dependency-free asyncio HTTP front end for the serving engine.

The wire protocol is deliberately small — JSON request/response bodies
over HTTP/1.1 with keep-alive — so any client (curl, a load generator,
another service) can talk to the daemon without a client library:

* ``GET /healthz`` — liveness: ``{"status": "ok"}``.
* ``GET /stats`` — the serving counters::

      {"requests_total", "errors", "uptime_seconds",
       "latency": {"p50_ms", "p99_ms", "window"},
       "coalescing": {"coalesced_requests", "coalesce_rate",
                      "batches_dispatched", "mean_batch_occupancy",
                      "batched_plans_total"},
       "estimator": {"queries_estimated", "plans_compiled",
                     "plan_cache_hits", "plan_cache_hit_rate",
                     "reach_cache_hit_rate",
                     "selectivity_cache_hit_rate", "workers_used"},
       "memo": {"requests": {"hits", "entries", "bytes"},
                "estimates": {"hits", "entries"}}}

  plus ``"maintenance"`` on a ``--document`` daemon and
  ``"collection"`` on a ``--collection`` daemon.
* ``POST /estimate`` — body ``{"query": "//item/name"}`` or
  ``{"ast": {...}}`` (:mod:`repro.query.jsonast`), optional ``"user"``
  tag echoed back; response ``{"estimate": <float>}``.  Requests flow
  through the plan coalescer, so concurrent identical plans cost one
  execution.  Two memos answer repeated requests: the request memo
  maps coalescer-bound body bytes that parsed to ``(routing keys, plan
  signature)``, skipping the JSON decode, the query parse and the
  compile; the coalescer's estimate memo maps a plan signature to its
  estimate for the current synopsis version.  Document-routed and
  rollup requests use neither.
* ``POST /batch`` — body ``{"queries": [<request body>, ...]}``;
  response ``{"estimates": [...]}``.  Large batches shard over the
  copy-on-write worker pool.
* ``POST /update`` — body ``{"updates": [<update dict>, ...]}``
  (:func:`repro.update.ops.update_from_dict`); response
  ``{"applied": N, "version": V, "elements": E}``.  Only available
  when the engine was started from a document (``repro serve
  --document``), so an :class:`~repro.update.maintainer.
  IncrementalMaintainer` owns the synopsis; 400 otherwise.  The
  maintainer bumps the synopsis version per applied op, which
  invalidates the shared plan/index caches mid-stream.
* ``POST /shutdown`` — graceful stop (used by tests and the CI smoke
  job; a production deployment would firewall it).

Malformed queries map to 400 with a JSON error body; unknown routes to
404; a ``Transfer-Encoding`` request to 501 (bodies are framed by
``Content-Length`` only), after which the connection closes.  The
server never lets a request exception kill the connection loop.  One
sweeper task per server closes keep-alive connections idle for
:data:`IDLE_TIMEOUT_SECONDS` and connections whose started request is
still incomplete after :data:`REQUEST_TIMEOUT_SECONDS`.
"""

from __future__ import annotations

import asyncio
import json
import math
from time import monotonic
from typing import Any, Dict, List, Optional, Tuple

from repro.core.estimation.plan import PlanSignature
from repro.query.ast import TwigQuery
from repro.serve.engine import ServeEngine
from repro.update.ops import UpdateFormatError, update_from_dict

#: Request bodies above this size are rejected (a twig AST is tiny).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: ``/estimate`` bodies above this size are never kept in the request memo.
MEMO_MAX_BODY_BYTES = 4 * 1024

#: The request memo's bodies total at most this many bytes; the oldest
#: entry is evicted first.
MEMO_MAX_TOTAL_BYTES = 1024 * 1024

#: A keep-alive connection waiting this long for its next request is closed.
IDLE_TIMEOUT_SECONDS = 60.0

#: A connection whose started request is still incomplete after this
#: long is closed.
REQUEST_TIMEOUT_SECONDS = 10.0

_MAX_HEADER_LINES = 100

#: The ``/estimate`` body keys read once the query is parsed.
_ROUTING_KEYS = ("doc", "scope", "user")

#: A parsed ``/estimate`` body: its routing keys, its twig (``None`` on
#: a request-memo hit) and its plan signature (``None`` when the body is
#: routed past the coalescer).
_ParsedEstimate = Tuple[
    Dict[str, Any], Optional[TwigQuery], Optional[PlanSignature]
]


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}


def _response_bytes(
    status: int, body: Dict[str, Any], keep_alive: bool
) -> bytes:
    payload = json.dumps(body).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    ).encode("ascii")
    return head + payload


class _Connection:
    """One open connection: its handler task and its current deadline."""

    __slots__ = ("task", "deadline")

    def __init__(self, task: "asyncio.Task[None]") -> None:
        self.task = task
        self.deadline = math.inf


async def _read_request(
    reader: asyncio.StreamReader, connection: _Connection
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """One request as (method, path, headers, body); None at EOF.

    Sets ``connection.deadline``: the idle limit until the request's
    first byte arrives, then the request limit until its body is read.
    """
    connection.deadline = monotonic() + IDLE_TIMEOUT_SECONDS
    try:
        first = await reader.read(1)
        if not first:
            return None
        connection.deadline = monotonic() + REQUEST_TIMEOUT_SECONDS
        request_line = first + await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    try:
        method, target, _version = request_line.decode("ascii").split(None, 2)
    except (UnicodeDecodeError, ValueError):
        raise _HttpError(400, "malformed request line")
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        try:
            name, _, value = line.decode("ascii").partition(":")
        except UnicodeDecodeError:
            raise _HttpError(400, "malformed header")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(400, "too many headers")
    if "transfer-encoding" in headers:
        raise _HttpError(
            501, "transfer-encoding is not supported; send Content-Length"
        )
    length_text = headers.get("content-length", "0")
    if not length_text.isdigit():
        raise _HttpError(400, f"bad content-length {length_text!r}")
    length = int(length_text)
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"body of {length} bytes exceeds limit")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None
    connection.deadline = math.inf
    return method, target.split("?", 1)[0], headers, body


def _parse_json_body(body: bytes) -> Any:
    if not body:
        raise _HttpError(400, "empty request body")
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise _HttpError(400, f"bad JSON body: {err}")


class SynopsisServer:
    """The ``repro serve`` daemon: one engine behind an asyncio server."""

    def __init__(
        self,
        engine: ServeEngine,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._connections: Dict[asyncio.StreamWriter, _Connection] = {}
        self._sweeper: Optional["asyncio.Task[None]"] = None
        #: The request memo: coalescer-bound ``/estimate`` body bytes
        #: that parsed, in insertion order, to their routing keys and
        #: plan signature, and the total size of those bodies.
        self._requests: Dict[bytes, Tuple[Dict[str, Any], PlanSignature]] = {}
        self._request_bytes = 0
        self.request_memo_hits = 0

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` is the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._sweeper = asyncio.ensure_future(self._sweep())

    async def _sweep(self) -> None:
        """Cancel every connection past its deadline, a few times per limit."""
        while True:
            await asyncio.sleep(
                min(IDLE_TIMEOUT_SECONDS, REQUEST_TIMEOUT_SECONDS) / 4
            )
            now = monotonic()
            for connection in list(self._connections.values()):
                if connection.deadline < now:
                    connection.deadline = math.inf
                    connection.task.cancel()

    async def serve_until_shutdown(self) -> None:
        """Run until ``/shutdown`` (or :meth:`shutdown`) is called."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self._close()

    def shutdown(self) -> None:
        """Signal the serve loop to stop accepting and drain cleanly."""
        self._shutdown.set()

    async def _close(self) -> None:
        # Flush anything still pending so no request hangs forever.
        self.engine.coalescer.flush()
        if self._sweeper is not None:
            self._sweeper.cancel()
            await asyncio.gather(self._sweeper, return_exceptions=True)
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Nudge idle keep-alive connections to EOF and let their handler
        # tasks finish, so loop teardown never cancels them mid-write.
        for writer in list(self._connections):
            writer.close()
        tasks = [connection.task for connection in self._connections.values()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._connections.clear()

    async def __aenter__(self) -> "SynopsisServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        self.shutdown()
        await self._close()

    # -- request handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(asyncio.current_task())
        self._connections[writer] = connection
        try:
            while True:
                try:
                    request = await _read_request(reader, connection)
                except _HttpError as err:
                    writer.write(
                        _response_bytes(
                            err.status, {"error": err.message}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                try:
                    status, response = await self._dispatch(method, path, body)
                except _HttpError as err:
                    status, response = err.status, {"error": err.message}
                except Exception as err:  # pragma: no cover - last resort
                    self.engine.stats.errors += 1
                    status, response = 500, {"error": str(err)}
                writer.write(_response_bytes(status, response, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _parse_estimate(self, body: bytes) -> _ParsedEstimate:
        """An ``/estimate`` body's routing keys, twig and plan signature.

        A body bound for the coalescer (no ``doc``, no rollup scope)
        that parsed is remembered with its routing keys and signature
        only: a repeat skips the JSON decode, the query parse and the
        compile, and has no twig — the coalescer rebuilds one from the
        signature if its estimate memo misses.  Plans hold no synopsis
        state, so entries stay valid across ``/update``.
        """
        remembered = self._requests.get(body)
        if remembered is not None:
            self.request_memo_hits += 1
            return remembered[0], None, remembered[1]
        payload = _parse_json_body(body)
        try:
            query = self.engine.parse_request_query(payload)
        except ValueError as err:
            self.engine.stats.errors += 1
            raise _HttpError(400, str(err))
        routing = {key: payload[key] for key in _ROUTING_KEYS if key in payload}
        coalesced = routing.get("doc") is None and routing.get("scope") in (
            None,
            "collection",
        )
        if not coalesced:
            return routing, query, None
        signature = self.engine.plan_signature(query)
        if len(body) <= MEMO_MAX_BODY_BYTES:
            self._requests[body] = (routing, signature)
            self._request_bytes += len(body)
            while self._request_bytes > MEMO_MAX_TOTAL_BYTES:
                oldest = next(iter(self._requests))
                del self._requests[oldest]
                self._request_bytes -= len(oldest)
        return routing, query, signature

    def _stats(self) -> Dict[str, Any]:
        """The engine's ``/stats`` snapshot plus the request memo."""
        snapshot = self.engine.stats_snapshot()
        snapshot["memo"]["requests"] = {
            "hits": self.request_memo_hits,
            "entries": len(self._requests),
            "bytes": self._request_bytes,
        }
        return snapshot

    async def _estimate_routed(
        self,
        routing: Dict[str, Any],
        query: Optional[TwigQuery],
        signature: Optional[PlanSignature],
    ) -> float:
        """Route one ``/estimate`` body: by document id, rollup, or whole.

        ``{"doc": <id>}`` asks for the document's own synopsis and
        ``{"scope": "rollup"}`` for the merged rollup — both only exist
        on collection-backed engines (``repro serve --collection``);
        other engines answer 400 so the client learns the capability
        gap rather than silently getting a different quantity.
        """
        doc_id = routing.get("doc")
        scope = routing.get("scope")
        if scope not in (None, "collection", "rollup"):
            raise _HttpError(400, f"unknown scope {scope!r}")
        if doc_id is not None:
            if not isinstance(doc_id, str):
                raise _HttpError(400, "'doc' must be a document id string")
            estimate_doc = getattr(self.engine, "estimate_doc", None)
            if estimate_doc is None:
                self.engine.stats.errors += 1
                raise _HttpError(
                    400,
                    "this engine does not route by document id; start the "
                    "daemon with `repro serve --collection`",
                )
            try:
                return await estimate_doc(doc_id, query)
            except KeyError as err:
                raise _HttpError(404, str(err.args[0]) if err.args else str(err))
        if scope == "rollup":
            estimate_rollup = getattr(self.engine, "estimate_rollup", None)
            if estimate_rollup is None:
                self.engine.stats.errors += 1
                raise _HttpError(
                    400,
                    "this engine has no rollup; start the daemon with "
                    "`repro serve --collection`",
                )
            return await estimate_rollup(query)
        return await self.engine.estimate(query, signature)

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "use GET /healthz")
            return 200, {"status": "ok"}
        if path == "/stats":
            if method != "GET":
                raise _HttpError(405, "use GET /stats")
            return 200, self._stats()
        if path == "/estimate":
            if method != "POST":
                raise _HttpError(405, "use POST /estimate")
            routing, query, signature = self._parse_estimate(body)
            estimate = await self._estimate_routed(routing, query, signature)
            response: Dict[str, Any] = {"estimate": estimate}
            if "user" in routing:
                response["user"] = routing["user"]
            return 200, response
        if path == "/batch":
            if method != "POST":
                raise _HttpError(405, "use POST /batch")
            payload = _parse_json_body(body)
            if not isinstance(payload, dict) or not isinstance(
                payload.get("queries"), list
            ):
                raise _HttpError(400, "body must be {'queries': [...]}")
            queries = []
            for item in payload["queries"]:
                try:
                    queries.append(self.engine.parse_request_query(item))
                except ValueError as err:
                    self.engine.stats.errors += 1
                    raise _HttpError(400, str(err))
            estimates = self.engine.estimate_batch(queries)
            self.engine.stats.record_batch(len(queries), len(queries))
            return 200, {"estimates": estimates}
        if path == "/update":
            if method != "POST":
                raise _HttpError(405, "use POST /update")
            payload = _parse_json_body(body)
            if not isinstance(payload, dict) or not isinstance(
                payload.get("updates"), list
            ):
                raise _HttpError(400, "body must be {'updates': [...]}")
            try:
                ops = [update_from_dict(item) for item in payload["updates"]]
            except UpdateFormatError as err:
                self.engine.stats.errors += 1
                raise _HttpError(400, str(err))
            try:
                results = self.engine.apply_updates(ops)
            except ValueError as err:
                # Either a static-synopsis engine, or an op invalid
                # against the current document.  Earlier ops in the
                # batch stay applied; report how far we got.
                self.engine.stats.errors += 1
                raise _HttpError(400, str(err))
            return 200, {
                "applied": len(results),
                "version": self.engine.synopsis.version,
                "elements": results[-1]["elements"] if results else None,
            }
        if path == "/shutdown":
            if method != "POST":
                raise _HttpError(405, "use POST /shutdown")
            self.shutdown()
            return 200, {"status": "shutting down"}
        raise _HttpError(404, f"no route {path}")


async def _run_server_async(
    engine: ServeEngine, host: str, port: int, ready_line: bool
) -> None:
    server = SynopsisServer(engine, host, port)
    await server.start()
    if ready_line:
        # The smoke scripts scrape this exact line for the bound port.
        print(f"serving on http://{server.host}:{server.port}", flush=True)
    await server.serve_until_shutdown()


def run_server(
    engine: ServeEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_line: bool = True,
) -> None:
    """Run the daemon until ``/shutdown`` or KeyboardInterrupt."""
    try:
        asyncio.run(_run_server_async(engine, host, port, ready_line))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass


class ServeClient:
    """A tiny asyncio client for tests, benchmarks, and smoke jobs.

    Speaks the same keep-alive protocol as the server over one
    connection; not a public API surface, just enough to drive the
    daemon without external HTTP libraries.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        """Open the persistent keep-alive connection to the daemon."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        """Close the connection, tolerating an already-dropped peer."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = None
            self._writer = None

    async def request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """Send one HTTP request; returns ``(status, decoded JSON body)``."""
        if self._writer is None:
            await self.connect()
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: keep-alive\r\n"
            f"\r\n"
        ).encode("ascii")
        self._writer.write(head + payload)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("ascii").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        data = await self._reader.readexactly(length) if length else b"{}"
        return status, json.loads(data.decode("utf-8"))

    async def estimate(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """POST ``body`` to ``/estimate``; returns ``(status, response)``."""
        return await self.request("POST", "/estimate", body)

    async def stats(self) -> Dict[str, Any]:
        """Fetch the daemon's ``/stats`` counters as a dict."""
        _status, body = await self.request("GET", "/stats")
        return body


__all__ = ["SynopsisServer", "ServeClient", "run_server", "MAX_BODY_BYTES"]
