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
  maps coalescer-bound body bytes that parsed to ``(user tag, scope,
  plan signature)``, skipping the JSON decode, the query parse and the
  compile; the coalescer's estimate memo maps a plan signature to its
  estimate for the current synopsis version.  Document-routed and
  rollup requests use neither.
* ``POST /batch`` — body ``{"queries": [<request body>, ...]}``, at
  most :data:`MAX_BATCH_QUERIES` of them (413 otherwise); response
  ``{"estimates": [...]}``.  Large batches shard over the
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

Malformed queries and JSON bodies (too deeply nested ones too) map to
400 with a JSON error body; unknown routes to 404.  A framing error (a
head over :data:`MAX_HEAD_BYTES` or a bad ``Content-Length``: 400; a
body over :data:`MAX_BODY_BYTES`: 413; ``Transfer-Encoding``: 501) gets
one response, and the connection closes.

Each connection is an :class:`asyncio.Protocol` that parses requests off
its receive buffer and answers them inside ``data_received``.  Only an
``/estimate`` that must wait (a coalescer-bound memo miss, or a
document-routed or rollup one) suspends, as a future whose callback
writes the response.  Reading pauses while it waits and while the write
buffer is over its high-water mark, so responses keep request order and
a client that never reads is not buffered without bound.  A sweeper
task closes connections idle for :data:`IDLE_TIMEOUT_SECONDS` and those
whose oldest unanswered request started :data:`REQUEST_TIMEOUT_SECONDS`
ago.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
from functools import partial
from time import monotonic, perf_counter
from typing import Any, Dict, Optional, Set, Tuple

from repro.core.estimation.plan import PlanSignature
from repro.query.ast import TwigQuery
from repro.serve.engine import ServeEngine
from repro.update.ops import UpdateFormatError, update_from_dict

#: Request bodies above this size are rejected (a twig AST is tiny).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Request heads (request line and header lines) above this size are rejected.
MAX_HEAD_BYTES = 64 * 1024

#: ``/batch`` bodies listing more queries than this are rejected.
MAX_BATCH_QUERIES = 1024

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

#: The empty line ending a request head; lines end in ``\r\n`` or ``\n``.
_HEAD_END = re.compile(rb"\n\r?\n")

#: The ``user`` tag of an ``/estimate`` body that has none.
_NO_USER = object()

#: A parsed ``/estimate`` body: its ``user`` tag (``_NO_USER`` when
#: absent), its ``doc`` and ``scope`` routing keys, its twig (``None``
#: on a request-memo hit) and its plan signature (``None`` when the body
#: is routed past the coalescer).
_ParsedEstimate = Tuple[
    Any, Any, Any, Optional[TwigQuery], Optional[PlanSignature]
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


def _parse_head(head: bytes) -> Tuple[str, str, bool, int]:
    """A request head's method, path, keep-alive flag and body length."""
    try:
        request_line, *fields = head.decode("ascii").rstrip().split("\n")
        method, target, _version = request_line.split(None, 2)
    except (UnicodeDecodeError, ValueError):
        raise _HttpError(400, "malformed request head")
    if len(fields) >= _MAX_HEADER_LINES:
        raise _HttpError(400, "too many headers")
    headers: Dict[str, str] = {}
    for field in fields:
        name, _, value = field.partition(":")
        headers[name.strip().lower()] = value.strip()
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
    keep_alive = headers.get("connection", "").lower() != "close"
    return method, target.split("?", 1)[0], keep_alive, length


def _parse_json_body(body: bytes) -> Any:
    if not body:
        raise _HttpError(400, "empty request body")
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise _HttpError(400, f"bad JSON body: {err}")


class _HttpProtocol(asyncio.Protocol):
    """One connection, served off its own receive buffer.  ``deadline``,
    which the sweeper checks, is the idle limit while the buffer is empty
    and the request limit from the first byte of an unanswered request."""

    def __init__(self, server: "SynopsisServer") -> None:
        self._server = server
        self.transport: Any = None
        self._buffer = bytearray()
        # The head at the buffer's start: parsed with its length once
        # complete, else how many of its bytes hold no end of head.
        self._head: Optional[Tuple[Tuple[str, str, bool, int], int]] = None
        self._scanned = 0
        # A suspended estimate's future; holding it keeps its task alive.
        self._waiting: Optional[asyncio.Future] = None
        self._paused = False  # the transport is over its write high-water mark
        self._closing = False
        self.deadline = math.inf
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self._server._connections.add(self)
        self.deadline = monotonic() + IDLE_TIMEOUT_SECONDS

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._closing = True
        self._server._connections.discard(self)
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        fresh = not self._buffer
        self._buffer += data
        self._serve(fresh)

    def eof_received(self) -> bool:
        # True keeps the transport open for a pending response.
        self.close()
        return True

    def pause_writing(self) -> None:
        self._paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self._resume()

    def close(self) -> None:
        """Close the connection once any pending response is written."""
        self._closing = True
        if not self._waiting:
            self.transport.close()

    def _resume(self) -> None:
        if not (self._waiting or self._paused or self._closing):
            self.transport.resume_reading()
            self._serve(True)

    def _serve(self, fresh: bool) -> None:
        """Answer the buffered requests in order until one suspends."""
        buffer = self._buffer
        start = 0
        try:
            while start < len(buffer) and not (
                self._waiting or self._paused or self._closing
            ):
                request = self._request(start)
                if request is None:
                    break
                method, path, keep_alive, body, start = request
                self._answer(keep_alive, self._server._dispatch, method, path, body)
        except _HttpError as err:
            self.transport.write(
                _response_bytes(err.status, {"error": err.message}, False)
            )
            self.close()
        if start:
            del buffer[:start]
        if not buffer:
            self.deadline = monotonic() + IDLE_TIMEOUT_SECONDS
        elif start or fresh:
            self.deadline = monotonic() + REQUEST_TIMEOUT_SECONDS

    def _request(self, start: int) -> Optional[Tuple[str, str, bool, bytes, int]]:
        """The request at ``buffer[start]`` as method, path, keep-alive
        flag, body and the offset past it; None while incomplete.  Only
        the request at the buffer's start can be incomplete, so ``_head``
        and ``_scanned`` hold for it."""
        buffer = self._buffer
        if self._head is None:
            scan = start + max(self._scanned - 2, 0)
            found = _HEAD_END.search(buffer, scan, start + MAX_HEAD_BYTES)
            if found is None:
                if len(buffer) - start > MAX_HEAD_BYTES:
                    raise _HttpError(400, f"request head over {MAX_HEAD_BYTES} bytes")
                self._scanned = len(buffer) - start
                return None
            head = bytes(buffer[start : found.end()])
            self._head = _parse_head(head), len(head)
        (method, path, keep_alive, length), size = self._head
        end = start + size + length
        if len(buffer) < end:
            return None
        self._head = None
        self._scanned = 0
        return method, path, keep_alive, bytes(buffer[start + size : end]), end

    def _answer(self, keep_alive: bool, handler: Any, *args: Any) -> None:
        """Write ``handler(*args)``'s ``(status, body)``; if it returns
        ``(future, answer)`` instead, write ``answer(result)`` once the
        future is done."""
        try:
            response = handler(*args)
            if response[0].__class__ is not int:
                future, answer = response
                self._waiting = future
                self.transport.pause_reading()
                future.add_done_callback(
                    partial(self._answered, keep_alive, answer)
                )
                return
            data = _response_bytes(*response, keep_alive)
        except _HttpError as err:
            data = _response_bytes(err.status, {"error": err.message}, keep_alive)
        except Exception as err:  # pragma: no cover - last resort
            self._server.engine.stats.errors += 1
            data = _response_bytes(500, {"error": str(err)}, keep_alive)
        self.transport.write(data)
        if not keep_alive:
            self.close()

    def _answered(self, keep_alive: bool, answer: Any, future: Any) -> None:
        self._waiting = None
        self._answer(keep_alive, lambda: answer(future.result()))
        if self._closing:
            self.transport.close()
        else:
            self._resume()


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
        self._connections: Set[_HttpProtocol] = set()
        self._sweeper: Optional["asyncio.Task[None]"] = None
        #: The request memo: coalescer-bound ``/estimate`` body bytes
        #: that parsed, in insertion order, to their ``(user, scope,
        #: plan signature)``, and the total size of those bodies.
        #: Coalescer-bound bodies carry no ``doc``.
        self._requests: Dict[bytes, Tuple[Any, Any, PlanSignature]] = {}
        self._request_bytes = 0
        self.request_memo_hits = 0

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` is the bound port."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _HttpProtocol(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._sweeper = asyncio.ensure_future(self._sweep())

    async def _sweep(self) -> None:
        """Drop every connection past its deadline, a few times per limit."""
        while True:
            await asyncio.sleep(
                min(IDLE_TIMEOUT_SECONDS, REQUEST_TIMEOUT_SECONDS) / 4
            )
            now = monotonic()
            for connection in list(self._connections):
                if connection.deadline < now:
                    connection.transport.abort()

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
        # Each connection closes once its pending response is written.
        connections = list(self._connections)
        for connection in connections:
            connection.close()
        await asyncio.gather(*(connection.closed for connection in connections))

    async def __aenter__(self) -> "SynopsisServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        self.shutdown()
        await self._close()

    # -- request handling --------------------------------------------------

    def _parse_estimate(self, body: bytes) -> _ParsedEstimate:
        """An ``/estimate`` body's user tag, routing keys, twig and plan
        signature.

        A body bound for the coalescer (no ``doc``, no rollup scope)
        that parsed is remembered with its user tag, scope and signature
        only: a repeat skips the JSON decode, the query parse and the
        compile, and has no twig — the coalescer rebuilds one from the
        signature if its estimate memo misses.  Plans hold no synopsis
        state, so entries stay valid across ``/update``.
        """
        remembered = self._requests.get(body)
        if remembered is not None:
            self.request_memo_hits += 1
            user, scope, signature = remembered
            return user, None, scope, None, signature
        payload = _parse_json_body(body)
        try:
            query = self.engine.parse_request_query(payload)
        except ValueError as err:
            self.engine.stats.errors += 1
            raise _HttpError(400, str(err))
        user = payload.get("user", _NO_USER)
        doc_id = payload.get("doc")
        scope = payload.get("scope")
        if doc_id is not None or scope not in (None, "collection"):
            return user, doc_id, scope, query, None
        signature = self.engine.plan_signature(query)
        if len(body) <= MEMO_MAX_BODY_BYTES:
            self._requests[body] = (user, scope, signature)
            self._request_bytes += len(body)
            while self._request_bytes > MEMO_MAX_TOTAL_BYTES:
                oldest = next(iter(self._requests))
                del self._requests[oldest]
                self._request_bytes -= len(oldest)
        return user, None, scope, query, signature

    def _stats(self) -> Dict[str, Any]:
        """The engine's ``/stats`` snapshot plus the request memo."""
        snapshot = self.engine.stats_snapshot()
        snapshot["memo"]["requests"] = {
            "hits": self.request_memo_hits,
            "entries": len(self._requests),
            "bytes": self._request_bytes,
        }
        return snapshot

    def _estimate(self, body: bytes) -> Any:
        """An ``/estimate`` response now if the estimate memo holds its
        signature, else ``(future, answer)``: a coalescer future, or a
        task for a document-routed or rollup body."""
        user, doc_id, scope, query, signature = self._parse_estimate(body)
        if signature is None:
            task = asyncio.ensure_future(self._estimate_routed(doc_id, scope, query))
            return task, partial(self._estimated, user, None)
        coalescer = self.engine.coalescer
        started = perf_counter()
        estimate = coalescer.remembered(signature)
        if estimate is None:
            future = coalescer.enqueue(query, signature)
            return future, partial(self._estimated, user, started)
        return self._estimated(user, started, estimate)

    def _estimated(
        self, user: Any, started: Optional[float], estimate: float
    ) -> Tuple[int, Dict[str, Any]]:
        """An ``/estimate`` response.  A coalesced one (``started`` set)
        records its latency as ``engine.estimate`` would; routed ones are
        recorded by the engine.  ``_answer`` counts a failure."""
        if started is not None:
            self.engine.stats.observe_latency(perf_counter() - started)
        if user is _NO_USER:
            return 200, {"estimate": estimate}
        return 200, {"estimate": estimate, "user": user}

    async def _estimate_routed(
        self, doc_id: Any, scope: Any, query: TwigQuery
    ) -> float:
        """Route one ``/estimate`` body past the coalescer: by document id
        or to the rollup.

        ``{"doc": <id>}`` asks for the document's own synopsis and
        ``{"scope": "rollup"}`` for the merged rollup — both only exist
        on collection-backed engines (``repro serve --collection``);
        other engines answer 400 so the client learns the capability
        gap rather than silently getting a different quantity.
        """
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
        estimate_rollup = getattr(self.engine, "estimate_rollup", None)
        if estimate_rollup is None:
            self.engine.stats.errors += 1
            raise _HttpError(
                400,
                "this engine has no rollup; start the daemon with "
                "`repro serve --collection`",
            )
        return await estimate_rollup(query)

    def _dispatch(self, method: str, path: str, body: bytes) -> Any:
        """One request's ``(status, body)``, or a future of it."""
        if path == "/estimate":
            if method != "POST":
                raise _HttpError(405, "use POST /estimate")
            return self._estimate(body)
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "use GET /healthz")
            return 200, {"status": "ok"}
        if path == "/stats":
            if method != "GET":
                raise _HttpError(405, "use GET /stats")
            return 200, self._stats()
        if path == "/batch":
            if method != "POST":
                raise _HttpError(405, "use POST /batch")
            payload = _parse_json_body(body)
            if not isinstance(payload, dict) or not isinstance(
                payload.get("queries"), list
            ):
                raise _HttpError(400, "body must be {'queries': [...]}")
            if len(payload["queries"]) > MAX_BATCH_QUERIES:
                raise _HttpError(413, f"over {MAX_BATCH_QUERIES} queries")
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
