"""The ``repro serve`` HTTP application: one warm session, many clients.

A deliberately small HTTP/1.1 server on :mod:`asyncio` (stdlib only, one
connection per request, ``Connection: close``) fronting a single shared
:class:`~repro.api.Session`.  The session is created with
``keep_pool=True`` so the worker process pool and the two-tier persistent
cache stay warm across requests -- the service answers a repeated
experiment from the network cache tier in milliseconds, and the
:class:`~repro.serve.coalescer.RequestCoalescer` collapses identical
*in-flight* requests into one computation.

Endpoints (see ``docs/serve.md`` for the wire format):

* ``GET  /healthz``  -- liveness + version;
* ``GET  /stats``    -- telemetry: requests, coalescing, latency, cache;
* ``POST /run``      -- body is an ExperimentSpec JSON (the ``repro run``
  file); ``?quick=`` overrides sampling, ``?stream=1`` switches to a
  chunked NDJSON progress stream ending in the result document;
* ``POST /search``   -- body is a SearchSpec JSON, same query options;
* ``POST /shutdown`` -- begin graceful shutdown (drain, then exit).

Evaluations run on a small thread pool (each one dispatching into the
session's process pool when ``workers > 1``), so the event loop stays
responsive while heavy requests are in flight.  Responses reuse the exact
``repro run --json`` / ``repro search --json`` payloads -- the served
rows are bitwise-identical to the CLI's -- plus a ``"serve"`` metadata
block and the shared JSON error envelope on failures.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping

from repro import __version__
from repro.api import Session
from repro.errors import envelope_from_exception, error_envelope
from repro.obs import trace as obs
from repro.serve.coalescer import Computation, RequestCoalescer
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    RequestError,
    parse_path,
    parse_query,
    parse_run_request,
    parse_search_request,
    run_coalesce_key,
    run_payload,
    search_coalesce_key,
    search_payload,
)
from repro.serve.telemetry import ServeTelemetry

#: Default TCP port (spells "VSVR" on a phone pad about as well as any).
DEFAULT_PORT = 8757

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Terminal stream events published by the coalescer when a task settles.
_TERMINAL_EVENTS = {"done", "error", "cancelled"}

#: Cap on accepted request bodies (specs are small; 8 MiB is generous).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Cap on request header lines (real clients send a handful).
MAX_HEADER_LINES = 64


class ServeApp:
    """The evaluation service: routing, coalescing, telemetry, lifecycle.

    Args:
        session: the shared warm session; ``None`` builds one from
            ``workers`` / ``cache_dir`` with ``keep_pool=True``.
        workers: session worker processes (``0``/``1`` = serial).
        cache_dir: persistent cache root for the built session.
        compute_threads: request evaluations running concurrently; each
            occupies one thread (and fans into the process pool when the
            session is parallel).
        drain_timeout: seconds graceful shutdown waits for in-flight
            computations before cancelling stragglers.
    """

    def __init__(
        self,
        session: Session | None = None,
        *,
        workers: int = 0,
        cache_dir: str | None = None,
        compute_threads: int = 4,
        drain_timeout: float = 30.0,
    ) -> None:
        self.session = session if session is not None else Session(
            workers=workers, cache_dir=cache_dir, keep_pool=True
        )
        self.telemetry = ServeTelemetry()
        self.coalescer = RequestCoalescer()
        self._request_ids = itertools.count(1)
        self.drain_timeout = drain_timeout
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, compute_threads), thread_name_prefix="serve-compute"
        )
        self._server: asyncio.AbstractServer | None = None
        self._shutdown_requested: asyncio.Event | None = None
        self._connections: set[asyncio.Task] = set()
        self._draining = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> None:
        """Bind and start accepting connections (``port=0`` picks a free one)."""
        self._shutdown_requested = asyncio.Event()
        self._server = await asyncio.start_server(self._handle_connection, host, port)

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Flag graceful shutdown; safe from signal handlers and handlers."""
        self._draining = True
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def shutdown(self) -> None:
        """Drain in-flight work, close the listener, release the session.

        The listener stays open while draining so already-connected and
        still-arriving clients get a clean answer: in-flight requests
        complete normally, new evaluation requests get an enveloped 503,
        and ``/stats`` keeps answering (how an orchestrator watches the
        drain).  Only after the drain does the socket close.
        """
        if self._closed:
            return
        self._closed = True
        self._draining = True
        drained = await self.coalescer.drain(self.drain_timeout)
        current = asyncio.current_task()
        pending = {
            task for task in self._connections
            if task is not current and not task.done()
        }
        if pending:
            # Let open connections finish writing their responses.
            await asyncio.wait(pending, timeout=self.drain_timeout)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=False, cancel_futures=True)
        # A timed-out drain means an evaluation is still running on a
        # compute thread; closing the session with wait=True would block
        # on it (the worker pool joins in-flight chunks), stretching
        # shutdown far past drain_timeout.  Release without waiting.
        self.session.close(wait=drained)

    def install_signal_handlers(self) -> None:
        """Route SIGINT/SIGTERM to :meth:`request_shutdown` (best effort)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    async def wait_for_shutdown_request(self) -> None:
        """Block until :meth:`request_shutdown` fires (signal, /shutdown)."""
        assert self._shutdown_requested is not None, "start() first"
        await self._shutdown_requested.wait()

    async def run_until_shutdown(
        self, host: str = "127.0.0.1", port: int = DEFAULT_PORT
    ) -> None:
        """Start, install SIGINT/SIGTERM handlers, serve until shutdown."""
        await self.start(host, port)
        self.install_signal_handlers()
        try:
            await self.wait_for_shutdown_request()
        finally:
            await self.shutdown()

    # ------------------------------------------------------------------
    # HTTP plumbing.
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            try:
                parsed = await self._read_request(reader, writer)
            except ValueError as exc:
                # StreamReader raises ValueError past its line-length
                # limit: an oversized request line / header, not a bug.
                self._send_json(writer, 400, error_envelope(
                    "invalid-request", f"unreadable request: {exc}"
                ))
                parsed = None
            if parsed is not None:
                method, target, headers, body = parsed
                await self._dispatch(writer, method, target, headers, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except Exception as exc:  # pragma: no cover - last-resort guard
            try:
                self._send_json(writer, 500, envelope_from_exception(exc))
            except ConnectionError:
                pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                if writer.can_write_eof():
                    writer.write_eof()
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        request_line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        if not request_line:
            return None
        parts = request_line.split(" ")
        if len(parts) != 3:
            self._send_json(
                writer, 400,
                error_envelope("invalid-request", f"bad request line {request_line!r}"),
            )
            return None
        method, target, _version = parts
        headers: dict[str, str] = {}
        for lines_read in range(MAX_HEADER_LINES + 1):
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            if lines_read == MAX_HEADER_LINES:
                self._send_json(
                    writer, 400,
                    error_envelope(
                        "invalid-request",
                        f"more than {MAX_HEADER_LINES} request header lines",
                    ),
                )
                return None
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "").strip()
        if raw_length and not (raw_length.isascii() and raw_length.isdigit()):
            self._send_json(
                writer, 400,
                error_envelope(
                    "invalid-request",
                    f"content-length {raw_length!r} is not a "
                    f"non-negative integer",
                ),
            )
            return None
        length = int(raw_length) if raw_length else 0
        if length > MAX_BODY_BYTES:
            self._send_json(
                writer, 400,
                error_envelope(
                    "invalid-request",
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                ),
            )
            return None
        if headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Mapping
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    def _send_text(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        text: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        body = text.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    def _start_stream(self, writer: asyncio.StreamWriter) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )

    async def _send_chunk(self, writer: asyncio.StreamWriter, payload: Mapping) -> None:
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        await writer.drain()

    def _end_stream(self, writer: asyncio.StreamWriter) -> None:
        writer.write(b"0\r\n\r\n")

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: Mapping[str, str],
        body: bytes,
    ) -> None:
        path = parse_path(target)
        query = parse_query(target)
        self.telemetry.request_received(f"{method} {path}")
        try:
            if method == "GET" and path == "/healthz":
                self._send_json(writer, 200, {
                    "ok": True,
                    "version": __version__,
                    "protocol": PROTOCOL_VERSION,
                    "draining": self._draining,
                })
            elif method == "GET" and path == "/stats":
                self._send_json(
                    writer, 200,
                    self.telemetry.as_dict(self.session.stats),
                )
            elif method == "GET" and path == "/metrics":
                self._send_text(
                    writer, 200,
                    self.telemetry.render_prometheus(self.session.stats),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            elif method == "POST" and path == "/shutdown":
                self._send_json(writer, 200, {"ok": True, "draining": True})
                self.request_shutdown()
            elif method == "POST" and path in ("/run", "/search"):
                if self._draining:
                    self._send_json(writer, 503, error_envelope(
                        "draining", "server is shutting down; not accepting work"
                    ))
                    self.telemetry.request_failed()
                    return
                await self._handle_evaluation(writer, path, query, body)
                return
            elif path in ("/run", "/search", "/shutdown", "/healthz", "/stats",
                          "/metrics"):
                self._send_json(writer, 405, error_envelope(
                    "method-not-allowed", f"{method} is not supported on {path}"
                ))
                self.telemetry.request_failed()
            else:
                self._send_json(writer, 404, error_envelope(
                    "not-found",
                    f"unknown endpoint {path!r}; try /healthz, /stats, "
                    f"/metrics, /run, /search, /shutdown",
                ))
                self.telemetry.request_failed()
        except RequestError as exc:
            self._send_json(writer, 400, error_envelope(exc.kind, str(exc)))
            self.telemetry.request_failed()

    # ------------------------------------------------------------------
    # Evaluation requests: coalesce, compute, answer (or stream).
    # ------------------------------------------------------------------

    async def _handle_evaluation(
        self,
        writer: asyncio.StreamWriter,
        path: str,
        query: Mapping[str, str],
        body: bytes,
    ) -> None:
        accepted = time.monotonic()
        # Request spans are explicit roots (parent_id=None): concurrent
        # requests interleave on the one event-loop thread, so the
        # thread-local parent stack cannot be trusted across awaits.
        request_id = next(self._request_ids)
        with obs.ACTIVE.span(
            "serve.request", parent_id=None, endpoint=path, request_id=request_id
        ) as req_span:
            try:
                if path == "/run":
                    spec, quick, stream = parse_run_request(body, query)
                    key = run_coalesce_key(spec, quick)

                    def call(progress):
                        return self.session.run(spec, quick=quick, progress=progress)

                    # Shaping is per *request*, not per computation: the
                    # coalesce key ignores name/title, so a coalesced waiter
                    # re-anchors the shared result on its own spec.
                    def shape(result, serve_meta):
                        return run_payload(result, spec, serve_meta)
                else:
                    spec, quick, stream = parse_search_request(body, query)
                    key = search_coalesce_key(spec, quick)

                    def call(progress):
                        return self.session.search(
                            spec, quick=quick, progress=progress
                        )

                    def shape(result, serve_meta):
                        return search_payload(result, spec, serve_meta)
            except RequestError:
                raise
            except ValueError as exc:
                raise RequestError(str(exc)) from None

            computation, coalesced = self.coalescer.join(
                key,
                lambda comp: self._compute(comp, call, key, req_span.span_id),
            )
            if coalesced:
                self.telemetry.coalesce_hit()
            req_span.set(key=key, coalesced=coalesced)
            meta = {"key": key, "coalesced": coalesced, "endpoint": path}

            if stream:
                await self._answer_streaming(
                    writer, computation, shape, meta, accepted
                )
            else:
                await self._answer_unary(writer, computation, shape, meta, accepted)

    async def _compute(
        self,
        computation: Computation,
        call,
        key: str | None = None,
        parent_span_id: int | None = None,
    ) -> dict:
        """The shared computation body: runs ``call`` on a compute thread."""
        self.telemetry.computation_started()
        enqueued = time.monotonic()
        timing: dict[str, float] = {}

        def work():
            started = time.monotonic()
            timing["queue_s"] = started - enqueued
            # The compute span is stitched to the owning request span by
            # explicit id -- this runs on an executor thread, whose span
            # stack is empty -- and session/engine spans nest under it.
            with obs.ACTIVE.span(
                "serve.compute", parent_id=parent_span_id, key=key
            ):
                result = call(computation.progress_callback())
            timing["compute_s"] = time.monotonic() - started
            return result

        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(self._executor, work)
        except BaseException:
            self.telemetry.computation_finished(
                timing.get("queue_s", time.monotonic() - enqueued),
                timing.get("compute_s", 0.0),
            )
            raise
        self.telemetry.computation_finished(
            timing["queue_s"], timing["compute_s"], result.cache_stats,
            runner_chunks=result.outcome.chunks,
        )
        return {
            "result": result,
            "queue_ms": round(timing["queue_s"] * 1000.0, 3),
            "compute_ms": round(timing["compute_s"] * 1000.0, 3),
        }

    def _result_document(
        self, outcome: dict, shape, meta: dict, accepted: float
    ) -> dict:
        return shape(outcome["result"], dict(
            meta,
            queue_ms=outcome["queue_ms"],
            compute_ms=outcome["compute_ms"],
            answer_ms=round((time.monotonic() - accepted) * 1000.0, 3),
        ))

    async def _answer_unary(
        self,
        writer: asyncio.StreamWriter,
        computation: Computation,
        shape,
        meta: dict,
        accepted: float,
    ) -> None:
        try:
            outcome = await self.coalescer.wait(computation)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            status = 400 if isinstance(exc, ValueError) else 500
            self._send_json(writer, status, envelope_from_exception(exc))
            self.telemetry.request_failed()
            return
        self._send_json(
            writer, 200, self._result_document(outcome, shape, meta, accepted)
        )
        self.telemetry.request_completed(
            endpoint=f"POST {meta['endpoint']}",
            latency_s=time.monotonic() - accepted,
        )

    async def _answer_streaming(
        self,
        writer: asyncio.StreamWriter,
        computation: Computation,
        shape,
        meta: dict,
        accepted: float,
    ) -> None:
        """Chunked NDJSON: accepted, progress ticks, then result/error.

        The subscription is registered *before* the first await so no
        progress tick can slip past; a write failure (client disconnect)
        abandons only this stream -- the shared computation, protected by
        the coalescer's shield, keeps running for everyone else.
        """
        self.telemetry.request_streamed()
        queue = computation.subscribe()
        try:
            self._start_stream(writer)
            await self._send_chunk(writer, dict(meta, event="accepted"))
            task = computation.task
            assert task is not None
            while not task.done():
                event = await queue.get()
                if event.get("event") in _TERMINAL_EVENTS:
                    break
                await self._send_chunk(writer, event)
            try:
                outcome = await self.coalescer.wait(computation)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                envelope = envelope_from_exception(exc)
                envelope["event"] = "error"
                await self._send_chunk(writer, envelope)
                self._end_stream(writer)
                self.telemetry.request_failed()
                return
            document = self._result_document(outcome, shape, meta, accepted)
            document["event"] = "result"
            await self._send_chunk(writer, document)
            self._end_stream(writer)
            self.telemetry.request_completed(
                endpoint=f"POST {meta['endpoint']}",
                latency_s=time.monotonic() - accepted,
            )
        finally:
            computation.unsubscribe(queue)
