"""Asyncio HTTP/JSON front end for :class:`SchedulingService`.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
``http.server``, no third-party framework — because the API is five
routes and the interesting machinery (dedupe, quotas, backpressure,
cancellation) all lives in the transport-free job manager:

========================== ==========================================
``GET /healthz``            liveness probe (also ``GET /``)
``GET /stats``              service counters + latency percentiles
``POST /jobs``              submit (202 created / 200 deduped /
                            400 malformed / 429 quota or queue full)
``GET /jobs/<id>``          job document (404 unknown)
``POST /jobs/<id>/cancel``  request cancellation (404 unknown)
``GET /jobs/<id>/events``   NDJSON event stream; ``?from=N`` resumes
                            after event ``N-1``; closes at terminal
========================== ==========================================

Every response closes its connection (``Connection: close``) so the
codec never needs keep-alive/chunked framing; the event stream is an
EOF-delimited NDJSON body. Blocking service calls (submission parses a
graph; event tailing waits on a condition) run in the default executor
so the event loop stays responsive under concurrent clients.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
from typing import Any

from ..errors import ProtocolError, QuotaExceeded, ServiceBusy, ServiceError
from .jobs import SchedulingService
from .protocol import SERVICE_SCHEMA

__all__ = ["ServiceServer"]

logger = logging.getLogger(__name__)

#: Submission payload size cap — a 2503-node serialized CDFG is ~1 MB,
#: so this is generous without letting one client exhaust memory.
MAX_BODY_BYTES = 64 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error"}


class ServiceServer:
    """One listening endpoint over one :class:`SchedulingService`."""

    def __init__(self, service: SchedulingService, host: str = "127.0.0.1",
                 port: int = 8321) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (``port=0`` picks a free port)."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def serve_in_thread(self) -> "ServiceServer":
        """Run the event loop in a daemon thread (tests, fixtures).

        Returns once the port is bound; :meth:`stop` tears it down.
        """
        started = threading.Event()

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop.run_until_complete(self.start())
            started.set()
            try:
                loop.run_forever()
            finally:
                if self._server is not None:
                    self._server.close()
                    loop.run_until_complete(self._server.wait_closed())
                loop.close()

        self._thread = threading.Thread(target=runner, name="repro-serve",
                                        daemon=True)
        self._thread.start()
        if not started.wait(timeout=10.0):
            raise ServiceError("service server failed to start")
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)
            self._thread = None

    # -- request handling ----------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._respond(writer, exc.status,
                                    {"error": "HttpError",
                                     "message": exc.message})
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            await self._route(writer, method, path, body)
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception as exc:  # noqa: BLE001 - serve 500, keep running
            logger.exception("request handling failed")
            try:
                await self._respond(writer, 500,
                                    {"error": type(exc).__name__,
                                     "message": str(exc)})
            except (ConnectionError, OSError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader
                            ) -> tuple[str, str, bytes]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 3:
            raise _HttpError(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        header_bytes = 0
        while True:
            line = await reader.readline()
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                raise _HttpError(400, "headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError as exc:
                    raise _HttpError(400, "bad Content-Length") from exc
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = (await reader.readexactly(content_length)
                if content_length else b"")
        return method, path, body

    async def _route(self, writer: asyncio.StreamWriter, method: str,
                     path: str, body: bytes) -> None:
        path, _, query = path.partition("?")
        if path in ("/", "/healthz") and method == "GET":
            await self._respond(writer, 200, {"ok": True,
                                              "schema": SERVICE_SCHEMA})
            return
        if path == "/stats" and method == "GET":
            await self._respond(writer, 200, self.service.stats())
            return
        if path == "/jobs" and method == "POST":
            await self._submit(writer, body)
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if rest.endswith("/cancel") and method == "POST":
                await self._cancel(writer, rest[:-len("/cancel")])
                return
            if rest.endswith("/events") and method == "GET":
                await self._events(writer, rest[:-len("/events")], query)
                return
            if "/" not in rest and method == "GET":
                await self._get_job(writer, rest)
                return
        await self._respond(writer, 404, {"error": "NotFound",
                                          "message": f"no route {path!r}"})

    async def _submit(self, writer: asyncio.StreamWriter,
                      body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            await self._respond(writer, 400,
                                {"error": "ProtocolError",
                                 "message": "body is not valid JSON"})
            return
        loop = asyncio.get_running_loop()
        try:
            # Parsing a large inline graph and fingerprinting it are CPU
            # work; keep them off the event loop.
            job, created = await loop.run_in_executor(
                None, self.service.submit, payload)
        except ProtocolError as exc:
            await self._respond(writer, 400, {"error": "ProtocolError",
                                              "message": str(exc)})
            return
        except (QuotaExceeded, ServiceBusy) as exc:
            await self._respond(writer, 429, {"error": type(exc).__name__,
                                              "message": str(exc)})
            return
        except ServiceError as exc:
            await self._respond(writer, 500, {"error": type(exc).__name__,
                                              "message": str(exc)})
            return
        document = job.document(include_result=False)
        document["deduped"] = not created
        await self._respond(writer, 202 if created else 200, document)

    async def _get_job(self, writer: asyncio.StreamWriter,
                       job_id: str) -> None:
        job = self.service.get(job_id)
        if job is None:
            await self._respond(writer, 404,
                                {"error": "NotFound",
                                 "message": f"unknown job {job_id!r}"})
            return
        await self._respond(writer, 200, job.document())

    async def _cancel(self, writer: asyncio.StreamWriter,
                      job_id: str) -> None:
        job = self.service.cancel(job_id)
        if job is None:
            await self._respond(writer, 404,
                                {"error": "NotFound",
                                 "message": f"unknown job {job_id!r}"})
            return
        await self._respond(writer, 200, job.document(include_result=False))

    async def _events(self, writer: asyncio.StreamWriter, job_id: str,
                      query: str) -> None:
        job = self.service.get(job_id)
        if job is None:
            await self._respond(writer, 404,
                                {"error": "NotFound",
                                 "message": f"unknown job {job_id!r}"})
            return
        start = 0
        for pair in query.split("&"):
            name, _, value = pair.partition("=")
            if name == "from" and value.isdigit():
                start = int(value)
        writer.write(self._head(200, "application/x-ndjson"))
        await writer.drain()
        loop = asyncio.get_running_loop()
        index = start
        while True:
            batch = await loop.run_in_executor(
                None, job.wait_events, index, 0.25)
            for event in batch:
                writer.write(json.dumps(event, sort_keys=True)
                             .encode("utf-8") + b"\n")
            index += len(batch)
            await writer.drain()
            # Terminal + fully flushed: the final "state" event has been
            # written, so the stream is complete.
            if job.done.is_set() and index >= len(job.events):
                return

    # -- response plumbing ---------------------------------------------
    @staticmethod
    def _head(status: int, content_type: str,
              length: int | None = None) -> bytes:
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                 f"Content-Type: {content_type}",
                 "Connection: close"]
        if length is not None:
            lines.append(f"Content-Length: {length}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       document: dict[str, Any]) -> None:
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        writer.write(self._head(status, "application/json", len(body))
                     + body)
        await writer.drain()


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
