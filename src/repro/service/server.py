"""UNIX-socket JSON-lines transport for the service.

One request per connection, newline-delimited JSON both ways — trivial
to drive from ``nc``, scripts, or the bundled client helpers the CLI
uses.  Ops:

``{"op": "submit", "spec": {...}, "tenant": "...", "wait": true,
"events": false}``
    Submit a spec.  Immediate ack line
    ``{"ok": true, "job_id": ..., "cached": ...}``; with ``events``
    each job event follows as ``{"event": {...}}`` lines; with ``wait``
    the final line is ``{"ok": true, "outcome": {...}}`` (or
    ``{"ok": false, "error": ...}``).  A full queue answers
    ``{"ok": false, "error": "queue_full", "retry_after": ...}``.
``{"op": "jobs"}`` / ``{"op": "stats"}``
    Snapshot listings.
``{"op": "status", "job_id": ...}``
    One job's snapshot.
``{"op": "cancel", "job_id": ...}``
    Cooperative cancellation.
``{"op": "shutdown"}``
    Stop the server loop.

The socket lives at a filesystem path, so "who may submit" is exactly
"who may open the socket file" — no auth layer of its own.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any, Dict, Iterator, Optional

from .manager import (
    JobCancelledError,
    JobFailedError,
    ServiceConfig,
    ServiceManager,
)
from .queue import QueueFullError
from .spec import JobSpec, SpecError

__all__ = ["ServiceServer", "serve_forever", "client_request", "client_submit"]


class ServiceServer:
    """Bind a :class:`ServiceManager` to a UNIX socket."""

    def __init__(self, socket_path: str, config: Optional[ServiceConfig] = None):
        self.socket_path = str(socket_path)
        self.manager = ServiceManager(config)
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    async def start(self) -> "ServiceServer":
        await self.manager.start()
        self._server = await asyncio.start_unix_server(
            self._handle, path=self.socket_path
        )
        return self

    async def serve_until_shutdown(self) -> None:
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.close()

    # -- the wire ------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                await self._send(writer, ok=False, error=f"bad json: {exc}")
                return
            await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        op = request.get("op")
        if op == "submit":
            await self._op_submit(request, writer)
        elif op == "jobs":
            await self._send(
                writer, ok=True, jobs=self.manager.jobs_snapshot()
            )
        elif op == "stats":
            await self._send(
                writer, ok=True, stats=self.manager.stats_snapshot()
            )
        elif op == "status":
            handle = self.manager.handle(str(request.get("job_id")))
            if handle is None:
                await self._send(writer, ok=False, error="unknown job_id")
            else:
                await self._send(writer, ok=True, job=handle.status())
        elif op == "cancel":
            ok = await self.manager.cancel(str(request.get("job_id")))
            await self._send(writer, ok=ok)
        elif op == "shutdown":
            await self._send(writer, ok=True)
            self._shutdown.set()
        else:
            await self._send(writer, ok=False, error=f"unknown op: {op!r}")

    async def _op_submit(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        try:
            spec = JobSpec.from_dict(dict(request.get("spec") or {}))
            handle = self.manager.submit(
                spec, tenant=str(request.get("tenant", "anon"))
            )
        except SpecError as exc:
            await self._send(writer, ok=False, error=f"bad spec: {exc}")
            return
        except QueueFullError as exc:
            await self._send(
                writer,
                ok=False,
                error="queue_full",
                retry_after=exc.retry_after,
                depth=exc.depth,
            )
            return
        await self._send(
            writer,
            ok=True,
            job_id=handle.job_id,
            spec_hash=handle.spec_hash,
            state=handle.state,
        )
        if request.get("events"):
            async for event in handle.events():
                await self._send(writer, event=event.as_dict())
        if request.get("wait"):
            try:
                outcome = await handle.result()
                await self._send(writer, ok=True, outcome=outcome.as_dict())
            except JobCancelledError:
                await self._send(writer, ok=False, error="cancelled")
            except JobFailedError as exc:
                await self._send(writer, ok=False, error=str(exc))

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, **payload) -> None:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()


async def _serve(socket_path: str, config: Optional[ServiceConfig]) -> None:
    server = await ServiceServer(socket_path, config).start()
    await server.serve_until_shutdown()


def serve_forever(
    socket_path: str, config: Optional[ServiceConfig] = None
) -> None:
    """Blocking entry point for ``repro serve``."""
    asyncio.run(_serve(socket_path, config))


# -- synchronous client helpers (the `repro submit` / `repro jobs` side) --


def client_request(
    socket_path: str, request: Dict[str, Any], *, timeout: float = 600.0
) -> Dict[str, Any]:
    """Send one request, return the first response line."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(socket_path)
        sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
        with sock.makefile("r", encoding="utf-8") as stream:
            line = stream.readline()
    if not line:
        raise ConnectionError("server closed the connection without a reply")
    return json.loads(line)


def client_submit(
    socket_path: str,
    spec: JobSpec,
    *,
    tenant: str = "cli",
    wait: bool = True,
    events: bool = False,
    timeout: float = 600.0,
) -> Iterator[Dict[str, Any]]:
    """Submit over the socket, yielding each response line as a dict."""
    request = {
        "op": "submit",
        "spec": spec.as_dict(),
        "tenant": tenant,
        "wait": wait,
        "events": events,
    }
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(socket_path)
        sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
        with sock.makefile("r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if line:
                    yield json.loads(line)
