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
    Stop accepting connections and close the manager.

The socket lives at a filesystem path, so "who may submit" is exactly
"who may open the socket file" — no auth layer of its own.
"""

from __future__ import annotations

import json
import socket
import socketserver
from typing import Any, Callable, Dict, Iterator, Optional

from .manager import (
    JobCancelledError,
    JobFailedError,
    ServiceConfig,
    ServiceManager,
)
from .queue import QueueFullError
from .spec import JobSpec, SpecError

__all__ = ["ServiceServer", "serve_forever", "client_request", "client_submit"]

Send = Callable[..., None]


class ServiceServer(socketserver.ThreadingUnixStreamServer):
    """Bind a :class:`ServiceManager` to a UNIX socket.

    Each connection gets its own handler thread, which calls the
    manager directly; a ``wait`` or ``events`` request blocks only its
    own thread.
    """

    daemon_threads = True

    def __init__(self, socket_path: str, config: Optional[ServiceConfig] = None):
        self.socket_path = str(socket_path)
        self.manager = ServiceManager(config)
        super().__init__(self.socket_path, _Connection, bind_and_activate=False)

    def start(self) -> "ServiceServer":
        """Start the manager's slots, then bind and listen."""
        self.manager.start()
        try:
            self.server_bind()
            self.server_activate()
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Close the manager (ending any job a handler waits on), then
        the socket."""
        self.manager.close()
        self.server_close()

    # -- the ops -------------------------------------------------------

    def dispatch(self, request: Dict[str, Any], send: Send) -> None:
        op = request.get("op")
        if op == "submit":
            self._op_submit(request, send)
        elif op == "jobs":
            send(ok=True, jobs=self.manager.jobs_snapshot())
        elif op == "stats":
            send(ok=True, stats=self.manager.stats_snapshot())
        elif op == "status":
            handle = self.manager.handle(str(request.get("job_id")))
            if handle is None:
                send(ok=False, error="unknown job_id")
            else:
                send(ok=True, job=handle.status())
        elif op == "cancel":
            send(ok=self.manager.cancel(str(request.get("job_id"))))
        elif op == "shutdown":
            send(ok=True)
            # Waits for serve_forever, which runs on another thread.
            self.shutdown()
        else:
            send(ok=False, error=f"unknown op: {op!r}")

    def _op_submit(self, request: Dict[str, Any], send: Send) -> None:
        try:
            spec = JobSpec.from_dict(dict(request.get("spec") or {}))
            handle = self.manager.submit(
                spec, tenant=str(request.get("tenant", "anon"))
            )
        except SpecError as exc:
            send(ok=False, error=f"bad spec: {exc}")
            return
        except QueueFullError as exc:
            send(
                ok=False,
                error="queue_full",
                retry_after=exc.retry_after,
                depth=exc.depth,
            )
            return
        send(
            ok=True,
            job_id=handle.job_id,
            spec_hash=handle.spec_hash,
            state=handle.state,
        )
        if request.get("events"):
            for event in handle.events():
                send(event=event.as_dict())
        if request.get("wait"):
            try:
                send(ok=True, outcome=handle.result().as_dict())
            except JobCancelledError:
                send(ok=False, error="cancelled")
            except JobFailedError as exc:
                send(ok=False, error=str(exc))


class _Connection(socketserver.StreamRequestHandler):
    """One request line in, reply lines out, on the connection's thread."""

    def handle(self) -> None:
        try:
            line = self.rfile.readline()
            if not line:
                return
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                self._send(ok=False, error=f"bad json: {exc}")
                return
            self.server.dispatch(request, self._send)
        except (ConnectionResetError, BrokenPipeError):
            pass

    def _send(self, **payload) -> None:
        self.wfile.write(json.dumps(payload).encode("utf-8") + b"\n")


def serve_forever(
    socket_path: str, config: Optional[ServiceConfig] = None
) -> None:
    """Blocking entry point for ``repro serve``: until a ``shutdown`` op."""
    server = ServiceServer(socket_path, config).start()
    try:
        server.serve_forever()
    finally:
        server.close()


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
