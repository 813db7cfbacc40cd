"""Operator HTTP/1.1 + WebSocket API over the serving stack.

A dependency-free asyncio server (stdlib only — no aiohttp, no
websockets) that fronts the pieces an operator needs to run PREPARE in
production: the :class:`~repro.serve.alarms.AlarmManager` lifecycle,
fleet health from the :class:`~repro.serve.service.PredictionService`,
model versions and the champion pointer from the
:class:`~repro.serve.registry.ModelRegistry`, the alert funnel, and a
Prometheus scrape reusing :meth:`repro.obs.metrics.MetricsRegistry.
render_prometheus` verbatim.

Endpoints (all JSON unless noted):

====================================  =======================================
``GET  /``                            endpoint index
``GET  /healthz``                     liveness probe
``GET  /alarms``                      alarms + per-state counts
                                      (``?state=active`` filters)
``POST /alarms``                      raise a synthetic alarm
                                      (``{"vm", "kind", "severity",
                                      "message"}``)
``GET  /alarms/<id>``                 one alarm with its bounded history
``POST /alarms/<id>/ack``             acknowledge
``POST /alarms/<id>/silence``         mute (``{"duration": seconds}``)
``POST /alarms/<id>/escalate``        bump severity / require re-ack
``POST /alarms/<id>/resolve``         resolve
``GET  /fleet``                       per-VM health, breaker state,
                                      staleness
``GET  /models``                      registry versions + champion
``GET  /funnel``                      alert-funnel counters
``GET  /metrics``                     Prometheus text format (0.0.4)
``GET  /ws``                          WebSocket event stream
====================================  =======================================

The WebSocket stream pushes every alarm transition the moment it
happens (the API registers an :meth:`AlarmManager.add_listener`
callback) plus anything published through :meth:`OperatorAPI.publish`.
Invalid alarm transitions (double-ack, resolve twice) come back as
HTTP 409 with the :class:`~repro.serve.alarms.AlarmError` message, so
operator tooling can distinguish "bad request" from "lost the race
with another operator".
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.obs import NULL_OBS, Observability
from repro.serve.alarms import AlarmError, AlarmManager

__all__ = ["ApiConfig", "OperatorAPI"]

#: RFC 6455 handshake GUID.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_MAX_BODY = 1 << 20
_MAX_HEADERS = 100


def _ws_accept(key: str) -> str:
    digest = hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def _ws_frame(payload: bytes, opcode: int = 0x1) -> bytes:
    """One unmasked server→client frame (FIN set)."""
    header = bytearray([0x80 | opcode])
    n = len(payload)
    if n < 126:
        header.append(n)
    elif n < (1 << 16):
        header.append(126)
        header += n.to_bytes(2, "big")
    else:
        header.append(127)
        header += n.to_bytes(8, "big")
    return bytes(header) + payload


async def _ws_read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[int, bytes]]:
    """Read one client frame → (opcode, payload); None on EOF/garbage.

    Every read is guarded: a client that sends a truncated header, an
    extended-length prefix with no body, or an absurd declared length
    gets its connection dropped (None) instead of crashing the handler
    or pinning memory.
    """
    try:
        head = await reader.readexactly(2)
        opcode = head[0] & 0x0F
        masked = bool(head[1] & 0x80)
        length = head[1] & 0x7F
        if length == 126:
            length = int.from_bytes(await reader.readexactly(2), "big")
        elif length == 127:
            length = int.from_bytes(await reader.readexactly(8), "big")
        if length > _MAX_BODY:
            return None
        mask = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(length) if length else b""
    except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
        return None
    if masked:
        payload = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
    return opcode, payload


class ApiConfig:
    """Tunables of the operator API server."""

    def __init__(
        self,
        ws_queue: int = 256,
        allow_raise: bool = True,
    ) -> None:
        #: events buffered per WebSocket client before it is dropped
        self.ws_queue = ws_queue
        #: whether ``POST /alarms`` (synthetic raises) is enabled
        self.allow_raise = allow_raise


class OperatorAPI:
    """Asyncio HTTP/WS server over alarms, fleet, models and metrics.

    Every collaborator is optional except the alarm manager: without a
    ``service`` the fleet endpoint reports an empty fleet, without a
    ``registry`` the models endpoint only carries the serving champion
    version, and without a ``funnel_fn`` the funnel is derived from
    service counters plus alarm-state tallies.
    """

    def __init__(
        self,
        alarms: AlarmManager,
        service=None,
        registry=None,
        model_name: Optional[str] = None,
        config: Optional[ApiConfig] = None,
        obs: Optional[Observability] = None,
        funnel_fn: Optional[Callable[[], Dict]] = None,
        breaker_fn: Optional[Callable[[str], str]] = None,
    ) -> None:
        self.alarms = alarms
        self.service = service
        self.registry = registry
        self.model_name = model_name
        self.config = config or ApiConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.funnel_fn = funnel_fn
        self.breaker_fn = breaker_fn
        self._server: Optional[asyncio.AbstractServer] = None
        self._ws_clients: Set[asyncio.Queue] = set()
        self._connections: Set[asyncio.Task] = set()
        self._listening = False
        m = self.obs.metrics
        self._m_requests = m.counter(
            "api_requests_total", "HTTP requests served, by status",
            labelnames=("status",))
        self._m_ws = m.gauge(
            "api_ws_clients", "Connected WebSocket clients")
        self._m_pushed = m.counter(
            "api_ws_events_total", "Events pushed to WebSocket clients")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        path: Optional[str] = None,
    ) -> None:
        """Listen on ``host:port`` (TCP) or ``path`` (unix socket)."""
        if self._server is not None:
            raise RuntimeError("API is already started")
        if (path is None) == (host is None):
            raise ValueError("pass either host+port or a unix-socket path")
        if not self._listening:
            self.alarms.add_listener(self._on_alarm_event)
            self._listening = True
        if path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=path)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=host, port=port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._listening:
            self.alarms.remove_listener(self._on_alarm_event)
            self._listening = False
        for queue in list(self._ws_clients):
            queue.put_nowait(None)      # poison pill: writer exits
        # WebSocket handlers block in a read loop until their client
        # hangs up; cancel and await them so shutdown is silent.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    @property
    def port(self) -> Optional[int]:
        """Bound TCP port (for ``port=0`` ephemeral binds); else None."""
        if self._server is None:
            return None
        for sock in self._server.sockets or ():
            name = sock.getsockname()
            if isinstance(name, tuple) and len(name) >= 2:
                return int(name[1])
        return None

    # ------------------------------------------------------------------
    # Event push
    # ------------------------------------------------------------------
    def publish(self, event: Dict) -> None:
        """Push one JSON-serializable event to every WebSocket client."""
        if not self._ws_clients:
            return
        dead = []
        for queue in self._ws_clients:
            try:
                queue.put_nowait(event)
                self._m_pushed.inc()
            except asyncio.QueueFull:
                # A client that cannot keep up is cut loose rather
                # than allowed to grow an unbounded backlog.
                dead.append(queue)
        for queue in dead:
            self._ws_clients.discard(queue)
            try:
                queue.put_nowait(None)
            except asyncio.QueueFull:
                # The queue is full — that is why the client is being
                # cut loose.  Drop one pending event to make room for
                # the poison pill; the client is losing the stream
                # anyway.
                queue.get_nowait()
                queue.put_nowait(None)

    def _on_alarm_event(self, alarm, event: Dict) -> None:
        self.publish({
            "type": "alarm",
            "event": dict(event),
            "alarm": alarm.to_dict(include_events=False),
        })

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, target, headers, body = request
            if (target.split("?", 1)[0] == "/ws"
                    and "websocket" in headers.get("upgrade", "").lower()):
                await self._serve_websocket(reader, writer, headers)
                return
            status, payload, content_type = self._route(
                method, target, body)
            self._m_requests.inc(status=str(status))
            await self._respond(writer, status, payload, content_type)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # stop() cancelled us mid-request; close quietly.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            line = await reader.readline()
        except (ValueError, ConnectionResetError):
            return None      # request line over the stream limit
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers: Dict[str, str] = {}
        terminated = False
        for _ in range(_MAX_HEADERS):
            try:
                raw = await reader.readline()
            except (ValueError, ConnectionResetError):
                return None
            if raw in (b"\r\n", b"\n", b""):
                terminated = True
                break
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if not terminated:
            return None      # header flood: > _MAX_HEADERS lines
        try:
            length = int(headers.get("content-length", "0") or 0)
        except ValueError:
            return None
        if length < 0 or length > _MAX_BODY:
            return None
        try:
            body = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None      # half-open: body shorter than declared
        return method.upper(), target, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        content_type: str,
    ) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 409: "Conflict",
                   500: "Internal Server Error"}
        if isinstance(payload, (dict, list)):
            body = (json.dumps(payload, indent=1, sort_keys=True) + "\n"
                    ).encode("utf-8")
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = payload
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, object, str]:
        path, _sep, query = target.partition("?")
        segments = [s for s in path.split("/") if s]
        try:
            if not segments:
                return self._json(200, self._index())
            head = segments[0]
            if head == "healthz" and method == "GET":
                return self._json(200, {"ok": True})
            if head == "metrics" and method == "GET":
                text = self.obs.metrics.render_prometheus()
                return 200, text, "text/plain; version=0.0.4; charset=utf-8"
            if head == "alarms":
                return self._route_alarms(method, segments, query, body)
            if head == "fleet" and method == "GET":
                return self._json(200, self.fleet_status())
            if head == "models" and method == "GET":
                return self._json(200, self.model_status())
            if head == "funnel" and method == "GET":
                return self._json(200, self.funnel())
            return self._json(404, {"error": f"no such endpoint: {path}"})
        except AlarmError as exc:
            return self._json(409, {"error": str(exc)})
        except (ValueError, KeyError, TypeError) as exc:
            return self._json(400, {"error": str(exc)})

    @staticmethod
    def _json(status: int, payload) -> Tuple[int, object, str]:
        return status, payload, "application/json"

    def _index(self) -> Dict:
        return {
            "service": "prepare-operator-api",
            "endpoints": [
                "GET /healthz", "GET /alarms", "POST /alarms",
                "GET /alarms/<id>", "POST /alarms/<id>/ack",
                "POST /alarms/<id>/silence", "POST /alarms/<id>/escalate",
                "POST /alarms/<id>/resolve", "GET /fleet", "GET /models",
                "GET /funnel", "GET /metrics", "GET /ws",
            ],
        }

    def _route_alarms(
        self, method: str, segments: List[str], query: str, body: bytes
    ) -> Tuple[int, object, str]:
        if len(segments) == 1:
            if method == "GET":
                state = None
                for pair in query.split("&"):
                    if pair.startswith("state="):
                        state = pair[len("state="):] or None
                if state is not None:
                    return self._json(200, {
                        "alarms": [a.to_dict(include_events=False)
                                   for a in self.alarms.alarms(state)],
                        "counts": self.alarms.counts(),
                    })
                return self._json(200, self.alarms.snapshot())
            if method == "POST":
                if not self.config.allow_raise:
                    return self._json(405, {
                        "error": "synthetic raises are disabled"})
                fields = self._body_json(body)
                alarm = self.alarms.raise_alarm(
                    vm=str(fields["vm"]),
                    kind=str(fields["kind"]),
                    severity=str(fields.get("severity", "warning")),
                    message=str(fields.get("message", "")),
                )
                return self._json(200, alarm.to_dict())
            return self._json(405, {"error": f"{method} not allowed"})
        alarm_id = int(segments[1])
        if len(segments) == 2:
            if method != "GET":
                return self._json(405, {"error": f"{method} not allowed"})
            return self._json(200, self.alarms.get(alarm_id).to_dict())
        verb = segments[2]
        if method != "POST":
            return self._json(405, {"error": f"{method} not allowed"})
        fields = self._body_json(body)
        if verb == "ack":
            alarm = self.alarms.ack(alarm_id)
        elif verb == "silence":
            alarm = self.alarms.silence(
                alarm_id, float(fields.get("duration", 300.0)))
        elif verb == "escalate":
            alarm = self.alarms.escalate(
                alarm_id, severity=fields.get("severity"),
                reason=str(fields.get("reason", "operator")))
        elif verb == "resolve":
            alarm = self.alarms.resolve(
                alarm_id, reason=str(fields.get("reason", "operator")))
        else:
            return self._json(404, {"error": f"no such action: {verb}"})
        return self._json(200, alarm.to_dict())

    @staticmethod
    def _body_json(body: bytes) -> Dict:
        if not body:
            return {}
        decoded = json.loads(body.decode("utf-8"))
        if not isinstance(decoded, dict):
            raise ValueError("request body must be a JSON object")
        return decoded

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def fleet_status(self) -> Dict:
        """Per-VM health: warmup fill, staleness, breaker state."""
        vms: List[Dict] = []
        if self.service is not None:
            vms = self.service.fleet_status()
        for row in vms:
            row["breaker"] = (
                self.breaker_fn(row["vm"]) if self.breaker_fn is not None
                else "closed"
            )
        payload = {"n_vms": len(vms), "vms": vms}
        if self.service is not None:
            payload["service"] = self.service.stats()
        return payload

    def model_status(self) -> Dict:
        """Registry versions plus the serving champion version."""
        payload: Dict = {"name": self.model_name}
        if self.service is not None:
            payload["champion_version"] = self.service.champion_version
        if self.registry is not None and self.model_name is not None:
            active = self.registry.active_info(self.model_name)
            payload["registry"] = {
                "versions": self.registry.versions(self.model_name),
                "active": active.version if active else None,
                "previous": active.previous if active else None,
            }
        return payload

    def funnel(self) -> Dict:
        """Alert-funnel counters.

        With a ``funnel_fn`` (e.g. the offline controller's telemetry
        funnel) its payload is served under ``source: "telemetry"``;
        otherwise the serving-side approximation: samples → scores →
        alarm states.
        """
        if self.funnel_fn is not None:
            return {"source": "telemetry", **self.funnel_fn()}
        payload = {"source": "serve", "alarms": self.alarms.counts()}
        if self.service is not None:
            stats = self.service.stats()
            payload.update({
                "samples": stats["samples"],
                "scores": stats["scores"],
                "sheds": stats["sheds"],
            })
        return payload

    # ------------------------------------------------------------------
    # WebSocket
    # ------------------------------------------------------------------
    async def _serve_websocket(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: Dict[str, str],
    ) -> None:
        key = headers.get("sec-websocket-key")
        if not key:
            await self._respond(writer, 400,
                                {"error": "missing Sec-WebSocket-Key"},
                                "application/json")
            return
        writer.write((
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {_ws_accept(key)}\r\n\r\n"
        ).encode("latin-1"))
        await writer.drain()
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.config.ws_queue)
        self._ws_clients.add(queue)
        self._m_ws.set(len(self._ws_clients))
        hello = {"type": "hello", "counts": self.alarms.counts()}
        writer.write(_ws_frame(json.dumps(hello).encode("utf-8")))
        await writer.drain()
        sender = asyncio.ensure_future(self._ws_send_loop(writer, queue))
        try:
            while True:
                frame = await _ws_read_frame(reader)
                if frame is None:
                    break
                opcode, payload = frame
                if opcode == 0x8:               # close
                    writer.write(_ws_frame(payload, opcode=0x8))
                    await writer.drain()
                    break
                if opcode == 0x9:               # ping → pong
                    writer.write(_ws_frame(payload, opcode=0xA))
                    await writer.drain()
                # Text/binary/pong frames from clients are ignored:
                # the stream is one-way, operators act over HTTP.
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._ws_clients.discard(queue)
            self._m_ws.set(len(self._ws_clients))
            sender.cancel()
            try:
                await sender
            except asyncio.CancelledError:
                pass

    async def _ws_send_loop(
        self, writer: asyncio.StreamWriter, queue: asyncio.Queue
    ) -> None:
        while True:
            event = await queue.get()
            if event is None:
                # Poison pill (server stopping or client cut loose for
                # lagging): say goodbye with a proper close frame so
                # well-behaved clients see a clean shutdown, not EOF.
                try:
                    writer.write(_ws_frame(
                        (1001).to_bytes(2, "big") + b"server shutdown",
                        opcode=0x8))
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass
                break
            try:
                writer.write(_ws_frame(json.dumps(event).encode("utf-8")))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                break
