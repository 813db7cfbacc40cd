"""Tests for the operator HTTP/WebSocket API."""

import asyncio
import base64
import json

import numpy as np
import pytest

from repro.obs import Observability
from repro.obs.metrics import parse_prometheus_text
from repro.serve.alarms import AlarmManager
from repro.serve.api import OperatorAPI, _ws_accept
from repro.serve.registry import ModelRegistry
from repro.serve.service import PredictionService, ServiceConfig

from .test_service import make_fleet


async def http_request(port, method, path, body=None):
    """One HTTP/1.1 exchange → (status, parsed JSON or text)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    writer.write((
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode("latin-1") + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body_bytes = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    text = body_bytes.decode("utf-8")
    if b"application/json" in head:
        return status, json.loads(text)
    return status, text


class WsClient:
    """Minimal RFC 6455 client for the tests (masked frames)."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        key = base64.b64encode(b"0123456789abcdef").decode("ascii")
        writer.write((
            f"GET /ws HTTP/1.1\r\nHost: test\r\nUpgrade: websocket\r\n"
            f"Connection: Upgrade\r\nSec-WebSocket-Key: {key}\r\n"
            f"Sec-WebSocket-Version: 13\r\n\r\n"
        ).encode("latin-1"))
        await writer.drain()
        status_line = await reader.readline()
        assert b"101" in status_line
        accept = None
        while True:
            line = await reader.readline()
            if not line.strip():
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "sec-websocket-accept":
                accept = value.strip()
        assert accept == _ws_accept(key)
        return cls(reader, writer)

    async def recv(self, timeout=5.0):
        async def _read():
            head = await self.reader.readexactly(2)
            length = head[1] & 0x7F
            if length == 126:
                length = int.from_bytes(
                    await self.reader.readexactly(2), "big")
            payload = await self.reader.readexactly(length)
            return head[0] & 0x0F, payload
        opcode, payload = await asyncio.wait_for(_read(), timeout)
        return opcode, (json.loads(payload) if opcode == 0x1 else payload)

    def send_frame(self, payload: bytes, opcode: int) -> None:
        mask = b"\x01\x02\x03\x04"
        masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        self.writer.write(
            bytes([0x80 | opcode, 0x80 | len(payload)]) + mask + masked)

    def close(self):
        self.writer.close()


def run_api_test(coro_factory, **api_kwargs):
    async def main():
        api = OperatorAPI(
            api_kwargs.pop("alarms", None) or AlarmManager(), **api_kwargs)
        await api.start(host="127.0.0.1", port=0)
        try:
            return await coro_factory(api, api.port)
        finally:
            await api.stop()
    return asyncio.run(main())


class TestHttpEndpoints:
    def test_index_and_healthz(self):
        async def scenario(api, port):
            status, index = await http_request(port, "GET", "/")
            assert status == 200
            assert "GET /metrics" in index["endpoints"]
            status, health = await http_request(port, "GET", "/healthz")
            assert (status, health) == (200, {"ok": True})
        run_api_test(scenario)

    def test_unknown_routes(self):
        async def scenario(api, port):
            status, _ = await http_request(port, "GET", "/nope")
            assert status == 404
            status, _ = await http_request(port, "DELETE", "/alarms")
            assert status == 405
            status, _ = await http_request(port, "GET", "/alarms/zzz")
            assert status == 400
        run_api_test(scenario)

    def test_alarm_lifecycle_over_http(self):
        async def scenario(api, port):
            status, alarm = await http_request(
                port, "POST", "/alarms",
                {"vm": "vm1", "kind": "anomaly:cpu", "severity": "warning",
                 "message": "cpu runaway"})
            assert status == 200 and alarm["state"] == "active"
            alarm_id = alarm["alarm_id"]

            status, listed = await http_request(port, "GET", "/alarms")
            assert status == 200 and len(listed["alarms"]) == 1
            assert listed["counts"]["active"] == 1

            status, acked = await http_request(
                port, "POST", f"/alarms/{alarm_id}/ack")
            assert status == 200 and acked["state"] == "acked"

            # Double-ack is a lifecycle conflict, not a bad request.
            status, error = await http_request(
                port, "POST", f"/alarms/{alarm_id}/ack")
            assert status == 409 and "acknowledged" in error["error"]

            status, silenced = await http_request(
                port, "POST", f"/alarms/{alarm_id}/silence",
                {"duration": 60.0})
            assert status == 200 and silenced["state"] == "silenced"

            status, escalated = await http_request(
                port, "POST", f"/alarms/{alarm_id}/escalate",
                {"reason": "still paging"})
            assert status == 200 and escalated["state"] == "escalating"
            assert escalated["severity"] == "critical"

            status, resolved = await http_request(
                port, "POST", f"/alarms/{alarm_id}/resolve")
            assert status == 200 and resolved["state"] == "resolved"

            status, fetched = await http_request(
                port, "GET", f"/alarms/{alarm_id}")
            assert status == 200
            assert [e["event"] for e in fetched["events"]] == [
                "raise", "ack", "silence", "escalate", "resolve"]
        run_api_test(scenario)

    def test_state_filter_and_synthetic_raise_gate(self):
        from repro.serve.api import ApiConfig

        async def scenario(api, port):
            status, _ = await http_request(
                port, "POST", "/alarms", {"vm": "v", "kind": "k"})
            assert status == 405
            status, listed = await http_request(
                port, "GET", "/alarms?state=active")
            assert status == 200 and listed["alarms"] == []
        run_api_test(scenario, config=ApiConfig(allow_raise=False))

    def test_metrics_scrape_parses_strictly(self):
        obs = Observability()

        async def scenario(api, port):
            api.alarms.raise_alarm("vm1", "anomaly", "critical")
            status, text = await http_request(port, "GET", "/metrics")
            assert status == 200
            families = parse_prometheus_text(text)
            assert "alarms_raised_total" in families
            assert "api_requests_total" in families
        run_api_test(scenario, alarms=AlarmManager(obs=obs), obs=obs)

    def test_funnel_without_service(self):
        async def scenario(api, port):
            status, funnel = await http_request(port, "GET", "/funnel")
            assert status == 200 and funnel["source"] == "serve"
            assert funnel["alarms"]["active"] == 0
        run_api_test(scenario)

    def test_funnel_fn_overrides(self):
        async def scenario(api, port):
            _status, funnel = await http_request(port, "GET", "/funnel")
            assert funnel["source"] == "telemetry"
            assert funnel["alerts"] == {"raw": 3, "confirmed": 1}
        run_api_test(
            scenario,
            funnel_fn=lambda: {"alerts": {"raw": 3, "confirmed": 1}})


class TestFleetAndModels:
    def test_fleet_status_with_service(self):
        predictors, traces = make_fleet(n_vms=3)

        async def scenario(api, port):
            service = api.service
            vm = sorted(predictors)[0]
            import time

            # Feed below the warmup threshold via internals: the
            # fleet view must report the VM as not yet warm.
            assert predictors[vm].history_needed > 1
            service._histories[vm].append(list(traces[vm][0]))
            service._last_seen[vm] = time.monotonic()
            status, fleet = await http_request(port, "GET", "/fleet")
            assert status == 200 and fleet["n_vms"] == 3
            rows = {row["vm"]: row for row in fleet["vms"]}
            assert rows[vm]["have"] == 1 and not rows[vm]["warm"]
            assert rows[vm]["staleness_seconds"] >= 0.0
            assert all(r["breaker"] == "closed" for r in fleet["vms"])
            cold = [r for r in fleet["vms"] if r["vm"] != vm]
            assert all(r["staleness_seconds"] is None for r in cold)

        service = PredictionService(predictors, ServiceConfig())
        run_api_test(scenario, service=service)

    def test_breaker_fn_feeds_fleet_view(self):
        predictors, _ = make_fleet(n_vms=2)

        async def scenario(api, port):
            _status, fleet = await http_request(port, "GET", "/fleet")
            assert {r["breaker"] for r in fleet["vms"]} == {"open"}

        run_api_test(
            scenario,
            service=PredictionService(predictors, ServiceConfig()),
            breaker_fn=lambda vm: "open")

    def test_model_status(self, tmp_path):
        predictors, _ = make_fleet(n_vms=2)
        registry = ModelRegistry(tmp_path / "registry")
        info = registry.save("fleet", predictors)
        registry.promote("fleet", info.version)

        async def scenario(api, port):
            status, models = await http_request(port, "GET", "/models")
            assert status == 200
            assert models["name"] == "fleet"
            assert models["registry"]["active"] == info.version
            assert models["registry"]["versions"] == [info.version]
            assert models["champion_version"] == info.version

        service = PredictionService(predictors, ServiceConfig())
        service.champion_version = info.version
        run_api_test(scenario, service=service, registry=registry,
                     model_name="fleet")


class TestWebSocket:
    def test_transitions_stream_live(self):
        async def scenario(api, port):
            client = await WsClient.connect(port)
            opcode, hello = await client.recv()
            assert opcode == 0x1 and hello["type"] == "hello"

            _status, alarm = await http_request(
                port, "POST", "/alarms",
                {"vm": "vm1", "kind": "anomaly:cpu"})
            _opcode, raised = await client.recv()
            assert raised["type"] == "alarm"
            assert raised["event"]["event"] == "raise"
            assert raised["alarm"]["vm"] == "vm1"

            await http_request(
                port, "POST", f"/alarms/{alarm['alarm_id']}/ack")
            _opcode, acked = await client.recv()
            assert acked["event"]["event"] == "ack"
            assert acked["alarm"]["state"] == "acked"
            client.close()
        run_api_test(scenario)

    def test_publish_reaches_clients(self):
        async def scenario(api, port):
            client = await WsClient.connect(port)
            await client.recv()  # hello
            api.publish({"type": "lifecycle",
                         "event": "challenger_promoted", "version": 4})
            _opcode, event = await client.recv()
            assert event == {"type": "lifecycle",
                             "event": "challenger_promoted", "version": 4}
            client.close()
        run_api_test(scenario)

    def test_ping_pong_and_close(self):
        async def scenario(api, port):
            client = await WsClient.connect(port)
            await client.recv()  # hello
            client.send_frame(b"hi", opcode=0x9)
            await client.writer.drain()
            opcode, payload = await client.recv()
            assert (opcode, payload) == (0xA, b"hi")
            client.send_frame(b"", opcode=0x8)
            await client.writer.drain()
            opcode, _ = await client.recv()
            assert opcode == 0x8
            client.close()
        run_api_test(scenario)

    def test_stop_detaches_alarm_listener(self):
        alarms = AlarmManager()

        async def scenario(api, port):
            pass
        run_api_test(scenario, alarms=alarms)
        assert alarms._listeners == []

    def test_lagging_client_is_cut_loose_with_close_frame(self):
        from repro.serve.api import ApiConfig

        async def scenario(api, port):
            client = await WsClient.connect(port)
            await client.recv()  # hello
            # Publish without yielding: the sender task cannot drain
            # between puts, so the 1-slot queue overflows and the
            # client must be cut loose — with a close frame, and
            # without publish() itself blowing up on the full queue.
            for i in range(5):
                api.publish({"type": "flood", "n": i})
            saw_close = False
            for _ in range(10):
                opcode, _payload = await client.recv(timeout=5.0)
                if opcode == 0x8:
                    saw_close = True
                    break
            assert saw_close
            client.close()
        run_api_test(scenario, config=ApiConfig(ws_queue=1))


class TestHostileClients:
    """Malformed frames and half-open requests must never crash the
    server — the offending connection is dropped, everything else
    keeps serving."""

    async def _assert_alive(self, port):
        status, health = await http_request(port, "GET", "/healthz")
        assert (status, health) == (200, {"ok": True})

    def test_truncated_ws_frame_header(self):
        async def scenario(api, port):
            client = await WsClient.connect(port)
            await client.recv()  # hello
            client.writer.write(b"\x81")          # half a frame header
            await client.writer.drain()
            client.writer.close()
            await self._assert_alive(port)
        run_api_test(scenario)

    def test_ws_extended_length_prefix_without_body(self):
        async def scenario(api, port):
            client = await WsClient.connect(port)
            await client.recv()
            # Promises a 2-byte extended length, delivers 1 byte.
            client.writer.write(bytes([0x81, 0x80 | 126, 0x01]))
            await client.writer.drain()
            client.writer.close()
            await self._assert_alive(port)
        run_api_test(scenario)

    def test_ws_absurd_declared_length_is_refused(self):
        async def scenario(api, port):
            client = await WsClient.connect(port)
            await client.recv()
            # Declares a 1 TiB payload; the server must hang up
            # instead of trying to buffer it.
            client.writer.write(
                bytes([0x81, 0x80 | 127])
                + (1 << 40).to_bytes(8, "big") + b"\x00\x01\x02\x03")
            await client.writer.drain()
            data = await asyncio.wait_for(client.reader.read(), 5.0)
            assert data == b""                    # clean EOF, no crash
            await self._assert_alive(port)
        run_api_test(scenario)

    def test_header_flood_is_cut_off(self):
        async def scenario(api, port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"GET / HTTP/1.1\r\n")
            for i in range(150):                  # > _MAX_HEADERS
                writer.write(f"X-Flood-{i}: x\r\n".encode())
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), 5.0)
            assert data == b""                    # dropped, no response
            writer.close()
            await self._assert_alive(port)
        run_api_test(scenario)

    def test_bad_content_length_is_dropped(self):
        async def scenario(api, port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(
                b"POST /alarms HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), 5.0)
            assert data == b""
            writer.close()
            await self._assert_alive(port)
        run_api_test(scenario)

    def test_half_open_body_is_dropped(self):
        async def scenario(api, port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(
                b"POST /alarms HTTP/1.1\r\nContent-Length: 64\r\n\r\nabc")
            await writer.drain()
            writer.write_eof()                    # body never completes
            data = await asyncio.wait_for(reader.read(), 5.0)
            assert data == b""
            writer.close()
            await self._assert_alive(port)
        run_api_test(scenario)


class TestServiceAlarmWiring:
    def test_abnormal_scores_raise_deduplicated_alarms(self):
        from types import SimpleNamespace

        predictors, traces = make_fleet(n_vms=2)
        vm = sorted(predictors)[0]
        window = traces[vm][:predictors[vm].history_needed + 4]
        alarms = AlarmManager()
        service = PredictionService(predictors, alarms=alarms)
        # Force every score abnormal so the raise path is exercised
        # deterministically (probability above the critical threshold).
        service.scorer.score = lambda items: [
            SimpleNamespace(abnormal=True, probability=0.99, score=2.0,
                            steps=steps)
            for (_vm, _recent, steps) in items
        ]

        async def main():
            await service.start(host="127.0.0.1", port=0)
            port = service._server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            scored = 0
            for _ in range(3):
                for row in window:
                    writer.write((json.dumps({
                        "op": "sample", "vm": vm,
                        "values": [float(v) for v in row],
                    }) + "\n").encode())
                    await writer.drain()
                    reply = json.loads(await reader.readline())
                    scored += reply["kind"] == "score"
            writer.close()
            await service.stop()
            return scored

        scored = asyncio.run(main())
        assert scored >= 3
        anomaly = [a for a in alarms.alarms() if a.kind == "anomaly"]
        assert len(anomaly) == 1          # deduplicated across repeats
        assert anomaly[0].vm == vm
        assert anomaly[0].count == scored
        assert anomaly[0].severity == "critical"
        assert anomaly[0].detail["probability"] == pytest.approx(0.99)

    def test_no_alarm_manager_means_no_side_effects(self):
        predictors, traces = make_fleet(n_vms=2)
        service = PredictionService(predictors)
        assert service.alarms is None  # default: alarm-free, byte-identical
