"""Client-hardening tests: typed wire errors, retry policy, circuit
breaker, per-op deadlines, the reconnect path, and the unknown-job
protocol edges."""

import asyncio
import gc
import json
import socket
import threading
import time

import pytest

from repro.errors import (
    CircuitOpenError,
    ProtocolError,
    ServerError,
    ServerTimeout,
    TransportError,
)
from repro.server import (
    BackgroundServer,
    JobSpec,
    ServerClient,
    decode_artifact,
    parse_address,
)
from repro.server.chaos import ChaosTransport
from repro.server.client import CircuitBreaker, RetryPolicy


# ---------------------------------------------------------------------
# Typed wire errors
# ---------------------------------------------------------------------
class TestTypedErrors:
    def test_parse_address_happy_paths(self):
        assert parse_address("1.2.3.4:99") == ("1.2.3.4", 99)
        assert parse_address("1.2.3.4") == ("1.2.3.4", 8753)
        assert parse_address(":99") == ("127.0.0.1", 99)
        assert parse_address("example.com:8080", default_port=1) \
            == ("example.com", 8080)

    def test_parse_address_rejects_non_numeric_port(self):
        with pytest.raises(ProtocolError, match="not an integer"):
            parse_address("host:abc")
        with pytest.raises(ProtocolError):
            parse_address("host:80x")

    def test_parse_address_rejects_out_of_range_port(self):
        with pytest.raises(ProtocolError, match="outside"):
            parse_address("host:0")
        with pytest.raises(ProtocolError, match="outside"):
            parse_address("host:70000")

    def test_typed_errors_stay_catchable_as_builtins(self):
        # Back-compat: ProtocolError is a ValueError, TransportError a
        # ConnectionError, and both are ServerError/DsagenError.
        with pytest.raises(ValueError):
            parse_address("host:abc")
        assert issubclass(ProtocolError, ServerError)
        assert issubclass(TransportError, ConnectionError)

    def test_decode_artifact_rejects_artifactless_record(self):
        with pytest.raises(ProtocolError, match="no artifact"):
            decode_artifact({"ok": False, "error": "boom"})

    def test_decode_artifact_rejects_garbage_payload(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_artifact({"artifact_b64": "!!!not base64!!!"})

    def test_decode_artifact_rejects_non_dict(self):
        with pytest.raises(ProtocolError):
            decode_artifact(["not", "a", "record"])


# ---------------------------------------------------------------------
# Retry policy + circuit breaker units
# ---------------------------------------------------------------------
class TestRetryPolicy:
    def test_seeded_jitter_is_deterministic(self):
        a = RetryPolicy(jitter_seed=7)
        b = RetryPolicy(jitter_seed=7)
        assert [a.delay(i) for i in range(6)] \
            == [b.delay(i) for i in range(6)]
        c = RetryPolicy(jitter_seed=8)
        assert [a.delay(i) for i in range(6)] \
            != [c.delay(i) for i in range(6)]

    def test_delays_bounded_by_cap_and_base(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.8,
                             jitter_seed=1)
        for attempt in range(10):
            delay = policy.delay(attempt)
            uncapped = min(0.8, 0.1 * 2 ** attempt)
            assert uncapped * 0.5 <= delay <= uncapped

    def test_zero_retries_allowed(self):
        assert RetryPolicy(retries=0).retries == 0


class TestCircuitBreaker:
    def _make(self, threshold=3, reset_after=10.0):
        clock = {"now": 100.0}
        breaker = CircuitBreaker(threshold=threshold,
                                 reset_after=reset_after,
                                 clock=lambda: clock["now"])
        return breaker, clock

    def test_opens_at_threshold_and_fails_fast(self):
        breaker, _ = self._make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        breaker.check()                    # still closed
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.check()
        assert breaker.opens == 1

    def test_half_open_probe_and_close_on_success(self):
        breaker, clock = self._make(threshold=1, reset_after=10.0)
        breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            breaker.check()
        clock["now"] += 10.0
        assert breaker.state == "half-open"
        breaker.check()                    # probe allowed
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.failures == 0

    def test_failed_probe_reopens(self):
        breaker, clock = self._make(threshold=1, reset_after=10.0)
        breaker.record_failure()
        clock["now"] += 10.0
        assert breaker.state == "half-open"
        breaker.record_failure()           # the probe failed
        assert breaker.state == "open"
        assert breaker.opens == 2


# ---------------------------------------------------------------------
# Scripted fake server for transport-path tests
# ---------------------------------------------------------------------
def _scripted_server(behaviors):
    """A TCP listener that handles one connection per behavior:
    ``drop`` closes on accept, ``silent`` reads but never replies,
    ``ok`` replies with a JSON ack, ``garbled`` replies with non-JSON.
    Returns ``(listener, port, held)``; close the listener to stop."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)
    port = listener.getsockname()[1]
    held = []   # keeps 'silent' connections alive

    def run():
        for behavior in behaviors:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            if behavior == "drop":
                conn.close()
                continue
            try:
                conn.makefile("rb").readline()
                if behavior == "ok":
                    conn.sendall(b'{"ok": true, "scripted": true}\n')
                elif behavior == "garbled":
                    conn.sendall(b"this is not json\n")
            except OSError:
                pass
            if behavior == "silent":
                held.append(conn)
            else:
                conn.close()

    threading.Thread(target=run, daemon=True).start()
    return listener, port, held


class TestRequestTransportPath:
    def test_reconnect_after_dropped_connection(self):
        """The original reconnect-once path: a connection the server
        drops on accept is retried on a fresh socket — same payload,
        same nonce — and succeeds."""
        listener, port, _ = _scripted_server(["drop", "ok"])
        try:
            client = ServerClient(
                "127.0.0.1", port, timeout=5.0,
                retry=RetryPolicy(retries=2, backoff_base=0.01,
                                  jitter_seed=0),
            )
            response = client.request({"op": "ping"})
            assert response["scripted"]
            assert client.transport.connects == 2
            assert client.transport_errors == 1
            client.close()
        finally:
            listener.close()

    def test_silent_server_raises_typed_timeout(self):
        listener, port, _ = _scripted_server(["silent"])
        try:
            client = ServerClient("127.0.0.1", port, timeout=0.2,
                                  retry=RetryPolicy(retries=0))
            with pytest.raises(ServerTimeout):
                client.request({"op": "ping"})
            client.close()
        finally:
            listener.close()

    def test_garbled_response_raises_protocol_error(self):
        listener, port, _ = _scripted_server(["garbled"])
        try:
            client = ServerClient("127.0.0.1", port, timeout=5.0,
                                  retry=RetryPolicy(retries=0))
            with pytest.raises(ProtocolError):
                client.request({"op": "ping"})
            client.close()
        finally:
            listener.close()

    def test_deadline_exhaustion_raises_server_timeout(self):
        listener, port, _ = _scripted_server(["drop"] * 50)
        try:
            client = ServerClient(
                "127.0.0.1", port, timeout=5.0,
                retry=RetryPolicy(retries=50, backoff_base=0.05,
                                  backoff_cap=0.1, jitter_seed=0),
                breaker=False,
            )
            start = time.monotonic()
            with pytest.raises(ServerTimeout, match="deadline"):
                client.request({"op": "ping"}, deadline=0.3)
            assert time.monotonic() - start < 2.0
            client.close()
        finally:
            listener.close()

    def test_exhausted_retries_raise_transport_error(self):
        listener, port, _ = _scripted_server(["drop"] * 3)
        try:
            client = ServerClient(
                "127.0.0.1", port, timeout=5.0,
                retry=RetryPolicy(retries=2, backoff_base=0.01,
                                  jitter_seed=0),
                breaker=False,
            )
            with pytest.raises(TransportError, match="3 attempt"):
                client.request({"op": "ping"})
            client.close()
        finally:
            listener.close()


# ---------------------------------------------------------------------
# Breaker integration: fail fast, then recover without intervention
# ---------------------------------------------------------------------
class TestBreakerIntegration:
    def test_breaker_opens_fails_fast_and_recovers(self, tmp_path):
        with BackgroundServer(str(tmp_path / "s"), workers=0) as bg:
            host, port = bg.address
            transport = ChaosTransport(
                host, port, fault_rate=0.0,
                plan={0: "disconnect_before",
                      1: "disconnect_before"},
            )
            client = ServerClient(
                host, port, transport=transport,
                retry=RetryPolicy(retries=0),
                breaker=CircuitBreaker(threshold=2, reset_after=0.2),
            )
            with pytest.raises(TransportError):
                client.request({"op": "ping"})
            with pytest.raises(TransportError):
                client.request({"op": "ping"})
            # Open: fails fast without touching the wire.
            ops_before = transport.ops
            start = time.monotonic()
            with pytest.raises(CircuitOpenError):
                client.request({"op": "ping"})
            assert transport.ops == ops_before
            assert time.monotonic() - start < 0.05
            # Cooldown elapses -> half-open probe succeeds -> closed.
            time.sleep(0.25)
            assert client.ping()
            assert client.breaker.state == "closed"
            client.close()


# ---------------------------------------------------------------------
# Protocol edges against a real server
# ---------------------------------------------------------------------
class TestProtocolEdges:
    def test_wait_and_result_on_unknown_job_id(self, tmp_path):
        with BackgroundServer(str(tmp_path / "s"), workers=0) as bg:
            with ServerClient(*bg.address) as client:
                missing = client.wait("job-404")
                assert not missing["ok"]
                assert "unknown job_id" in missing["error"]
                polled = client.result("job-404")
                assert not polled["ok"]
                assert "unknown job_id" in polled["error"]

    def test_run_deadline_on_slow_job(self, tmp_path):
        with BackgroundServer(str(tmp_path / "s"), workers=0) as bg:
            with ServerClient(*bg.address) as client:
                slow = JobSpec(kind="noop",
                               options={"duration": 2.0})
                with pytest.raises(ServerTimeout):
                    client.run(slow, deadline=0.3)

    def test_stop_with_open_connections(self, tmp_path, caplog):
        """``stop()`` must not wait on clients left connected (Python
        3.12's ``wait_closed`` does) nor leave their handler tasks
        pending at loop close — an idle client and one whose ``run``
        is still waiting on a job."""
        bg = BackgroundServer(str(tmp_path / "s"), workers=0)
        idle = ServerClient(*bg.address)
        idle.ping()
        waiting = socket.create_connection(bg.address, timeout=5)
        waiting.sendall(json.dumps({
            "op": "run",
            "job": JobSpec(kind="noop", options={"duration": 2.0})
            .to_dict(),
        }).encode() + b"\n")
        for _ in range(100):
            if bg.server.counters.get("server_enqueued"):
                break
            time.sleep(0.01)
        try:
            start = time.perf_counter()
            bg.stop(timeout=5)
            assert time.perf_counter() - start < 1.0
            assert not bg._thread.is_alive()
            assert not asyncio.all_tasks(bg._loop)
            gc.collect()
            assert "Task was destroyed" not in caplog.text
        finally:
            idle.close()
            waiting.close()

    def test_torn_frame_is_dropped_not_executed(self, tmp_path):
        """A request frame missing its newline must never execute."""
        with BackgroundServer(str(tmp_path / "s"), workers=0) as bg:
            host, port = bg.address
            payload = json.dumps({
                "op": "run",
                "job": JobSpec(kind="noop",
                               options={"tag": "torn"}).to_dict(),
            }).encode()
            sock = socket.create_connection((host, port), timeout=5)
            sock.sendall(payload)      # no trailing newline
            sock.close()
            with ServerClient(host, port) as client:
                for _ in range(100):
                    counters = client.stats()["counters"]
                    if counters.get("server_torn_frames"):
                        break
                    time.sleep(0.01)
                assert counters.get("server_torn_frames", 0) == 1
                assert counters.get("server_submits", 0) == 0
