"""Failure paths: every bad input gets a clean reply, and nothing a
client does — vanishing mid-job, flooding the queue, letting a request
time out — takes the daemon down."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.errors import JobRejected, ServiceConnectionError
from repro.service.client import ReproClient
from repro.service.protocol import FORMAT, VERSION, JobRequest


def wait_until_drained(client: ReproClient, deadline_s: float = 15.0) -> None:
    """Block until the daemon has finished every accepted job (so a
    follow-up identical submission hits the store, not a coalesced
    in-flight twin)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        stats = client.stats()
        if stats["pending"] == 0 and stats["executed"] >= 1:
            return
        time.sleep(0.05)
    raise AssertionError("daemon never drained its queue")


def raw_exchange(socket_path, line: bytes) -> dict:
    """Send one raw line and decode the raw reply (no client-side
    validation in the way — these tests probe the server's)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10.0)
        sock.connect(str(socket_path))
        sock.sendall(line)
        buffer = b""
        while b"\n" not in buffer:
            chunk = sock.recv(65536)
            assert chunk, "server closed without replying"
            buffer += chunk
    return json.loads(buffer.split(b"\n", 1)[0])


class TestMalformedTraffic:
    def test_non_json_line(self, harness):
        reply = raw_exchange(harness.socket_path, b"definitely not json\n")
        assert reply["status"] == "error"
        assert reply["error"]["code"] == "malformed-request"

    def test_foreign_format(self, harness):
        line = (json.dumps({"format": "other-protocol", "version": 1,
                            "op": "ping"}) + "\n").encode()
        reply = raw_exchange(harness.socket_path, line)
        assert reply["error"]["code"] == "malformed-request"

    def test_foreign_version(self, harness):
        line = (json.dumps({"format": FORMAT, "version": VERSION + 41,
                            "op": "ping", "id": 9}) + "\n").encode()
        reply = raw_exchange(harness.socket_path, line)
        assert reply["error"]["code"] == "unsupported-version"
        assert str(VERSION) in reply["error"]["message"]

    def test_unknown_op(self, harness):
        line = (json.dumps({"format": FORMAT, "version": VERSION,
                            "op": "dance", "id": 1}) + "\n").encode()
        reply = raw_exchange(harness.socket_path, line)
        assert reply["error"]["code"] == "unknown-op"
        assert reply["id"] == 1

    def test_daemon_survives_malformed_traffic(self, harness):
        raw_exchange(harness.socket_path, b"\xff\xfe garbage \n")
        with ReproClient(harness.socket_path, timeout=10.0) as client:
            assert client.ping()["pong"] is True
            assert client.stats()["errors"] >= 1


class TestBadJobs:
    def test_unknown_job_field(self, harness):
        with ReproClient(harness.socket_path, timeout=10.0) as client:
            with pytest.raises(JobRejected, match="unknown job field") as info:
                client.submit({"workload": "synthpass", "speed": "max"})
        assert info.value.code == "invalid-job"

    def test_unknown_workload(self, harness):
        with ReproClient(harness.socket_path, timeout=30.0) as client:
            with pytest.raises(JobRejected, match="servable") as info:
                client.submit(JobRequest(workload="nonesuch"))
        assert info.value.code == "unknown-workload"

    def test_unknown_engine(self, harness):
        # "jit" is a retired engine and "doacross" a recovery tier armed
        # by strategy: the daemon rejects both like any unknown name.
        with ReproClient(harness.socket_path, timeout=30.0) as client:
            for engine in ("warp", "jit", "doacross"):
                with pytest.raises(JobRejected) as info:
                    client.submit(JobRequest(workload="synthpass", engine=engine))
                assert info.value.code == "invalid-job"

    def test_unknown_machine(self, harness):
        with ReproClient(harness.socket_path, timeout=30.0) as client:
            with pytest.raises(JobRejected) as info:
                client.submit(JobRequest(workload="synthpass", machine="fx9"))
        assert info.value.code == "invalid-job"

    def test_daemon_survives_bad_jobs(self, harness):
        with ReproClient(harness.socket_path, timeout=30.0) as client:
            with pytest.raises(JobRejected):
                client.submit(JobRequest(workload="nonesuch"))
            report = client.submit(JobRequest(workload="synthpass", procs=2))
            assert report.passed is True


class TestDisconnects:
    def test_client_vanishing_mid_job_leaves_daemon_healthy(self, slow_harness):
        """A client that submits and drops dead never hangs the daemon;
        its execution completes and feeds the fleet store regardless."""
        job = JobRequest(workload="synthpass", procs=4)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(str(slow_harness.socket_path))
        from repro.service.protocol import encode_message

        sock.sendall(encode_message({"op": "run", "job": job.to_json(), "id": 1}))
        sock.close()  # gone before the (slow) execution replies

        # the daemon keeps serving other clients throughout ...
        with ReproClient(slow_harness.socket_path, timeout=30.0) as client:
            assert client.ping()["pong"] is True
            # ... and the abandoned job still executed (same key -> its
            # verdict is in the store, so this one reuses the schedule)
            wait_until_drained(client)
            report = client.submit(job)
            assert report.reused_schedule

    def test_half_line_then_eof_is_harmless(self, harness):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(str(harness.socket_path))
        sock.sendall(b'{"format": "repro-serve", "vers')  # no newline
        sock.close()
        with ReproClient(harness.socket_path, timeout=10.0) as client:
            assert client.ping()["pong"] is True


class TestBackpressure:
    def test_queue_full_replies_cleanly(self, slow_harness):
        """queue depth 1 + a slow execution: job A occupies the
        dispatcher, job B fills the queue, job C must get queue-full."""
        results: dict[str, object] = {}

        def submit(name: str, procs: int):
            try:
                with ReproClient(slow_harness.socket_path, timeout=30.0) as c:
                    results[name] = c.submit(
                        JobRequest(workload="synthpass", procs=procs)
                    )
            except JobRejected as exc:
                results[name] = exc

        a = threading.Thread(target=submit, args=("a", 2))
        b = threading.Thread(target=submit, args=("b", 4))
        a.start()
        time.sleep(0.1)  # a: dequeued, executing
        b.start()
        time.sleep(0.1)  # b: parked in the depth-1 queue
        with ReproClient(slow_harness.socket_path, timeout=10.0) as client:
            with pytest.raises(JobRejected, match="queue is full") as info:
                client.submit(JobRequest(workload="synthpass", procs=8))
        assert info.value.code == "queue-full"
        a.join()
        b.join()
        # the rejected client was the only casualty
        assert results["a"].passed is True
        assert results["b"].passed is True
        with ReproClient(slow_harness.socket_path, timeout=10.0) as client:
            assert client.stats()["rejected"] >= 1

    def test_request_timeout_replies_and_execution_continues(self, slow_harness):
        job = JobRequest(workload="synthpass", procs=4)
        with ReproClient(slow_harness.socket_path, timeout=30.0) as client:
            with pytest.raises(JobRejected, match="not finished") as info:
                client.submit(job, server_timeout=0.05)
            assert info.value.code == "timeout"
            # the shielded execution carried on; the retry collects its
            # warmed verdict instead of paying the test again
            wait_until_drained(client)
            report = client.submit(job)
            assert report.reused_schedule
            assert client.stats()["timeouts"] >= 1

    def test_client_side_timeout_reconnects(self, slow_harness):
        from repro.errors import ServiceTimeout

        client = ReproClient(slow_harness.socket_path, timeout=0.05)
        with pytest.raises(ServiceTimeout):
            client.submit(JobRequest(workload="synthpass", procs=4))
        # the desynchronized connection was dropped; a fresh request on
        # the same client object transparently reconnects
        assert client.ping(timeout=10.0)["pong"] is True
        client.close()


class TestConnectionErrors:
    def test_unreachable_socket(self, tmp_path):
        client = ReproClient(tmp_path / "nobody-home.sock")
        with pytest.raises(ServiceConnectionError, match="cannot reach"):
            client.ping()
