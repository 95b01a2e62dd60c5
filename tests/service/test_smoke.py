"""End-to-end smoke: a real ``repro serve`` daemon process under 64
concurrent clients with mixed pass/fail traffic.

Asserts the CI contract (the serve-smoke job runs exactly this):

* every served report's deterministic payload is **bit-identical** to a
  direct in-process ``run_loop`` of the same job spec;
* failing loops (rollback + serial re-execution) are served as cleanly
  as passing ones;
* graceful shutdown: exit code 0, the socket file is unlinked, no
  stray worker processes and no ``/dev/shm`` shadow segments survive.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.runtime.parallel_backend import SEGMENT_PREFIX
from repro.service.client import ReproClient
from repro.service.protocol import JobRequest, comparable_payload
from repro.service.server import LoopService

REPO_ROOT = Path(__file__).resolve().parents[2]

#: the smoke fleet: 16 distinct specs x 4 clients each = 64 concurrent
#: jobs.  schedule_cache off so every payload is a pure function of its
#: spec (reuse/coalescing shorten queues but never change payloads; the
#: reuse path has its own tests).
SPECS = [
    JobRequest(workload=workload, procs=procs, engine=engine,
               schedule_cache=False)
    for workload in ("synthpass", "synthfail")
    for procs in (2, 4)
    for engine in ("compiled", "vectorized", "walk")
] + [
    JobRequest(workload="synthpartial", strategy="stripped", strip_size=32,
               procs=procs, schedule_cache=False)
    for procs in (2, 4)
] + [
    JobRequest(workload="synthpass", procs=4, engine="parallel", workers=2,
               backend="threads", schedule_cache=False),
    JobRequest(workload="synthpass", procs=4, engine="parallel", workers=2,
               backend="fork", schedule_cache=False),
]
CLIENTS_PER_SPEC = 4


def python_pids() -> set[int]:
    """PIDs of live python processes that are not our own children.

    Our own children are excluded because the direct-baseline fork pool
    legitimately spawns a multiprocessing resource tracker in *this*
    process; a worker leaked by the exited daemon would be reparented to
    init, never to us, so it is still caught.
    """
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if b"python" in cmdline and ppid != os.getpid():
            pids.add(int(entry))
    return pids


def shadow_segments() -> list[str]:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return []
    return [p.name for p in shm.iterdir() if p.name.startswith(SEGMENT_PREFIX)]


def wait_until_up(daemon: subprocess.Popen, socket_path: Path) -> None:
    """Ping the daemon until it answers (it must not die meanwhile)."""
    deadline = time.monotonic() + 30.0
    while True:
        try:
            with ReproClient(socket_path, timeout=5.0) as probe:
                probe.ping()
            return
        except Exception:  # noqa: BLE001 - still booting
            assert daemon.poll() is None, daemon.communicate()[0]
            assert time.monotonic() < deadline, "daemon never came up"
            time.sleep(0.1)


def test_serve_smoke_64_clients():
    assert len(SPECS) * CLIENTS_PER_SPEC == 64
    socket_path = (
        Path(tempfile.mkdtemp(prefix="repro-", dir="/tmp")) / "d.sock"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    pids_before = python_pids()
    segments_before = set(shadow_segments())

    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", str(socket_path), "--queue-size", "128"],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        wait_until_up(daemon, socket_path)

        served: dict[int, dict] = {}
        errors: list[Exception] = []

        def one_client(index: int, job: JobRequest):
            try:
                with ReproClient(socket_path, timeout=120.0) as client:
                    served[index] = client.submit_raw(job)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=one_client, args=(i, SPECS[i % len(SPECS)]))
            for i in range(64)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180.0)
        assert not errors, errors[:3]
        assert len(served) == 64

        # -- bit-identity against direct in-process runs ------------------
        direct_service = LoopService()
        try:
            direct = {
                spec.key(): comparable_payload(direct_service.execute(spec))
                for spec in SPECS
            }
        finally:
            direct_service.close()
        for index, payload in served.items():
            spec = SPECS[index % len(SPECS)]
            assert comparable_payload(payload) == direct[spec.key()], (
                f"served payload diverged from direct run for {spec}"
            )
        # mixed traffic really did mix: both verdicts were served
        verdicts = {json.dumps(p.get("passed")) for p in served.values()}
        assert verdicts == {"true", "false"}

        with ReproClient(socket_path, timeout=10.0) as client:
            stats = client.stats()
            assert stats["received"] == 64
            assert stats["errors"] == 0
            client.shutdown_server()
    finally:
        # On the success path the shutdown op is already in flight;
        # SIGTERM is the graceful path too, so failures tear down fast.
        if daemon.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                daemon.terminate()
        try:
            rc = daemon.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            daemon.kill()
            raise

    # -- clean teardown ---------------------------------------------------
    assert rc == 0, daemon.communicate()[0]
    assert not socket_path.exists()
    leaked = set(shadow_segments()) - segments_before
    assert not leaked, f"leaked /dev/shm segments: {sorted(leaked)}"
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        strays = python_pids() - pids_before - {daemon.pid, os.getpid()}
        if not strays:
            break
        time.sleep(0.2)
    assert not strays, f"stray python processes outlived the daemon: {strays}"


def test_late_sigterm_after_shutdown_exits_cleanly():
    """A SIGTERM that lands while the daemon exits after a shutdown op
    (the smoke test's teardown can send one) must not kill it with the
    default action: the exit code stays 0."""
    socket_path = (
        Path(tempfile.mkdtemp(prefix="repro-", dir="/tmp")) / "d.sock"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", str(socket_path)],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        wait_until_up(daemon, socket_path)
        with ReproClient(socket_path, timeout=10.0) as client:
            client.shutdown_server()
        # Past the shutdown op's teardown, inside the interpreter's exit.
        time.sleep(0.005)
        if daemon.poll() is None:
            daemon.terminate()
        rc = daemon.wait(timeout=60.0)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=60.0)
    assert rc == 0, daemon.communicate()[0]
