"""The ``repro serve`` daemon: an asyncio front end over the orchestrator.

Architecture (one process, three layers):

* :class:`LoopService` — the synchronous execution core.  One
  fleet-shared :class:`~repro.runtime.profile.LoopProfileStore` and one
  :class:`~repro.runtime.parallel_backend.WorkerPoolCache` serve every
  request; per-workload :class:`~repro.runtime.orchestrator.LoopRunner`
  instances persist across requests, so a repeated loop reuses its
  compiled plan, serial reference, shadow marker, cached LRPD verdict
  (schedule reuse — the whole test is skipped) and forked worker pools.
* :class:`~repro.service.batching.JobQueue` — bounded intake with
  in-flight coalescing of identical (loop, configuration) jobs.
* :class:`ReproServer` — the unix-socket protocol endpoint: one
  newline-framed JSON message per request
  (:mod:`repro.service.protocol`), many concurrent clients, one
  dispatcher feeding a single-threaded executor (loop executions are
  CPU-bound and the runners are not thread-safe; concurrency buys
  coalescing, batching and admission control, not parallel Python).

Every request path replies — malformed lines, foreign protocol
versions, unknown workloads, full queues and expired timeouts all
produce a clean error message, never a hung client.  Graceful shutdown
flushes the profile store to ``--profile-path`` and closes every worker
pool, so no ``/dev/shm`` segment or worker process outlives the daemon.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import os
from pathlib import Path

from repro.core.outcomes import TestMode
from repro.core.shadow import Granularity
from repro.errors import JobRejected, ProtocolError, ReproError
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.parallel_backend import WorkerPoolCache
from repro.runtime.profile import LoopProfileStore
from repro.service.batching import JobQueue, QueueFull
from repro.service.catalog import build_machine, build_workload
from repro.service.protocol import (
    JobRequest,
    decode_message,
    encode_message,
    error_reply,
    ok_reply,
    report_payload,
)

#: default bound on jobs accepted but not yet executed.
DEFAULT_QUEUE_SIZE = 64
#: default per-request seconds a client waits before a timeout reply.
DEFAULT_REQUEST_TIMEOUT = 120.0


class LoopService:
    """The daemon's synchronous execution core (no sockets in here).

    Also usable directly — the benchmark's "direct" baseline and the
    failure-path tests drive it without a server around it.
    """

    def __init__(
        self,
        *,
        profile_path=None,
        profiles: LoopProfileStore | None = None,
    ):
        #: the fleet-shared store: verdicts, observations, planner
        #: feedback from *every* request accumulate here.
        self.profiles = (
            profiles if profiles is not None
            else LoopProfileStore(path=profile_path)
        )
        #: persistent worker pools shared across requests.
        self.pools = WorkerPoolCache()
        self._runners: dict[str, LoopRunner] = {}

    def runner(self, workload_name: str) -> LoopRunner:
        """The persistent runner for ``workload_name`` (built on first use)."""
        runner = self._runners.get(workload_name)
        if runner is None:
            workload = build_workload(workload_name)
            runner = LoopRunner(
                workload.program(),
                workload.inputs,
                profiles=self.profiles,
                pools=self.pools,
            )
            self._runners[workload_name] = runner
        return runner

    def execute(self, job: JobRequest) -> dict:
        """Run one job to completion; returns the report's wire payload.

        Raises :class:`~repro.errors.JobRejected` for anything that is
        the *job's* fault (unknown workload, invalid configuration, a
        strategy the loop does not support), so the server can reply
        with the right error code.
        """
        runner = self.runner(job.workload)
        try:
            model = build_machine(job.machine, job.procs)
            strategy = Strategy(job.strategy)
            config = RunConfig(
                model=model,
                granularity=Granularity(job.granularity),
                test_mode=TestMode(job.test_mode),
                engine=job.engine,
                workers=job.workers,
                backend=job.backend,
                strip_size=job.strip_size,
                adaptive_strip_sizing=job.adaptive_strips,
                use_schedule_cache=job.schedule_cache,
            )
        except JobRejected:
            raise
        except (ValueError, ReproError) as exc:
            raise JobRejected("invalid-job", str(exc)) from exc
        try:
            report = runner.run(strategy, config)
        except ReproError as exc:
            # A clean per-job refusal (e.g. inspector on a loop whose
            # addresses flow through loop-written state), not a daemon
            # failure: the client gets the reason, the daemon lives on.
            raise JobRejected("invalid-job", str(exc)) from exc
        return report_payload(report)

    def counters(self) -> dict:
        """Service-level telemetry for the ``stats`` op."""
        return {
            "runners": len(self._runners),
            "pool_builds": self.pools.builds,
            "pool_hits": self.pools.hits,
            "profile": self.profiles.counters(),
        }

    def flush(self) -> None:
        """Persist the fleet store (no-op when it has no path)."""
        self.profiles.save()

    def close(self) -> None:
        """Flush the store and release every worker pool (idempotent)."""
        try:
            self.flush()
        finally:
            self.pools.close()


class ReproServer:
    """The asyncio unix-socket endpoint over one :class:`LoopService`."""

    def __init__(
        self,
        socket_path,
        *,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        profile_path=None,
        service: LoopService | None = None,
    ):
        self.socket_path = Path(socket_path)
        self.request_timeout = request_timeout
        self.service = service if service is not None else LoopService(
            profile_path=profile_path
        )
        self.queue = JobQueue(queue_size)
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._shutdown = asyncio.Event()
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket (replacing a stale one) and start dispatching."""
        if self.socket_path.exists():
            # A previous daemon's leftover socket file; binding over it
            # needs the unlink (connect attempts already fail cleanly).
            self.socket_path.unlink()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=str(self.socket_path)
        )
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown`, then tear down cleanly."""
        await self._shutdown.wait()
        await self.aclose()

    def request_shutdown(self) -> None:
        """Flag graceful shutdown (signal handlers and the shutdown op)."""
        self._closing = True
        self._shutdown.set()

    async def aclose(self) -> None:
        """Stop accepting, fail pending jobs, flush and release resources."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
            self._dispatcher = None
        self.queue.drain(JobRejected(
            "shutting-down", "the daemon is shutting down"
        ))
        # The executor thread may still be mid-job; wait so worker pools
        # are not torn down under a running doall.
        await asyncio.get_running_loop().run_in_executor(
            None, self._executor.shutdown
        )
        self.service.close()
        with contextlib.suppress(FileNotFoundError):
            self.socket_path.unlink()

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Take queued jobs one at a time and execute them off-loop."""
        loop = asyncio.get_running_loop()
        while True:
            key, job = await self.queue.next_job()
            self.queue.stats.executed += 1
            try:
                payload = await loop.run_in_executor(
                    self._executor, self.service.execute, job
                )
            except asyncio.CancelledError:
                self.queue.fail(key, JobRejected(
                    "shutting-down", "the daemon is shutting down"
                ))
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
                self.queue.fail(key, exc)
            else:
                self.queue.resolve(key, payload)

    # -- protocol handlers -------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: serve request lines until EOF."""
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                reply = await self._handle_line(line)
                writer.write(encode_message(reply))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            # The client vanished (possibly mid-job: its execution, if
            # any, completes and feeds the fleet store regardless).
            self.queue.stats.disconnects += 1
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_line(self, line: bytes) -> dict:
        """Decode one request line and produce the reply payload."""
        try:
            envelope = decode_message(line)
        except ProtocolError as exc:
            self.queue.stats.errors += 1
            code = (
                "unsupported-version" if "version" in str(exc)
                else "malformed-request"
            )
            return error_reply(None, code, str(exc))
        request_id = envelope.get("id")
        op = envelope.get("op")
        if op == "ping":
            return ok_reply(request_id, pong=True, pid=os.getpid())
        if op == "stats":
            stats = self.queue.stats.to_json()
            stats.update(self.service.counters())
            stats["pending"] = self.queue.pending()
            return ok_reply(request_id, stats=stats)
        if op == "shutdown":
            self.request_shutdown()
            return ok_reply(request_id, shutting_down=True)
        if op == "run":
            return await self._handle_run(envelope, request_id)
        self.queue.stats.errors += 1
        return error_reply(
            request_id, "unknown-op",
            f"unknown op {op!r}; this endpoint speaks: ping, run, stats, "
            f"shutdown",
        )

    async def _handle_run(self, envelope: dict, request_id) -> dict:
        if self._closing:
            return error_reply(
                request_id, "shutting-down", "the daemon is shutting down"
            )
        try:
            job = JobRequest.from_json(envelope.get("job"))
        except ProtocolError as exc:
            self.queue.stats.errors += 1
            return error_reply(request_id, "invalid-job", str(exc))
        timeout = envelope.get("timeout")
        if timeout is None:
            timeout = self.request_timeout
        try:
            future, coalesced = self.queue.submit(job)
        except QueueFull as exc:
            return error_reply(request_id, "queue-full", str(exc))
        try:
            # shield: a timeout abandons only THIS waiter; the execution
            # (and any coalesced twin still waiting) carries on.
            payload = await asyncio.wait_for(
                asyncio.shield(future), timeout=timeout
            )
        except asyncio.TimeoutError:
            self.queue.stats.timeouts += 1
            return error_reply(
                request_id, "timeout",
                f"job not finished within {timeout:.3f}s (it keeps running "
                f"and will warm the profile store; retry to collect it)",
            )
        except JobRejected as exc:
            self.queue.stats.errors += 1
            return error_reply(request_id, exc.code, exc.message)
        except Exception as exc:  # noqa: BLE001 - daemon must answer
            self.queue.stats.errors += 1
            return error_reply(request_id, "internal", f"{type(exc).__name__}: {exc}")
        return ok_reply(request_id, report=payload, coalesced=coalesced)


async def _serve_async(server: ReproServer, *, banner=None) -> None:
    """Start ``server`` and run until a signal or shutdown op stops it."""
    import signal

    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, server.request_shutdown)
    if banner is not None:
        print(banner, flush=True)
    await server.serve_until_shutdown()
    # Shut down already: the loop restores the default action when it
    # closes, so a late SIGINT/SIGTERM would kill the exiting process
    # (exit -15) instead of being the no-op it now is.
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.remove_signal_handler(signum)
            signal.signal(signum, signal.SIG_IGN)


def serve_forever(
    socket_path,
    *,
    queue_size: int = DEFAULT_QUEUE_SIZE,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    profile_path=None,
) -> int:
    """The blocking entry point behind ``repro serve``."""
    server = ReproServer(
        socket_path,
        queue_size=queue_size,
        request_timeout=request_timeout,
        profile_path=profile_path,
    )
    banner = (
        f"repro serve: listening on {socket_path} "
        f"(queue={queue_size}, timeout={request_timeout:g}s"
        + (f", profile={profile_path}" if profile_path else "")
        + ")"
    )
    asyncio.run(_serve_async(server, banner=banner))
    return 0
