"""Asyncio JSON-over-HTTP front end for the job scheduler (stdlib only).

A deliberately small HTTP/1.1 implementation over ``asyncio`` streams —
no framework, one connection per request (``Connection: close``) — that
exposes the :class:`~repro.serve.jobs.JobScheduler` as a service:

====== ============================ =====================================
POST   ``/v1/jobs``                 submit a ``SimRequest`` (JSON body);
                                    ``200`` cache hit, its ``job``
                                    carrying the ``result``; ``202``
                                    queued/coalesced, ``400`` bad
                                    request, ``429`` + ``Retry-After``
                                    backpressure, ``503`` draining
GET    ``/v1/jobs``                 list job summaries (never results)
GET    ``/v1/jobs/<id>``            job status, with the ``result`` once
                                    ``done``; ``?wait=S`` long-polls
                                    until terminal (max S seconds)
GET    ``/v1/jobs/<id>/result``     the ``RunResult`` artifact alone
                                    (``409`` until the job is terminal)
GET    ``/v1/jobs/<id>/events``     server-sent-events status stream
                                    (summaries, no result)
GET    ``/v1/metrics``              scheduler + session cache metrics
                                    (``/metrics`` is an alias)
GET    ``/healthz``                 liveness / drain state
POST   ``/v1/drain``                begin graceful drain (also SIGTERM)
====== ============================ =====================================

Submission body::

    {"request": {"benchmark": "lib", "policy": "warped",
                 "timing": false, "scale": "small", ...},
     "priority": 0}

``request`` accepts every :class:`~repro.sim.session.SimRequest` field;
``config_overrides`` as a ``{name: value}`` object.

Wire rule: a job view in state ``done`` carries its ``RunResult`` under
``job.result``, in the submit response and in ``GET /v1/jobs/<id>``
with or without ``?wait``.  A client therefore answers a hit in one
round trip and a miss in two (submit, long-poll).  ``failed`` jobs and
the job list carry none.
"""

from __future__ import annotations

import asyncio
import json
import signal
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from repro.obs.log import get_logger
from repro.obs.metrics import MetricRegistry
from repro.serve.http import (
    MAX_BODY,
    BadRequest,
    read_request,
    respond,
)
from repro.serve.jobs import (
    Draining,
    JobScheduler,
    QueueFull,
    default_submit_fn,
)
from repro.sim.session import Session, SimRequest

__all__ = [
    "BadRequest",
    "MAX_BODY",
    "ServeApp",
    "ServeConfig",
    "WORKERS_ENV",
    "parse_sim_request",
    "run_server",
    "start_app",
]

logger = get_logger("serve.server")

#: Environment variable providing the default worker-pool size.
WORKERS_ENV = "REPRO_SERVE_WORKERS"


@dataclass(frozen=True)
class ServeConfig:
    """Everything `repro serve` needs to boot one server."""

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 2
    #: ``process`` (default) or ``thread`` (in-process; tests/debugging)
    executor: str = "process"
    max_queue: int = 256
    job_timeout: float = 300.0
    max_retries: int = 2
    backoff_base: float = 0.5
    drain_timeout: float = 30.0
    cache_dir: str | None = None
    use_disk_cache: bool = True
    scale: str = "small"


def parse_sim_request(payload: dict, default_scale: str) -> SimRequest:
    """Build a validated :class:`SimRequest` from a JSON submission."""
    from repro.kernels import benchmark_names

    if not isinstance(payload, dict):
        raise BadRequest("body must be a JSON object")
    spec = payload.get("request")
    if not isinstance(spec, dict):
        raise BadRequest('body must carry a "request" object')
    spec = dict(spec)
    benchmark = spec.pop("benchmark", None)
    if not benchmark:
        raise BadRequest('request needs a "benchmark"')
    known = set(benchmark_names()) | set(benchmark_names(extended=True))
    if benchmark not in known:
        raise BadRequest(f"unknown benchmark {benchmark!r}")
    overrides = spec.pop("config_overrides", None)
    if overrides is not None:
        if not isinstance(overrides, dict):
            raise BadRequest("config_overrides must be an object")
        spec["config_overrides"] = tuple(sorted(overrides.items()))
    spec.setdefault("scale", default_scale)
    allowed = set(SimRequest.__dataclass_fields__)
    unknown = set(spec) - allowed
    if unknown:
        raise BadRequest(f"unknown request fields: {sorted(unknown)}")
    try:
        request = SimRequest(benchmark=benchmark, **spec)
        request.gpu_config()  # force config validation up front
    except (TypeError, ValueError) as exc:
        raise BadRequest(str(exc)) from exc
    return request


class ServeApp:
    """Routes HTTP requests onto one scheduler; owns server lifecycle."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.metrics = MetricRegistry(enabled=True)
        self.requests = self.metrics.counter("serve.http_requests")
        self.session = Session(
            scale=config.scale,
            cache_dir=config.cache_dir,
            use_disk_cache=config.use_disk_cache,
        )
        pool_cls = (
            ThreadPoolExecutor
            if config.executor == "thread"
            else ProcessPoolExecutor
        )
        self.executor = pool_cls(max_workers=config.workers)
        self.scheduler = JobScheduler(
            self.session,
            default_submit_fn(self.executor),
            workers=config.workers,
            max_queue=config.max_queue,
            job_timeout=config.job_timeout,
            max_retries=config.max_retries,
            backoff_base=config.backoff_base,
            metrics=self.metrics,
        )
        self._server: asyncio.base_events.Server | None = None
        self._stopped = asyncio.Event()
        self._shutting_down = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind, start workers, and return the bound (host, port)."""
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        logger.info(
            f"repro serve listening on http://{host}:{port} "
            f"({self.config.workers} {self.config.executor} workers, "
            f"queue bound {self.config.max_queue})"
        )
        return host, port

    async def shutdown(self, *, drain: bool = True) -> None:
        """Graceful stop: drain jobs, close listeners and the pool."""
        if self._shutting_down:
            await self._stopped.wait()
            return
        self._shutting_down = True
        if drain:
            drained = await self.scheduler.drain(self.config.drain_timeout)
            if not drained:
                logger.warning(
                    "drain timed out; abandoning unfinished jobs"
                )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.scheduler.close()
        self.executor.shutdown(wait=False, cancel_futures=True)
        self._stopped.set()

    async def serve_until_stopped(self) -> None:
        """Run until :meth:`shutdown` completes (CLI main loop)."""
        await self._stopped.wait()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain, then exit."""
        loop = asyncio.get_running_loop()

        def _initiate(signame: str) -> None:
            logger.info(f"received {signame}: draining")
            asyncio.ensure_future(self.shutdown(drain=True))

        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, _initiate, sig.name)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                method, path, query, body = await self._read_request(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except BadRequest as exc:
                await self._respond(writer, 400, {"error": str(exc)})
                return
            self.requests.inc()
            try:
                await self._route(writer, method, path, query, body)
            except BadRequest as exc:
                await self._respond(writer, 400, {"error": str(exc)})
            except QueueFull as exc:
                await self._respond(
                    writer,
                    429,
                    {
                        "error": "queue full",
                        "retry_after": exc.retry_after,
                    },
                    extra_headers={
                        "Retry-After": str(max(1, int(exc.retry_after)))
                    },
                )
            except Draining:
                await self._respond(
                    writer, 503, {"error": "server is draining"}
                )
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                logger.warning(f"internal error serving {path}: {exc}")
                await self._respond(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError, asyncio.CancelledError):
                # CancelledError: the loop is tearing down mid-close
                # (drain-initiated shutdown); the socket is going away
                # with it, so there is nothing left to clean up.
                pass

    # The wire dialect lives in repro.serve.http, shared with the
    # cluster coordinator; these aliases keep call sites short.
    _read_request = staticmethod(read_request)
    _respond = staticmethod(respond)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, writer, method, path, query, body) -> None:
        if path == "/healthz" and method == "GET":
            await self._respond(
                writer,
                200,
                {
                    "status": (
                        "draining" if self.scheduler.draining else "ok"
                    ),
                    "jobs": len(self.scheduler.jobs),
                    "queued": len(self.scheduler.queue),
                },
            )
            return
        if path in ("/v1/metrics", "/metrics") and method == "GET":
            await self._respond(writer, 200, self._metrics_payload())
            return
        if path == "/v1/drain" and method == "POST":
            asyncio.ensure_future(self.shutdown(drain=True))
            await self._respond(writer, 202, {"status": "draining"})
            return
        if path == "/v1/jobs" and method == "POST":
            await self._submit(writer, body)
            return
        if path == "/v1/jobs" and method == "GET":
            await self._respond(
                writer,
                200,
                {
                    "jobs": [
                        job.to_dict()
                        for job in self.scheduler.jobs.values()
                    ]
                },
            )
            return
        if path.startswith("/v1/jobs/"):
            await self._job_resource(writer, method, path, query)
            return
        await self._respond(writer, 404, {"error": f"no route {path}"})

    def _metrics_payload(self) -> dict:
        # Cross-warp batching counters are process-global; under the
        # process-pool executor the workers accumulate their own copies,
        # so this snapshot covers in-process (thread-executor) runs only.
        from repro.gpu.batch import BATCH_STATS

        return {
            "metrics": self.metrics.read_all(),
            "histograms": self.metrics.histograms(),
            "batching": BATCH_STATS.snapshot(),
            "draining": self.scheduler.draining,
        }

    async def _submit(self, writer, body: bytes) -> None:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc
        request = parse_sim_request(payload, self.config.scale)
        priority = payload.get("priority", 0)
        if not isinstance(priority, int):
            raise BadRequest("priority must be an integer")
        job, coalesced = await self.scheduler.submit(request, priority)
        status = 200 if job.state == "done" else 202
        await self._respond(
            writer,
            status,
            {"job": job.to_dict(include_result=True), "coalesced": coalesced},
        )

    async def _job_resource(self, writer, method, path, query) -> None:
        if method != "GET":
            await self._respond(writer, 405, {"error": "GET only"})
            return
        parts = path.split("/")  # '', 'v1', 'jobs', '<id>'[, sub]
        job = self.scheduler.get(parts[3])
        if job is None:
            await self._respond(writer, 404, {"error": "unknown job"})
            return
        sub = parts[4] if len(parts) > 4 and parts[4] else None
        if sub is None:
            wait = query.get("wait")
            if wait is not None:
                try:
                    timeout = min(60.0, max(0.0, float(wait)))
                except ValueError as exc:
                    raise BadRequest("wait must be a number") from exc
                await self.scheduler.wait(job, timeout)
            await self._respond(
                writer, 200, {"job": job.to_dict(include_result=True)}
            )
            return
        if sub == "result":
            if not job.terminal:
                await self._respond(
                    writer,
                    409,
                    {"error": "job not finished", "state": job.state},
                )
            elif job.state == "failed":
                await self._respond(
                    writer,
                    200,
                    {"job": job.to_dict(), "result": None},
                )
            else:
                await self._respond(
                    writer, 200, job.to_dict(include_result=True)
                )
            return
        if sub == "events":
            await self._stream_events(writer, job)
            return
        await self._respond(writer, 404, {"error": f"no route {path}"})

    async def _stream_events(self, writer, job) -> None:
        """Server-sent-events: one ``data:`` line per state change."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        version = -1
        last_state = None
        while True:
            if job.state != last_state:
                last_state = job.state
                data = json.dumps(job.to_dict(), sort_keys=True)
                writer.write(f"data: {data}\n\n".encode())
                await writer.drain()
            if job.terminal:
                return
            version = await self.scheduler.wait_change(version, 5.0)


async def start_app(config: ServeConfig) -> tuple[ServeApp, str, int]:
    """Boot a server programmatically; returns (app, host, port)."""
    app = ServeApp(config)
    host, port = await app.start()
    return app, host, port


def run_server(config: ServeConfig) -> int:
    """Blocking CLI entry: serve until SIGTERM/SIGINT drains us."""

    async def _main() -> None:
        app = ServeApp(config)
        await app.start()
        app.install_signal_handlers()
        await app.serve_until_stopped()
        logger.info("repro serve stopped")

    asyncio.run(_main())
    return 0
