"""The cluster worker: a thin lease/simulate/report loop around Session.

A worker brings **no scheduling logic of its own**.  It registers with
the coordinator (which checks simulator code-version agreement), then
loops: lease a shard, run each of its requests through a completely
ordinary :class:`~repro.sim.session.Session`, report per-key outcomes,
repeat.  Two properties come for free from the session layer:

* every result is published fleet-wide the instant it is computed,
  because the session's disk tier is a
  :class:`~repro.cluster.cache.TieredResultCache` writing through to
  the coordinator's ``/v1/cache`` — the shard *report* is bookkeeping,
  not the data path, so a worker crash between publish and report
  loses nothing;
* a shard that duplicates already-cached work costs zero simulations,
  because the session consults the tiered cache before executing.

Failure handling is deliberately boring: an unreachable coordinator is
retried with backoff, an ``unknown-worker`` answer (coordinator
restarted, or this worker was reaped while stalled) triggers
re-registration, and an ``unknown-shard`` on report is dropped —
the write-through already delivered the results.

Heartbeats run on a daemon thread at the interval the coordinator
advertised at registration, carrying a stats snapshot (simulations,
cache-tier traffic) that the coordinator folds into ``/v1/status``
and its ``cluster.*`` metrics.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass

from repro.cluster.cache import (
    DEFAULT_COORDINATOR_PORT,
    PeerUnreachable,
    RemoteCacheTier,
    TieredResultCache,
)
from repro.cluster.client import (
    ClusterError,
    CoordinatorClient,
    UnknownShard,
    UnknownWorker,
)
from repro.obs.log import get_logger
from repro.sim.cache import code_version, resolve_cache_dir
from repro.sim.session import Session, SimRequest

logger = get_logger("cluster.worker")


@dataclass(frozen=True)
class WorkerConfig:
    """Everything ``repro cluster worker`` needs to boot one agent."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_COORDINATOR_PORT
    cache_dir: str | None = None
    #: parallel simulations per shard (Session ``max_workers``)
    jobs: int = 1
    #: seconds to sleep when the coordinator has no work
    poll_interval: float = 0.5
    #: exit after this many seconds with no work (0 = run forever)
    exit_when_idle: float = 0.0
    name: str | None = None


class WorkerAgent:
    """One lease/simulate/report loop; ``stop()`` is thread-safe."""

    def __init__(self, config: WorkerConfig):
        self.config = config
        self.client = CoordinatorClient(config.host, config.port)
        self.cache = TieredResultCache(
            resolve_cache_dir(config.cache_dir),
            RemoteCacheTier(config.host, config.port),
        )
        self.session = Session(
            max_workers=config.jobs, result_cache=self.cache
        )
        self.worker_id: str | None = None
        self.heartbeat_interval = 2.0
        self.shards_processed = 0
        self._stop = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def stats(self) -> dict:
        """The snapshot heartbeats and reports carry to the coordinator."""
        return {
            "pid": os.getpid(),
            "simulated": self.session.simulated,
            "replayed": self.session.replayed,
            "disk_hits": self.session.disk_hits,
            "remote_fills": self.cache.remote_fills,
            "remote_puts": self.cache.remote_puts,
            "shards": self.shards_processed,
        }

    def register(self) -> None:
        """Join the fleet, retrying while the coordinator is unreachable."""
        info = {
            "name": self.config.name or f"pid{os.getpid()}",
            "code_version": code_version(),
            "pid": os.getpid(),
        }
        while not self.stopping:
            try:
                reply = self.client.register(info)
            except PeerUnreachable:
                logger.info("coordinator unreachable; retrying registration")
                self._stop.wait(1.0)
                continue
            self.worker_id = reply["worker_id"]
            self.heartbeat_interval = float(
                reply.get("heartbeat_interval", self.heartbeat_interval)
            )
            logger.info(f"registered as {self.worker_id}")
            return
        raise RuntimeError("worker stopped before registration completed")

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            worker_id = self.worker_id
            if worker_id is None:
                continue
            try:
                self.client.heartbeat(worker_id, self.stats())
            except UnknownWorker:
                # The main loop will notice on its next lease and
                # re-register; stop claiming a dead identity meanwhile.
                logger.warning("heartbeat rejected: worker unknown")
            except (PeerUnreachable, ClusterError):
                pass  # transient; the next beat retries

    # ------------------------------------------------------------------
    # Work loop
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Blocking main loop; returns the number of shards processed."""
        self.register()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="cluster-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()
        idle_since: float | None = None
        while not self.stopping:
            try:
                reply = self.client.lease(self.worker_id)
            except UnknownWorker:
                logger.info("lease rejected (coordinator restarted?); re-registering")
                self.register()
                continue
            except PeerUnreachable:
                self._stop.wait(self.config.poll_interval)
                continue
            shard = reply.get("shard")
            if shard is None:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif (
                    self.config.exit_when_idle > 0
                    and now - idle_since >= self.config.exit_when_idle
                ):
                    logger.info("no work; exiting (exit_when_idle)")
                    break
                self._stop.wait(self.config.poll_interval)
                continue
            idle_since = None
            self._process_shard(shard)
        return self.shards_processed

    def _process_shard(self, shard: dict) -> None:
        shard_id = shard["shard_id"]
        units = shard.get("units", [])
        done: list[str] = []
        failed: dict[str, str] = {}
        requests: dict[str, SimRequest] = {}
        for unit in units:
            key = unit["key"]
            try:
                requests[key] = SimRequest.from_payload(unit["request"])
            except (TypeError, ValueError, KeyError) as exc:
                failed[key] = f"malformed request: {exc}"

        if len(requests) > 1:
            # Batch first: run_many dedupes and (jobs > 1) fans across
            # cores.  Any failure falls back to per-key execution below
            # so one bad kernel cannot sink its shard-mates.
            try:
                self.session.run_many(list(requests.values()))
            except Exception as exc:  # noqa: BLE001 - isolate per key next
                logger.warning(f"batch run failed ({exc}); retrying per key")
        for key, request in requests.items():
            try:
                self.session.run(request)
            except Exception as exc:  # noqa: BLE001 - reported, not fatal
                logger.warning(f"key {key[:12]}… failed: {exc}")
                failed[key] = f"{type(exc).__name__}: {exc}"
            else:
                done.append(key)

        self.shards_processed += 1
        try:
            self.client.report(
                shard_id,
                self.worker_id,
                done=done,
                failed=failed,
                stats=self.stats(),
            )
        except UnknownShard:
            # Coordinator restarted since the lease.  Harmless: every
            # completed key was already published via cache write-through.
            logger.info(f"report for stale {shard_id} dropped")
        except UnknownWorker:
            logger.info("report rejected (worker unknown); re-registering")
            self.register()
        except (PeerUnreachable, ClusterError) as exc:
            logger.warning(f"report for {shard_id} failed: {exc}")
        logger.info(
            f"shard {shard_id}: {len(done)} done, {len(failed)} failed "
            f"({self.session.simulated} simulated so far)"
        )


def stop_handler(agent: WorkerAgent):
    """A SIGTERM/SIGINT handler that stops ``agent`` without blocking.

    Python runs signal handlers on the main thread between bytecodes,
    possibly while that thread sits inside ``agent._stop.wait(...)``
    holding the Event's (non-reentrant) condition lock.  Calling
    ``Event.set()`` from the handler's frame would then wait on that
    lock for ever, so the handler hands the stop to a short-lived
    helper thread and returns at once; the helper sets the event as
    soon as the interrupted wait releases the lock.
    """

    def _stop(signum: int) -> None:
        logger.info(f"received signal {signum}: stopping worker")
        agent.stop()

    def _initiate(signum, _frame) -> None:
        threading.Thread(
            target=_stop, args=(signum,), name="cluster-stop", daemon=True
        ).start()

    return _initiate


def run_worker(config: WorkerConfig) -> int:
    """Blocking CLI entry: work until SIGTERM/SIGINT (or idle exit)."""
    agent = WorkerAgent(config)
    handler = stop_handler(agent)
    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)
    agent.run()
    logger.info(
        f"worker done: {agent.shards_processed} shards, "
        f"{agent.session.simulated} simulations"
    )
    return 0
