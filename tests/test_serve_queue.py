"""Scheduler-level tests for repro.serve: ordering, admission,
coalescing, cache short-circuit, and the timeout → retry → backoff path.

Everything here drives :class:`~repro.serve.jobs.JobScheduler` directly
on a private event loop — no HTTP — with either the real thread-pool
executor (so ``SIM_COUNTER`` proves how many simulations actually ran)
or injected fake futures (for failure-path determinism).
"""

import asyncio
import concurrent.futures
import os
import time

import pytest

from repro.obs.metrics import MetricRegistry
from repro.serve.jobs import (
    DONE,
    FAILED,
    Job,
    JobScheduler,
    PriorityJobQueue,
    QueueFull,
    default_submit_fn,
)
from repro.sim.session import SIM_COUNTER, Session, SimRequest, simulate


def make_job(job_id: str, priority: int = 0) -> Job:
    request = SimRequest(benchmark="lib", timing=False, scale="small")
    return Job(
        id=job_id,
        key=job_id,
        request=request,
        material={},
        priority=priority,
    )


class TestPriorityJobQueue:
    def test_priority_order_high_first(self):
        queue = PriorityJobQueue(max_queue=10)
        for job_id, priority in (("a", 0), ("b", 5), ("c", 1)):
            queue.push(make_job(job_id, priority))
        assert [queue.pop().id for _ in range(3)] == ["b", "c", "a"]

    def test_fifo_within_equal_priority(self):
        queue = PriorityJobQueue(max_queue=10)
        for job_id in "abcd":
            queue.push(make_job(job_id, priority=3))
        assert [queue.pop().id for _ in range(4)] == list("abcd")

    def test_bounded_admission(self):
        queue = PriorityJobQueue(max_queue=2)
        queue.push(make_job("a"))
        queue.push(make_job("b"))
        with pytest.raises(QueueFull) as excinfo:
            queue.push(make_job("c"), retry_after=7.5)
        assert excinfo.value.retry_after == 7.5
        assert len(queue) == 2


def thread_scheduler(session: Session, **kwargs) -> JobScheduler:
    executor = concurrent.futures.ThreadPoolExecutor(max_workers=2)
    kwargs.setdefault("metrics", MetricRegistry(enabled=True))
    return JobScheduler(session, default_submit_fn(executor), **kwargs)


def functional_request(benchmark: str = "lib") -> SimRequest:
    return SimRequest(benchmark=benchmark, timing=False, scale="small")


class TestCoalescing:
    def test_identical_submissions_one_simulation(self):
        """N identical submissions → one job, exactly one SIM_COUNTER
        increment, every submission attached."""
        session = Session(scale="small", use_disk_cache=False)
        scheduler = thread_scheduler(session, workers=2)
        before = SIM_COUNTER.value

        async def drive():
            # Submit everything *before* workers start: deterministic
            # in-flight coalescing, no completion race.
            jobs = [
                await scheduler.submit(functional_request())
                for _ in range(5)
            ]
            scheduler.start()
            await scheduler.wait(jobs[0][0], timeout=30)
            await scheduler.close()
            return jobs

        jobs = asyncio.run(drive())
        first_job, first_coalesced = jobs[0]
        assert not first_coalesced
        assert first_job.state == DONE
        assert first_job.source == "simulated"
        assert first_job.submissions == 5
        for job, coalesced in jobs[1:]:
            assert job is first_job
            assert coalesced
        assert SIM_COUNTER.value - before == 1
        assert scheduler.coalesced.value == 4
        assert scheduler.simulations.value == 1

    def test_equivalent_spellings_coalesce(self):
        """Requests that canonicalize to one key share one job."""
        session = Session(scale="small", use_disk_cache=False)
        scheduler = thread_scheduler(session, workers=1)

        async def drive():
            # Functional runs fold timing-only knobs out of the key, so
            # these two distinct SimRequest objects are one cache entry.
            a, _ = await scheduler.submit(functional_request())
            b, coalesced = await scheduler.submit(
                SimRequest(
                    benchmark="lib",
                    timing=False,
                    scale="small",
                    compression_latency=9,
                )
            )
            await scheduler.close()
            return a, b, coalesced

        a, b, coalesced = asyncio.run(drive())
        assert a is b
        assert coalesced

    def test_warm_cache_short_circuit(self):
        session = Session(scale="small", use_disk_cache=False)
        request = functional_request()
        session.run(request)  # pre-warm the memo
        scheduler = thread_scheduler(session, workers=1)

        async def drive():
            job, coalesced = await scheduler.submit(request)
            await scheduler.close()
            return job, coalesced

        job, coalesced = asyncio.run(drive())
        assert not coalesced
        assert job.state == DONE
        assert job.source == "cache"
        assert job.result is not None
        assert scheduler.cache_hits.value == 1
        assert scheduler.simulations.value == 0


class TestAdmissionControl:
    def test_queue_full_rejects_with_hint(self):
        session = Session(scale="small", use_disk_cache=False)
        scheduler = thread_scheduler(session, workers=1, max_queue=2)

        async def drive():
            await scheduler.submit(functional_request("lib"))
            await scheduler.submit(functional_request("pathfinder"))
            with pytest.raises(QueueFull) as excinfo:
                await scheduler.submit(functional_request("hotspot"))
            assert excinfo.value.retry_after >= 1.0
            # Duplicates of queued work still coalesce while full.
            _, coalesced = await scheduler.submit(functional_request("lib"))
            assert coalesced
            await scheduler.close()

        asyncio.run(drive())
        assert scheduler.rejected.value == 1

    def test_draining_rejects_submissions(self):
        from repro.serve.jobs import Draining

        session = Session(scale="small", use_disk_cache=False)
        scheduler = thread_scheduler(session, workers=1)

        async def drive():
            scheduler.start()
            assert await scheduler.drain(timeout=5)
            with pytest.raises(Draining):
                await scheduler.submit(functional_request())
            await scheduler.close()

        asyncio.run(drive())


class TestRetryBackoff:
    def test_timeout_then_fail_counts_attempts(self):
        session = Session(scale="small", use_disk_cache=False)

        def never(request):
            return concurrent.futures.Future()  # never resolves

        scheduler = JobScheduler(
            session,
            never,
            workers=1,
            job_timeout=0.05,
            max_retries=2,
            backoff_base=0.01,
            metrics=MetricRegistry(enabled=True),
        )

        async def drive():
            scheduler.start()
            job, _ = await scheduler.submit(functional_request())
            await scheduler.wait(job, timeout=10)
            await scheduler.close()
            return job

        job = asyncio.run(drive())
        assert job.state == FAILED
        assert job.attempts == 3  # initial try + 2 retries
        assert "timed out" in job.error
        assert scheduler.timeouts.value == 3
        assert scheduler.retries.value == 2
        assert scheduler.failures.value == 1
        assert job.key not in scheduler.inflight

    def test_backoff_delays_between_attempts(self):
        session = Session(scale="small", use_disk_cache=False)
        attempt_times = []

        def failing(request):
            attempt_times.append(time.perf_counter())
            future = concurrent.futures.Future()
            future.set_exception(RuntimeError("boom"))
            return future

        backoff = 0.08
        scheduler = JobScheduler(
            session,
            failing,
            workers=1,
            job_timeout=5,
            max_retries=2,
            backoff_base=backoff,
            metrics=MetricRegistry(enabled=True),
        )

        async def drive():
            scheduler.start()
            job, _ = await scheduler.submit(functional_request())
            await scheduler.wait(job, timeout=10)
            await scheduler.close()
            return job

        job = asyncio.run(drive())
        assert job.state == FAILED
        assert "RuntimeError: boom" in job.error
        assert len(attempt_times) == 3
        # Exponential backoff: gaps of at least base, then 2 * base.
        assert attempt_times[1] - attempt_times[0] >= backoff * 0.9
        assert attempt_times[2] - attempt_times[1] >= 2 * backoff * 0.9

    def test_flaky_then_success_recovers(self):
        session = Session(scale="small", use_disk_cache=False)
        request = functional_request()
        payload = {
            "result": simulate(request).to_dict(),
            "elapsed": 0.01,
            "worker": os.getpid(),
        }
        calls = []

        def flaky(req):
            future = concurrent.futures.Future()
            if len(calls) < 2:
                calls.append("fail")
                future.set_exception(RuntimeError("transient"))
            else:
                future.set_result(payload)
            return future

        scheduler = JobScheduler(
            session,
            flaky,
            workers=1,
            job_timeout=5,
            max_retries=2,
            backoff_base=0.01,
            metrics=MetricRegistry(enabled=True),
        )

        async def drive():
            scheduler.start()
            job, _ = await scheduler.submit(request)
            await scheduler.wait(job, timeout=10)
            await scheduler.close()
            return job

        job = asyncio.run(drive())
        assert job.state == DONE
        assert job.attempts == 3
        assert job.source == "simulated"
        assert scheduler.retries.value == 2
        assert scheduler.completed.value == 1
        # The recovered result is published to the session cache.
        _, _, hit = session.lookup(request)
        assert hit is not None


class TestDrain:
    def test_drain_completes_queued_work(self):
        session = Session(scale="small", use_disk_cache=False)
        scheduler = thread_scheduler(session, workers=2)

        async def drive():
            jobs = [
                (await scheduler.submit(functional_request(name)))[0]
                for name in ("lib", "pathfinder", "hotspot")
            ]
            scheduler.start()
            assert await scheduler.drain(timeout=60)
            await scheduler.close()
            return jobs

        jobs = asyncio.run(drive())
        assert all(job.state == DONE for job in jobs)
        assert not scheduler.inflight


class TestKeyMaterialRelease:
    """Finished jobs stay listed for the server's life, so every
    terminal transition drops the job's ``key_material()``; a job keeps
    it while it can still publish a result (queued, retrying)."""

    def test_cache_hit_holds_no_material(self):
        session = Session(scale="small", use_disk_cache=False)
        request = functional_request()
        session.run(request)
        scheduler = thread_scheduler(session, workers=1)

        async def drive():
            job, _ = await scheduler.submit(request)
            await scheduler.close()
            return job

        job = asyncio.run(drive())
        assert job.source == "cache"
        assert job.material is None

    def test_simulated_finish_releases_material(self):
        session = Session(scale="small", use_disk_cache=False)
        scheduler = thread_scheduler(session, workers=1)

        async def drive():
            job, _ = await scheduler.submit(functional_request())
            queued = job.material
            scheduler.start()
            await scheduler.wait(job, timeout=30)
            await scheduler.close()
            return job, queued

        job, queued = asyncio.run(drive())
        assert queued == functional_request().key_material()
        assert job.state == DONE and job.source == "simulated"
        assert job.material is None
        # The material reached the session before it was dropped.
        _, _, hit = session.lookup(functional_request())
        assert hit is not None

    def test_retries_keep_material_until_final_failure(self):
        session = Session(scale="small", use_disk_cache=False)
        held = []

        def failing(request):
            held.extend(
                job.material is not None
                for job in scheduler.jobs.values()
            )
            future = concurrent.futures.Future()
            future.set_exception(RuntimeError("boom"))
            return future

        scheduler = JobScheduler(
            session,
            failing,
            workers=1,
            job_timeout=5,
            max_retries=2,
            backoff_base=0.01,
            metrics=MetricRegistry(enabled=True),
        )

        async def drive():
            scheduler.start()
            job, _ = await scheduler.submit(functional_request())
            await scheduler.wait(job, timeout=10)
            await scheduler.close()
            return job

        job = asyncio.run(drive())
        assert job.state == FAILED
        assert held == [True, True, True]  # every attempt still had it
        assert job.material is None
