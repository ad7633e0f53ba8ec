"""Wire-rule tests: a ``done`` job view carries its ``RunResult``.

The submit response of a cache hit and ``GET /v1/jobs/<id>`` (with or
without ``?wait``) embed the result once the job is ``done``, so
:meth:`ServeClient.run` answers a hit in one HTTP call and a miss in
two.  Failed jobs and the job list never carry a result.
"""

import concurrent.futures
import threading

import pytest
from serve_helpers import EmbeddedServer

import repro.serve.client as client_module
from repro.serve.client import JobFailed
from repro.sim.result import RunResult

REQUEST = {"benchmark": "lib", "timing": False, "scale": "small"}


def stalled(server, release: threading.Event, pool):
    """Hold every simulation until ``release`` is set."""
    original = server.app.scheduler.submit_fn

    def submit(request):
        def _wait():
            release.wait(10)
            return original(request).result(30)

        return pool.submit(_wait)

    server.app.scheduler.submit_fn = submit


@pytest.fixture
def http_calls(monkeypatch):
    """Count every HTTP round trip the serve client module makes."""
    calls = []
    real = client_module.http_json_call

    def counting(host, port, method, path, *args, **kwargs):
        calls.append((method, path))
        return real(host, port, method, path, *args, **kwargs)

    monkeypatch.setattr(client_module, "http_json_call", counting)
    return calls


class TestDoneViewsCarryTheResult:
    def test_cached_submit_is_200_with_the_result(self):
        with EmbeddedServer() as server:
            client = server.client()
            client.run(REQUEST)  # fill the cache
            status, _, payload = client._call(
                "POST", "/v1/jobs", {"request": REQUEST}
            )
            assert status == 200
            job = payload["job"]
            assert (job["state"], job["source"]) == ("done", "cache")
            fetched = client._checked(
                "GET", f"/v1/jobs/{job['id']}/result"
            )[1]
            assert job["result"] == fetched["result"]

    def test_wait_returns_the_result_inline(self):
        release = threading.Event()
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=1)
        with EmbeddedServer(workers=1) as server:
            stalled(server, release, pool)
            client = server.client()
            job = client.submit(REQUEST)["job"]
            assert job["state"] in ("queued", "running")
            assert "result" not in job
            threading.Timer(0.2, release.set).start()
            status = client.status(job["id"], wait=20)
            assert status["state"] == "done"
            fetched = client.result(job["id"])
            inline = RunResult.from_dict(status["result"])
            assert inline.to_dict() == fetched.to_dict()
            # A plain status read of the done job carries it too.
            assert client.status(job["id"])["result"] == status["result"]
        pool.shutdown(wait=True)

    def test_failed_job_has_no_result_and_run_raises(self):
        def broken(request):
            future = concurrent.futures.Future()
            future.set_exception(RuntimeError("boom"))
            return future

        with EmbeddedServer(max_retries=0) as server:
            client = server.client()
            client.run(REQUEST)
            server.app.scheduler.submit_fn = broken
            with pytest.raises(JobFailed, match="boom"):
                client.run({**REQUEST, "benchmark": "pathfinder"})
            done, failed = sorted(
                client.jobs(), key=lambda job: job["state"]
            )
            assert failed["state"] == "failed" and done["state"] == "done"
            assert "result" not in client.status(failed["id"], wait=1)
            assert "result" in client.status(done["id"])
            # The job list stays summaries only.
            assert not any("result" in job for job in client.jobs())


class TestRoundTrips:
    def test_hit_costs_one_call_and_miss_two(self, http_calls):
        with EmbeddedServer() as server:
            client = server.client()
            del http_calls[:]  # boot health checks
            miss = client.run(REQUEST)
            assert [method for method, _ in http_calls] == ["POST", "GET"]
            assert "/result" not in http_calls[1][1]
            del http_calls[:]
            hit = client.run(REQUEST)
            assert http_calls == [("POST", "/v1/jobs")]
            assert hit.to_dict() == miss.to_dict()
            assert client.http_calls == 3
