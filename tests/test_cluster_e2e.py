"""End-to-end cluster coverage: the ISSUE's acceptance scenarios.

Workers run as threads in this process, so ``SIM_COUNTER`` observes
every simulation the fleet performs — which is what turns "no duplicate
work" from a hope into an assertion.
"""

import time

from cluster_helpers import EmbeddedCoordinator, WorkerThread
from repro.cluster.session import ClusterSession
from repro.sim import SIM_COUNTER, Session, SimRequest
from repro.sim.cache import fingerprint


def _grid(n_policies: int = 4) -> list[SimRequest]:
    """The acceptance grid: 12 functional (kernel, policy) pairs."""
    policies = ["baseline", "warped", "warped-buffered", "per-thread"]
    return [
        SimRequest(
            benchmark=bench, policy=policy, timing=False, scale="small"
        )
        for bench in ("lib", "pathfinder", "nw")
        for policy in policies[:n_policies]
    ]


def _wait(predicate, timeout: float = 60.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestFleetMatchesSingleHost:
    def test_two_worker_grid_is_byte_identical_to_local_run(self, tmp_path):
        grid = _grid()
        # Reference: a completely ordinary single-host session.
        local = Session(scale="small", cache_dir=tmp_path / "ref")
        reference = {
            req: res.to_dict() for req, res in local.run_many(grid).items()
        }

        with EmbeddedCoordinator(
            cache_dir=str(tmp_path / "shared"), shard_size=3
        ) as coord:
            with WorkerThread(
                coord, cache_dir=str(tmp_path / "wa"), name="a"
            ), WorkerThread(
                coord, cache_dir=str(tmp_path / "wb"), name="b"
            ):
                session = ClusterSession(
                    coord.host,
                    coord.port,
                    cache_dir=str(tmp_path / "driver"),
                    scale="small",
                    poll_interval=0.05,
                )
                before = SIM_COUNTER.value
                results = session.run_many(grid)
                # The driver did not simulate anything itself...
                assert session.simulated == 0
                assert session.dispatched == len(grid)
                # ...the fleet simulated each distinct key exactly once...
                assert SIM_COUNTER.value - before == len(grid)
                assert coord.app.state.put_dup == 0
                # ...and the tables are byte-identical to the local run.
                for req in grid:
                    assert results[req].to_dict() == reference[req]

        # Both workers actually participated (shards spread across them).
        workers = coord.app.state.workers
        assert len(workers) == 2
        assert all(w.stats.get("shards", 0) > 0 for w in workers.values())

    def test_warm_fleet_rerun_simulates_nothing(self, tmp_path):
        grid = _grid(2)
        with EmbeddedCoordinator(cache_dir=str(tmp_path / "shared")) as coord:
            with WorkerThread(coord, cache_dir=str(tmp_path / "w")):
                first = ClusterSession(
                    coord.host,
                    coord.port,
                    cache_dir=str(tmp_path / "d1"),
                    scale="small",
                    poll_interval=0.05,
                )
                first.run_many(grid)
                before = SIM_COUNTER.value
                # A different driver host, same fleet: pure cache fills.
                second = ClusterSession(
                    coord.host,
                    coord.port,
                    cache_dir=str(tmp_path / "d2"),
                    scale="small",
                    poll_interval=0.05,
                )
                second.run_many(grid)
                assert SIM_COUNTER.value == before
                assert second.dispatched == len(grid)  # probed, all cached

    def test_fleet_down_falls_back_to_local_execution(self, tmp_path):
        grid = _grid(1)
        session = ClusterSession(
            "127.0.0.1",
            1,  # nothing listens on port 1
            cache_dir=str(tmp_path / "d"),
            scale="small",
        )
        results = session.run_many(grid)
        assert session.fleet_down is True
        assert len(results) == len(grid)
        assert session.simulated == len(grid)


class TestResume:
    def test_coordinator_restart_resumes_with_zero_duplicates(self, tmp_path):
        grid = _grid()
        payloads = [r.to_payload() for r in grid]
        shared = str(tmp_path / "shared")

        # Phase 1: a worker completes part of the grid, then the
        # coordinator dies mid-sweep.
        with EmbeddedCoordinator(cache_dir=shared, shard_size=2) as coord:
            client = coord.client()
            sweep = client.submit_sweep(payloads)
            sweep_id = sweep["sweep_id"]
            with WorkerThread(coord, cache_dir=str(tmp_path / "w1")):
                assert _wait(
                    lambda: client.sweep(sweep_id)["done"] >= 4
                )
        interim = SIM_COUNTER.value

        # Phase 2: a new coordinator on the same cache directory picks
        # the journal back up; resubmission attaches idempotently.
        with EmbeddedCoordinator(cache_dir=shared, shard_size=2) as reborn:
            client = reborn.client()
            resumed = client.submit_sweep(payloads)
            assert resumed["sweep_id"] == sweep_id
            assert resumed["done"] >= 4  # recovered from the cache
            with WorkerThread(reborn, cache_dir=str(tmp_path / "w2")):
                assert _wait(
                    lambda: client.sweep(sweep_id)["complete"]
                )
            # Every simulation after the restart was for a new key:
            # zero duplicates, proven by the process-wide counter.
            done_after_crash = len(grid) - resumed["done"]
            assert SIM_COUNTER.value - interim == done_after_crash
            assert reborn.app.state.put_dup == 0


class TestDeadWorkerReassignment:
    def test_silent_worker_is_reaped_and_its_shard_finished(self, tmp_path):
        grid = _grid(2)
        payloads = [r.to_payload() for r in grid]
        with EmbeddedCoordinator(
            cache_dir=str(tmp_path / "shared"),
            shard_size=2,
            heartbeat_timeout=0.6,
            heartbeat_interval=0.1,
        ) as coord:
            client = coord.client()
            sweep = client.submit_sweep(payloads)
            # A "worker" that leases a shard and then goes silent.
            from repro.sim.cache import code_version

            ghost = client.register(
                {"name": "ghost", "code_version": code_version()}
            )["worker_id"]
            lease = client.lease(ghost)
            assert lease["shard"] is not None
            hostage_keys = {u["key"] for u in lease["shard"]["units"]}

            # A real worker drains the rest, then inherits the hostage
            # shard once the reaper declares the ghost dead.
            with WorkerThread(coord, cache_dir=str(tmp_path / "w")):
                assert _wait(
                    lambda: client.sweep(sweep["sweep_id"])["complete"]
                )
            state = coord.app.state
            assert state.workers_dead == 1
            assert state.shards_reassigned >= 1
            assert not state.workers[ghost].alive
            assert hostage_keys <= state.done
            assert state.put_dup == 0

    def test_reaped_worker_must_reregister(self, tmp_path):
        from repro.cluster.client import UnknownWorker
        from repro.sim.cache import code_version

        with EmbeddedCoordinator(
            cache_dir=str(tmp_path / "shared"),
            heartbeat_timeout=0.3,
        ) as coord:
            client = coord.client()
            worker = client.register(
                {"name": "mori", "code_version": code_version()}
            )["worker_id"]
            assert _wait(
                lambda: not coord.app.state.workers[worker].alive,
                timeout=10.0,
            )
            try:
                client.heartbeat(worker, {})
            except UnknownWorker:
                pass
            else:
                raise AssertionError("dead worker heartbeat was accepted")

    def test_version_mismatched_worker_rejected(self, tmp_path):
        from repro.cluster.client import ClusterError

        with EmbeddedCoordinator(cache_dir=str(tmp_path / "shared")) as coord:
            try:
                coord.client().register(
                    {"name": "old", "code_version": "stale"}
                )
            except ClusterError as exc:
                assert exc.status == 409
            else:
                raise AssertionError("version mismatch was accepted")


class TestDriverIntegration:
    def test_cluster_session_executes_replay_requests_locally(self, tmp_path):
        # Trace-capture/replay artifacts never travel the cache tier;
        # the cluster session must pin them to local execution.
        request = SimRequest(
            benchmark="lib", policy="warped", timing=False,
            scale="small", replay=True,
        )
        assert ClusterSession._remote_eligible(request) is False
        with EmbeddedCoordinator(cache_dir=str(tmp_path / "shared")) as coord:
            session = ClusterSession(
                coord.host,
                coord.port,
                cache_dir=str(tmp_path / "d"),
                scale="small",
            )
            result = session.run(request)
            assert result.trace_path is not None
            assert session.dispatched == 0  # nothing went to the fleet
            assert coord.app.state.units == {}

    def test_runner_cluster_flag_renders_identically(self, tmp_path, capsys):
        """`warped-compression fig09 --cluster ...` == the local run."""
        from repro.harness.runner import main as runner_main

        args = ["fig09", "--scale", "small", "--quiet",
                "--benchmarks", "lib", "pathfinder"]
        local_out = tmp_path / "local.txt"
        assert runner_main(
            [*args, "--cache-dir", str(tmp_path / "ref"),
             "--out", str(local_out)]
        ) == 0

        with EmbeddedCoordinator(cache_dir=str(tmp_path / "shared")) as coord:
            with WorkerThread(coord, cache_dir=str(tmp_path / "w")):
                fleet_out = tmp_path / "fleet.txt"
                assert runner_main(
                    [*args,
                     "--cluster", f"{coord.host}:{coord.port}",
                     "--cache-dir", str(tmp_path / "driver"),
                     "--out", str(fleet_out)]
                ) == 0
        assert fleet_out.read_bytes() == local_out.read_bytes()

    def test_multi_figure_cluster_run_submits_one_sweep(self, tmp_path):
        """Several figures on a fleet are one plan, so one sweep."""
        from repro.harness.runner import main as runner_main

        with EmbeddedCoordinator(cache_dir=str(tmp_path / "shared")) as coord:
            with WorkerThread(coord, cache_dir=str(tmp_path / "w")):
                assert runner_main(
                    ["fig09", "fig13", "fig14", "--scale", "small",
                     "--quiet", "--benchmarks", "lib", "pathfinder",
                     "--cluster", f"{coord.host}:{coord.port}",
                     "--cache-dir", str(tmp_path / "driver")]
                ) == 0
        assert coord.app.state.sweeps_submitted == 1
        assert coord.app.state.put_dup == 0
