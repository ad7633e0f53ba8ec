"""The cluster worker's signal path: stopping must never block.

``repro cluster worker`` stops on SIGTERM/SIGINT.  The handler runs on
the main thread, which may at that moment hold the stop Event's
condition lock inside ``_stop.wait(poll_interval)``.  The test holds
that lock itself, so the race is reproduced every time instead of
about once in 700 stops.
"""

import signal
import threading

from repro.cluster.worker import WorkerAgent, WorkerConfig, stop_handler


def _agent(tmp_path) -> WorkerAgent:
    # Constructing an agent touches no network; port 9 is never dialled.
    return WorkerAgent(WorkerConfig(port=9, cache_dir=str(tmp_path)))


class TestStopHandler:
    def test_returns_while_stop_lock_is_held(self, tmp_path):
        agent = _agent(tmp_path)
        handler = stop_handler(agent)
        with agent._stop._cond:
            # The handler runs on a daemon thread: the hang guard.
            thread = threading.Thread(
                target=handler, args=(signal.SIGTERM, None), daemon=True
            )
            thread.start()
            # A handler that sets the Event in its own frame blocks
            # here until the lock is released: it must not.
            thread.join(1.0)
            assert not thread.is_alive(), "signal handler blocked"
        # Once the interrupted wait lets go of the lock, the stop lands.
        assert agent._stop.wait(5.0)
        assert agent.stopping

