"""The runner plans the paper once: one request plan, one run, one pool.

``warped-compression fig09 fig13 ...`` expands every requested figure
into one deduplicated request plan and resolves it with a single
``Session.run_many`` call, so a cold ``--jobs N`` run starts exactly
one worker pool no matter how many figures miss the cache.  The
figures below overlap (fig14's GTO column is fig09's compressed run,
fig20's 2-cycle column is fig13's), so the plan also proves the
cross-figure dedup.
"""

from concurrent.futures import ProcessPoolExecutor

from repro.harness.runner import ALL_DRIVERS, main
from repro.sim import SIM_COUNTER, Session
from repro.sim import session as session_module
from repro.sim.cache import fingerprint

SUBSET = ["lib", "pathfinder"]
FIGURES = ["fig09", "fig13", "fig14", "fig20"]


def _fresh_session() -> Session:
    return Session(scale="small", subset=SUBSET, use_disk_cache=False)


def test_cold_multi_figure_run_is_one_plan_on_one_pool(tmp_path, monkeypatch):
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    simulated_per_call = []
    run_many = Session.run_many

    def counting_run_many(self, requests):
        before = SIM_COUNTER.value
        try:
            return run_many(self, requests)
        finally:
            simulated_per_call.append(SIM_COUNTER.value - before)

    monkeypatch.setattr(session_module, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(Session, "run_many", counting_run_many)

    out = tmp_path / "plan.txt"
    before = SIM_COUNTER.value
    code = main(
        [*FIGURES, "--scale", "small", "--benchmarks", *SUBSET, "--quiet",
         "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
         "--out", str(out)]
    )
    assert code == 0
    simulated = SIM_COUNTER.value - before

    # One run_many call carried every miss, on one pool.
    assert [n for n in simulated_per_call if n] == [simulated]
    assert len(pools) == 1
    # Each distinct key simulated exactly once.
    session = _fresh_session()
    keys = {
        fingerprint(request.key_material())
        for exp_id in FIGURES
        for request in ALL_DRIVERS[exp_id].requests(session).values()
    }
    assert simulated == len(keys)
    # The tables are byte-identical to evaluating each figure alone.
    alone = [ALL_DRIVERS[e](_fresh_session()).render() for e in FIGURES]
    assert out.read_text() == "\n\n".join(alone) + "\n"
