"""Per-layer metrics from the span dumps of one traced run."""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from tracehook.benchtrace import TIMING_FIELDS

#: The repo's modules, which are the layers self time is booked to.
LAYERS = (
    "harness", "sim", "kernels", "gpu", "core", "power", "analysis",
    "obs", "serve", "cluster", "verify",
)

#: The CLI's ``main``: a catch-all parent, booked apart from the layers.
MAIN_SPAN = "harness.main"

#: Every per-layer metric, with its unit (the BENCHMARK.json order).
PER_LAYER_UNITS = {
    "harness.evaluate_s": "s",
    "harness.reduce_s": "s",
    "harness.requests": "count",
    "harness.distinct_keys": "count",
    "harness.pool_util": "ratio",
    "sim.run_many_s": "s",
    "sim.memo_hits": "count",
    "sim.disk_hits": "count",
    "sim.dedup_hits": "count",
    "sim.simulated": "count",
    "sim.cache_get_s": "s",
    "sim.cache_get_calls": "count",
    "sim.cache_put_s": "s",
    "sim.cache_put_calls": "count",
    "sim.cache_bytes": "bytes",
    "sim.simulate_s.timing": "s",
    "sim.simulate_s.functional": "s",
    "sim.simulate_calls.timing": "count",
    "sim.simulate_calls.functional": "count",
    "kernels.launch_s": "s",
    "kernels.verify_s": "s",
    "gpu.run_s": "s",
    "gpu.functional_s": "s",
    "gpu.cycles_per_s": "1/s",
    "gpu.issued_per_s": "1/s",
    **{f"gpu.{field}": "count" for field in TIMING_FIELDS},
    "core.memo_lookups": "count",
    "core.memo_hit_rate": "ratio",
    "serve.submit_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.fetch_ms": "ms",
    "serve.simulations": "count",
    "serve.coalesced": "count",
    "serve.cache_hits": "count",
    "serve.rejected": "count",
    "serve.retries": "count",
    "serve.http_per_request": "count",
    "cluster.leases": "count",
    "cluster.put_new": "count",
    "cluster.put_dup": "count",
    "cluster.shards_reassigned": "count",
    "cluster.http_per_key": "count",
    "obs.trace_overhead_pct": "%",
    "obs.span_coverage": "ratio",
    "process.import_s": "s",
    "harness.main_self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


class Dump:
    """One process's spans, with per-span self time."""

    def __init__(self, payload: dict):
        self.pid = payload["pid"]
        self.main_thread = payload["main_thread"]
        self.wall = payload["t_end"] - payload["t0"]
        self.counters = payload["counters"]
        # span: [id, parent, name, layer, start, end, thread, request id]
        self.spans = payload["spans"]
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                child_time[span[1]] += span[5] - span[4]
        self.self_time = {
            span[0]: (span[5] - span[4]) - child_time[span[0]]
            for span in self.spans
        }

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.spans if s[2] == name]

    def coverage(self) -> float:
        """Σ layer self time on the main thread ÷ traced process wall.

        ``MAIN_SPAN``'s own self time is left out: coverage is the share
        of the wall that the named layer boundaries explain.
        """
        covered = sum(
            self.self_time[s[0]]
            for s in self.spans
            if s[6] == self.main_thread and s[3] in LAYERS
            and s[2] != MAIN_SPAN
        )
        return covered / self.wall if self.wall > 0 else 0.0


def load_dumps(trace_dir: Path) -> list[Dump]:
    return [
        Dump(json.loads(path.read_text()))
        for path in sorted(trace_dir.glob("spans-*.json"))
    ]


def layer_metrics(
    dumps: list[Dump],
    root_pids: set[int],
    serve_runs: int = 0,
) -> dict[str, float]:
    """The span-derived per-layer metrics.

    ``root_pids`` are the processes whose main thread is the workload's
    critical path (the CLI, or the cluster client); harness metrics and
    span coverage come from them.  Simulation-side metrics sum over
    every process, pool workers included.  ``serve_runs`` is the number
    of ``ServeClient.run`` round trips the load process made.
    """
    roots = [d for d in dumps if d.pid in root_pids]

    def total(name: str, among=dumps) -> float:
        return sum(sum(d.durations(name)) for d in among)

    def calls(name: str) -> int:
        return sum(len(d.durations(name)) for d in dumps)

    def counter(name: str, among=dumps) -> float:
        return sum(d.counters.get(name, 0) for d in among)

    m: dict[str, float] = {}
    evaluate = total("harness.evaluate", roots)
    inside = 0.0
    for d in roots:
        evaluate_ids = {s[0] for s in d.spans if s[2] == "harness.evaluate"}
        inside += sum(
            s[5] - s[4]
            for s in d.spans
            if s[1] in evaluate_ids
            and s[2] in ("sim.run_many", "cluster.dispatch")
        )
    m["harness.evaluate_s"] = evaluate
    m["harness.reduce_s"] = evaluate - inside
    m["harness.requests"] = counter("harness.requests", roots)
    m["harness.distinct_keys"] = counter("harness.distinct_keys", roots)
    m["sim.run_many_s"] = total("sim.run_many")
    for field in ("memo_hits", "disk_hits", "dedup_hits", "simulated"):
        m[f"sim.{field}"] = counter(f"session.{field}")
    m["sim.cache_get_s"] = total("sim.cache_get")
    m["sim.cache_get_calls"] = calls("sim.cache_get")
    m["sim.cache_put_s"] = total("sim.cache_put")
    m["sim.cache_put_calls"] = calls("sim.cache_put")
    m["sim.cache_bytes"] = counter("sim.cache_bytes")
    for mode in ("timing", "functional"):
        m[f"sim.simulate_s.{mode}"] = total(f"sim.simulate.{mode}")
        m[f"sim.simulate_calls.{mode}"] = calls(f"sim.simulate.{mode}")
    m["kernels.launch_s"] = total("kernels.launch")
    m["kernels.verify_s"] = total("kernels.verify")
    m["gpu.run_s"] = total("gpu.run")
    m["gpu.functional_s"] = total("gpu.functional")
    for field in TIMING_FIELDS:
        m[f"gpu.{field}"] = counter(f"gpu.{field}")
    run_s = m["gpu.run_s"]
    m["gpu.cycles_per_s"] = m["gpu.cycles"] / run_s if run_s else 0.0
    m["gpu.issued_per_s"] = m["gpu.issued"] / run_s if run_s else 0.0
    hits, misses = counter("memo.hits"), counter("memo.misses")
    m["core.memo_lookups"] = hits + misses
    m["core.memo_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    for metric, span in (
        ("serve.submit_ms", "serve.submit"),
        ("serve.wait_ms", "serve.status"),
        ("serve.fetch_ms", "serve.result"),
    ):
        m[metric] = 1000 * total(span) / serve_runs if serve_runs else 0.0
    m["obs.span_coverage"] = (
        min(d.coverage() for d in roots) if roots else 0.0
    )
    m["process.import_s"] = sum(
        d.self_time[s[0]]
        for d in roots
        for s in d.spans
        if s[2].startswith("import:")
    )
    layer_self: dict[str, float] = defaultdict(float)
    for d in dumps:
        for s in d.spans:
            layer = "main" if s[2] == MAIN_SPAN else s[3]
            layer_self[layer] += d.self_time[s[0]]
    m["harness.main_self_s"] = layer_self["main"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def complete(metrics: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric, zero where the workload has none."""
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
