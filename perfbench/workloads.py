"""The four workloads: paper-cold, paper-warm, serve-mix, fleet-sweep.

Each workload function takes a :class:`~common.Context` and returns an
:class:`Outcome`.  Untraced runs fill ``Outcome.e2e``; traced runs fill
``Outcome.layers``.  Every program process is a fresh interpreter on
empty cache directories, talking over ephemeral ports.
"""

from __future__ import annotations

import itertools
import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import traces
from common import (
    BenchError,
    Context,
    cache_entries,
    load_reference,
    split_tables,
    table_digests,
    timing_totals,
)
from repro.serve.loadgen import percentile
from tracehook import benchtrace

#: ``warped-compression all`` at small scale: the paper's grid.
PAPER_JOBS = 2
PAPER_ARGS = ["all", "--scale", "small", "--jobs", str(PAPER_JOBS), "--quiet"]
#: Interpreter starts measured per run for ``setup_s`` (median reported).
CLI_SETUP_REPEATS = 5
SERVICE_SETUP_REPEATS = 5
#: Traced paper-warm reruns (per-metric median over them).
WARM_TRACE_REPEATS = 5

#: serve-mix generator: timing requests over kernels x these overrides.
SERVE_POLICIES = ("warped", "baseline")
SERVE_OVERRIDES = {
    "bank_gate_delay": (16, 32, 64, 128, 256),
    "bank_wakeup_latency": (5, 10, 20),
    "compression_latency": (1, 2, 3, 4),
}
SERVE_NEW_KEY_SHARE = 0.05
#: Repeats pick among this many most recently issued keys.
SERVE_WORKING_SET = 24
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
#: p99 needs at least ten samples beyond it.
SERVE_MIN_REQUESTS = 1000
SERVE_VERIFY_SAMPLE = 3

#: fleet-sweep grid: three latency/scheduler figures (a fixed grid).
FLEET_FIGURES = ("fig14", "fig20", "fig21")
FLEET_WORKERS = 2
FLEET_WORKER_POLL_S = "0.05"


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    #: the latest rendered tables, for the model-versus-paper lines
    tables: dict[str, str] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        """Count one operation; a failed output check fails it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def latency_metrics(ctx: Context, out: Outcome, setup: float, rate: float,
                    latencies: list[float]) -> None:
    out.e2e.update(
        setup_s=setup,
        ops_per_s=rate,
        p50_ms=1000 * median(latencies),
        p99_ms=1000 * percentile(latencies, 99),
        peak_rss_mb=ctx.peak_rss_mb,
    )


def repeat_within(seconds: float, operation) -> list[float]:
    """Walls of ``operation()`` repeated while another one still fits.

    At least one operation runs; the next starts only if, at the median
    wall so far, it would end within ``seconds``, so a run of whole
    multi-second operations does not flip between one and two of them.
    """
    walls: list[float] = []
    start = time.perf_counter()
    while not walls or (
        time.perf_counter() - start + median(walls) <= seconds
    ):
        walls.append(operation())
    return walls


def overhead_pct(untraced: float, traced: float) -> float:
    return 100.0 * (traced - untraced) / untraced


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {name: median([r[name] for r in runs]) for name in runs[0]}


# ----------------------------------------------------------------------
# paper-cold / paper-warm
# ----------------------------------------------------------------------
def cli_setup(ctx: Context) -> float:
    """Process start + imports of the CLI until it can answer ``--list``."""
    return median(
        [ctx.run_cli("warped-compression", ["--list"])[0]
         for _ in range(CLI_SETUP_REPEATS)]
    )


def paper_run(ctx: Context, cache: Path, trace_dir: Path | None = None):
    """One ``all --scale small`` invocation on ``cache``."""
    metrics_path = cache.parent / f"{cache.name}-metrics.json"
    wall, text = ctx.run_cli(
        "warped-compression",
        PAPER_ARGS + ["--cache-dir", str(cache),
                      "--metrics-out", str(metrics_path)],
        trace_dir,
    )
    return wall, text, json.loads(metrics_path.read_text())


def check_tables(out: Outcome, text: str, reference: dict, label: str,
                 only: tuple[str, ...] | None = None) -> None:
    expected = reference["tables"]
    if only is not None:
        expected = {k: expected[k] for k in only}
    got = table_digests(text)
    out.tables = split_tables(text)
    wrong = sorted(k for k in expected if got.get(k) != expected[k])
    extra = sorted(set(got) - set(expected))
    out.check(
        not wrong and not extra,
        f"{label}: tables differ from the reference: {wrong + extra}",
    )


def check_cold(out: Outcome, text: str, cache: Path, reference: dict) -> None:
    check_tables(out, text, reference, "cold run")
    totals = timing_totals(cache)
    out.check(
        totals == reference["timing_totals"],
        f"cold run: timing counters {totals} != "
        f"{reference['timing_totals']}",
    )


def paper_cold(ctx: Context) -> Outcome:
    out = Outcome()
    reference = load_reference()
    if ctx.trace:
        cache = ctx.fresh_dir("cache")
        wall_u, text, metrics = paper_run(ctx, cache)
        check_cold(out, text, cache, reference)
        spans = ctx.fresh_dir("spans")
        cache = ctx.fresh_dir("cache")
        wall_t, text, _ = paper_run(ctx, cache, spans)
        check_cold(out, text, cache, reference)
        dumps = traces.load_dumps(spans)
        out.layers = traces.layer_metrics(dumps, {ctx.last_pid})
        sims = metrics["simulations"]["total_seconds"]
        out.layers["harness.pool_util"] = sims / (
            metrics["wall_seconds"] * PAPER_JOBS
        )
        out.layers["obs.trace_overhead_pct"] = overhead_pct(wall_u, wall_t)
        return out

    setup = cli_setup(ctx)
    keys = 0

    def cold() -> float:
        nonlocal keys
        cache = ctx.fresh_dir("cache")
        wall, text, _ = paper_run(ctx, cache)
        keys += cache_entries(cache)
        check_cold(out, text, cache, reference)
        return wall

    walls = repeat_within(ctx.seconds, cold)
    latency_metrics(ctx, out, setup, keys / sum(walls), walls)
    return out


def paper_warm(ctx: Context) -> Outcome:
    out = Outcome()
    reference = load_reference()
    setup = None if ctx.trace else cli_setup(ctx)
    cache = ctx.fresh_dir("cache")
    _, text, _ = paper_run(ctx, cache)
    check_cold(out, text, cache, reference)
    keys = cache_entries(cache)

    def warm(trace_dir: Path | None = None) -> float:
        wall, text, metrics = paper_run(ctx, cache, trace_dir)
        check_tables(out, text, reference, "warm run")
        out.check(
            metrics["session"]["simulated"] == 0,
            f"warm run simulated {metrics['session']['simulated']} requests",
        )
        return wall

    if ctx.trace:
        untraced, traced, layers = [], [], []
        for _ in range(WARM_TRACE_REPEATS):
            untraced.append(warm())
            spans = ctx.fresh_dir("spans")
            traced.append(warm(spans))
            layers.append(
                traces.layer_metrics(traces.load_dumps(spans), {ctx.last_pid})
            )
        out.layers = median_metrics(layers)
        out.layers["obs.trace_overhead_pct"] = overhead_pct(
            median(untraced), median(traced)
        )
        return out

    ctx.peak_rss_mb = 0.0  # the warm reruns only, not the cold fill
    walls = repeat_within(ctx.seconds, warm)
    latency_metrics(ctx, out, setup, keys * len(walls) / sum(walls), walls)
    return out


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
def serve_mix_requests(seed: int):
    """Endless seeded request stream: 1 new key in every 20, rest repeats.

    Each block of 20 requests holds exactly one new key, at a seeded
    slot.  New keys take the kernels round robin and alternate the
    policy, so every seed asks for the same amount of simulation; the
    seed draws each new key's overrides (without replacement), the
    slots, and the repeats, which pick uniformly among the
    ``SERVE_WORKING_SET`` keys issued last.  A fixed working set keeps
    the share of repeats that land on a key still in flight (and so
    coalesce) the same all through the run.  A stream that runs out of
    new keys raises :class:`BenchError` rather than silently dropping
    its misses.
    """
    from repro.kernels import benchmark_names

    rng = random.Random(seed)
    kernels = benchmark_names()
    names = list(SERVE_OVERRIDES)
    variants = {}
    for kernel in kernels:
        combos = list(itertools.product(*(SERVE_OVERRIDES[n] for n in names)))
        rng.shuffle(combos)
        variants[kernel] = [
            (policy, values)
            for values in combos
            for policy in SERVE_POLICIES
        ]
        variants[kernel].reverse()
    turn = itertools.cycle(kernels)

    def new_key() -> dict:
        for _ in kernels:
            kernel = next(turn)
            if variants[kernel]:
                policy, values = variants[kernel].pop()
                return {
                    "benchmark": kernel,
                    "policy": policy,
                    "scale": "small",
                    "timing": True,
                    "config_overrides": dict(zip(names, values)),
                }
        raise BenchError("serve-mix request stream ran out of new keys")

    issued: list[dict] = []
    period = round(1 / SERVE_NEW_KEY_SHARE)
    for block in itertools.count():
        slot = 0 if block == 0 else rng.randrange(period)
        for i in range(period):
            if i == slot:
                issued.append(new_key())
                yield issued[-1]
            else:
                yield rng.choice(issued[-SERVE_WORKING_SET:])


def key_of(request: dict) -> str:
    return json.dumps(request, sort_keys=True)


class ServeLoad:
    """Closed-loop clients sharing one seeded request stream.

    The first ``SERVE_WORKING_SET`` blocks of the stream are a warm-up
    that fills the working set and starts the server's pool workers;
    they are checked but not measured.  The measured window then runs
    for ``seconds`` and at least ``SERVE_MIN_REQUESTS`` requests.
    """

    def __init__(self, port: int, seed: int, seconds: float,
                 results: dict[str, object]):
        from repro.serve.client import ServeClient

        self.client = ServeClient("127.0.0.1", port, timeout=30.0)
        self.stream = serve_mix_requests(seed)
        self.seconds = seconds
        self.warmup = SERVE_WORKING_SET * round(1 / SERVE_NEW_KEY_SHARE)
        self.lock = threading.Lock()
        self.sent = 0
        #: start of the measured window (None during the warm-up)
        self.begin: float | None = None
        self.latencies: list[float] = []
        self.errors: list[str] = []
        #: the first result per distinct key, shared by every load of a
        #: run (repeats must match it)
        self.results = results
        self.mismatches: list[str] = []
        #: requests completed in all, warm-up included
        self.completed = 0
        self.elapsed = 0.0
        #: wall of the whole load, warm-up included
        self.wall = 0.0
        #: set when the request stream itself fails (not the program)
        self.fatal: BenchError | None = None

    def _client(self) -> None:
        while True:
            with self.lock:
                if self.errors or self.fatal:
                    return  # the run has failed; stop loading the server
                now = time.perf_counter()
                if self.begin is None and self.sent >= self.warmup:
                    self.begin = now
                measured = self.begin is not None
                if (measured and self.runs >= SERVE_MIN_REQUESTS
                        and now - self.begin >= self.seconds):
                    return
                try:
                    request = next(self.stream)
                except BenchError as exc:
                    self.fatal = exc
                    return
                self.sent += 1
            start = time.perf_counter()
            try:
                result = self.client.run(request, deadline=60.0)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                with self.lock:
                    self.errors.append(f"{type(exc).__name__}: {exc}")
                return
            latency = time.perf_counter() - start
            problem = self._check(request, result)
            with self.lock:
                self.completed += 1
                if measured:
                    self.latencies.append(latency)
                key = key_of(request)
                first = self.results.setdefault(key, result)
                if problem is None and first.cycles != result.cycles:
                    problem = f"{key}: cycles differ between repeats"
                if problem is not None:
                    self.mismatches.append(problem)

    @property
    def runs(self) -> int:
        """Requests completed in the measured window."""
        return len(self.latencies)

    @staticmethod
    def _check(request: dict, result) -> str | None:
        config = result.config or {}
        wrong = (
            result.benchmark != request["benchmark"]
            or result.policy != request["policy"]
            or any(config.get(k) != v
                   for k, v in request["config_overrides"].items())
        )
        return f"{key_of(request)}: result for another request" if wrong else None

    def run(self) -> None:
        start = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, daemon=True)
            for _ in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        if self.fatal is not None:
            raise self.fatal
        self.wall = end - start
        self.elapsed = end - (self.begin or end)


def serve_counters(port: int) -> dict[str, float]:
    from repro.serve.client import ServeClient

    return ServeClient("127.0.0.1", port).metrics()["metrics"]


def start_server(ctx: Context, trace_dir: Path | None = None):
    """Boot ``repro serve`` until ``/healthz`` answers: (proc, port, s)."""
    from repro.serve.client import ServeClient

    start = time.perf_counter()
    proc, port = ctx.start_service(
        ["serve", "--port", "0", "--workers", str(SERVE_WORKERS),
         "--scale", "small", "--cache-dir", str(ctx.fresh_dir("cache"))],
        trace_dir,
    )
    if not ServeClient("127.0.0.1", port).wait_ready(30.0):
        raise BenchError("repro serve never became healthy")
    return proc, port, time.perf_counter() - start


def serve_pass(ctx: Context, out: Outcome, proc, port: int,
               results: dict[str, object]) -> ServeLoad:
    """Load one fresh server, then stop it."""
    before = serve_counters(port)
    load = ServeLoad(port, ctx.seed, ctx.seconds, results)
    load.run()
    after = serve_counters(port)
    ctx.stop(proc)
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    for name in ("simulations", "coalesced", "cache_hits", "rejected",
                 "retries"):
        out.layers[f"serve.{name}"] = delta.get(f"serve.{name}", 0)
    out.layers["serve.http_per_request"] = (
        delta.get("serve.http_requests", 0) / max(1, load.completed)
    )
    for error in load.errors:
        out.check(False, f"serve request failed: {error}")
    for problem in load.mismatches:
        out.check(False, problem)
    out.attempted += load.completed - len(load.mismatches)
    if not load.runs:
        raise BenchError(f"serve load measured no request: {load.errors[:1]}")
    return load


def verify_sample(out: Outcome, results: dict[str, object],
                  seed: int) -> None:
    """Served results equal a direct ``simulate`` on a seeded sample."""
    from repro.sim import SimRequest, simulate

    keys = sorted(results)
    for key in random.Random(seed).sample(keys, min(SERVE_VERIFY_SAMPLE,
                                                    len(keys))):
        spec = json.loads(key)
        spec["config_overrides"] = tuple(sorted(
            spec["config_overrides"].items()
        ))
        direct = simulate(SimRequest(**spec)).to_dict()
        out.check(
            results[key].to_dict() == direct,
            f"{key}: served result differs from a direct simulate",
        )


def serve_mix(ctx: Context) -> Outcome:
    out = Outcome()
    results: dict[str, object] = {}
    if ctx.trace:
        proc, port, _ = start_server(ctx)
        untraced = serve_pass(ctx, out, proc, port, results)
        rps_u = untraced.runs / untraced.elapsed
        spans = ctx.fresh_dir("spans")
        tracer = benchtrace.install(str(spans))
        proc, port, _ = start_server(ctx, spans)
        traced = serve_pass(ctx, out, proc, port, results)
        tracer.dump()
        rps_t = traced.runs / traced.elapsed
        dumps = traces.load_dumps(spans)
        layers = traces.layer_metrics(dumps, set(),
                                      serve_runs=traced.completed)
        out.layers.update(layers)
        out.layers["obs.trace_overhead_pct"] = overhead_pct(1 / rps_u,
                                                            1 / rps_t)
        client = next(d for d in dumps if d.pid == tracer.pid)
        out.layers["obs.span_coverage"] = sum(client.durations("serve.run")) / (
            SERVE_CLIENTS * traced.wall
        )
        verify_sample(out, results, ctx.seed)
        return out

    boots = []
    for i in range(SERVICE_SETUP_REPEATS):
        proc, port, seconds = start_server(ctx)
        boots.append(seconds)
        if i < SERVICE_SETUP_REPEATS - 1:
            ctx.stop(proc)
    load = serve_pass(ctx, out, proc, port, results)
    verify_sample(out, results, ctx.seed)
    latency_metrics(ctx, out, median(boots), load.runs / load.elapsed,
                    load.latencies)
    return out


# ----------------------------------------------------------------------
# fleet-sweep
# ----------------------------------------------------------------------
def start_fleet(ctx: Context, trace_dir: Path | None = None):
    """Coordinator + workers on empty caches, until every worker is alive.

    Returns (coordinator client, processes, boot seconds).
    """
    from repro.cluster.client import CoordinatorClient

    start = time.perf_counter()
    coordinator, port = ctx.start_service(
        ["cluster", "coordinator", "--port", "0",
         "--cache-dir", str(ctx.fresh_dir("cache"))],
        trace_dir,
    )
    procs = [coordinator] + [
        ctx.spawn(
            ["cluster", "worker", "--coordinator", f"127.0.0.1:{port}",
             "--cache-dir", str(ctx.fresh_dir("cache")),
             "--poll-interval", FLEET_WORKER_POLL_S],
            trace_dir,
        )
        for _ in range(FLEET_WORKERS)
    ]
    client = CoordinatorClient("127.0.0.1", port)
    deadline = start + 60.0
    while client.metrics()["metrics"]["cluster.workers_alive"] < FLEET_WORKERS:
        if time.perf_counter() > deadline or any(
            p.poll() is not None for p in procs
        ):
            raise BenchError("cluster workers never registered")
        time.sleep(0.005)
    return client, procs, time.perf_counter() - start


def fleet_pass(ctx: Context, out: Outcome, reference: dict,
               trace_dir: Path | None = None) -> tuple[float, int]:
    """One cold sweep of the fixed figure list on a fresh fleet.

    Returns the sweep's wall seconds and the number of keys it filled.
    """
    client, procs, _ = start_fleet(ctx, trace_dir)
    http_before = client.metrics()["metrics"]["cluster.http_requests"]
    wall, text = ctx.run_cli(
        "repro",
        ["cluster", "run", *FLEET_FIGURES, "--coordinator",
         f"127.0.0.1:{client.port}", "--scale", "small", "--quiet",
         "--cache-dir", str(ctx.fresh_dir("cache"))],
        trace_dir,
    )
    status = client.status()
    metrics = client.metrics()["metrics"]
    for proc in reversed(procs):
        ctx.stop(proc)
    counters = status["counters"]
    keys = counters["put_new"]
    check_tables(out, text, reference, "fleet sweep", only=FLEET_FIGURES)
    out.check(counters["put_dup"] == 0,
              f"fleet sweep: put_dup = {counters['put_dup']}")
    for name in ("leases", "put_new", "put_dup", "shards_reassigned"):
        out.layers[f"cluster.{name}"] = counters[name]
    out.layers["cluster.http_per_key"] = (
        metrics["cluster.http_requests"] - http_before
    ) / max(1, keys)
    return wall, keys


def fleet_sweep(ctx: Context) -> Outcome:
    out = Outcome()
    reference = load_reference()
    if ctx.trace:
        wall_u, _ = fleet_pass(ctx, out, reference)
        spans = ctx.fresh_dir("spans")
        wall_t, _ = fleet_pass(ctx, out, reference, spans)
        out.layers.update(
            traces.layer_metrics(traces.load_dumps(spans), {ctx.last_pid})
        )
        out.layers["obs.trace_overhead_pct"] = overhead_pct(wall_u, wall_t)
        return out

    boots = []
    for _ in range(SERVICE_SETUP_REPEATS):
        _, procs, seconds = start_fleet(ctx)
        boots.append(seconds)
        for proc in reversed(procs):
            ctx.stop(proc)
    keys = 0

    def sweep() -> float:
        nonlocal keys
        wall, filled = fleet_pass(ctx, out, reference)
        keys += filled
        return wall

    walls = repeat_within(ctx.seconds, sweep)
    latency_metrics(ctx, out, median(boots), keys / sum(walls), walls)
    return out


WORKLOADS = {
    "paper-cold": paper_cold,
    "paper-warm": paper_warm,
    "serve-mix": serve_mix,
    "fleet-sweep": fleet_sweep,
}
