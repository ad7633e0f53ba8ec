"""In-memory span tracer that wraps the program's layer boundaries.

The benchmark never edits the program: :func:`install` patches the
public functions named in :data:`BOUNDARIES` as their modules finish
importing, and times every module import itself.  Each span records its
name, layer, start, end, parent span, thread and request id.  Spans
stay in memory and are written to ``<out_dir>/spans-<pid>.json`` when
the process exits: at interpreter exit for ordinary processes and
through a multiprocessing finalizer for forked pool workers (which skip
``atexit``).  Run-time counters (session cache accounting, codec memo
lookups, summed timing statistics) are written alongside.

Clock: ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so spans
from different processes share one time base.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import sys
import threading
import time
from importlib.abc import MetaPathFinder

CLOCK = time.perf_counter

#: The only tracer of this process (``None`` until :func:`install`).
TRACER: "Tracer | None" = None

#: Summed per timing simulation, as exact identity checks.
TIMING_FIELDS = (
    "cycles",
    "issued",
    "collector_stall_cycles",
    "bank_wakeup_stalls",
    "issue_idle_cycles",
)


def layer_of(module_name: str) -> str | None:
    """``repro.<layer>...`` -> ``<layer>``; other modules have none."""
    parts = module_name.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else "harness"


class Tracer:
    """Span buffer and counters of one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._ids = itertools.count(1)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.t0 = CLOCK()
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.sessions = []
        self.distinct_keys = set()
        self.memo_base = self._memo_counts()
        self._local = threading.local()
        self._dumped = False

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, name, layer: str, rid=None, after=None):
        """``fn`` recording one span per call.

        ``name`` may be a callable of ``(args, kwargs)``; ``rid`` derives
        a request id from the arguments (else the parent's is
        inherited); ``after(args, kwargs, result)`` updates counters.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (None, None, None)
            request_id = rid(args, kwargs) if rid is not None else parent[1]
            span_name = name(args, kwargs) if callable(name) else name
            sid = next(tracer._ids)
            stack.append((sid, request_id, layer))
            start = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = CLOCK()
                stack.pop()
                tracer.spans.append(
                    (sid, parent[0], span_name, layer, start, end,
                     threading.get_ident(), request_id)
                )
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__benchtrace__ = True
        return traced

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def after_fork(self) -> None:
        """A forked child starts with an empty buffer of its own."""
        self._reset()

    def register_child_exit(self) -> None:
        """Runs in a multiprocessing child after its registries reset."""
        from multiprocessing import util

        util.Finalize(None, self.dump, exitpriority=100)

    @staticmethod
    def _memo_counts() -> tuple[int, int]:
        memo = sys.modules.get("repro.core.memo")
        if memo is None:
            return (0, 0)
        return (memo.MEMO_CACHE.hits, memo.MEMO_CACHE.misses)

    def dump(self) -> None:
        if self._dumped or os.getpid() != self.pid:
            return
        self._dumped = True
        end = CLOCK()
        counters = dict(self.counters)
        for field in ("memo_hits", "disk_hits", "dedup_hits", "simulated"):
            counters[f"session.{field}"] = sum(
                getattr(s, field) for s in self.sessions
            )
        hits, misses = self._memo_counts()
        counters["memo.hits"] = hits - self.memo_base[0]
        counters["memo.misses"] = misses - self.memo_base[1]
        counters["harness.distinct_keys"] = len(self.distinct_keys)
        payload = {
            "pid": self.pid,
            "main_thread": threading.main_thread().ident,
            "t0": self.t0,
            "t_end": end,
            "spans": self.spans,
            "counters": counters,
        }
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ----------------------------------------------------------------------
# Import timing
# ----------------------------------------------------------------------
class _TimedLoader:
    """Delegating loader that times ``exec_module`` as an import span."""

    def __init__(self, loader, fullname: str, tracer: Tracer):
        self._loader = loader
        self._fullname = fullname
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._loader, name)

    def exec_module(self, module):
        tracer = self._tracer
        stack = tracer._stack()
        parent = stack[-1] if stack else (None, None, None)
        # Third-party and stdlib imports count to the layer that first
        # needed them.
        layer = layer_of(self._fullname) or parent[2] or "python"
        sid = next(tracer._ids)
        stack.append((sid, parent[1], layer))
        start = CLOCK()
        try:
            self._loader.exec_module(module)
        finally:
            end = CLOCK()
            stack.pop()
            tracer.spans.append(
                (sid, parent[0], f"import:{self._fullname}", layer, start,
                 end, threading.get_ident(), parent[1])
            )
        patch_module(module, tracer)
        if self._fullname == "multiprocessing.util":
            watch_forks(module, tracer)


class _ImportTimer(MetaPathFinder):
    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def find_spec(self, fullname, path, target=None):
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        if spec.loader is not None and hasattr(spec.loader, "exec_module"):
            spec.loader = _TimedLoader(spec.loader, fullname, self._tracer)
        return spec


# ----------------------------------------------------------------------
# Layer boundaries
# ----------------------------------------------------------------------
def _simulate_name(args, kwargs):
    request = args[0] if args else kwargs["request"]
    return "sim.simulate.timing" if request.timing else "sim.simulate.functional"


def _request_id(args, kwargs):
    from repro.sim.cache import fingerprint

    request = args[0] if args else kwargs["request"]
    return fingerprint(request.key_material())[:16]


def _after_simulate(args, kwargs, result):
    if result.timing_mode and result.timing is not None:
        for field in TIMING_FIELDS:
            TRACER.add(f"gpu.{field}", int(getattr(result.timing, field)))


def _after_put(args, kwargs, result):
    key = args[1] if len(args) > 1 else kwargs["key"]
    path = args[0]._entry_path(key)
    try:
        TRACER.add("sim.cache_bytes", os.path.getsize(path))
    except OSError:
        pass


def _wrap_run_many(fn, tracer: Tracer):
    traced = tracer.wrap(fn, "sim.run_many", "sim")

    @functools.wraps(fn)
    def run_many(self, requests):
        requests = list(requests)
        tracer.add("harness.requests", len(requests))
        return traced(self, requests)

    run_many.__benchtrace__ = True
    return run_many


def _wrap_lookup(fn, tracer: Tracer):
    """Collects the cache key every lookup computes anyway (no span)."""

    @functools.wraps(fn)
    def lookup(self, request):
        found = fn(self, request)
        tracer.distinct_keys.add(found[0])
        return found

    lookup.__benchtrace__ = True
    return lookup


def _wrap_session_init(fn, tracer: Tracer):
    @functools.wraps(fn)
    def __init__(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        tracer.sessions.append(self)

    __init__.__benchtrace__ = True
    return __init__


def _job_id(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("job_id")


#: module -> [(attribute path, span name, layer, request-id fn, after fn)]
BOUNDARIES: dict[str, list[tuple]] = {
    "repro.harness.runner": [("main", "harness.main", "harness", None, None)],
    "repro.harness.engine": [
        ("evaluate", "harness.evaluate", "harness", None, None),
    ],
    "repro.analysis.report": [
        ("ExperimentResult.render", "analysis.render", "analysis", None, None),
    ],
    "repro.sim.session": [
        ("simulate", _simulate_name, "sim", _request_id, _after_simulate),
    ],
    "repro.sim.cache": [
        ("ResultCache.get", "sim.cache_get", "sim", None, None),
        ("ResultCache.put", "sim.cache_put", "sim", None, _after_put),
    ],
    "repro.kernels.base": [
        ("Benchmark.launch", "kernels.launch", "kernels", None, None),
        ("Benchmark.verify", "kernels.verify", "kernels", None, None),
    ],
    "repro.gpu.gpu": [("GPU.run", "gpu.run", "gpu", None, None)],
    "repro.gpu.functional": [
        ("run_functional", "gpu.functional", "gpu", None, None),
    ],
    "repro.serve.client": [
        ("ServeClient.run", "serve.run", "serve", None, None),
        ("ServeClient.submit", "serve.submit", "serve", None, None),
        ("ServeClient.status", "serve.status", "serve", _job_id, None),
        ("ServeClient.result", "serve.result", "serve", _job_id, None),
    ],
    "repro.cluster.session": [
        ("ClusterSession._dispatch", "cluster.dispatch", "cluster", None, None),
    ],
    "repro.cluster.worker": [
        ("WorkerAgent._process_shard", "cluster.shard", "cluster", None, None),
    ],
    "repro.cluster.client": [
        ("CoordinatorClient._call", "cluster.http", "cluster", None, None),
    ],
    "repro.cluster.cache": [
        ("RemoteCacheTier.get", "cluster.peer_get", "cluster", None, None),
        ("RemoteCacheTier.put", "cluster.peer_put", "cluster", None, None),
    ],
}

#: module -> [(attribute path, wrapper factory)] for boundaries that
#: also count their arguments.
CUSTOM_BOUNDARIES: dict[str, list[tuple]] = {
    "repro.sim.session": [
        ("Session.run_many", _wrap_run_many),
        ("Session.lookup", _wrap_lookup),
        ("Session.__init__", _wrap_session_init),
    ],
}

#: Every kernel module defines its own ``launch`` and ``verify``.
KERNEL_METHODS = (("launch", "kernels.launch"), ("verify", "kernels.verify"))


def _patch_attr(module, path: str, make) -> None:
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        current = owner.__dict__.get(attr)
    else:
        current = getattr(owner, attr, None)
    if current is None or getattr(current, "__benchtrace__", False):
        return
    setattr(owner, attr, make(current))


def patch_module(module, tracer: Tracer) -> None:
    """Wrap this module's boundaries (idempotent)."""
    name = module.__name__
    for path, span, layer, rid, after in BOUNDARIES.get(name, ()):
        _patch_attr(
            module,
            path,
            lambda fn, s=span, l=layer, r=rid, a=after: tracer.wrap(
                fn, s, l, rid=r, after=a
            ),
        )
    for path, factory in CUSTOM_BOUNDARIES.get(name, ()):
        _patch_attr(module, path, lambda fn, f=factory: f(fn, tracer))
    if name.startswith("repro.kernels.") and name != "repro.kernels.base":
        base = sys.modules.get("repro.kernels.base")
        if base is None:
            return
        for obj in list(vars(module).values()):
            if (
                isinstance(obj, type)
                and issubclass(obj, base.Benchmark)
                and obj.__module__ == name
            ):
                for attr, span in KERNEL_METHODS:
                    _patch_attr(
                        obj,
                        attr,
                        lambda fn, s=span: tracer.wrap(fn, s, "kernels"),
                    )


def watch_forks(util, tracer: Tracer) -> None:
    """Have forked multiprocessing children dump their spans on exit.

    Hooked when the program itself imports ``multiprocessing`` so the
    tracer never imports it on the program's behalf.
    """
    util.register_after_fork(tracer, Tracer.register_child_exit)


def install(out_dir: str) -> Tracer:
    """Start tracing this process (and the children it forks)."""
    global TRACER
    if TRACER is not None:
        return TRACER
    os.makedirs(out_dir, exist_ok=True)
    TRACER = tracer = Tracer(out_dir)
    sys.meta_path.insert(0, _ImportTimer(tracer))
    for module in list(sys.modules.values()):
        if module is not None and getattr(module, "__name__", "").startswith(
            "repro"
        ):
            patch_module(module, tracer)
    os.register_at_fork(after_in_child=tracer.after_fork)
    atexit.register(tracer.dump)
    if "multiprocessing.util" in sys.modules:
        watch_forks(sys.modules["multiprocessing.util"], tracer)
    tracer.t0 = CLOCK()
    return tracer
