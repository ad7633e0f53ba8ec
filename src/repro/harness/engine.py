"""The shared experiment engine: declarative specs over Session artifacts.

An experiment is a *workload × config grid* plus a *pure reduction*:

* :class:`Variant` — one named simulator configuration (policy,
  scheduler, latencies, arbitrary :class:`~repro.gpu.config.GPUConfig`
  overrides);
* :class:`ExperimentSpec` — which benchmarks × which variants to run,
  and a reduction turning the resulting grid of
  :class:`~repro.sim.result.RunResult` artifacts into an
  :class:`~repro.analysis.report.ExperimentResult` table;
* :func:`evaluate` — the one engine: it expands every requested spec's
  grid into one deduplicated request plan, resolves the whole plan with
  a single :meth:`~repro.sim.session.Session.run_many` call (which
  dedupes, caches, and fans misses over one worker pool, or one fleet
  sweep), and only then applies each spec's reduction to the shared
  result mapping.

Because all execution funnels through one plan, two experiments that
share a (kernel, config) pair — e.g. the Figure 9 and Figure 14 baseline
runs — share one simulation, no figure waits on another's slowest run,
and a warm on-disk cache re-renders any table without simulating at all.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.report import ExperimentResult
from repro.sim.result import RunResult
from repro.sim.session import Session, SimRequest

#: Label of the per-experiment summary row.
AVERAGE = "AVERAGE"


@dataclass(frozen=True)
class Variant:
    """One named point of an experiment's configuration grid."""

    name: str
    policy: str = "warped"
    scheduler: str = "gto"
    compression_latency: int = 2
    decompression_latency: int = 1
    rfc_entries: int = 0
    timing: bool = True
    collect_bdi: bool = False
    config_overrides: tuple[tuple[str, object], ...] = ()
    #: functional variants only: price via the session's trace-replay
    #: tier instead of executing the kernel (see repro.harness.sweeps)
    replay: bool = False

    def request(self, benchmark: str, scale: str) -> SimRequest:
        """The simulation request this variant needs for one benchmark."""
        return SimRequest(
            benchmark=benchmark,
            policy=self.policy,
            scheduler=self.scheduler,
            compression_latency=self.compression_latency,
            decompression_latency=self.decompression_latency,
            rfc_entries=self.rfc_entries,
            timing=self.timing,
            collect_bdi=self.collect_bdi,
            scale=scale,
            config_overrides=self.config_overrides,
            replay=self.replay,
        )


class ResultGrid:
    """benchmark × variant grid of RunResult artifacts (read-only)."""

    def __init__(
        self,
        benchmarks: list[str],
        results: dict[tuple[str, str], RunResult],
    ):
        self.benchmarks = benchmarks
        self._results = results

    def get(self, benchmark: str, variant: str) -> RunResult:
        try:
            return self._results[(benchmark, variant)]
        except KeyError:
            raise KeyError(
                f"no result for benchmark {benchmark!r}, variant {variant!r}"
            ) from None


@dataclass(frozen=True)
class ExperimentSpec:
    """One table/figure: a config grid plus a pure reduction function.

    Calling a spec with a :class:`Session` evaluates it, so specs are
    drop-in replacements for the old imperative driver functions.
    """

    exp_id: str
    title: str
    reduce: Callable[[ResultGrid], ExperimentResult]
    variants: tuple[Variant, ...] = ()
    #: explicit benchmark list; ``None`` follows the session's suite
    suite: tuple[str, ...] | None = None
    #: draw benchmarks from the extended (non-paper) suite instead
    extended: bool = False

    def __call__(self, session: Session) -> ExperimentResult:
        return evaluate([self], session)[0]

    def resolve_benchmarks(self, session: Session) -> list[str]:
        if self.extended:
            from repro.kernels import benchmark_names

            return benchmark_names(extended=True)
        if self.suite is not None:
            return session.benchmarks(list(self.suite))
        return session.benchmarks()

    def requests(self, session: Session) -> dict[tuple[str, str], SimRequest]:
        """The full workload × config grid as concrete requests."""
        return {
            (benchmark, variant.name): variant.request(benchmark, session.scale)
            for benchmark in self.resolve_benchmarks(session)
            for variant in self.variants
        }


def evaluate(
    specs: Sequence[ExperimentSpec], session: Session
) -> list[ExperimentResult]:
    """Plan every spec's grid, run the plan once, reduce each spec.

    The plan is the union of all grids with identical requests
    collapsed; ``session.run_many`` resolves it in one call, so cache
    misses share one worker pool (or one fleet sweep) and no spec waits
    on another.  Reductions run last, over the shared result mapping,
    in ``specs`` order.  With a profiled session the plan is booked as
    the ``plan`` phase and each reduction under its spec's ``exp_id``.
    """
    grids = [spec.requests(session) for spec in specs]
    plan = list(dict.fromkeys(r for grid in grids for r in grid.values()))
    with _phase(session, "plan"):
        results = session.run_many(plan)
    reduced = []
    for spec, grid in zip(specs, grids):
        with _phase(session, spec.exp_id):
            result = spec.reduce(
                ResultGrid(
                    benchmarks=spec.resolve_benchmarks(session),
                    results={
                        cell: results[request]
                        for cell, request in grid.items()
                    },
                )
            )
        if result.exp_id != spec.exp_id:
            raise ValueError(
                f"reduction for {spec.exp_id!r} produced {result.exp_id!r}"
            )
        reduced.append(result)
    return reduced


def _phase(session: Session, name: str):
    """The session profiler's phase timer, or a no-op without one."""
    if session.profiler is None:
        return nullcontext()
    return session.profiler.phase(name)


@dataclass(frozen=True)
class _SpecBuilder:
    """Decorator sugar: ``@experiment(...)`` turns a reduction into a spec."""

    exp_id: str
    title: str
    variants: tuple[Variant, ...] = ()
    suite: tuple[str, ...] | None = None
    extended: bool = False

    def __call__(
        self, reduce: Callable[[ResultGrid], ExperimentResult]
    ) -> ExperimentSpec:
        return ExperimentSpec(
            exp_id=self.exp_id,
            title=self.title,
            reduce=reduce,
            variants=self.variants,
            suite=self.suite,
            extended=self.extended,
        )


def experiment(
    exp_id: str,
    title: str,
    variants: tuple[Variant, ...] | list[Variant] = (),
    suite: tuple[str, ...] | None = None,
    extended: bool = False,
) -> _SpecBuilder:
    """Declare an experiment: grid in the decorator, reduction below it."""
    return _SpecBuilder(
        exp_id=exp_id,
        title=title,
        variants=tuple(variants),
        suite=suite,
        extended=extended,
    )
