"""End-to-end benchmark of the warped-compression reproduction.

One run::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0

prints human-readable lines and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` makes a separate traced
run and reports the per-layer metrics.  ``--all`` runs every workload
both ways and prints every metric by name with its unit.
``--record-reference`` re-derives ``reference.json`` (the output digests
the runs are checked against) from a cold run of the current code.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from common import (
    BENCH_DIR,
    REFERENCE,
    SRC,
    THREAD_LIMITS,
    BenchError,
    Context,
    compile_sources,
    paper_gap,
    split_tables,
    table_digests,
    timing_totals,
)

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: The headline names the ROADMAP and the docs use, per workload.
HEADLINES = {
    "paper-cold": [("paper_cold_s", "p50_ms", 1e-3, "s")],
    "paper-warm": [("paper_warm_s", "p50_ms", 1e-3, "s")],
    "serve-mix": [
        ("serve_rps", "ops_per_s", 1.0, "1/s"),
        ("serve_p50_ms", "p50_ms", 1.0, "ms"),
        ("serve_p99_ms", "p99_ms", 1.0, "ms"),
    ],
    "fleet-sweep": [("fleet_sweep_s", "p50_ms", 1e-3, "s")],
}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object (not yet printed)."""
    from workloads import WORKLOADS
    import traces

    print_environment()
    compile_sources()
    with Context(name, seed, seconds, trace) as ctx:
        out = WORKLOADS[name](ctx)
        for problem in ctx.unstoppable:
            out.check(False, problem)
    for line in paper_gap(out.tables):
        print(line)
    for problem in out.problems:
        print(f"FAILED CHECK: {problem}")
    if trace:
        metrics = traces.complete(out.layers)
    else:
        metrics = {
            name: {"value": float(out.e2e[name]), "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
    attempted = max(1, out.attempted)
    print(f"failed_ratio {out.failed / attempted:.6f} "
          f"({out.failed} of {attempted} operations)")
    return {
        "correct": out.failed == 0,
        "attempted": attempted,
        "failed": out.failed,
        "metrics": metrics,
    }


def print_environment() -> None:
    from repro.harness.bench import runtime_environment

    env = runtime_environment()
    env["nproc"] = os.cpu_count()
    print(f"environment: {json.dumps(env, sort_keys=True)}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced; prints every metric."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            started = time.perf_counter()
            result = run_workload(name, seed, seconds, trace)
            ok &= result["correct"]
            print(f"--- {name} trace={int(trace)} "
                  f"({time.perf_counter() - started:.1f}s) "
                  f"correct={result['correct']}")
            metrics = result["metrics"]
            if not trace:
                for alias, source, scale, unit in HEADLINES[name]:
                    value = metrics[source]["value"] * scale
                    print(f"  {alias:32s} {value:14.4f} {unit}")
            for metric, entry in metrics.items():
                print(f"  {metric:32s} {entry['value']:14.4f} {entry['unit']}")
    return 0 if ok else 1


def record_reference() -> int:
    """Re-derive reference.json from one cold run of the current code."""
    from workloads import PAPER_ARGS

    compile_sources()
    with Context("reference", 0, 0, False) as ctx:
        cache = ctx.fresh_dir("cache")
        _, text = ctx.run_cli(
            "warped-compression", PAPER_ARGS + ["--cache-dir", str(cache)]
        )
        reference = {
            "command": "warped-compression " + " ".join(PAPER_ARGS),
            "tables": table_digests(text),
            "timing_totals": timing_totals(cache),
        }
    for line in paper_gap(split_tables(text)):
        print(line)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(BENCH_DIR.parent)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    # A terminated run still stops the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ.update(THREAD_LIMITS)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.record_reference:
        return record_reference()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
