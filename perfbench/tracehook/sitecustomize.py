"""Starts the benchmark's span tracer in every traced Python process.

The benchmark puts this directory on ``PYTHONPATH`` only for traced
runs and names the span output directory in ``PERFBENCH_TRACE_DIR``;
every interpreter the program starts (CLI, server, coordinator,
workers) then traces itself from its first import.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import benchtrace

    benchtrace.install(os.environ["PERFBENCH_TRACE_DIR"])
