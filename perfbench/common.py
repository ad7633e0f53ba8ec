"""Process, environment and output-check helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracehook.benchtrace import TIMING_FIELDS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACEHOOK = BENCH_DIR / "tracehook"
REFERENCE = BENCH_DIR / "reference.json"

#: The installed console scripts, spelled as ``python -c`` programs so the
#: benchmark runs the checkout's sources without installing them.
ENTRY_POINTS = {
    "warped-compression": (
        "import sys; from repro.harness.runner import main; sys.exit(main())"
    ),
    "repro": "import sys; from repro.verify.cli import main; sys.exit(main())",
}

#: Host hygiene: numeric libraries stay single-threaded in every process.
THREAD_LIMITS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class BenchError(RuntimeError):
    """The program misbehaved in a way that voids the whole run."""


def reap(proc: subprocess.Popen, timeout: float) -> tuple[float, float]:
    """Wait for ``proc``: (its end time, its peak RSS in MB).

    ``os.wait4`` reports the child's peak resident set, which covers the
    descendants it waited for (a CLI's process pool, a server's
    workers).  A blocked waiter thread keeps the end time exact; the
    process group is killed if it outlives ``timeout``.
    """
    done: dict = {}

    def wait() -> None:
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildProcessError:  # another waiter reaped it first
            done.update(end=time.perf_counter(), rss_mb=0.0)
            return
        done["end"] = time.perf_counter()
        done["rss_mb"] = usage.ru_maxrss / 1024.0
        proc.returncode = os.waitstatus_to_exitcode(status)

    waiter = threading.Thread(target=wait, daemon=True)
    waiter.start()
    waiter.join(timeout)
    if waiter.is_alive():
        os.killpg(proc.pid, signal.SIGKILL)
        waiter.join()
        raise BenchError(f"{' '.join(proc.args[3:])} timed out")
    return done["end"], done["rss_mb"]


class Context:
    """One benchmark run: its seed, scratch directory and process env."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_dir = ROOT / ".bench_runs" / f"{workload}-{seed}-{os.getpid()}"
        self._serial = 0
        #: pid of the latest CLI invocation (the traced run's root)
        self.last_pid: int | None = None
        #: peak RSS over every program process reaped so far (MB)
        self.peak_rss_mb = 0.0
        self.processes: list[subprocess.Popen] = []
        #: services that outlived their SIGTERM grace (program faults)
        self.unstoppable: list[str] = []

    def __enter__(self) -> "Context":
        if self.run_dir.exists():
            shutil.rmtree(self.run_dir)
        (self.run_dir / "tmp").mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        # Only an aborted run leaves processes behind: kill each one's
        # whole process group (pool workers included) and reap it.
        for proc in self.processes:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            reap(proc, 30.0)
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def fresh_dir(self, label: str) -> Path:
        """A new, empty directory under this run (caches, span dumps)."""
        self._serial += 1
        path = self.run_dir / f"{label}-{self._serial}"
        path.mkdir(parents=True)
        return path

    def env(self, trace_dir: Path | None = None) -> dict[str, str]:
        """Environment of every program process this run starts."""
        env = dict(os.environ)
        env.pop("REPRO_CACHE_DIR", None)
        env.pop("PERFBENCH_TRACE_DIR", None)
        env.update(THREAD_LIMITS)
        env["TMPDIR"] = str(self.run_dir / "tmp")
        env["PYTHONPATH"] = str(SRC)
        if trace_dir is not None:
            env["PYTHONPATH"] += os.pathsep + str(TRACEHOOK)
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        return env

    # ------------------------------------------------------------------
    def run_cli(
        self,
        entry: str,
        args: list[str],
        trace_dir: Path | None = None,
        timeout: float = 120.0,
    ) -> tuple[float, str]:
        """Run one CLI invocation to completion: (wall seconds, stdout)."""
        out_path = self.run_dir / "tmp" / "cli.out"
        err_path = self.run_dir / "tmp" / "cli.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", ENTRY_POINTS[entry], *args],
                cwd=self.run_dir,
                env=self.env(trace_dir),
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
        self.last_pid = proc.pid
        self.processes.append(proc)
        end, rss_mb = reap(proc, timeout)
        self.processes.remove(proc)
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        if proc.returncode != 0:
            raise BenchError(
                f"{entry} {' '.join(args)} exited {proc.returncode}: "
                f"{err_path.read_text()[-2000:]}"
            )
        return end - start, out_path.read_text()

    def spawn(
        self, args: list[str], trace_dir: Path | None = None
    ) -> subprocess.Popen:
        """Start a long-running ``repro`` process logging to its own file."""
        log = self.fresh_dir("log") / "service.log"
        with open(log, "w") as out:
            proc = subprocess.Popen(
                [sys.executable, "-c", ENTRY_POINTS["repro"], *args],
                cwd=self.run_dir,
                env=self.env(trace_dir),
                stdout=out,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        proc.log = log
        self.processes.append(proc)
        return proc

    def start_service(
        self, args: list[str], trace_dir: Path | None = None
    ) -> tuple[subprocess.Popen, int]:
        """Start a ``repro`` service on an ephemeral port: (process, port)."""
        proc = self.spawn(args, trace_dir)
        log = proc.log
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            match = LISTENING.search(log.read_text())
            if match:
                return proc, int(match.group(2))
            if proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError(f"repro {' '.join(args)} never listened: "
                         f"{log.read_text()[-2000:]}")

    def stop(self, proc: subprocess.Popen, grace: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL after ``grace`` seconds."""
        self.processes.remove(proc)
        if proc.poll() is not None:
            return  # already exited (and reaped by poll)
        proc.send_signal(signal.SIGTERM)
        try:
            _, rss_mb = reap(proc, grace)
        except BenchError:
            # reap() has killed it.  A service that ignores SIGTERM is a
            # program fault, counted as a failed operation; the run's
            # measurements still stand.
            self.unstoppable.append(
                f"{' '.join(proc.args[3:])}: still running {grace:.0f} s "
                "after SIGTERM"
            )
            return
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)


def compile_sources() -> None:
    """Byte-compile the program once so no timed run pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        check=True,
        stdout=subprocess.DEVNULL,
    )


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def split_tables(text: str) -> dict[str, str]:
    """Rendered CLI output -> {experiment id: table text}."""
    tables: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        match = re.match(r"== ([\w-]+): ", line)
        if match:
            current = match.group(1)
            tables[current] = []
        if current is not None:
            tables[current].append(line)
    return {k: "\n".join(v).strip() + "\n" for k, v in tables.items()}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def table_digests(text: str) -> dict[str, str]:
    return {exp: digest(table) for exp, table in split_tables(text).items()}


def average_cell(table: str, column: str | None = None) -> float:
    """The AVERAGE row's value in ``column`` (default: the last column)."""
    lines = table.splitlines()
    headers = lines[1].split()
    row = next(line.split() for line in lines if line.startswith("AVERAGE"))
    index = headers.index(column) if column else len(headers) - 1
    return float(row[index])


def timing_totals(cache_dir: Path) -> dict[str, int]:
    """Σ of the exact timing counters over every cached timing result."""
    totals = dict.fromkeys(TIMING_FIELDS, 0)
    totals["timing_results"] = 0
    for path in sorted((cache_dir / "results").rglob("*.json")):
        result = json.loads(path.read_text())["result"]
        if not result["timing_mode"]:
            continue
        totals["timing_results"] += 1
        for field in TIMING_FIELDS:
            totals[field] += int(result["timing"][field])
    return totals


def cache_entries(cache_dir: Path) -> int:
    results = cache_dir / "results"
    return sum(1 for _ in results.rglob("*.json")) if results.is_dir() else 0


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def paper_gap(tables: dict[str, str]) -> list[str]:
    """Labelled, ungated lines: the modelled design against the paper."""
    lines = []
    if "fig09" in tables:
        lines.append(
            "model-vs-paper (ungated): fig09 AVERAGE wc_total = "
            f"{average_cell(tables['fig09'], 'wc_total'):.3f} "
            "(paper: ~0.75, a 25% saving)"
        )
    if "fig13" in tables:
        lines.append(
            "model-vs-paper (ungated): fig13 AVERAGE slowdown = "
            f"{average_cell(tables['fig13']):.3f} (paper: ~1.001)"
        )
    if lines:
        lines.append(
            "model-vs-paper: no hardware reference exists in the repo; the "
            "model is otherwise unvalidated"
        )
    return lines
