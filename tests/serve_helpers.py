"""Shared test helper: a ``repro serve`` instance embedded in a thread.

The server's asyncio loop runs on a daemon thread; the test thread
talks to it over real TCP through :class:`~repro.serve.client.ServeClient`
on an ephemeral port.  Thread-pool executors keep worker simulations in
this process, so ``SIM_COUNTER`` deltas stay observable.
"""

from __future__ import annotations

import asyncio
import threading

from repro.serve.client import ServeClient
from repro.serve.server import ServeApp, ServeConfig


class EmbeddedServer:
    """Context manager: boot on port 0, expose host/port/app, drain."""

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("port", 0)
        config_kwargs.setdefault("executor", "thread")
        config_kwargs.setdefault("workers", 2)
        config_kwargs.setdefault("use_disk_cache", False)
        self.config = ServeConfig(**config_kwargs)
        self.app: ServeApp | None = None
        self.host = ""
        self.port = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._boot_error: BaseException | None = None

    def __enter__(self) -> "EmbeddedServer":
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._ready.wait(10):
            raise RuntimeError("embedded server failed to boot")
        if self._boot_error is not None:
            raise self._boot_error
        assert self.client().wait_ready(10)
        return self

    def __exit__(self, *exc_info) -> None:
        future = None
        if (
            self._loop is not None
            and self.app is not None
            and not self._loop.is_closed()
        ):
            shutdown = self.app.shutdown(drain=True)
            try:
                future = asyncio.run_coroutine_threadsafe(
                    shutdown, self._loop
                )
            except RuntimeError:
                shutdown.close()  # loop closed since the check
        if self._thread is not None:
            # The serving thread ends once either shutdown completes: a
            # server-initiated drain can close the loop before it ever
            # runs ours, leaving that future pending for good.
            self._thread.join(40)
            if self._thread.is_alive():
                raise RuntimeError("embedded server did not stop")
        if future is None:
            return
        if not future.done():
            shutdown.close()  # never started: the loop closed first
        elif not future.cancelled():
            future.result()  # surface a failed shutdown

    def _main(self) -> None:
        async def serve() -> None:
            try:
                self.app = ServeApp(self.config)
                self.host, self.port = await self.app.start()
                self._loop = asyncio.get_running_loop()
            except BaseException as exc:  # noqa: BLE001 - surfaced to tester
                self._boot_error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.app.serve_until_stopped()

        try:
            asyncio.run(serve())
        except BaseException:  # noqa: BLE001 - boot errors already captured
            pass

    def client(self, timeout: float = 30.0) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=timeout)
