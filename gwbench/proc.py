"""The gateway as a child OS process, and its control-plane connection.

:class:`GatewayProcess` launches ``python -m repro.gateway`` (or the
traced launcher), waits for the one ready line the gateway prints on
boot, reads the process's CPU time and peak resident set from
``/proc/<pid>``, and stops it with ``SIGTERM`` (the gateway's graceful
drain), escalating to ``SIGKILL`` only when the drain hangs.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class GatewayProcess:
    """One gateway child process."""

    def __init__(self, argv: list[str], env: dict[str, str]):
        self._argv = argv
        self._env = env
        self.proc: asyncio.subprocess.Process | None = None
        self.ready: dict = {}
        #: launch -> ready line, seconds
        self.boot_s = 0.0

    async def start(self, timeout: float = 60.0) -> float:
        """Launch and wait for the ready line; returns the launch instant."""
        launched = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *self._argv, env=self._env, stdout=asyncio.subprocess.PIPE
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(), timeout)
        if not line:
            code = await self.proc.wait()
            raise RuntimeError(f"gateway exited with code {code} before its ready line")
        self.boot_s = time.perf_counter() - launched
        self.ready = json.loads(line)
        return launched

    @property
    def data_address(self) -> tuple[str, int]:
        host, port = self.ready["data"]
        return host, port

    @property
    def control_address(self) -> tuple[str, int]:
        host, port = self.ready["control"]
        return host, port

    def cpu_seconds(self) -> float:
        """User + system CPU of the whole process (all threads) so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            # the command name may contain spaces; fields resume after ')'
            fields = f.read().rsplit(")", 1)[1].split()
        utime, stime = int(fields[11]), int(fields[12])
        return (utime + stime) / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """The process's high-water resident set (``VmHWM``), in MB."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    async def stop(self, timeout: float = 15.0) -> int:
        """SIGTERM (graceful drain), SIGKILL after ``timeout``; returns the code."""
        proc = self.proc
        if proc is None or proc.returncode is not None:
            return proc.returncode if proc is not None else 0
        proc.send_signal(signal.SIGTERM)
        try:
            return await asyncio.wait_for(proc.wait(), timeout)
        except asyncio.TimeoutError:
            proc.kill()
            return await proc.wait()


class Control:
    """One persistent line-delimited-JSON control connection."""

    def __init__(self) -> None:
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self, address: tuple[str, int]) -> None:
        """Connect to the gateway's control plane."""
        self._reader, self._writer = await asyncio.open_connection(
            *address, limit=1 << 24
        )

    async def call(self, request: dict, timeout: float = 30.0) -> dict:
        """One request/response round; raises if the gateway says not ok."""
        self._writer.write(json.dumps(request).encode("utf-8") + b"\n")
        line = await asyncio.wait_for(self._reader.readline(), timeout)
        if not line:
            raise ConnectionError("control connection closed")
        response = json.loads(line)
        if not response.get("ok"):
            raise RuntimeError(f"control {request.get('op')!r} failed: {response}")
        return response

    async def close(self) -> None:
        """Close the connection."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
