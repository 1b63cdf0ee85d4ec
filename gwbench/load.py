"""The closed-loop load: a fixed window of outstanding frames per connection.

One asyncio loop drives every data connection.  Each connection keeps at
most ``window`` requests outstanding and sends the next one only when a
slot frees, either because a reply arrived or because the oldest request
passed its deadline.  Every request carries a fixed-width sequence
header; every reply is matched to its request by that header and
checked by the workload's verifier.

Outcomes are booked into a whole-run :class:`Tally` (for reconciling
against the gateway's ledger) and, between :meth:`ClosedLoop.begin_window`
and :meth:`ClosedLoop.end_window`, into a window tally as well (for the
reported metrics).  A request completes when its reply is verified, when
the reply fails verification, or when its deadline passes; a reply that
arrives after its deadline is counted as ``late`` and otherwise ignored,
since the request already counted as failed.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.gateway.data_plane import ERROR_HEADER
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler

from workloads import Request, reply_seq


@dataclass
class Tally:
    """Request outcomes over one span of time."""

    sent: int = 0
    #: verified replies that arrived before their deadline
    replies: int = 0
    #: requests whose deadline passed with no reply
    expired: int = 0
    #: replies that failed verification
    bad: int = 0
    #: replies that arrived after their request had expired
    late: int = 0
    #: error frames from the gateway (their requests expire)
    error_frames: int = 0
    #: replies naming no request this loop sent or expired
    unmatched: int = 0
    latencies: list[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Requests that count as failed: expired or bad."""
        return self.expired + self.bad

    @property
    def attempted(self) -> int:
        """Requests that completed one way or the other."""
        return self.replies + self.failed


def tail_percentile(
    latencies: list[float], failed: int, q: float, *, min_beyond: int = 10
) -> float:
    """Nearest-rank ``q`` quantile with failures ranked above every latency.

    Raises ``ValueError`` unless at least ``min_beyond`` samples lie
    beyond the rank, so a reported tail is never one or two outliers.
    Returns ``math.inf`` when the rank falls among the failures.
    """
    n = len(latencies) + failed
    rank = math.ceil(q * n)
    if n - rank < min_beyond:
        raise ValueError(
            f"{n} samples leave {n - rank} beyond the {q:.4g} quantile; "
            f"need at least {min_beyond}"
        )
    ordered = sorted(latencies)
    if rank > len(ordered):
        return math.inf
    return ordered[max(rank, 1) - 1]


def chunked_percentile(latencies: list[float], q: float, *, min_chunk: int,
                       chunks: int) -> float:
    """Median over consecutive chunks of the samples of each chunk's ``q`` quantile.

    Samples are in completion order; they are cut into at most ``chunks``
    equal runs of at least ``min_chunk`` samples (one run when there are
    fewer).  A stall of the host that spans a few chunks then moves only
    those chunks' quantiles, not the median over chunks.
    """
    n = len(latencies)
    count = max(1, min(chunks, n // min_chunk))
    cuts = [n * i // count for i in range(count + 1)]
    return statistics.median(
        tail_percentile(latencies[a:b], 0, q) for a, b in zip(cuts, cuts[1:])
    )


class _Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        #: seq -> send time, in send order (so expiry scans a prefix)
        self.outstanding: dict[int, float] = {}
        self.assembler = FrameAssembler()
        self.task: asyncio.Task | None = None


class ClosedLoop:
    """Drive connections with a fixed window; verify and time every reply."""

    def __init__(
        self,
        requests: list[Request],
        verify: Callable[[MimeMessage, MimeMessage], bool],
        *,
        window: int,
        deadline_s: float,
    ):
        if not requests:
            raise ValueError("the request pool is empty")
        self._requests = requests
        self._verify = verify
        self._window = window
        self._deadline = deadline_s
        self._clock = time.perf_counter
        self._conns: list[_Connection] = []
        self._expired_seqs: set[int] = set()
        self._next_seq = 0
        self._sending = True
        self._sweeper: asyncio.Task | None = None
        self.total = Tally()
        self._window_tally: Tally | None = None

    # -- tallying -----------------------------------------------------------------

    def _book(self, name: str, latency: float | None = None) -> None:
        for tally in (self.total, self._window_tally):
            if tally is None:
                continue
            setattr(tally, name, getattr(tally, name) + 1)
            if latency is not None:
                tally.latencies.append(latency)

    def begin_window(self) -> None:
        """Start booking outcomes into a fresh window tally."""
        self._window_tally = Tally()

    @property
    def window_replies(self) -> int:
        """Verified replies booked into the open window so far."""
        return self._window_tally.replies

    def end_window(self) -> Tally:
        """Stop the window tally and return it."""
        tally, self._window_tally = self._window_tally, None
        return tally

    # -- connections --------------------------------------------------------------

    async def connect(self, address: tuple[str, int], count: int) -> None:
        """Open ``count`` data connections and fill their windows."""
        for _ in range(count):
            reader, writer = await asyncio.open_connection(*address)
            conn = _Connection(reader, writer)
            self._conns.append(conn)
            conn.task = asyncio.get_running_loop().create_task(self._read(conn))
            self._fill(conn)
        if self._sweeper is None:
            self._sweeper = asyncio.get_running_loop().create_task(self._sweep())

    def _fill(self, conn: _Connection) -> None:
        requests = self._requests
        while self._sending and len(conn.outstanding) < self._window:
            seq = self._next_seq
            self._next_seq += 1
            conn.outstanding[seq] = self._clock()
            conn.writer.write(requests[seq % len(requests)].frame(seq))
            self._book("sent")

    async def _read(self, conn: _Connection) -> None:
        while True:
            chunk = await conn.reader.read(1 << 16)
            if not chunk:
                return
            now = self._clock()
            for reply in conn.assembler.feed(chunk):
                self._on_reply(conn, reply, now)
            self._fill(conn)

    def _on_reply(self, conn: _Connection, reply: MimeMessage, now: float) -> None:
        if reply.headers.get(ERROR_HEADER) is not None:
            self._book("error_frames")
            return
        seq = reply_seq(reply)
        sent_at = conn.outstanding.pop(seq, None) if seq is not None else None
        if sent_at is None:
            if seq in self._expired_seqs:
                self._expired_seqs.discard(seq)
                self._book("late")
            else:
                self._book("unmatched")
            return
        sent = self._requests[seq % len(self._requests)].message
        try:
            verified = self._verify(reply, sent)
        except Exception:  # a reply that breaks the verifier is a bad reply
            verified = False
        if verified:
            self._book("replies", now - sent_at)
        else:
            self._book("bad")

    def expire(self, now: float) -> None:
        """Fail every request older than the deadline and refill its slot."""
        for conn in self._conns:
            outstanding = conn.outstanding
            while outstanding:
                seq, sent_at = next(iter(outstanding.items()))
                if now - sent_at < self._deadline:
                    break
                del outstanding[seq]
                self._expired_seqs.add(seq)
                self._book("expired")
            self._fill(conn)

    async def _sweep(self) -> None:
        interval = min(0.01, self._deadline / 20)
        while True:
            await asyncio.sleep(interval)
            self.expire(self._clock())

    @property
    def outstanding(self) -> int:
        """Requests sent and not yet completed."""
        return sum(len(c.outstanding) for c in self._conns)

    async def halt(self) -> None:
        """Stop sending and wait until every outstanding request completed."""
        self._sending = False
        give_up = self._clock() + self._deadline + 1.0
        while self.outstanding and self._clock() < give_up:
            await asyncio.sleep(0.005)

    async def close(self) -> None:
        """Cancel the reader and sweeper tasks and close the connections."""
        tasks = [t for t in [self._sweeper] + [c.task for c in self._conns] if t]
        for task in tasks:
            task.cancel()
        for conn in self._conns:
            conn.writer.close()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, ConnectionError):
                pass
        for conn in self._conns:
            try:
                await conn.writer.wait_closed()
            except ConnectionError:
                pass


class LagMonitor:
    """How late the generator's event loop runs: oversleep of a short timer."""

    def __init__(self, interval_s: float = 0.005):
        self._interval = interval_s
        self.lags: list[float] = []
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        """Begin sampling on the running loop."""
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        clock = time.perf_counter
        while True:
            begin = clock()
            await asyncio.sleep(self._interval)
            self.lags.append(clock() - begin - self._interval)

    async def stop(self) -> list[float]:
        """Stop sampling; returns the lags seen."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        return self.lags
