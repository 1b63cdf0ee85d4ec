"""Tests of the benchmark's own code: ``python3 -m pytest gwbench -q``.

They cover the parts whose mistakes would silently skew a figure: the
tail-percentile rule, deadline and late-reply booking, reply
verification, where the hops workloads splice, ledger reconciliation,
the setting aside of slices the hypervisor stole, and the tracer's
self-time arithmetic.  No gateway process is started; the load runs against a
small in-process echo server whose misbehaviour is scripted per
sequence number.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.mime.wire import FrameAssembler, serialize_message  # noqa: E402

from load import ClosedLoop, Tally, chunked_percentile, tail_percentile  # noqa: E402
from run import Phase, reconcile  # noqa: E402
from tracer import CallTracer  # noqa: E402
from workloads import WORKLOADS, reply_seq, verify_echo  # noqa: E402


# -- the percentile rule ----------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    values = [i / 1000 for i in range(1000)]
    assert tail_percentile(values, 0, 0.99) == values[989]
    with pytest.raises(ValueError, match="need at least 10"):
        tail_percentile(values[:999], 0, 0.99)


def test_failures_rank_above_every_latency():
    latencies = [0.001] * 990
    # 10 failures sit beyond the rank: the p99 is still a latency
    assert tail_percentile(latencies, 10, 0.99) == 0.001
    # 11 failures reach the rank: the p99 is above every limit
    assert math.isinf(tail_percentile(latencies[:989], 11, 0.99))


def test_chunked_p99_ignores_a_stall_confined_to_one_chunk():
    steady = [0.001 + i * 1e-7 for i in range(1000)]
    stalled = [0.050] * 1000
    # three chunks of 1000; only the middle one saw the stall
    latencies = steady + stalled + steady
    assert chunked_percentile(latencies, 0.99, min_chunk=1000, chunks=10) == steady[989]
    # fewer samples than one chunk: the rule still needs ten beyond
    with pytest.raises(ValueError):
        chunked_percentile(steady[:500], 0.99, min_chunk=1000, chunks=10)


def test_median_counts_failures():
    assert tail_percentile([1.0, 2.0, 3.0] * 10, 0, 0.5, min_beyond=1) == 2.0
    assert math.isinf(tail_percentile([1.0] * 10, 11, 0.5, min_beyond=1))


# -- the closed loop against a scripted echo server -------------------------------


async def _scripted_echo(drop=(), delay=None, corrupt=()):
    """An echo server that drops, delays or corrupts chosen sequence numbers."""
    delay = delay or {}
    tasks = set()

    async def reply_later(writer, frame, seconds):
        await asyncio.sleep(seconds)
        writer.write(frame)

    async def serve(reader, writer):
        assembler = FrameAssembler()
        while chunk := await reader.read(1 << 16):
            for message in assembler.feed(chunk):
                seq = reply_seq(message)
                if seq in drop:
                    continue
                if seq in corrupt:
                    message.set_body(bytes([message.body[0] ^ 0xFF]) + message.body[1:])
                frame = serialize_message(message)
                if seq in delay:
                    task = asyncio.get_running_loop().create_task(
                        reply_later(writer, frame, delay[seq]))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                else:
                    writer.write(frame)
        writer.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[:2]


def _drive(seconds=0.6, deadline=0.15, **script) -> Tally:
    requests = WORKLOADS["echo_small"].requests(seed=7)

    async def main():
        server, address = await _scripted_echo(**script)
        async with server:
            loop = ClosedLoop(requests, verify_echo, window=2, deadline_s=deadline)
            await loop.connect(address, 1)
            await asyncio.sleep(seconds)
            await loop.halt()
            await asyncio.sleep(0.3)  # let a delayed reply arrive late
            await loop.close()
            return loop.total

    return asyncio.run(main())


def test_reply_that_never_arrives_fails_at_its_deadline():
    total = _drive(drop={3})
    assert total.expired == 1
    assert total.late == 0 and total.bad == 0
    assert total.failed == 1
    assert total.replies == total.sent - 1
    assert total.attempted == total.sent


def test_late_reply_counts_as_failed_not_as_reply():
    total = _drive(delay={4: 0.3})
    assert total.expired == 1
    assert total.late == 1
    assert total.replies == total.sent - 1
    assert max(total.latencies) < 0.15


def test_corrupted_reply_fails_verification():
    total = _drive(corrupt={5})
    assert total.bad == 1
    assert total.expired == 0
    assert total.replies == total.sent - 1


# -- where the hops workloads splice ------------------------------------------------


def _splice_hop(mcl: str) -> str:
    """The connect line of the hop the encryptor is inserted into."""
    insert = next(line for line in mcl.splitlines() if "insert (" in line)
    source, target = insert.split("(")[1].split(",")[:2]
    return next(line for line in mcl.splitlines()
                if f"connect ({source.strip()}, {target.strip()}" in line)


def test_hops_reconfig_splices_into_the_sync_half():
    assert _splice_hop(WORKLOADS["hops_reconfig"].mcl).endswith(", s3);")


def test_hops_splice_splices_into_the_default_channel_half():
    assert _splice_hop(WORKLOADS["hops_splice"].mcl) == "  connect (r11.po, r12.pi);"


def test_benchmark_lists_only_known_workloads():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(WORKLOADS)


# -- reconciliation against the gateway's ledger -----------------------------------


def _phase(total: Tally, *, queue_drops=0, balanced=True, residual=0) -> Phase:
    return Phase(total=total, stats={
        "conservation": {"balanced": balanced, "admitted": total.sent + 1,
                         "residual": residual, "ledger": "..."},
        "stream_stats": {"queue_drops": queue_drops, "open_circuit_drops": 0,
                         "failure_drops": 0},
    })


def test_reconcile_accepts_drops_matching_unanswered_requests():
    total = Tally(sent=100, replies=97, expired=3, late=1)
    assert reconcile(_phase(total, queue_drops=2)) == []


def test_reconcile_flags_a_bad_reply_and_an_unbalanced_ledger():
    total = Tally(sent=100, replies=99, bad=1)
    problems = reconcile(_phase(total, balanced=False))
    assert any("failed verification" in p for p in problems)
    assert any("unbalanced" in p for p in problems)


def test_reconcile_flags_losses_the_ledger_does_not_show():
    total = Tally(sent=100, replies=95, expired=5)
    problems = reconcile(_phase(total, queue_drops=2))
    assert any("never got a reply" in p for p in problems)


# -- slices the hypervisor stole ---------------------------------------------------


def test_stolen_slices_are_left_out_of_the_figures():
    # (seconds, gateway CPU seconds, verified replies, stolen)
    clean = [(1.0, 0.2, 1000, False)] * 3
    phase = Phase(slices=clean + [(1.0, 0.9, 100, True)] * 4)
    assert phase.stolen_slices == 4
    assert phase.cpu_us_per_msg == pytest.approx(200.0)
    assert phase.throughput == pytest.approx(1000.0)


def test_a_window_stolen_throughout_still_reports_every_slice():
    phase = Phase(slices=[(1.0, 0.3, 1000, True), (1.0, 0.5, 1000, True),
                          (1.0, 0.4, 1000, True)])
    assert phase.cpu_us_per_msg == pytest.approx(400.0)


# -- the tracer's self-time arithmetic ---------------------------------------------


class _StepClock:
    """A clock that returns scripted instants, one per read."""

    def __init__(self, instants):
        self._instants = iter(instants)

    def __call__(self) -> float:
        return next(self._instants)


def test_self_time_subtracts_wrapped_children():
    # outer [0, 10] contains inner [2, 5] and inner [6, 7]
    tracer = CallTracer(clock=_StepClock([0.0, 2.0, 5.0, 6.0, 7.0, 10.0]))
    inner = tracer.wrap("inner", lambda: [1, 2], units=len)

    def outer_body():
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    records = tracer.snapshot()
    assert records["outer"]["calls"] == 1
    assert records["outer"]["total_s"] == 10.0
    assert records["outer"]["self_s"] == 6.0
    assert records["inner"]["calls"] == 2
    assert records["inner"]["total_s"] == 4.0
    assert records["inner"]["self_s"] == 4.0
    assert records["inner"]["units"] == 4
    assert records["inner"]["hits"] == 2


def test_threads_keep_separate_parent_stacks():
    tracer = CallTracer()
    started, release = threading.Event(), threading.Event()

    def blocker():
        started.set()
        release.wait(5)

    wrapped_blocker = tracer.wrap("blocker", blocker)
    thread = threading.Thread(target=wrapped_blocker)
    thread.start()
    assert started.wait(5)
    # a call on this thread while the other is inside a wrapped call is
    # not that call's child
    tracer.wrap("quick", lambda: None)()
    release.set()
    thread.join(5)
    assert not thread.is_alive()
    records = tracer.snapshot()
    assert records["blocker"]["self_s"] == records["blocker"]["total_s"]
    assert records["quick"]["calls"] == 1


def test_exceptions_are_still_timed():
    tracer = CallTracer(clock=_StepClock([0.0, 3.0]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.snapshot()["boom"]["total_s"] == 3.0
