"""Gateway benchmark: one workload, one seed, one timed window.

Run from the repository root::

    python3 gwbench/run.py --workload echo_small --seed 1 --seconds 20 --trace 0

The gateway runs as its own OS process (``python -m repro.gateway`` from
``src/``); this process is the load: one asyncio loop, two data
connections and one control connection, closed-loop with a fixed window
per connection.  With ``--trace 0`` the run boots the gateway several
times (``setup_s`` is the median boot), then measures the end-to-end
metrics over the window.  With ``--trace 1`` it measures an untraced
window and then a window against the traced launcher (``launch.py``),
and reports the per-layer metrics plus the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
run exits non-zero when any reply fails verification or the session's
ledger does not reconcile with the failures the load saw.  See
``README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: measured boots per --trace 0 run, after one unmeasured boot that
#: fills the run's bytecode cache; setup_s is their median
SETUP_BOOTS = 5
DATA_CONNECTIONS = 2
WARMUP_S = 1.0
#: how long the gateway may take to account for every request after the
#: load stops (delivered, dropped or still resident)
SETTLE_S = 3.0
#: a generator busier than this share of one CPU may limit the load
GENERATOR_CPU_LIMIT = 0.8
#: the timed window is cut into this many slices; throughput and CPU per
#: message are the medians over slices, so a burst of host contention
#: moves one slice rather than the whole figure
SLICES = 10
#: a slice in which the hypervisor took more than this share of the
#: machine's CPU is set aside and the window grows by one slice instead
STEAL_LIMIT = 0.05
#: the window grows to at most this many slices, which bounds a run's time
MAX_SLICES = 15
#: replies a window must hold so that ten lie beyond its p99
MIN_REPLIES = 1000


def _host_steal_s() -> float:
    """Seconds of CPU the hypervisor took from the machine, all CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


@dataclass
class Phase:
    """Everything one gateway process yielded under load."""

    setups: list[float] = field(default_factory=list)
    boot_s: float = 0.0
    wall_s: float = 0.0
    #: (seconds, gateway CPU seconds, verified replies, stolen) per window
    #: slice; stolen: the hypervisor took more than STEAL_LIMIT of the CPU
    slices: list[tuple[float, float, int, bool]] = field(default_factory=list)
    rss_mb: float = 0.0
    generator_cpu_share: float = 0.0
    host_steal_share: float = 0.0
    lags: list[float] = field(default_factory=list)
    #: request outcomes in the timed window, and over the whole load
    window: Any = None
    total: Any = None
    stats: dict = field(default_factory=dict)
    introspect_before: dict = field(default_factory=dict)
    introspect_after: dict = field(default_factory=dict)
    reconfig_rtts: list[float] = field(default_factory=list)
    events_raised: int = 0
    events_refused: int = 0
    epoch_before: int = 0
    epoch_after: int = 0
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def stolen_slices(self) -> int:
        """Window slices set aside because the hypervisor stole CPU."""
        return sum(stolen for *_, stolen in self.slices)

    def _measured(self) -> list[tuple[float, float, int, bool]]:
        """The slices the figures come from: the clean ones, if any."""
        return [s for s in self.slices if not s[3]] or self.slices

    @property
    def throughput(self) -> float:
        """Median over measured slices of verified replies per second."""
        return statistics.median(n / dt for dt, _cpu, n, _s in self._measured())

    @property
    def cpu_us_per_msg(self) -> float:
        """Median over measured slices of gateway CPU per verified reply."""
        return statistics.median(cpu / n * 1e6 for _dt, cpu, n, _s in self._measured() if n)


async def _first_reply(address, request, verify, timeout: float = 30.0) -> None:
    """One request on a fresh connection; raises unless its reply verifies."""
    from repro.mime.wire import FrameAssembler

    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(request.frame(0))
        assembler = FrameAssembler()
        replies = []
        while not replies:
            chunk = await asyncio.wait_for(reader.read(1 << 16), timeout)
            if not chunk:
                raise ConnectionError("gateway closed the setup connection")
            replies = assembler.feed(chunk)
        if not verify(replies[0], request.message):
            raise RuntimeError("the setup reply failed verification")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _raise_events(control, workload, clock_open, phase: Phase, stop) -> None:
    """Raise the workload's events alternately on a fixed cadence."""
    from workloads import EVENT_INTERVAL_S, SESSION_KEY

    due = time.perf_counter()
    index = 0
    while not stop.is_set():
        event = workload.events[index % len(workload.events)]
        begin = time.perf_counter()
        try:
            await control.call({"op": "reconfigure", "event": event, "session": SESSION_KEY})
        except RuntimeError:  # the gateway refused; commit_ratio shows it
            phase.events_refused += 1
        if clock_open():
            phase.reconfig_rtts.append(time.perf_counter() - begin)
        phase.events_raised += 1
        index += 1
        due += EVENT_INTERVAL_S
        try:
            await asyncio.wait_for(stop.wait(), max(0.0, due - time.perf_counter()))
        except asyncio.TimeoutError:
            pass


async def _settle(control, phase_total, deadline: float) -> dict:
    """Poll ``stats`` until the gateway has accounted for every request."""
    from workloads import SESSION_KEY

    while True:
        stats = await control.call({"op": "stats", "session": SESSION_KEY})
        ledger = stats["conservation"]
        received = phase_total.replies + phase_total.late + phase_total.bad + 1
        if (ledger["residual"] == 0 and ledger["delivered"] <= received) or (
            time.perf_counter() > deadline
        ):
            return stats
        await asyncio.sleep(0.05)


async def measure(workload, requests, seconds: float, *, traced: bool, boots: int,
                  tmp: Path, min_replies: int = 0) -> Phase:
    """Boot the gateway ``boots`` times, then load the last boot for ``seconds``."""
    from load import ClosedLoop, LagMonitor
    from proc import Control, GatewayProcess
    from workloads import SESSION_KEY

    phase = Phase()
    # bytecode lives in a cache of this phase's own, never under src/: the
    # first boot fills it and is not measured, so every measured boot
    # starts from the same cache whatever the checkout or an earlier run left
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(tmp / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    trace_path = tmp / "trace.json"
    gateway = control = None
    try:
        for boot in range(boots + 1):
            boot_dir = tmp / f"boot{boot}"
            boot_dir.mkdir(parents=True)
            args = [a.replace("{tmp}", str(boot_dir)) for a in workload.gateway_args]
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "launch.py"), str(trace_path), *args]
            else:
                argv = [sys.executable, "-m", "repro.gateway", *args]
            gateway = GatewayProcess(argv, env)
            launched = await gateway.start()
            control = Control()
            await control.open(gateway.control_address)
            await control.call({"op": "deploy", "mcl": workload.mcl, "session": SESSION_KEY})
            await _first_reply(gateway.data_address, requests[0], workload.make_verifier())
            if boot:
                phase.setups.append(time.perf_counter() - launched)
                phase.boot_s = gateway.boot_s
            if boot < boots:
                await control.close()
                await gateway.stop()

        phase.introspect_before = await control.call({"op": "introspect"})
        phase.epoch_before = phase.introspect_before["sessions"][SESSION_KEY]["epoch"]
        loop = ClosedLoop(
            requests, workload.make_verifier(),
            window=workload.window, deadline_s=workload.deadline_s,
        )
        await loop.connect(gateway.data_address, DATA_CONNECTIONS)
        window_open = False
        stop_events = asyncio.Event()
        events_task = None
        if workload.events:
            events_task = asyncio.get_running_loop().create_task(
                _raise_events(control, workload, lambda: window_open, phase, stop_events)
            )
        await asyncio.sleep(WARMUP_S)

        lag = LagMonitor()
        lag.start()
        loop.begin_window()
        window_open = True
        gen0, wall0 = time.process_time(), time.perf_counter()
        steal_begin = steal0 = _host_steal_s()
        t0, cpu0, replies0 = time.perf_counter(), gateway.cpu_seconds(), 0
        # the window grows slice by slice, up to MAX_SLICES, while stolen
        # slices leave fewer than SLICES clean ones, or while a slow host
        # has given too few replies for a supported p99
        while len(phase.slices) < MAX_SLICES and (
            len(phase.slices) - phase.stolen_slices < SLICES
            or loop.window_replies < min_replies
        ):
            await asyncio.sleep(seconds / SLICES)
            t1, cpu1, replies1 = time.perf_counter(), gateway.cpu_seconds(), loop.window_replies
            steal1 = _host_steal_s()
            stolen = (steal1 - steal0) / (t1 - t0) / os.cpu_count() > STEAL_LIMIT
            phase.slices.append((t1 - t0, cpu1 - cpu0, replies1 - replies0, stolen))
            t0, cpu0, replies0, steal0 = t1, cpu1, replies1, steal1
        window_open = False
        phase.window = loop.end_window()
        phase.lags = await lag.stop()
        phase.wall_s = time.perf_counter() - wall0
        phase.generator_cpu_share = (time.process_time() - gen0) / phase.wall_s
        phase.host_steal_share = (_host_steal_s() - steal_begin) / phase.wall_s / os.cpu_count()

        if events_task is not None:
            stop_events.set()
            await events_task
        await loop.halt()
        phase.stats = await _settle(control, loop.total, time.perf_counter() + SETTLE_S)
        await loop.close()
        phase.total = loop.total
        phase.introspect_after = await control.call({"op": "introspect"})
        phase.epoch_after = phase.introspect_after["sessions"][SESSION_KEY]["epoch"]
        phase.rss_mb = gateway.peak_rss_mb()
    finally:
        if control is not None:
            await control.close()
        if gateway is not None:
            await gateway.stop()
    if traced:
        phase.trace = json.loads(trace_path.read_text())
    phase.problems = reconcile(phase)
    return phase


def reconcile(phase: Phase) -> list[str]:
    """Check every reply and the session ledger against what the load saw.

    Every request the gateway dropped is one the load saw expire without
    a reply, and every request that expired without a reply is one the
    gateway dropped.  ``shed`` is not added: a shed is booked through the
    stream's drop path, so it is already inside ``queue_drops``.
    """
    problems = []
    total, stats = phase.total, phase.stats
    ledger = stats["conservation"]
    stream = stats["stream_stats"]
    if total.bad:
        problems.append(f"{total.bad} replies failed verification")
    if total.unmatched:
        problems.append(f"{total.unmatched} replies matched no request")
    if total.error_frames:
        problems.append(f"{total.error_frames} error frames")
    if not ledger["balanced"]:
        problems.append(f"conservation ledger unbalanced: {ledger['ledger']}")
    drops = stream["queue_drops"] + stream["open_circuit_drops"] + stream["failure_drops"]
    never_replied = total.expired - total.late
    if never_replied != drops:
        problems.append(
            f"{never_replied} requests never got a reply but the gateway "
            f"booked {drops} drops (queue {stream['queue_drops']}, open circuit "
            f"{stream['open_circuit_drops']}, failure {stream['failure_drops']})"
        )
    # +1: the setup request on the measured boot
    if ledger["admitted"] != total.sent + 1:
        problems.append(f"gateway admitted {ledger['admitted']} of {total.sent + 1} sent")
    if ledger["residual"]:
        problems.append(f"{ledger['residual']} messages still resident after the load")
    return problems


def end_to_end(workload, phase: Phase) -> dict:
    """The end-to-end metrics of one untraced phase."""
    from load import chunked_percentile, tail_percentile

    window = phase.window

    def ms(percentile, *args):
        # too few replies for ten beyond the p99: reported missing, not guessed
        try:
            return percentile(*args) * 1e3
        except ValueError:
            return None

    def chunked(latencies, q):
        return chunked_percentile(latencies, q, min_chunk=MIN_REPLIES, chunks=SLICES)

    metrics = {
        "setup_s": (statistics.median(phase.setups), "s"),
        "throughput_msg_s": (phase.throughput, "msg/s"),
        "latency_p50_ms": (ms(chunked, window.latencies, 0.50), "ms"),
        "latency_p99_ms": (ms(chunked, window.latencies, 0.99), "ms"),
        # failures ranked above every latency: inf once more than 1% failed
        "latency_p99_with_failed_ms": (
            ms(tail_percentile, window.latencies, window.failed, 0.99), "ms"),
        "cpu_us_per_msg": (phase.cpu_us_per_msg, "us"),
        "error_rate": (window.failed / window.attempted, "ratio"),
        "peak_rss_mb": (phase.rss_mb, "MB"),
    }
    if workload.events:
        metrics["reconfig_p50_ms"] = (statistics.median(phase.reconfig_rtts) * 1e3, "ms")
    return metrics


def _per_call(record: dict | None, scale: float, per: str = "calls") -> float | None:
    if not record or not record[per]:
        return None
    return record["total_s"] / record[per] * scale


def per_layer(untraced: Phase, traced: Phase) -> dict:
    """The per-layer metrics of one traced phase (None marks a missing layer)."""
    from launch import TARGETS
    from workloads import SESSION_KEY

    records = traced.trace["records"]
    rec = records.get
    stream = traced.stats["stream_stats"]
    delivered = stream["messages_out"]
    after = traced.introspect_after["sessions"][SESSION_KEY]
    before = traced.introspect_before["sessions"][SESSION_KEY]
    posts = [r for r in (rec("runtime.try_post"), rec("runtime.post")) if r]
    offer = rec("gateway.offer")
    collect = rec("gateway.collect")
    observe = rec("telemetry.observe")
    store_append = rec("store.append")
    streamlet_self_s = sum(
        r["self_s"] for name, r in records.items() if name.startswith("streamlets.")
    )
    metrics = {
        "gateway.offer_us": (_per_call(offer, 1e6), "us"),
        "gateway.offer_full_ratio": (offer["units"] / offer["calls"] if offer else None, "ratio"),
        "gateway.collect_batch": (
            collect["units"] / collect["hits"] if collect and collect["hits"] else None, "msg"),
        "gateway.parked": (traced.stats["parked"], "count"),
        "gateway.shed": (traced.stats["shed"], "count"),
        "gateway.boot_s": (untraced.boot_s, "s"),
        "mime.feed_us_per_frame": (_per_call(rec("mime.feed"), 1e6, "units"), "us"),
        "mime.serialize_us": (_per_call(rec("mime.serialize"), 1e6), "us"),
        "runtime.post_us": (
            sum(r["total_s"] for r in posts) / sum(r["calls"] for r in posts) * 1e6
            if posts else None, "us"),
        "runtime.fetch_wait_us": (_per_call(rec("runtime.fetch"), 1e6), "us"),
        "runtime.posts_per_msg": (
            sum(r["units"] for r in posts) / delivered if posts else None, "posts/msg"),
        "runtime.queue_drops": (stream["queue_drops"], "count"),
        "runtime.depth_max": (max(q["watermark"] for q in after["queues"]), "msg"),
        "runtime.worker_util_max": (
            max((w.get("utilization", 0.0) for w in after.get("workers", {}).values()),
                default=None), "ratio"),
        "runtime.snapshot_rebuilds": (
            after["snapshot_version"] - before["snapshot_version"], "count"),
        "runtime.deploy_ms": (_per_call(rec("runtime.deploy"), 1e3), "ms"),
        "runtime.commit_ms": (_per_call(rec("runtime.commit"), 1e3), "ms"),
        "runtime.commit_ratio": (
            (traced.epoch_after - traced.epoch_before) / traced.events_raised
            if traced.events_raised else None, "ratio"),
        "mcl.compile_ms": (_per_call(rec("mcl.compile"), 1e3), "ms"),
        "streamlets.us_per_msg": (
            streamlet_self_s / delivered * 1e6, "us"),
        "store.appends_per_msg": (
            store_append["calls"] / delivered if store_append else 0, "appends/msg"),
        "store.append_us": (_per_call(store_append, 1e6), "us"),
        "store.flush_us": (_per_call(rec("store.flush"), 1e6), "us"),
        "telemetry.observes_per_msg": (
            observe["calls"] / delivered if observe else None, "observes/msg"),
        "telemetry.observe_us": (_per_call(observe, 1e6), "us"),
        "trace.overhead_ratio": (1.0 - traced.throughput / untraced.throughput, "ratio"),
        "generator.cpu_share": (untraced.generator_cpu_share, "ratio"),
        "generator.lag_p99_ms": (_lag_p99_ms(untraced.lags), "ms"),
        "load.lost": (untraced.window.expired - untraced.window.late, "count"),
        "load.late": (untraced.window.late, "count"),
    }
    wrapped = sorted({name for name, *_ in TARGETS if name.startswith("streamlets.")})
    for name in wrapped:
        metrics[f"{name}.us_per_call"] = (_per_call(rec(name), 1e6), "us")
    return metrics


def _lag_p99_ms(lags: list[float]) -> float:
    return statistics.quantiles(lags, n=100)[98] * 1e3 if len(lags) > 1 else 0.0


def _load_report(phase: Phase, latency_p50_ms: float) -> list[str]:
    """How busy each side was; flags a window the generator may have limited:
    one where it was nearly saturated itself, or where its loop ran later,
    at p99, than the typical reply took."""
    gateway_share = sum(c for _dt, c, _n, _s in phase.slices) / phase.wall_s
    lag_p99 = _lag_p99_ms(phase.lags)
    lines = [
        f"# load: gateway_cpu_share={gateway_share:.3f} "
        f"generator_cpu_share={phase.generator_cpu_share:.3f} "
        f"generator_lag_p99_ms={lag_p99:.2f} host_steal_share={phase.host_steal_share:.3f} "
        f"window_s={phase.wall_s:.1f} stolen_slices={phase.stolen_slices}/{len(phase.slices)}"
    ]
    window = phase.window
    # failed = lost (no reply at all) + late (reply after the deadline) + bad
    lines.append(
        f"# outcomes: attempted={window.attempted} failed={window.failed} "
        f"lost={window.expired - window.late} late={window.late} bad={window.bad}"
    )
    if phase.events_raised:
        lines.append(
            f"# events: raised={phase.events_raised} refused={phase.events_refused} "
            f"epoch_advances={phase.epoch_after - phase.epoch_before}"
        )
    if phase.generator_cpu_share > GENERATOR_CPU_LIMIT:
        lines.append(f"# WARNING generator-limited: CPU share {phase.generator_cpu_share:.2f}")
    if lag_p99 > latency_p50_ms:
        lines.append(f"# WARNING generator-limited: loop lag p99 {lag_p99:.1f} ms")
    if phase.stolen_slices == len(phase.slices):
        lines.append("# WARNING host-limited: the hypervisor stole CPU in every slice")
    return lines


async def run(workload, seed: int, seconds: float, trace: bool, tmp: Path) -> int:
    requests = workload.requests(seed)
    print(f"# gwbench {workload.name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"cpu_count={os.cpu_count()} python={sys.version.split()[0]}")
    if not trace:
        phase = await measure(workload, requests, seconds, traced=False,
                              boots=SETUP_BOOTS, tmp=tmp / "run", min_replies=MIN_REPLIES)
        phases = [phase]
        metrics = end_to_end(workload, phase)
        published = {k: v for k, v in metrics.items() if k in _published("end_to_end")}
    else:
        # two half windows, so a traced run costs what an untraced one does
        untraced = await measure(workload, requests, seconds / 2, traced=False, boots=1,
                                 tmp=tmp / "untraced")
        traced = await measure(workload, requests, seconds / 2, traced=True, boots=1,
                               tmp=tmp / "traced")
        phases = [untraced, traced]
        metrics = per_layer(untraced, traced)
        missing = sorted(k for k, (v, _u) in metrics.items() if v is None)
        unhooked = traced.trace["unhooked"]
        print(f"# layers missing (no calls seen): {', '.join(missing) or 'none'}")
        print(f"# wrappers unhooked: {', '.join(unhooked) or 'none'}")
        phase = untraced
        published = {
            k: v for k, v in metrics.items()
            if k in _published("per_layer") and v[0] is not None
        }
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{workload.name} {name} = {shown} {unit}")
    p50_ms = statistics.median(phase.window.latencies) * 1e3
    for line in _load_report(phase, p50_ms):
        print(line)
    problems = [p for ph in phases for p in ph.problems]
    for problem in problems:
        print(f"# FAIL {problem}")
    window = phase.window
    print(json.dumps({
        "correct": not problems,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in published.items()},
    }))
    return 1 if problems else 0


def _published(kind: str) -> set[str]:
    """The metric names BENCHMARK.json lists under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the load imports repro from src/ too; it must not leave bytecode there
    sys.dont_write_bytecode = True
    if not (SRC / "repro" / "gateway" / "__main__.py").is_file():
        print(f"gwbench: no gateway sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"gwbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    tmp = ROOT / ".gwbench_tmp" / f"{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        return asyncio.run(run(workload, args.seed, args.seconds, bool(args.trace), tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
