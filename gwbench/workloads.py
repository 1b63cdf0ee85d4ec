"""The three traffic mixes: composition, seeded inputs, reply check, pacing.

Why each workload exists (the full story is in ``README.md``):

* ``echo_small`` — smallest frames, no streamlet work: the per-message
  cost of the gateway, MIME framing, runtime queues and telemetry.
* ``web_accel`` — the paper's §7.5 composition with replies: codecs
  dominate, gateway and framing costs are diluted.
* ``hops_splice`` — 16 redirectors (8 fusible, 8 not) under a
  reconfiguration every 250 ms that splices an encryptor into the
  default-channel half, with a durable ledger: per-hop stepping,
  transactional splices, fusion re-planning and ledger appends.
* ``hops_reconfig`` — the same chain with the encryptor spliced into the
  SYNC-coupled half, where reconfiguration loses messages (a known
  defect).  It is kept to show that defect and is not in
  ``BENCHMARK.json``: its failure count varies from run to run.

Every request is a pre-serialized frame from a seeded pool; the only
per-request change is a fixed-width sequence header, so the generator
spends almost nothing building requests.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.client.client import MobiGateClient
from repro.mime.message import MimeMessage
from repro.mime.wire import serialize_message
from repro.workloads.generators import WebWorkload

SEQ_HEADER = "X-Bench-Seq"
SEQ_WIDTH = 12
SESSION_KEY = "bench"
#: length of the request sequence; longer than any run's request count
#: on web_accel, so its frames never repeat in order within a run
SEQUENCE = 1 << 14
EVENT_INTERVAL_S = 0.25
WEB_POOL = 256
WEB_IMAGE_SHARE = 0.4
_SEQ_PLACEHOLDER = b"#" * SEQ_WIDTH

SYNC_CHANNEL = """channel benchSync{
  port{ in cin : */*; out cout : */*; }
  attribute{ type = SYNC; buffer = 0; }
}
"""


def redirector_chain(n: int) -> str:
    """``n`` redirectors on the compiler's default channels."""
    names = [f"r{i}" for i in range(n)]
    lines = [f"  streamlet {', '.join(names)} = new-streamlet (redirector);"]
    lines += [f"  connect ({a}.po, {b}.pi);" for a, b in zip(names, names[1:])]
    return "main stream echoSmall{\n" + "\n".join(lines) + "\n}"


def hops_mcl(sync_hops: int = 8, async_hops: int = 8, *, splice_sync: bool = True) -> str:
    """SYNC-coupled redirectors, then default-channel ones; the encryptor
    splices into the middle of the SYNC half (or of the default-channel
    half) and is removed again."""
    names = [f"r{i}" for i in range(sync_hops + async_hops)]
    chans = [f"s{i}" for i in range(sync_hops - 1)]
    mid = sync_hops // 2 if splice_sync else sync_hops + async_hops // 2
    lines = [
        f"  streamlet {', '.join(names)} = new-streamlet (redirector);",
        "  streamlet enc = new-streamlet (encryptor);",
        f"  channel {', '.join(chans)} = new-channel (benchSync);",
    ]
    for i, (a, b) in enumerate(zip(names, names[1:])):
        via = f", s{i}" if i < sync_hops - 1 else ""
        lines.append(f"  connect ({a}.po, {b}.pi{via});")
    lines += [
        "  when (LOW_BANDWIDTH){",
        f"    insert (r{mid - 1}.po, r{mid}.pi, enc);",
        "  }",
        "  when (HIGH_BANDWIDTH){",
        "    remove (enc);",
        "  }",
    ]
    return SYNC_CHANNEL + "main stream hopsReconfig{\n" + "\n".join(lines) + "\n}"


WEB_ACCEL_MCL = """main stream webAccelEcho{
  streamlet sw = new-streamlet (switch);
  streamlet g2j = new-streamlet (gif2jpeg);
  streamlet ds = new-streamlet (img_down_sample);
  streamlet tc = new-streamlet (text_compress);
  streamlet mg = new-streamlet (merge);
  connect (sw.po_img, g2j.pi);
  connect (g2j.po, ds.pi);
  connect (ds.po, mg.pi1);
  connect (sw.po_txt, tc.pi);
  connect (tc.po, mg.pi2);
}"""


@dataclass
class Request:
    """One pooled input: its frame halves around the sequence field."""

    message: MimeMessage
    prefix: bytes
    suffix: bytes

    def frame(self, seq: int) -> bytes:
        """The wire frame carrying sequence number ``seq``."""
        return self.prefix + b"%0*d" % (SEQ_WIDTH, seq) + self.suffix


def pooled(message: MimeMessage) -> Request:
    """Serialize once with a placeholder sequence header and split there."""
    message.headers.session = SESSION_KEY
    message.headers.set(SEQ_HEADER, _SEQ_PLACEHOLDER.decode("ascii"))
    frame = serialize_message(message)
    prefix, sep, suffix = frame.partition(_SEQ_PLACEHOLDER)
    if not sep:
        raise ValueError("sequence placeholder missing from the serialized frame")
    return Request(message, prefix, suffix)


def reply_seq(reply: MimeMessage) -> int | None:
    """The sequence number a reply carries, or None when it has none."""
    raw = reply.headers.get(SEQ_HEADER)
    if raw is None or len(raw) != SEQ_WIDTH or not raw.isdigit():
        return None
    return int(raw)


def verify_echo(reply: MimeMessage, sent: MimeMessage) -> bool:
    """Byte-exact body and unchanged media type."""
    return reply.body == sent.body and str(reply.content_type) == str(sent.content_type)


def _client_verifier(check: Callable[[MimeMessage, MimeMessage], bool]):
    """Reverse-process through a MobiGateClient, then apply ``check``."""
    client = MobiGateClient()

    def verify(reply: MimeMessage, sent: MimeMessage) -> bool:
        delivered = client.receive(reply)
        client.delivered.clear()
        return len(delivered) == 1 and check(delivered[0], sent)

    return verify


def _web_check(result: MimeMessage, sent: MimeMessage) -> bool:
    if sent.content_type.maintype == "image":
        return str(result.content_type) == "image/jpeg" and bool(result.body)
    return result.body == sent.body


@dataclass
class Workload:
    """Everything the load needs to run one traffic mix."""

    name: str
    mcl: str
    #: outstanding frames per data connection (closed loop)
    window: int
    #: a reply later than this counts as failed; far above the p99
    deadline_s: float
    make_messages: Callable[[int], list[MimeMessage]]
    make_verifier: Callable[[], Callable[[MimeMessage, MimeMessage], bool]]
    #: extra ``python -m repro.gateway`` arguments; ``{tmp}`` is replaced
    gateway_args: tuple[str, ...] = ()
    #: events raised alternately, every EVENT_INTERVAL_S, while traffic flows
    events: tuple[str, ...] = ()

    def requests(self, seed: int) -> list[Request]:
        """The seeded request sequence (same seed, same frames, same order).

        Request ``n`` is entry ``n % SEQUENCE`` of a seeded random draw
        from the pool, so a run never replays one fixed cycle of frames;
        a cycle would repeat the same coincidences of large frames and
        make the latency tail depend on the seed.
        """
        pool = [pooled(m) for m in self.make_messages(seed)]
        draw = np.random.default_rng(seed).integers(0, len(pool), SEQUENCE)
        return [pool[i] for i in draw]


def _octet_messages(pool: int, size: int) -> Callable[[int], list[MimeMessage]]:
    def make(seed: int) -> list[MimeMessage]:
        rng = np.random.default_rng(seed)
        return [
            MimeMessage("application/octet-stream", rng.bytes(size))
            for _ in range(pool)
        ]

    return make


def _web_messages(seed: int) -> list[MimeMessage]:
    """A pool with exactly ``WEB_IMAGE_SHARE`` images, in generation order.

    The seed picks the frames and their order but not the mix: a binomial
    mix moved the image share between 35% and 46% from seed to seed, and
    the median latency with it.
    """
    quota = {"image": round(WEB_POOL * WEB_IMAGE_SHARE)}
    quota["text"] = WEB_POOL - quota["image"]
    chosen = []
    workload = WebWorkload(seed=seed, image_fraction=WEB_IMAGE_SHARE)
    for message in workload.messages(4 * WEB_POOL):
        kind = message.content_type.maintype
        if quota[kind]:
            quota[kind] -= 1
            chosen.append(message)
            if len(chosen) == WEB_POOL:
                break
    return chosen


WORKLOADS: dict[str, Workload] = {
    "echo_small": Workload(
        name="echo_small",
        mcl=redirector_chain(2),
        window=8,
        deadline_s=1.0,
        make_messages=_octet_messages(64, 256),
        make_verifier=lambda: verify_echo,
    ),
    "web_accel": Workload(
        name="web_accel",
        mcl=WEB_ACCEL_MCL,
        window=4,
        deadline_s=5.0,
        make_messages=_web_messages,
        make_verifier=lambda: _client_verifier(_web_check),
    ),
    "hops_splice": Workload(
        name="hops_splice",
        mcl=hops_mcl(splice_sync=False),
        window=8,
        deadline_s=1.0,
        make_messages=_octet_messages(64, 256),
        make_verifier=lambda: _client_verifier(verify_echo),
        gateway_args=("--store", "{tmp}/ledger.wal", "--backend", "file"),
        events=("LOW_BANDWIDTH", "HIGH_BANDWIDTH"),
    ),
    "hops_reconfig": Workload(
        name="hops_reconfig",
        mcl=hops_mcl(),
        window=8,
        deadline_s=0.25,
        make_messages=_octet_messages(64, 256),
        make_verifier=lambda: _client_verifier(verify_echo),
        gateway_args=("--store", "{tmp}/ledger.wal", "--backend", "file"),
        events=("LOW_BANDWIDTH", "HIGH_BANDWIDTH"),
    ),
}
