"""Traced gateway launcher: ``python gwbench/launch.py TRACE_OUT [gateway args]``.

Wraps the public callables of every layer the benchmark attributes
(see ``TARGETS``) with :class:`tracer.CallTracer`, then hands off to
``repro.gateway.__main__.main`` exactly as ``python -m repro.gateway``
would.  When the gateway exits (``SIGTERM`` drains it), the merged call
records are written to ``TRACE_OUT`` as JSON, together with the names
whose owner or attribute could not be found (``unhooked``), so a layer
the wrappers cannot see is reported as missing rather than as zero.

The program itself is unchanged: the wrappers sit at class or module
level and time each call from outside.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

from tracer import CallTracer


def _full_or_retry(ticket) -> int:
    return 1 if ticket.status in ("full", "retry") else 0


def _accepted(outcome) -> int:
    return 1 if outcome is True else 0


def _count(items) -> int:
    return len(items)


#: (trace name, module, owner — a class name or None for the module
#: itself, attribute, units-from-result function)
TARGETS = [
    ("gateway.offer", "repro.gateway.session", "GatewaySession", "offer", _full_or_retry),
    ("gateway.collect", "repro.runtime.stream", "RuntimeStream", "collect", _count),
    ("mime.feed", "repro.mime.wire", "FrameAssembler", "feed", _count),
    ("mime.serialize", "repro.mime.wire", None, "serialize_message", None),
    # both gateway modules bind serialize_message at import time
    ("mime.serialize", "repro.gateway.data_plane", None, "serialize_message", None),
    ("mime.serialize", "repro.gateway.session", None, "serialize_message", None),
    ("runtime.try_post", "repro.runtime.message_queue", "MessageQueue", "try_post", _accepted),
    ("runtime.post", "repro.runtime.message_queue", "MessageQueue", "post_message", _accepted),
    ("runtime.fetch", "repro.runtime.message_queue", "MessageQueue", "fetch_message", None),
    ("runtime.commit", "repro.runtime.reconfig", "ReconfigTransaction", "commit", None),
    ("runtime.deploy", "repro.runtime.server", "MobiGateServer", "deploy_table", None),
    ("mcl.compile", "repro.runtime.server", "MobiGateServer", "compile", None),
    ("streamlets.redirector", "repro.streamlets.basic", "Redirector", "process", None),
    ("streamlets.switch", "repro.streamlets.switch", "ContentSwitch", "process", None),
    ("streamlets.gif2jpeg", "repro.streamlets.image_ops", "Gif2Jpeg", "process", None),
    ("streamlets.img_down_sample", "repro.streamlets.image_ops", "ImageDownSample",
     "process", None),
    ("streamlets.text_compress", "repro.streamlets.compress", "TextCompress", "process", None),
    ("streamlets.merge", "repro.streamlets.merge", "Merge", "process", None),
    ("streamlets.encryptor", "repro.streamlets.crypto", "Encryptor", "process", None),
    ("store.append", "repro.store.base", "MemoryStore", "append", None),
    ("store.flush", "repro.store.base", "MemoryStore", "flush", None),
    ("store.append", "repro.store.wal", "FileWALStore", "append", None),
    ("store.flush", "repro.store.wal", "FileWALStore", "flush", None),
    ("store.append", "repro.store.wal", "SqliteWALStore", "append", None),
    ("store.flush", "repro.store.wal", "SqliteWALStore", "flush", None),
    ("telemetry.observe", "repro.telemetry.metrics", "Histogram", "observe", None),
]


def install(tracer: CallTracer) -> list[str]:
    """Patch every target; returns the ``module.owner.attr`` paths not found."""
    unhooked = []
    for name, module_name, owner_name, attr, units in TARGETS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None or not tracer.patch(name, owner, attr, units):
            unhooked.append(f"{module_name}.{owner_name or ''}.{attr}")
    return unhooked


def main(argv: list[str]) -> int:
    """Install the wrappers, run the gateway, write the records at exit."""
    trace_out, gateway_args = Path(argv[0]), argv[1:]
    tracer = CallTracer()
    unhooked = install(tracer)
    from repro.gateway.__main__ import main as gateway_main

    try:
        return gateway_main(gateway_args)
    finally:
        trace_out.write_text(
            json.dumps({"records": tracer.snapshot(), "unhooked": unhooked})
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
