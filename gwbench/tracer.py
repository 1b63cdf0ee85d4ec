"""Call timing from outside the program: count, total time and self time.

:class:`CallTracer` replaces a public callable with a wrapper that times
every call with ``time.perf_counter``.  Each thread keeps its own stack
of open calls, so a wrapped call made inside another wrapped call on the
same thread is its *child*: the parent's self time is its duration minus
the time its children covered.  Records are kept per thread (no lock on
the hot path) and merged when :meth:`CallTracer.snapshot` is read, which
the traced launcher does once, at shutdown.

Each record holds five numbers: ``calls``, ``total_s``, ``self_s``,
``units`` and ``hits``.  ``units`` is what an optional ``units(result)``
function counts from each return value (frames parsed, posts accepted,
messages collected); ``hits`` is the number of calls whose result
counted at least one unit.
"""

from __future__ import annotations

import functools
import threading
import time
from collections.abc import Callable

CALLS, TOTAL, SELF, UNITS, HITS = range(5)


class CallTracer:
    """Wrap callables and accumulate per-name call timing."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._tables: list[dict[str, list]] = []
        self._tables_lock = threading.Lock()

    def _thread_state(self) -> tuple[list, dict[str, list]]:
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = {}
            with self._tables_lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def wrap(
        self,
        name: str,
        fn: Callable,
        units: Callable[[object], int] | None = None,
    ) -> Callable:
        """A timed stand-in for ``fn`` that books its calls under ``name``."""
        clock = self._clock
        state = self._thread_state

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack, table = state()
            frame = [0.0]  # time covered by this call's wrapped children
            stack.append(frame)
            counted = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    counted = units(result)
                return result
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                record = table.get(name)
                if record is None:
                    record = table[name] = [0, 0.0, 0.0, 0, 0]
                record[CALLS] += 1
                record[TOTAL] += elapsed
                record[SELF] += elapsed - frame[0]
                if counted:
                    record[UNITS] += counted
                    record[HITS] += 1

        return timed

    def patch(
        self,
        name: str,
        owner: object,
        attr: str,
        units: Callable[[object], int] | None = None,
    ) -> bool:
        """Replace ``owner.attr`` with its timed wrapper; False if absent."""
        fn = getattr(owner, attr, None)
        if fn is None or not callable(fn):
            return False
        setattr(owner, attr, self.wrap(name, fn, units))
        return True

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Every name's merged record across all threads."""
        merged: dict[str, list] = {}
        with self._tables_lock:
            tables = [dict(t) for t in self._tables]
        for table in tables:
            for name, record in table.items():
                into = merged.setdefault(name, [0, 0.0, 0.0, 0, 0])
                for i, value in enumerate(record):
                    into[i] += value
        return {
            name: {
                "calls": r[CALLS],
                "total_s": r[TOTAL],
                "self_s": r[SELF],
                "units": r[UNITS],
                "hits": r[HITS],
            }
            for name, r in merged.items()
        }
