"""Lightweight run telemetry for long-running pipelines.

The DSE explorer wraps every stage of its per-candidate pipeline
(mutate -> repair -> estimate) in :class:`Telemetry` timers and counters
so a run can report where its wall-clock went and how many candidates it
evaluated, rejected, or failed. The scheduler reports its incremental-
evaluation effectiveness as ``sched_*``/``timing_*`` counters, and the
cycle simulator its replay-engine effectiveness as ``sim_*`` counters
(steps executed, cycles skipped, bulk-fire events) plus ``sim/*`` phase
timers. The layer is deliberately small:

* **Timers** — ``with telemetry.timer("compile"):`` accumulates wall
  time under a name. Timers nest: opening ``"estimate"`` inside
  ``"generation"`` records under ``"generation/estimate"``, so the
  hierarchy is readable straight from the summary keys. Durations
  measured elsewhere (e.g. inside a worker process) merge in through
  :meth:`add_time`.
* **Counters** — :meth:`incr` / :meth:`merge_counters` accumulate event
  counts (candidates evaluated, schedule repairs vs. full remaps, ...).
* **JSONL log** — when constructed with ``jsonl_path``, :meth:`event`
  appends one JSON object per line; ``json.loads`` on each line
  round-trips the record. With no path (or ``enabled=False``) nothing
  is ever written to disk.

A disabled instance (``Telemetry(enabled=False)``) keeps the full API
but every method is a no-op, so callers thread one object through
unconditionally instead of peppering ``if telemetry:`` checks.
"""

import json
import time
from contextlib import contextmanager

__all__ = ["Telemetry"]


class Telemetry:
    """Nested wall-clock timers + counters + optional JSONL event log.

    Parameters
    ----------
    jsonl_path:
        Optional path; when set, :meth:`event` appends one JSON line per
        record. The file is created (truncated) at construction so a
        bad path fails before any work is done.
    enabled:
        When False, all methods are no-ops and no file is written even
        if ``jsonl_path`` was given.
    clock:
        Monotonic float-second clock, injectable for deterministic
        tests. Defaults to :func:`time.perf_counter`.
    """

    def __init__(self, jsonl_path=None, enabled=True,
                 clock=time.perf_counter):
        self.enabled = enabled
        self.jsonl_path = jsonl_path if enabled else None
        self._clock = clock
        self._stack = []
        # Open eagerly so a bad path fails before any work is done.
        self._handle = (
            open(self.jsonl_path, "w") if self.jsonl_path else None
        )
        #: dotted-path timer name -> {"count": int, "seconds": float}
        self.timings = {}
        #: counter name -> int
        self.counters = {}

    # -- timers ---------------------------------------------------------
    @contextmanager
    def timer(self, name):
        """Time a block under ``name``, nested below any open timers."""
        if not self.enabled:
            yield
            return
        path = "/".join(self._stack + [name])
        self._stack.append(name)
        start = self._clock()
        try:
            yield
        finally:
            self._stack.pop()
            self.add_time(path, self._clock() - start)

    def add_time(self, name, seconds, count=1):
        """Merge an externally measured duration (e.g. from a worker)."""
        if not self.enabled:
            return
        slot = self.timings.setdefault(name, {"count": 0, "seconds": 0.0})
        slot["count"] += count
        slot["seconds"] += float(seconds)

    def total_seconds(self, name):
        """Accumulated seconds under ``name`` (0.0 when never timed)."""
        return self.timings.get(name, {}).get("seconds", 0.0)

    # -- counters -------------------------------------------------------
    def incr(self, name, amount=1):
        """Add ``amount`` to counter ``name``."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + amount

    def merge_counters(self, mapping):
        """Accumulate a ``{name: amount}`` mapping into the counters."""
        if not self.enabled or not mapping:
            return
        for name, amount in mapping.items():
            self.counters[name] = self.counters.get(name, 0) + amount

    def merge_timings(self, mapping):
        """Accumulate a ``{name: seconds}`` mapping into the timers."""
        if not self.enabled or not mapping:
            return
        for name, seconds in mapping.items():
            self.add_time(name, seconds)

    # -- event log ------------------------------------------------------
    def event(self, record):
        """Append one JSON object as a line of the run log."""
        if not self.enabled or self.jsonl_path is None:
            return
        if self._handle is None:
            # Reopen in *append* mode: the handle being closed means the
            # file already holds this run's earlier records, and a "w"
            # reopen would silently truncate them.
            self._handle = open(self.jsonl_path, "a")
        self._handle.write(json.dumps(record, default=str) + "\n")
        self._handle.flush()

    def close(self):
        """Close the JSONL handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- reporting ------------------------------------------------------
    def summary(self):
        """A plain-dict snapshot: ``{"timings": ..., "counters": ...}``."""
        return {
            "timings": {
                name: dict(slot) for name, slot in sorted(
                    self.timings.items()
                )
            },
            "counters": dict(sorted(self.counters.items())),
        }
