"""Durable job journal: a write-ahead log for the compile service.

The artifact store (PR 7) made *published results* crash-safe; this
module makes *accepted work* crash-safe. The server appends one record
per job-state transition to ``<store root>/journal.jsonl``:

``accepted``
    job id, key digest, the full :class:`~repro.server.jobs.JobSpec`
    dict, the client nonce, tenant/priority. Appended (and fsync'd)
    *before* the submit response is sent, so an acked job is on disk
    before the client can observe the ack.
``started``
    the job began executing (diagnostic; re-execution after a crash
    mid-run is expected and is *not* a duplicate).
``finished``
    terminal status (``ok`` / ``failed`` / ``shed``), whether it was
    served from cache, and the artifact digest when one exists.

On startup the server replays the journal and re-enqueues every
accepted-but-unfinished job under its **original job id**, so a client
that reconnects after a ``kill -9`` can still ``wait`` on the ids it
was acked. Jobs whose key is already published in the store complete
instantly from cache.

Record framing (one line each, within a ``.jsonl`` file)::

    <length:8 hex> <crc32:8 hex> <json payload>\\n

``length`` is the byte length of the JSON payload and ``crc32`` its
checksum, so a torn tail (partial final write at crash) is detected
and truncated on open — the journal never refuses to start over a
crash artifact, and never trusts a half-written record. Corruption
*before* the tail (disk fault, manual edit) raises
:class:`~repro.errors.JournalError`: that is data loss, not a crash
artifact, and must not be silently dropped.

:func:`verify_journal` is the read-only auditor used by the chaos
harness and ``repro store fsck``: it proves "zero duplicate
executions" (at most one *computed* ``finished`` per job key) and
lists still-pending jobs.
"""

import json
import os
import zlib

from repro.errors import JournalError
from repro.utils.atomic import atomic_write

__all__ = [
    "JobJournal",
    "read_journal",
    "recover_state",
    "verify_journal",
]

_EVENTS = ("accepted", "started", "finished")


def _frame(record):
    """Encode one record as a framed line (bytes)."""
    payload = json.dumps(record, separators=(",", ":"),
                         sort_keys=True).encode()
    if b"\n" in payload:
        raise JournalError("journal payloads must be single-line JSON")
    return (f"{len(payload):08x} {zlib.crc32(payload) & 0xFFFFFFFF:08x} "
            .encode() + payload + b"\n")


def _parse_line(line):
    """Decode one framed line; returns the record dict or ``None`` when
    the frame is structurally broken (torn)."""
    # "llllllll cccccccc <payload>\n" — 18 bytes of framing minimum.
    if len(line) < 19 or not line.endswith(b"\n"):
        return None
    if line[8:9] != b" " or line[17:18] != b" ":
        return None
    try:
        length = int(line[:8], 16)
        crc = int(line[9:17], 16)
    except ValueError:
        return None
    payload = line[18:-1]
    if len(payload) != length:
        return None
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    return record


def read_journal(path, repair=False):
    """Read every valid record of a journal file.

    Returns ``(records, torn_bytes)``. A broken record at the very end
    of the file is a *torn tail* (the crash interrupted an append): it
    is excluded, and with ``repair=True`` the file is truncated back to
    the last valid record. A broken record followed by further valid
    data is real corruption and raises :class:`JournalError`.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], 0
    records = []
    offset = 0
    good_end = 0
    torn = 0
    lines = data.split(b"\n")
    # split() leaves a final "" for a newline-terminated file; anything
    # else in the last slot is an unterminated (torn) tail.
    for index, raw in enumerate(lines):
        if index == len(lines) - 1:
            if raw:
                torn = len(raw)
            break
        line = raw + b"\n"
        record = _parse_line(line)
        if record is None:
            remainder = data[offset:]
            if remainder.strip(b"\n"):
                tail_lines = [
                    piece for piece in remainder.split(b"\n")[1:]
                    if piece
                ]
                if any(_parse_line(piece + b"\n") is not None
                       for piece in tail_lines):
                    raise JournalError(
                        f"journal {path!r} is corrupt at byte {offset}: "
                        "a damaged record is followed by valid records "
                        "(not a torn tail)"
                    )
            torn = len(remainder)
            break
        records.append(record)
        offset += len(line)
        good_end = offset
    if torn and repair:
        with open(path, "r+b") as handle:
            handle.truncate(good_end)
            handle.flush()
            os.fsync(handle.fileno())
    return records, torn


class JobJournal:
    """Append-only, fsync'd, CRC-framed job event log.

    Parameters
    ----------
    path:
        Journal file (created if missing; parent directory must exist).
    fsync:
        When True (the default) every append is fsync'd before
        returning — the durability contract behind "an acked job is
        never lost". Disable only in tests that pin throughput.
    telemetry:
        Optional :class:`~repro.utils.telemetry.Telemetry`; mirrors
        ``journal_appends`` / ``journal_replayed`` /
        ``journal_torn_truncated_bytes`` counters.
    """

    def __init__(self, path, fsync=True, telemetry=None):
        self.path = str(path)
        self.fsync = fsync
        self.telemetry = telemetry
        self.appends = 0
        self.replayed = 0
        self.torn_truncated_bytes = 0
        self._handle = None

    def _incr(self, name, amount=1):
        if self.telemetry is not None:
            self.telemetry.incr(name, amount)

    def replay(self):
        """Read (and torn-tail-repair) the journal; returns the valid
        records in append order. Call before :meth:`append`."""
        records, torn = read_journal(self.path, repair=True)
        self.replayed += len(records)
        self.torn_truncated_bytes += torn
        self._incr("journal_replayed", len(records))
        if torn:
            self._incr("journal_torn_truncated_bytes", torn)
        return records

    def _open(self):
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, record):
        """Append one event record (flushed; fsync'd unless disabled)."""
        if record.get("event") not in _EVENTS:
            raise JournalError(
                f"unknown journal event {record.get('event')!r}; "
                f"one of {_EVENTS}"
            )
        handle = self._open()
        handle.write(_frame(record))
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        self.appends += 1
        self._incr("journal_appends")

    def compact(self, keep_records):
        """Atomically rewrite the journal with only ``keep_records``
        (operator maintenance — ``repro store fsck --gc``). The live
        server never compacts on its own: the full history is what
        :func:`verify_journal` audits."""
        self.close()
        atomic_write(
            self.path, b"".join(_frame(record) for record in keep_records)
        )
        self._incr("journal_compactions")

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def stats(self):
        return {
            "path": self.path,
            "appends": self.appends,
            "replayed": self.replayed,
            "torn_truncated_bytes": self.torn_truncated_bytes,
        }


def recover_state(records):
    """Fold replayed records into recovery state.

    Returns a dict with:

    ``pending``
        accepted records (in acceptance order) with no terminal
        ``finished`` — the jobs the restarted server must re-enqueue.
    ``max_job_seq``
        the highest numeric suffix of any ``job-<n>`` id seen, so the
        restarted server's id counter never collides with a live id.
    ``nonces``
        ``{nonce: job_id}`` for every accepted record, so a client
        retrying a submit across the restart attaches to the original
        job instead of re-enqueueing.
    """
    accepted = {}
    order = []
    finished = set()
    max_seq = 0
    nonces = {}
    for record in records:
        job_id = record.get("job_id")
        if isinstance(job_id, str) and job_id.startswith("job-"):
            suffix = job_id[4:]
            if suffix.isdigit():
                max_seq = max(max_seq, int(suffix))
        event = record.get("event")
        if event == "accepted":
            accepted[job_id] = record
            order.append(job_id)
            nonce = record.get("nonce")
            if nonce:
                nonces[nonce] = job_id
        elif event == "finished":
            finished.add(job_id)
    pending = [accepted[job_id] for job_id in order
               if job_id not in finished]
    return {
        "pending": pending,
        "max_job_seq": max_seq,
        "nonces": nonces,
    }


def verify_journal(path):
    """Read-only audit of a journal file.

    Returns a summary dict::

        {"ok", "records", "accepted", "started", "finished",
         "pending": [job_id, ...],
         "duplicate_computed_finishes": [ident, ...],
         "torn_bytes": int}

    "Zero duplicate executions" is the invariant the chaos harness
    pins: for every job key (or job id, for uncacheable kinds) at most
    one ``finished`` record may be *computed* (``cached`` false) —
    coalescing, the cache fast path, and nonce attach must absorb every
    retry and replay. A ``started`` with no ``finished`` before a
    crash legitimately runs again, so ``started`` counts are reported
    but never flagged.
    """
    records, torn = read_journal(path, repair=False)
    counts = {"accepted": 0, "started": 0, "finished": 0}
    computed_finishes = {}
    finished_ids = set()
    accepted_order = []
    for record in records:
        event = record.get("event")
        if event in counts:
            counts[event] += 1
        if event == "accepted":
            accepted_order.append(record.get("job_id"))
        elif event == "finished":
            finished_ids.add(record.get("job_id"))
            if not record.get("cached"):
                ident = record.get("key") or record.get("job_id")
                computed_finishes[ident] = \
                    computed_finishes.get(ident, 0) + 1
    duplicates = sorted(ident for ident, count
                        in computed_finishes.items() if count > 1)
    pending = [job_id for job_id in accepted_order
               if job_id not in finished_ids]
    return {
        "ok": not duplicates and torn == 0,
        "records": len(records),
        "accepted": counts["accepted"],
        "started": counts["started"],
        "finished": counts["finished"],
        "pending": pending,
        "duplicate_computed_finishes": duplicates,
        "torn_bytes": torn,
    }
