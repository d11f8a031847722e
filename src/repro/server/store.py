"""Persistent content-addressed artifact store.

One directory holds every artifact the compile service has produced,
keyed by the canonical string of everything the computation depends on
(ADG structural fingerprint, kernel identity, scale, seed, flags — see
:func:`repro.server.jobs.job_key`). The layout:

```
<root>/
  index.json               # {"version", "seq", "entries": {digest: ...}}
  objects/<sha256>.bin     # header line + pickled payload
```

* **Content addressing** — the object filename is the SHA-256 of the
  canonical key string; identical requests land on identical paths no
  matter which process computed them.
* **Atomic writes** — objects and the index are both published with
  :func:`repro.utils.atomic.atomic_write` (same-directory tempfile,
  fsync, atomic rename), so a reader (or a reopened store after
  ``kill -9``) never observes a half-written file under the final
  name. The object file is published *before* the index entry, so the
  index never references an artifact that is not fully on disk.
* **Versioned payloads** — each object starts with one JSON header line
  (magic, store version, payload format, payload size, payload SHA-256)
  followed by the pickle bytes. ``get`` verifies size and digest before
  unpickling; a mismatch (torn or corrupted blob) is treated as a miss
  and the entry is dropped, never an exception.
* **Bounded + LRU** — ``max_entries`` / ``max_bytes`` caps; the
  least-recently-used entries are evicted (and their files deleted)
  when a put exceeds a cap. Hits, misses, evictions, and dropped-torn
  counts are reported by :func:`ArtifactStore.stats` and mirrored into
  an optional :class:`~repro.utils.telemetry.Telemetry`.

The store assumes a **single writer process** (the job server, or one
harness) — concurrent writers would race on ``index.json``. Readers of
a quiescent store are always safe.
"""

import hashlib
import json
import os
import pickle

from repro.utils.atomic import atomic_write

__all__ = ["ArtifactStore", "StoreError"]

STORE_VERSION = 1
_MAGIC = "repro-artifact"


class StoreError(Exception):
    pass


class _Miss:
    def __repr__(self):
        return "<ArtifactStore.MISS>"


class ArtifactStore:
    """On-disk content-addressed cache of computed artifacts.

    Parameters
    ----------
    root:
        Directory for the index and object files (created if missing).
    max_entries / max_bytes:
        Optional caps; exceeding either evicts least-recently-used
        entries. ``max_bytes`` counts payload bytes (not headers).
    telemetry:
        Optional :class:`~repro.utils.telemetry.Telemetry`; the store
        mirrors ``store_hits`` / ``store_misses`` / ``store_evictions``
        / ``store_torn_dropped`` counters into it.
    """

    #: Sentinel returned by :meth:`get` on a miss (``None`` is a valid
    #: stored artifact).
    MISS = _Miss()

    def __init__(self, root, max_entries=None, max_bytes=None,
                 telemetry=None):
        self.root = str(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.telemetry = telemetry
        self._objects_dir = os.path.join(self.root, "objects")
        os.makedirs(self._objects_dir, exist_ok=True)
        self._index_path = os.path.join(self.root, "index.json")
        self._seq = 0
        self._entries = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.torn_dropped = 0
        self.orphans_collected = 0
        self._load_index()

    # -- index lifecycle ----------------------------------------------
    def _load_index(self):
        """Load + lightly validate the index: entries whose object file
        is missing or has the wrong on-disk size are dropped; object
        files the index does not reference (e.g. published right before
        a crash cut off the index write) are removed."""
        record = None
        try:
            with open(self._index_path) as handle:
                record = json.load(handle)
        except FileNotFoundError:
            pass
        except (OSError, json.JSONDecodeError):
            # A torn index cannot happen via atomic_write, but a corrupt
            # file (disk fault, manual edit) must not brick the store.
            record = None
        dropped = 0
        if record and record.get("version") == STORE_VERSION:
            self._seq = int(record.get("seq", 0))
            for digest, entry in record.get("entries", {}).items():
                path = self._object_path(digest)
                try:
                    disk_size = os.path.getsize(path)
                except OSError:
                    dropped += 1
                    continue
                if disk_size != entry.get("file_size"):
                    self._unlink_object(digest)
                    dropped += 1
                    continue
                self._entries[digest] = entry
        if dropped:
            self.torn_dropped += dropped
            self._incr("store_torn_dropped", dropped)
        # Garbage-collect orphan objects (written but never indexed).
        try:
            on_disk = os.listdir(self._objects_dir)
        except OSError:
            on_disk = []
        for name in on_disk:
            digest = name[:-len(".bin")] if name.endswith(".bin") else None
            if name.endswith(".tmp") or (
                digest is not None and digest not in self._entries
            ):
                try:
                    os.unlink(os.path.join(self._objects_dir, name))
                    self.orphans_collected += 1
                    self._incr("store_orphans_collected")
                except OSError:
                    pass
        if dropped or not os.path.exists(self._index_path):
            self._write_index()

    def _write_index(self):
        record = {
            "version": STORE_VERSION,
            "seq": self._seq,
            "entries": self._entries,
        }
        atomic_write(
            self._index_path,
            json.dumps(record, separators=(",", ":")).encode(),
        )

    def _object_path(self, digest):
        return os.path.join(self._objects_dir, digest + ".bin")

    def _unlink_object(self, digest):
        try:
            os.unlink(self._object_path(digest))
        except OSError:
            pass

    def _incr(self, name, amount=1):
        if self.telemetry is not None:
            self.telemetry.incr(name, amount)

    @staticmethod
    def key_digest(key):
        """The content address (hex SHA-256) of a canonical key string."""
        if not isinstance(key, str):
            raise StoreError("store keys are canonical strings; use "
                             "repro.utils.fingerprint.canonical_dumps")
        return hashlib.sha256(key.encode()).hexdigest()

    # -- read/write ----------------------------------------------------
    def get(self, key):
        """The stored artifact for ``key``, or :data:`MISS`. Torn or
        corrupted objects are dropped and reported as misses."""
        digest = self.key_digest(key)
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
            self._incr("store_misses")
            return self.MISS
        payload = self._read_object(digest)
        if payload is self.MISS:
            self.misses += 1
            self._incr("store_misses")
            return self.MISS
        self.hits += 1
        self._incr("store_hits")
        self._seq += 1
        entry["seq"] = self._seq
        entry["hits"] = entry.get("hits", 0) + 1
        return payload

    def _read_object(self, digest):
        """Read + verify one object; drops the entry on any damage."""
        try:
            with open(self._object_path(digest), "rb") as handle:
                header_line = handle.readline()
                header = json.loads(header_line)
                blob = handle.read()
            if (header.get("magic") != _MAGIC
                    or header.get("version") != STORE_VERSION
                    or header.get("format") != "pickle"
                    or header.get("size") != len(blob)
                    or header.get("sha256")
                    != hashlib.sha256(blob).hexdigest()):
                raise StoreError("artifact failed verification")
            return pickle.loads(blob)
        except (OSError, ValueError, StoreError, pickle.UnpicklingError,
                EOFError):
            self._entries.pop(digest, None)
            self._unlink_object(digest)
            self.torn_dropped += 1
            self._incr("store_torn_dropped")
            self._write_index()
            return self.MISS

    def put(self, key, artifact):
        """Store ``artifact`` under ``key`` (pickle payload, atomic
        publish, then index update + eviction). Returns the digest."""
        digest = self.key_digest(key)
        blob = pickle.dumps(artifact, protocol=4)
        header = {
            "magic": _MAGIC,
            "version": STORE_VERSION,
            "format": "pickle",
            "size": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
        data = json.dumps(header, separators=(",", ":")).encode() \
            + b"\n" + blob
        atomic_write(self._object_path(digest), data)
        self._seq += 1
        self._entries[digest] = {
            "size": len(blob),
            "file_size": len(data),
            "sha256": header["sha256"],
            "seq": self._seq,
            "hits": 0,
            "key_preview": key[:120],
        }
        self._evict()
        self._write_index()
        return digest

    def contains(self, key):
        return self.key_digest(key) in self._entries

    def _evict(self):
        """Drop least-recently-used entries until within the caps."""
        def over():
            if self.max_entries is not None \
                    and len(self._entries) > self.max_entries:
                return True
            if self.max_bytes is not None \
                    and self.total_bytes() > self.max_bytes:
                return True
            return False

        while self._entries and over():
            victim = min(self._entries, key=lambda d:
                         self._entries[d].get("seq", 0))
            self._entries.pop(victim)
            self._unlink_object(victim)
            self.evictions += 1
            self._incr("store_evictions")

    def total_bytes(self):
        return sum(e.get("size", 0) for e in self._entries.values())

    # -- maintenance ---------------------------------------------------
    def fsck(self):
        """Deep-verify every entry (full payload digest check). Returns
        the list of digests that were dropped as damaged."""
        dropped = []
        for digest in list(self._entries):
            if self._read_object(digest) is self.MISS:
                dropped.append(digest)
        return dropped

    def flush(self):
        """Persist in-memory LRU/hit bookkeeping to the index."""
        self._write_index()

    def close(self):
        self.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def stats(self):
        return {
            "root": self.root,
            "entries": len(self._entries),
            "bytes": self.total_bytes(),
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "torn_dropped": self.torn_dropped,
            "orphans_collected": self.orphans_collected,
        }
