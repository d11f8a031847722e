"""Asyncio compile-service front-end.

One :class:`CompileServer` owns an :class:`~repro.server.store
.ArtifactStore` (it is the store's single writer) and serves JSON-lines
requests over TCP:

```
{"op": "submit", "job": {...JobSpec...}, "nonce": "..."}  -> {"ok", "job_id", "state"}
{"op": "wait",   "job_id": "..."}          -> completion record
{"op": "run",    "job": {...}, "nonce": "..."} -> submit + wait, one trip
{"op": "stats"}                            -> store/queue/counter stats
{"op": "ping"} / {"op": "shutdown"}
```

A completion record carries ``status``, the job ``summary``, the
artifact as base64 pickle (``artifact_b64``), its canonical ``digest``,
``cached`` (served from the store without computing), and ``seconds``.

Scheduling:

* **Cache fast path** — admissions look the job key up in the store
  first; a hit completes the job immediately, never touching the
  queue. A key's artifact never changes, so the server keeps, for its
  recently hit keys, the envelope's status and summary and one base64
  pickle and digest of the artifact. A hit on such a key is answered
  from memory once the store index confirms the entry is still there
  (``ArtifactStore.touch``: the same hit and LRU bookkeeping as a read,
  no file read); the first hit on a key, a key the store has evicted,
  and journal recovery read and verify the object with
  ``ArtifactStore.get``. A hit neither re-encodes the artifact nor
  holds a copy of its own, and a finished job keeps no canonical key.
* **Coalescing** — a submit whose key is already queued/running
  attaches to the in-flight job instead of duplicating the work.
* **Idempotent retries (nonces)** — a ``submit``/``run`` may carry a
  client-generated ``nonce``; a retry with the same nonce attaches to
  the job the first delivery created instead of re-enqueueing (and
  re-counting tenant quota). This is what makes a dropped connection
  *after* the server processed a submit safe to retry blindly.
* **Priority queue** — pending jobs order by ``(priority, seq)``;
  lower priority values run sooner, FIFO within a priority.
* **Per-tenant quotas** — each tenant may hold at most ``tenant_quota``
  queued+running jobs; submits beyond that are rejected with
  ``error: "quota-exceeded"`` (cache hits and coalesced attaches are
  free and never rejected).
* **Load shedding** — with ``max_queue_depth`` set, a submit against a
  full queue is rejected with an honest ``overloaded`` envelope
  carrying a ``retry_after`` hint derived from the observed service
  time. Shedding is priority-aware: a higher-priority submit may
  displace (shed) the lowest-priority queued job, whose waiter then
  receives the same overloaded envelope and is expected to back off
  and resubmit.
* **Durable journal** — every accepted job is appended (fsync'd) to an
  append-only WAL (:mod:`repro.server.journal`) *before* the ack is
  sent. On startup the server replays the journal and re-enqueues
  accepted-but-unfinished jobs under their original ids (completing
  instantly from the store when the artifact was already published),
  so ``kill -9`` never loses an acked job.
* **Sharded resilient workers** — computed jobs dispatch to
  ``workers`` single-process shards (fork pools from
  :mod:`repro.utils.pool`), shard chosen by key digest so identical
  keys serialize onto the same shard. The shards follow the shared
  pool's resilience contract: an ``eval_timeout`` bounds each job, and
  a timeout or a broken pool rebuilds the shard and retries the job
  once serially (in a thread) before failing it. ``workers=0`` runs
  every job on one serial thread — the deterministic mode tests and
  small deployments use.
"""

import asyncio
import base64
import heapq
import itertools
import json
import os
import pickle
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

from repro.server.jobs import (
    CACHEABLE_KINDS,
    JobSpec,
    artifact_digest,
    compile_subkey,
    execute_job,
    job_key,
)
from repro.server.journal import JobJournal, recover_state
from repro.server.store import ArtifactStore
from repro.utils import pool as fork_pool

__all__ = ["CompileServer", "BackgroundServer", "serve"]

_PROTOCOL_VERSION = 1
#: Completed jobs kept around for late ``wait``/``result`` queries.
_COMPLETED_RETENTION = 1024
#: Keys whose hit (status, summary, encoded artifact) is kept in memory.
_HIT_ENCODING_RETENTION = 64
#: Client nonces remembered for idempotent-retry attachment.
_NONCE_RETENTION = 4096
#: Journal file name, resolved inside the store root.
JOURNAL_BASENAME = "journal.jsonl"


class _Overloaded(Exception):
    """Admission rejected by load shedding; carries the envelope."""

    def __init__(self, envelope):
        super().__init__(envelope.get("error", "overloaded"))
        self.envelope = envelope


class _Job:
    __slots__ = ("job_id", "spec", "key", "state", "future", "cached",
                 "exec_seq", "error", "record", "nonce", "journaled")

    def __init__(self, job_id, spec, key, future):
        self.job_id = job_id
        self.spec = spec
        self.key = key          # None for uncacheable kinds and once done
        self.state = "queued"   # queued | running | done | failed | shed
        self.future = future    # resolves to the completion record
        self.cached = False
        self.exec_seq = None    # server-wide execution order stamp
        self.error = None
        self.record = None
        self.nonce = None
        self.journaled = False


def _encode_artifact(artifact):
    """The wire form of an artifact: ``(base64 pickle, digest)``."""
    return (base64.b64encode(pickle.dumps(artifact, protocol=4))
            .decode("ascii"), artifact_digest(artifact))


class CompileServer:
    """The asyncio job server. Construct, then ``await start()``."""

    def __init__(self, store, workers=1, eval_timeout=None,
                 tenant_quota=8, telemetry=None, journal=True,
                 journal_fsync=True, max_queue_depth=None):
        if not isinstance(store, ArtifactStore):
            raise TypeError("store must be an ArtifactStore")
        self.store = store
        self.workers = max(0, int(workers))
        self.eval_timeout = eval_timeout
        self.tenant_quota = tenant_quota
        self.telemetry = telemetry
        self.max_queue_depth = max_queue_depth
        if journal is True:
            self.journal = JobJournal(
                os.path.join(store.root, JOURNAL_BASENAME),
                fsync=journal_fsync, telemetry=telemetry,
            )
        elif isinstance(journal, JobJournal):
            self.journal = journal
        else:
            self.journal = None
        self.counters = {}
        self.address = None
        self._tcp_server = None
        self._loop = None
        self._job_ids = itertools.count(1)
        self._exec_seq = itertools.count(1)
        self._queue_seq = itertools.count(1)
        self._active = {}          # job_id -> _Job (queued or running)
        self._completed = OrderedDict()   # job_id -> _Job (bounded)
        self._inflight = {}        # key -> _Job, for coalescing
        self._tenant_load = {}     # tenant -> queued+running count
        self._nonces = OrderedDict()      # nonce -> job_id (bounded)
        # key -> (store digest, _finish kwargs: status, summary and
        # the encoding (b64, artifact digest))
        self._hit_encodings = OrderedDict()
        self._queued = 0           # jobs waiting in shard queues
        self._service_ewma = None  # observed seconds per computed job
        self._shard_queues = []    # per shard: heap of (pri, seq, job)
        self._shard_wakeups = []   # per shard: asyncio.Event
        self._shard_tasks = []
        self._pools = []
        self._serial = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serial"
        )
        self._shutdown = None      # asyncio.Event once started
        self._handlers = set()     # one task per open connection

    # -- lifecycle -----------------------------------------------------
    def _shard_count(self):
        return max(1, self.workers)

    def _make_pool(self):
        # None (no workers, or no fork) runs jobs on the serial thread.
        return fork_pool.create(1, self._incr) if self.workers else None

    async def start(self, host="127.0.0.1", port=0):
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        for _ in range(self._shard_count()):
            self._shard_queues.append([])
            self._shard_wakeups.append(asyncio.Event())
            self._pools.append(self._make_pool())
        # Replay the journal and re-enqueue pending work before
        # accepting any traffic, so recovered and fresh jobs share one
        # consistent queue/nonce state.
        self._recover()
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        self.address = self._tcp_server.sockets[0].getsockname()[:2]
        for shard in range(self._shard_count()):
            self._shard_tasks.append(
                self._loop.create_task(self._shard_runner(shard))
            )
        return self.address

    async def serve_until_shutdown(self):
        await self._shutdown.wait()
        await self.stop()

    async def stop(self):
        self._shutdown.set()
        if self._tcp_server is not None:
            self._tcp_server.close()
            # End every connection first: from Python 3.12 on,
            # wait_closed() waits for open ones, and a handler still
            # pending is destroyed when the loop closes. Each handler
            # closes its writer on the way out.
            handlers = list(self._handlers)
            for task in handlers:
                task.cancel()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._tcp_server.wait_closed()
        for task in self._shard_tasks:
            task.cancel()
        for task in self._shard_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for pool in self._pools:
            if pool is not None:
                fork_pool.shutdown_quietly(pool)
        self._serial.shutdown(wait=False, cancel_futures=True)
        if self.journal is not None:
            self.journal.close()
        self.store.close()

    # -- counters ------------------------------------------------------
    def _incr(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount
        if self.telemetry is not None:
            self.telemetry.incr(name, amount)

    # -- journal recovery ----------------------------------------------
    def _recover(self):
        """Replay the journal: resume the job-id counter, restore the
        nonce map, and re-enqueue accepted-but-unfinished jobs under
        their original ids (cache-checking each key first so already-
        published artifacts complete instantly)."""
        if self.journal is None:
            return
        records = self.journal.replay()
        if not records:
            return
        state = recover_state(records)
        self._job_ids = itertools.count(state["max_job_seq"] + 1)
        for nonce, job_id in state["nonces"].items():
            self._remember_nonce(nonce, job_id)
        for record in state["pending"]:
            try:
                spec = JobSpec.from_dict(dict(record["spec"]))
            except (KeyError, TypeError, ValueError):
                self._incr("journal_recovery_dropped")
                continue
            key = job_key(spec) if spec.kind in CACHEABLE_KINDS else None
            job = _Job(record["job_id"], spec, key,
                       self._loop.create_future())
            job.journaled = True
            job.nonce = record.get("nonce")
            hit = self._store_hit(key) if key is not None else None
            if hit is not None:
                # The artifact was published before the crash cut off
                # the finished record: complete instantly.
                job.cached = True
                self._incr("journal_recovered_cached")
                self._finish(job, **hit)
                continue
            self._enqueue(job)
            self._incr("journal_recovered_jobs")

    # -- admission -----------------------------------------------------
    def submit(self, spec, nonce=None):
        """Admit one job; returns the :class:`_Job` (possibly already
        complete on a cache hit), raises ``ValueError`` on quota, or
        raises :class:`_Overloaded` when load shedding rejects."""
        job = self._admit(spec, nonce)
        if nonce:
            # Every admission outcome (fresh, cache hit, coalesced,
            # attach) maps the nonce so the next retry finds this job.
            self._remember_nonce(nonce, job.job_id)
        return job

    def _admit(self, spec, nonce):
        self._incr("server_submits")
        if nonce:
            attached = self._nonce_job(nonce)
            if attached is not None:
                self._incr("server_nonce_attach")
                return attached
        key = job_key(spec) if spec.kind in CACHEABLE_KINDS else None
        if key is not None:
            inflight = self._inflight.get(key)
            if inflight is not None:
                self._incr("server_coalesced")
                return inflight
            hit = self._store_hit(key)
            if hit is not None:
                self._incr("server_cache_hits")
                job = _Job(f"job-{next(self._job_ids)}", spec, key,
                           self._loop.create_future())
                job.cached = True
                self._finish(job, **hit)
                return job
            self._incr("server_cache_misses")
        load = self._tenant_load.get(spec.tenant, 0)
        if self.tenant_quota is not None and load >= self.tenant_quota:
            self._incr("server_rejected_quota")
            raise ValueError(
                f"quota-exceeded: tenant {spec.tenant!r} already has "
                f"{load} jobs in flight (quota {self.tenant_quota})"
            )
        if self.max_queue_depth is not None \
                and self._queued >= self.max_queue_depth:
            victim = self._shed_candidate()
            if victim is not None \
                    and spec.priority < victim.spec.priority:
                # Priority-aware shedding: the lowest-priority queued
                # job yields its slot to the more urgent admission.
                self._shed(victim)
            else:
                self._incr("server_shed_rejects")
                raise _Overloaded(self._overload_envelope())
        job = _Job(f"job-{next(self._job_ids)}", spec, key,
                   self._loop.create_future())
        job.nonce = nonce
        if self.journal is not None:
            job.journaled = True
            self.journal.append({
                "event": "accepted",
                "job_id": job.job_id,
                "key": self.store.key_digest(key)
                if key is not None else None,
                "spec": spec.to_dict(),
                "nonce": nonce,
            })
        self._enqueue(job)
        self._incr("server_enqueued")
        return job

    def _store_hit(self, key):
        """The stored envelope for ``key`` as ``_finish`` keywords
        (status, summary, encoding), or None on a miss. A key held in
        ``_hit_encodings`` whose index entry is still there is answered
        from memory; any other key goes through ``store.get``."""
        held = self._hit_encodings.pop(key, None)
        if held is None or not self.store.touch(held[0]):
            envelope = self.store.get(key)
            if envelope is self.store.MISS:
                return None
            artifact = envelope["artifact"]
            held = (self.store.key_digest(key), {
                "status": envelope["status"],
                "summary": envelope["summary"],
                "encoding": None if artifact is None
                else _encode_artifact(artifact),
            })
        self._hit_encodings[key] = held
        while len(self._hit_encodings) > _HIT_ENCODING_RETENTION:
            self._hit_encodings.popitem(last=False)
        return held[1]

    def _publish(self, key, envelope):
        # A held hit must never outlive the entry it was read from.
        self._hit_encodings.pop(key, None)
        self.store.put(key, envelope)

    def _enqueue(self, job):
        spec = job.spec
        self._active[job.job_id] = job
        if job.key is not None and job.key not in self._inflight:
            self._inflight[job.key] = job
        self._tenant_load[spec.tenant] = \
            self._tenant_load.get(spec.tenant, 0) + 1
        shard = self._shard_of(job.key, job.job_id)
        heapq.heappush(
            self._shard_queues[shard],
            (spec.priority, next(self._queue_seq), job),
        )
        self._queued += 1
        self._shard_wakeups[shard].set()

    def _remember_nonce(self, nonce, job_id):
        self._nonces[nonce] = job_id
        self._nonces.move_to_end(nonce)
        while len(self._nonces) > _NONCE_RETENTION:
            self._nonces.popitem(last=False)

    def _nonce_job(self, nonce):
        job_id = self._nonces.get(nonce)
        if job_id is None:
            return None
        job = self._find_job(job_id)
        if job is None or job.state == "shed":
            # A shed (or long-evicted) job is not a usable attachment:
            # the retry must be admitted fresh.
            return None
        return job

    def _shard_of(self, key, job_id):
        if key is None:
            return hash(job_id) % self._shard_count()
        return int(self.store.key_digest(key)[:8], 16) \
            % self._shard_count()

    # -- load shedding -------------------------------------------------
    def _shed_candidate(self):
        """The lowest-priority queued job (latest seq breaks ties)."""
        worst = None
        for queue in self._shard_queues:
            for priority, seq, job in queue:
                if job.state != "queued":
                    continue
                rank = (priority, seq)
                if worst is None or rank > worst[0]:
                    worst = (rank, job)
        return None if worst is None else worst[1]

    def _shed(self, job):
        """Fail a queued job with the overloaded envelope; its heap
        entry is skipped lazily by the shard runner."""
        self._incr("server_shed")
        self._queued -= 1
        envelope = self._overload_envelope()
        self._finish(job, "shed",
                     error="overloaded: shed for a higher-priority "
                           "admission",
                     extra={"overloaded": True,
                            "retry_after": envelope["retry_after"]})

    def _retry_after(self):
        """An honest backoff hint: observed seconds per computed job
        times the current backlog, spread over the shards."""
        per_job = self._service_ewma \
            if self._service_ewma is not None else 0.1
        backlog = max(1, len(self._active))
        hint = per_job * backlog / self._shard_count()
        return round(min(30.0, max(0.05, hint)), 3)

    def _overload_envelope(self):
        return {
            "ok": False,
            "error": "overloaded",
            "overloaded": True,
            "retry_after": self._retry_after(),
            "queued": self._queued,
            "max_queue_depth": self.max_queue_depth,
        }

    # -- execution -----------------------------------------------------
    async def _shard_runner(self, shard):
        queue = self._shard_queues[shard]
        wakeup = self._shard_wakeups[shard]
        while True:
            while not queue:
                wakeup.clear()
                await wakeup.wait()
            _, _, job = heapq.heappop(queue)
            if job.state != "queued":
                continue   # shed while waiting; already finished
            self._queued -= 1
            await self._run_job(shard, job)

    async def _run_job(self, shard, job):
        if job.key is not None:
            # Re-check the cache at execution time: a recovered twin or
            # an earlier queue entry with the same key may have
            # published the artifact while this job waited.
            hit = self._store_hit(job.key)
            if hit is not None:
                self._incr("server_cache_hits_late")
                job.cached = True
                self._finish(job, **hit)
                return
        job.state = "running"
        job.exec_seq = next(self._exec_seq)
        if job.journaled and self.journal is not None:
            self.journal.append({
                "event": "started",
                "job_id": job.job_id,
                "exec_seq": job.exec_seq,
            })
        spec = job.spec
        compiled_payload = None
        if spec.kind == "simulate":
            cached = self.store.get(compile_subkey(spec))
            if cached is not self.store.MISS \
                    and cached["status"] == "ok":
                self._incr("server_compile_reuse")
                compiled_payload = pickle.dumps(
                    cached["artifact"], protocol=4
                )
        call = (execute_job, spec.to_dict(), compiled_payload)
        try:
            out = await self._execute_resilient(shard, call)
        except Exception as exc:  # worker raised even after retry
            self._incr("server_job_errors")
            self._finish(job, "failed", error=f"{type(exc).__name__}: "
                         f"{exc}")
            return
        artifact = pickle.loads(out["payload"])
        if job.key is not None:
            # Failed-but-deterministic outcomes are cached too:
            # replaying a compile that finds no legal mapping must not
            # redo the search, and the envelope preserves its status.
            self._publish(job.key, {
                "status": out["status"], "summary": out["summary"],
                "artifact": artifact,
            })
            for derived_key, derived in out.get("derived", {}).items():
                self._publish(derived_key, {
                    "status": derived["status"],
                    "summary": derived["summary"],
                    "artifact": pickle.loads(derived["payload"]),
                })
        self._finish(job, out["status"],
                     artifact=artifact, summary=out["summary"],
                     seconds=out["seconds"])

    async def _execute_resilient(self, shard, call):
        """The shared pool's resilience contract on the event loop:
        pooled attempt bounded by ``eval_timeout``; timeout or pool
        breakage rebuilds the shard and retries once serially."""
        func, *args = call
        pool = self._pools[shard]
        if pool is None:
            return await self._loop.run_in_executor(
                self._serial, func, *args
            )
        try:
            return await asyncio.wait_for(
                self._loop.run_in_executor(pool, func, *args),
                timeout=self.eval_timeout,
            )
        except asyncio.TimeoutError:
            self._incr("server_job_timeouts")
        except fork_pool.Broken:
            self._incr("server_pool_broken")
        self._rebuild_pool(shard)
        self._incr("server_retries_serial")
        return await self._loop.run_in_executor(
            self._serial, func, *args
        )

    def _rebuild_pool(self, shard):
        pool = self._pools[shard]
        if pool is not None:
            fork_pool.shutdown_quietly(pool)
            self._incr("server_pool_rebuilds")
        self._pools[shard] = self._make_pool()

    def _finish(self, job, status, artifact=None, summary=None,
                seconds=0.0, error=None, extra=None, encoding=None):
        """Complete ``job``. A hit passes its held ``encoding`` of the
        artifact; a computed job passes the ``artifact`` itself."""
        if status == "shed":
            job.state = "shed"
        elif status in ("done", "failed"):
            job.state = status
        else:
            job.state = "done" if status == "ok" else "failed"
        job.error = error
        record = {
            "ok": job.state == "done",
            "job_id": job.job_id,
            "state": job.state,
            "status": status,
            "cached": job.cached,
            "exec_seq": job.exec_seq,
            "seconds": seconds,
            "summary": summary or {},
        }
        if error is not None:
            record["error"] = error
        if extra:
            record.update(extra)
        if encoding is None and (artifact is not None
                                 or job.state == "done"):
            encoding = _encode_artifact(artifact)
        if encoding is not None:
            record["artifact_b64"], record["digest"] = encoding
        job.record = record
        if not job.cached and job.state in ("done", "failed") \
                and seconds > 0:
            self._service_ewma = seconds \
                if self._service_ewma is None \
                else 0.8 * self._service_ewma + 0.2 * seconds
        # Bookkeeping for jobs that actually occupied the queue.
        if job.job_id in self._active:
            del self._active[job.job_id]
            tenant = job.spec.tenant
            load = self._tenant_load.get(tenant, 1) - 1
            if load <= 0:
                self._tenant_load.pop(tenant, None)
            else:
                self._tenant_load[tenant] = load
        if job.key is not None and \
                self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        if job.journaled and self.journal is not None:
            self.journal.append({
                "event": "finished",
                "job_id": job.job_id,
                "key": self.store.key_digest(job.key)
                if job.key is not None else None,
                "status": status,
                "cached": job.cached,
                "digest": record.get("digest"),
            })
        # Retained for late queries, which never need the canonical key
        # (~75 KB for a preset spec).
        job.key = None
        self._completed[job.job_id] = job
        while len(self._completed) > _COMPLETED_RETENTION:
            self._completed.popitem(last=False)
        if job.state == "shed":
            self._incr("server_jobs_shed")
        else:
            self._incr("server_jobs_done" if job.state == "done"
                       else "server_jobs_failed")
        if self.telemetry is not None:
            self.telemetry.event({
                "type": "job", "job_id": job.job_id,
                "kind": job.spec.kind, "tenant": job.spec.tenant,
                "state": job.state, "cached": job.cached,
                "seconds": seconds,
            })
        if not job.future.done():
            job.future.set_result(record)

    # -- protocol ------------------------------------------------------
    async def _handle_connection(self, reader, writer):
        self._handlers.add(asyncio.current_task())
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.endswith(b"\n"):
                    # A frame cut off mid-write (chaos, crash, partial
                    # send): never act on it — the client will retry
                    # the whole request, and its nonce deduplicates.
                    self._incr("server_torn_frames")
                    break
                try:
                    request = json.loads(line)
                    response = await self._dispatch(request)
                except Exception as exc:
                    response = {"ok": False,
                                "error": f"{type(exc).__name__}: {exc}"}
                writer.write(json.dumps(response, default=str)
                             .encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            # Cancelled only by stop(): end like a closed connection.
            pass
        finally:
            self._handlers.discard(asyncio.current_task())
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(self, request):
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "protocol": _PROTOCOL_VERSION}
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "shutdown":
            self._shutdown.set()
            return {"ok": True, "stopping": True}
        if op == "submit":
            job = self._submit_from(request)
            if isinstance(job, dict):
                return job
            return {"ok": True, "job_id": job.job_id,
                    "state": job.state, "cached": job.cached}
        if op in ("wait", "run"):
            if op == "run":
                job = self._submit_from(request)
                if isinstance(job, dict):
                    return job
            else:
                job = self._find_job(request.get("job_id"))
                if job is None:
                    return {"ok": False, "error": "unknown job_id"}
            if job.record is not None:
                return job.record
            return await asyncio.shield(job.future)
        if op == "result":
            job = self._find_job(request.get("job_id"))
            if job is None:
                return {"ok": False, "error": "unknown job_id"}
            if job.record is not None:
                return job.record
            return {"ok": True, "job_id": job.job_id,
                    "state": job.state, "pending": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _submit_from(self, request):
        try:
            spec = JobSpec.from_dict(request.get("job") or {})
            return self.submit(spec, nonce=request.get("nonce"))
        except _Overloaded as exc:
            return exc.envelope
        except (TypeError, ValueError) as exc:
            return {"ok": False, "error": str(exc)}

    def _find_job(self, job_id):
        return self._active.get(job_id) or self._completed.get(job_id)

    def stats(self):
        return {
            "address": list(self.address) if self.address else None,
            "workers": self.workers,
            "tenant_quota": self.tenant_quota,
            "max_queue_depth": self.max_queue_depth,
            "queued": self._queued,
            "active": len(self._active),
            "service_ewma_s": self._service_ewma,
            "tenants": dict(sorted(self._tenant_load.items())),
            "counters": dict(sorted(self.counters.items())),
            "store": self.store.stats(),
            "journal": self.journal.stats()
            if self.journal is not None else None,
        }


# -- embedding helpers -------------------------------------------------
async def serve(store, host="127.0.0.1", port=0, workers=1,
                eval_timeout=None, tenant_quota=8, telemetry=None,
                journal=True, journal_fsync=True, max_queue_depth=None,
                ready=None):
    """Run a server until a ``shutdown`` op (or cancellation).
    ``ready(address)`` is called once listening."""
    server = CompileServer(
        store, workers=workers, eval_timeout=eval_timeout,
        tenant_quota=tenant_quota, telemetry=telemetry,
        journal=journal, journal_fsync=journal_fsync,
        max_queue_depth=max_queue_depth,
    )
    address = await server.start(host, port)
    if ready is not None:
        ready(address)
    try:
        await server.serve_until_shutdown()
    except asyncio.CancelledError:
        await server.stop()
        raise
    return server


class BackgroundServer:
    """A server hosted on a daemon thread — the in-process harness for
    tests and notebooks.

    ```
    with BackgroundServer(store_root) as bg:
        client = ServerClient(*bg.address)
    ```
    """

    def __init__(self, store_root, workers=0, eval_timeout=None,
                 tenant_quota=8, max_entries=None, max_bytes=None,
                 telemetry=None, journal=True, journal_fsync=True,
                 max_queue_depth=None):
        import threading

        self._started = threading.Event()
        self._startup_error = None
        self.address = None
        self.server = None
        self._loop = None

        def _run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                store = ArtifactStore(
                    store_root, max_entries=max_entries,
                    max_bytes=max_bytes, telemetry=telemetry,
                )
                self.server = CompileServer(
                    store, workers=workers, eval_timeout=eval_timeout,
                    tenant_quota=tenant_quota, telemetry=telemetry,
                    journal=journal, journal_fsync=journal_fsync,
                    max_queue_depth=max_queue_depth,
                )
                self.address = loop.run_until_complete(
                    self.server.start()
                )
            except Exception as exc:
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            loop.run_until_complete(self.server.serve_until_shutdown())
            loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-server", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.address is None:
            raise RuntimeError("server failed to start within 30s")

    def stop(self, timeout=30):
        if self._loop is not None and self.server is not None:
            self._loop.call_soon_threadsafe(
                self.server._shutdown.set
            )
        self._thread.join(timeout=timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False
