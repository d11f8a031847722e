"""Compilation-as-a-service: an async job server over a persistent
content-addressed artifact store.

The DSAGEN flow is a pure function from (ADG, kernel, seed, flags) to
artifacts — compiled mapping, control program, ``SimResult`` — which is
exactly the shape of a cacheable compile service. This package turns
every existing subsystem (compile, simulate, fault campaigns, DSE) into
a job type on one substrate:

* :mod:`repro.server.store` — :class:`ArtifactStore`, the persistent
  on-disk content-addressed cache (atomic writes, versioned payloads,
  LRU/size eviction, hit/miss/eviction telemetry).
* :mod:`repro.server.jobs` — :class:`JobSpec` (JSON-serializable, pure
  in its inputs), :func:`job_key`, and the :func:`execute_job` worker.
* :mod:`repro.server.journal` — :class:`JobJournal`, the fsync'd
  append-only WAL that makes accepted jobs survive ``kill -9``, plus
  :func:`verify_journal`, the zero-duplicate-executions auditor.
* :mod:`repro.server.server` — :class:`CompileServer`, the asyncio
  front-end (priority queue, per-tenant quotas, coalescing, nonce
  idempotency, load shedding, journal recovery, sharded resilient
  worker pool) plus :class:`BackgroundServer` for embedding.
* :mod:`repro.server.client` — :class:`ServerClient`, the synchronous
  JSON-lines client (idempotent retries, capped backoff with seeded
  jitter, per-op deadlines, circuit breaker).
* :mod:`repro.server.chaos` — deterministic fault injection for the
  whole stack: :class:`ChaosTransport` and the ``repro chaos``
  campaign driver.

CLI: ``repro serve`` runs a server; ``repro submit`` sends one job;
``repro chaos`` runs a replayable failure-injection campaign;
``repro store fsck`` audits a store + journal on disk.
"""

from repro.server.chaos import (
    CHAOS_KINDS,
    ChaosSpec,
    ChaosTransport,
    chaos_decision,
    run_chaos,
    run_chaos_with_baseline,
)
from repro.server.client import (
    CircuitBreaker,
    RetryPolicy,
    ServerClient,
    SocketTransport,
    decode_artifact,
    parse_address,
)
from repro.server.jobs import (
    CACHEABLE_KINDS,
    JOB_KINDS,
    JobSpec,
    artifact_digest,
    execute_job,
    job_key,
)
from repro.server.journal import (
    JobJournal,
    read_journal,
    recover_state,
    verify_journal,
)
from repro.server.server import BackgroundServer, CompileServer, serve
from repro.server.store import ArtifactStore, StoreError

__all__ = [
    "ArtifactStore",
    "BackgroundServer",
    "CACHEABLE_KINDS",
    "CHAOS_KINDS",
    "ChaosSpec",
    "ChaosTransport",
    "CircuitBreaker",
    "CompileServer",
    "JOB_KINDS",
    "JobJournal",
    "JobSpec",
    "RetryPolicy",
    "ServerClient",
    "SocketTransport",
    "StoreError",
    "artifact_digest",
    "chaos_decision",
    "decode_artifact",
    "execute_job",
    "job_key",
    "parse_address",
    "read_journal",
    "recover_state",
    "run_chaos",
    "run_chaos_with_baseline",
    "serve",
    "verify_journal",
]
