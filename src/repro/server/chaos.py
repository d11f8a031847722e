"""Deterministic chaos injection for the compile service.

The serving-layer analogue of the hardware-fault campaign (PR 5):
every fault is drawn as a **pure function of ``(seed, op_index)``** —
no wall-clock, no OS entropy — so any chaos failure replays exactly
from its spec.

Two layers:

:class:`ChaosTransport`
    A drop-in wrapper around the client's transport that injects
    disconnects (before/after the request is delivered), partial
    writes, torn frames (frame delivered without its newline), and
    deterministic delays. Faults raise
    :class:`~repro.errors.TransportError`, which the hardened
    :class:`~repro.server.client.ServerClient` absorbs through nonce
    idempotent retries.
:func:`run_chaos`
    The campaign driver behind ``repro chaos``: a real ``repro serve``
    subprocess, a repeat-skewed mixed workload, optional deterministic
    ``kill -9`` + restart of the server mid-campaign, and a final
    audit — journal verification (zero duplicate *computed*
    executions, no pending jobs), store fsck, and per-spec artifact
    digests for fault-free comparison
    (:func:`run_chaos_with_baseline`).
"""

import hashlib
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace

from repro.errors import TransportError
from repro.server.client import (
    CircuitBreaker,
    RetryPolicy,
    ServerClient,
    SocketTransport,
)
from repro.server.jobs import JobSpec
from repro.server.journal import verify_journal
from repro.server.server import JOURNAL_BASENAME
from repro.server.store import ArtifactStore

__all__ = [
    "CHAOS_KINDS",
    "ChaosSpec",
    "ChaosTransport",
    "build_requests",
    "chaos_decision",
    "chaos_delay",
    "kill_indices",
    "run_chaos",
    "run_chaos_with_baseline",
    "start_server_process",
]

#: Transport-level fault kinds ChaosTransport can inject.
CHAOS_KINDS = ("disconnect_before", "disconnect_after",
               "partial_write", "torn_frame", "delay")
CHAOS_SPEC_VERSION = 1


def chaos_decision(seed, op_index, fault_rate, kinds=CHAOS_KINDS):
    """The fault (or ``None``) for one operation — pure in
    ``(seed, op_index)``; ``fault_rate`` is the marginal probability."""
    if not kinds or fault_rate <= 0:
        return None
    digest = hashlib.sha256(
        f"chaos::{seed}::{op_index}".encode()
    ).digest()
    draw = int.from_bytes(digest[:8], "big") / 2 ** 64
    if draw >= fault_rate:
        return None
    return kinds[int.from_bytes(digest[8:12], "big") % len(kinds)]


def chaos_delay(seed, op_index, cap=0.05):
    """Deterministic injected latency in ``[0, cap]`` seconds."""
    digest = hashlib.sha256(
        f"chaos-delay::{seed}::{op_index}".encode()
    ).digest()
    return cap * digest[0] / 255.0


class ChaosTransport:
    """Fault-injecting wrapper with the :class:`SocketTransport`
    surface. One *op* is one ``sendall``+``readline`` round trip; the
    fault for op *i* is :func:`chaos_decision(seed, i, ...) <chaos_decision>`,
    overridable per-op with an explicit ``plan`` dict (tests use this
    to force a specific fault at a specific op)."""

    def __init__(self, host, port, timeout=600.0, seed=0,
                 fault_rate=0.25, kinds=CHAOS_KINDS, plan=None,
                 inner=None):
        self.inner = inner if inner is not None \
            else SocketTransport(host, port, timeout=timeout)
        self.seed = seed
        self.fault_rate = float(fault_rate)
        self.kinds = tuple(kinds)
        self.plan = dict(plan or {})
        self.ops = 0
        self.injected = []      # [(op_index, kind), ...]
        self.kind_counts = {}
        self._pending_disconnect = None

    @property
    def connected(self):
        return self.inner.connected

    def decision(self, op_index):
        if op_index in self.plan:
            return self.plan[op_index]
        return chaos_decision(self.seed, op_index, self.fault_rate,
                              self.kinds)

    def _record(self, op_index, kind):
        self.injected.append((op_index, kind))
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1

    def connect(self):
        self.inner.connect()

    def settimeout(self, timeout):
        self.inner.settimeout(timeout)

    def sendall(self, data):
        op = self.ops
        self.ops += 1
        self._pending_disconnect = None
        kind = self.decision(op)
        if kind is None:
            self.inner.sendall(data)
            return
        self._record(op, kind)
        if kind == "disconnect_before":
            # The request never reaches the server: a blind re-send
            # would be safe even without nonces.
            self.inner.close()
            raise TransportError(f"chaos[{op}]: disconnect before send")
        if kind == "partial_write":
            cut = max(1, len(data) // 2)
            self.inner.sendall(data[:cut])
            self.inner.close()
            raise TransportError(
                f"chaos[{op}]: partial write ({cut}/{len(data)} bytes)"
            )
        if kind == "torn_frame":
            # Everything but the newline: the server must drop the
            # frame, never execute it.
            self.inner.sendall(data[:-1])
            self.inner.close()
            raise TransportError(
                f"chaos[{op}]: torn frame (newline dropped)"
            )
        if kind == "delay":
            time.sleep(chaos_delay(self.seed, op))
            self.inner.sendall(data)
            return
        if kind == "disconnect_after":
            # The server processes the request but the response is
            # lost — the case only nonce idempotency makes safe.
            self.inner.sendall(data)
            self._pending_disconnect = op
            return
        raise ValueError(f"unknown chaos kind {kind!r}")

    def readline(self):
        if self._pending_disconnect is not None:
            op = self._pending_disconnect
            self._pending_disconnect = None
            self.inner.close()
            raise TransportError(f"chaos[{op}]: disconnect after send")
        return self.inner.readline()

    def close(self):
        self._pending_disconnect = None
        self.inner.close()


# -- campaign ----------------------------------------------------------
@dataclass
class ChaosSpec:
    """One replayable chaos campaign — every fault, retry delay, pick,
    and server kill is a pure function of these fields."""

    seed: int = 2026
    requests: int = 200
    fault_rate: float = 0.25
    kinds: tuple = CHAOS_KINDS
    workloads: str = "mm,conv"
    scale: float = 0.05
    sched_iters: int = 60
    attempts: int = 2
    unique_seeds: int = 2
    server_kills: int = 0
    retries: int = 12
    backoff_base: float = 0.02
    backoff_cap: float = 0.5

    def to_dict(self):
        record = asdict(self)
        record["kinds"] = list(self.kinds)
        record["chaos_spec_version"] = CHAOS_SPEC_VERSION
        return record

    @classmethod
    def from_dict(cls, record):
        record = dict(record)
        record.pop("chaos_spec_version", None)
        if "kinds" in record:
            record["kinds"] = tuple(record["kinds"])
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(record) - known
        if unknown:
            raise ValueError(
                f"unknown chaos spec fields: {sorted(unknown)}"
            )
        return cls(**record)


def build_requests(spec):
    """The campaign's request stream: ``(picks, population)`` where
    ``population`` is the distinct :class:`JobSpec` pool
    (compile + simulate per workload per job seed) and ``picks`` is a
    repeat-skewed index sequence — both pure in the spec."""
    population = []
    names = [n.strip() for n in spec.workloads.split(",") if n.strip()]
    for workload in names:
        for job_seed in range(spec.unique_seeds):
            for kind in ("compile", "simulate"):
                population.append(JobSpec(
                    kind=kind, workload=workload, scale=spec.scale,
                    seed=job_seed, sched_iters=spec.sched_iters,
                    attempts=spec.attempts,
                ))
    if not population:
        raise ValueError("chaos spec selects no workloads")
    rng = random.Random(f"chaos-picks::{spec.seed}")
    picks = []
    for _ in range(spec.requests):
        if picks and rng.random() < 0.65:
            picks.append(rng.choice(picks[-12:]))
        else:
            picks.append(rng.randrange(len(population)))
    return picks, population


def kill_indices(spec):
    """Request indices at which the campaign ``kill -9``s and restarts
    the server — pure in the spec; never the first fifth of the run
    (the cache needs some heat for recovery to be interesting)."""
    count = max(0, int(spec.server_kills))
    if count == 0 or spec.requests < 4:
        return set()
    rng = random.Random(f"chaos-kills::{spec.seed}")
    candidates = range(max(1, spec.requests // 5), spec.requests - 1)
    return set(rng.sample(candidates, min(count, len(candidates))))


def start_server_process(store_root, host="127.0.0.1", port=0,
                         workers=0, extra=(), timeout=60):
    """Launch ``repro serve`` as a real subprocess; returns
    ``(proc, (host, port))`` once it prints its address."""
    import repro

    src = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)
    ))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--host", host, "--port", str(port),
         "--store", str(store_root), "--workers", str(workers),
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    line = proc.stdout.readline()
    if not line.startswith("serving on "):
        proc.kill()
        rest = proc.stdout.read()
        raise RuntimeError(
            f"server failed to start: {line!r}{rest!r}"
        )
    address = line.split()[2]
    host, port_text = address.rsplit(":", 1)
    return proc, (host, int(port_text))


def run_chaos(spec, store_root, telemetry=None, progress=None):
    """Run one chaos campaign against a real server subprocess.

    Returns a report dict; ``report["ok"]`` requires 100% completion,
    zero digest mismatches between repeated picks, a clean journal
    audit (zero duplicate computed executions, nothing pending), and a
    clean store fsck.
    """
    os.makedirs(store_root, exist_ok=True)
    picks, population = build_requests(spec)
    kills = kill_indices(spec)
    proc, (host, port) = start_server_process(store_root)
    transport = ChaosTransport(
        host, port, seed=spec.seed, fault_rate=spec.fault_rate,
        kinds=spec.kinds,
    )
    client = ServerClient(
        host, port, transport=transport,
        retry=RetryPolicy(retries=spec.retries,
                          backoff_base=spec.backoff_base,
                          backoff_cap=spec.backoff_cap,
                          jitter_seed=spec.seed),
        breaker=CircuitBreaker(threshold=10, reset_after=0.2),
    )
    completed = 0
    failures = []
    digests = {}
    mismatches = []
    kills_done = 0
    final_stats = None
    start = time.perf_counter()
    try:
        for index, pick in enumerate(picks):
            job = population[pick]
            if index in kills:
                # Ack the job, kill -9 the server, restart on the same
                # port, then collect the acked id from the replayed
                # journal — the end-to-end recovery path.
                ack = client.submit(job)
                proc.send_signal(signal.SIGKILL)
                proc.wait()
                kills_done += 1
                proc, _ = start_server_process(store_root, port=port)
                if ack.get("ok"):
                    record = client.wait(ack["job_id"])
                    if not record.get("ok") and "unknown job_id" in \
                            str(record.get("error", "")):
                        # The ack was a cache hit: never journaled, so
                        # the id died with the process. Re-running is a
                        # pure cache read.
                        record = client.run(job)
                else:
                    record = client.run(job)
            else:
                record = client.run(job)
            if record.get("ok"):
                completed += 1
                digest = record.get("digest")
                if digest:
                    if pick in digests and digests[pick] != digest:
                        mismatches.append(
                            {"index": index, "pick": pick}
                        )
                    digests.setdefault(pick, digest)
            else:
                failures.append({
                    "index": index, "pick": pick,
                    "state": record.get("state"),
                    "error": record.get("error"),
                })
            if telemetry is not None:
                telemetry.event({
                    "type": "chaos_request", "index": index,
                    "ok": bool(record.get("ok")),
                    "cached": record.get("cached"),
                    "faults_so_far": len(transport.injected),
                })
            if progress is not None:
                progress(index + 1, len(picks))
    finally:
        client.close()
        try:
            with ServerClient(host, port,
                              retry=RetryPolicy(retries=6,
                                                jitter_seed=0)) \
                    as clean:
                final_stats = clean.stats()
                clean.shutdown()
        except Exception:
            pass
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    elapsed = time.perf_counter() - start
    journal_summary = verify_journal(
        os.path.join(store_root, JOURNAL_BASENAME)
    )
    store = ArtifactStore(store_root)
    fsck_dropped = store.fsck()
    store.close()
    faults = len(transport.injected)
    report = {
        "spec": spec.to_dict(),
        "store_root": str(store_root),
        "requests": len(picks),
        "population": len(population),
        "completed": completed,
        "failed": len(failures),
        "failures": failures[:10],
        "digest_mismatches": mismatches,
        "digests": {str(pick): digest
                    for pick, digest in sorted(digests.items())},
        "ops": transport.ops,
        "faults_injected": faults,
        "fault_rate_observed": round(
            faults / max(1, transport.ops), 4
        ),
        "fault_kinds": dict(sorted(transport.kind_counts.items())),
        "transport_errors": client.transport_errors,
        "backpressure_waits": client.backpressure_waits,
        "breaker_opens": client.breaker.opens
        if client.breaker is not None else 0,
        "server_kills": kills_done,
        "journal": journal_summary,
        "fsck_dropped": len(fsck_dropped),
        "seconds": round(elapsed, 3),
        "server_counters": (final_stats or {}).get("counters"),
    }
    report["ok"] = bool(
        completed == len(picks)
        and not failures
        and not mismatches
        and journal_summary["ok"]
        and not journal_summary["pending"]
        and not journal_summary["duplicate_computed_finishes"]
        and not fsck_dropped
    )
    if telemetry is not None:
        telemetry.incr("chaos_requests", len(picks))
        telemetry.incr("chaos_completed", completed)
        telemetry.incr("chaos_faults_injected", faults)
        telemetry.incr("chaos_transport_errors",
                       client.transport_errors)
        telemetry.incr("chaos_server_kills", kills_done)
        telemetry.event({"type": "chaos_summary", **{
            k: report[k] for k in (
                "requests", "completed", "failed", "ops",
                "faults_injected", "fault_rate_observed",
                "server_kills", "seconds", "ok",
            )
        }})
    return report


def run_chaos_with_baseline(spec, workdir, telemetry=None,
                            progress=None):
    """Run the same campaign fault-free and chaotic (separate stores)
    and pin digest parity: chaos must change *nothing* about what the
    service computes."""
    baseline_spec = replace(spec, fault_rate=0.0, server_kills=0)
    baseline = run_chaos(
        baseline_spec, os.path.join(workdir, "baseline")
    )
    chaos = run_chaos(
        spec, os.path.join(workdir, "chaos"),
        telemetry=telemetry, progress=progress,
    )
    digest_match = chaos["digests"] == baseline["digests"]
    return {
        "baseline": baseline,
        "chaos": chaos,
        "digest_match": digest_match,
        "ok": bool(baseline["ok"] and chaos["ok"] and digest_match),
    }
