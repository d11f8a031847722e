"""Tests for the compile service: canonical fingerprints, the bounded
compile memo, the content-addressed artifact store, the asyncio job
server (quotas, priorities, coalescing), and the served-equals-direct
bit-identicality guarantee.

The crash-safety suite (``kill -9`` of the CLI server mid-campaign)
lives in :class:`TestCrashSafety`, reusing the PR 5 kill-harness
pattern from ``test_dse_checkpoint.py``.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.adg import topologies
from repro.compiler import compile_kernel
from repro.harness import compile_cache
from repro.server import (
    ArtifactStore,
    BackgroundServer,
    JobSpec,
    ServerClient,
    artifact_digest,
    decode_artifact,
    job_key,
    parse_address,
)
from repro.server import server as server_module
from repro.server.client import RetryPolicy
from repro.server.journal import JobJournal, verify_journal
from repro.server.server import JOURNAL_BASENAME
from repro.sim import simulate
from repro.utils.fingerprint import canonical_dumps, content_digest
from repro.utils.rng import DeterministicRng
from repro.workloads import kernel as make_kernel

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Every test starts with a cold, default-bounded, store-less memo."""
    compile_cache.clear()
    compile_cache.detach_store()
    compile_cache.configure(compile_cache.DEFAULT_MAX_ENTRIES)
    yield
    compile_cache.clear()
    compile_cache.detach_store()
    compile_cache.configure(compile_cache.DEFAULT_MAX_ENTRIES)


# ---------------------------------------------------------------------
# Canonical fingerprints
# ---------------------------------------------------------------------
class _StringifiesLikeFive:
    """A non-JSON value whose str() collides with the string "5"."""

    def __str__(self):
        return "5"


class TestCanonicalFingerprint:
    def test_types_never_collide(self):
        values = [5, "5", 5.0, True, None, [5], {"5": 5}, (5,)]
        encodings = {canonical_dumps(v) for v in values[:-1]}
        assert len(encodings) == len(values) - 1
        # ...but tuples and lists are deliberately identified.
        assert canonical_dumps((5,)) == canonical_dumps([5])

    def test_float_bits_not_repr(self):
        assert canonical_dumps(0.0) != canonical_dumps(-0.0)
        assert canonical_dumps(1.0) != canonical_dumps(1)
        assert canonical_dumps(float("nan")) \
            == canonical_dumps(float("nan"))

    def test_dict_and_set_order_independent(self):
        assert canonical_dumps({"a": 1, "b": 2}) \
            == canonical_dumps({"b": 2, "a": 1})
        assert canonical_dumps({3, 1, 2}) == canonical_dumps({1, 2, 3})

    def test_unknown_types_raise(self):
        """Regression: json.dumps(default=str) used to coerce unknown
        values to strings, so distinct values that stringify alike
        collided. The canonical encoder refuses them instead."""
        with pytest.raises(TypeError):
            canonical_dumps(_StringifiesLikeFive())
        # The old encoding would have made these two keys identical:
        assert str(_StringifiesLikeFive()) == str(5)

    def test_collision_regression_in_cache_key(self):
        """A cache key holding a value that stringifies like another
        must raise, not silently alias the other entry."""
        adg = topologies.PRESETS["softbrain"]()
        compile_cache.cached_compile(
            adg, ("collision", 5), lambda: {"who": "int"}
        )
        with pytest.raises(TypeError):
            compile_cache.cached_compile(
                adg, ("collision", _StringifiesLikeFive()),
                lambda: {"who": "alien"},
            )

    def test_adg_fingerprint_structural(self):
        a = topologies.PRESETS["softbrain"]()
        b = topologies.PRESETS["softbrain"]()
        b.name = "renamed"
        assert compile_cache.adg_fingerprint(a) \
            == compile_cache.adg_fingerprint(b)
        c = topologies.PRESETS["dse_initial"]()
        assert compile_cache.adg_fingerprint(a) \
            != compile_cache.adg_fingerprint(c)

    def test_content_digest_is_hex_sha(self):
        digest = content_digest(["x", 1])
        assert len(digest) == 64
        assert digest == content_digest(("x", 1))


# ---------------------------------------------------------------------
# Bounded compile memo
# ---------------------------------------------------------------------
class TestBoundedMemo:
    def test_lru_eviction_and_counters(self):
        adg = topologies.PRESETS["softbrain"]()
        compile_cache.configure(max_entries=2)
        calls = []

        def factory(tag):
            def build():
                calls.append(tag)
                return {"tag": tag}
            return build

        compile_cache.cached_compile(adg, ("m", 1), factory(1))
        compile_cache.cached_compile(adg, ("m", 2), factory(2))
        # Touch 1 so 2 is the LRU victim.
        compile_cache.cached_compile(adg, ("m", 1), factory(1))
        compile_cache.cached_compile(adg, ("m", 3), factory(3))
        stats = compile_cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert stats["hits"] == 1
        # 2 was the LRU victim: re-requesting it recomputes; 1 and 3
        # are still resident and hit.
        compile_cache.cached_compile(adg, ("m", 3), factory(3))
        compile_cache.cached_compile(adg, ("m", 2), factory(2))
        assert calls == [1, 2, 3, 2]
        assert compile_cache.stats()["evictions"] == 2

    def test_deepcopy_on_return(self):
        adg = topologies.PRESETS["softbrain"]()
        first = compile_cache.cached_compile(
            adg, ("dc",), lambda: {"nested": [1]}
        )
        first["nested"].append(2)
        again = compile_cache.cached_compile(
            adg, ("dc",), lambda: {"nested": [1]}
        )
        assert again == {"nested": [1]}

    def test_store_delegation(self, tmp_path):
        adg = topologies.PRESETS["softbrain"]()
        store = ArtifactStore(str(tmp_path / "store"))
        compile_cache.attach_store(store)
        compile_cache.cached_compile(adg, ("sd",), lambda: {"v": 1})
        assert store.stats()["entries"] == 1
        # A cold memo falls through to the store instead of refetching.
        compile_cache.clear()
        got = compile_cache.cached_compile(
            adg, ("sd",), lambda: pytest.fail("should hit the store")
        )
        assert got == {"v": 1}
        assert compile_cache.stats()["store_hits"] == 1


# ---------------------------------------------------------------------
# Artifact store
# ---------------------------------------------------------------------
class TestArtifactStore:
    def test_roundtrip_and_persistence(self, tmp_path):
        root = str(tmp_path / "store")
        with ArtifactStore(root) as store:
            store.put("k", {"payload": [1, 2.5, "x"]})
            assert store.get("k") == {"payload": [1, 2.5, "x"]}
            store.put("none", None)
            assert store.get("none") is None          # not MISS
            assert store.get("absent") is store.MISS
        reopened = ArtifactStore(root)
        assert reopened.get("k") == {"payload": [1, 2.5, "x"]}
        assert reopened.stats()["entries"] == 2

    def test_lru_eviction_respects_recency(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "s"), max_entries=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1     # bump a
        store.put("c", 3)              # evicts b
        assert store.get("b") is store.MISS
        assert store.get("a") == 1
        assert store.stats()["evictions"] == 1

    def test_max_bytes_eviction(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "s"), max_bytes=4096)
        store.put("big1", list(range(2000)))
        store.put("big2", list(range(2000)))
        assert store.stats()["evictions"] >= 1
        assert store.stats()["bytes"] <= 4096

    def test_truncated_object_dropped_on_reopen(self, tmp_path):
        root = str(tmp_path / "s")
        store = ArtifactStore(root)
        digest = store.put("victim", {"x": 1})
        store.close()
        path = os.path.join(root, "objects", digest + ".bin")
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        reopened = ArtifactStore(root)
        assert reopened.get("victim") is reopened.MISS
        assert reopened.stats()["torn_dropped"] == 1
        # The dropped entry is also gone from the on-disk index.
        final = ArtifactStore(root)
        assert final.stats()["entries"] == 0

    def test_same_size_corruption_detected_on_get(self, tmp_path):
        root = str(tmp_path / "s")
        store = ArtifactStore(root)
        digest = store.put("victim", b"A" * 64)
        store.close()
        path = os.path.join(root, "objects", digest + ".bin")
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF                     # same size, wrong bits
        with open(path, "wb") as handle:
            handle.write(data)
        reopened = ArtifactStore(root)       # size check passes
        assert reopened.get("victim") is reopened.MISS
        assert reopened.stats()["torn_dropped"] == 1

    def test_orphan_objects_and_tmp_files_collected(self, tmp_path):
        root = str(tmp_path / "s")
        store = ArtifactStore(root)
        store.put("keep", 1)
        store.close()
        objects = os.path.join(root, "objects")
        with open(os.path.join(objects, "f" * 64 + ".bin"), "wb") as h:
            h.write(b"orphan")
        with open(os.path.join(objects, "left.tmp"), "wb") as h:
            h.write(b"tmp")
        ArtifactStore(root)
        names = sorted(os.listdir(objects))
        assert len(names) == 1 and names[0].endswith(".bin")

    def test_no_tmp_leftovers_after_puts(self, tmp_path):
        root = str(tmp_path / "s")
        store = ArtifactStore(root)
        for index in range(5):
            store.put(f"k{index}", index)
        store.close()
        leftovers = [name for name in os.listdir(root)
                     if name.endswith(".tmp")]
        leftovers += [name
                      for name in os.listdir(os.path.join(root,
                                                          "objects"))
                      if name.endswith(".tmp")]
        assert leftovers == []

    def test_fsck_clean_store(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "s"))
        for index in range(3):
            store.put(f"k{index}", {"i": index})
        assert store.fsck() == []


# ---------------------------------------------------------------------
# Job specs
# ---------------------------------------------------------------------
class TestJobSpec:
    def test_round_trips_through_json(self):
        spec = JobSpec(kind="simulate", workload="md", scale=0.1,
                       seed=3, sim_engine="event",
                       options={"cases": 2}, tenant="t", priority=1)
        wire = json.loads(json.dumps(spec.to_dict()))
        assert JobSpec.from_dict(wire) == spec

    def test_rejects_unknown_kind_and_fields(self):
        with pytest.raises(ValueError):
            JobSpec(kind="transmogrify")
        with pytest.raises(ValueError):
            JobSpec.from_dict({"kind": "compile", "bogus": 1})

    def test_key_excludes_scheduling_metadata(self):
        base = JobSpec(kind="compile", workload="mm")
        other = JobSpec(kind="compile", workload="mm",
                        tenant="elsewhere", priority=0)
        assert job_key(base) == job_key(other)
        different = JobSpec(kind="compile", workload="mm", seed=99)
        assert job_key(base) != job_key(different)

    def test_parse_address(self):
        assert parse_address("1.2.3.4:99") == ("1.2.3.4", 99)
        assert parse_address("1.2.3.4") == ("1.2.3.4", 8753)
        assert parse_address(":99") == ("127.0.0.1", 99)


# ---------------------------------------------------------------------
# Server scheduling semantics (fast: noop jobs only)
# ---------------------------------------------------------------------
def _noop(tag, duration=0.0, **kw):
    return JobSpec(kind="noop", options={"tag": tag,
                                         "duration": duration}, **kw)


class TestServerScheduling:
    def test_quota_rejects_and_recovers(self, tmp_path):
        with BackgroundServer(str(tmp_path / "s"), workers=0,
                              tenant_quota=1) as bg:
            with ServerClient(*bg.address) as client:
                blocker = client.submit(_noop("blocker", 0.5,
                                              tenant="busy"))
                assert blocker["ok"]
                rejected = client.submit(_noop("extra", 0.0,
                                               tenant="busy"))
                assert not rejected["ok"]
                assert "quota-exceeded" in rejected["error"]
                other = client.submit(_noop("fine", 0.0,
                                            tenant="calm"))
                assert other["ok"]
                assert client.wait(blocker["job_id"])["ok"]
                retried = client.run(_noop("extra", 0.0,
                                           tenant="busy"))
                assert retried["ok"]
                counters = client.stats()["counters"]
                assert counters["server_rejected_quota"] == 1

    def test_priority_orders_execution(self, tmp_path):
        with BackgroundServer(str(tmp_path / "s"), workers=0) as bg:
            with ServerClient(*bg.address) as client:
                blocker = client.submit(_noop("blocker", 0.4))
                time.sleep(0.1)   # let the blocker start running
                low = client.submit(_noop("low", 0.0, priority=10))
                high = client.submit(_noop("high", 0.0, priority=0))
                low_record = client.wait(low["job_id"])
                high_record = client.wait(high["job_id"])
                client.wait(blocker["job_id"])
                assert high_record["exec_seq"] < low_record["exec_seq"]

    def test_noop_is_never_cached(self, tmp_path):
        with BackgroundServer(str(tmp_path / "s"), workers=0) as bg:
            with ServerClient(*bg.address) as client:
                first = client.run(_noop("same"))
                second = client.run(_noop("same"))
                assert not first["cached"] and not second["cached"]
                assert client.stats()["store"]["entries"] == 0

    def test_unknown_ops_and_jobs_report_errors(self, tmp_path):
        with BackgroundServer(str(tmp_path / "s"), workers=0) as bg:
            with ServerClient(*bg.address) as client:
                assert client.ping()
                bad_op = client.request({"op": "frobnicate"})
                assert not bad_op["ok"]
                missing = client.wait("job-9999")
                assert not missing["ok"]
                bad_kind = client.request(
                    {"op": "run", "job": {"kind": "nope"}}
                )
                assert not bad_kind["ok"]


# ---------------------------------------------------------------------
# Served == direct (bit-identicality)
# ---------------------------------------------------------------------
SEED = 7
SCALE = 0.05
ITERS = 60


def _direct_compile():
    return compile_kernel(
        make_kernel("mm", SCALE), topologies.PRESETS["softbrain"](),
        rng=DeterministicRng(SEED), max_iters=ITERS, attempts=3,
    )


def _spec(kind, **kw):
    fields = {"workload": "mm", "preset": "softbrain", "scale": SCALE,
              "seed": SEED, "sched_iters": ITERS, "attempts": 3}
    fields.update(kw)
    return JobSpec(kind=kind, **fields)


class TestServedEqualsDirect:
    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("served") / "store")
        with BackgroundServer(root, workers=0) as bg:
            with ServerClient(*bg.address) as client:
                yield client

    def test_compile_bit_identical(self, service):
        record = service.run(_spec("compile"))
        assert record["ok"] and not record["cached"]
        served = decode_artifact(record)
        direct = _direct_compile()
        assert record["digest"] == artifact_digest(direct)
        assert served.params.describe() == direct.params.describe()
        assert {repr(v): n for v, n in
                served.schedule.placement.items()} \
            == {repr(v): n for v, n in
                direct.schedule.placement.items()}
        assert [repr(c) for c in served.program] \
            == [repr(c) for c in direct.program]
        # The served artifact simulates identically to the direct one.
        results = []
        for compiled in (served, direct):
            workload = make_kernel("mm", SCALE)
            memory = workload.make_memory()
            compiled.scope.bind_constants(memory)
            adg = topologies.PRESETS["softbrain"]()
            results.append(simulate(adg, compiled, memory))
        assert results[0].cycles == results[1].cycles
        assert results[0].memory == results[1].memory
        assert results[0].region_cycles == results[1].region_cycles

    def test_warm_resubmit_hits_and_matches(self, service):
        cold = service.run(_spec("compile"))
        warm = service.run(_spec("compile"))
        assert warm["cached"]
        assert warm["digest"] == cold["digest"]

    def test_hits_share_one_encoding(self, tmp_path, monkeypatch):
        """Hits on one key reuse one encoded artifact (no re-pickle per
        hit, no copy per retained record); the encodings kept are
        bounded by key."""
        monkeypatch.setattr(server_module, "_HIT_ENCODING_RETENTION", 1)
        with BackgroundServer(str(tmp_path / "s"), workers=0) as bg:
            with ServerClient(*bg.address) as client:
                cold = client.run(_spec("compile"))
                hits = [client.run(_spec("compile")) for _ in range(3)]
                client.run(_spec("compile", seed=SEED + 1))
                client.run(_spec("compile", seed=SEED + 1))
            records = [job.record for job in bg.server._completed.values()
                       if job.record["cached"]]
            retained = list(bg.server._hit_encodings)
        assert all(hit["cached"] for hit in hits)
        assert {hit["digest"] for hit in hits} == {cold["digest"]}
        assert decode_artifact(hits[0]).params.describe() \
            == decode_artifact(cold).params.describe()
        assert len(records) == 4
        assert all(record["artifact_b64"] is records[0]["artifact_b64"]
                   for record in records[:3])
        assert retained == [job_key(_spec("compile", seed=SEED + 1))]

    def test_simulate_job_matches_direct_sim(self, service):
        record = service.run(_spec("simulate"))
        assert record["ok"]
        served = decode_artifact(record)
        direct = _direct_compile()
        workload = make_kernel("mm", SCALE)
        memory = workload.make_memory()
        direct.scope.bind_constants(memory)
        reference = simulate(
            topologies.PRESETS["softbrain"](), direct, memory
        )
        assert served.cycles == reference.cycles
        assert served.memory == reference.memory
        assert served.instances == reference.instances
        assert record["digest"] == artifact_digest(reference)
        # Resubmits are hits with the same digest.
        again = service.run(_spec("simulate"))
        assert again["cached"]
        assert again["digest"] == record["digest"]

    def test_failed_compiles_replay_as_cached_failures(self, service):
        # join needs indirect/join hardware the CCA preset lacks; the
        # deterministic failure is cached exactly like a success.
        spec = _spec("compile", workload="join", preset="cca")
        failed = service.run(spec)
        assert not failed["ok"] and failed["status"] == "failed"
        replay = service.run(spec)
        assert not replay["ok"] and replay["cached"]

    def test_coalescing_joins_inflight_work(self, service):
        spec = _spec("compile", seed=SEED + 1)
        first = service.submit(spec)
        with ServerClient(*parse_address(
                f"{service.host}:{service.port}")) as second_client:
            second = second_client.submit(spec)
            record_a = service.wait(first["job_id"])
            record_b = second_client.wait(second["job_id"])
        assert record_a["digest"] == record_b["digest"]
        assert second["job_id"] == first["job_id"]   # same job


# ---------------------------------------------------------------------
# Crash safety (kill -9 mid-write) + CLI round-trip
# ---------------------------------------------------------------------
def _start_cli_server(store_root, *extra):
    """Start ``repro serve --port 0`` and return (proc, (host, port))."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store", store_root, "--workers", "0", *extra],
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.time() + 60
    line = ""
    while time.time() < deadline:
        line = proc.stdout.readline()
        if line.startswith("serving on "):
            break
        if proc.poll() is not None:
            raise RuntimeError(
                f"server died at startup: {line}{proc.stdout.read()}"
            )
    host_port = line.split()[2]
    return proc, parse_address(host_port)


class TestCrashSafety:
    def test_kill_9_mid_write_reopens_clean(self, tmp_path):
        """SIGKILL the serving process while it is writing artifacts;
        the reopened store must never reference a torn artifact."""
        store_root = str(tmp_path / "store")
        proc, address = _start_cli_server(store_root)
        try:
            with ServerClient(*address) as client:
                for seed in range(3):
                    response = client.submit(
                        _spec("compile", seed=seed)
                    )
                    assert response["ok"], response
                # Kill as soon as the first artifact lands — the
                # remaining jobs are mid-compile/mid-write.
                objects = os.path.join(store_root, "objects")
                deadline = time.time() + 120
                while time.time() < deadline:
                    if os.path.isdir(objects) and any(
                        name.endswith(".bin")
                        for name in os.listdir(objects)
                    ):
                        break
                    time.sleep(0.02)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        store = ArtifactStore(store_root)
        # Deep verification: every surviving index entry must load
        # bit-clean; nothing may be referenced-but-torn.
        assert store.fsck() == []
        stats = store.stats()
        assert stats["entries"] >= 1
        # And the surviving artifacts are genuinely usable.
        for seed in range(3):
            envelope = store.get(job_key(_spec("compile", seed=seed)))
            if envelope is store.MISS:
                continue
            compiled = envelope["artifact"]
            assert compiled.ok
            assert artifact_digest(compiled)

    def test_cli_submit_round_trip(self, tmp_path):
        """`repro submit` against `repro serve`, plus cross-process
        bit-identicality: the served digest matches a direct compile
        performed in *this* process."""
        store_root = str(tmp_path / "store")
        proc, address = _start_cli_server(store_root)
        try:
            host, port = address
            result = subprocess.run(
                [sys.executable, "-m", "repro", "submit", "compile",
                 "mm", "--server", f"{host}:{port}",
                 "--scale", str(SCALE), "--seed", str(SEED),
                 "--sched-iters", str(ITERS)],
                env={**os.environ, "PYTHONPATH": "src"},
                cwd=REPO_ROOT, capture_output=True, text=True,
                timeout=300,
            )
            assert result.returncode == 0, result.stdout + result.stderr
            record = json.loads(result.stdout)
            assert record["ok"]
            with ServerClient(host, port) as client:
                stats = client.stats()
                assert stats["counters"]["server_jobs_done"] >= 1
                client.shutdown()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        # Digest parity across processes: the CLI used attempts=2
        # (the JobSpec default), so mirror that here.
        direct = compile_kernel(
            make_kernel("mm", SCALE),
            topologies.PRESETS["softbrain"](),
            rng=DeterministicRng(SEED), max_iters=ITERS,
        )
        assert record["digest"] == artifact_digest(direct)
        # The artifact also survives a fresh store read.
        store = ArtifactStore(store_root)
        spec = JobSpec(kind="compile", workload="mm", scale=SCALE,
                       seed=SEED, sched_iters=ITERS)
        envelope = store.get(job_key(spec))
        assert envelope is not store.MISS
        assert artifact_digest(envelope["artifact"]) == record["digest"]


# ---------------------------------------------------------------------
# Journal-backed crash recovery (kill -9 mid-queue)
# ---------------------------------------------------------------------
class TestJournalRecovery:
    def test_kill_9_mid_queue_loses_no_acked_jobs(self, tmp_path):
        """SIGKILL the server with acked-but-unfinished jobs queued;
        a restart on the same store must replay the journal, finish
        every acked job under its original id, and produce digests
        bit-identical to an uninterrupted direct compile."""
        store_root = str(tmp_path / "store")
        proc, address = _start_cli_server(store_root)
        acks = []
        try:
            with ServerClient(*address) as client:
                for seed in (0, 1):
                    response = client.submit(_spec("compile",
                                                   seed=seed))
                    assert response["ok"], response
                    acks.append(response["job_id"])
            # The acks are durable (fsync-before-ack); kill now, with
            # both jobs still queued or mid-compile.
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        proc, address = _start_cli_server(store_root)
        records = {}
        try:
            with ServerClient(*address) as client:
                for seed, job_id in zip((0, 1), acks):
                    record = client.wait(job_id)
                    assert record["ok"], record
                    records[seed] = record
                counters = client.stats()["counters"]
                recovered = (
                    counters.get("journal_recovered_jobs", 0)
                    + counters.get("journal_recovered_cached", 0)
                )
                assert recovered == 2
                client.shutdown()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        # Zero lost acked jobs, zero duplicate computed executions.
        summary = verify_journal(
            os.path.join(store_root, JOURNAL_BASENAME)
        )
        assert summary["pending"] == []
        assert summary["duplicate_computed_finishes"] == []
        # Bit-identical to the uninterrupted computation.
        for seed in (0, 1):
            direct = compile_kernel(
                make_kernel("mm", SCALE),
                topologies.PRESETS["softbrain"](),
                rng=DeterministicRng(seed), max_iters=ITERS,
                attempts=3,
            )
            assert records[seed]["digest"] == artifact_digest(direct)


# ---------------------------------------------------------------------
# Load shedding and backpressure
# ---------------------------------------------------------------------
class TestLoadShedding:
    def test_overload_envelope_and_inflight_completion(self, tmp_path):
        """Past max_queue_depth the server answers with an honest
        overload envelope (never a silent drop), and everything it
        already accepted still completes."""
        with BackgroundServer(str(tmp_path / "s"), workers=0,
                              max_queue_depth=2) as bg:
            with ServerClient(*bg.address) as client:
                blocker = client.submit(_noop("blocker", 0.6))
                time.sleep(0.15)            # let it start running
                queued = [client.submit(_noop(f"q{i}"))
                          for i in range(2)]
                assert all(q["ok"] for q in queued)
                rejected = client.request({
                    "op": "submit",
                    "job": _noop("extra").to_dict(),
                })
                assert not rejected["ok"]
                assert rejected["overloaded"]
                assert rejected["error"] == "overloaded"
                assert rejected["retry_after"] > 0
                assert rejected["queued"] == 2
                assert rejected["max_queue_depth"] == 2
                assert client.wait(blocker["job_id"])["ok"]
                for ack in queued:
                    assert client.wait(ack["job_id"])["ok"]
                counters = client.stats()["counters"]
                assert counters["server_shed_rejects"] == 1
                assert "server_shed" not in counters

    def test_high_priority_displaces_lowest_queued(self, tmp_path):
        """Shedding is priority-aware: a strictly-better admission
        evicts the worst queued job, which finishes with an honest
        shed record rather than vanishing."""
        with BackgroundServer(str(tmp_path / "s"), workers=0,
                              max_queue_depth=2) as bg:
            with ServerClient(*bg.address) as client:
                blocker = client.submit(_noop("blocker", 0.6))
                time.sleep(0.15)
                low1 = client.submit(_noop("low1", 0.0, priority=10))
                low2 = client.submit(_noop("low2", 0.0, priority=10))
                high = client.submit(_noop("high", 0.0, priority=0))
                assert high["ok"]
                # The later of the two equal-priority jobs was shed.
                shed = client.wait(low2["job_id"])
                assert shed["state"] == "shed"
                assert not shed["ok"]
                assert shed["overloaded"]
                assert shed["retry_after"] > 0
                assert client.wait(blocker["job_id"])["ok"]
                assert client.wait(low1["job_id"])["ok"]
                assert client.wait(high["job_id"])["ok"]
                counters = client.stats()["counters"]
                assert counters["server_shed"] == 1
                assert counters["server_jobs_shed"] == 1

    def test_run_backs_off_and_recovers(self, tmp_path):
        """client.run() absorbs overload envelopes: it backs off by
        the server's retry_after hint and completes once the queue
        drains."""
        with BackgroundServer(str(tmp_path / "s"), workers=0,
                              max_queue_depth=1) as bg:
            client = ServerClient(
                *bg.address,
                retry=RetryPolicy(retries=8, backoff_base=0.02,
                                  backoff_cap=0.1, jitter_seed=0),
            )
            blocker = client.submit(_noop("blocker", 0.3))
            time.sleep(0.1)
            filler = client.submit(_noop("filler", 0.1))
            assert filler["ok"]
            record = client.run(_noop("pushed", 0.0))
            assert record["ok"], record
            assert client.backpressure_waits >= 1
            assert client.wait(blocker["job_id"])["ok"]
            stats = client.stats()
            assert stats["counters"]["server_shed_rejects"] >= 1
            assert stats["max_queue_depth"] == 1
            client.close()


# ---------------------------------------------------------------------
# `repro store fsck` CLI
# ---------------------------------------------------------------------
class TestStoreFsckCli:
    @staticmethod
    def _fsck(store_root, *extra):
        return subprocess.run(
            [sys.executable, "-m", "repro", "store", "fsck",
             "--store", store_root, *extra],
            env={**os.environ, "PYTHONPATH": "src"}, cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=120,
        )

    def test_fsck_flags_corruption_and_gc_compacts(self, tmp_path):
        store_root = str(tmp_path / "store")
        store = ArtifactStore(store_root)
        store.put(canonical_dumps(("obj", 1)),
                  {"artifact": b"payload-one"})
        store.put(canonical_dumps(("obj", 2)),
                  {"artifact": b"payload-two"})
        store.close()
        with JobJournal(os.path.join(store_root,
                                     JOURNAL_BASENAME)) as journal:
            journal.append({"event": "accepted", "job_id": "job-1",
                            "key": "k1", "spec": {"kind": "noop"},
                            "nonce": None})
            journal.append({"event": "finished", "job_id": "job-1",
                            "key": "k1", "status": "ok",
                            "cached": False, "digest": "d1"})
            journal.append({"event": "accepted", "job_id": "job-2",
                            "key": "k2", "spec": {"kind": "noop"},
                            "nonce": None})
        clean = self._fsck(store_root)
        assert clean.returncode == 0, clean.stdout + clean.stderr
        report = json.loads(clean.stdout)
        assert report["ok"]
        assert report["dropped_objects"] == []
        assert report["journal"]["pending"] == ["job-2"]
        # Bit-flip one object payload on disk.
        objects = os.path.join(store_root, "objects")
        victim = os.path.join(objects, sorted(os.listdir(objects))[0])
        blob = bytearray(open(victim, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(victim, "wb") as handle:
            handle.write(bytes(blob))
        damaged = self._fsck(store_root)
        assert damaged.returncode == 1
        report = json.loads(damaged.stdout)
        assert not report["ok"]
        assert len(report["dropped_objects"]) == 1
        assert report["store"]["entries"] == 1
        # fsck dropped the damaged entry; --gc also compacts the
        # journal down to its pending records.
        collected = self._fsck(store_root, "--gc")
        assert collected.returncode == 0
        report = json.loads(collected.stdout)
        assert report["ok"]
        assert report["journal_compacted"] == {"kept_records": 1,
                                               "dropped_records": 2}
        summary = verify_journal(
            os.path.join(store_root, JOURNAL_BASENAME)
        )
        assert summary["pending"] == ["job-2"]
        assert summary["records"] == 1
