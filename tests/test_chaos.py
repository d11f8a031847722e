"""Chaos-harness tests: decision purity, the fault-injecting transport
against a live journaled server, the nonce-idempotency regression for
the unsafe-retry bug, and a miniature end-to-end campaign with a real
``kill -9``."""

import collections
import os

import pytest

from repro.server import BackgroundServer, JobSpec, ServerClient
from repro.server.chaos import (
    CHAOS_KINDS,
    ChaosSpec,
    ChaosTransport,
    build_requests,
    chaos_decision,
    chaos_delay,
    kill_indices,
    run_chaos,
)
from repro.server.client import CircuitBreaker, RetryPolicy
from repro.server.journal import verify_journal
from repro.server.server import JOURNAL_BASENAME


def _client(address, **kwargs):
    kwargs.setdefault("retry", RetryPolicy(retries=10,
                                           backoff_base=0.01,
                                           backoff_cap=0.05,
                                           jitter_seed=0))
    kwargs.setdefault("breaker",
                      CircuitBreaker(threshold=50, reset_after=0.1))
    return ServerClient(*address, **kwargs)


class TestDecisions:
    def test_decision_is_pure_and_seed_sensitive(self):
        first = [chaos_decision(7, i, 0.3) for i in range(200)]
        again = [chaos_decision(7, i, 0.3) for i in range(200)]
        other = [chaos_decision(8, i, 0.3) for i in range(200)]
        assert first == again
        assert first != other

    def test_fault_rate_and_kind_spread(self):
        draws = [chaos_decision(2026, i, 0.30) for i in range(4000)]
        hits = [d for d in draws if d is not None]
        assert 0.25 < len(hits) / len(draws) < 0.35
        counts = collections.Counter(hits)
        assert set(counts) == set(CHAOS_KINDS)

    def test_rate_edges(self):
        assert chaos_decision(1, 0, 0.0) is None
        assert chaos_decision(1, 0, 1.0) in CHAOS_KINDS
        assert chaos_decision(1, 0, 0.5, kinds=()) is None

    def test_delay_bounded_and_pure(self):
        delays = [chaos_delay(3, i, cap=0.02) for i in range(100)]
        assert all(0.0 <= d <= 0.02 for d in delays)
        assert delays == [chaos_delay(3, i, cap=0.02)
                          for i in range(100)]


class TestChaosTransport:
    def test_campaign_completes_with_clean_journal(self, tmp_path):
        """Every fault kind fires against a live server, every request
        still completes, and the journal audits clean."""
        root = str(tmp_path / "s")
        with BackgroundServer(root, workers=0) as bg:
            host, port = bg.address
            transport = ChaosTransport(host, port, seed=11,
                                       fault_rate=0.45)
            client = _client((host, port), transport=transport)
            for i in range(30):
                record = client.run(JobSpec(
                    kind="noop", options={"tag": f"t{i % 5}"}
                ))
                assert record["ok"], record
            assert len(transport.injected) >= 5
            counters = client.stats()["counters"]
            # Exactly one admission per logical request, despite all
            # the retries: nonces attached the replays.
            assert counters["server_submits"] > 30
            assert counters["server_enqueued"] == 30
            client.close()
        summary = verify_journal(os.path.join(root, JOURNAL_BASENAME))
        assert summary["ok"], summary
        assert summary["pending"] == []
        assert summary["duplicate_computed_finishes"] == []

    def test_plan_forces_specific_faults(self, tmp_path):
        with BackgroundServer(str(tmp_path / "s"), workers=0) as bg:
            transport = ChaosTransport(
                *bg.address, fault_rate=0.0,
                plan={0: "partial_write", 2: "torn_frame"},
            )
            client = _client(bg.address, transport=transport)
            assert client.ping()        # ops 0,1: fault then retry
            assert client.ping()        # ops 2,3
            assert transport.injected == [(0, "partial_write"),
                                          (2, "torn_frame")]
            counters = client.stats()["counters"]
            assert counters["server_torn_frames"] >= 2
            client.close()


class TestNonceIdempotency:
    def test_lost_response_does_not_double_admit(self, tmp_path):
        """The unsafe-retry regression: the server executes the request
        but the response is lost. With tenant_quota=1 the old blind
        retry would double-count the quota and re-run the job; the
        nonce retry must attach to the original admission."""
        with BackgroundServer(str(tmp_path / "s"), workers=0,
                              tenant_quota=1) as bg:
            transport = ChaosTransport(
                *bg.address, fault_rate=0.0,
                plan={0: "disconnect_after"},
            )
            client = _client(bg.address, transport=transport)
            record = client.run(JobSpec(kind="noop",
                                        options={"duration": 0.2}))
            assert record["ok"]
            counters = client.stats()["counters"]
            assert counters["server_enqueued"] == 1
            assert counters["server_nonce_attach"] >= 1
            assert "server_rejected_quota" not in counters
            client.close()

    def test_same_nonce_returns_same_job_id(self, tmp_path):
        with BackgroundServer(str(tmp_path / "s"), workers=0) as bg:
            with ServerClient(*bg.address) as client:
                job = JobSpec(kind="noop",
                              options={"duration": 0.2}).to_dict()
                first = client.request({"op": "submit", "job": job,
                                        "nonce": "n-fixed"})
                second = client.request({"op": "submit", "job": job,
                                         "nonce": "n-fixed"})
                assert first["ok"] and second["ok"]
                assert first["job_id"] == second["job_id"]
                done = client.wait(first["job_id"])
                assert done["ok"]
                counters = client.stats()["counters"]
                assert counters["server_enqueued"] == 1


class TestSpecPlumbing:
    def test_spec_roundtrip_and_unknown_fields(self):
        spec = ChaosSpec(seed=3, requests=10, fault_rate=0.5)
        assert ChaosSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="unknown chaos spec"):
            ChaosSpec.from_dict({"seed": 1, "warp_factor": 9})

    def test_build_requests_pure_and_repeat_skewed(self):
        spec = ChaosSpec(seed=9, requests=100)
        picks, population = build_requests(spec)
        assert (picks, population) == build_requests(spec)
        assert len(picks) == 100
        # compile+simulate per workload per seed
        assert len(population) == 2 * 2 * 2
        assert len(set(picks)) < len(picks)   # repeats exercised
        with pytest.raises(ValueError, match="no workloads"):
            build_requests(ChaosSpec(workloads=" , "))

    def test_kill_indices_pure_and_bounded(self):
        spec = ChaosSpec(seed=4, requests=50, server_kills=2)
        kills = kill_indices(spec)
        assert kills == kill_indices(spec)
        assert len(kills) == 2
        assert all(10 <= k < 49 for k in kills)
        assert kill_indices(ChaosSpec(server_kills=0)) == set()


class TestMiniCampaign:
    def test_run_chaos_with_server_kill(self, tmp_path):
        """A miniature ``repro chaos`` campaign: real server
        subprocess, one deterministic ``kill -9`` + restart, and the
        full post-audit."""
        spec = ChaosSpec(
            seed=17, requests=6, fault_rate=0.5, workloads="mm",
            scale=0.05, sched_iters=40, attempts=2, unique_seeds=1,
            server_kills=1, retries=12, backoff_base=0.02,
            backoff_cap=0.2,
        )
        report = run_chaos(spec, str(tmp_path / "campaign"))
        assert report["ok"], report
        assert report["completed"] == 6
        assert report["server_kills"] == 1
        assert report["journal"]["duplicate_computed_finishes"] == []
        assert report["journal"]["pending"] == []
        assert report["fsck_dropped"] == 0
