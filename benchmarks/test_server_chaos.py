"""Chaos benchmark: the compile service under deterministic fault
injection.

Replays a seeded 200-request mixed compile/simulate campaign through
:class:`~repro.server.chaos.ChaosTransport` against a real
``repro serve`` subprocess, with every fault — disconnects before and
after delivery, partial writes, torn frames, injected delays, plus one
``kill -9`` + restart of the server — drawn as a pure function of
``(seed, op_index)``. The identical campaign also runs fault-free into
a separate store as the baseline.

Pinned acceptance:

* observed transport fault rate at least **20%** of ops;
* **100%** request completion despite the faults;
* **zero duplicate computed executions**, proven from the durable job
  journal (at most one ``cached: false`` finish per job key);
* every artifact digest **bit-identical** to the fault-free baseline —
  chaos must change nothing about what the service computes.
"""

import json

from conftest import run_once

from repro.server.chaos import ChaosSpec, run_chaos_with_baseline

REQUESTS = 200
SEED = 2026
FAULT_RATE = 0.3
MIN_OBSERVED_FAULT_RATE = 0.20


def test_chaos_campaign_completes_bit_identically(benchmark, tmp_path):
    spec = ChaosSpec(
        seed=SEED,
        requests=REQUESTS,
        fault_rate=FAULT_RATE,
        workloads="mm,conv",
        scale=0.05,
        sched_iters=60,
        attempts=2,
        unique_seeds=2,
        server_kills=1,
        retries=12,
        backoff_base=0.02,
        backoff_cap=0.5,
    )
    out = run_once(
        benchmark, run_chaos_with_baseline,
        spec=spec, workdir=str(tmp_path),
    )

    chaos = out["chaos"]
    baseline = out["baseline"]
    report = {
        "requests": chaos["requests"],
        "completed": chaos["completed"],
        "failed": chaos["failed"],
        "ops": chaos["ops"],
        "faults_injected": chaos["faults_injected"],
        "fault_rate_observed": chaos["fault_rate_observed"],
        "fault_kinds": chaos["fault_kinds"],
        "transport_errors": chaos["transport_errors"],
        "backpressure_waits": chaos["backpressure_waits"],
        "server_kills": chaos["server_kills"],
        "journal": {k: chaos["journal"][k] for k in
                    ("ok", "records", "accepted", "finished",
                     "pending", "duplicate_computed_finishes")},
        "digest_match": out["digest_match"],
        "seconds": chaos["seconds"],
        "baseline_seconds": baseline["seconds"],
    }
    print(f"\nserver chaos: {json.dumps(report, indent=2)}")

    # -- pinned acceptance.
    assert baseline["ok"], baseline
    assert chaos["fault_rate_observed"] >= MIN_OBSERVED_FAULT_RATE, \
        f"chaos campaign too calm: {report}"
    assert chaos["completed"] == chaos["requests"], \
        f"lost requests under chaos: {report}"
    assert chaos["failed"] == 0 and not chaos["failures"]
    assert chaos["server_kills"] == 1
    # Zero duplicate computed executions, proven from the journal.
    assert chaos["journal"]["ok"], report
    assert chaos["journal"]["duplicate_computed_finishes"] == []
    assert chaos["journal"]["pending"] == []
    assert chaos["fsck_dropped"] == 0
    # Chaos changed nothing about what got computed.
    assert out["digest_match"], (
        "digests diverged from the fault-free baseline: "
        f"{sorted(set(chaos['digests'].items()) ^ set(baseline['digests'].items()))}"
    )
    assert out["ok"]
