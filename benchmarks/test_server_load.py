"""Load-generator benchmark: the compile service under mixed traffic.

Starts a real ``repro serve`` process on an empty store, then replays a
few hundred mixed compile/simulate requests whose distribution is
heavily skewed toward repeats — the service's production shape, where a
handful of (ADG, kernel, seed) triples dominate the request stream.

Reported (and written as a JSONL run log that is read back):

* cold latency — mean seconds to fill the store with the unique
  requests (real compiles);
* warm replay — p50/p99 latency, requests/second throughput, and the
  store hit rate over the replayed stream;
* the pinned acceptance: warm-cache replay at least **5x** faster per
  request than a cold compile, and every served artifact bit-identical
  (canonical digest) to a direct in-process compile of the same
  request.
"""

import json
import os
import random
import subprocess
import sys
import time

from conftest import run_once

from repro.adg import topologies
from repro.compiler import compile_kernel
from repro.server import (
    JobSpec,
    ServerClient,
    artifact_digest,
    parse_address,
)
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.workloads import kernel as make_kernel

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REQUESTS = 300
SCALE = 0.05
SCHED_ITERS = 60
SEED = 2026
MIN_SPEEDUP = 5.0

#: The unique request population: compile and simulate jobs over two
#: workloads and two seeds. The replay stream draws from these with a
#: skewed (Zipf-flavoured) weight so a few keys dominate — repeats are
#: the common case a compile service exists to absorb.
def _unique_specs():
    specs = []
    for kind in ("compile", "simulate"):
        for workload in ("mm", "conv"):
            for seed in (0, 1):
                specs.append(JobSpec(
                    kind=kind, workload=workload, preset="softbrain",
                    scale=SCALE, seed=seed, sched_iters=SCHED_ITERS,
                    attempts=3,
                ))
    return specs


def _start_server(store_root):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store", store_root, "--workers", "0"],
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.time() + 60
    while time.time() < deadline:
        line = proc.stdout.readline()
        if line.startswith("serving on "):
            return proc, parse_address(line.split()[2])
        if proc.poll() is not None:
            break
    raise RuntimeError("server failed to start")


def _percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _drive_load(client, specs):
    """The replay loop: returns (latencies, digests_by_spec_index)."""
    rng = random.Random(SEED)
    # Skewed repeat distribution: weight 1/(rank+1)^2 over the
    # population — the top two keys absorb most of the traffic.
    weights = [1.0 / (rank + 1) ** 2 for rank in range(len(specs))]
    picks = rng.choices(range(len(specs)), weights=weights,
                        k=REQUESTS)
    latencies = []
    digests = {}
    for index in picks:
        start = time.perf_counter()
        record = client.run(specs[index])
        latencies.append(time.perf_counter() - start)
        assert record["ok"], record
        previous = digests.setdefault(index, record["digest"])
        assert previous == record["digest"], \
            f"unstable artifact for request {index}"
    return latencies, digests


def test_server_load_warm_replay_speedup(benchmark, tmp_path):
    specs = _unique_specs()
    store_root = str(tmp_path / "store")
    proc, address = _start_server(store_root)
    try:
        with ServerClient(*address) as client:
            # -- cold pass: every unique request is a real compile.
            cold_latencies = []
            for spec in specs:
                start = time.perf_counter()
                record = client.run(spec)
                cold_latencies.append(time.perf_counter() - start)
                assert record["ok"], record
                assert not record["cached"]
            baseline_stats = client.stats()

            # -- warm replay: the mixed, repeat-skewed stream.
            latencies, digests = run_once(
                benchmark, _drive_load, client=client, specs=specs,
            )
            stats = client.stats()
            client.shutdown()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()

    hits = stats["counters"]["server_cache_hits"] \
        - baseline_stats["counters"].get("server_cache_hits", 0)
    hit_rate = hits / REQUESTS
    cold_mean = sum(cold_latencies) / len(cold_latencies)
    warm_mean = sum(latencies) / len(latencies)
    p50 = _percentile(latencies, 0.50)
    p99 = _percentile(latencies, 0.99)
    throughput = len(latencies) / sum(latencies)
    speedup = cold_mean / warm_mean

    report = {
        "requests": REQUESTS,
        "unique": len(specs),
        "cold_mean_s": round(cold_mean, 4),
        "warm_mean_s": round(warm_mean, 6),
        "p50_s": round(p50, 6),
        "p99_s": round(p99, 6),
        "throughput_rps": round(throughput, 1),
        "hit_rate": round(hit_rate, 4),
        "speedup": round(speedup, 1),
        "store": stats["store"],
    }
    print(f"\nserver load: {json.dumps(report, indent=2)}")
    out = str(tmp_path / "server-load.jsonl")
    with Telemetry(jsonl_path=out) as telemetry:
        for index, latency in enumerate(latencies):
            telemetry.event({"type": "request", "index": index,
                             "seconds": latency})
        telemetry.event({"type": "summary", **report})
    with open(out) as handle:
        records = [json.loads(line) for line in handle]
    assert records[-1] == {"type": "summary", **report}
    assert sum(r["type"] == "request" for r in records) == REQUESTS

    # -- bit-identicality: the artifact served for the hottest compile
    # request matches a direct in-process compile of the same inputs.
    hottest = specs[0]
    assert hottest.kind == "compile"
    direct = compile_kernel(
        make_kernel(hottest.workload, hottest.scale),
        topologies.PRESETS[hottest.preset](),
        rng=DeterministicRng(hottest.seed),
        max_iters=hottest.sched_iters, attempts=hottest.attempts,
    )
    assert digests[0] == artifact_digest(direct)

    # -- pinned acceptance.
    assert len(latencies) == REQUESTS
    assert hit_rate >= 0.95, f"warm replay should hit: {report}"
    # Hits answered from memory still count as store hits.
    assert stats["store"]["hits"] >= round(hit_rate * REQUESTS), report
    assert speedup >= MIN_SPEEDUP, \
        f"warm replay only {speedup:.1f}x faster than cold: {report}"
