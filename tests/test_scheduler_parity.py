"""Golden parity pin for the spatial scheduler.

Compiles the five Fig. 10 Softbrain kernels plus md, join and ellpack on
``softbrain`` and ``dse_initial`` at fixed seeds and hashes everything
the search produced: placements, routes, delay-FIFO settings (in
insertion order, which the bitstream and served artifacts walk), the
``ScheduleCost`` of the winning mapping, the scheduler effort and the
rejection reasons of the variants that did not map.

Performance work on the scheduler must leave this digest unchanged: it
pins that a faster search is the *same* search. Regenerate it only for a
change that is meant to alter schedules, by running this file as a
script (``PYTHONPATH=src python tests/test_scheduler_parity.py``) on the
commit whose behaviour is the new reference.
"""

import hashlib
import os
import subprocess
import sys

from repro.adg import topologies
from repro.compiler import compile_kernel
from repro.scheduler import stochastic
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.workloads import kernel as make_kernel

KERNELS = ("mm", "pb_2mm", "stencil2d", "fft", "histogram",
           "md", "join", "ellpack")
ADGS = ("softbrain", "dse_initial")
SEEDS = (1, 2)
SCALE = 0.05
MAX_ITERS = 20

EXPECTED_DIGEST = (
    "8b62262623de364a76c12c77bf77f8a8647bc6e02dd6694c8b29f7fe110dd6b2"
)


def _schedule_facts(result):
    schedule = result.schedule
    if schedule is None:
        return None
    return (
        sorted((repr(v), hw) for v, hw in schedule.placement.items()),
        sorted((repr(e), tuple(links))
               for e, links in schedule.routes.items()),
        [(repr(e), delay) for e, delay in schedule.input_delays.items()],
        repr(result.cost),
    )


def case_facts(adg, adg_name, kernel_name, seed):
    """Everything one parity compile produced, as a comparable tuple."""
    result = compile_kernel(
        make_kernel(kernel_name, SCALE), adg,
        rng=DeterministicRng(("parity", seed, kernel_name)),
        max_iters=MAX_ITERS, max_scheduled_variants=1,
    )
    return (
        adg_name, kernel_name, seed, result.ok,
        result.sched_effort,
        [reason for _params, reason in result.rejected],
        _schedule_facts(result),
    )


def parity_digest():
    digest = hashlib.sha256()
    for adg_name in ADGS:
        adg = topologies.PRESETS[adg_name]()
        for kernel_name in KERNELS:
            for seed in SEEDS:
                facts = case_facts(adg, adg_name, kernel_name, seed)
                digest.update(repr(facts).encode())
    return digest.hexdigest()


def test_schedules_match_golden_digest():
    assert parity_digest() == EXPECTED_DIGEST


def _pruning_run(adg, kernel_name):
    telemetry = Telemetry()
    result = compile_kernel(
        make_kernel(kernel_name, SCALE), adg,
        rng=DeterministicRng(("prune", kernel_name)),
        max_iters=MAX_ITERS, max_scheduled_variants=1, telemetry=telemetry,
    )
    facts = (
        result.ok, result.sched_effort,
        [reason for _params, reason in result.rejected],
        _schedule_facts(result), telemetry.counters["sched_iterations"],
    )
    return facts, telemetry.counters


def test_pruning_changes_no_schedule(monkeypatch):
    # revel mixes static and dynamic PEs, so pruned static candidates
    # must leave the input delays an exhaustive search would leave.
    cases = [(adg_name, kernel_name)
             for adg_name in ("softbrain", "revel")
             for kernel_name in ("mm", "pb_2mm", "fft")]
    pruned = {}
    for adg_name, kernel_name in cases:
        adg = topologies.PRESETS[adg_name]()
        pruned[adg_name, kernel_name] = _pruning_run(adg, kernel_name)
    monkeypatch.setattr(stochastic, "candidate_lower_bound",
                        lambda sched, pending: float("-inf"))
    for adg_name, kernel_name in cases:
        adg = topologies.PRESETS[adg_name]()
        facts, counters = _pruning_run(adg, kernel_name)
        pruned_facts, pruned_counters = pruned[adg_name, kernel_name]
        assert pruned_facts == facts, (adg_name, kernel_name)
        assert "sched_candidates_pruned" not in counters
        assert pruned_counters["sched_candidates_pruned"] > 0
        assert pruned_counters["sched_evaluations"] < counters[
            "sched_evaluations"]
        assert pruned_counters["sched_route_tree_hits"] > 0


def _facts_under_hash_seed(hash_seed, adg_name, kernel_name, seed):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.path.join(root, "src")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--case",
         adg_name, kernel_name, str(seed)],
        env=env, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_schedules_independent_of_hash_seed():
    # pb_2mm seed 2 rejects a variant after a reverted swap move; the
    # revert once restored routes in string-hash order, so its schedule
    # (and this digest) depended on PYTHONHASHSEED.
    for adg_name in ADGS:
        facts = [
            _facts_under_hash_seed(hash_seed, adg_name, "pb_2mm", 2)
            for hash_seed in (0, 6)
        ]
        assert facts[0] == facts[1]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--case"]:
        adg_name, kernel_name, seed = sys.argv[2:5]
        print(repr(case_facts(topologies.PRESETS[adg_name](), adg_name,
                              kernel_name, int(seed))))
    else:
        print(parity_digest())
