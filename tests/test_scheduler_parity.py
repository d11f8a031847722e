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

from repro.adg import topologies
from repro.compiler import compile_kernel
from repro.utils.rng import DeterministicRng
from repro.workloads import kernel as make_kernel

KERNELS = ("mm", "pb_2mm", "stencil2d", "fft", "histogram",
           "md", "join", "ellpack")
ADGS = ("softbrain", "dse_initial")
SEEDS = (1, 2)
SCALE = 0.05
MAX_ITERS = 20

EXPECTED_DIGEST = (
    "e5f4eaee636ae788b9d535542417791f147158b9c3b6b514d6e28b41756a408e"
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


def parity_digest():
    digest = hashlib.sha256()
    for adg_name in ADGS:
        adg = topologies.PRESETS[adg_name]()
        for kernel_name in KERNELS:
            for seed in SEEDS:
                result = compile_kernel(
                    make_kernel(kernel_name, SCALE), adg,
                    rng=DeterministicRng(("parity", seed, kernel_name)),
                    max_iters=MAX_ITERS, max_scheduled_variants=1,
                )
                facts = (
                    adg_name, kernel_name, seed, result.ok,
                    result.sched_effort,
                    [reason for _params, reason in result.rejected],
                    _schedule_facts(result),
                )
                digest.update(repr(facts).encode())
    return digest.hexdigest()


def test_schedules_match_golden_digest():
    assert parity_digest() == EXPECTED_DIGEST


if __name__ == "__main__":
    print(parity_digest())
