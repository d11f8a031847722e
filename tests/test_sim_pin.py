"""Golden pin for simulator timing and the event engine's detector.

Simulates every registry workload at scale 0.05, plus a few stressed
FIFO-depth and bank-count shapes and the Fig. 10 kernels at a larger
scale, on both scalar engines, and hashes
each :class:`SimResult`'s timing (``cycles``, ``region_cycles``,
``memory_busy``, ``instances``, ``config_cycles``) together with the
``event`` engine's step and detector counters: steps executed, idle
jumps, bulk-fire events, bulk-skipped cycles and bulk instances. A run
that deadlocks contributes its error text instead.

``stepped`` shares the per-cycle transition with ``event``, so
``event`` == ``stepped`` cannot see a timing change made in that shared
code, and it never sees where ``event`` chose to probe or bulk-fire.
A pure speed-up of the replay must leave this digest unchanged.
Regenerate it only for a change that is meant to alter timing or the
detector's decisions, by running this file as a script
(``PYTHONPATH=src python -m tests.test_sim_pin``) on the commit whose
behaviour is the new reference.
"""

import copy
import hashlib

from repro.errors import SimulationError
from repro.sim import SIM_ENGINES, simulate
from repro.utils.telemetry import Telemetry
from repro.workloads import kernel as make_kernel
from repro.workloads.registry import workload_names
from tests.engine_parity import (
    SPU_ONLY,
    compiled_for,
    sim_fields,
)

SCALE = 0.05

#: ``(workload, scale, sync FIFO depth, SPU banks)`` beyond the
#: natural shapes: depth-1/2 FIFOs toggle full/empty at every boundary,
#: and the larger Fig. 10 kernels reach longer steady states.
EXTRA = (
    ("mm", SCALE, 1, None),
    ("ellpack", SCALE, 1, None),
    ("histogram", SCALE, 2, None),
    ("stencil2d", SCALE, 1, None),
    ("join", SCALE, 2, 1),
    ("spmm_outer", SCALE, None, 4),
    ("mm", 0.3, None, None),
    ("pb_2mm", 0.3, None, None),
    ("fft", 0.3, None, None),
    ("stencil2d", 0.3, None, None),
    ("histogram", 0.15, None, None),
)

#: The ``event`` engine's step and detector counters.
EVENT_COUNTERS = (
    "sim_steps_executed",
    "sim_idle_jumps",
    "sim_bulk_fire_events",
    "sim_bulk_cycles_skipped",
    "sim_bulk_instances",
)

EXPECTED_DIGEST = (
    "31548c12daff423118136bbb21dc89d23b946e12a82bc49d6588be024117513d"
)


def pin_cases():
    cases = [(name, SCALE, None, None) for name in workload_names()]
    return cases + list(EXTRA)


def case_facts(name, scale, depth, banks):
    """What both engines report for one shape, as a comparable tuple."""
    accel = "spu" if name in SPU_ONLY else "softbrain"
    adg, compiled = compiled_for(name, accel, scale=scale, depth=depth,
                                 banks=banks)
    if not compiled.ok:
        return (name, scale, depth, banks, "unmapped")
    workload = make_kernel(name, scale)
    facts = [name, scale, depth, banks]
    for engine in SIM_ENGINES:
        memory = workload.make_memory()
        bound = copy.deepcopy(compiled)
        bound.scope.bind_constants(memory)
        telemetry = Telemetry()
        try:
            result = simulate(adg, bound, memory, engine=engine,
                              telemetry=telemetry)
        except SimulationError as exc:
            facts.append((engine, str(exc)))
            continue
        counters = ()
        if engine == "event":
            counters = tuple(telemetry.counters[c] for c in EVENT_COUNTERS)
        facts.append((engine, sim_fields(result), counters))
    return tuple(facts)


def pin_digest():
    digest = hashlib.sha256()
    count = 0
    for case in pin_cases():
        digest.update(repr(case_facts(*case)).encode())
        count += 1
    return digest.hexdigest(), count


def test_sim_timing_and_detector_match_golden_digest():
    digest, count = pin_digest()
    assert count == len(workload_names()) + len(EXTRA)
    assert digest == EXPECTED_DIGEST


if __name__ == "__main__":
    print("%s (%d cases)" % pin_digest())
