"""Shared engine-parity helpers.

Every replay engine must produce a bit-identical :class:`SimResult` to
the ``stepped`` oracle; this module holds the one assertion both the
engine-equivalence tests and the batched-engine tests (and the batched
throughput benchmark) pin against. Kept out of the ``test_*`` namespace
so pytest does not collect it as a test file.
"""

import copy

from repro.adg import topologies
from repro.compiler import compile_kernel
from repro.errors import SimulationError
from repro.harness.compile_cache import cached_compile
from repro.sim import SIM_ENGINES, simulate, simulate_batch
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.workloads import kernel as make_kernel

#: The single-cycle engine every other engine is pinned against.
ORACLE = "stepped"

#: The scalar engines plus ``batched``: a one-lane ``simulate_batch``.
ENGINES = (*SIM_ENGINES, "batched")

#: Workloads that need the SPU's indirect/join hardware to compile on
#: their natural form.
SPU_ONLY = {"join", "spmm_outer", "resparsify"}


def adg_for(accel, depth=None, banks=None):
    """A fresh ``accel`` preset, optionally with every sync FIFO at
    ``depth`` and (SPU only) ``banks`` scratchpad banks."""
    adg = topologies.PRESETS[accel]()
    if depth is not None:
        for port in adg.sync_elements():
            port.depth = depth
    if banks is not None and accel == "spu":
        adg.scratchpad().banks = banks
    return adg


def compiled_for(name, accel, scale=0.05, iters=60, depth=None,
                 banks=None):
    """``(adg, CompiledKernel)`` for ``name`` on that ADG, memoized
    process-wide so engine tests share one compile per shape."""
    adg = adg_for(accel, depth=depth, banks=banks)
    result = cached_compile(
        adg, ("test-sim-engines", name, scale, iters),
        lambda: compile_kernel(
            make_kernel(name, scale), adg,
            rng=DeterministicRng(("engines", name)),
            max_iters=iters, attempts=3,
        ),
    )
    return adg, result


def simulate_on(adg, compiled, memory, engine, telemetry=None):
    """One run on ``engine``; ``batched`` raises its lane's
    :class:`SimulationError` just as :func:`simulate` would."""
    if engine != "batched":
        return simulate(adg, compiled, memory, engine=engine,
                        telemetry=telemetry)
    (outcome,) = simulate_batch(adg, compiled, [memory],
                                telemetry=telemetry)
    if isinstance(outcome, SimulationError):
        raise outcome
    return outcome


def sim_fields(result):
    """The :class:`SimResult` fields that must match across engines."""
    return (result.cycles, result.region_cycles, result.memory_busy,
            result.instances, result.config_cycles)


def run_all_engines(adg, compiled, workload, engines=ENGINES):
    """Simulate ``compiled`` once per engine on fresh memory.

    Returns ``({engine: SimResult}, {engine: Telemetry})``.
    """
    results = {}
    telemetries = {}
    for engine in engines:
        memory = workload.make_memory()
        scope_copy = copy.deepcopy(compiled)
        scope_copy.scope.bind_constants(memory)
        telemetries[engine] = Telemetry()
        results[engine] = simulate_on(
            adg, scope_copy, memory, engine, telemetries[engine],
        )
    return results, telemetries


def assert_engine_parity(results, oracle=ORACLE):
    """Assert every engine's outcome is bit-identical to the oracle's.

    Values are :class:`SimResult` instances or stall-report strings
    (for cases that legitimately deadlock, parity means the same error
    text at the same cycle).
    """
    def normalize(value):
        return value if isinstance(value, str) else sim_fields(value)

    expected = normalize(results[oracle])
    for engine, outcome in results.items():
        assert normalize(outcome) == expected, (
            f"engine {engine!r} diverges from the {oracle!r} oracle: "
            f"{normalize(outcome)!r} != {expected!r}"
        )
