"""Cycle-level simulation of generated accelerators (Section VII).

The simulator is *timing-directed, functionally-emulated*: the functional
interpreter (:mod:`repro.ir.interp`) executes the program once to obtain
exact values and data-dependent event traces (join pop sequences,
predicated-store survivor counts), and :class:`CycleSimulator` then
replays word flow through every ADG component — the control core issuing
commands, memory engines arbitrating stream requests over limited
bandwidth and banks, sync-element FIFOs with finite depth, and the
scheduled fabric firing instances at its initiation interval and pipeline
latency. This mirrors how decoupled architectures behave: dataflow values
are timing-independent while throughput is resource-bound.

Two replay engines produce bit-identical results: ``"event"`` (the
default) skips quiet cycles and batch-fires steady-state windows;
``"stepped"`` advances one cycle at a time and serves as the oracle.
:func:`simulate_batch` (:mod:`repro.sim.batched`) steps many cases of
one structure in lock-step on structure-of-arrays state, each lane
bit-identical to a ``stepped`` run: the columnar engine behind fault
campaigns' ``sim_engine="batched"``.
"""

from repro.sim.batched import BatchCase, simulate_batch
from repro.sim.machine import (
    SIM_ENGINES,
    CycleSimulator,
    SimResult,
    simulate,
)

__all__ = [
    "SIM_ENGINES",
    "BatchCase",
    "CycleSimulator",
    "SimResult",
    "simulate",
    "simulate_batch",
]
