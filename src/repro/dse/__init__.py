"""Automated hardware/software design-space exploration (Section V).

* :mod:`repro.dse.mutation` — ADG edit operators (add/remove PEs,
  switches and links; toggle execution models; trim functional units;
  resize memories and sync buffers) respecting the Section V-D fixed
  features (one DMA + one scratchpad, fixed control core, flopped switch
  outputs).
* :mod:`repro.dse.objective` — the perf^2/mm^2 co-design objective with
  hard area/power budgets.
* :mod:`repro.dse.explorer` — the generational loop: mutate a batch of
  candidates (a surrogate-ranked wide generation under the default
  ``multi`` fidelity), repair every kernel's schedule on each finalist
  (Section V-A), estimate — optionally across a process pool with a
  seed-deterministic trajectory — and accept the best improvement.
* :mod:`repro.dse.compose` — merged & multi-accelerator synthesis:
  partitions a kernel set into clusters served by capability-union
  fabrics and explores merged vs. partitioned vs. per-kernel
  compositions under a shared area budget.
* :mod:`repro.dse.finalist_sim` — batched cycle-level measurement of
  finalist designs through :func:`repro.sim.batched.simulate_batch`,
  grouped by fabric fingerprint.
"""

from repro.dse.mutation import MUTATIONS, AdgMutator, sample_generation
from repro.dse.objective import DseObjective
from repro.dse.explorer import (
    DSE_FIDELITIES,
    DesignSpaceExplorer,
    DseHistoryEntry,
    DseResult,
)
from repro.dse.compose import (
    CompositionExplorer,
    ComposeResult,
    canonical_partition,
    mutate_partition,
    partition_strategy,
    run_compose,
    specialize_kernels,
)
from repro.dse.finalist_sim import FinalistCase, simulate_finalists

__all__ = [
    "AdgMutator",
    "MUTATIONS",
    "sample_generation",
    "DseObjective",
    "DSE_FIDELITIES",
    "DesignSpaceExplorer",
    "DseResult",
    "DseHistoryEntry",
    "CompositionExplorer",
    "ComposeResult",
    "canonical_partition",
    "mutate_partition",
    "partition_strategy",
    "run_compose",
    "specialize_kernels",
    "FinalistCase",
    "simulate_finalists",
]
