"""Automated hardware/software design-space exploration (Section V).

* :mod:`repro.dse.mutation` — ADG edit operators (add/remove PEs,
  switches and links; toggle execution models; trim functional units;
  resize memories and sync buffers) respecting the Section V-D fixed
  features (one DMA + one scratchpad, fixed control core, flopped switch
  outputs).
* :mod:`repro.dse.objective` — the perf^2/mm^2 co-design objective with
  hard area/power budgets.
* :mod:`repro.dse.funnel` — the generation funnel both explorers run:
  mutate a batch of candidates (a surrogate-ranked wide generation
  under the default ``multi`` fidelity), evaluate the finalists —
  optionally across a process pool with a seed-deterministic
  trajectory — accept the best improvement, checkpoint and resume.
* :mod:`repro.dse.explorer` — the single-fabric explorer: candidates
  are mutated ADGs, and every kernel's schedule is repaired on each
  finalist (Section V-A).
* :mod:`repro.dse.compose` — merged & multi-accelerator synthesis:
  partitions a kernel set into clusters served by capability-union
  fabrics and explores merged vs. partitioned vs. per-kernel
  compositions under a shared area budget.
"""

from repro.dse.mutation import MUTATIONS, AdgMutator, sample_generation
from repro.dse.objective import DseObjective
from repro.dse.funnel import DSE_FIDELITIES
from repro.dse.explorer import (
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
]
