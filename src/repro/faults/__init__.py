"""Hardware fault injection and repair-based graceful degradation.

Treats hardware faults as involuntary ADG mutations and answers, via
the Section V-A repair path + cross-layer verifier + simulator, whether
an accelerator instance keeps working when pieces of it break — and at
what performance cost. See :mod:`repro.faults.models` for the fault
taxonomy, :mod:`repro.faults.degrade` for the per-case engine, and
:mod:`repro.faults.campaign` for registry-wide sweeps.
"""

from repro.faults.campaign import (
    DEFAULT_WORKLOADS,
    CampaignSummary,
    run_campaign,
)
from repro.faults.degrade import (
    FAULT_REPRO_VERSION,
    RECOVERED_SLOWDOWN,
    STATUSES,
    DegradeOutcome,
    FaultCase,
    WorkloadBaseline,
    degrade,
    generate_case,
    load_repro,
    prepare_baseline,
    replay_repro,
    report_miscompile,
    run_case,
    shrink_case,
    write_repro,
)
from repro.faults.models import (
    FAULT_KINDS,
    FaultSpec,
    apply_faults,
    draw_faults,
)

__all__ = [
    "DEFAULT_WORKLOADS",
    "FAULT_KINDS",
    "FAULT_REPRO_VERSION",
    "RECOVERED_SLOWDOWN",
    "STATUSES",
    "CampaignSummary",
    "DegradeOutcome",
    "FaultCase",
    "FaultSpec",
    "WorkloadBaseline",
    "apply_faults",
    "degrade",
    "draw_faults",
    "generate_case",
    "load_repro",
    "prepare_baseline",
    "replay_repro",
    "report_miscompile",
    "run_case",
    "run_campaign",
    "shrink_case",
    "write_repro",
]
