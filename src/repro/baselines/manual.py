"""Manually tuned accelerator implementations (Figure 10 baseline).

The paper's manual versions are assembly implementations that (a) pick
the right transform parameters by hand, (b) "exploit features of the
low-level ISA to reduce the number of control instructions", and (c)
apply workload-specific peepholes (fft peels small-stride iterations and
coalesces their requests). We reproduce each mechanism:

* hand-picked :class:`VariantParams` per (kernel, accelerator);
* control commands issued at hand-scheduled cost (2 cycles instead of
  the compiler's 4 — fused intrinsic setup);
* the fft variant built with ``manual_coalesce``;
* a longer, multi-seed spatial-scheduling search standing in for a
  hand-crafted mapping.
"""

from repro.compiler.codegen import CommandKind, generate_control_program
from repro.compiler.kernel import VariantParams
from repro.compiler.pipeline import CompiledKernel
from repro.errors import CompilationError, SchedulingError
from repro.estimation.perf_model import PerformanceModel
from repro.scheduler.stochastic import SpatialScheduler
from repro.scheduler.timing import compute_timing
from repro.utils.rng import DeterministicRng
from repro.workloads import kernel as make_kernel
from repro.workloads.dsp import make_fft_kernel

#: Hand-chosen transform parameters per accelerator family. Dynamic
#: fabrics use stream-join; indirect-capable memories use the indirect
#: and atomic controllers; everything picks the widest unroll that fits.
_MANUAL_PARAMS = {
    # kernel -> {family: VariantParams}; "mesh" covers softbrain/revel,
    # "dyn" covers triggered/spu.
    "mm": {"*": VariantParams(unroll=4)},
    "pb_mm": {"*": VariantParams(unroll=4)},
    "pb_2mm": {"*": VariantParams(unroll=4)},
    "pb_3mm": {"*": VariantParams(unroll=2)},
    "md": {
        "*": VariantParams(unroll=2),
        "spu": VariantParams(unroll=4, use_indirect=True),
        "revel": VariantParams(unroll=2, use_indirect=True),
    },
    "crs": {
        "*": VariantParams(unroll=1),
        "spu": VariantParams(unroll=2, use_indirect=True),
        "revel": VariantParams(unroll=1, use_indirect=True),
    },
    "ellpack": {
        "*": VariantParams(unroll=2),
        "spu": VariantParams(unroll=4, use_indirect=True),
        "revel": VariantParams(unroll=2, use_indirect=True),
    },
    "stencil2d": {"*": VariantParams(unroll=2)},
    "stencil3d": {"*": VariantParams(unroll=2)},
    "histogram": {
        "*": VariantParams(unroll=1),
        "spu": VariantParams(
            unroll=4, use_indirect=True, use_atomic=True
        ),
    },
    "join": {
        "*": VariantParams(),
        "spu": VariantParams(use_join=True),
        "triggered": VariantParams(use_join=True),
        "revel": VariantParams(use_join=True),
    },
    "qr": {"*": VariantParams(unroll=4)},
    "chol": {"*": VariantParams()},
    "fft": {"*": VariantParams()},
    "conv": {"*": VariantParams()},
    "pool": {"*": VariantParams(unroll=2)},
    "classifier": {"*": VariantParams(unroll=4)},
    "spmm_outer": {
        "*": VariantParams(),
        "spu": VariantParams(use_indirect=True, use_atomic=True),
    },
    "resparsify": {"*": VariantParams()},
}

#: Hand-scheduled command issue cost (fused intrinsics).
MANUAL_ISSUE_CYCLES = 2


def manual_params_for(kernel_name, accel_name):
    """The hand-chosen parameters for a kernel on an accelerator."""
    table = _MANUAL_PARAMS.get(kernel_name, {"*": VariantParams()})
    return table.get(accel_name, table["*"])


def _fallback_chain(params):
    """Degrade hand parameters toward the universal fallback (a manual
    implementer would also shrink the unroll until it fits)."""
    chain = [params]
    current = params
    while current.unroll > 1:
        current = VariantParams(
            unroll=current.unroll // 2,
            use_join=current.use_join,
            use_indirect=current.use_indirect,
            use_atomic=current.use_atomic,
            partial_sums=current.partial_sums,
        )
        chain.append(current)
    if params.use_join or params.use_indirect:
        chain.append(VariantParams())
    return chain


def manual_compile(kernel_name, adg, accel_name=None, scale=1.0,
                   sched_iters=400, seeds=(0, 1, 2)):
    """Produce the manually tuned implementation for ``kernel_name``.

    Returns a :class:`CompiledKernel` whose control program carries
    hand-scheduled issue costs. Raises :class:`CompilationError` when not
    even the fallback maps (the hardware genuinely cannot run it).
    """
    accel_name = accel_name or adg.name
    if kernel_name == "fft":
        workload = make_fft_kernel(
            n=_scaled_fft_size(scale), manual_coalesce=True
        )
    else:
        workload = make_kernel(kernel_name, scale)
    model = PerformanceModel(cycles_per_command=MANUAL_ISSUE_CYCLES)

    last_error = None
    best_result = None
    for params in _fallback_chain(manual_params_for(kernel_name,
                                                    accel_name)):
        try:
            scope = workload.build(params)
        except CompilationError as exc:
            last_error = exc
            continue
        features = adg.feature_set()
        if params.use_join and not features.stream_join:
            continue
        if params.use_indirect and not features.indirect:
            continue
        if params.use_atomic and not features.atomic_update:
            continue
        best = None
        for seed in seeds:
            scheduler = SpatialScheduler(
                adg, rng=DeterministicRng(("manual", kernel_name, seed)),
                max_iters=sched_iters,
            )
            try:
                schedule, cost = scheduler.schedule(scope)
            except SchedulingError as exc:
                last_error = exc  # this seed found no legal mapping
                continue
            if cost.is_legal and (best is None or cost.scalar() <
                                  best[1].scalar()):
                best = (schedule, cost, scheduler)
            if best is not None and best[1].is_legal and seed >= seeds[0]:
                break  # first legal seed is enough; extras are backup
        if best is None:
            continue
        schedule, cost, scheduler = best
        timing = compute_timing(schedule, scheduler.routing)
        perf = model.estimate(scope, schedule, timing)
        program = generate_control_program(scope, schedule)
        for command in program:
            if command.kind in (CommandKind.ISSUE_STREAM,
                                CommandKind.ISSUE_CONST,
                                CommandKind.ISSUE_RECUR):
                command.issue_cycles = MANUAL_ISSUE_CYCLES
        result = CompiledKernel(
            kernel_name=kernel_name,
            params=params,
            scope=scope,
            schedule=schedule,
            cost=cost,
            perf=perf,
            program=program,
        )
        result.workload = workload
        # Manual tuning is empirical: keep the fastest variant tried.
        if best_result is None or perf.cycles < best_result.perf.cycles:
            best_result = result
    if best_result is not None:
        return best_result
    raise CompilationError(
        f"manual mapping of {kernel_name!r} failed on {accel_name!r}: "
        f"{last_error}"
    )


def _scaled_fft_size(scale):
    from repro.workloads.registry import _pow2
    from repro.workloads.spec import PAPER_SIZES

    return _pow2(PAPER_SIZES["fft"]["n"], scale, floor=32)
