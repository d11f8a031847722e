"""The compilation pipeline: enumerate variants, schedule, select.

"The compiler goes through each candidate of each code transformation,
and chooses one with the highest estimated performance" (Section IV-C).

:func:`compile_kernel` is the entry point for both normal compilation and
the DSE inner loop. It prunes variants by hardware feature, pre-ranks them
with the scheduler-free performance model (cheap), spatially schedules the
most promising ones, and returns the best legal mapping with its control
program.
"""

from dataclasses import dataclass, field

from repro.compiler.codegen import generate_control_program
from repro.errors import CompilationError, VerificationError
from repro.estimation.perf_model import PerformanceModel
from repro.scheduler.stochastic import SpatialScheduler
from repro.scheduler.timing import compute_timing


@dataclass
class CompiledKernel:
    """The result of compiling one kernel for one ADG."""

    kernel_name: str
    params: object = None             # winning VariantParams
    scope: object = None              # the ConfigScope actually mapped
    schedule: object = None
    cost: object = None               # ScheduleCost
    perf: object = None               # PerfEstimate
    program: object = None            # ControlProgram
    rejected: list = field(default_factory=list)  # (params, reason)
    sched_effort: int = 0             # scheduler iterations consumed
    verify_report: object = None      # VerifyReport when verify= was set

    @property
    def ok(self):
        return self.schedule is not None and self.cost.is_legal

    @property
    def estimated_cycles(self):
        return self.perf.cycles if self.perf is not None else float("inf")


def compile_kernel(
    kernel,
    adg,
    rng=None,
    max_iters=200,
    max_scheduled_variants=4,
    perf_model=None,
    initial_schedules=None,
    attempts=2,
    telemetry=None,
    verify=None,
):
    """Compile ``kernel`` for ``adg``.

    Parameters
    ----------
    max_scheduled_variants:
        Spatial scheduling is the expensive step; only the this-many best
        variants by pre-schedule estimate are actually scheduled.
    initial_schedules:
        Optional ``{VariantParams: Schedule}`` warm starts — the DSE
        repair path passes the previous iteration's schedules here.
    telemetry:
        Optional :class:`repro.utils.telemetry.Telemetry` threaded into
        the spatial scheduler (evaluation/cache counters, phase timers).
    verify:
        ``None`` (default) skips verification. ``"report"`` runs the
        :mod:`repro.verify` checkers over the winning mapping and
        attaches the result as ``verify_report``. ``"strict"``
        additionally raises :class:`~repro.errors.VerificationError`
        when any error-level diagnostic is found.

    Returns a :class:`CompiledKernel`; ``result.ok`` is False when no
    variant could be legally mapped.
    """
    if verify not in (None, "report", "strict"):
        raise ValueError(
            f"verify must be None, 'report', or 'strict'; got {verify!r}"
        )
    model = perf_model or PerformanceModel()
    features = adg.feature_set()
    candidates = []
    rejected = []
    for params, scope in kernel.variants(features):
        # Cheap structural pre-estimate (no schedule yet).
        estimate = model.estimate(scope)
        candidates.append((estimate.cycles, params, scope))
    if not candidates:
        raise CompilationError(f"no variants for kernel {kernel.name!r}")
    candidates.sort(key=lambda item: item[0])

    result = CompiledKernel(kernel_name=kernel.name)
    best_cycles = float("inf")
    scheduled = 0
    effort = 0
    for pre_cycles, params, scope in candidates:
        if scheduled >= max_scheduled_variants and result.ok:
            break
        scheduled += 1
        initial = None
        if initial_schedules:
            initial = initial_schedules.get(params)
        schedule = cost = None
        failure = None
        # The stochastic search is seed-sensitive on tight fabrics:
        # retries with forked streams recover most near-misses cheaply.
        for attempt in range(attempts):
            seed_rng = rng
            if attempt and rng is not None:
                seed_rng = rng.fork(f"retry-{params.describe()}")
            scheduler = SpatialScheduler(
                adg, rng=seed_rng, max_iters=max_iters,
                telemetry=telemetry,
            )
            try:
                schedule, cost = scheduler.schedule(
                    scope, initial=initial if attempt == 0 else None
                )
                effort += getattr(scheduler, "last_iterations", 0)
            except CompilationError as exc:
                failure = str(exc)
                continue
            if cost.is_legal:
                break
            failure = f"illegal mapping ({cost})"
        if cost is None or not cost.is_legal:
            rejected.append((params, failure or "scheduling failed"))
            continue
        timing = compute_timing(
            schedule, scheduler.routing, telemetry=telemetry
        )
        perf = model.estimate(scope, schedule, timing)
        if perf.cycles < best_cycles:
            best_cycles = perf.cycles
            result.params = params
            result.scope = scope
            result.schedule = schedule
            result.cost = cost
            result.perf = perf
    result.rejected = rejected
    result.sched_effort = effort
    if result.ok:
        result.program = generate_control_program(result.scope, result.schedule)
    if verify and result.ok:
        from repro.verify import verify_compiled

        result.verify_report = verify_compiled(adg, result)
        if telemetry is not None:
            telemetry.incr("verify_reports", 1)
            telemetry.incr(
                "verify_errors", len(result.verify_report.errors)
            )
        if verify == "strict" and not result.verify_report.ok:
            raise VerificationError(
                f"kernel {kernel.name!r}: "
                f"{result.verify_report.describe()}"
            )
    return result
