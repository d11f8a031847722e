"""Schedule repair after ADG edits (Section V-A).

"After each ADG modification, the set of schedules being explored are
updated to reflect the new hardware. Specifically, any aspect of the
input program which used a deleted ADG component is also deleted from the
schedule. Then schedule repair is performed, which attempts to both repair
the incomplete schedule, as well as try to take advantage of any added
hardware features."

:func:`strip_invalid` removes stale mapping state; :func:`repair_schedule`
strips and resumes the stochastic search from the surviving partial
schedule — the paper's key DSE speedup (Figure 11).
"""

from repro.adg.components import Memory, ProcessingElement
from repro.scheduler.stochastic import SpatialScheduler


def strip_invalid(schedule, adg):
    """Drop placements/routes/bindings referencing hardware that no longer
    exists in ``adg`` (or whose capability was edited away).

    Returns the number of mapping entries removed. The schedule is
    rebound to ``adg``.
    """
    removed = 0
    schedule.rebind(adg)

    for vertex in list(schedule.placement):
        hw_name = schedule.placement[vertex]
        if not adg.has_node(hw_name) or not schedule.placement_legal(
            vertex, hw_name
        ):
            schedule.unplace(vertex)
            removed += 1

    live_links = {link.link_id for link in adg.links()}
    for edge in list(schedule.routes):
        links = schedule.routes[edge]
        if any(link_id not in live_links for link_id in links):
            schedule.remove_route(edge)
            schedule.input_delays.pop(edge, None)
            removed += 1

    for key in list(schedule.stream_binding):
        hw_name = schedule.stream_binding[key]
        if not adg.has_node(hw_name) \
                or not isinstance(adg.node(hw_name), Memory):
            schedule.unbind_stream(*key)
            removed += 1

    # Delay assignments sized for FIFOs that shrank (or whose consumer
    # placement is gone) would silently violate the hardware bound.
    for edge in list(schedule.input_delays):
        hw_name = schedule.placement.get(edge.dst)
        if hw_name is None or not adg.has_node(hw_name):
            del schedule.input_delays[edge]
            removed += 1
            continue
        hw = adg.node(hw_name)
        if isinstance(hw, ProcessingElement) \
                and schedule.input_delays[edge] > hw.delay_fifo_depth:
            del schedule.input_delays[edge]
            removed += 1
    return removed


def repair_schedule(schedule, adg, rng=None, max_iters=200, patience=25,
                    telemetry=None):
    """Strip stale state, then resume the stochastic search on ``adg``.

    Returns ``(schedule, cost)`` like
    :meth:`~repro.scheduler.stochastic.SpatialScheduler.schedule`.
    """
    strip_invalid(schedule, adg)
    scheduler = SpatialScheduler(
        adg, rng=rng, max_iters=max_iters, patience=patience,
        telemetry=telemetry,
    )
    return scheduler.schedule(schedule.scope, initial=schedule)
