"""Cross-fabric schedule translation for composition warm-starts.

When the composition explorer (:mod:`repro.dse.compose`) moves a kernel
onto a merged fabric, the kernel already has a good schedule — on a
*different* graph. :func:`translate_schedule` carries that mapping over:
placements and stream bindings are rewritten through the node map the
merge returned, then :func:`~repro.scheduler.repair.strip_invalid` prunes
whatever the new hardware cannot honor, and the stochastic search resumes
from the surviving partial schedule instead of from scratch. This is the
same strip-and-resume contract the DSE uses after a mutation (Section
V-A of the paper), extended across graphs.

Routes and input delays name link ids, and link ids do not survive into
a merged graph for the non-base side — so for a non-identity node map
they are dropped wholesale and re-routed during repair. For the identity
map (the merge base keeps its names *and* link ids) routes are kept and
``strip_invalid`` drops only those whose links genuinely disappeared.
"""

from repro.scheduler.repair import strip_invalid


def translate_schedule(schedule, adg, node_map=None):
    """Port ``schedule`` onto ``adg``; returns a new repaired-warm clone.

    Parameters
    ----------
    schedule:
        A schedule mapped on some source fabric (left untouched).
    adg:
        The target fabric (e.g. a merged graph).
    node_map:
        Source-node-name -> target-node-name mapping as returned by
        :func:`repro.adg.merge.merge_adgs`. ``None`` means the source
        names are already target names (the merge-base case).

    Returns
    -------
    (schedule, stripped):
        The translated clone rebound to ``adg`` and the number of
        mapping entries dropped while porting.
    """
    twin = schedule.clone()
    stripped = 0
    identity = node_map is None or all(
        src == dst for src, dst in node_map.items()
    )
    if not identity:
        placement = {}
        for vertex, hw_name in twin.placement.items():
            mapped = node_map.get(hw_name)
            if mapped is not None:
                placement[vertex] = mapped
            else:
                stripped += 1
        binding = {}
        for key, memory_name in twin.stream_binding.items():
            mapped = node_map.get(memory_name)
            if mapped is not None:
                binding[key] = mapped
            else:
                stripped += 1
        # Routes reference source-graph link ids and cannot be mapped.
        stripped += len(twin.routes)
        twin.load(placement, {}, binding)
    stripped += strip_invalid(twin, adg)
    return twin, stripped


def translate_warm_schedules(warm_schedules, adg, node_map=None):
    """Port a ``kernel -> {params: schedule}`` warm-start dict onto
    ``adg`` (the shape the DSE explorer threads through generations).

    Schedules that lose every placement in translation are dropped (an
    empty warm start is worse than none: the repair search would waste
    its first iterations rediscovering that). Returns
    ``(schedules, stripped_total)``.
    """
    ported = {}
    stripped_total = 0
    for kernel_name in sorted(warm_schedules):
        entries = sorted(
            warm_schedules[kernel_name].items(),
            key=lambda item: repr(item[0]),
        )
        for params, schedule in entries:
            twin, stripped = translate_schedule(schedule, adg, node_map)
            stripped_total += stripped
            if twin.placement:
                ported.setdefault(kernel_name, {})[params] = twin
    return ported, stripped_total
