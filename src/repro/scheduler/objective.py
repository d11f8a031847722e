"""The scheduling objective of Algorithm 1.

"The objective is formulated as a weighted function which prioritizes
minimizing: 1. overutilization of PEs and network, 2. maximum initiation
interval of dedicated PEs, 3. latency of any recurrence paths"
(Section IV-C). Incompleteness (unplaced vertices, unrouted edges) and
composition-rule violations dominate everything else so the search always
prefers progress toward a legal mapping.
"""

from dataclasses import dataclass

from repro.scheduler.timing import compute_timing


@dataclass
class ScheduleCost:
    """Decomposed schedule cost; compare via :meth:`scalar`."""

    unplaced: int = 0
    unrouted: int = 0
    overuse_pe: int = 0
    overuse_port: int = 0
    overuse_link: int = 0
    overuse_memory: int = 0
    flow_violations: int = 0
    skew_violations: int = 0
    ii: int = 1                # worst region II (reporting)
    ii_excess: int = 0         # sum over regions of (II - 1): the search
    # must see *every* region's II, not just the max — a constant-II
    # low-rate region would otherwise mask improvements elsewhere.
    recurrence: int = 0
    latency: int = 0
    route_length: int = 0

    # Weights: incompleteness >> overuse >> violations >> II >> recurrence
    # >> latency/wire-length tiebreaks.
    W_INCOMPLETE = 10_000.0
    W_OVERUSE = 1_000.0
    W_VIOLATION = 200.0
    W_II = 50.0
    W_RECURRENCE = 10.0
    W_LATENCY = 0.5
    W_ROUTE = 0.05

    def scalar(self):
        return (
            self.W_INCOMPLETE * (self.unplaced + self.unrouted)
            + self.W_OVERUSE * (
                self.overuse_pe + self.overuse_port
                + self.overuse_link + self.overuse_memory
            )
            + self.W_VIOLATION * (self.flow_violations + self.skew_violations)
            + self.W_II * self.ii_excess
            + self.W_RECURRENCE * self.recurrence
            + self.W_LATENCY * self.latency
            + self.W_ROUTE * self.route_length
        )

    @property
    def is_legal(self):
        """A legal, complete mapping: ready for code generation."""
        return (
            self.unplaced == 0
            and self.unrouted == 0
            and self.overuse_pe == 0
            and self.overuse_port == 0
            and self.overuse_link == 0
            and self.overuse_memory == 0
            and self.flow_violations == 0
            and self.skew_violations == 0
        )

    def __lt__(self, other):
        return self.scalar() < other.scalar()


def resource_cost(schedule, pending=0):
    """The :class:`ScheduleCost` of ``schedule`` without its timing terms
    (violations, II, recurrence and latency stay zero), counting
    ``pending`` more edges as routed.

    A lower bound on the full cost of this schedule and of any schedule
    that only adds up to ``pending`` routes to it: incompleteness falls
    by at most one per route, and overuse and route length never fall
    as routes are added. Every term is read in constant time from the
    schedule's live counters.
    """
    return ScheduleCost(
        # Placement keys are vertices and route keys are edges (a
        # Schedule invariant), so incompleteness is count arithmetic.
        unplaced=schedule.num_vertices() - len(schedule.placement),
        unrouted=schedule.num_edges() - len(schedule.routes) - pending,
        # PE overuse: beyond one instruction for dedicated, beyond the
        # instruction buffer for shared. Sync elements host a single DFG
        # port per configuration; a dedicated link carries one value per
        # instance; a memory serves as many streams as it has slots.
        overuse_pe=schedule._overuse_pe,
        overuse_port=schedule._overuse_port,
        overuse_link=schedule._overuse_link,
        overuse_memory=schedule._overuse_memory,
        route_length=schedule.route_length(),
    )


def evaluate_schedule(schedule, routing, timing_result=None,
                      telemetry=None):
    """Compute the :class:`ScheduleCost` of a (partial) schedule.

    Evaluation is delta-friendly: the resource terms come from the
    schedule's live counters (:func:`resource_cost`), and each region is
    re-timed only from the first node a mutation could have changed, so
    the cost of a call is proportional to the changed suffixes — not the
    whole schedule. ``telemetry`` counts ``sched_evaluations`` and the
    timing cache hit/recompute split.
    """
    if telemetry is not None:
        telemetry.incr("sched_evaluations")
    cost = resource_cost(schedule)
    timing = timing_result or compute_timing(
        schedule, routing, telemetry=telemetry
    )
    cost.ii = timing.max_ii
    cost.ii_excess = sum(
        t.ii - 1 for t in timing.regions.values()
    )
    cost.recurrence = max(
        (t.recurrence_latency for t in timing.regions.values()), default=0
    )
    cost.latency = max(
        (t.latency for t in timing.regions.values()), default=0
    )
    cost.flow_violations = sum(
        t.flow_violations for t in timing.regions.values()
    )
    cost.skew_violations = sum(
        t.skew_violations for t in timing.regions.values()
    )
    return cost
