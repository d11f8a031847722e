"""Layer spans for the traced benchmark run.

The program is not edited: :func:`install` wraps the entry point of
each layer, and the phases inside the simulator and the client that no
other entry point splits (the :data:`TARGETS` table), with a timing
wrapper and
:func:`uninstall` puts the originals back. A module-level function is
patched in every loaded ``repro.*`` module whose attribute *is* that
function, so names imported with ``from x import f`` are covered too; a
method is patched once, on its class.

Spans are kept in memory — name, parent, start, end, workload and a
small attribute dict — and written as JSONL when the run ends. A span's
*self* time is its duration minus the durations of its direct children,
so self times partition the traced wall time without double counting.

Each measured operation opens a :data:`ROOT` span, and the first span
below it is the entry point the benchmark called (``compile_kernel``,
``simulate``, ...). That span's self time is whatever no deeper span
claimed, so :func:`coverage` counts only the time spent in spans below
the entry point.
"""

import functools
import importlib
import inspect
import json
import sys
import time

#: ``(span name, defining module, attribute path)``. A span name is
#: ``<layer>.<entry point>``; the layer is the ``repro`` package it
#: belongs to.
TARGETS = (
    ("compiler.compile", "repro.compiler.pipeline", "compile_kernel"),
    ("compiler.variants", "repro.compiler.kernel", "Kernel.variants"),
    ("estimation.estimate", "repro.estimation.perf_model",
     "PerformanceModel.estimate"),
    ("scheduler.schedule", "repro.scheduler.stochastic",
     "SpatialScheduler.schedule"),
    ("scheduler.timing", "repro.scheduler.timing", "compute_timing"),
    ("ir.topo_order", "repro.ir.dfg", "Dfg.topological_order"),
    ("ir.interp", "repro.ir.interp", "execute_scope"),
    ("codegen.program", "repro.compiler.codegen",
     "generate_control_program"),
    ("sim.simulate", "repro.sim.machine", "simulate"),
    ("sim.build", "repro.sim.machine", "CycleSimulator._build_states"),
    ("sim.replay", "repro.sim.machine", "_Replay.replay"),
    ("dse.explore", "repro.dse.explorer", "DesignSpaceExplorer.run"),
    ("faults.campaign", "repro.faults.campaign", "run_campaign"),
    ("faults.baselines", "repro.faults.degrade", "prepare_baseline"),
    ("server.request", "repro.server.client", "ServerClient.request"),
    # Time the client waits for the server's reply line: the server's
    # work plus the transport, done in another process.
    ("server.wait", "repro.server.client", "SocketTransport.readline"),
)

#: Name of the span the benchmark opens around each measured operation.
#: Its self time is work no layer span claimed.
ROOT = "bench.op"


class Span:
    """One timed call; ``parent`` indexes the span list it belongs to."""

    __slots__ = ("name", "parent", "start", "end", "workload", "attrs")

    def __init__(self, name, parent, start, end, workload=None, attrs=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.workload = workload
        self.attrs = attrs

    @property
    def seconds(self):
        return self.end - self.start

    def to_dict(self, index):
        return {"id": index, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end,
                "workload": self.workload, "attrs": self.attrs or {}}


class Tracer:
    """An in-memory span recorder with a stack of open spans.

    Spans are stored as parallel columns of strings, ints and floats:
    hot entry points open tens of thousands of spans per round, and
    columns cost less to append than objects and give the garbage
    collector nothing to walk.
    """

    def __init__(self, workload=None, clock=time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.attrs = {}          # span index -> small dict, when given
        self._stack = []

    def open(self, name, attrs=None):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else None)
        self.ends.append(0.0)
        if attrs:
            self.attrs[index] = attrs
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index):
        self.ends[index] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError(
                f"span {self.names[index]!r} closed out of order"
            )

    def spans(self):
        """The recorded spans as :class:`Span` objects."""
        return [
            Span(name, parent, start, end, self.workload,
                 self.attrs.get(index))
            for index, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            )
        ]


def write_jsonl(spans, path):
    """One JSON object per span; ``parent`` is an index into the file."""
    with open(path, "w") as handle:
        for index, span in enumerate(spans):
            handle.write(json.dumps(span.to_dict(index)) + "\n")


def _wrap(tracer, name, fn):
    """A wrapper that records one span per call (per resumption for a
    generator, so time spent by its consumer is not charged to it)."""
    if inspect.isgeneratorfunction(fn):
        done = object()

        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index = tracer.open(name)
                try:
                    item = next(iterator, done)
                finally:
                    tracer.close(index)
                if item is done:
                    return
                yield item

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    return owner, attr


def _holders(owner, attr, value):
    """``owner`` itself for a method; for a module-level function, every
    loaded ``repro.*`` module whose ``attr`` is ``value``."""
    if inspect.isclass(owner):
        return [owner]
    return [
        module for name, module in list(sys.modules.items())
        if name.split(".")[0] == "repro"
        and getattr(module, attr, None) is value
    ]


def install(tracer):
    """Wrap every target; returns the patches :func:`uninstall` takes,
    one ``(owner, attribute, original, wrapper)`` per target."""
    patches = []
    for name, module_name, path in TARGETS:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr]
        wrapper = _wrap(tracer, name, original)
        for holder in _holders(owner, attr, original):
            setattr(holder, attr, wrapper)
        patches.append((owner, attr, original, wrapper))
    return patches


def uninstall(patches):
    """Restore the originals, including in modules imported after
    :func:`install` that picked up a wrapper."""
    for owner, attr, original, wrapper in reversed(patches):
        for holder in _holders(owner, attr, wrapper):
            setattr(holder, attr, original)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def op_spans(spans):
    """The :data:`ROOT` spans and their descendants, parents
    renumbered. Spans opened outside a measured operation (correctness
    checks) are dropped."""
    kept = {}
    result = []
    for index, span in enumerate(spans):
        if span.name == ROOT:
            parent = None
        elif span.parent in kept:
            parent = kept[span.parent]
        else:
            continue
        kept[index] = len(result)
        result.append(Span(span.name, parent, span.start, span.end,
                           span.workload, span.attrs))
    return result


def layer_times(spans):
    """``{name: {"calls", "self_s", "total_s"}}`` over ``spans``.

    ``self_s`` is each span's duration minus its direct children's;
    ``total_s`` sums only spans with no same-named ancestor, so a
    re-entrant entry point is not counted twice.
    """
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds
    table = {}
    for index, span in enumerate(spans):
        row = table.setdefault(
            span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += span.seconds - child_seconds[index]
        ancestor = span.parent
        while ancestor is not None and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor is None:
            row["total_s"] += span.seconds
    return table


def coverage(spans):
    """Share of the :data:`ROOT` spans' time that spans *below* each
    operation's entry point account for.

    Self times partition that time, so this is the sum of the durations
    of the entry points' direct children. The entry point's own self
    time and the root's are the unattributed rest.
    """
    wall = sum(span.seconds for span in spans if span.name == ROOT)
    entries = {
        index for index, span in enumerate(spans)
        if span.parent is not None and spans[span.parent].name == ROOT
    }
    below = sum(span.seconds for span in spans if span.parent in entries)
    return below / wall if wall > 0 else 0.0


def format_table(table, wall_seconds):
    """Self and total time per span and per layer, as printable text."""
    layers = {}
    for name, row in table.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    lines = [f"{'span':<24}{'calls':>9}{'self_s':>10}{'total_s':>10}"
             f"{'self%':>8}"]
    for name, row in sorted(table.items(),
                            key=lambda item: -item[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall_seconds if wall_seconds else 0.0
        lines.append(f"{name:<24}{row['calls']:>9}{row['self_s']:>10.3f}"
                     f"{row['total_s']:>10.3f}{share:>7.1f}%")
    lines.append(f"{'layer':<24}{'':>9}{'self_s':>10}{'':>10}{'self%':>8}")
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        share = 100.0 * seconds / wall_seconds if wall_seconds else 0.0
        lines.append(f"{layer:<24}{'':>9}{seconds:>10.3f}{'':>10}"
                     f"{share:>7.1f}%")
    return "\n".join(lines)
