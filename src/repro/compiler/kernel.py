"""Kernels and their modular variant spaces.

A :class:`Kernel` bundles:

* a ``builder(params) -> ConfigScope`` producing the decoupled-dataflow
  program for one choice of :class:`VariantParams`;
* the :class:`VariantSpace` describing which transformation dimensions
  apply to this kernel (a dense kernel has no join dimension; a kernel
  without indirect accesses has no indirect dimension);
* a pure-Python ``reference`` implementation used by the test suite and
  by the end-to-end correctness checks;
* workload metadata (problem sizes, instruction counts).

The framework's modular-compilation contract (Section IV-C): for every
dimension there is a fallback value that is legal on *any* hardware —
``unroll=1``, ``use_join=False`` (predicated/serialized form),
``use_indirect=False`` (scalar address expansion) — so compilation never
fails outright for capability reasons.
"""

import itertools
from dataclasses import dataclass, field

from repro.errors import CompilationError


@dataclass(frozen=True)
class VariantParams:
    """One point in a kernel's transformation space.

    Attributes
    ----------
    unroll:
        Vectorization degree (resource-allocation transform, IV-E).
    use_join:
        Apply the stream-join transform (needs dynamic PEs, IV-E).
    use_indirect:
        Encode gather/scatter in indirect stream intrinsics (needs the
        indirect memory controller, IV-E).
    use_atomic:
        Offload read-modify-write to in-bank update units.
    partial_sums:
        Parallel accumulator chains provisioned to hide floating-point
        reduction latency (dependence-activity mitigation, V-B).
    """

    unroll: int = 1
    use_join: bool = False
    use_indirect: bool = False
    use_atomic: bool = False
    partial_sums: int = 1

    def describe(self):
        parts = [f"V{self.unroll}"]
        if self.use_join:
            parts.append("join")
        if self.use_indirect:
            parts.append("indirect")
        if self.use_atomic:
            parts.append("atomic")
        if self.partial_sums > 1:
            parts.append(f"P{self.partial_sums}")
        return "+".join(parts)


@dataclass
class VariantSpace:
    """The dimensions that apply to one kernel."""

    unroll_factors: tuple = (1, 2, 4, 8)
    has_join: bool = False
    has_indirect: bool = False
    has_atomic: bool = False
    partial_sum_options: tuple = (1,)

    def enumerate(self, features=None):
        """Yield :class:`VariantParams` legal for ``features``.

        ``features`` is a :class:`~repro.adg.features.FeatureSet`; None
        means "assume full capability". Fallback variants are always
        included, implementing the guaranteed-compilation rule.
        """
        joins = [False]
        if self.has_join and (features is None or features.stream_join):
            joins.append(True)
        indirects = [False]
        if self.has_indirect and (features is None or features.indirect):
            indirects.append(True)
        atomics = [False]
        if self.has_atomic and (features is None or features.atomic_update):
            atomics.append(True)
        unrolls = [u for u in self.unroll_factors if u >= 1] or [1]
        partials = [p for p in self.partial_sum_options if p >= 1] or [1]
        for unroll, join, indirect, atomic, partial in itertools.product(
            unrolls, joins, indirects, atomics, partials
        ):
            if atomic and not indirect:
                continue  # atomic update rides the indirect controller
            yield VariantParams(
                unroll=unroll,
                use_join=join,
                use_indirect=indirect,
                use_atomic=atomic,
                partial_sums=partial,
            )


@dataclass
class Kernel:
    """A compilable workload.

    ``builder`` receives a :class:`VariantParams` and returns a
    :class:`~repro.ir.region.ConfigScope`; it may raise
    :class:`CompilationError` for parameter combinations the kernel
    cannot express (those variants are skipped).

    ``reference`` takes ``memory`` (dict of arrays) and computes the
    expected result in place — the golden model.

    ``make_memory`` returns a fresh problem instance ``{array: list}``.
    """

    name: str
    builder: callable
    space: VariantSpace = field(default_factory=VariantSpace)
    reference: callable = None
    make_memory: callable = None
    domain: str = ""
    source_insts_per_instance: int = 0
    description: str = ""

    def build(self, params):
        """Build one variant's scope (validated)."""
        scope = self.builder(params)
        scope.validate()
        return scope

    def variants(self, features=None):
        """Yield ``(params, scope)`` for every buildable legal variant."""
        produced = 0
        for params in self.space.enumerate(features):
            try:
                scope = self.build(params)
            except CompilationError:
                continue
            produced += 1
            yield params, scope
        if not produced:
            raise CompilationError(
                f"kernel {self.name!r} produced no buildable variant"
            )

    def fallback_params(self):
        """The always-legal variant (scalar, no optional features)."""
        return VariantParams()
