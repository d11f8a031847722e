"""Functional units: capability sets, decomposability, and selection.

A functional unit implements a set of opcodes at a native bit width. Two
paper features are modeled here:

* **Multi-function units** (Section V-C): "a 32-bit adder which can also
  perform subtract" — a unit's ``opcodes`` set may cover several opcodes
  cheaper than the sum of dedicated implementations (``sharing_factor``).
* **Decomposable units** (Section III-A): a 64-bit adder usable as two
  32-bit adders; ``decomposable_to`` gives the minimum sub-width.

Hardware generation calls :func:`select_functional_units` to pick a minimal
library subset covering the opcodes a PE must support.
"""

from dataclasses import dataclass

from repro.isa.opcodes import OPCODES, opcode


@dataclass(frozen=True)
class FunctionalUnit:
    """A hardware functional unit template.

    Attributes
    ----------
    name:
        Library name, e.g. ``"alu"``.
    opcodes:
        Frozenset of opcode mnemonics the unit executes.
    width:
        Native datapath width in bits (power of two).
    decomposable_to:
        Minimum sub-width the unit can be split into (equal to ``width``
        when the unit is not decomposable).
    gate_cost:
        NAND2-equivalent kilogates for one instance at ``width`` bits.
    """

    name: str
    opcodes: frozenset
    width: int
    decomposable_to: int
    gate_cost: float

    def supports(self, op_name, width=None):
        """True if this FU can execute ``op_name`` at the requested width."""
        if op_name not in self.opcodes:
            return False
        if width is None:
            return True
        if width > self.width:
            return False
        if width == self.width:
            return True
        return width >= self.decomposable_to and opcode(op_name).decomposable

    def lanes(self, width):
        """How many independent ``width``-bit operations fit per cycle."""
        if width > self.width or width < self.decomposable_to:
            return 0
        return self.width // width


# Sharing discount: a multi-function unit costs less than the sum of its
# opcodes' dedicated implementations because datapaths are reused (the paper
# gives the add/sub example).
_SHARING_FACTOR = 0.62


def _fu(name, op_names, width=64, decomposable_to=8):
    cost = sum(OPCODES[op].gate_cost for op in op_names)
    if len(op_names) > 1:
        cost *= _SHARING_FACTOR
    cost *= width / 64.0
    if decomposable_to < width:
        # Decomposition adds lane-boundary muxing.
        cost *= 1.12
    return FunctionalUnit(
        name=name,
        opcodes=frozenset(op_names),
        width=width,
        decomposable_to=decomposable_to,
        gate_cost=cost,
    )


def _build_library():
    """The FU library the hardware generator draws from."""
    alu_ops = [
        "add", "sub", "min", "max", "abs", "neg", "and", "or", "xor", "acc",
        "cmp_lt", "cmp_gt", "cmp_eq", "cmp_ne", "cmp_le", "cmp_ge",
        "select", "copy",
    ]
    units = [
        _fu("alu", alu_ops),
        _fu("shifter", ["shl", "shr"], decomposable_to=64),
        _fu("imul", ["mul", "mac"]),
        _fu("idiv", ["div", "mod"], decomposable_to=64),
        _fu("fpadd", ["fadd", "fsub", "fmin", "fmax", "fabs", "fneg",
                      "fcmp_lt", "fcmp_gt", "fcmp_eq"], decomposable_to=32),
        _fu("fpmul", ["fmul", "fmac"], decomposable_to=32),
        _fu("fpdiv", ["fdiv", "fsqrt"], decomposable_to=64),
        _fu("nnspecial", ["sigmoid", "tanh", "exp"], decomposable_to=64),
        _fu("joiner", ["sjoin", "cmp_lt", "cmp_gt", "cmp_eq", "select",
                       "copy"]),
    ]
    return {unit.name: unit for unit in units}


FU_LIBRARY = _build_library()


def fu_for_opcode(op_name):
    """Cheapest library FU that executes ``op_name`` (raises ``KeyError``)."""
    candidates = [fu for fu in FU_LIBRARY.values() if op_name in fu.opcodes]
    if not candidates:
        raise KeyError(f"no functional unit implements opcode {op_name!r}")
    return min(candidates, key=lambda fu: fu.gate_cost)


def select_functional_units(op_names, width=64):
    """Pick a minimal-cost FU subset covering ``op_names``.

    Greedy weighted set cover: repeatedly pick the unit with the best
    (newly covered opcodes) / gate_cost ratio. Greedy is within ln(n) of
    optimal and the library is tiny, so this matches what the paper's
    hardware generator needs.

    Returns a sorted list of :class:`FunctionalUnit`.

    Raises
    ------
    KeyError
        If some opcode has no implementing unit at the requested width.
    """
    needed = set(op_names)
    unknown = needed - set(OPCODES)
    if unknown:
        raise KeyError(f"unknown opcodes: {sorted(unknown)}")
    chosen = []
    while needed:
        best_unit, best_score = None, 0.0
        for unit in FU_LIBRARY.values():
            covered = {op for op in needed if unit.supports(op, width)}
            if not covered:
                continue
            score = len(covered) / unit.gate_cost
            if score > best_score:
                best_unit, best_score = unit, score
        if best_unit is None:
            raise KeyError(
                f"no functional unit implements {sorted(needed)} "
                f"at width {width}"
            )
        chosen.append(best_unit)
        needed -= {op for op in needed if best_unit.supports(op, width)}

    # Prune units made redundant by later greedy picks (drop the most
    # expensive redundant unit first).
    required = set(op_names)
    for unit in sorted(chosen, key=lambda fu: -fu.gate_cost):
        others = [u for u in chosen if u is not unit]
        covered_by_others = {
            op for op in required
            if any(u.supports(op, width) for u in others)
        }
        if covered_by_others >= required:
            chosen = others
    return sorted(chosen, key=lambda fu: fu.name)


def categories_of(op_names):
    """The set of :class:`OpCategory` values used by ``op_names``."""
    return {OPCODES[name].category for name in op_names}
