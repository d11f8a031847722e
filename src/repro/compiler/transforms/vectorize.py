"""Vectorization (resource allocation) helpers.

"A simple example of a hardware feature which the compiler should be
robust to is its size... the degree of vectorization becomes a modular
feature which the compiler explores" (Section IV-E). These helpers build
the unrolled DFG shapes kernels need; the *choice* of degree is made by
the pipeline through the variant space.
"""

from repro.isa.opcodes import OPCODES


def legal_unrolls(features, requested=(1, 2, 4, 8)):
    """Unroll factors worth trying on hardware with ``features``.

    An unrolled instance needs roughly ``unroll`` copies of the inner
    computation; factors needing more PEs than exist are pruned (the
    scheduler would reject them anyway, but pruning saves its time).
    """
    usable = [u for u in requested if u <= max(1, features.total_pes)]
    return tuple(usable) or (1,)


def vector_pairwise(dfg, op, a, b, lanes, name_prefix=""):
    """Per-lane binary op between two vector inputs.

    Returns the list of per-lane result nodes.
    """
    return [
        dfg.add_instr(
            op, [(a, lane), (b, lane)],
            name=f"{name_prefix}{op}{lane}" if name_prefix else "",
        )
        for lane in range(lanes)
    ]


def reduction_tree(dfg, op, operands, name_prefix=""):
    """Combine ``operands`` with a balanced binary tree of ``op``.

    Returns the root node. A tree keeps the combining latency at
    ``ceil(log2(n)) * latency`` instead of a serial chain's ``n * latency``
    — the shape manual accelerator mappings use for unrolled reductions.
    """
    if not operands:
        raise ValueError("reduction tree needs at least one operand")
    level = list(operands)
    depth = 0
    while len(level) > 1:
        next_level = []
        for index in range(0, len(level) - 1, 2):
            next_level.append(
                dfg.add_instr(
                    op, [level[index], level[index + 1]],
                    name=(f"{name_prefix}t{depth}_{index // 2}"
                          if name_prefix else ""),
                )
            )
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
        depth += 1
    return level[0]


def accumulator(dfg, op, value, out_name=None, emit_every=0, init=0):
    """A reduction node folding ``value`` across instances.

    ``op`` must be a binary opcode (add/fadd/min/...); the accumulator
    state is implicit (see :mod:`repro.ir.dfg`).
    """
    if OPCODES[op].arity != 2:
        raise ValueError(f"accumulator op {op!r} must be binary")
    node = dfg.add_instr(
        op, [value], reduction=True, emit_every=emit_every, init=init
    )
    if out_name:
        dfg.add_output(out_name, node)
    return node
