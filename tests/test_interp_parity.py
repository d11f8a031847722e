"""Golden parity pin for the functional interpreter.

Runs every variant scope of every registry kernel at scale 0.1 through
:func:`repro.ir.interp.execute_scope` on a fresh problem instance and
hashes what it produced: the final memory (element type name and value,
so an int that became a float, or a numpy scalar that became a Python
one, shows), the words each region produced, the per-region trace the
cycle-level simulator replays (fired instances, per-instance emitted
word counts, join pops), and any error raised.

Performance work on the interpreter must leave this digest unchanged.
Regenerate it only for a change that is meant to alter functional
results, by running this file as a script
(``PYTHONPATH=src python tests/test_interp_parity.py``) on the commit
whose behaviour is the new reference.
"""

import hashlib

from repro.errors import DsagenError
from repro.ir.interp import execute_scope
from repro.workloads import all_kernels

SCALE = 0.1

EXPECTED_DIGEST = (
    "722c66f7a74211b2a3a24425ce6f1eeae79d85f65f409e4acd72884bd235dba2"
)


def _element(value):
    plain = value.item() if hasattr(value, "item") else value
    return type(value).__name__, repr(plain)


def variant_facts(kernel, params, scope):
    """Everything one interpreted variant produced, as a comparable tuple."""
    memory = kernel.make_memory()
    scope.bind_constants(memory)
    trace = {}
    try:
        produced = execute_scope(scope, memory, trace=trace)
        error = None
    except DsagenError as exc:
        produced = None
        error = (type(exc).__name__, str(exc))
    return (
        kernel.name, repr(params), error,
        sorted((name, [_element(v) for v in data])
               for name, data in memory.items()),
        None if produced is None else sorted(
            (region, sorted((port, [_element(v) for v in words])
                            for port, words in ports.items()))
            for region, ports in produced.items()
        ),
        sorted(
            (region, record["instances"], sorted(record["emitted"].items()),
             record["join_pops"])
            for region, record in trace.items()
        ),
    )


def parity_digest():
    digest = hashlib.sha256()
    count = 0
    for kernel in all_kernels(SCALE):
        for params, scope in kernel.variants():
            digest.update(repr(variant_facts(kernel, params, scope)).encode())
            count += 1
    return digest.hexdigest(), count


def test_interpreter_matches_golden_digest():
    digest, count = parity_digest()
    assert count >= 66
    assert digest == EXPECTED_DIGEST


if __name__ == "__main__":
    print("%s (%d variants)" % parity_digest())
