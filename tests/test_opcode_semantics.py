"""The opcode semantics table against the evaluator it replaced.

``reference_evaluate`` below is the per-call-dict ``evaluate`` that
:mod:`repro.isa.opcodes` used before its semantics became module-level
tables, copied verbatim (only renamed). Both :func:`evaluate` and the
bound :func:`semantics` functions must agree with it on every opcode and
word width: equal values of equal type (floats down to the sign of zero
and NaN), and the same exception type where it raises.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import OPCODES, Opcode, evaluate, semantics

# --- the oracle: copied verbatim ------------------------------------------


def _clamp_int(value, bits):
    """Wrap an integer into two's-complement range for ``bits``."""
    mask = (1 << bits) - 1
    value &= mask
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def reference_evaluate(op, operands, bits=64):
    """Functionally evaluate ``op`` on ``operands``.

    Used by the cycle-level simulator and by tests to check compiled
    programs against reference kernels. Integer ops wrap to ``bits``;
    floating ops use Python floats (a stand-in for IEEE 754 double).
    """
    name = op.name if isinstance(op, Opcode) else op
    a = operands[0] if operands else None
    b = operands[1] if len(operands) > 1 else None
    c = operands[2] if len(operands) > 2 else None
    integer_ops = {
        "add": lambda: a + b,
        "sub": lambda: a - b,
        "mul": lambda: a * b,
        "div": lambda: 0 if b == 0 else int(a / b),
        "mod": lambda: 0 if b == 0 else a - int(a / b) * b,
        "min": lambda: min(a, b),
        "max": lambda: max(a, b),
        "abs": lambda: abs(a),
        "neg": lambda: -a,
        "and": lambda: a & b,
        "or": lambda: a | b,
        "xor": lambda: a ^ b,
        "shl": lambda: a << (b & (bits - 1)),
        "shr": lambda: a >> (b & (bits - 1)),
        "acc": lambda: a + b,
        "mac": lambda: a * b + c,
    }
    compare_ops = {
        "cmp_lt": lambda: int(a < b),
        "cmp_gt": lambda: int(a > b),
        "cmp_eq": lambda: int(a == b),
        "cmp_ne": lambda: int(a != b),
        "cmp_le": lambda: int(a <= b),
        "cmp_ge": lambda: int(a >= b),
    }
    float_ops = {
        "fadd": lambda: a + b,
        "fsub": lambda: a - b,
        "fmul": lambda: a * b,
        "fdiv": lambda: math.inf if b == 0 else a / b,
        "fmin": lambda: min(a, b),
        "fmax": lambda: max(a, b),
        "fabs": lambda: abs(a),
        "fneg": lambda: -a,
        "fsqrt": lambda: math.sqrt(a) if a >= 0 else math.nan,
        "fmac": lambda: a * b + c,
        "sigmoid": lambda: 1.0 / (1.0 + math.exp(-max(-60.0, min(60.0, a)))),
        "tanh": lambda: math.tanh(a),
        "exp": lambda: math.exp(max(-60.0, min(60.0, a))),
        "fcmp_lt": lambda: int(a < b),
        "fcmp_gt": lambda: int(a > b),
        "fcmp_eq": lambda: int(a == b),
    }
    if name == "select":
        # select(pred, if_true, if_false)
        return b if a else c
    if name == "copy":
        return a
    if name == "sjoin":
        # Three-way key compare steering stream-join reuse/pop decisions:
        # -1 pop left, +1 pop right, 0 pop both and compute.
        return -1 if a < b else (1 if a > b else 0)
    if name in integer_ops:
        return _clamp_int(integer_ops[name](), bits)
    if name in compare_ops:
        return compare_ops[name]()
    if name in float_ops:
        return float_ops[name]()
    raise KeyError(f"no functional semantics for opcode {name!r}")


# --- the check --------------------------------------------------------------

WIDTHS = (8, 16, 32, 64)

INTS = st.one_of(
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.sampled_from([0, 1, -1, 7, (1 << 63) - 1, -(1 << 63), 1 << 64]),
)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -2.5]),
)
OPERANDS = st.lists(st.one_of(INTS, FLOATS), min_size=0, max_size=3)


def outcome(call):
    try:
        return "value", call()
    except Exception as exc:  # the exception type is part of the contract
        return "raises", type(exc)


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raises":
        assert got[1] is want[1], (got, want)
        return
    value, expected = got[1], want[1]
    assert type(value) is type(expected), (got, want)
    if isinstance(expected, float):
        # repr tells -0.0 from 0.0 and matches NaN with NaN.
        assert repr(value) == repr(expected), (got, want)
    else:
        assert value == expected, (got, want)


@pytest.mark.parametrize("name", sorted(OPCODES))
@settings(max_examples=60, deadline=None)
@given(operands=OPERANDS, bits=st.sampled_from(WIDTHS),
       by_opcode=st.booleans())
def test_semantics_match_reference(name, operands, bits, by_opcode):
    op = OPCODES[name] if by_opcode else name
    want = outcome(lambda: reference_evaluate(op, operands, bits))
    assert_same(outcome(lambda: evaluate(op, operands, bits)), want)
    assert_same(outcome(lambda: semantics(op, bits)(*operands)), want)


@pytest.mark.parametrize("bits", WIDTHS)
def test_unknown_opcode_raises_key_error(bits):
    for name in ("no_such_op", "", "ADD"):
        with pytest.raises(KeyError) as reference:
            reference_evaluate(name, [1, 2], bits)
        with pytest.raises(KeyError) as table:
            evaluate(name, [1, 2], bits)
        assert str(table.value) == str(reference.value)
        with pytest.raises(KeyError) as bound:
            semantics(name, bits)
        assert str(bound.value) == str(reference.value)
