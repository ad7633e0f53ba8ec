"""Scalar per-lane reference semantics for the vectorized interpreter.

The interpreter executes all 32 lanes of a warp as one numpy array per
opcode (:mod:`repro.gpu.interpreter`'s kernel tables).  This module is
the lane-at-a-time ground truth those array kernels are pinned against:
every pure-arithmetic opcode is implemented here on ONE lane value,
with the wraparound / masking / rounding semantics written out
explicitly instead of inherited from numpy broadcasting.

Integer semantics use plain Python integers with explicit modulo-2**32
masking, so overflow behaviour is defined by this file rather than by a
dtype.  Float semantics operate on ``numpy`` *scalars* (``np.float32``)
— the per-lane definition of an op like FDIV or FEXP is "the platform
float32 routine applied to one value", and using numpy scalars keeps
the reference bit-identical to the array kernels without re-deriving
libm.  F2I is the exception: its contract is exact, so its lane is
written from the PTX definition in Python floats and ints.  Values
cross the boundary as raw ``uint32`` bit patterns in both directions.

The hypothesis parity suite (``tests/test_vector_parity.py``) drives
:func:`repro.gpu.interpreter.compute_vector` and
:func:`scalar_compute` with the same random operands — including
overflow, shift-amount, and division edge cases — and requires
bit-identical results lane by lane.  The scalar path is also the
documented fallback semantics for any future opcode whose array kernel
has not landed yet.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.gpu.isa import Cmp, Op

MASK32 = 0xFFFFFFFF


def _u32(value: int) -> int:
    """Truncate an unbounded Python int to its uint32 bit pattern."""
    return value & MASK32


def _s32(value: int) -> int:
    """Reinterpret a uint32 bit pattern as a signed 32-bit value."""
    value &= MASK32
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


def _f32(bits: int) -> np.float32:
    """The float32 value stored in a uint32 bit pattern."""
    return np.uint32(bits).view(np.float32)


def _bits(value: np.float32) -> int:
    """The uint32 bit pattern of a float32 value."""
    return int(np.float32(value).view(np.uint32))


# ----------------------------------------------------------------------
# Integer ops: pure Python ints, wraparound spelled out.
# ----------------------------------------------------------------------
def scalar_int_binop(op: Op, a: int, b: int) -> int:
    """One lane of an integer binary op on uint32 bit patterns."""
    a, b = _u32(a), _u32(b)
    if op is Op.IADD:
        return _u32(a + b)
    if op is Op.ISUB:
        return _u32(a - b)
    if op is Op.IMUL:
        return _u32(a * b)
    if op is Op.IMIN:
        return _u32(min(_s32(a), _s32(b)))
    if op is Op.IMAX:
        return _u32(max(_s32(a), _s32(b)))
    if op is Op.AND:
        return a & b
    if op is Op.OR:
        return a | b
    if op is Op.XOR:
        return a ^ b
    # Shift amounts use only the low five bits of the b operand, as on
    # real 32-bit shifters (and as the array kernels' ``b & 31``).
    if op is Op.SHL:
        return _u32(a << (b & 31))
    if op is Op.SHR:
        return a >> (b & 31)
    if op is Op.SAR:
        return _u32(_s32(a) >> (b & 31))
    raise ValueError(f"{op} is not an integer binary op")


def scalar_imad(a: int, b: int, c: int) -> int:
    """One lane of IMAD: ``a * b + c`` modulo 2**32."""
    return _u32(_u32(a) * _u32(b) + _u32(c))


def scalar_not(a: int) -> int:
    """One lane of bitwise NOT."""
    return _u32(~_u32(a))


# ----------------------------------------------------------------------
# Float ops: numpy float32 scalars, one lane at a time.
# ----------------------------------------------------------------------
_FLOAT_BINOP_FNS = {
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FMIN: np.minimum,
    Op.FMAX: np.maximum,
    Op.FDIV: lambda a, b: a / b,
}

_FLOAT_UNOP_FNS = {
    Op.FABS: np.abs,
    Op.FNEG: lambda a: -a,
    Op.FRCP: lambda a: np.float32(1.0) / a,
    Op.FSQRT: np.sqrt,
    Op.FEXP: np.exp,
    Op.FLOG: np.log,
    Op.FSIN: np.sin,
    Op.FCOS: np.cos,
}


def scalar_float_binop(op: Op, a: int, b: int) -> int:
    """One lane of a float binary op; bit patterns in, bit pattern out."""
    fn = _FLOAT_BINOP_FNS.get(op)
    if fn is None:
        raise ValueError(f"{op} is not a float binary op")
    with np.errstate(all="ignore"):
        return _bits(fn(_f32(a), _f32(b)))


def scalar_float_unop(op: Op, a: int) -> int:
    """One lane of a float unary op; bit pattern in, bit pattern out."""
    fn = _FLOAT_UNOP_FNS.get(op)
    if fn is None:
        raise ValueError(f"{op} is not a float unary op")
    with np.errstate(all="ignore"):
        return _bits(fn(_f32(a)))


def scalar_ffma(a: int, b: int, c: int) -> int:
    """One lane of FFMA with an intermediate float32 rounding step.

    The simulator's FFMA is *not* fused: ``a * b`` rounds to float32
    before the add, matching the array kernel's two-step evaluation.
    """
    with np.errstate(all="ignore"):
        return _bits(_f32(a) * _f32(b) + _f32(c))


def scalar_i2f(a: int) -> int:
    """One lane of I2F: signed 32-bit int to the nearest float32."""
    return _bits(np.float32(_s32(a)))


def scalar_f2i(a: int) -> int:
    """One lane of F2I, written from PTX ``cvt.rzi.s32.f32``.

    Truncate toward zero, saturate to [-2**31, 2**31 - 1], NaN to zero.
    Plain Python floats and ints throughout (a float32 widens exactly
    to a Python float), so this shares no idiom with the array kernel
    it checks.
    """
    (value,) = struct.unpack("<f", struct.pack("<I", a & MASK32))
    if math.isnan(value):
        return 0
    if value >= 2**31:
        return 0x7FFF_FFFF
    if value <= -(2**31):
        return 0x8000_0000
    return _u32(math.trunc(value))


# ----------------------------------------------------------------------
# Comparisons and masked writeback.
# ----------------------------------------------------------------------
def scalar_compare(cmp: Cmp, a: int, b: int, *, as_float: bool) -> bool:
    """One lane of ISETP/FSETP on uint32 bit patterns."""
    if as_float:
        fa, fb = _f32(a), _f32(b)
        with np.errstate(all="ignore"):
            outcomes = {
                Cmp.EQ: fa == fb,
                Cmp.NE: fa != fb,
                Cmp.LT: fa < fb,
                Cmp.LE: fa <= fb,
                Cmp.GT: fa > fb,
                Cmp.GE: fa >= fb,
            }
        return bool(outcomes[cmp])
    sa, sb = _s32(a), _s32(b)
    outcomes = {
        Cmp.EQ: sa == sb,
        Cmp.NE: sa != sb,
        Cmp.LT: sa < sb,
        Cmp.LE: sa <= sb,
        Cmp.GT: sa > sb,
        Cmp.GE: sa >= sb,
    }
    return outcomes[cmp]


def scalar_merge(old: list[int], new: list[int], mask: int) -> list[int]:
    """Masked writeback: lane i takes ``new[i]`` iff bit i of ``mask``."""
    return [
        _u32(new[i]) if (mask >> i) & 1 else _u32(old[i])
        for i in range(len(old))
    ]


# ----------------------------------------------------------------------
# Dispatch mirror of interpreter.compute_vector.
# ----------------------------------------------------------------------
_INT_BINOP_OPS = frozenset(
    (
        Op.IADD,
        Op.ISUB,
        Op.IMUL,
        Op.IMIN,
        Op.IMAX,
        Op.AND,
        Op.OR,
        Op.XOR,
        Op.SHL,
        Op.SHR,
        Op.SAR,
    )
)


def scalar_compute(op: Op, *operands: int) -> int:
    """One lane of any pure-arithmetic opcode, on uint32 bit patterns.

    The scalar mirror of
    :func:`repro.gpu.interpreter.compute_vector`: same opcode coverage,
    one lane at a time.
    """
    if op in _INT_BINOP_OPS:
        return scalar_int_binop(op, *operands)
    if op in _FLOAT_BINOP_FNS:
        return scalar_float_binop(op, *operands)
    if op in _FLOAT_UNOP_FNS:
        return scalar_float_unop(op, *operands)
    if op is Op.IMAD:
        return scalar_imad(*operands)
    if op is Op.FFMA:
        return scalar_ffma(*operands)
    if op is Op.NOT:
        return scalar_not(*operands)
    if op is Op.I2F:
        return scalar_i2f(*operands)
    if op is Op.F2I:
        return scalar_f2i(*operands)
    raise ValueError(f"{op} is not a pure-arithmetic opcode")


__all__ = [
    "scalar_compare",
    "scalar_compute",
    "scalar_f2i",
    "scalar_ffma",
    "scalar_float_binop",
    "scalar_float_unop",
    "scalar_i2f",
    "scalar_imad",
    "scalar_int_binop",
    "scalar_merge",
    "scalar_not",
]
