"""Per-opcode parity: vectorized array kernels vs the scalar reference.

The interpreter executes all 32 lanes of a warp as one numpy operation
per opcode (:func:`repro.gpu.interpreter.compute_vector` and friends);
:mod:`repro.gpu.scalar` spells the same semantics out one lane at a
time with explicit modulo-2**32 masking.  These hypothesis sweeps pin
the two against each other bit-for-bit:

* every pure-arithmetic opcode on random and edge-biased operands —
  integer overflow/wraparound, shift amounts beyond 31, signed
  min/max across the sign boundary;
* float division and transcendental edge cases — zeros, infinities,
  NaNs, denormals — where array/scalar disagreement would hide in
  rarely-hit bit patterns;
* ISETP/FSETP comparators under both signed-int and float views;
* masked writeback for fully active, fully inactive, and partially
  masked warps, both as a pure merge and through the real
  ``Interpreter.execute`` guard path.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import scalar as ref
from repro.gpu.interpreter import (
    Interpreter,
    _mask_array,
    _mask_int,
    compare_vector,
    compute_vector,
    make_warp_context,
)
from repro.gpu.isa import Cmp, Imm, Instruction, Op, Pred, Reg
from repro.gpu.memory import GlobalMemory, SharedMemory
from repro.gpu.program import Kernel

WARP = 32

#: Bit patterns that sit on the semantic fault lines: integer sign
#: boundary and all-ones for wraparound, float zeros/inf/NaN/denormal
#: for the IEEE special cases, small shift-relevant values.
EDGE_BITS = (
    0x0000_0000,  # +0.0 / int 0
    0x0000_0001,  # denormal / int 1
    0x0000_001F,  # shift amount 31
    0x0000_0020,  # shift amount 32 (must use low 5 bits only)
    0x3F80_0000,  # 1.0f
    0x7F7F_FFFF,  # float32 max
    0x7F80_0000,  # +inf
    0x7FC0_0000,  # quiet NaN
    0x7FFF_FFFF,  # int32 max
    0x8000_0000,  # int32 min / -0.0
    0x8000_0001,  # negative denormal
    0xBF80_0000,  # -1.0f
    0xFF80_0000,  # -inf
    0xFFC0_0000,  # negative quiet NaN
    0xFFFF_FFFF,  # all ones / NaN payload
)

u32_bits = st.one_of(
    st.sampled_from(EDGE_BITS),
    st.integers(min_value=0, max_value=0xFFFF_FFFF),
)

lane_vectors = st.lists(u32_bits, min_size=WARP, max_size=WARP).map(
    lambda bits: np.array(bits, dtype=np.uint32)
)

warp_masks = st.one_of(
    st.sampled_from((0, 1, 0xFFFF_FFFF, 0x5555_5555, 0x8000_0000)),
    st.integers(min_value=0, max_value=0xFFFF_FFFF),
)

INT_BINOPS = (
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
FLOAT_BINOPS = (Op.FADD, Op.FSUB, Op.FMUL, Op.FMIN, Op.FMAX, Op.FDIV)
FLOAT_UNOPS = (
    Op.FABS,
    Op.FNEG,
    Op.FRCP,
    Op.FSQRT,
    Op.FEXP,
    Op.FLOG,
    Op.FSIN,
    Op.FCOS,
)


def _is_nan_bits(bits: int) -> bool:
    return (bits & 0x7F80_0000) == 0x7F80_0000 and (bits & 0x007F_FFFF) != 0


def assert_lanes_equal(
    op, vec: np.ndarray, lanes: list[int], *, float_op: bool = False
) -> None:
    """Bit-exact lane comparison; for float ops, NaN matches any NaN.

    IEEE 754 leaves the sign and payload of a produced NaN unspecified,
    and numpy's array ufuncs and scalar ops genuinely differ on it
    (e.g. ``NaN + (-NaN)`` keeps the first operand's sign in the array
    path but not the scalar path).  Every numeric result must still
    match to the bit.
    """
    __tracebackhide__ = True
    got = [int(v) for v in vec]
    diffs = []
    for i, (g, s) in enumerate(zip(got, lanes)):
        if g == s:
            continue
        if float_op and _is_nan_bits(g) and _is_nan_bits(s):
            continue
        diffs.append(f"lane {i}: vector {g:#010x} != scalar {s:#010x}")
    if diffs:
        pytest.fail(f"{op}: " + "; ".join(diffs))


# ----------------------------------------------------------------------
# Pure-arithmetic opcodes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("op", INT_BINOPS, ids=lambda op: op.name)
@settings(max_examples=60, deadline=None)
@given(a=lane_vectors, b=lane_vectors)
def test_int_binop_parity(op, a, b):
    vec = compute_vector(op, a, b)
    lanes = [ref.scalar_compute(op, int(x), int(y)) for x, y in zip(a, b)]
    assert_lanes_equal(op, vec, lanes)


@pytest.mark.parametrize("op", FLOAT_BINOPS, ids=lambda op: op.name)
@settings(max_examples=60, deadline=None)
@given(a=lane_vectors, b=lane_vectors)
def test_float_binop_parity(op, a, b):
    vec = compute_vector(op, a, b)
    lanes = [ref.scalar_compute(op, int(x), int(y)) for x, y in zip(a, b)]
    assert_lanes_equal(op, vec, lanes, float_op=True)


@pytest.mark.parametrize("op", FLOAT_UNOPS, ids=lambda op: op.name)
@settings(max_examples=60, deadline=None)
@given(a=lane_vectors)
def test_float_unop_parity(op, a):
    vec = compute_vector(op, a)
    lanes = [ref.scalar_compute(op, int(x)) for x in a]
    assert_lanes_equal(op, vec, lanes, float_op=True)


@pytest.mark.parametrize("op", (Op.IMAD, Op.FFMA), ids=lambda op: op.name)
@settings(max_examples=60, deadline=None)
@given(a=lane_vectors, b=lane_vectors, c=lane_vectors)
def test_ternary_parity(op, a, b, c):
    vec = compute_vector(op, a, b, c)
    lanes = [
        ref.scalar_compute(op, int(x), int(y), int(z))
        for x, y, z in zip(a, b, c)
    ]
    assert_lanes_equal(op, vec, lanes, float_op=op is Op.FFMA)


@pytest.mark.parametrize(
    "op", (Op.NOT, Op.I2F, Op.F2I), ids=lambda op: op.name
)
@settings(max_examples=60, deadline=None)
@given(a=lane_vectors)
def test_unary_parity(op, a):
    vec = compute_vector(op, a)
    lanes = [ref.scalar_compute(op, int(x)) for x in a]
    assert_lanes_equal(op, vec, lanes, float_op=op is Op.I2F)


@pytest.mark.parametrize("as_float", (False, True), ids=("int", "float"))
@pytest.mark.parametrize("cmp", list(Cmp), ids=lambda c: c.name)
@settings(max_examples=40, deadline=None)
@given(a=lane_vectors, b=lane_vectors)
def test_compare_parity(cmp, as_float, a, b):
    vec = compare_vector(cmp, a, b, as_float=as_float)
    lanes = [
        ref.scalar_compare(cmp, int(x), int(y), as_float=as_float)
        for x, y in zip(a, b)
    ]
    assert [bool(v) for v in vec] == lanes


# ----------------------------------------------------------------------
# Division and special-value spot checks (deterministic, not sampled)
# ----------------------------------------------------------------------
DIV_EDGES = [
    (0x3F80_0000, 0x0000_0000),  # 1.0 / +0.0  -> +inf
    (0x3F80_0000, 0x8000_0000),  # 1.0 / -0.0  -> -inf
    (0x0000_0000, 0x0000_0000),  # 0.0 / 0.0   -> NaN
    (0x7F80_0000, 0x7F80_0000),  # inf / inf   -> NaN
    (0x7F80_0000, 0x3F80_0000),  # inf / 1.0   -> inf
    (0x7FC0_0000, 0x3F80_0000),  # NaN / 1.0   -> NaN
    (0x0000_0001, 0x7F7F_FFFF),  # denormal / max -> underflow to 0
    (0x7F7F_FFFF, 0x0000_0001),  # max / denormal -> overflow to inf
]


@pytest.mark.parametrize("a_bits,b_bits", DIV_EDGES)
def test_fdiv_edges(a_bits, b_bits):
    a = np.full(WARP, a_bits, dtype=np.uint32)
    b = np.full(WARP, b_bits, dtype=np.uint32)
    vec = compute_vector(Op.FDIV, a, b)
    want = ref.scalar_float_binop(Op.FDIV, a_bits, b_bits)
    assert all(int(v) == want for v in vec)


@pytest.mark.parametrize(
    "op,a_bits",
    [
        (Op.FRCP, 0x0000_0000),  # 1/+0 -> +inf
        (Op.FRCP, 0x8000_0000),  # 1/-0 -> -inf
        (Op.FSQRT, 0xBF80_0000),  # sqrt(-1) -> NaN
        (Op.FLOG, 0x0000_0000),  # log(0) -> -inf
        (Op.FLOG, 0xBF80_0000),  # log(-1) -> NaN
        (Op.FEXP, 0x42F0_0000),  # exp(120) -> overflow to inf
    ],
    ids=lambda v: v.name if isinstance(v, Op) else hex(v),
)
def test_float_unop_edges(op, a_bits):
    a = np.full(WARP, a_bits, dtype=np.uint32)
    vec = compute_vector(op, a)
    want = ref.scalar_float_unop(op, a_bits)
    assert all(int(v) == want for v in vec)


def test_shift_amounts_use_low_five_bits():
    a = np.full(WARP, 0x8000_0001, dtype=np.uint32)
    for amount in (0, 1, 31, 32, 33, 63, 255, 0xFFFF_FFFF):
        b = np.full(WARP, amount, dtype=np.uint32)
        for op in (Op.SHL, Op.SHR, Op.SAR):
            vec = compute_vector(op, a, b)
            want = ref.scalar_int_binop(op, 0x8000_0001, amount)
            assert int(vec[0]) == want, (op, amount)


#: F2I boundary cases from PTX ``cvt.rzi.s32.f32``: truncate toward
#: zero, saturate to the int32 range, NaN to zero.  (float32 bits, int32
#: bits), each expectation read off the contract, not an implementation.
F2I_BOUNDARIES = [
    (0x7F80_0000, 0x7FFF_FFFF),  # +inf      -> INT32_MAX
    (0xFF80_0000, 0x8000_0000),  # -inf      -> INT32_MIN
    (0x7FC0_0000, 0x0000_0000),  # NaN       -> 0
    (0xFFC0_0000, 0x0000_0000),  # -NaN      -> 0
    (0x4F32_D05E, 0x7FFF_FFFF),  # 3e9       -> INT32_MAX
    (0xCF32_D05E, 0x8000_0000),  # -3e9      -> INT32_MIN
    (0x4F00_0000, 0x7FFF_FFFF),  # 2**31     -> INT32_MAX
    (0xCF00_0000, 0x8000_0000),  # -2**31    -> INT32_MIN, exactly
    (0x4EFF_FFFF, 0x7FFF_FF80),  # 2**31-128 -> itself (largest < 2**31)
    (0xCEFF_FFFF, 0x8000_0080),  # -(2**31-128) -> itself
    (0x3F00_0000, 0x0000_0000),  # 0.5       -> 0
    (0xBF00_0000, 0x0000_0000),  # -0.5      -> 0 (toward zero)
]


def test_f2i_boundaries_follow_the_ptx_contract():
    """Scalar reference, array kernel and executed F2I agree with the spec.

    Every lane carries one boundary case; any numpy cast warning (the
    symptom of clamping in float32, which cannot hold 2**31 - 1) fails
    the test.
    """
    cases = F2I_BOUNDARIES * (WARP // len(F2I_BOUNDARIES) + 1)
    bits = np.array([a for a, _ in cases[:WARP]], dtype=np.uint32)
    want = [w for _, w in cases[:WARP]]
    kernel = Kernel(
        name="f2i",
        instructions=[
            Instruction(op=Op.F2I, dst=Reg(1), srcs=(Reg(0),)),
            Instruction(op=Op.EXIT),
        ],
        num_registers=2,
    )
    interp = Interpreter(WARP)
    ctx = _single_warp_context(kernel)
    ctx.registers[0] = bits.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [ref.scalar_f2i(int(a)) for a in bits] == want
        assert [int(v) for v in compute_vector(Op.F2I, bits)] == want
        interp.apply(ctx, interp.execute(ctx))
    assert [int(v) for v in ctx.registers[1]] == want


# ----------------------------------------------------------------------
# Masked writeback: fully / partially / un-masked warps
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(old=lane_vectors, new=lane_vectors, mask=warp_masks)
def test_masked_merge_parity(old, new, mask):
    mask_arr = _mask_array(mask, WARP)
    vec = np.where(mask_arr, new, old)
    lanes = ref.scalar_merge(
        [int(v) for v in old], [int(v) for v in new], mask
    )
    assert [int(v) for v in vec] == lanes


@settings(max_examples=60, deadline=None)
@given(mask=warp_masks)
def test_mask_array_roundtrip(mask):
    assert _mask_int(_mask_array(mask, WARP)) == mask


def _single_warp_context(kernel: Kernel):
    return make_warp_context(
        kernel,
        warp_id=0,
        cta_id=0,
        cta_dim=(WARP, 1),
        grid_dim=(1, 1),
        warp_in_cta=0,
        params=np.zeros(0, dtype=np.uint32),
        gmem=GlobalMemory(4096),
        shared=SharedMemory(256),
    )


@pytest.mark.parametrize(
    "mask", (0xFFFF_FFFF, 0x0000_0001, 0xA5A5_A5A5, 0x8000_0000)
)
def test_guarded_execute_masked_writeback(mask):
    """The real execute path merges guarded lanes like the scalar model.

    A guard predicate deactivates lanes without SIMT divergence; the
    destination register must take the computed value on active lanes
    and keep its old value elsewhere, bit-for-bit.
    """
    kernel = Kernel(
        name="guarded-iadd",
        instructions=[
            Instruction(
                op=Op.IADD,
                dst=Reg(1),
                srcs=(Reg(0), Imm(7)),
                guard=Pred(0),
            ),
            Instruction(op=Op.EXIT),
        ],
        num_registers=2,
    )
    interp = Interpreter(WARP)
    ctx = _single_warp_context(kernel)
    rng = np.random.default_rng(1234)
    ctx.registers[0] = rng.integers(0, 2**32, WARP, dtype=np.uint32)
    ctx.registers[1] = rng.integers(0, 2**32, WARP, dtype=np.uint32)
    old = [int(v) for v in ctx.registers[1]]
    ctx.preds[0] = _mask_array(mask, WARP)

    result = interp.execute(ctx)
    interp.apply(ctx, result)

    assert result.exec_mask == mask
    computed = [
        ref.scalar_int_binop(Op.IADD, int(a), 7) for a in ctx.registers[0]
    ]
    want = ref.scalar_merge(old, computed, mask)
    assert [int(v) for v in ctx.registers[1]] == want


def test_fully_masked_guard_leaves_destination_untouched():
    """mask == 0: no lane executes, the old register image survives."""
    kernel = Kernel(
        name="masked-out",
        instructions=[
            Instruction(
                op=Op.IMUL,
                dst=Reg(0),
                srcs=(Reg(0), Imm(3)),
                guard=Pred(0),
            ),
            Instruction(op=Op.EXIT),
        ],
        num_registers=1,
    )
    interp = Interpreter(WARP)
    ctx = _single_warp_context(kernel)
    ctx.registers[0] = np.arange(WARP, dtype=np.uint32) * 17
    before = ctx.registers[0].copy()
    # preds[0] stays all-False: the guard masks out every lane.

    result = interp.execute(ctx)
    interp.apply(ctx, result)

    assert result.exec_mask == 0
    assert np.array_equal(ctx.registers[0], before)
