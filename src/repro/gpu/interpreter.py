"""Functional warp-lockstep interpreter.

Executes one warp instruction at a time: reads source operands, computes
all 32 lanes under the current SIMT active mask, resolves branches against
the reconvergence stack, and *returns* register writes instead of applying
them.  This split lets the timing model (:mod:`repro.gpu.sm`) defer the
architectural write to the writeback stage — where compression happens —
while the functional runner applies results immediately.

Deferring writes is safe because the SM scoreboard blocks RAW/WAW hazards:
no instruction can issue and read (or rewrite) a register with a pending
write, so issue-time operand values are always final.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.isa import Cmp, Imm, Instruction, Op, OpClass, Reg, SReg, op_class
from repro.gpu.memory import GlobalMemory, SharedMemory
from repro.gpu.program import Kernel
from repro.gpu.simt import SimtStack


@dataclass
class WarpContext:
    """All architectural state of one resident warp."""

    warp_id: int
    kernel: Kernel
    stack: SimtStack
    registers: np.ndarray  #: (num_registers, warp_size) uint32
    preds: np.ndarray  #: (8, warp_size) bool
    sregs: dict[SReg, np.ndarray]  #: per-lane special-register values
    params: np.ndarray  #: (num_params,) uint32
    gmem: GlobalMemory
    shared: SharedMemory
    cta_id: int = 0
    at_barrier: bool = False

    @property
    def warp_size(self) -> int:
        return self.registers.shape[1]

    @property
    def done(self) -> bool:
        self.stack.settle()
        return self.stack.done


@dataclass(slots=True)
class ExecResult:
    """Outcome of executing one warp instruction."""

    instr: Instruction
    pc: int
    exec_mask: int  #: lanes that actually executed (guard applied)
    base_mask: int  #: SIMT active mask before the guard
    divergent: bool  #: fewer than warp_size lanes executed (guard included)
    op_class: OpClass
    #: SIMT-stack divergence only (paper Figure 3's notion): the active
    #: mask is partial.  A uniformly-executed guarded branch is *not*
    #: divergent by this measure even though its taken subset is.
    base_divergent: bool = False
    dst: int | None = None
    values: np.ndarray | None = None  #: merged 32-lane dst values
    src_regs: tuple[int, ...] = ()
    is_barrier: bool = False
    is_exit: bool = False


_LANES = np.arange(64, dtype=np.uint64)

#: Cached boolean arrays for the two masks that dominate divergence-free
#: kernels: all lanes active and no lanes active.  The arrays are frozen
#: (``writeable=False``) because callers only ever index with them.
_COMMON_MASKS: dict[tuple[int, int], np.ndarray] = {}

#: Frozen lane-broadcast arrays keyed ``(value, warp_size)``.  Immediate
#: operands and kernel params repeat endlessly across a launch; handlers
#: never mutate their operand arrays, so one shared read-only array per
#: distinct value is safe and saves an allocation per execute.
_BROADCAST_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _mask_array(mask: int, warp_size: int) -> np.ndarray:
    """Expand an int bitmask into a per-lane boolean array."""
    full = (1 << warp_size) - 1
    if mask == full or mask == 0:
        key = (mask, warp_size)
        cached = _COMMON_MASKS.get(key)
        if cached is None:
            cached = np.full(warp_size, mask != 0, dtype=bool)
            cached.setflags(write=False)
            _COMMON_MASKS[key] = cached
        return cached
    return ((np.uint64(mask) >> _LANES[:warp_size]) & np.uint64(1)).astype(bool)


def _mask_int(arr: np.ndarray) -> int:
    """Pack a per-lane boolean array into an int bitmask."""
    count = int(arr.sum())
    if count == len(arr):
        return (1 << count) - 1
    if count == 0:
        return 0
    lanes = _LANES[: len(arr)]
    return int((arr.astype(np.uint64) << lanes).sum())


class Interpreter:
    """Stateless executor over :class:`WarpContext` objects."""

    def __init__(self, warp_size: int = 32):
        self.warp_size = warp_size
        self._full = (1 << warp_size) - 1
        # The all-lanes-active mask dominates execution; keep its array
        # form at hand instead of going through the _COMMON_MASKS dict.
        self._full_arr = _mask_array(self._full, warp_size)

    # ------------------------------------------------------------------
    # Fetch / peek
    # ------------------------------------------------------------------
    def peek(self, ctx: WarpContext) -> tuple[Instruction, int, int] | None:
        """Next instruction, its execution mask, and PC — without effects.

        Returns ``None`` when the warp has finished.  The SM uses this for
        scoreboard checks and dummy-MOV injection before committing to
        issue.
        """
        ctx.stack.settle()
        if ctx.stack.done:
            return None
        pc = ctx.stack.pc
        instr = ctx.kernel.instructions[pc]
        base_mask = ctx.stack.active_mask
        exec_mask = self._guard_mask(ctx, instr, base_mask)
        return instr, exec_mask, pc

    def _guard_mask(
        self, ctx: WarpContext, instr: Instruction, base_mask: int
    ) -> int:
        if instr.guard is None:
            return base_mask
        bits = ctx.preds[instr.guard.index]
        if instr.guard.negated:
            bits = ~bits
        return base_mask & _mask_int(bits)

    # ------------------------------------------------------------------
    # Execute
    # ------------------------------------------------------------------
    def execute(
        self,
        ctx: WarpContext,
        peeked: tuple[Instruction, int, int] | None = None,
    ) -> ExecResult | None:
        """Execute the next instruction of ``ctx``; ``None`` when done.

        Register writes are returned in the result, not applied; all other
        architectural effects (PC, SIMT stack, predicates, memory) are
        applied immediately.  ``peeked`` lets a caller that already called
        :meth:`peek` this cycle (and has not touched the warp since) pass
        the result through instead of paying for a second fetch.
        """
        if peeked is None:
            peeked = self.peek(ctx)
        else:
            ctx.stack.settle()
        if peeked is None:
            return None
        instr, exec_mask, pc = peeked
        base_mask = ctx.stack.active_mask
        # (op_class, source_registers) memoized per instruction object —
        # same idiom as Instruction.issue_operands.
        meta = instr.__dict__.get("_exec_meta")
        if meta is None:
            meta = (op_class(instr.op), instr.source_registers())
            object.__setattr__(instr, "_exec_meta", meta)
        full = self._full
        result = ExecResult(
            instr=instr,
            pc=pc,
            exec_mask=exec_mask,
            base_mask=base_mask,
            divergent=exec_mask != full,
            base_divergent=base_mask != full,
            op_class=meta[0],
            src_regs=meta[1],
        )

        if instr.op is Op.BRA:
            ctx.stack.branch(
                taken_mask=exec_mask, target=instr.target, reconv=instr.reconv
            )
            return result
        if instr.op is Op.EXIT:
            ctx.stack.advance()
            ctx.stack.exit_lanes(exec_mask)
            result.is_exit = True
            return result
        if instr.op is Op.BAR:
            ctx.stack.advance()
            result.is_barrier = True
            return result
        if instr.op is Op.NOP:
            ctx.stack.advance()
            return result

        if exec_mask == full:
            mask_arr = self._full_arr
        else:
            mask_arr = _mask_array(exec_mask, self.warp_size)
        if instr.op in (Op.ISETP, Op.FSETP):
            self._setp(ctx, instr, mask_arr)
            ctx.stack.advance()
            return result
        if instr.op in (Op.STG, Op.STS):
            self._store(ctx, instr, mask_arr)
            ctx.stack.advance()
            return result

        computed = self._compute(ctx, instr, mask_arr)
        dst = instr.dst.index
        if exec_mask == self._full:
            # Full-warp writeback: every handler returns a freshly
            # allocated array, so the computed vector *is* the merged
            # destination image — no copy-and-scatter needed.
            merged = computed
        else:
            # Masked writeback: inactive lanes keep their old values.
            merged = np.where(mask_arr, computed, ctx.registers[dst])
        result.dst = dst
        result.values = merged
        ctx.stack.advance()
        return result

    def apply(self, ctx: WarpContext, result: ExecResult) -> None:
        """Apply a deferred register write (functional mode/writeback)."""
        if result.dst is not None:
            ctx.registers[result.dst] = result.values

    # ------------------------------------------------------------------
    # Operand access
    # ------------------------------------------------------------------
    def _read(self, ctx: WarpContext, operand) -> np.ndarray:
        if isinstance(operand, Reg):
            return ctx.registers[operand.index]
        if isinstance(operand, Imm):
            return self._broadcast(ctx, operand.u32)
        raise TypeError(f"unreadable operand {operand!r}")

    def _broadcast(self, ctx: WarpContext, value: int) -> np.ndarray:
        # Immediates and kernel params recur constantly; a cached frozen
        # array per value beats an np.full allocation on every execute.
        # Frozen (writeable=False) so any handler bug that tried to write
        # through a broadcast raises instead of corrupting the cache.
        key = (value & 0xFFFFFFFF, self.warp_size)
        arr = _BROADCAST_CACHE.get(key)
        if arr is None:
            arr = np.full(self.warp_size, key[0], dtype=np.uint32)
            arr.setflags(write=False)
            _BROADCAST_CACHE[key] = arr
        return arr

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def _compute(
        self, ctx: WarpContext, instr: Instruction, mask_arr: np.ndarray
    ) -> np.ndarray:
        handler = _COMPUTE_DISPATCH.get(instr.op)
        if handler is None:
            raise NotImplementedError(f"no semantics for {instr.op}")
        return handler(self, ctx, instr, mask_arr)

    def _setp(
        self, ctx: WarpContext, instr: Instruction, mask_arr: np.ndarray
    ) -> None:
        a = self._read(ctx, instr.srcs[0])
        b = self._read(ctx, instr.srcs[1])
        if instr.op is Op.ISETP:
            a, b = a.view(np.int32), b.view(np.int32)
        else:
            a, b = a.view(np.float32), b.view(np.float32)
        outcome = _CMP_FNS[instr.cmp](a, b)
        pred = ctx.preds[instr.pred_dst.index]
        pred[mask_arr] = outcome[mask_arr]

    def _store(
        self, ctx: WarpContext, instr: Instruction, mask_arr: np.ndarray
    ) -> None:
        addrs = (
            self._read(ctx, instr.srcs[0]).astype(np.int64) + instr.offset
        ).astype(np.uint32)
        values = self._read(ctx, instr.srcs[1])
        space = ctx.gmem if instr.op is Op.STG else ctx.shared
        space.store_warp(addrs, values, mask_arr)


def _shift_amount(b: np.ndarray) -> np.ndarray:
    return (b & 31).astype(np.uint32)


_INT_BINOPS = {
    Op.IADD: lambda a, b: a + b,
    Op.ISUB: lambda a, b: a - b,
    Op.IMUL: lambda a, b: (a.astype(np.uint64) * b).astype(np.uint32),
    Op.IMIN: lambda a, b: np.minimum(a.view(np.int32), b.view(np.int32)).view(
        np.uint32
    ),
    Op.IMAX: lambda a, b: np.maximum(a.view(np.int32), b.view(np.int32)).view(
        np.uint32
    ),
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHL: lambda a, b: a << _shift_amount(b),
    Op.SHR: lambda a, b: a >> _shift_amount(b),
    Op.SAR: lambda a, b: (a.view(np.int32) >> _shift_amount(b).view(np.int32)).view(
        np.uint32
    ),
}

_FLOAT_BINOPS = {
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FMIN: np.minimum,
    Op.FMAX: np.maximum,
    Op.FDIV: lambda a, b: a / b,
}

_FLOAT_UNOPS = {
    Op.FABS: np.abs,
    Op.FNEG: lambda a: -a,
    Op.FRCP: lambda a: 1.0 / a,
    Op.FSQRT: np.sqrt,
    Op.FEXP: np.exp,
    Op.FLOG: np.log,
    Op.FSIN: np.sin,
    Op.FCOS: np.cos,
}

_CMP_FNS = {
    Cmp.EQ: lambda a, b: a == b,
    Cmp.NE: lambda a, b: a != b,
    Cmp.LT: lambda a, b: a < b,
    Cmp.LE: lambda a, b: a <= b,
    Cmp.GT: lambda a, b: a > b,
    Cmp.GE: lambda a, b: a >= b,
}


# ----------------------------------------------------------------------
# Opcode dispatch table for :meth:`Interpreter._compute`.  Handlers take
# ``(interp, ctx, instr, mask_arr)``; the table replaces a long if-chain
# so every opcode resolves with one dict lookup on the hot path.
#
# Float handlers deliberately carry no ``np.errstate`` guard — entering
# an errstate costs about as much as the arithmetic itself on 32-lane
# arrays.  The simulation drivers (:meth:`GPU.run`, the functional
# runner) hold one ``errstate(all="ignore")`` around their whole run
# loop instead; a handler invoked outside such a scope computes the
# same values but may emit RuntimeWarnings on inf/nan edge cases.
# ----------------------------------------------------------------------
def _h_mov(interp, ctx, instr, mask_arr):
    return interp._read(ctx, instr.srcs[0]).copy()


def _h_s2r(interp, ctx, instr, mask_arr):
    return ctx.sregs[instr.sreg].copy()


def _h_param(interp, ctx, instr, mask_arr):
    return interp._broadcast(ctx, int(ctx.params[instr.param_index]))


def _h_sel(interp, ctx, instr, mask_arr):
    pbits = ctx.preds[instr.pred_src.index]
    if instr.pred_src.negated:
        pbits = ~pbits
    a = interp._read(ctx, instr.srcs[0])
    b = interp._read(ctx, instr.srcs[1])
    return np.where(pbits, a, b).astype(np.uint32)


def _h_load(interp, ctx, instr, mask_arr):
    addrs = (
        interp._read(ctx, instr.srcs[0]).astype(np.int64) + instr.offset
    ).astype(np.uint32)
    space = ctx.gmem if instr.op is Op.LDG else ctx.shared
    return space.load_warp(addrs, mask_arr)


def _h_imad(interp, ctx, instr, mask_arr):
    a = interp._read(ctx, instr.srcs[0])
    b = interp._read(ctx, instr.srcs[1])
    c = interp._read(ctx, instr.srcs[2])
    return (a.astype(np.uint64) * b + c).astype(np.uint32)


def _h_ffma(interp, ctx, instr, mask_arr):
    a = interp._read(ctx, instr.srcs[0]).view(np.float32)
    b = interp._read(ctx, instr.srcs[1]).view(np.float32)
    c = interp._read(ctx, instr.srcs[2]).view(np.float32)
    return (a * b + c).astype(np.float32).view(np.uint32)


def _h_not(interp, ctx, instr, mask_arr):
    return ~interp._read(ctx, instr.srcs[0])


def _h_i2f(interp, ctx, instr, mask_arr):
    return (
        interp._read(ctx, instr.srcs[0])
        .view(np.int32)
        .astype(np.float32)
        .view(np.uint32)
    )


def f2i_vector(bits: np.ndarray) -> np.ndarray:
    """F2I on lane bit patterns, to the PTX ``cvt.rzi.s32.f32`` contract.

    Truncate toward zero, saturate to the int32 range, NaN to zero.  The
    clamp runs in float64, where both int32 bounds are exact: float32
    cannot hold 2**31 - 1, so a float32 clamp lets 2**31 through to wrap
    in the int32 cast.
    """
    vals = np.trunc(bits.view(np.float32).astype(np.float64))
    vals = np.clip(np.where(np.isnan(vals), 0.0, vals), -(2**31), 2**31 - 1)
    return vals.astype(np.int32).view(np.uint32)


def _h_f2i(interp, ctx, instr, mask_arr):
    return f2i_vector(interp._read(ctx, instr.srcs[0]))


def _int_binop_handler(fn):
    def handler(interp, ctx, instr, mask_arr):
        a = interp._read(ctx, instr.srcs[0])
        b = interp._read(ctx, instr.srcs[1])
        return fn(a, b)

    return handler


def _float_binop_handler(fn):
    def handler(interp, ctx, instr, mask_arr):
        a = interp._read(ctx, instr.srcs[0]).view(np.float32)
        b = interp._read(ctx, instr.srcs[1]).view(np.float32)
        return fn(a, b).astype(np.float32).view(np.uint32)

    return handler


def _float_unop_handler(fn):
    def handler(interp, ctx, instr, mask_arr):
        a = interp._read(ctx, instr.srcs[0]).view(np.float32)
        return fn(a).astype(np.float32).view(np.uint32)

    return handler


_COMPUTE_DISPATCH = {
    Op.MOV: _h_mov,
    Op.S2R: _h_s2r,
    Op.PARAM: _h_param,
    Op.SEL: _h_sel,
    Op.LDG: _h_load,
    Op.LDS: _h_load,
    Op.IMAD: _h_imad,
    Op.FFMA: _h_ffma,
    Op.NOT: _h_not,
    Op.I2F: _h_i2f,
    Op.F2I: _h_f2i,
}
_COMPUTE_DISPATCH.update(
    {op: _int_binop_handler(fn) for op, fn in _INT_BINOPS.items()}
)
_COMPUTE_DISPATCH.update(
    {op: _float_binop_handler(fn) for op, fn in _FLOAT_BINOPS.items()}
)
_COMPUTE_DISPATCH.update(
    {op: _float_unop_handler(fn) for op, fn in _FLOAT_UNOPS.items()}
)


# ----------------------------------------------------------------------
# Public array-kernel entry points.  These expose the per-op vector
# semantics on bare uint32 arrays — no WarpContext needed — so the
# parity suite can drive each kernel against the scalar reference in
# :mod:`repro.gpu.scalar`, and so other layers can batch arithmetic
# over whole warp vectors.
# ----------------------------------------------------------------------
def compute_vector(op: Op, *operands: np.ndarray) -> np.ndarray:
    """Apply one pure-arithmetic opcode to whole-warp lane vectors.

    ``operands`` are uint32 bit-pattern arrays (float ops reinterpret
    them as float32, exactly as :meth:`Interpreter._compute` does).
    Returns a freshly allocated uint32 array.  Opcodes that need a
    :class:`WarpContext` (moves, loads, predicates, control flow) are
    rejected — their semantics live in the dispatch handlers above.
    """
    srcs = tuple(np.asarray(o, dtype=np.uint32) for o in operands)
    fn = _INT_BINOPS.get(op)
    if fn is not None:
        return np.asarray(fn(*srcs), dtype=np.uint32)
    fn = _FLOAT_BINOPS.get(op)
    if fn is not None:
        with np.errstate(all="ignore"):
            return (
                fn(*(s.view(np.float32) for s in srcs))
                .astype(np.float32)
                .view(np.uint32)
            )
    fn = _FLOAT_UNOPS.get(op)
    if fn is not None:
        with np.errstate(all="ignore"):
            return fn(srcs[0].view(np.float32)).astype(np.float32).view(np.uint32)
    if op is Op.IMAD:
        a, b, c = srcs
        return (a.astype(np.uint64) * b + c).astype(np.uint32)
    if op is Op.FFMA:
        a, b, c = (s.view(np.float32) for s in srcs)
        with np.errstate(all="ignore"):
            return (a * b + c).astype(np.float32).view(np.uint32)
    if op is Op.NOT:
        return ~srcs[0]
    if op is Op.I2F:
        return srcs[0].view(np.int32).astype(np.float32).view(np.uint32)
    if op is Op.F2I:
        return f2i_vector(srcs[0])
    raise ValueError(f"{op} is not a pure-arithmetic opcode")


def compare_vector(
    cmp: Cmp, a: np.ndarray, b: np.ndarray, *, as_float: bool = False
) -> np.ndarray:
    """Apply one ISETP/FSETP comparator to whole-warp lane vectors."""
    a = np.asarray(a, dtype=np.uint32)
    b = np.asarray(b, dtype=np.uint32)
    if as_float:
        a, b = a.view(np.float32), b.view(np.float32)
    else:
        a, b = a.view(np.int32), b.view(np.int32)
    with np.errstate(all="ignore"):
        return np.asarray(_CMP_FNS[cmp](a, b), dtype=bool)


def compute_vector_batch(op: Op, *operands: np.ndarray) -> np.ndarray:
    """Apply one pure-arithmetic opcode to a stacked warp group.

    ``operands`` are ``(n_warps, warp_size)`` uint32 bit-pattern arrays —
    one row per warp in a same-opcode group.  Every opcode's semantics
    are elementwise across lanes, so a single numpy dispatch over the
    stacked rows computes all warps at once and is bit-identical to
    ``n_warps`` separate :func:`compute_vector` calls (the parity suite
    in ``tests/test_batch_parity.py`` pins this row-for-row).
    """
    srcs = tuple(np.asarray(o, dtype=np.uint32) for o in operands)
    for s in srcs:
        if s.ndim != 2:
            raise ValueError(
                f"batched operands must be stacked (n_warps, warp_size) "
                f"arrays, got shape {s.shape}"
            )
    return compute_vector(op, *srcs)


def compare_vector_batch(
    cmp: Cmp, a: np.ndarray, b: np.ndarray, *, as_float: bool = False
) -> np.ndarray:
    """Apply one comparator to a stacked ``(n_warps, warp_size)`` group."""
    a = np.asarray(a, dtype=np.uint32)
    b = np.asarray(b, dtype=np.uint32)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"batched operands must be stacked (n_warps, warp_size) "
            f"arrays, got shapes {a.shape} and {b.shape}"
        )
    return compare_vector(cmp, a, b, as_float=as_float)


def make_warp_context(
    kernel: Kernel,
    warp_id: int,
    cta_id: int,
    cta_dim: tuple[int, int],
    grid_dim: tuple[int, int],
    warp_in_cta: int,
    params: np.ndarray,
    gmem: GlobalMemory,
    shared: SharedMemory,
    warp_size: int = 32,
) -> WarpContext:
    """Create the architectural state for one warp of a CTA.

    ``cta_dim``/``grid_dim`` are (x, y) shapes; threads are linearised
    x-major within the CTA, 32 consecutive threads per warp.  Lanes beyond
    the CTA's thread count start exited.
    """
    ctas_x, _ = grid_dim
    cta_threads = cta_dim[0] * cta_dim[1]
    lane = np.arange(warp_size)
    linear_tid = warp_in_cta * warp_size + lane
    valid = linear_tid < cta_threads
    tid_x = (linear_tid % cta_dim[0]).astype(np.uint32)
    tid_y = (linear_tid // cta_dim[0]).astype(np.uint32)
    sregs = {
        SReg.TID_X: tid_x,
        SReg.TID_Y: tid_y,
        SReg.CTAID_X: np.full(warp_size, cta_id % ctas_x, dtype=np.uint32),
        SReg.CTAID_Y: np.full(warp_size, cta_id // ctas_x, dtype=np.uint32),
        SReg.NTID_X: np.full(warp_size, cta_dim[0], dtype=np.uint32),
        SReg.NTID_Y: np.full(warp_size, cta_dim[1], dtype=np.uint32),
        SReg.NCTAID_X: np.full(warp_size, grid_dim[0], dtype=np.uint32),
        SReg.NCTAID_Y: np.full(warp_size, grid_dim[1], dtype=np.uint32),
        SReg.LANEID: lane.astype(np.uint32),
    }
    initial_mask = _mask_int(valid)
    if initial_mask == 0:
        raise ValueError("warp has no valid threads")
    return WarpContext(
        warp_id=warp_id,
        kernel=kernel,
        stack=SimtStack(warp_size, start_pc=0, mask=initial_mask),
        registers=np.zeros((kernel.num_registers, warp_size), dtype=np.uint32),
        preds=np.zeros((8, warp_size), dtype=bool),
        sregs=sregs,
        params=np.asarray(params, dtype=np.uint32),
        gmem=gmem,
        shared=shared,
        cta_id=cta_id,
    )
