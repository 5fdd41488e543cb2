"""Unsigned value-range (interval) analysis over the CFG.

Tracks a conservative ``[lo, hi]`` interval (0 <= lo <= hi < 2**32) for
every register, the machine's unsigned view of the 32-bit value.  The
analysis is a forward fixpoint with:

- per-op transfer functions for the arithmetic the frontend emits for
  index math (LI, ADD/ADDI, SUB, SLLI/SRLI, AND/ANDI, MUL, REMU);
- *edge refinement*: a conditional branch splits the state, so on the
  taken edge of ``BLTU idx, len`` the analysis knows ``idx < len``
  (and symmetrically on the fallthrough edge).  Signed branches
  (``BLT``/``BGE`` — the for-loop guard) refine only when both operand
  intervals fit in ``[0, 2**31)``, where signed and unsigned orders
  agree;
- a widening ladder ``{2**31 - 1, 2**32 - 1}`` applied after a few
  visits of a join, so loop counters converge in O(1) iterations: the
  counter widens to INT_MAX, then the loop guard's refinement narrows
  it to ``[init, stop - 1]``.

This is what lets ``boundscheck`` mode discharge guards statically: a
``for i in range(16)`` index into a 16-element shared array has
``hi(i) = 15 < lo(len) = 16``, so ``BLTU i, len`` always passes.
"""

from dataclasses import dataclass
from typing import Dict, Optional

from repro.isa.instructions import Op
from repro.nocl.codegen import (
    HDR_BLOCK_DIM,
    HDR_GRID_DIM,
    REG_ARG,
    REG_BLK0,
    REG_NSLOT,
    REG_TID,
)
from repro.nocl.ir import VInstr, VLabel, VLoadImm
from repro.simt.config import MAX_BLOCK_DIM, MAX_HW_THREADS

UMAX = 0xFFFFFFFF
INT_MAX = 0x7FFFFFFF
#: Join visits before a moving bound is widened up the ladder.
_WIDEN_AFTER = 4
#: Backstop: widen ANY block whose join is visited this often (keeps
#: the fixpoint terminating on CFGs without recognised loop headers).
_HARD_WIDEN = 64


@dataclass(frozen=True)
class Interval:
    """An unsigned interval ``[lo, hi]``; TOP is ``[0, UMAX]``."""

    lo: int
    hi: int

    def __post_init__(self):
        assert 0 <= self.lo <= self.hi <= UMAX, (self.lo, self.hi)

    @property
    def is_top(self):
        return self.lo == 0 and self.hi == UMAX

    def join(self, other):
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen_from(self, older):
        """Widen any bound that moved since ``older`` up the ladder."""
        lo, hi = self.lo, self.hi
        if lo < older.lo:
            lo = 0
        if hi > older.hi:
            hi = INT_MAX if hi <= INT_MAX else UMAX
        return Interval(lo, hi)


TOP = Interval(0, UMAX)

#: Entry-state seeds for the physical registers the launch sequence
#: initialises (``NoCLRuntime._initial_registers``): ``tid`` is
#: ``t % block_dim < block_dim <= MAX_BLOCK_DIM`` (``launch`` enforces
#: the CUDA blockDim cap); ``nslot`` is ``num_threads // block_dim``,
#: at least 1 (``launch`` rejects geometry where it would not be) and
#: at most ``MAX_HW_THREADS`` (``SMConfig.validate`` caps
#: ``num_threads``).  ``blk0`` is a block index, bounded only by
#: ``gridDim <= INT_MAX``.
_LAUNCH_SEEDS = {
    REG_TID: Interval(0, MAX_BLOCK_DIM - 1),
    REG_BLK0: Interval(0, INT_MAX),
    REG_NSLOT: Interval(1, MAX_HW_THREADS),
}


def _const(value):
    return Interval(value & UMAX, value & UMAX)


class RangeAnalysis:
    """Forward interval analysis with branch refinement and widening."""

    def __init__(self, cfg):
        self.cfg = cfg
        #: per-block entry state: reg -> Interval (missing = TOP)
        self.block_in: Dict[int, Dict[int, Interval]] = {}
        # The launch seeds and the header-word LW rule are only sound
        # while the seeded registers keep their launch-time values.
        # The codegen never writes them, but verify rather than assume.
        written = {item.rd for item in cfg.items
                   if isinstance(item, (VInstr, VLoadImm))
                   and getattr(item, "rd", None) is not None}
        self._seeds = {reg: iv for reg, iv in _LAUNCH_SEEDS.items()
                       if reg not in written}
        self._arg_reg_stable = REG_ARG not in written
        self._run()

    # ------------------------------------------------------------------
    # Transfer functions
    # ------------------------------------------------------------------

    def _get(self, state, reg):
        if reg == 0:
            return Interval(0, 0)
        return state.get(reg, TOP)

    def _set(self, state, reg, interval):
        if reg is None or reg == 0:
            return
        if interval.is_top:
            state.pop(reg, None)
        else:
            state[reg] = interval

    def transfer(self, state, item):
        """Apply one item's effect to ``state`` in place."""
        if isinstance(item, VLabel):
            return
        if isinstance(item, VLoadImm):
            self._set(state, item.rd, _const(item.value))
            return
        assert isinstance(item, VInstr)
        rd = item.rd
        if rd is None or rd == 0:
            return
        op = item.op
        out: Optional[Interval] = None
        if op == Op.ADDI:
            a = self._get(state, item.rs1)
            lo, hi = a.lo + item.imm, a.hi + item.imm
            if 0 <= lo and hi <= UMAX:
                out = Interval(lo, hi)
        elif op == Op.ADD:
            a, b = self._get(state, item.rs1), self._get(state, item.rs2)
            if a.hi + b.hi <= UMAX:
                out = Interval(a.lo + b.lo, a.hi + b.hi)
        elif op == Op.SUB:
            a, b = self._get(state, item.rs1), self._get(state, item.rs2)
            if a.lo - b.hi >= 0:
                out = Interval(a.lo - b.hi, a.hi - b.lo)
        elif op == Op.SLLI:
            a = self._get(state, item.rs1)
            shift = item.imm & 31
            if (a.hi << shift) <= UMAX:
                out = Interval(a.lo << shift, a.hi << shift)
        elif op == Op.SRLI:
            a = self._get(state, item.rs1)
            shift = item.imm & 31
            out = Interval(a.lo >> shift, a.hi >> shift)
        elif op == Op.ANDI and item.imm >= 0:
            a = self._get(state, item.rs1)
            out = Interval(0, min(a.hi, item.imm))
        elif op == Op.AND:
            a, b = self._get(state, item.rs1), self._get(state, item.rs2)
            out = Interval(0, min(a.hi, b.hi))
        elif op == Op.MUL:
            a, b = self._get(state, item.rs1), self._get(state, item.rs2)
            if a.hi * b.hi <= UMAX:
                out = Interval(a.lo * b.lo, a.hi * b.hi)
        elif op == Op.REMU:
            b = self._get(state, item.rs2)
            if b.lo >= 1:
                a = self._get(state, item.rs1)
                out = Interval(0, min(a.hi, b.hi - 1))
        elif op in (Op.SLT, Op.SLTU, Op.SLTI, Op.SLTIU):
            out = Interval(0, 1)
        elif op == Op.LW and self._arg_reg_stable and item.rs1 == REG_ARG \
                and item.imm in (HDR_GRID_DIM, HDR_BLOCK_DIM):
            # Launch-geometry header words: ``launch`` rejects
            # non-positive or > INT_MAX dimensions, and kernels cannot
            # write the argument block header.  blockDim is further
            # capped at the CUDA per-block thread limit.
            hdr_hi = MAX_BLOCK_DIM if item.imm == HDR_BLOCK_DIM else INT_MAX
            out = Interval(1, hdr_hi)
        elif op in (Op.LBU, Op.CLBU):
            out = Interval(0, 0xFF)
        elif op in (Op.LHU, Op.CLHU):
            out = Interval(0, 0xFFFF)
        self._set(state, rd, out if out is not None else TOP)

    # ------------------------------------------------------------------
    # Edge refinement
    # ------------------------------------------------------------------

    def _refine_edge(self, state, block, succ):
        """Refine ``state`` (end of ``block``) along the edge to ``succ``."""
        items = self.cfg.items
        last = items[block.end - 1] if block.end > block.start else None
        if not isinstance(last, VInstr) or last.op not in (
                Op.BLTU, Op.BGEU, Op.BLT, Op.BGE):
            return state
        target_block = self.cfg.label_block.get(last.target)
        fall_block = block.index + 1
        if target_block == fall_block:
            return state  # degenerate branch-to-next: edge is ambiguous
        if succ == target_block:
            taken = True
        elif succ == fall_block:
            taken = False
        else:
            return state
        a_reg, b_reg = last.rs1, last.rs2
        a, b = self._get(state, a_reg), self._get(state, b_reg)
        op = last.op
        if op in (Op.BLT, Op.BGE):
            # Signed order == unsigned order only within [0, INT_MAX].
            if a.hi > INT_MAX or b.hi > INT_MAX:
                return state
        # Normalise to the "a < b holds" / "a >= b holds" cases.
        lt_holds = taken if op in (Op.BLTU, Op.BLT) else not taken
        clamped = []
        if lt_holds:  # a < b
            if b.hi == 0:
                return None  # nothing is unsigned-below 0
            clamped.append((a_reg, self._clamp(a, hi=b.hi - 1)))
            if a.lo + 1 <= UMAX:
                clamped.append((b_reg, self._clamp(b, lo=a.lo + 1)))
        else:  # a >= b
            clamped.append((a_reg, self._clamp(a, lo=b.lo)))
            clamped.append((b_reg, self._clamp(b, hi=a.hi)))
        if any(interval is None for _, interval in clamped):
            # Contradictory refinement: the edge cannot be taken under
            # the current state, so it contributes no flow at all.
            return None
        state = dict(state)
        for reg, interval in clamped:
            self._set(state, reg, interval)
        return state

    @staticmethod
    def _clamp(interval, lo=None, hi=None):
        """The refined interval, or None when the constraint is
        contradictory (the refining edge is infeasible)."""
        new_lo = max(interval.lo, lo) if lo is not None else interval.lo
        new_hi = min(interval.hi, hi) if hi is not None else interval.hi
        if new_lo > new_hi:
            return None
        return Interval(new_lo, new_hi)

    # ------------------------------------------------------------------
    # Fixpoint
    # ------------------------------------------------------------------

    def _run(self):
        cfg = self.cfg
        if not cfg.rpo:
            return
        visits: Dict[int, int] = {b: 0 for b in cfg.rpo}
        # Widen only at loop headers: widening a refinement target (a
        # loop body entered through the guard's fall-through) would
        # permanently destroy the guard-derived bound, because the
        # widened state feeds the counter's increment and ratchets the
        # header past the signed-refinement precondition.  Headers cap
        # every cycle of a reducible CFG, so this preserves
        # termination; _HARD_WIDEN is a backstop for anything else.
        headers = {header for header, _ in cfg.loops}
        self.block_in[cfg.rpo[0]] = dict(self._seeds)
        worklist = list(cfg.rpo)
        while worklist:
            b = worklist.pop(0)
            if b not in self.block_in:
                continue
            state = dict(self.block_in[b])
            block = cfg.blocks[b]
            for i in block.item_indices():
                self.transfer(state, self.cfg.items[i])
            for succ in block.succs:
                edge_state = self._refine_edge(state, block, succ)
                if edge_state is None:
                    continue  # edge infeasible under the current state
                old = self.block_in.get(succ)
                if old is None:
                    self.block_in[succ] = dict(edge_state)
                    if succ not in worklist:
                        worklist.append(succ)
                    continue
                merged = self._join_states(old, edge_state)
                visits[succ] += 1
                if visits[succ] > _WIDEN_AFTER and succ in headers:
                    merged = self._widen_states(merged, old)
                elif visits[succ] > _HARD_WIDEN:
                    merged = self._widen_states(merged, old)
                if merged != old:
                    self.block_in[succ] = merged
                    if succ not in worklist:
                        worklist.append(succ)

    @staticmethod
    def _join_states(a, b):
        out = {}
        for reg in set(a) & set(b):
            joined = a[reg].join(b[reg])
            if not joined.is_top:
                out[reg] = joined
        return out

    @staticmethod
    def _widen_states(new, old):
        out = {}
        for reg, interval in new.items():
            widened = interval.widen_from(old[reg]) if reg in old else TOP
            if not widened.is_top:
                out[reg] = widened
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def interval_before(self, index, reg) -> Interval:
        """The interval of ``reg`` just before item ``index``."""
        block = self.cfg.blocks[self.cfg.block_of_item[index]]
        state = dict(self.block_in.get(block.index, {}))
        for i in range(block.start, index):
            self.transfer(state, self.cfg.items[i])
        return self._get(state, reg)
