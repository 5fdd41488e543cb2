"""Divergence-stress micro-kernels shared across backend test stacks.

Two irregular control-flow shapes that defeat the converged fast paths
and drive the masked region-variant machinery:

- :func:`branch_ladder`: a counted loop whose body forks on each lane's
  own accumulator parity into one of two straight-line mixing blocks,
  so the warp splits and re-joins with a data-dependent mask on every
  trip — and because the arms rewrite the accumulators, the masks
  themselves evolve from trip to trip;
- :func:`frontier_loop`: a BFS-style frontier walk where every lane
  owns a different amount of work, so lanes retire from the loop one by
  one and the surviving subset keeps executing a long straight-line
  body (load, mix, store, cursor bump) under ever-thinner masks.

Both keep their straight-line blocks long enough (>= 4 instructions)
to form fused regions, which makes them the canonical fixtures for
scalar-vs-vector bit-identity under partial masks and for the CI
divergence smoke job.
"""

from repro.isa.instructions import Instr, Op
from repro.simt.config import HEAP_BASE


def _heap_slots(num_threads, base=HEAP_BASE):
    return [base + 4 * t for t in range(num_threads)]


def branch_ladder(trips=16, threads=8):
    """Data-dependent branch ladder: fork/rejoin with evolving masks.

    Every trip each lane inspects its own accumulator's parity and runs
    exactly one of two straight-line mixing blocks before rejoining for
    the trip counter.  The blocks rewrite the accumulator, so which
    lanes go even/odd next trip depends on the data they just computed.
    Returns ``(prog, init_regs)``.
    """
    prog = [
        Instr(Op.ADDI, rd=9, rs1=0, imm=0),
        Instr(Op.BGE, rs1=9, rs2=5, imm=56),                 # loop head
        Instr(Op.ANDI, rd=10, rs1=6, imm=1),
        Instr(Op.BNE, rs1=10, rs2=0, imm=24),                # parity fork
        Instr(Op.ADD, rd=11, rs1=6, rs2=7, depth=1),         # even arm
        Instr(Op.XOR, rd=6, rs1=11, rs2=9, depth=1),
        Instr(Op.SLLI, rd=12, rs1=6, imm=1, depth=1),
        Instr(Op.ADDI, rd=6, rs1=12, imm=3, depth=1),
        Instr(Op.JAL, rd=0, imm=20, depth=1),                # -> join
        Instr(Op.SRLI, rd=11, rs1=6, imm=1, depth=1),        # odd arm
        Instr(Op.ADD, rd=6, rs1=11, rs2=9, depth=1),
        Instr(Op.XOR, rd=12, rs1=6, rs2=7, depth=1),
        Instr(Op.ADDI, rd=6, rs1=12, imm=1, depth=1),
        Instr(Op.ADDI, rd=9, rs1=9, imm=1),                  # join
        Instr(Op.JAL, rd=0, imm=-52),                        # -> loop head
        Instr(Op.SW, rs1=8, rs2=6, imm=0),
        Instr(Op.HALT),
    ]
    regs = {5: [trips] * threads,
            6: [7 * t + 1 for t in range(threads)],
            7: [0x33] * threads,
            8: _heap_slots(threads)}
    return prog, regs


def frontier_loop(threads=8):
    """BFS-style frontier walk: per-lane work, progressive retirement.

    Every lane walks its own cursor over a private node window for a
    lane-dependent number of trips; lanes fall out of the loop one by
    one while survivors keep running the 6-instruction straight-line
    body under shrinking masks.  Returns ``(prog, init_regs)``.
    """
    prog = [
        Instr(Op.ADDI, rd=9, rs1=0, imm=0),
        Instr(Op.BGE, rs1=9, rs2=5, imm=32),                 # loop head
        Instr(Op.LW, rd=10, rs1=6, imm=0, depth=1),          # pop node
        Instr(Op.ADD, rd=11, rs1=10, rs2=7, depth=1),        # relax edge
        Instr(Op.XOR, rd=12, rs1=11, rs2=9, depth=1),
        Instr(Op.SW, rs1=8, rs2=12, imm=0, depth=1),
        Instr(Op.ADDI, rd=6, rs1=6, imm=4, depth=1),         # next node
        Instr(Op.ADDI, rd=9, rs1=9, imm=1, depth=1),
        Instr(Op.JAL, rd=0, imm=-28, depth=1),               # -> loop head
        Instr(Op.SW, rs1=8, rs2=9, imm=0x100),               # trip count
        Instr(Op.HALT),
    ]
    regs = {5: [(3 * t) % 7 + 1 for t in range(threads)],
            6: [HEAP_BASE + 0x400 + 64 * t for t in range(threads)],
            7: [0x9E37] * threads,
            8: _heap_slots(threads)}
    return prog, regs
