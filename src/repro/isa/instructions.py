"""Opcodes and the instruction value type.

The opcode set is RV32IMA + Zfinx (single-precision float in the integer
register file) + the CHERI subset of paper Figure 4, plus three
simulator-level operations (BARRIER for ``__syncthreads``, HALT for kernel
thread completion, TRAP for software bounds-check failure in the Rust-like
comparison mode).
"""

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional


class Op(Enum):
    """Every operation the SIMT core can execute."""

    # --- RV32I ---
    LUI = auto()
    AUIPC = auto()
    JAL = auto()
    JALR = auto()
    BEQ = auto()
    BNE = auto()
    BLT = auto()
    BGE = auto()
    BLTU = auto()
    BGEU = auto()
    LB = auto()
    LH = auto()
    LW = auto()
    LBU = auto()
    LHU = auto()
    SB = auto()
    SH = auto()
    SW = auto()
    ADDI = auto()
    SLTI = auto()
    SLTIU = auto()
    XORI = auto()
    ORI = auto()
    ANDI = auto()
    SLLI = auto()
    SRLI = auto()
    SRAI = auto()
    ADD = auto()
    SUB = auto()
    SLL = auto()
    SLT = auto()
    SLTU = auto()
    XOR = auto()
    SRL = auto()
    SRA = auto()
    OR = auto()
    AND = auto()
    FENCE = auto()
    ECALL = auto()
    EBREAK = auto()

    # --- M extension ---
    MUL = auto()
    MULH = auto()
    MULHSU = auto()
    MULHU = auto()
    DIV = auto()
    DIVU = auto()
    REM = auto()
    REMU = auto()

    # --- A extension (word atomics) ---
    AMOADD_W = auto()
    AMOSWAP_W = auto()
    AMOAND_W = auto()
    AMOOR_W = auto()
    AMOXOR_W = auto()
    AMOMIN_W = auto()
    AMOMAX_W = auto()
    AMOMINU_W = auto()
    AMOMAXU_W = auto()

    # --- Zfinx single-precision float (operands in x-registers) ---
    FADD_S = auto()
    FSUB_S = auto()
    FMUL_S = auto()
    FDIV_S = auto()
    FSQRT_S = auto()
    FMIN_S = auto()
    FMAX_S = auto()
    FEQ_S = auto()
    FLT_S = auto()
    FLE_S = auto()
    FCVT_W_S = auto()
    FCVT_WU_S = auto()
    FCVT_S_W = auto()
    FCVT_S_WU = auto()
    FSGNJ_S = auto()
    FSGNJN_S = auto()
    FSGNJX_S = auto()

    # --- CHERI (paper Figure 4) ---
    CGETTAG = auto()
    CCLEARTAG = auto()
    CGETPERM = auto()
    CANDPERM = auto()
    CGETBASE = auto()
    CGETLEN = auto()
    CSETBOUNDS = auto()
    CSETBOUNDSIMM = auto()
    CSETBOUNDSEXACT = auto()
    CGETADDR = auto()
    CSETADDR = auto()
    CINCOFFSET = auto()
    CINCOFFSETIMM = auto()
    CGETTYPE = auto()
    CGETSEALED = auto()
    CGETFLAGS = auto()
    CSETFLAGS = auto()
    CSEALENTRY = auto()
    CMOVE = auto()
    AUIPCC = auto()
    CJAL = auto()
    CJALR = auto()
    CSPECIALRW = auto()
    CRRL = auto()
    CRAM = auto()
    # Loads/stores via capabilities.
    CLB = auto()
    CLH = auto()
    CLW = auto()
    CLBU = auto()
    CLHU = auto()
    CSB = auto()
    CSH = auto()
    CSW = auto()
    CLC = auto()
    CSC = auto()
    # Capability-addressed atomic (CHERI-A interaction, paper excludes from
    # Figure 4 but the benchmarks need atomics under purecap).
    CAMOADD_W = auto()

    # --- simulator-level SIMT operations ---
    BARRIER = auto()
    HALT = auto()
    TRAP = auto()


@dataclass(frozen=True)
class Instr:
    """A decoded instruction.

    ``rd``/``rs1``/``rs2`` are register indices (``None`` when absent) and
    ``imm`` the sign-extended immediate.  ``depth`` is the static
    control-flow nesting level used by the active-thread-selection stage to
    reconverge divergent threads (deepest-first, paper section 2.3); it is
    metadata supplied by the compiler, not an encoded field.  ``line`` is
    compiler side-band too: the DSL source line the instruction was
    generated from (``None`` for runtime-generated prologue/epilogue),
    used by the profiler to attribute cycles back to kernel source.
    """

    op: Op
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: Optional[int] = None
    depth: int = 0
    comment: str = field(default="", compare=False)
    line: Optional[int] = field(default=None, compare=False)

    def with_depth(self, depth):
        return Instr(self.op, self.rd, self.rs1, self.rs2, self.imm,
                     depth=depth, comment=self.comment, line=self.line)

    def __str__(self):
        from repro.isa.disasm import format_instr
        return format_instr(self)


# --------------------------------------------------------------------------
# Classification sets the pipeline and the stats collector dispatch on.
# --------------------------------------------------------------------------

#: All CHERI-introduced operations (for the Figure 6 histogram).
CHERI_OPS = frozenset({
    Op.CGETTAG, Op.CCLEARTAG, Op.CGETPERM, Op.CANDPERM, Op.CGETBASE,
    Op.CGETLEN, Op.CSETBOUNDS, Op.CSETBOUNDSIMM, Op.CSETBOUNDSEXACT,
    Op.CGETADDR, Op.CSETADDR, Op.CINCOFFSET, Op.CINCOFFSETIMM, Op.CGETTYPE,
    Op.CGETSEALED, Op.CGETFLAGS, Op.CSETFLAGS, Op.CSEALENTRY, Op.CMOVE,
    Op.AUIPCC, Op.CJAL, Op.CJALR, Op.CSPECIALRW, Op.CRRL, Op.CRAM,
    Op.CLB, Op.CLH, Op.CLW, Op.CLBU, Op.CLHU, Op.CSB, Op.CSH, Op.CSW,
    Op.CLC, Op.CSC, Op.CAMOADD_W,
})

#: Memory loads (including capability-addressed and capability-width).
LOAD_OPS = frozenset({
    Op.LB, Op.LH, Op.LW, Op.LBU, Op.LHU,
    Op.CLB, Op.CLH, Op.CLW, Op.CLBU, Op.CLHU, Op.CLC,
})

#: Memory stores (including capability-addressed and capability-width).
STORE_OPS = frozenset({
    Op.SB, Op.SH, Op.SW, Op.CSB, Op.CSH, Op.CSW, Op.CSC,
})

#: Atomic read-modify-write operations.
AMO_OPS = frozenset({
    Op.AMOADD_W, Op.AMOSWAP_W, Op.AMOAND_W, Op.AMOOR_W, Op.AMOXOR_W,
    Op.AMOMIN_W, Op.AMOMAX_W, Op.AMOMINU_W, Op.AMOMAXU_W, Op.CAMOADD_W,
})

#: Byte width of each memory access, per op.
ACCESS_WIDTH = {
    Op.LB: 1, Op.LBU: 1, Op.SB: 1, Op.CLB: 1, Op.CLBU: 1, Op.CSB: 1,
    Op.LH: 2, Op.LHU: 2, Op.SH: 2, Op.CLH: 2, Op.CLHU: 2, Op.CSH: 2,
    Op.LW: 4, Op.SW: 4, Op.CLW: 4, Op.CSW: 4,
    Op.AMOADD_W: 4, Op.AMOSWAP_W: 4, Op.AMOAND_W: 4, Op.AMOOR_W: 4,
    Op.AMOXOR_W: 4, Op.AMOMIN_W: 4, Op.AMOMAX_W: 4, Op.AMOMINU_W: 4,
    Op.AMOMAXU_W: 4, Op.CAMOADD_W: 4,
    Op.CLC: 8, Op.CSC: 8,
}

#: Operations executed in the shared-function unit in every configuration
#: (SIMTight routes fp divide and square root there, paper section 3.3).
SFU_OPS = frozenset({
    Op.FDIV_S, Op.FSQRT_S, Op.DIV, Op.DIVU, Op.REM, Op.REMU,
})

#: CHERI operations eligible for the optimised configuration's SFU slow
#: path: getting and setting bounds is infrequent on GPU workloads (paper
#: Figure 6), so their expensive CheriCapLib logic can live in the SFU.
CHERI_SLOW_OPS = frozenset({
    Op.CGETBASE, Op.CGETLEN, Op.CSETBOUNDS, Op.CSETBOUNDSIMM,
    Op.CSETBOUNDSEXACT, Op.CRRL, Op.CRAM,
})

#: Operations whose destination register receives full capability metadata
#: (everything else writing rd sets the metadata to null, paper Figure 4).
CAP_RESULT_OPS = frozenset({
    Op.CCLEARTAG, Op.CANDPERM, Op.CSETBOUNDS, Op.CSETBOUNDSIMM,
    Op.CSETBOUNDSEXACT, Op.CSETADDR, Op.CINCOFFSET, Op.CINCOFFSETIMM,
    Op.CSETFLAGS, Op.CSEALENTRY, Op.CMOVE, Op.AUIPCC, Op.CJAL, Op.CJALR,
    Op.CSPECIALRW, Op.CLC,
})

#: Control-flow operations (branches and jumps).
BRANCH_OPS = frozenset({
    Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU,
})
JUMP_OPS = frozenset({Op.JAL, Op.JALR, Op.CJAL, Op.CJALR})

#: Zfinx floating-point operations.
FLOAT_OPS = frozenset({
    Op.FADD_S, Op.FSUB_S, Op.FMUL_S, Op.FDIV_S, Op.FSQRT_S, Op.FMIN_S,
    Op.FMAX_S, Op.FEQ_S, Op.FLT_S, Op.FLE_S, Op.FCVT_W_S, Op.FCVT_WU_S,
    Op.FCVT_S_W, Op.FCVT_S_WU, Op.FSGNJ_S, Op.FSGNJN_S, Op.FSGNJX_S,
})
