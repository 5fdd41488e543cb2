"""Mode-specific code generation: how pointers compile in each mode.

This is where the paper's three worlds diverge:

- **baseline**: a pointer is a raw 32-bit address; indexing is shift+add;
  loads/stores are plain RV32 accesses with no checks.
- **purecap**: a pointer is a capability register; indexing is CIncOffset;
  loads/stores are capability-checked (CL*/CS*); pointer arguments arrive
  as capabilities (CLC from the argument block) and shared arrays are
  *derived* from the scratchpad root via CSetBounds.  Kernels need no
  source changes — only this code generator differs.
- **boundscheck**: the Rust-comparison mode (paper section 4.7): raw
  addresses plus a hidden per-pointer length, with a compare-and-trap
  bounds check compiled before every dynamically-indexed access, the same
  check ``rustc`` emits for slice indexing.
"""

from repro.cheri import concentrate
from repro.isa.instructions import Op
from repro.nocl.dsl import f32, i32, u32
from repro.nocl.ir import VInstr, VLoadImm

#: Physical (pre-coloured) registers the runtime initialises at launch.
REG_SP = 2       # per-thread stack pointer (a capability under purecap)
REG_ARG = 3      # gp: kernel-argument block pointer / capability
REG_SCRATCH = 4  # tp: scratchpad base pointer / root capability
REG_TID = 10     # a0: threadIdx.x
REG_BLK0 = 11    # a1: first block index for this thread's slot
REG_NSLOT = 12   # a2: number of concurrent block slots (block-loop stride)

#: Argument-block header layout (byte offsets).
HDR_GRID_DIM = 0
HDR_BLOCK_DIM = 4
ARGS_OFFSET = 8

#: Comment stamped on every software bounds-check guard (the BLTU of the
#: compare-and-trap triple).  The optimizer and the dynamic-check probe
#: identify guards by this marker, so keep it in sync with check_bounds.
BOUNDS_CHECK_COMMENT = "bounds check"


class Value:
    """A scalar SSA-ish value: virtual register + type (+ known constant)."""

    __slots__ = ("vreg", "ty", "const", "temp")

    def __init__(self, vreg, ty, const=None, temp=True):
        self.vreg = vreg
        self.ty = ty
        self.const = const
        self.temp = temp

    def __repr__(self):
        return "Value(v%d: %s%s)" % (
            self.vreg, self.ty,
            "" if self.const is None else " = %d" % self.const)


class PtrValue:
    """A pointer value: address vreg (+ element-count length in boundscheck
    mode) and the element type it indexes."""

    __slots__ = ("vreg", "elem", "len_vreg", "len_const", "temp")

    def __init__(self, vreg, elem, len_vreg=None, len_const=None, temp=True):
        self.vreg = vreg
        self.elem = elem
        self.len_vreg = len_vreg
        self.len_const = len_const
        self.temp = temp

    def __repr__(self):
        return "PtrValue(v%d -> %s)" % (self.vreg, self.elem)


def _log2(width):
    return {1: 0, 2: 1, 4: 2, 8: 3}[width]


_LOAD_OPS = {
    # (width, signed) -> (baseline op, purecap op)
    (1, True): (Op.LB, Op.CLB),
    (1, False): (Op.LBU, Op.CLBU),
    (2, True): (Op.LH, Op.CLH),
    (2, False): (Op.LHU, Op.CLHU),
    (4, True): (Op.LW, Op.CLW),
    (4, False): (Op.LW, Op.CLW),
}
_STORE_OPS = {
    1: (Op.SB, Op.CSB),
    2: (Op.SH, Op.CSH),
    4: (Op.SW, Op.CSW),
}


class CodeGen:
    """Base class: the pieces shared by all three modes.

    The frontend hands us an ``emitter`` exposing ``emit``/``emit_li``/
    ``new_vreg``/``new_label``/``place_label`` so generated instructions
    interleave with the frontend's stream.
    """

    mode = None
    uses_cheri = False
    pointer_arg_slot_bytes = 4
    scalar_arg_slot_bytes = 4
    #: Unconditional-jump opcode: plain JAL, or CJAL under purecap (where
    #: the program counter is a capability).
    jump_op = Op.JAL

    def __init__(self, emitter):
        self.e = emitter

    # -- prologue helpers ---------------------------------------------------

    def load_header_word(self, offset, comment):
        value = Value(self.e.new_vreg(), i32, temp=False)
        self._load_word_from(REG_ARG, offset, value.vreg, comment)
        return value

    def load_scalar_arg(self, offset, ty, name):
        value = Value(self.e.new_vreg(), ty, temp=False)
        self._load_word_from(REG_ARG, offset, value.vreg, "arg %s" % name)
        return value

    # -- scalar helpers shared by subclasses ----------------------------------

    def scale_index(self, idx, width):
        """Return a vreg holding idx * width (byte offset)."""
        shift = _log2(width)
        if shift == 0:
            return idx.vreg
        scaled = self.e.new_vreg()
        self.e.emit(VInstr(Op.SLLI, rd=scaled, rs1=idx.vreg, imm=shift))
        return scaled

    def _value_ty(self, elem):
        if elem.is_float:
            return f32
        return u32 if not elem.signed and elem.width == 4 else i32

    def check_bounds(self, pointer, idx):
        """No software checks by default (hardware enforces under CHERI)."""

    # -- things subclasses must provide -----------------------------------------
    # load_ptr_arg, make_shared_ptr, new_ptr, ptr_copy, load, store, atomic_add
    # _load_word_from


class BaselineCodeGen(CodeGen):
    """Raw 32-bit pointers, no checks: the paper's Baseline configuration."""

    mode = "baseline"

    def _load_word_from(self, base_reg, offset, rd, comment):
        self.e.emit(VInstr(Op.LW, rd=rd, rs1=base_reg, imm=offset,
                           comment=comment))

    def load_ptr_arg(self, offset, elem, name):
        vreg = self.e.new_vreg()
        self._load_word_from(REG_ARG, offset, vreg, "ptr arg %s" % name)
        return PtrValue(vreg, elem, temp=False)

    def make_shared_ptr(self, offset, size_bytes, count, elem):
        vreg = self.e.new_vreg()
        if offset <= 2047:
            self.e.emit(VInstr(Op.ADDI, rd=vreg, rs1=REG_SCRATCH, imm=offset,
                               comment="shared array"))
        else:
            self.e.emit(VLoadImm(vreg, offset, comment="shared array"))
            self.e.emit(VInstr(Op.ADD, rd=vreg, rs1=vreg, rs2=REG_SCRATCH))
        return PtrValue(vreg, elem, len_const=count, temp=False)

    def new_ptr(self, elem):
        return PtrValue(self.e.new_vreg(), elem, temp=False)

    def ptr_copy(self, dst, src):
        self.e.emit(VInstr(Op.ADDI, rd=dst.vreg, rs1=src.vreg, imm=0,
                           comment="ptr copy"))

    def _effective_address(self, pointer, idx):
        if idx.const is not None and 0 <= idx.const * pointer.elem.width <= 2047:
            return pointer.vreg, idx.const * pointer.elem.width
        byte_off = self.scale_index(idx, pointer.elem.width)
        addr = self.e.new_vreg()
        self.e.emit(VInstr(Op.ADD, rd=addr, rs1=pointer.vreg, rs2=byte_off))
        return addr, 0

    def check_bounds(self, pointer, idx):
        pass  # no safety whatsoever

    def load(self, pointer, idx):
        self.check_bounds(pointer, idx)
        base, imm = self._effective_address(pointer, idx)
        op = _LOAD_OPS[(pointer.elem.width, pointer.elem.signed)][0]
        rd = self.e.new_vreg()
        self.e.emit(VInstr(op, rd=rd, rs1=base, imm=imm))
        return Value(rd, self._value_ty(pointer.elem))

    def store(self, pointer, idx, value):
        self.check_bounds(pointer, idx)
        base, imm = self._effective_address(pointer, idx)
        op = _STORE_OPS[pointer.elem.width][0]
        self.e.emit(VInstr(op, rs1=base, rs2=value.vreg, imm=imm))

    def atomic_add(self, pointer, idx, value):
        self.check_bounds(pointer, idx)
        base, imm = self._effective_address(pointer, idx)
        if imm:
            addr = self.e.new_vreg()
            self.e.emit(VInstr(Op.ADDI, rd=addr, rs1=base, imm=imm))
            base = addr
        rd = self.e.new_vreg()
        self.e.emit(VInstr(Op.AMOADD_W, rd=rd, rs1=base, rs2=value.vreg))
        return Value(rd, i32)


class BoundsCheckCodeGen(BaselineCodeGen):
    """Baseline plus Rust-style software bounds checks (paper section 4.7).

    Every pointer carries a hidden element-count length; every dynamically
    indexed access compiles to ``bltu idx, len, ok; trap; ok:`` before the
    access — the check the Rust compiler emits for slice indexing and, as
    the paper observes, can rarely eliminate in CUDA-style code because
    there is no general relationship between buffer sizes and thread ids.
    """

    mode = "boundscheck"
    pointer_arg_slot_bytes = 8  # address word + length word

    def load_ptr_arg(self, offset, elem, name):
        vreg = self.e.new_vreg()
        len_vreg = self.e.new_vreg()
        self._load_word_from(REG_ARG, offset, vreg, "ptr arg %s" % name)
        self._load_word_from(REG_ARG, offset + 4, len_vreg,
                             "len of %s" % name)
        return PtrValue(vreg, elem, len_vreg=len_vreg, temp=False)

    def make_shared_ptr(self, offset, size_bytes, count, elem):
        pointer = super().make_shared_ptr(offset, size_bytes, count, elem)
        len_vreg = self.e.new_vreg()
        self.e.emit(VLoadImm(len_vreg, count, comment="shared len"))
        pointer.len_vreg = len_vreg
        pointer.len_const = count
        return pointer

    def new_ptr(self, elem):
        return PtrValue(self.e.new_vreg(), elem,
                        len_vreg=self.e.new_vreg(), temp=False)

    def ptr_copy(self, dst, src):
        super().ptr_copy(dst, src)
        if src.len_vreg is not None:
            self.e.emit(VInstr(Op.ADDI, rd=dst.len_vreg, rs1=src.len_vreg,
                               imm=0, comment="len copy"))
        dst.len_const = src.len_const

    def check_bounds(self, pointer, idx):
        # A constant index into a statically-sized array is provably safe;
        # rustc elides the check there too.
        if (idx.const is not None and pointer.len_const is not None
                and 0 <= idx.const < pointer.len_const):
            return
        if pointer.len_vreg is None:
            return
        idx_vreg = idx.vreg
        ok = self.e.new_label("bc_ok")
        self.e.emit(VInstr(Op.BLTU, rs1=idx_vreg, rs2=pointer.len_vreg,
                           target=ok, comment=BOUNDS_CHECK_COMMENT))
        self.e.emit(VInstr(Op.TRAP, comment="index out of bounds"))
        self.e.place_label(ok)


class PurecapCodeGen(CodeGen):
    """Pure-capability CHERI: pointers are bounded, unforgeable capabilities."""

    mode = "purecap"
    uses_cheri = True
    pointer_arg_slot_bytes = 8
    scalar_arg_slot_bytes = 8  # keep capability alignment in the arg block
    jump_op = Op.CJAL

    def _load_word_from(self, base_reg, offset, rd, comment):
        self.e.emit(VInstr(Op.CLW, rd=rd, rs1=base_reg, imm=offset,
                           comment=comment))

    def load_ptr_arg(self, offset, elem, name):
        vreg = self.e.new_vreg()
        self.e.emit(VInstr(Op.CLC, rd=vreg, rs1=REG_ARG, imm=offset,
                           comment="cap arg %s" % name))
        return PtrValue(vreg, elem, temp=False)

    def make_shared_ptr(self, offset, size_bytes, count, elem):
        vreg = self.e.new_vreg()
        if offset == 0:
            self.e.emit(VInstr(Op.CMOVE, rd=vreg, rs1=REG_SCRATCH,
                               comment="shared array"))
        elif offset <= 2047:
            self.e.emit(VInstr(Op.CINCOFFSETIMM, rd=vreg, rs1=REG_SCRATCH,
                               imm=offset, comment="shared array"))
        else:
            tmp = self.e.new_vreg()
            self.e.emit(VLoadImm(tmp, offset, comment="shared array"))
            self.e.emit(VInstr(Op.CINCOFFSET, rd=vreg, rs1=REG_SCRATCH,
                               rs2=tmp))
        if size_bytes <= 4095:
            self.e.emit(VInstr(Op.CSETBOUNDSIMM, rd=vreg, rs1=vreg,
                               imm=size_bytes))
        else:
            tmp = self.e.new_vreg()
            self.e.emit(VLoadImm(tmp, size_bytes))
            self.e.emit(VInstr(Op.CSETBOUNDS, rd=vreg, rs1=vreg, rs2=tmp))
        return PtrValue(vreg, elem, len_const=count, temp=False)

    def new_ptr(self, elem):
        return PtrValue(self.e.new_vreg(), elem, temp=False)

    def ptr_copy(self, dst, src):
        self.e.emit(VInstr(Op.CMOVE, rd=dst.vreg, rs1=src.vreg,
                           comment="cap copy"))

    def _effective_cap(self, pointer, idx):
        """Capability addressing: returns (cap_vreg, immediate)."""
        if idx.const is not None and 0 <= idx.const * pointer.elem.width <= 2047:
            return pointer.vreg, idx.const * pointer.elem.width
        byte_off = self.scale_index(idx, pointer.elem.width)
        cap = self.e.new_vreg()
        self.e.emit(VInstr(Op.CINCOFFSET, rd=cap, rs1=pointer.vreg,
                           rs2=byte_off))
        return cap, 0

    def load(self, pointer, idx):
        cap, imm = self._effective_cap(pointer, idx)
        op = _LOAD_OPS[(pointer.elem.width, pointer.elem.signed)][1]
        rd = self.e.new_vreg()
        self.e.emit(VInstr(op, rd=rd, rs1=cap, imm=imm))
        return Value(rd, self._value_ty(pointer.elem))

    def store(self, pointer, idx, value):
        cap, imm = self._effective_cap(pointer, idx)
        op = _STORE_OPS[pointer.elem.width][1]
        self.e.emit(VInstr(op, rs1=cap, rs2=value.vreg, imm=imm))

    def atomic_add(self, pointer, idx, value):
        cap, imm = self._effective_cap(pointer, idx)
        if imm:
            cap2 = self.e.new_vreg()
            self.e.emit(VInstr(Op.CINCOFFSETIMM, rd=cap2, rs1=cap, imm=imm))
            cap = cap2
        rd = self.e.new_vreg()
        self.e.emit(VInstr(Op.CAMOADD_W, rd=rd, rs1=cap, rs2=value.vreg))
        return Value(rd, i32)


CODEGENS = {
    "baseline": BaselineCodeGen,
    "purecap": PurecapCodeGen,
    "boundscheck": BoundsCheckCodeGen,
}


def shared_alloc_layout(cursor, count, elem):
    """Place a shared array so its capability is exactly representable.

    Returns (offset, padded_size_bytes, next_cursor).  The offset is
    aligned with CRAM and the size rounded with CRRL so CSetBounds in the
    purecap prologue is always exact (no silent widening into a
    neighbouring shared array).
    """
    size = count * elem.width
    rounded = concentrate.crrl(size)
    mask = concentrate.crml(size)
    align = (~mask & 0xFFFFFFFF) + 1
    offset = (cursor + align - 1) & mask
    return offset, rounded, offset + rounded
