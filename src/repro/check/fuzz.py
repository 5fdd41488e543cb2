"""Random-kernel and random-instruction fuzzing against the golden model.

``python -m repro fuzz --seed 0 --budget 200`` generates seeded random
programs, runs each on the pipeline with a
:class:`~repro.check.lockstep.LockstepChecker` attached, and reports any
architectural divergence (or simulator crash) with a minimal shrunk
reproducer.

Seven case kinds rotate per case index, each aimed at a known-delicate
part of the simulator:

========== ==============================================================
kind       stress target
========== ==============================================================
alu        signed/unsigned integer corners, FP NaN / signed-zero /
           infinity edges, forward-branch divergence
mem        sub-word load/store endianness + tag clearing, atomics
           serialised across lanes and warps
cheri      capability-manipulation ops through the metadata register
           file and the SFU slow path (set_bounds representability
           edges, sealing, permission masks)
cheri_mem  capability-addressed loads/stores/atomics, CLC/CSC tag
           round-trips, out-of-bounds fault lockstep
spill      the alu mix under a starved VRF (heavy spill/reload traffic)
cjalr      sentry sealing, capability jumps, and jump-fault lockstep
kernel     random NoCL DSL kernels compiled in all three modes, each
           lockstep-checked and the outputs compared across modes
========== ==============================================================

Every case is reconstructible from ``(seed, index)`` via
:func:`generate_case`; failures are additionally shrunk by greedy
delta-debugging over the instruction lines and written out as standalone
reproducer files.
"""

import os
import random
import time
from dataclasses import dataclass, field

from repro.check.lockstep import DivergenceError, LockstepChecker, check_program
from repro.isa.assembler import AssemblerError, assemble_text
from repro.isa.registers import reg_name
from repro.simt.config import HEAP_BASE, SMConfig

MASK32 = 0xFFFFFFFF

#: Fuzz geometry: small enough to be fast, big enough for two warps'
#: worth of scheduling interleavings and intra-warp divergence.
NUM_WARPS = 2
NUM_LANES = 4
NUM_THREADS = NUM_WARPS * NUM_LANES

#: Case-kind rotation (one full cycle every 9 cases; kernel cases are
#: the expensive ones, so they get one slot).
SCHEDULE = ("alu", "mem", "cheri", "cheri_mem", "spill", "cjalr", "mem",
            "branchy", "kernel")

#: Integer corner values: zero/one, sign boundaries, alternating bits,
#: shift-amount edges, power-of-two edges.
INT_VALUES = (
    0, 1, 2, 3, 31, 32, 33, 64, 255, 256, 4095, 4096,
    0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFF, 0xFFFFFFFE,
    0xAAAAAAAA, 0x55555555, 0x0000FFFF, 0xFFFF0000, 0x12345678,
)

#: binary32 bit patterns: signed zeros, quiet and signalling NaNs,
#: infinities, denormals, FLT_MAX, and values near the FCVT clamping
#: boundaries at +/-2**31.
FLOAT_BITS = (
    0x00000000, 0x80000000,              # +/- 0.0
    0x3F800000, 0xBF800000,              # +/- 1.0
    0x7F800000, 0xFF800000,              # +/- inf
    0x7FC00000, 0xFFC00000,              # quiet NaNs
    0x7F800001, 0x7FBFFFFF,              # signalling NaNs
    0x00000001, 0x007FFFFF, 0x80000001,  # denormals
    0x7F7FFFFF, 0xFF7FFFFF,              # +/- FLT_MAX
    0x4EFFFFFF, 0x4F000000, 0xCF000000,  # around +/-2**31 (FCVT edges)
    0x3F000000, 0x40490FDB,              # 0.5, pi
)

#: CSetBounds request lengths around every representability edge the
#: Concentrate encoding has: zero, the mantissa width, powers of two
#: +/- 1, and near-full-address-space values.
CAP_LENGTHS = (
    0, 1, 2, 7, 8, 63, 64, 65, 255, 256, 257, 511, 4095, 4096, 4097,
    (1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 20) - 1, 1 << 24,
    (1 << 24) + 1, 0xFFFFF000, 0xFFFFFFFF,
)

_INT3_OPS = ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra",
             "or", "and", "mul", "mulh", "mulhsu", "mulhu", "div",
             "divu", "rem", "remu")
_IMM_OPS = ("addi", "slti", "sltiu", "xori", "ori", "andi")
_SHIFT_IMM_OPS = ("slli", "srli", "srai")
_FLOAT3_OPS = ("fadd.s", "fsub.s", "fmul.s", "fdiv.s", "fmin.s", "fmax.s",
               "feq.s", "flt.s", "fle.s", "fsgnj.s", "fsgnjn.s", "fsgnjx.s")
_FLOAT1_OPS = ("fsqrt.s", "fcvt.w.s", "fcvt.wu.s", "fcvt.s.w", "fcvt.s.wu")
_BRANCH_OPS = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
_AMO_OPS = ("amoadd.w", "amoswap.w", "amoand.w", "amoor.w", "amoxor.w",
            "amomin.w", "amomax.w", "amominu.w", "amomaxu.w")
_CGET_OPS = ("cgettag", "cgetperm", "cgetbase", "cgetlen", "cgetaddr",
             "cgettype", "cgetsealed", "cgetflags")
_CMOD1_OPS = ("cmove", "ccleartag", "csealentry")
_CMOD3_OPS = ("csetbounds", "csetboundsexact", "csetaddr", "cincoffset",
              "candperm", "csetflags")


@dataclass
class Case:
    """One generated fuzz case, reconstructible from ``(seed, index)``."""

    index: int
    kind: str
    config_name: str            # baseline | cheri | cheri_opt (seq cases)
    body: list = field(default_factory=list)   # asm lines, halt appended
    init_regs: dict = field(default_factory=dict)
    init_cap_regs: dict = field(default_factory=dict)
    vrf_fraction: float = 0.375
    source: str = ""            # DSL source (kernel cases)
    kernel_inputs: tuple = ()   # (a values, b values) for kernel cases


@dataclass
class FuzzFailure:
    """A divergence/crash found by the fuzzer, with its reproducer."""

    index: int
    kind: str
    signature: str      # "divergence" | "crash:<ExcType>" | "cross-mode"
    message: str
    case: Case
    reduced_body: list = None
    path: str = ""


@dataclass
class FuzzReport:
    seed: int
    cases: int
    failures: list
    elapsed: float

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        lines = ["fuzz: seed=%d, %d case(s) in %.1fs, %d failure(s)"
                 % (self.seed, self.cases, self.elapsed,
                    len(self.failures))]
        for failure in self.failures:
            lines.append("  case %d (%s): %s%s"
                         % (failure.index, failure.kind, failure.signature,
                            " -> %s" % failure.path if failure.path else ""))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Value helpers
# ---------------------------------------------------------------------------

def _int_vector(rng, pool=INT_VALUES):
    """Per-thread values: uniform, affine, or fully random (the three
    shapes the compressed register file treats differently)."""
    shape = rng.randrange(3)
    if shape == 0:
        return [rng.choice(pool) & MASK32] * NUM_THREADS
    if shape == 1:
        base = rng.choice(pool)
        stride = rng.choice((1, 2, 4, 8, MASK32))  # MASK32 == -1 mod 2**32
        return [(base + stride * t) & MASK32 for t in range(NUM_THREADS)]
    return [rng.choice(pool) & MASK32 for _ in range(NUM_THREADS)]


def _float_vector(rng):
    if rng.randrange(2):
        return [rng.choice(FLOAT_BITS)] * NUM_THREADS
    return [rng.choice(FLOAT_BITS) for _ in range(NUM_THREADS)]


def _r(reg):
    return reg_name(reg)


# ---------------------------------------------------------------------------
# Sequence generators
# ---------------------------------------------------------------------------

def _alu_line(rng, regs, label_state, branch_prob=0.08):
    """One random computational line; occasionally a forward branch."""
    pick = rng.random()
    rd = rng.choice(regs)
    rs1 = rng.choice(regs)
    rs2 = rng.choice(regs)
    if pick < branch_prob and label_state is not None:
        label = "L%d" % label_state["next"]
        label_state["next"] += 1
        label_state["pending"].append([rng.randrange(1, 4), label])
        return "%s %s, %s, %s" % (rng.choice(_BRANCH_OPS), _r(rs1),
                                  _r(rs2), label)
    if pick < 0.42:
        return "%s %s, %s, %s" % (rng.choice(_INT3_OPS), _r(rd), _r(rs1),
                                  _r(rs2))
    if pick < 0.58:
        return "%s %s, %s, %d" % (rng.choice(_IMM_OPS), _r(rd), _r(rs1),
                                  rng.randrange(-2048, 2048))
    if pick < 0.66:
        return "%s %s, %s, %d" % (rng.choice(_SHIFT_IMM_OPS), _r(rd),
                                  _r(rs1), rng.randrange(0, 32))
    if pick < 0.82:
        return "%s %s, %s, %s" % (rng.choice(_FLOAT3_OPS), _r(rd), _r(rs1),
                                  _r(rs2))
    if pick < 0.92:
        return "%s %s, %s" % (rng.choice(_FLOAT1_OPS), _r(rd), _r(rs1))
    if pick < 0.96:
        return "lui %s, %d" % (_r(rd), rng.randrange(0, 1 << 20))
    return "auipc %s, %d" % (_r(rd), rng.randrange(0, 1 << 20))


def _emit_alu_body(rng, regs, count, branch_prob=0.08):
    """A body of random ALU/FP lines with forward-only branches (labels
    always resolve later in the stream, so every case terminates)."""
    body = []
    labels = {"next": 0, "pending": []}
    for _ in range(count):
        body.append(_alu_line(rng, regs, labels, branch_prob))
        for entry in labels["pending"]:
            entry[0] -= 1
        while labels["pending"] and labels["pending"][0][0] <= 0:
            body.append("%s:" % labels["pending"].pop(0)[1])
    for _, label in labels["pending"]:
        body.append("%s:" % label)
    return body


def _seed_int_float_regs(rng, regs):
    init = {}
    for reg in regs:
        init[reg] = (_float_vector(rng) if rng.random() < 0.4
                     else _int_vector(rng))
    return init


def _gen_alu(rng, index):
    regs = list(range(5, 16))
    return Case(index=index, kind="alu", config_name="baseline",
                body=_emit_alu_body(rng, regs, rng.randrange(20, 50)),
                init_regs=_seed_int_float_regs(rng, regs))


def _gen_branchy(rng, index):
    """The alu mix re-weighted hard toward forward branches (~4x the
    usual rate) over per-lane scrambled operands: warps spend most of
    the run partially diverged, driving the vector backend's masked issue
    and masked region entries instead of the converged fast paths."""
    regs = list(range(5, 16))
    return Case(index=index, kind="branchy",
                config_name=rng.choice(("baseline", "cheri_opt")),
                body=_emit_alu_body(rng, regs, rng.randrange(30, 70),
                                    branch_prob=0.30),
                init_regs=_seed_int_float_regs(rng, regs))


def _gen_spill(rng, index):
    """The alu mix over 27 live vectors with a 5-slot VRF: every access
    spills or reloads, on both the data and (in CHERI mode) metadata
    register files."""
    regs = list(range(5, 32))
    config = rng.choice(("baseline", "cheri_opt"))
    return Case(index=index, kind="spill", config_name=config,
                body=_emit_alu_body(rng, regs, rng.randrange(40, 80)),
                init_regs=_seed_int_float_regs(rng, regs),
                vrf_fraction=0.08)


def _gen_mem(rng, index):
    """Sub-word loads/stores on private per-thread windows plus atomics
    on one shared word (serialisation order must match the golden
    model's lane-order stepping)."""
    value_regs = list(range(5, 10))
    init = {reg: _int_vector(rng) for reg in value_regs}
    init[10] = [HEAP_BASE + 64 * t for t in range(NUM_THREADS)]   # private
    init[11] = [HEAP_BASE + 0x800] * NUM_THREADS                  # shared
    body = []
    ops = (("lw", 4), ("lh", 2), ("lhu", 2), ("lb", 1), ("lbu", 1),
           ("sw", 4), ("sh", 2), ("sb", 1))
    for _ in range(rng.randrange(20, 45)):
        pick = rng.random()
        if pick < 0.55:
            name, width = rng.choice(ops)
            reg = rng.choice(value_regs)
            imm = rng.randrange(0, 64 // width) * width
            body.append("%s %s, %d(%s)" % (name, _r(reg), imm, _r(10)))
        elif pick < 0.75:
            body.append("%s %s, %s, %s"
                        % (rng.choice(_AMO_OPS), _r(rng.choice(value_regs)),
                           _r(11), _r(rng.choice(value_regs))))
        else:
            body.append(_alu_line(rng, value_regs, None))
    return Case(index=index, kind="mem", config_name="baseline", body=body,
                init_regs=init)


def _make_window_cap(rng, perms=None):
    """A tagged capability over a heap window, built like the runtime
    builds buffer capabilities (so bounds are usually exact)."""
    from repro.cheri.capability import Perms, root_capability
    base = HEAP_BASE + rng.randrange(0, 16) * 0x1000
    length = rng.choice((64, 128, 256, 512, 4096))
    if perms is None:
        perms = (Perms.GLOBAL | Perms.LOAD | Perms.STORE | Perms.LOAD_CAP
                 | Perms.STORE_CAP)
    cap, _ = root_capability().set_bounds(base, length)
    return cap.and_perms(perms), base, length


def _gen_cheri(rng, index):
    """Capability manipulation through the metadata register file and
    (in cheri_opt) the SFU slow path.  The value semantics are shared
    with the golden model by construction — what this stresses is the
    register-file compression, uniform/affine detection, and the
    SFU-vs-lane execution paths."""
    from repro.cheri.capability import root_capability
    config = rng.choice(("cheri", "cheri_opt"))
    cap_regs = (10, 11, 12, 13)
    int_regs = (5, 6, 7, 8)
    init_caps = {}
    for reg in cap_regs:
        cap, base, length = _make_window_cap(rng)
        if rng.random() < 0.3:
            cap = cap.set_addr((base + rng.choice((0, 1, length - 1, length,
                                                   length + 8))) & MASK32)
        if rng.random() < 0.15:
            cap = root_capability()
        init_caps[reg] = [cap.inc_addr(8 * t) if rng.random() < 0.5 else cap
                          for t in range(NUM_THREADS)]
    init = {reg: _int_vector(rng, CAP_LENGTHS) for reg in int_regs}
    body = []
    for _ in range(rng.randrange(20, 45)):
        pick = rng.random()
        if pick < 0.25:
            body.append("%s %s, %s" % (rng.choice(_CGET_OPS),
                                       _r(rng.choice(int_regs)),
                                       _r(rng.choice(cap_regs))))
        elif pick < 0.35:
            body.append("%s %s, %s" % (rng.choice(("crrl", "cram")),
                                       _r(rng.choice(int_regs)),
                                       _r(rng.choice(int_regs))))
        elif pick < 0.5:
            body.append("%s %s, %s" % (rng.choice(_CMOD1_OPS),
                                       _r(rng.choice(cap_regs)),
                                       _r(rng.choice(cap_regs))))
        elif pick < 0.75:
            body.append("%s %s, %s, %s" % (rng.choice(_CMOD3_OPS),
                                           _r(rng.choice(cap_regs)),
                                           _r(rng.choice(cap_regs)),
                                           _r(rng.choice(int_regs))))
        elif pick < 0.85:
            body.append("cincoffsetimm %s, %s, %d"
                        % (_r(rng.choice(cap_regs)),
                           _r(rng.choice(cap_regs)),
                           rng.randrange(-2048, 2048)))
        elif pick < 0.92:
            body.append("csetboundsimm %s, %s, %d"
                        % (_r(rng.choice(cap_regs)),
                           _r(rng.choice(cap_regs)),
                           rng.randrange(0, 2048)))
        else:
            body.append(_alu_line(rng, int_regs, None))
    return Case(index=index, kind="cheri", config_name=config, body=body,
                init_regs=init, init_cap_regs=init_caps)


def _gen_cheri_mem(rng, index):
    """Capability-addressed memory: CLx/CSx sub-word semantics, CLC/CSC
    tag round-trips, capability atomics, and (sometimes) deliberate
    out-of-bounds accesses exercising fault lockstep."""
    from repro.cheri.capability import Perms
    config = rng.choice(("cheri", "cheri_opt"))
    value_regs = (5, 6, 7)
    init = {reg: _int_vector(rng) for reg in value_regs}
    data_perms = (Perms.GLOBAL | Perms.LOAD | Perms.STORE | Perms.LOAD_CAP
                  | Perms.STORE_CAP)
    perm_roll = rng.random()
    if perm_roll < 0.15:
        data_perms &= ~Perms.STORE_CAP   # CSC faults, CLC still works
    elif perm_roll < 0.3:
        data_perms &= ~Perms.LOAD_CAP    # CLC silently strips tags
    window, base, length = _make_window_cap(rng, data_perms)
    shared, _, _ = _make_window_cap(rng)
    init_caps = {
        10: [window.set_addr(base + 8 * t) for t in range(NUM_THREADS)],
        11: shared,                       # uniform: one shared address
        12: [window.set_addr(base + 8 * t) for t in range(NUM_THREADS)],
    }
    body = []
    cap_ops = (("clw", 4), ("clh", 2), ("clhu", 2), ("clb", 1),
               ("clbu", 1), ("csw", 4), ("csh", 2), ("csb", 1))
    for _ in range(rng.randrange(18, 40)):
        pick = rng.random()
        if pick < 0.45:
            name, width = rng.choice(cap_ops)
            imm = rng.randrange(0, 8) * width
            if rng.random() < 0.08:
                imm = length  # one lane lands out of bounds -> fault
            body.append("%s %s, %d(%s)" % (name, _r(rng.choice(value_regs)),
                                           imm, _r(10)))
        elif pick < 0.6:
            imm = rng.randrange(0, 4) * 8
            if rng.random() < 0.5:
                body.append("csc %s, %d(%s)" % (_r(12), imm, _r(10)))
            else:
                body.append("clc %s, %d(%s)" % (_r(13), imm, _r(10)))
        elif pick < 0.7:
            body.append("camoadd.w %s, %s, %s"
                        % (_r(rng.choice(value_regs)), _r(11),
                           _r(rng.choice(value_regs))))
        elif pick < 0.8:
            body.append("cgetaddr %s, %s" % (_r(rng.choice(value_regs)),
                                             _r(rng.choice((10, 11, 13)))))
        else:
            body.append(_alu_line(rng, value_regs, None))
    return Case(index=index, kind="cheri_mem", config_name=config,
                body=body, init_regs=init, init_cap_regs=init_caps)


def _gen_cjalr(rng, index):
    """A capability jump through an AUIPCC-derived (optionally sentry-
    sealed) target; negative variants clear the tag or the EXECUTE
    permission and must fault identically on both models."""
    from repro.cheri.capability import Perms
    config = rng.choice(("cheri", "cheri_opt"))
    variant = rng.choice(("plain", "sentry", "sentry", "untagged", "noexec"))
    int_regs = (5, 7, 8)
    init = {reg: _int_vector(rng) for reg in int_regs}
    init[9] = [int(Perms.all_perms() & ~Perms.EXECUTE)] * NUM_THREADS
    body = []
    for _ in range(rng.randrange(0, 4)):            # preamble
        body.append(_alu_line(rng, int_regs, None))
    auipcc_index = len(body)
    body.append("auipcc %s, 0" % _r(6))
    body.append("")                                  # cincoffsetimm (below)
    extra = 0
    if variant == "sentry":
        body.append("csealentry %s, %s" % (_r(6), _r(6)))
        extra = 1
    elif variant == "untagged":
        body.append("ccleartag %s, %s" % (_r(6), _r(6)))
        extra = 1
    elif variant == "noexec":
        body.append("candperm %s, %s, %s" % (_r(6), _r(6), _r(9)))
        extra = 1
    body.append("cjalr %s, %s, 0" % (_r(1), _r(6)))
    dead = rng.randrange(0, 3)
    for _ in range(dead):                            # skipped by the jump
        body.append(_alu_line(rng, int_regs, None))
    target_index = auipcc_index + 3 + extra + dead
    body[auipcc_index + 1] = ("cincoffsetimm %s, %s, %d"
                              % (_r(6), _r(6),
                                 4 * (target_index - auipcc_index)))
    for _ in range(rng.randrange(2, 6)):             # landing pad
        body.append(_alu_line(rng, int_regs, None))
    return Case(index=index, kind="cjalr", config_name=config, body=body,
                init_regs=init)


# ---------------------------------------------------------------------------
# DSL-kernel generator
# ---------------------------------------------------------------------------

_KERNEL_CONSTS = (0, 1, 2, 3, 5, 255, 2047, 4096, 65535, -1, -2048,
                  123456789)


def _kernel_expr(rng, names, depth=0):
    if depth >= 2 or rng.random() < 0.3:
        if rng.random() < 0.35:
            return str(rng.choice(_KERNEL_CONSTS))
        return rng.choice(names)
    op = rng.choice(("+", "-", "*", "&", "|", "^", "<<", ">>"))
    left = _kernel_expr(rng, names, depth + 1)
    if op in ("<<", ">>"):
        return "(%s %s %d)" % (left, op, rng.randrange(0, 13))
    return "(%s %s %s)" % (left, op, _kernel_expr(rng, names, depth + 1))


def _gen_kernel(rng, index):
    names = ["x", "y", "i"]
    stmts = []
    for k in range(rng.randrange(1, 4)):
        name = "t%d" % k
        stmts.append("        %s = %s" % (name, _kernel_expr(rng, names)))
        names.append(name)
    source = (
        "def fuzz_kernel(n: i32, a: ptr[i32], b: ptr[i32], c: ptr[i32]):\n"
        "    i = threadIdx.x + blockIdx.x * blockDim.x\n"
        "    while i < n:\n"
        "        x = a[i]\n"
        "        y = b[i]\n"
        + "\n".join(stmts) + "\n"
        "        c[i] = " + _kernel_expr(rng, names) + "\n"
        "        i += blockDim.x * gridDim.x\n"
    )
    n = 64
    signed_pool = tuple(v - (1 << 32) if v >> 31 else v for v in INT_VALUES)
    a_vals = [rng.choice(signed_pool) for _ in range(n)]
    b_vals = [rng.choice(signed_pool) for _ in range(n)]
    return Case(index=index, kind="kernel", config_name="(all modes)",
                source=source, kernel_inputs=(a_vals, b_vals))


_GENERATORS = {
    "alu": _gen_alu,
    "mem": _gen_mem,
    "cheri": _gen_cheri,
    "cheri_mem": _gen_cheri_mem,
    "spill": _gen_spill,
    "cjalr": _gen_cjalr,
    "branchy": _gen_branchy,
    "kernel": _gen_kernel,
}


def generate_case(seed, index):
    """Deterministically regenerate case ``index`` of fuzz run ``seed``."""
    kind = SCHEDULE[index % len(SCHEDULE)]
    rng = random.Random("repro-fuzz:%d:%d" % (seed, index))
    return _GENERATORS[kind](rng, index)


# ---------------------------------------------------------------------------
# Case execution
# ---------------------------------------------------------------------------

_CONFIG_FACTORIES = {
    "baseline": SMConfig.baseline,
    "cheri": SMConfig.cheri,
    "cheri_opt": SMConfig.cheri_optimised,
}


def _build_config(case, backend=None):
    config = _CONFIG_FACTORIES[case.config_name](
        num_warps=NUM_WARPS, num_lanes=NUM_LANES,
    ).with_(vrf_fraction=case.vrf_fraction)
    if backend is not None:
        config = config.with_(backend=backend)
    return config


def _run_seq(case, body, backend=None):
    """Run an instruction-sequence case; returns (signature, message) on
    failure, None on success.  A capability fault that the golden model
    reproduces exactly is a success (explained termination); a botched
    assembly (possible for shrink candidates with dangling labels) is
    reported distinctly so the shrinker treats it as 'did not reproduce'.
    """
    try:
        program = assemble_text("\n".join(list(body) + ["halt"]))
    except (AssemblerError, Exception) as exc:
        return ("unassemblable", "%s: %s" % (type(exc).__name__, exc))
    config = _build_config(case, backend)
    try:
        check_program(program, config, init_regs=case.init_regs,
                      init_cap_regs=case.init_cap_regs, max_cycles=400_000)
    except DivergenceError as exc:
        return ("divergence", str(exc))
    except Exception as exc:
        return ("crash:%s" % type(exc).__name__,
                "%s: %s" % (type(exc).__name__, exc))
    return None


def _run_kernel(case, backend=None, opt_levels=(0, 1)):
    """Compile and run a DSL kernel in all three modes at every opt
    level in ``opt_levels``, each under lockstep, then require
    bit-identical outputs across every (mode, opt) cell.

    This is the compiler's differential test: the ``-O1`` pipeline
    (``repro.nocl.opt``) must produce the same architectural results as
    the direct ``-O0`` translation for arbitrary generated kernels, not
    just the benchmark suite.
    """
    from repro.eval import runner
    from repro.nocl import NoCLRuntime, i32
    from repro.nocl.dsl import KernelSource
    from repro.obs import attach, detach

    try:
        kernel = KernelSource.from_source(case.source)
    except Exception as exc:
        return ("crash:%s" % type(exc).__name__,
                "kernel parse: %s: %s" % (type(exc).__name__, exc))
    a_vals, b_vals = case.kernel_inputs
    n = len(a_vals)
    outputs = {}
    cells = [(config_name, opt)
             for config_name in ("baseline", "cheri_opt", "boundscheck")
             for opt in opt_levels]
    for config_name, opt in cells:
        label = "%s@O%d" % (config_name, opt)
        overrides = {"opt": opt}
        if backend is not None:
            overrides["backend"] = backend
        mode, config = runner.config_for(config_name, num_warps=NUM_WARPS,
                                         num_lanes=NUM_LANES, **overrides)
        rt = NoCLRuntime(mode, config=config)
        checker = LockstepChecker()
        attach(rt.sm, checker)
        try:
            a = rt.alloc(i32, n)
            b = rt.alloc(i32, n)
            c = rt.alloc(i32, n)
            rt.upload(a, a_vals)
            rt.upload(b, b_vals)
            rt.launch(kernel, 2, NUM_LANES, [n, a, b, c])
            outputs[label] = rt.download(c)
        except DivergenceError as exc:
            checker._aborted = True
            return ("divergence", "[%s] %s" % (label, exc))
        except Exception as exc:
            checker._aborted = True
            return ("crash:%s" % type(exc).__name__,
                    "[%s] %s: %s" % (label, type(exc).__name__, exc))
        finally:
            detach(rt.sm)
    ref_label = "baseline@O%d" % opt_levels[0]
    reference = outputs[ref_label]
    for label, values in outputs.items():
        if values != reference:
            diffs = [(i, reference[i], values[i]) for i in range(n)
                     if reference[i] != values[i]][:8]
            return ("cross-mode",
                    "%s disagrees with %s at %d element(s); first: %s"
                    % (label, ref_label, len(diffs), diffs))
    return None


def run_case(case, backend=None, opt_levels=(0, 1)):
    """Run one case; returns (signature, message) on failure, else None."""
    if case.kind == "kernel":
        return _run_kernel(case, backend, opt_levels)
    return _run_seq(case, case.body, backend)


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

#: Upper bound on shrink-candidate executions per failure.
MAX_SHRINK_RUNS = 150


def shrink_case(case, signature, backend=None):
    """Greedy delta-debugging over the body lines: repeatedly drop the
    largest chunk that still reproduces the same failure signature."""
    lines = list(case.body)
    runs = 0
    chunk = max(1, len(lines) // 2)
    while chunk >= 1 and runs < MAX_SHRINK_RUNS:
        i = 0
        while i < len(lines) and runs < MAX_SHRINK_RUNS:
            candidate = lines[:i] + lines[i + chunk:]
            runs += 1
            outcome = _run_seq(case, candidate, backend)
            if outcome is not None and outcome[0] == signature:
                lines = candidate
            else:
                i += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return lines


# ---------------------------------------------------------------------------
# Reproducer files
# ---------------------------------------------------------------------------

def _render_cap(cap):
    return ("tag=%d addr=0x%08x base=0x%08x top=0x%09x perms=0x%03x "
            "otype=%d flags=%d" % (int(cap.tag), cap.addr, cap.base,
                                   cap.top, int(cap.perms), cap.otype,
                                   cap.flags))


def render_reproducer(failure, seed):
    case = failure.case
    lines = [
        "# repro fuzz reproducer",
        "# regenerate: repro.check.fuzz.generate_case(seed=%d, index=%d)"
        % (seed, case.index),
        "# kind=%s config=%s" % (case.kind, case.config_name),
        "# failure: %s" % failure.signature,
    ]
    if case.kind == "kernel":
        lines.append("# inputs a=%r" % (case.kernel_inputs[0],))
        lines.append("# inputs b=%r" % (case.kernel_inputs[1],))
        lines.append("")
        lines.append(case.source.rstrip())
    else:
        lines.append("# geometry: %d warps x %d lanes, vrf_fraction=%g"
                     % (NUM_WARPS, NUM_LANES, case.vrf_fraction))
        for reg in sorted(case.init_regs):
            lines.append("# init %s = %r" % (_r(reg), case.init_regs[reg]))
        for reg in sorted(case.init_cap_regs):
            caps = case.init_cap_regs[reg]
            if not isinstance(caps, (list, tuple)):
                caps = [caps]
            for t, cap in enumerate(caps):
                lines.append("# init cap %s[t%d]: %s"
                             % (_r(reg), t, _render_cap(cap)))
        body = (failure.reduced_body if failure.reduced_body is not None
                else case.body)
        lines.append("")
        lines.extend(body)
        lines.append("halt")
    lines.append("")
    lines.append("# --- failure detail ---")
    lines.extend("# " + text for text in failure.message.splitlines())
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_fuzz(seed=0, budget=200, time_budget=None, out_dir=None,
             verbose=False, log=None, backend=None, kinds=None,
             opt_levels=(0, 1)):
    """Fuzz until ``budget`` cases have run (or ``time_budget`` seconds
    have elapsed, whichever comes first when both are set).  Returns a
    :class:`FuzzReport`; reproducers for failures are written under
    ``out_dir`` when given.

    ``kinds`` biases the run to a subset of :data:`SCHEDULE` kinds
    (e.g. ``("branchy",)`` for a divergence soak): other slots in the
    rotation are skipped, but every executed case keeps its global
    ``(seed, index)`` identity so reproducers regenerate unchanged.
    ``opt_levels`` selects the compiler opt levels kernel cases run
    differentially (default: O0 vs O1, cross-checked bit-for-bit).
    """
    emit = log or (lambda text: None)
    if kinds:
        kinds = frozenset(kinds)
        unknown = kinds - set(SCHEDULE)
        if unknown:
            raise ValueError("unknown fuzz kind(s): %s"
                             % ", ".join(sorted(unknown)))
    start = time.monotonic()
    failures = []
    index = 0
    executed = 0
    while True:
        elapsed = time.monotonic() - start
        if time_budget is not None and elapsed >= time_budget:
            break
        if budget is not None and executed >= budget:
            break
        if kinds and SCHEDULE[index % len(SCHEDULE)] not in kinds:
            index += 1
            continue
        executed += 1
        case = generate_case(seed, index)
        outcome = run_case(case, backend, opt_levels)
        if verbose:
            emit("case %4d %-9s %-9s %s"
                 % (index, case.kind, case.config_name,
                    "ok" if outcome is None else outcome[0]))
        if outcome is not None:
            signature, message = outcome
            failure = FuzzFailure(index=index, kind=case.kind,
                                  signature=signature, message=message,
                                  case=case)
            if case.kind != "kernel":
                emit("case %d (%s): %s — shrinking..."
                     % (index, case.kind, signature))
                failure.reduced_body = shrink_case(case, signature,
                                                   backend)
            if out_dir:
                os.makedirs(out_dir, exist_ok=True)
                path = os.path.join(out_dir, "case_%04d_%s.txt"
                                    % (index, case.kind))
                with open(path, "w") as stream:
                    stream.write(render_reproducer(failure, seed))
                failure.path = path
            emit("FAIL case %d (%s): %s" % (index, case.kind, signature))
            failures.append(failure)
        index += 1
    return FuzzReport(seed=seed, cases=executed, failures=failures,
                      elapsed=time.monotonic() - start)


# ---------------------------------------------------------------------------
# Sharded fuzzing
# ---------------------------------------------------------------------------

def shard_seed(seed, shard):
    """Deterministic per-shard sub-seed.

    Shard 0 keeps the base seed, so ``--jobs 1`` covers exactly the same
    cases as a serial run; higher shards derive disjoint seeds (every
    case stays reconstructible from ``(sub_seed, index)``).
    """
    if shard == 0:
        return seed
    return (seed * 65537 + shard) & 0x7FFFFFFF


def _fuzz_shard(seed, shard, budget, time_budget, out_dir, verbose,
                backend=None, kinds=None, opt_levels=(0, 1)):
    """Worker entry point: one shard's fuzz run, summarised picklably."""
    sub = shard_seed(seed, shard)
    shard_out = os.path.join(out_dir, "shard%02d" % shard) if out_dir \
        else None
    report = run_fuzz(seed=sub, budget=budget, time_budget=time_budget,
                      out_dir=shard_out, verbose=verbose, backend=backend,
                      kinds=kinds, opt_levels=opt_levels)
    return {
        "shard": shard,
        "seed": sub,
        "cases": report.cases,
        "elapsed": report.elapsed,
        "failures": [
            {"index": failure.index, "kind": failure.kind,
             "signature": failure.signature, "message": failure.message,
             "path": failure.path}
            for failure in report.failures
        ],
    }


def run_fuzz_parallel(seed=0, budget=200, jobs=2, time_budget=None,
                      out_dir=None, verbose=False, log=None, backend=None,
                      kinds=None, opt_levels=(0, 1)):
    """Shard the fuzz budget across ``jobs`` worker processes.

    Each shard fuzzes under its own :func:`shard_seed`-derived seed (the
    schedule rotation means identical indices would otherwise generate
    identical cases in every shard); a ``time_budget`` applies to each
    shard in wall-clock parallel.  Shard reproducers land under
    ``out_dir/shardNN/`` and the merged :class:`FuzzReport` carries every
    failure with its reproducer path.
    """
    from concurrent.futures import ProcessPoolExecutor

    emit = log or (lambda text: None)
    jobs = max(1, jobs)
    start = time.monotonic()
    share, extra = divmod(budget, jobs) if budget is not None else (None, 0)
    shard_budgets = [None if budget is None
                     else share + (1 if shard < extra else 0)
                     for shard in range(jobs)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_fuzz_shard, seed, shard, shard_budgets[shard],
                        time_budget, out_dir, verbose, backend, kinds,
                        opt_levels)
            for shard in range(jobs)
            if shard_budgets[shard] is None or shard_budgets[shard] > 0
        ]
        summaries = [future.result() for future in futures]
    failures = []
    cases = 0
    for summary in summaries:
        cases += summary["cases"]
        emit("shard %d (seed %d): %d case(s), %d failure(s), %.1fs"
             % (summary["shard"], summary["seed"], summary["cases"],
                len(summary["failures"]), summary["elapsed"]))
        for failed in summary["failures"]:
            failures.append(FuzzFailure(
                index=failed["index"], kind=failed["kind"],
                signature="shard%d:%s" % (summary["shard"],
                                          failed["signature"]),
                message=failed["message"], case=None, path=failed["path"]))
    return FuzzReport(seed=seed, cases=cases, failures=failures,
                      elapsed=time.monotonic() - start)
