"""The scalar (reference) execution backend.

Per-lane interpretation of every instruction: the per-lane scalar loops
formerly inlined in ``pipeline.py`` live here, behind the
:class:`~repro.simt.backend.base.Backend` interface.  This backend is the
semantic reference the vectorized backend is checked against, so it stays
deliberately simple: no fused regions, no operand-form tricks.

Dispatch is decode-cached: at launch every static instruction is decoded
once into a ``(handler, aux, falls_through)`` triple — the handler is a
bound method for the instruction's execution group, ``aux`` carries the
pre-resolved per-lane function and immediates, and ``falls_through``
tells the issue loop to move the lanes on to pc + 4 itself — so the
issue loop never re-classifies an opcode.
"""

from repro.cheri.capability import Capability, Perms
from repro.isa.instructions import (
    ACCESS_WIDTH,
    AMO_OPS,
    BRANCH_OPS,
    CHERI_SLOW_OPS,
    LOAD_OPS,
    SFU_OPS,
    STORE_OPS,
    Op,
)
from repro.cheri import concentrate
from repro.simt import alu
from repro.simt.backend.base import Backend
from repro.simt.coalescer import atomic_conflicts
from repro.cheri.exceptions import (
    PermissionViolation,
    SealViolation,
    TagViolation,
)

MASK32 = 0xFFFFFFFF
_FAR_FUTURE = 1 << 62

_INT_R = {
    Op.ADD: "add", Op.SUB: "sub", Op.SLL: "sll", Op.SRL: "srl",
    Op.SRA: "sra", Op.XOR: "xor", Op.OR: "or", Op.AND: "and",
    Op.SLT: "slt", Op.SLTU: "sltu", Op.MUL: "mul", Op.MULH: "mulh",
    Op.MULHSU: "mulhsu", Op.MULHU: "mulhu", Op.DIV: "div", Op.DIVU: "divu",
    Op.REM: "rem", Op.REMU: "remu",
}
_INT_I = {
    Op.ADDI: "add", Op.SLTI: "slt", Op.SLTIU: "sltu", Op.XORI: "xor",
    Op.ORI: "or", Op.ANDI: "and", Op.SLLI: "sll", Op.SRLI: "srl",
    Op.SRAI: "sra",
}
_FLOAT_RR = {
    Op.FADD_S: "fadd", Op.FSUB_S: "fsub", Op.FMUL_S: "fmul",
    Op.FDIV_S: "fdiv", Op.FMIN_S: "fmin", Op.FMAX_S: "fmax",
    Op.FEQ_S: "feq", Op.FLT_S: "flt", Op.FLE_S: "fle",
    Op.FSGNJ_S: "fsgnj", Op.FSGNJN_S: "fsgnjn", Op.FSGNJX_S: "fsgnjx",
}
_FLOAT_UNARY = {
    Op.FSQRT_S: "fsqrt", Op.FCVT_W_S: "fcvt.w.s", Op.FCVT_WU_S: "fcvt.wu.s",
    Op.FCVT_S_W: "fcvt.s.w", Op.FCVT_S_WU: "fcvt.s.wu",
}
_AMO_FN = {
    Op.AMOADD_W: lambda old, v: alu.to_u32(old + v),
    Op.CAMOADD_W: lambda old, v: alu.to_u32(old + v),
    Op.AMOSWAP_W: lambda old, v: v,
    Op.AMOAND_W: lambda old, v: old & v,
    Op.AMOOR_W: lambda old, v: old | v,
    Op.AMOXOR_W: lambda old, v: old ^ v,
    Op.AMOMIN_W: lambda old, v: old if alu.to_signed(old) <= alu.to_signed(v) else v,
    Op.AMOMAX_W: lambda old, v: old if alu.to_signed(old) >= alu.to_signed(v) else v,
    Op.AMOMINU_W: lambda old, v: min(old, v),
    Op.AMOMAXU_W: lambda old, v: max(old, v),
}

# Decode-time dispatch tables: op -> per-lane function.  Resolved once at
# module import so the handlers call straight through with no name lookup.
_INT_R_FN = {op: alu.INT_FNS[name] for op, name in _INT_R.items()}
_INT_I_FN = {op: alu.INT_FNS[name] for op, name in _INT_I.items()}
_FLOAT_RR_FN = {op: alu.FLOAT_FNS[name] for op, name in _FLOAT_RR.items()}
_FLOAT_UNARY_FN = {op: alu.FLOAT_FNS[name] for op, name in _FLOAT_UNARY.items()}
_BRANCH_FN = {op: alu.BRANCH_FNS[op.name.lower()] for op in BRANCH_OPS}

_SIGNED_LOADS = (Op.LB, Op.LH, Op.CLB, Op.CLH)

_CGET_FN = {
    Op.CGETTAG: lambda cap: int(cap.tag),
    Op.CGETPERM: lambda cap: int(cap.perms),
    Op.CGETBASE: lambda cap: cap.base,
    Op.CGETLEN: lambda cap: min(cap.length, MASK32),
    Op.CGETADDR: lambda cap: cap.addr,
    Op.CGETTYPE: lambda cap: cap.otype,
    Op.CGETSEALED: lambda cap: int(cap.is_sealed),
    Op.CGETFLAGS: lambda cap: cap.flags,
}
_CRR_FN = {
    # CRRL is an XLEN-wide result: crrl(0xFFFFFFFF) = 2^32 truncates to 0
    # (the CHERI-RISC-V CRoundRepresentableLength semantics), it does not
    # saturate.  CGetLen above is the one that saturates.
    Op.CRRL: lambda v: concentrate.crrl(v) & MASK32,
    Op.CRAM: concentrate.crml,
}
_CMOD1_FN = {
    Op.CCLEARTAG: lambda cap: cap.with_tag_cleared(),
    Op.CMOVE: lambda cap: cap,
    Op.CSEALENTRY: lambda cap: cap.seal_entry(),
}
_CMOD2_FN = {
    Op.CANDPERM: lambda cap, v: cap.and_perms(v),
    Op.CSETFLAGS: lambda cap, v: cap.set_flags(v),
    Op.CSETADDR: lambda cap, v: cap.set_addr(v),
    Op.CINCOFFSET: lambda cap, v: cap.inc_addr(v),
    Op.CSETBOUNDS: lambda cap, v: cap.set_bounds(cap.addr, v)[0],
    Op.CSETBOUNDSEXACT: lambda cap, v: cap.set_bounds(cap.addr, v, exact=True)[0],
}
_CIMM_FN = {
    Op.CINCOFFSETIMM: lambda cap, imm: cap.inc_addr(imm),
    Op.CSETBOUNDSIMM: lambda cap, imm: cap.set_bounds(cap.addr, imm)[0],
}


def _meta_words(caps):
    """Per-lane metadata words (tag in bit 32) of a capability result and
    whether any lane's capability is tagged; a None lane is null."""
    metas = [0] * len(caps)
    tagged = False
    for i, cap in enumerate(caps):
        if cap is not None:
            # bool tag shifts like the 0/1 int it is.
            metas[i] = cap.meta_word() | (cap.tag << 32)
            if cap.tag:
                tagged = True
    return metas, tagged


class ScalarBackend(Backend):
    """Reference per-lane interpreter (see module docstring)."""

    name = "scalar"

    # ------------------------------------------------------------------
    # Scheduler loop
    # ------------------------------------------------------------------

    def run(self, max_cycles):
        """Barrel-schedule the launched program to completion.

        Returns the final cycle count.  On a capability fault or software
        trap, records the precise abort cycle in ``self.fault_cycle`` and
        re-raises for the SM to wrap into a KernelAbort.
        """
        from repro.cheri.exceptions import CapabilityFault
        from repro.simt.pipeline import KernelAbort, SoftwareTrap

        sm = self.sm
        cycle = 0
        rotation = 0
        warps = sm.warps
        count = len(warps)
        live = count
        issue = self.issue
        probes = sm.probes
        try:
            while live:
                picked = None
                for i in range(count):
                    warp = warps[(rotation + i) % count]
                    if not warp.done and not warp.in_barrier and \
                            warp.ready_at <= cycle:
                        picked = warp
                        break
                if picked is None:
                    next_ready = min(
                        (w.ready_at for w in warps
                         if not w.done and not w.in_barrier),
                        default=None,
                    )
                    if next_ready is None:
                        raise KernelAbort("deadlock: all warps blocked on a "
                                          "barrier", cycle)
                    advanced = max(cycle + 1, next_ready)
                    if probes is not None:
                        probes.idle(cycle, advanced)
                    cycle = advanced
                    continue
                rotation = picked.index + 1
                cycle = issue(picked, cycle)
                if picked.done:
                    live -= 1
                if cycle > max_cycles:
                    raise KernelAbort("cycle limit exceeded", cycle)
        except (CapabilityFault, SoftwareTrap):
            if self.fault_cycle is None:
                self.fault_cycle = cycle
            raise
        return cycle

    # ------------------------------------------------------------------
    # Issue: one instruction for one warp
    # ------------------------------------------------------------------

    def issue(self, warp, cycle):
        sm = self.sm
        cfg = sm.cfg
        stats = sm.stats
        pc, lanes = sm._select_threads(warp)
        if pc is None:
            warp.done = True
            warp.ready_at = _FAR_FUTURE
            return cycle
        index = pc >> 2
        if not 0 <= index < len(sm.program):
            from repro.simt.pipeline import SoftwareTrap
            raise SoftwareTrap("instruction fetch from unmapped pc 0x%x" % pc,
                               thread=warp.index * cfg.num_lanes + lanes[0],
                               pc=pc)
        if cfg.enable_cheri:
            sm._check_pcc(warp, pc, lanes)
        instr = sm.program[index]

        # Per-issue accumulators, consumed by the SM helpers.
        sm._cycle = cycle
        sm._mem_ready = cycle
        sm._extra_issue = 0
        sm._vec_touch = 0

        probes = sm.probes
        if probes is not None:
            pre_stalls = (stats.stall_shared_vrf, stats.stall_csc_operand,
                          stats.stall_bank_conflict,
                          stats.stall_atomic_serial)

        if lanes is sm._all_lanes:
            mask = sm._full_mask
        else:
            mask = 0
            for lane in lanes:
                mask |= 1 << lane

        handler, aux, falls_through = sm._decoded[index]
        handler(warp, instr, pc, lanes, mask, aux)
        if falls_through:
            # Before the probes' issue event: lockstep checks the next pc.
            sm._advance(warp, lanes, pc + 4)

        # Shared-VRF serialisation: accessing an uncompressed data vector
        # and an uncompressed metadata vector in one instruction costs an
        # extra cycle (section 3.2).
        if cfg.shared_vrf and sm._vec_touch == 3:
            sm._extra_issue += 1
            stats.stall_shared_vrf += 1
        # One-read-port metadata SRF: CSC needs both cs1 and cs2 metadata,
        # costing an extra operand-fetch cycle (section 3.2).
        if cfg.metadata_srf_single_port and instr.op is Op.CSC:
            sm._extra_issue += 1
            stats.stall_csc_operand += 1

        stats.instrs_issued += 1
        stats.thread_instrs += len(lanes)
        stats.opcode_counts[instr.op] += 1

        completion = max(cycle + cfg.pipeline_depth, sm._mem_ready)
        warp.ready_at = completion
        if all(warp.halted):
            warp.done = True
            warp.ready_at = _FAR_FUTURE

        # VRF occupancy integral (for Figure 10): resident vectors during
        # the issue slot(s) just consumed.
        width = 1 + sm._extra_issue
        stats.gp_vrf_occupancy_integral += sm.gp.resident_vectors * width
        if sm.meta is not None:
            stats.meta_vrf_occupancy_integral += \
                sm.meta.resident_vectors * width
        if probes is not None:
            probes.issue(
                cycle, warp.index, pc, instr, len(lanes), width, completion,
                (stats.stall_shared_vrf - pre_stalls[0],
                 stats.stall_csc_operand - pre_stalls[1],
                 stats.stall_bank_conflict - pre_stalls[2],
                 stats.stall_atomic_serial - pre_stalls[3]))
            # Retirement: architectural effects are fully applied at this
            # point, so lockstep checkers can diff state per instruction.
            probes.retire(cycle, warp, pc, instr, lanes)
        return cycle + width

    # ------------------------------------------------------------------
    # Decode: one (handler, aux, falls_through) per static instruction
    # ------------------------------------------------------------------

    def decode(self, instr):
        """Decode ``instr`` once: ``(handler, aux, falls_through)``, where
        ``falls_through`` says the issue loop, not the handler, moves the
        issuing lanes on to pc + 4 (every handler outside ``_OWN_PC``)."""
        handler, aux = self._classify(instr)
        return handler, aux, handler.__func__ not in _OWN_PC

    def _classify(self, instr):
        """Classify ``instr``; returns (bound handler, aux data).

        ``aux`` packs everything the handler needs that is knowable at
        decode time: the per-lane ALU/branch/AMO function, masked
        immediates, SFU routing flags.  The CHERI slow-path flag is baked
        in here because the configuration is fixed per SM instance.
        """
        op = instr.op
        fn = _INT_R_FN.get(op)
        if fn is not None:
            return self._h_int_r, (fn, op in SFU_OPS)
        fn = _INT_I_FN.get(op)
        if fn is not None:
            return self._h_int_i, (fn, (instr.imm or 0) & MASK32)
        fn = _BRANCH_FN.get(op)
        if fn is not None:
            return self._h_branch, (fn, instr.imm)
        if op in LOAD_OPS or op in STORE_OPS or op in AMO_OPS:
            return self._h_memory, (
                ACCESS_WIDTH[op],
                op.name.startswith("C"),
                op in STORE_OPS,
                op in AMO_OPS,
                _AMO_FN.get(op),
                op in _SIGNED_LOADS,
                instr.imm or 0,
            )
        fn = _FLOAT_RR_FN.get(op)
        if fn is not None:
            return self._h_float_rr, (fn, op in SFU_OPS)
        fn = _FLOAT_UNARY_FN.get(op)
        if fn is not None:
            return self._h_float_unary, (fn, op in SFU_OPS)
        slow = self.sm.cfg.sfu_cheri_slow_path and op in CHERI_SLOW_OPS
        fn = _CGET_FN.get(op)
        if fn is not None:
            return self._h_cget, (fn, slow)
        fn = _CRR_FN.get(op)
        if fn is not None:
            return self._h_crr, (fn, slow)
        fn = _CMOD1_FN.get(op)
        if fn is not None:
            return self._h_cmod1, fn
        fn = _CMOD2_FN.get(op)
        if fn is not None:
            return self._h_cmod2, (fn, slow)
        fn = _CIMM_FN.get(op)
        if fn is not None:
            return self._h_cimm, (fn, instr.imm or 0, slow)
        if op is Op.LUI:
            return self._h_lui, (instr.imm << 12) & MASK32
        if op is Op.AUIPC:
            return self._h_auipc, instr.imm << 12
        if op is Op.AUIPCC:
            return self._h_auipcc, instr.imm << 12
        if op in (Op.JAL, Op.CJAL):
            return self._h_jal, (instr.imm, op is Op.CJAL)
        if op is Op.JALR:
            return self._h_jalr, instr.imm or 0
        if op is Op.CJALR:
            return self._h_cjalr, instr.imm or 0
        if op is Op.CSPECIALRW:
            return self._h_cspecialrw, None
        if op is Op.BARRIER:
            return self._h_barrier, None
        if op is Op.HALT:
            return self._h_halt, None
        if op in (Op.TRAP, Op.EBREAK, Op.ECALL):
            return self._h_trap, None
        if op is Op.FENCE:
            return self._h_fence, None
        return self._h_unimplemented, None

    # ------------------------------------------------------------------
    # Execution (functional semantics + per-op timing hooks)
    # ------------------------------------------------------------------

    # --- integer ALU -------------------------------------------------

    def _h_int_r(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, is_sfu = aux
        a = sm._read_gp(warp, instr.rs1)
        b = sm._read_gp(warp, instr.rs2)
        out = [0] * sm._num_lanes
        for lane in lanes:
            out[lane] = fn(a[lane], b[lane])
        sm._write_rd(warp, instr.rd, out, mask)
        if is_sfu:
            sm._sfu_issue(lanes)

    def _h_int_i(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, imm = aux
        a = sm._read_gp(warp, instr.rs1)
        out = [0] * sm._num_lanes
        for lane in lanes:
            out[lane] = fn(a[lane], imm)
        sm._write_rd(warp, instr.rd, out, mask)

    def _h_lui(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        sm._write_rd(warp, instr.rd, [aux] * sm._num_lanes, mask)

    def _h_auipc(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        value = (pc + aux) & MASK32
        sm._write_rd(warp, instr.rd, [value] * sm._num_lanes, mask)

    def _h_auipcc(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        # rd := PCC with address pc + imm<<12 (a capability result).
        addr = (pc + aux) & MASK32
        caps = []
        for lane in sm._lane_range:
            meta = warp.pcc_meta[lane]
            pcc = Capability.from_meta_word(meta & MASK32, pc,
                                            bool(meta >> 32))
            caps.append(pcc.set_addr(addr))
        sm._write_rd(warp, instr.rd, [addr] * sm._num_lanes, mask,
                     *_meta_words(caps))

    # --- branches and jumps -------------------------------------------

    def _h_branch(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, imm = aux
        a = sm._read_gp(warp, instr.rs1)
        b = sm._read_gp(warp, instr.rs2)
        taken_pc = (pc + imm) & MASK32
        next_pc = pc + 4
        pcs = warp.pcs
        for lane in lanes:
            pcs[lane] = taken_pc if fn(a[lane], b[lane]) else next_pc

    def _h_jal(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        imm, is_cjal = aux
        next_pc = pc + 4
        if instr.rd:
            if is_cjal:
                caps = []
                for lane in sm._lane_range:
                    meta = warp.pcc_meta[lane]
                    link = Capability.from_meta_word(
                        meta & MASK32, next_pc, bool(meta >> 32))
                    caps.append(link.seal_entry())
                sm._write_rd(warp, instr.rd,
                             [next_pc] * sm._num_lanes, mask,
                             *_meta_words(caps))
            else:
                sm._write_rd(warp, instr.rd,
                             [next_pc] * sm._num_lanes, mask)
        target = (pc + imm) & MASK32
        sm._advance(warp, lanes, target)

    def _h_jalr(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        imm = aux
        a = sm._read_gp(warp, instr.rs1)
        next_pc = pc + 4
        targets = [0] * sm._num_lanes
        for lane in lanes:
            targets[lane] = (a[lane] + imm) & ~1 & MASK32
        if instr.rd:
            sm._write_rd(warp, instr.rd, [next_pc] * sm._num_lanes, mask)
        pcs = warp.pcs
        for lane in lanes:
            pcs[lane] = targets[lane]

    def _h_cjalr(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        imm = aux
        cfg = sm.cfg
        caps = sm._read_caps(warp, instr.rs1)
        next_pc = pc + 4
        targets = [0] * sm._num_lanes
        link_caps = []
        for lane in sm._lane_range:
            meta = warp.pcc_meta[lane]
            link = Capability.from_meta_word(meta & MASK32, next_pc,
                                             bool(meta >> 32))
            link_caps.append(link.seal_entry())
        for lane in lanes:
            cap = caps[lane]
            thread = warp.index * cfg.num_lanes + lane
            if not cap.tag:
                raise TagViolation("CJALR via untagged capability",
                                   thread=thread, pc=pc)
            if cap.is_sealed and not cap.is_sentry:
                raise SealViolation("CJALR via sealed capability",
                                    thread=thread, pc=pc)
            if Perms.EXECUTE not in cap.perms:
                raise PermissionViolation("CJALR target lacks execute",
                                          thread=thread, pc=pc)
            target_cap = cap.unseal_entry() if cap.is_sentry else cap
            target = (target_cap.addr + imm) & ~1 & MASK32
            targets[lane] = target
            warp.pcc_meta[lane] = (target_cap.meta_word()
                                   | (int(target_cap.tag) << 32))
        if instr.rd:
            sm._write_rd(warp, instr.rd, [next_pc] * sm._num_lanes,
                         mask, *_meta_words(link_caps))
        pcs = warp.pcs
        for lane in lanes:
            pcs[lane] = targets[lane]

    # --- floating point -------------------------------------------------

    def _h_float_rr(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, is_sfu = aux
        a = sm._read_gp(warp, instr.rs1)
        b = sm._read_gp(warp, instr.rs2)
        out = [0] * sm._num_lanes
        for lane in lanes:
            out[lane] = fn(a[lane], b[lane])
        sm._write_rd(warp, instr.rd, out, mask)
        if is_sfu:
            sm._sfu_issue(lanes)

    def _h_float_unary(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, is_sfu = aux
        a = sm._read_gp(warp, instr.rs1)
        out = [0] * sm._num_lanes
        for lane in lanes:
            out[lane] = fn(a[lane])
        sm._write_rd(warp, instr.rd, out, mask)
        if is_sfu:
            sm._sfu_issue(lanes)

    # --- memory ----------------------------------------------------------

    def _h_memory(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        width, is_cap_addressed, is_store, is_amo, amo_fn, signed, imm = aux

        if is_cap_addressed:
            caps = sm._read_caps(warp, instr.rs1)
            bases = None
        else:
            caps = None
            bases = sm._read_gp(warp, instr.rs1)
        self._memory_core(warp, instr, pc, lanes, mask, aux, caps, bases)

    def _memory_core(self, warp, instr, pc, lanes, mask, aux, caps, bases):
        """Memory semantics after operand fetch (shared with the vector
        backend's fallback paths, which read operands as forms first)."""
        sm = self.sm
        cfg = sm.cfg
        op = instr.op
        width, is_cap_addressed, is_store, is_amo, amo_fn, signed, imm = aux

        if is_cap_addressed:
            accesses = [(lane, (caps[lane].addr + imm) & MASK32, width)
                        for lane in lanes]
        else:
            accesses = [(lane, (bases[lane] + imm) & MASK32, width)
                        for lane in lanes]

        # Capability checks (one per active lane).
        if is_cap_addressed:
            check = sm._check_cap
            num_lanes = cfg.num_lanes
            for lane, addr, _ in accesses:
                thread = warp.index * num_lanes + lane
                if is_amo:
                    check(caps[lane], addr, width, Perms.LOAD,
                          thread, pc, op.name)
                    check(caps[lane], addr, width, Perms.STORE,
                          thread, pc, op.name)
                elif is_store:
                    check(caps[lane], addr, width, Perms.STORE,
                          thread, pc, op.name)
                else:
                    check(caps[lane], addr, width, Perms.LOAD,
                          thread, pc, op.name)

        if is_amo:
            values = sm._read_gp(warp, instr.rs2)
            out = [0] * sm._num_lanes
            memory = sm.memory
            # Same-address atomics serialise deterministically in lane order.
            for lane, addr, _ in accesses:
                old = memory.read(addr, 4)
                memory.write(addr, 4, amo_fn(old, values[lane]))
                out[lane] = old
            conflicts = atomic_conflicts([a for _, a, _ in accesses])
            sm._extra_issue += conflicts
            sm.stats.stall_atomic_serial += conflicts
            sm._write_rd(warp, instr.rd, out, mask)
            sm._memory_access(op, accesses, warp, is_write=True)
            return

        if is_store:
            if op is Op.CSC:
                store_caps = sm._read_caps(warp, instr.rs2)
                for lane, addr, _ in accesses:
                    thread = warp.index * cfg.num_lanes + lane
                    cap2 = store_caps[lane]
                    if cap2.tag and Perms.STORE_CAP not in caps[lane].perms:
                        raise PermissionViolation(
                            "CSC lacks STORE_CAP permission",
                            address=addr, thread=thread, pc=pc)
                    sm.memory.write_cap_raw(addr, cap2.to_mem()
                                            & ((1 << 64) - 1), cap2.tag)
            else:
                values = sm._read_gp(warp, instr.rs2)
                memory = sm.memory
                value_mask = (1 << (8 * width)) - 1
                for lane, addr, _ in accesses:
                    memory.write(addr, width, values[lane] & value_mask)
            sm._memory_access(op, accesses, warp, is_write=True)
            return

        # Loads.
        if op is Op.CLC:
            out = [0] * sm._num_lanes
            metas = [None] * sm._num_lanes
            for lane, addr, _ in accesses:
                raw, tag = sm.memory.read_cap_raw(addr)
                if tag and Perms.LOAD_CAP not in caps[lane].perms:
                    tag = False  # lacking LOAD_CAP strips the loaded tag
                loaded = Capability.from_mem(raw | (int(tag) << 64))
                out[lane] = loaded.addr
                metas[lane] = loaded
            sm._write_rd(warp, instr.rd, out, mask, *_meta_words(metas))
        else:
            out = [0] * sm._num_lanes
            memory = sm.memory
            for lane, addr, _ in accesses:
                out[lane] = memory.read(addr, width, signed) & MASK32
            sm._write_rd(warp, instr.rd, out, mask)
        sm._memory_access(op, accesses, warp, is_write=False)

    # --- CHERI non-memory --------------------------------------------------

    def _h_cget(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, slow = aux
        caps = sm._read_caps(warp, instr.rs1)
        self._cget_core(warp, instr, pc, lanes, mask, fn, slow, caps)

    def _cget_core(self, warp, instr, pc, lanes, mask, fn, slow, caps):
        sm = self.sm
        out = [0] * sm._num_lanes
        for lane in lanes:
            out[lane] = fn(caps[lane])
        sm._write_rd(warp, instr.rd, out, mask)
        if slow:
            sm._sfu_cheri_issue(lanes)

    def _h_crr(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, slow = aux
        a = sm._read_gp(warp, instr.rs1)
        out = [0] * sm._num_lanes
        for lane in lanes:
            out[lane] = fn(a[lane])
        sm._write_rd(warp, instr.rd, out, mask)
        if slow:
            sm._sfu_cheri_issue(lanes)

    def _h_cmod1(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn = aux
        caps = sm._read_caps(warp, instr.rs1)
        self._cmod1_core(warp, instr, pc, lanes, mask, fn, caps)

    def _cmod1_core(self, warp, instr, pc, lanes, mask, fn, caps):
        sm = self.sm
        out = [0] * sm._num_lanes
        result = [None] * sm._num_lanes
        for lane in lanes:
            cap = fn(caps[lane])
            out[lane] = cap.addr
            result[lane] = cap
        sm._write_rd(warp, instr.rd, out, mask, *_meta_words(result))

    def _h_cmod2(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, slow = aux
        caps = sm._read_caps(warp, instr.rs1)
        b = sm._read_gp(warp, instr.rs2)
        self._cmod2_core(warp, instr, pc, lanes, mask, fn, slow, caps, b)

    def _cmod2_core(self, warp, instr, pc, lanes, mask, fn, slow, caps, b):
        sm = self.sm
        out = [0] * sm._num_lanes
        result = [None] * sm._num_lanes
        for lane in lanes:
            cap = fn(caps[lane], b[lane])
            out[lane] = cap.addr
            result[lane] = cap
        sm._write_rd(warp, instr.rd, out, mask, *_meta_words(result))
        if slow:
            sm._sfu_cheri_issue(lanes)

    def _h_cimm(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, imm, slow = aux
        caps = sm._read_caps(warp, instr.rs1)
        self._cimm_core(warp, instr, pc, lanes, mask, fn, imm, slow, caps)

    def _cimm_core(self, warp, instr, pc, lanes, mask, fn, imm, slow, caps):
        sm = self.sm
        out = [0] * sm._num_lanes
        result = [None] * sm._num_lanes
        for lane in lanes:
            cap = fn(caps[lane], imm)
            out[lane] = cap.addr
            result[lane] = cap
        sm._write_rd(warp, instr.rd, out, mask, *_meta_words(result))
        if slow:
            sm._sfu_cheri_issue(lanes)

    def _h_cspecialrw(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        # Only reading the PCC special register is supported.
        out = [0] * sm._num_lanes
        result = [None] * sm._num_lanes
        for lane in lanes:
            meta = warp.pcc_meta[lane]
            pcc = Capability.from_meta_word(meta & MASK32, pc,
                                            bool(meta >> 32))
            out[lane] = pc
            result[lane] = pcc
        sm._write_rd(warp, instr.rd, out, mask, *_meta_words(result))

    # --- SIMT / system -------------------------------------------------------

    def _h_barrier(self, warp, instr, pc, lanes, mask, aux):
        self.sm._enter_barrier(warp)

    def _h_halt(self, warp, instr, pc, lanes, mask, aux):
        halted = warp.halted
        for lane in lanes:
            halted[lane] = True

    def _h_trap(self, warp, instr, pc, lanes, mask, aux):
        from repro.simt.pipeline import SoftwareTrap
        thread = warp.index * self.sm.cfg.num_lanes + lanes[0]
        raise SoftwareTrap(
            "software trap (%s)%s" % (
                instr.op.name.lower(),
                "" if not instr.comment else ": " + instr.comment),
            thread=thread, pc=pc)

    def _h_fence(self, warp, instr, pc, lanes, mask, aux):
        """Memory accesses complete in order here: nothing to fence."""

    def _h_unimplemented(self, warp, instr, pc, lanes, mask, aux):
        from repro.simt.pipeline import SoftwareTrap
        raise SoftwareTrap("unimplemented op %s" % instr.op, pc=pc)


#: Handlers that leave the issuing lanes' PC to themselves: control
#: transfers set it, HALT and traps keep it.  After any other handler the
#: issue loop moves the lanes on to pc + 4.
_OWN_PC = frozenset((
    ScalarBackend._h_branch,
    ScalarBackend._h_jal,
    ScalarBackend._h_jalr,
    ScalarBackend._h_cjalr,
    ScalarBackend._h_halt,
    ScalarBackend._h_trap,
    ScalarBackend._h_unimplemented,
))
