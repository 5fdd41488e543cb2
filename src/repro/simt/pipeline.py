"""The streaming multiprocessor: barrel-scheduled SIMT pipeline.

Models the SIMTight SM of paper Figure 2 at cycle level:

- a barrel scheduler issues at most one instruction per warp into the
  pipeline at a time; a warp re-issues ``pipeline_depth`` cycles after
  issue (sooner-suspended warps resume at their operation's completion);
- the Active Thread Selection stage picks, per warp, the subset of threads
  at the deepest control-flow nesting level with the lowest common PC (and,
  under CHERI with dynamic PC metadata, an identical PCC);
- memory instructions suspend the warp and resume at the coalesced DRAM
  (or banked-scratchpad) completion time;
- the shared-function unit serialises lane requests for div/sqrt and, in
  the optimised configuration, the CHERI get/set-bounds instructions;
- the compressed register files charge spill/reload DRAM traffic and the
  CSC and shared-VRF operand-fetch stalls of paper section 3.2.

All CHERI checks (tag, seal, permission, bounds) are enforced exactly; a
failed check aborts the kernel with a :class:`KernelAbort` carrying the
precise fault.

Instruction decode and the issue/scheduler loop live in a pluggable
execution backend (:mod:`repro.simt.backend`), selected by
``SMConfig.backend``: the ``scalar`` backend interprets per lane (the
reference semantics), the ``vector`` backend executes each issued
instruction across all lanes at once.  Both are bit-identical in every
simulated statistic; the SM keeps the shared plumbing (register files,
memory system, capability checks) both backends drive.
"""

from repro.cheri.capability import Capability, Perms
from repro.cheri.exceptions import (
    BoundsViolation,
    CapabilityFault,
    PermissionViolation,
    SealViolation,
    TagViolation,
)
from repro.cheri import concentrate
from repro.isa.instructions import ACCESS_WIDTH, Op
from repro.memory import DRAMModel, TagController, TaggedMemory
from repro.simt.backend import create_backend
from repro.simt.coalescer import coalesce
from repro.simt.config import SMConfig
from repro.simt.regfile import CompressedRegFile, PlainRegFile, SlotPool
from repro.simt.regfile.compressed import _NULL_SCALAR, _Vector, write_register
from repro.simt.scratchpad import Scratchpad
from repro.simt.sfu import SharedFunctionUnit
from repro.simt.stackcache import StackCache
from repro.simt.stats import SMStats

MASK32 = 0xFFFFFFFF
_FAR_FUTURE = 1 << 62


class KernelAbort(Exception):
    """A kernel terminated abnormally (capability fault or software trap)."""

    def __init__(self, cause, cycle):
        super().__init__("kernel aborted at cycle %d: %s" % (cycle, cause))
        self.cause = cause
        self.cycle = cycle


class SoftwareTrap(Exception):
    """An explicit TRAP/EBREAK, e.g. a failed software bounds check."""

    def __init__(self, message, thread=None, pc=None):
        super().__init__(message)
        self.thread = thread
        self.pc = pc


# Decode dispatch tables now live with the scalar (reference) backend; they
# are re-exported here because tests and tooling patch them in place (the
# dict objects are shared, so a monkeypatched entry is seen by every
# backend).  Imported lazily at the bottom of the module to avoid a cycle
# with repro.simt.backend.scalar, which needs KernelAbort/SoftwareTrap.


class _Warp:
    """Mutable per-warp state."""

    __slots__ = ("index", "pcs", "halted", "pcc_meta", "ready_at",
                 "in_barrier", "block_slot", "done", "rq")

    def __init__(self, index, lanes, entry_pc, block_slot):
        self.index = index
        self.pcs = [entry_pc] * lanes
        self.halted = [False] * lanes
        self.pcc_meta = [0] * lanes
        self.ready_at = 0
        self.in_barrier = False
        self.block_slot = block_slot
        self.done = False
        # Pending fused-region steps for the vector backend's barrel
        # scheduler: [steps, next_index, lanes, mask] or None, with
        # lanes None for a full-warp entry (see VectorBackend.run).
        self.rq = None


class StreamingMultiprocessor:
    """One SIMTight-like SM plus its memory subsystem."""

    def __init__(self, config=None, memory=None, scratchpad_base=None):
        self.cfg = (config or SMConfig()).validate()
        self.memory = memory if memory is not None else TaggedMemory()
        self.dram = DRAMModel(latency=self.cfg.dram_latency,
                              line_bytes=self.cfg.dram_line_bytes)
        self.tag_controller = TagController(self.memory, self.dram)
        if scratchpad_base is None:
            from repro.simt.config import SCRATCHPAD_BASE
            scratchpad_base = SCRATCHPAD_BASE
        self.scratchpad = Scratchpad(self.memory, self.cfg.num_lanes,
                                     self.cfg.scratchpad_bytes,
                                     base=scratchpad_base)
        self.sfu = SharedFunctionUnit(self.cfg.sfu_latency,
                                      self.cfg.sfu_cheri_latency)
        self.stack_cache = None
        if self.cfg.enable_stack_cache:
            from repro.simt.config import STACK_BASE
            self.stack_cache = StackCache(
                STACK_BASE,
                self.cfg.num_threads * self.cfg.stack_bytes_per_thread)
        self._build_regfiles()
        self.stats = SMStats()
        self.program = []
        self._decoded = []
        self._pcc_cache = {}
        self._num_lanes = self.cfg.num_lanes
        self._lane_range = range(self._num_lanes)
        #: Canonical all-active lane list (shared, never mutated).
        self._all_lanes = list(self._lane_range)
        self._full_mask = (1 << self._num_lanes) - 1
        #: Canonical zero vector returned for reads of register 0
        #: (shared, never mutated by any caller).
        self._zero_lanes = [0] * self._num_lanes
        self._dynamic_pcc = (self.cfg.enable_cheri
                             and not self.cfg.static_pc_metadata)
        #: Optional :class:`repro.obs.ProbeBus`.  ``None`` (the default)
        #: keeps the hot path untouched: every hook below is guarded by a
        #: single ``self.probes is not None`` check, so simulated
        #: statistics are bit-identical with probes attached or not.
        self.probes = None
        #: Optional :class:`repro.nocl.compiler.CompiledKernel` for the
        #: running program (set by the runtime; profiler side-band only).
        self.kernel_info = None
        #: The execution backend (``SMConfig.backend``).
        self.backend = create_backend(self.cfg.backend, self)

    def _build_regfiles(self):
        cfg = self.cfg
        gp_pool = SlotPool(cfg.vrf_slots)
        self.gp = CompressedRegFile(cfg.num_lanes, 32, gp_pool,
                                    detect_affine=True, name="gp")
        self.meta = None
        if cfg.enable_cheri:
            if not cfg.compress_metadata:
                self.meta = PlainRegFile(cfg.num_lanes, 33, name="meta")
            elif cfg.shared_vrf:
                self.meta = CompressedRegFile(cfg.num_lanes, 33, gp_pool,
                                              detect_affine=False,
                                              nvo=cfg.nvo, name="meta")
            else:
                meta_pool = SlotPool(max(1, cfg.vrf_slots // 2))
                self.meta = CompressedRegFile(cfg.num_lanes, 33, meta_pool,
                                              detect_affine=False,
                                              nvo=cfg.nvo, name="meta")

    # ------------------------------------------------------------------
    # Launch interface
    # ------------------------------------------------------------------

    def launch(self, program, init_regs=None, init_cap_regs=None,
               entry_pc=0, warps_per_block=1, kernel_pcc=None,
               max_cycles=200_000_000):
        """Run ``program`` to completion on all warps; returns the stats.

        ``init_regs`` maps register index -> per-hardware-thread values
        (length num_threads).  ``init_cap_regs`` maps register index -> a
        single :class:`Capability` or per-thread list of capabilities
        (requires CHERI).  ``kernel_pcc`` is the program-counter capability
        installed in every thread at launch (defaults to an all-code root
        in CHERI mode).
        """
        cfg = self.cfg
        backend = self.backend
        self.program = list(program)
        # Decode every static instruction once (multi-kernel safe: redone
        # per launch because the program changes); this also invalidates
        # any hot-trace specialisations from a previous program.
        backend.on_launch()
        self._decoded = [backend.decode(instr) for instr in self.program]
        if cfg.num_warps % warps_per_block:
            raise ValueError("warps_per_block must divide num_warps")
        self.warps = [
            _Warp(w, cfg.num_lanes, entry_pc, w // warps_per_block)
            for w in range(cfg.num_warps)
        ]
        self._warps_per_block = warps_per_block
        self._barrier_arrived = {}
        if cfg.enable_cheri:
            if kernel_pcc is None:
                from repro.cheri.capability import root_capability
                kernel_pcc = root_capability(
                    Perms.GLOBAL | Perms.EXECUTE | Perms.LOAD)
            pcc_meta = kernel_pcc.meta_word() | (1 << 32)
            for warp in self.warps:
                warp.pcc_meta = [pcc_meta] * cfg.num_lanes
        self._install_registers(init_regs or {}, init_cap_regs or {})

        self.dram.reset_timing()
        self.sfu.reset_timing()
        if self.probes is not None:
            self.probes.launch(self, self.program)
        try:
            cycle = backend.run(max_cycles)
        except (CapabilityFault, SoftwareTrap) as fault:
            cycle = backend.fault_cycle or 0
            self.stats.cycles += cycle
            self._finalise_stats()
            raise KernelAbort(fault, cycle) from fault
        # Cycles accumulate across launches so multi-kernel benchmarks
        # report their total.
        self.stats.cycles += cycle
        self._finalise_stats()
        return self.stats

    def _install_registers(self, init_regs, init_cap_regs):
        cfg = self.cfg
        lanes = cfg.num_lanes
        for reg, values in init_regs.items():
            for w in range(cfg.num_warps):
                chunk = values[w * lanes:(w + 1) * lanes]
                self.gp.write(w, reg, [v & MASK32 for v in chunk])
                if self.meta is not None:
                    self.meta.write(w, reg, [0] * lanes)
        for reg, caps in init_cap_regs.items():
            if not cfg.enable_cheri:
                raise ValueError("capability registers require CHERI")
            if isinstance(caps, Capability):
                caps = [caps] * cfg.num_threads
            for w in range(cfg.num_warps):
                chunk = caps[w * lanes:(w + 1) * lanes]
                self.gp.write(w, reg, [c.addr for c in chunk])
                metas = [c.meta_word() | (int(c.tag) << 32) for c in chunk]
                self.meta.write(w, reg, metas)
                if any(c.tag for c in chunk):
                    self.stats.note_cap_register(w, reg)

    def _finalise_stats(self):
        st = self.stats
        st.dram_read_bytes = self.dram.stats.read_bytes
        st.dram_write_bytes = self.dram.stats.write_bytes
        st.dram_spill_bytes = self.dram.stats.spill_bytes
        st.dram_tag_bytes = self.dram.stats.tag_bytes
        st.dram_txns = self.dram.stats.total_txns
        st.gp_spills = self.gp.total_spills
        st.gp_reloads = self.gp.total_reloads
        st.gp_writes_total = self.gp.writes_total
        st.gp_writes_uniform = self.gp.writes_uniform
        st.gp_writes_affine = self.gp.writes_affine
        if self.meta is not None:
            st.meta_spills = self.meta.total_spills
            st.meta_reloads = self.meta.total_reloads
            if isinstance(self.meta, CompressedRegFile):
                st.meta_writes_total = self.meta.writes_total
                st.meta_writes_uniform = self.meta.writes_uniform
                st.meta_writes_partial_null = self.meta.writes_partial_null
        st.tag_cache_hits = self.tag_controller.hits
        st.tag_cache_misses = self.tag_controller.misses
        st.sfu_requests = self.sfu.requests
        st.sfu_busy_cycles = self.sfu.busy_cycles

    # ------------------------------------------------------------------
    # Active thread selection (paper section 2.3 / 3.3)
    # ------------------------------------------------------------------

    def _select_threads(self, warp):
        pcs = warp.pcs
        halted = warp.halted
        num_lanes = self._num_lanes
        # Fast path: no lane halted and all lanes converged.  This is the
        # overwhelmingly common case for the regular kernels the paper
        # evaluates, and avoids building the per-group dict.
        if True not in halted:
            pc = pcs[0]
            if pcs.count(pc) == num_lanes:
                if not self._dynamic_pcc:
                    return pc, self._all_lanes
                metas = warp.pcc_meta
                if metas.count(metas[0]) == num_lanes:
                    return pc, self._all_lanes
        dynamic_pcc = self._dynamic_pcc
        groups = {}
        if dynamic_pcc:
            metas = warp.pcc_meta
            for lane in self._lane_range:
                if halted[lane]:
                    continue
                key = (pcs[lane], metas[lane])
                group = groups.get(key)
                if group is None:
                    groups[key] = [lane]
                else:
                    group.append(lane)
        else:
            for lane in self._lane_range:
                if halted[lane]:
                    continue
                key = pcs[lane]
                group = groups.get(key)
                if group is None:
                    groups[key] = [lane]
                else:
                    group.append(lane)
        if not groups:
            return None, None
        # Deepest nesting level first, then lowest PC (convergence); the
        # strict > keeps max()'s first-maximal tie behaviour.  Group
        # insertion order is lane order of each group's first member,
        # matching the scalar reference selection exactly.
        program = self.program
        program_len = len(program)
        best = None
        best_priority = None
        for key, group_lanes in groups.items():
            pc = key[0] if dynamic_pcc else key
            index = pc >> 2
            depth = program[index].depth if 0 <= index < program_len else 0
            priority = (depth, -pc)
            if best_priority is None or priority > best_priority:
                best_priority = priority
                best = (pc, group_lanes)
        return best

    def _check_pcc(self, warp, pc, lanes):
        """One program-counter-capability bounds check per SM per fetch."""
        meta = warp.pcc_meta[lanes[0]]
        cached = self._pcc_cache.get(meta)
        if cached is None:
            cap = Capability.from_meta_word(meta & MASK32, pc, bool(meta >> 32))
            base, top = concentrate.decode_bounds(cap.bounds, pc)
            ok_perms = cap.tag and (Perms.EXECUTE in cap.perms)
            cached = (base, top, ok_perms)
            self._pcc_cache[meta] = cached
        base, top, ok_perms = cached
        if not ok_perms:
            raise PermissionViolation("PCC lacks execute permission",
                                      address=pc, pc=pc)
        if not (base <= pc and pc + 4 <= top):
            raise BoundsViolation("instruction fetch outside PCC bounds",
                                  address=pc, pc=pc)

    def _advance(self, warp, lanes, next_pc):
        pcs = warp.pcs
        if len(lanes) == len(pcs):
            # Full set (lane indices are unique): one C-level fill.
            pcs[:] = [next_pc] * len(pcs)
            return
        for lane in lanes:
            pcs[lane] = next_pc

    # -- register access helpers -----------------------------------------

    def _read_gp(self, warp, reg):
        if reg == 0:
            return self._zero_lanes
        gp = self.gp
        form, report = gp.read_form(warp.index, reg)
        if report is not None:
            self._account_rf(report)
        if type(form) is _Vector:
            self._vec_touch |= 1
        return form.expand(self._num_lanes, gp.value_mask)

    def _read_meta(self, warp, reg):
        if reg == 0:
            return self._zero_lanes
        meta = self.meta
        form, report = meta.read_form(warp.index, reg)
        if report is not None:
            self._account_rf(report)
        if type(form) is _Vector:
            self._vec_touch |= 2
        return form.expand(self._num_lanes, meta.value_mask)

    def _read_caps(self, warp, reg):
        """Materialise per-lane capabilities from the split register files."""
        addrs = self._read_gp(warp, reg)
        metas = self._read_meta(warp, reg)
        from_meta_word = Capability.from_meta_word
        return [
            from_meta_word(metas[i] & MASK32, addrs[i], metas[i] > MASK32)
            for i in self._lane_range
        ]

    def _write_rd(self, warp, reg, values, mask, metas=None, tagged=False):
        """Write rd: general-purpose values plus metadata.

        ``metas`` are the per-lane metadata words (tag in bit 32) of a
        capability result, ``tagged`` whether an active lane's result is
        tagged; without ``metas`` rd gets null metadata.
        """
        if reg is None or reg == 0:
            return
        if metas is None:
            metas = _NULL_SCALAR if mask == self._full_mask \
                else self._zero_lanes
        elif tagged:
            self.stats.note_cap_register(warp.index, reg)
        touch, reports = write_register(self.gp, self.meta, warp.index, reg,
                                        values, metas, mask)
        self._vec_touch |= touch
        if reports is not None:
            for report in reports:
                self._account_rf(report)

    def _account_rf(self, report):
        """Convert register spill/reload events into DRAM traffic + waits."""
        lane_bytes = self.cfg.num_lanes * 4
        for _ in range(report.spills):
            self.dram.request(self._cycle, True, lane_bytes, spill=True)
        for _ in range(report.reloads):
            done = self.dram.request(self._cycle, False, lane_bytes, spill=True)
            self._mem_ready = max(self._mem_ready, done)
        if self.probes is not None:
            self.probes.rf_spill(self._cycle, report.spills, report.reloads)

    # -- memory helpers -----------------------------------------------------

    def _memory_access(self, op, accesses, warp, is_write):
        """Account timing for per-lane accesses [(lane, addr, width)]."""
        cfg = self.cfg
        scratch = [(a, w) for _, a, w in accesses
                   if self.scratchpad.contains(a)]
        global_ = [(a, w) for _, a, w in accesses
                   if not self.scratchpad.contains(a)]
        if scratch:
            conflicts = self.scratchpad.conflict_cycles([a for a, _ in scratch])
            self._extra_issue += conflicts
            self.stats.stall_bank_conflict += conflicts
            self.stats.scratchpad_accesses += len(scratch)
            self._mem_ready = max(self._mem_ready,
                                  self._cycle + cfg.scratchpad_latency)
        if global_ and self.stack_cache is not None:
            # The compressed stack cache absorbs stack traffic
            # (section 4.4): only missing lines reach DRAM.
            stack_accesses = [(a, w) for a, w in global_
                              if self.stack_cache.contains(a)]
            if stack_accesses:
                global_ = [(a, w) for a, w in global_
                           if not self.stack_cache.contains(a)]
                missed = self.stack_cache.access(
                    [a for a, _ in stack_accesses], is_write)
                self._mem_ready = max(self._mem_ready,
                                      self._cycle + cfg.scratchpad_latency)
                for line_addr in missed:
                    done = self.dram.request(
                        self._cycle, is_write,
                        self.stack_cache.line_bytes)
                    self._mem_ready = max(self._mem_ready, done)
        if global_:
            txns = coalesce(global_, cfg.dram_line_bytes)
            for line_addr, n_bytes in txns:
                if cfg.enable_cheri:
                    writes_tag = is_write and op in (Op.CSC,)
                    done = self.tag_controller.access(
                        self._cycle, line_addr, is_write, writes_tag=writes_tag)
                    self._mem_ready = max(self._mem_ready, done)
                done = self.dram.request(self._cycle, is_write, n_bytes)
                self._mem_ready = max(self._mem_ready, done)
                if self.probes is not None:
                    self.probes.mem_txn(self._cycle, line_addr, n_bytes,
                                        is_write, done)
        if ACCESS_WIDTH.get(op) == 8:
            # Multi-flit transaction: a 64-bit capability access is two
            # inseparable 32-bit flits (section 3.4).
            self._extra_issue += 1

    # -- capability checks ----------------------------------------------------

    def _check_cap(self, cap, addr, width, perm, thread, pc, op_name):
        if not cap.tag:
            raise TagViolation("%s via untagged capability" % op_name,
                               address=addr, thread=thread, pc=pc)
        if cap.is_sealed:
            raise SealViolation("%s via sealed capability" % op_name,
                                address=addr, thread=thread, pc=pc)
        if not (int(cap.perms) & int(perm)):
            raise PermissionViolation(
                "%s lacks %s permission" % (op_name, perm.name),
                address=addr, thread=thread, pc=pc)
        base, top = concentrate.decode_bounds(cap.bounds, cap.addr)
        if not (base <= addr and addr + width <= top):
            raise BoundsViolation(
                "%s out of bounds: 0x%08x not in [0x%08x, 0x%08x)"
                % (op_name, addr, base, top),
                address=addr, thread=thread, pc=pc)

    # --- shared function unit --------------------------------------------

    def _sfu_issue(self, lanes, cheri_op=False):
        done = self.sfu.issue(self._cycle, len(lanes), cheri_op=cheri_op)
        if done > self._mem_ready:
            self._mem_ready = done
        if self.probes is not None:
            self.probes.sfu(self._cycle, len(lanes), cheri_op, done)

    def _sfu_cheri_issue(self, lanes):
        self._sfu_issue(lanes, cheri_op=True)

    # -- barriers --------------------------------------------------------------

    def _enter_barrier(self, warp):
        slot = warp.block_slot
        arrived = self._barrier_arrived.setdefault(slot, set())
        arrived.add(warp.index)
        warp.in_barrier = True
        warp.ready_at = _FAR_FUTURE
        self.stats.barrier_waits += 1
        if self.probes is not None:
            self.probes.barrier(self._cycle, warp.index)
        expected = {
            w.index for w in self.warps
            if w.block_slot == slot and not w.done
        }
        if arrived >= expected:
            for index in arrived:
                other = self.warps[index]
                other.in_barrier = False
                other.ready_at = self._cycle + self.cfg.pipeline_depth
            arrived.clear()


# Re-export the decode dispatch tables from the scalar backend (shared
# dict objects: tests patch entries in place and every backend sees the
# patched per-lane function).  Imported last to break the import cycle.
from repro.simt.backend.scalar import (  # noqa: E402
    _AMO_FN,
    _BRANCH_FN,
    _CGET_FN,
    _CIMM_FN,
    _CMOD1_FN,
    _CMOD2_FN,
    _CRR_FN,
    _FLOAT_RR_FN,
    _FLOAT_UNARY_FN,
    _INT_I_FN,
    _INT_R_FN,
)
