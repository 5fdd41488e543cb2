"""The lane-vectorized execution backend.

Executes each issued instruction across all active lanes at once instead
of looping per lane, exploiting the same value regularity the compressed
register file detects (paper section 2.2):

- **symbolic forms** — operands are read as their stored compact forms
  (uniform / affine base+stride); uniform x uniform ALU ops evaluate the
  per-lane function once, affine forms propagate algebraically through
  add/sub/shift/mul, and results are written back as forms without ever
  expanding to per-lane lists;
- **object-free capability fast paths** — bounds, seal, permission and
  representability checks for a warp's uniform-metadata capability are
  evaluated once per issue from the packed metadata word using the
  CHERI Concentrate *k*-window: the decoded bounds are a pure function of
  the encoded bounds and ``k = ((addr >> E) - r) >> 8``, so equal *k*
  across lanes means one decode covers the warp.  This covers gather
  pointers too: CIncOffset/CSetAddr of a uniform capability by per-lane
  offsets, and loads/stores through a metadata form (e.g. partially
  null) whose *active* lanes hold one word;
- **vectorized memory lanes** — affine word-aligned address streams
  gather/scatter straight against the sparse word store, with O(1)
  coalescing and bank-conflict equivalents of the per-lane timing model;
- **hot-trace specialisation** — straight-line decoded regions whose
  start is issued more than a threshold number of times are compiled
  into a pre-decoded step list; a warp (or diverged thread group) that
  enters one is fed a step per barrel-scheduler slot without selection,
  fetch or per-instruction PCC checks, so the issue interleave is the
  reference one.  Regions are invalidated on every launch (programs are
  re-decoded per launch).

Any case the fast paths do not cover (divergence, faulting lane subsets,
sub-word or misaligned accesses, metadata that differs across active
lanes, CJALR, AMOs, ...) falls back to the scalar reference path
mid-instruction — operands already read as forms are expanded and handed
to the shared ``*_core`` helpers so no register is read twice — keeping
the two backends bit-identical in every simulated statistic, probe event
and fault.  This is enforced by the equivalence tests and ``repro
lockstep``.
"""

from repro.cheri.capability import Capability, Perms
from repro.cheri import concentrate
from repro.cheri.exceptions import CapabilityFault
from repro.isa.instructions import Op
from repro.simt import alu
from repro.simt.backend.scalar import (
    ScalarBackend,
    _CGET_FN,
    _CIMM_FN,
    _CMOD1_FN,
    _CMOD2_FN,
)
from repro.simt.regfile.compressed import (
    _NULL_SCALAR,
    _Scalar,
    _Spilled,
    _Vector,
    write_register,
)

MASK32 = 0xFFFFFFFF
MASK33 = (1 << 33) - 1
_FAR_FUTURE = 1 << 62

#: Issues of one static instruction (by any warp or thread group) before
#: the straight-line region starting there is compiled into a step list.
_HOT_THRESHOLD = 32

#: Upper bound on fused-region length (keeps step lists cache-friendly).
_MAX_REGION = 64

_P_LOAD = int(Perms.LOAD)
_P_STORE = int(Perms.STORE)
_P_LOAD_CAP = int(Perms.LOAD_CAP)
_P_STORE_CAP = int(Perms.STORE_CAP)

_ADD = alu.INT_FNS["add"]
_SUB = alu.INT_FNS["sub"]
_SLL = alu.INT_FNS["sll"]
_MUL = alu.INT_FNS["mul"]

# Original (unpatched) capability-op lambdas, captured at import for the
# identity checks guarding semantics-specific fast paths.  A test that
# monkeypatches a dispatch-table entry automatically fails these checks
# and takes the generic path, which calls the patched function.
_FN_CGETADDR = _CGET_FN[Op.CGETADDR]
_META_ONLY_CGET = frozenset((
    _CGET_FN[Op.CGETTAG], _CGET_FN[Op.CGETPERM], _CGET_FN[Op.CGETTYPE],
    _CGET_FN[Op.CGETSEALED], _CGET_FN[Op.CGETFLAGS],
))
_FN_CMOVE = _CMOD1_FN[Op.CMOVE]
_FN_CCLEARTAG = _CMOD1_FN[Op.CCLEARTAG]
_FN_CINCOFFSET = _CMOD2_FN[Op.CINCOFFSET]
_FN_CSETADDR = _CMOD2_FN[Op.CSETADDR]
_FN_CINCOFFSETIMM = _CIMM_FN[Op.CINCOFFSETIMM]


def _affine(base, stride, lanes):
    """Canonical affine form, or None when the stride does not fit the
    SRF stride field (the expansion would not compress either)."""
    if lanes == 1 or stride == 0:
        return _Scalar(base & MASK32, 0)
    if -128 <= stride <= 127:
        return _Scalar(base & MASK32, stride)
    return None


def _signed_stride(stride32):
    stride32 &= MASK32
    return stride32 - (1 << 32) if stride32 >> 31 else stride32


def _sym_add(b1, s1, b2, s2, lanes):
    return _affine(b1 + b2, s1 + s2, lanes)


def _sym_sub(b1, s1, b2, s2, lanes):
    return _affine(b1 - b2, s1 - s2, lanes)


def _sym_mul(b1, s1, b2, s2, lanes):
    # (b1 + i*s1) * b2 = b1*b2 + i*(s1*b2) when one side is uniform.
    if s2 == 0:
        return _affine(b1 * b2, _signed_stride(s1 * b2), lanes)
    if s1 == 0:
        return _affine(b1 * b2, _signed_stride(b1 * s2), lanes)
    return None


def _sym_sll(b1, s1, b2, s2, lanes):
    if s2:
        return None
    k = b2 & 31
    return _affine(b1 << k, _signed_stride((s1 << k) & MASK32), lanes)


#: Affine-capable symbolic rules, keyed by the (unpatched) per-lane
#: function so a monkeypatched table entry bypasses them.
_SYM_RR = {_ADD: _sym_add, _SUB: _sym_sub, _MUL: _sym_mul, _SLL: _sym_sll}


def _expand(form, lanes):
    """Per-lane values of a form (an uncompressed vector hands back its
    stored lane list, so callers must not mutate the result)."""
    if type(form) is _Vector:
        return form.values
    return form.expand(lanes, MASK32)


def _expand_meta(form, lanes):
    if type(form) is _Vector:
        return form.values
    return form.expand(lanes, MASK33)


class VectorBackend(ScalarBackend):
    """Lane-vectorized backend (see module docstring)."""

    name = "vector"

    #: Region-formation knobs, overridable per instance (tests lower the
    #: threshold).
    _hot_threshold = _HOT_THRESHOLD
    _max_region = _MAX_REGION

    def __init__(self, sm):
        super().__init__(sm)
        #: meta register value -> (tag, otype, perms, bounds, exp, r).
        self._meta_info = {}
        #: (meta value, k-window) -> decoded (base, top).
        self._bounds_memo = {}
        self._hot = {}
        self._regions = {}

    def on_launch(self):
        super().on_launch()
        # Hot-trace state is per program: launch re-decodes, so fused
        # regions from the previous program are invalid.
        self._hot = {}
        self._regions = {}
        # The metadata memos are program-independent (pure functions of
        # the packed word); just bound their growth.
        if len(self._bounds_memo) > (1 << 15):
            self._bounds_memo = {}
            self._meta_info = {}

    # ------------------------------------------------------------------
    # Decode: route to the vectorized handlers
    # ------------------------------------------------------------------

    def decode(self, instr):
        handler, aux, falls_through = super().decode(instr)
        v = _VECTOR_FOR.get(handler.__func__)
        if v is not None:
            handler = getattr(self, v)
        return handler, aux, falls_through

    # ------------------------------------------------------------------
    # Operand-form helpers
    # ------------------------------------------------------------------

    def _gp_form(self, warp, reg):
        if reg == 0:
            return _NULL_SCALAR
        sm = self.sm
        # Inline read_form's no-side-effect cases; only a spilled vector
        # needs the full reload-and-cost path.
        entry = sm.gp._entries.get((warp.index << 8) | reg)
        if entry is None:
            return _NULL_SCALAR
        t = type(entry)
        if t is _Vector:
            sm._vec_touch |= 1
            return entry
        if t is not _Spilled:
            return entry
        form, report = sm.gp.read_form(warp.index, reg)
        if report is not None:
            sm._account_rf(report)
        if type(form) is _Vector:
            sm._vec_touch |= 1
        return form

    def _meta_form(self, warp, reg):
        if reg == 0:
            return _NULL_SCALAR
        sm = self.sm
        entry = sm.meta._entries.get((warp.index << 8) | reg)
        if entry is None:
            return _NULL_SCALAR
        t = type(entry)
        if t is _Vector:
            sm._vec_touch |= 2
            return entry
        if t is not _Spilled:
            return entry
        form, report = sm.meta.read_form(warp.index, reg)
        if report is not None:
            sm._account_rf(report)
        if type(form) is _Vector:
            sm._vec_touch |= 2
        return form

    def _forms_to_caps(self, f1, meta_f):
        """Materialise per-lane capabilities from already-read forms
        (mirrors ``sm._read_caps`` without touching the register files
        again — the forms carry the same values)."""
        n = self.sm._num_lanes
        addrs = _expand(f1, n)
        metas = _expand_meta(meta_f, n)
        from_meta_word = Capability.from_meta_word
        return [
            from_meta_word(metas[i] & MASK32, addrs[i], metas[i] > MASK32)
            for i in range(n)
        ]

    def _write_rd_form(self, warp, reg, form, meta_val=None):
        """Full-mask write of a compact result: null metadata, or the
        uniform metadata word ``meta_val`` (tag in bit 32) of a
        capability result.  Compact forms occupy no VRF slot and never
        spill, so there is nothing to account."""
        if reg is None or reg == 0:
            return
        sm = self.sm
        if meta_val is None:
            meta_form = _NULL_SCALAR
        else:
            meta_form = _Scalar(meta_val, 0)
            if meta_val > MASK32:
                sm.stats.note_cap_register(warp.index, reg)
        write_register(sm.gp, sm.meta, warp.index, reg, form, meta_form,
                       sm._full_mask)

    # ------------------------------------------------------------------
    # Object-free capability metadata
    # ------------------------------------------------------------------

    def _cap_info(self, meta_val):
        """(tag, otype, perms, bounds, exp, r) for a packed meta value."""
        info = self._meta_info.get(meta_val)
        if info is None:
            cap = Capability.from_meta_word(meta_val & MASK32, 0,
                                           meta_val > MASK32)
            bounds = cap.bounds
            exp, b8, _t8 = concentrate._reconstruct_mantissas(bounds)
            r = (b8 - 32) & 0xFF
            info = (cap.tag, cap.otype, int(cap.perms), bounds, exp, r)
            self._meta_info[meta_val] = info
        return info

    def _decoded_bounds(self, meta_val, bounds, exp, r, addr):
        """(base, top) decoded at ``addr``, memoised by the *k*-window
        (the decode is constant while ``((addr >> exp) - r) >> 8`` is)."""
        k = ((addr >> exp) - r) >> 8
        key = (meta_val, k)
        bt = self._bounds_memo.get(key)
        if bt is None:
            bt = concentrate.decode_bounds(bounds, addr)
            self._bounds_memo[key] = bt
        return bt

    # ------------------------------------------------------------------
    # Integer ALU
    # ------------------------------------------------------------------

    def _v_int_r(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, is_sfu = aux
        f1 = self._gp_form(warp, instr.rs1)
        f2 = self._gp_form(warp, instr.rs2)
        num_lanes = sm._num_lanes
        full = mask == sm._full_mask
        out = None
        if type(f1) is _Scalar and type(f2) is _Scalar:
            s1 = f1.stride
            s2 = f2.stride
            if s1 == 0 and s2 == 0:
                if full:
                    out = _Scalar(fn(f1.base, f2.base) & MASK32, 0)
                else:
                    # Masked uniform: one evaluation; the masked write
                    # ignores the inactive positions of the value list.
                    sm._write_rd(warp, instr.rd,
                                 [fn(f1.base, f2.base)] * num_lanes, mask)
                    if is_sfu:
                        sm._sfu_issue(lanes)
                    return
            elif full:
                sym = _SYM_RR.get(fn)
                if sym is not None:
                    out = sym(f1.base, s1, f2.base, s2, num_lanes)
        if out is not None:
            self._write_rd_form(warp, instr.rd, out)
        else:
            a = _expand(f1, num_lanes)
            b = _expand(f2, num_lanes)
            if full:
                values = [fn(a[i], b[i]) for i in range(num_lanes)]
            else:
                values = [0] * num_lanes
                for lane in lanes:
                    values[lane] = fn(a[lane], b[lane])
            sm._write_rd(warp, instr.rd, values, mask)
        if is_sfu:
            sm._sfu_issue(lanes)

    def _v_int_i(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, imm = aux
        f1 = self._gp_form(warp, instr.rs1)
        num_lanes = sm._num_lanes
        full = mask == sm._full_mask
        out = None
        if type(f1) is _Scalar:
            s1 = f1.stride
            if s1 == 0:
                if full:
                    out = _Scalar(fn(f1.base, imm) & MASK32, 0)
                else:
                    sm._write_rd(warp, instr.rd,
                                 [fn(f1.base, imm)] * num_lanes, mask)
                    return
            elif not full:
                pass
            elif fn is _ADD:
                out = _Scalar((f1.base + imm) & MASK32, s1)
            else:
                sym = _SYM_RR.get(fn)
                if sym is not None:
                    out = sym(f1.base, s1, imm, 0, num_lanes)
        if out is not None:
            self._write_rd_form(warp, instr.rd, out)
        else:
            a = _expand(f1, num_lanes)
            if full:
                values = [fn(a[i], imm) for i in range(num_lanes)]
            else:
                values = [0] * num_lanes
                for lane in lanes:
                    values[lane] = fn(a[lane], imm)
            sm._write_rd(warp, instr.rd, values, mask)

    def _v_lui(self, warp, instr, pc, lanes, mask, aux):
        if mask != self.sm._full_mask:
            return self._h_lui(warp, instr, pc, lanes, mask, aux)
        self._write_rd_form(warp, instr.rd, _Scalar(aux, 0))

    def _v_auipc(self, warp, instr, pc, lanes, mask, aux):
        if mask != self.sm._full_mask:
            return self._h_auipc(warp, instr, pc, lanes, mask, aux)
        self._write_rd_form(warp, instr.rd, _Scalar((pc + aux) & MASK32, 0))

    # ------------------------------------------------------------------
    # Branches and jumps
    # ------------------------------------------------------------------

    def _v_branch(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, imm = aux
        f1 = self._gp_form(warp, instr.rs1)
        f2 = self._gp_form(warp, instr.rs2)
        pcs = warp.pcs
        if type(f1) is _Scalar and f1.stride == 0 and \
                type(f2) is _Scalar and f2.stride == 0:
            target = (pc + imm) & MASK32 if fn(f1.base, f2.base) else pc + 4
            for lane in lanes:
                pcs[lane] = target
            return
        num_lanes = sm._num_lanes
        a = _expand(f1, num_lanes)
        b = _expand(f2, num_lanes)
        taken_pc = (pc + imm) & MASK32
        next_pc = pc + 4
        for lane in lanes:
            pcs[lane] = taken_pc if fn(a[lane], b[lane]) else next_pc

    def _v_jal(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        imm, is_cjal = aux
        next_pc = pc + 4
        full = mask == sm._full_mask
        if instr.rd:
            if is_cjal:
                metas = warp.pcc_meta
                m = metas[0]
                if metas.count(m) != sm._num_lanes:
                    return self._h_jal(warp, instr, pc, lanes, mask, aux)
                link = Capability.from_meta_word(m & MASK32, next_pc,
                                                bool(m >> 32)).seal_entry()
                mv = link.meta_word() | (link.tag << 32)
                if full:
                    self._write_rd_form(
                        warp, instr.rd, _Scalar(next_pc & MASK32, 0), mv)
                else:
                    num_lanes = sm._num_lanes
                    sm._write_rd(warp, instr.rd, [next_pc] * num_lanes,
                                 mask, [mv] * num_lanes, bool(link.tag))
            elif full:
                self._write_rd_form(warp, instr.rd,
                                    _Scalar(next_pc & MASK32, 0))
            else:
                sm._write_rd(warp, instr.rd,
                             [next_pc] * sm._num_lanes, mask)
        sm._advance(warp, lanes, (pc + imm) & MASK32)

    def _v_jalr(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        full = mask == sm._full_mask
        f1 = self._gp_form(warp, instr.rs1)
        if type(f1) is not _Scalar or f1.stride != 0:
            num_lanes = sm._num_lanes
            a = _expand(f1, num_lanes)
            targets = [0] * num_lanes
            for lane in lanes:
                targets[lane] = (a[lane] + aux) & ~1 & MASK32
            if instr.rd:
                if full:
                    self._write_rd_form(warp, instr.rd,
                                        _Scalar((pc + 4) & MASK32, 0))
                else:
                    sm._write_rd(warp, instr.rd,
                                 [pc + 4] * num_lanes, mask)
            pcs = warp.pcs
            for lane in lanes:
                pcs[lane] = targets[lane]
            return
        target = (f1.base + aux) & ~1 & MASK32
        if instr.rd:
            if full:
                self._write_rd_form(warp, instr.rd,
                                    _Scalar((pc + 4) & MASK32, 0))
            else:
                sm._write_rd(warp, instr.rd,
                             [pc + 4] * sm._num_lanes, mask)
        pcs = warp.pcs
        for lane in lanes:
            pcs[lane] = target

    # ------------------------------------------------------------------
    # Floating point.  The uniform path calls the scalar function once,
    # keeping NaN payloads and rounding bit-exact.
    # ------------------------------------------------------------------

    def _v_float_rr(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, is_sfu = aux
        f1 = self._gp_form(warp, instr.rs1)
        f2 = self._gp_form(warp, instr.rs2)
        num_lanes = sm._num_lanes
        full = mask == sm._full_mask
        if type(f1) is _Scalar and f1.stride == 0 and \
                type(f2) is _Scalar and f2.stride == 0:
            if full:
                self._write_rd_form(warp, instr.rd,
                                    _Scalar(fn(f1.base, f2.base) & MASK32, 0))
            else:
                sm._write_rd(warp, instr.rd,
                             [fn(f1.base, f2.base)] * num_lanes, mask)
        else:
            a = _expand(f1, num_lanes)
            b = _expand(f2, num_lanes)
            if full:
                values = [fn(a[i], b[i]) for i in range(num_lanes)]
            else:
                values = [0] * num_lanes
                for lane in lanes:
                    values[lane] = fn(a[lane], b[lane])
            sm._write_rd(warp, instr.rd, values, mask)
        if is_sfu:
            sm._sfu_issue(lanes)

    def _v_float_unary(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, is_sfu = aux
        f1 = self._gp_form(warp, instr.rs1)
        num_lanes = sm._num_lanes
        full = mask == sm._full_mask
        if type(f1) is _Scalar and f1.stride == 0:
            if full:
                self._write_rd_form(warp, instr.rd,
                                    _Scalar(fn(f1.base) & MASK32, 0))
            else:
                sm._write_rd(warp, instr.rd,
                             [fn(f1.base)] * num_lanes, mask)
        else:
            a = _expand(f1, num_lanes)
            if full:
                values = [fn(a[i]) for i in range(num_lanes)]
            else:
                values = [0] * num_lanes
                for lane in lanes:
                    values[lane] = fn(a[lane])
            sm._write_rd(warp, instr.rd, values, mask)
        if is_sfu:
            sm._sfu_issue(lanes)

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------

    def _v_memory(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        width, is_cap, is_store, is_amo, amo_fn, signed, imm = aux
        if is_amo:
            return self._h_memory(warp, instr, pc, lanes, mask, aux)

        # Operand fetch in the scalar order: rs1 address word(s), then
        # rs1 metadata for capability addressing.
        f1 = self._gp_form(warp, instr.rs1)
        meta_f = self._meta_form(warp, instr.rs1) if is_cap else None
        if (mask != sm._full_mask or type(f1) is not _Scalar or
                (is_cap and (type(meta_f) is not _Scalar or
                             meta_f.stride != 0))):
            # Any-mask / any-pattern path; it also takes metadata forms
            # whose active lanes share one word.
            return self._v_memory_general(warp, instr, pc, lanes, mask, aux,
                                          f1, meta_f)

        op = instr.op
        num_lanes = sm._num_lanes
        base = f1.base
        stride = f1.stride
        span = (num_lanes - 1) * stride
        # Wrap-free capability address range (pre-immediate) and access
        # range, so plain int arithmetic stands in for mod-2^32 (this
        # also implies the memory model's own range check passes).
        c_lo = base + (span if stride < 0 else 0)
        c_hi = base + (span if stride > 0 else 0)
        a_lo = c_lo + imm
        a_hi = c_hi + imm
        if c_lo < 0 or c_hi + width > (1 << 32) or \
                a_lo < 0 or a_hi + width > (1 << 32):
            return self._memory_fallback(warp, instr, pc, lanes, mask, aux,
                                         f1, meta_f)
        if a_lo % width or stride % width:
            # Misaligned lanes (which fault lane-first in the memory
            # model) stay on the reference path.
            return self._memory_fallback(warp, instr, pc, lanes, mask, aux,
                                         f1, meta_f)

        if is_cap:
            meta_val = meta_f.base
            tag, otype, perms, bounds, exp, r = self._cap_info(meta_val)
            need = _P_STORE if is_store else _P_LOAD
            if not tag or otype != 0 or not (perms & need):
                # Exact per-lane fault ordering and message.
                return self._memory_fallback(warp, instr, pc, lanes, mask,
                                             aux, f1, meta_f)
            if (((c_lo >> exp) - r) >> 8) != (((c_hi >> exp) - r) >> 8):
                return self._memory_fallback(warp, instr, pc, lanes, mask,
                                             aux, f1, meta_f)
            dec_base, dec_top = self._decoded_bounds(meta_val, bounds,
                                                    exp, r, c_lo)
            if not (dec_base <= a_lo and a_hi + width <= dec_top):
                return self._memory_fallback(warp, instr, pc, lanes, mask,
                                             aux, f1, meta_f)

        memory = sm.memory
        words = memory._words
        if op is Op.CSC:
            f2 = self._gp_form(warp, instr.rs2)
            meta2 = self._meta_form(warp, instr.rs2)
            addrs2 = _expand(f2, num_lanes)
            metas2 = _expand_meta(meta2, num_lanes)
            if not (perms & _P_STORE_CAP) and \
                    any(m > MASK32 for m in metas2):
                # Per-lane STORE_CAP fault: replay on the reference path
                # (the fault ordering depends on the faulting lane).
                return self._memory_core(
                    warp, instr, pc, lanes, mask, aux,
                    self._forms_to_caps(f1, meta_f), None)
            # Inline write_cap_raw: alignment and range were verified
            # above (width 8, aligned base and stride, in-range span), so
            # the model's _check can never fire here.
            tags = memory._tags
            tags_add = tags.add
            tags_discard = tags.discard
            addr = base + imm
            for i in range(num_lanes):
                m2 = metas2[i]
                index = addr >> 2
                words[index] = addrs2[i] & MASK32
                words[index + 1] = m2 & MASK32
                if m2 > MASK32:
                    tags_add(index)
                    tags_add(index + 1)
                else:
                    tags_discard(index)
                    tags_discard(index + 1)
                addr += stride
            self._fast_mem_timing(op, base + imm, stride, width, num_lanes,
                                  True, warp)
            return
        if op is Op.CLC:
            # Inline read_cap_raw (same pre-verified-_check argument as the
            # CSC path above); lo/hi words are < 2**32 so the raw 64-bit
            # reassembly splits back into exactly (hi, lo).
            get = words.get
            tags = memory._tags
            strip = not (perms & _P_LOAD_CAP)
            out = [0] * num_lanes
            metas = [0] * num_lanes
            tagged = False
            addr = base + imm
            for i in range(num_lanes):
                index = addr >> 2
                addr += stride
                hi = get(index + 1, 0)
                if not strip and index in tags and index + 1 in tags:
                    tagged = True
                    metas[i] = hi | (1 << 32)
                else:
                    metas[i] = hi
                out[i] = get(index, 0)
            sm._write_rd(warp, instr.rd, out, mask, metas, tagged)
            self._fast_mem_timing(op, base + imm, stride, width, num_lanes,
                                  False, warp)
            return

        if is_store:
            f2 = self._gp_form(warp, instr.rs2)
            discard = memory._tags.discard
            if width < 4:
                # Sub-word read-modify-write in lane order (later lanes
                # legitimately overwrite earlier lanes' bytes of the same
                # word; lane order is the model's order).
                get = words.get
                wbits = width * 8
                vmask = (1 << wbits) - 1
                values = _expand(f2, num_lanes)
                addr = base + imm
                for i in range(num_lanes):
                    index = addr >> 2
                    shift = (addr & 3) * 8
                    m = vmask << shift
                    words[index] = (get(index, 0) & ~m) | \
                        ((values[i] & vmask) << shift)
                    discard(index)
                    addr += stride
            elif stride == 0:
                # Lane-serial writes to one address: the last lane wins.
                if type(f2) is _Scalar:
                    value = (f2.base + (num_lanes - 1) * f2.stride) & MASK32
                else:
                    value = _expand(f2, num_lanes)[num_lanes - 1] & MASK32
                index = (base + imm) >> 2
                words[index] = value
                discard(index)
            else:
                values = _expand(f2, num_lanes)
                addr = base + imm
                for i in range(num_lanes):
                    index = addr >> 2
                    words[index] = values[i] & MASK32
                    discard(index)
                    addr += stride
            self._fast_mem_timing(op, base + imm, stride, width, num_lanes,
                                  True, warp)
            return

        # Loads (word, halfword, byte).
        get = words.get
        addr = base + imm
        if width < 4:
            wbits = width * 8
            vmask = (1 << wbits) - 1
            sbit = 1 << (wbits - 1)
            out = [0] * num_lanes
            for i in range(num_lanes):
                value = (get(addr >> 2, 0) >> ((addr & 3) * 8)) & vmask
                if signed and value & sbit:
                    value -= 1 << wbits
                out[i] = value & MASK32
                addr += stride
        elif stride == 0:
            out = [get(addr >> 2, 0)] * num_lanes
        else:
            out = [0] * num_lanes
            for i in range(num_lanes):
                out[i] = get(addr >> 2, 0)
                addr += stride
        sm._write_rd(warp, instr.rd, out, mask)
        self._fast_mem_timing(op, base + imm, stride, width, num_lanes,
                              False, warp)

    def _v_memory_general(self, warp, instr, pc, lanes, mask, aux, f1,
                          meta_f):
        """Any-mask, any-address-pattern accesses whose active lanes share
        one metadata word.

        Per-lane bounds decodes hit the *k*-window memo, gathers/scatters
        go straight against the word store, and timing is charged per
        coalesced line.  Every check for every active lane completes
        before any mutation, so a fallback mid-check is an exact replay
        of the reference path.
        """
        sm = self.sm
        width, is_cap, is_store, _is_amo, _amo_fn, signed, imm = aux
        num_lanes = sm._num_lanes
        vals = _expand(f1, num_lanes)
        addrs = []
        append = addrs.append
        limit = (1 << 32) - width
        for lane in lanes:
            a = (vals[lane] + imm) & MASK32
            if a % width or a > limit:
                # Misaligned lanes fault lane-first in the memory model;
                # end-of-space accesses wrap there too.
                return self._memory_fallback(warp, instr, pc, lanes, mask,
                                             aux, f1, meta_f)
            append(a)
        op = instr.op
        if is_cap:
            if type(meta_f) is _Scalar and meta_f.stride == 0:
                meta_val = meta_f.base
            else:
                # A per-lane metadata form (a partially-null pointer, or
                # a VRF-resident one) whose active lanes usually agree.
                metas = _expand_meta(meta_f, num_lanes)
                meta_val = metas[lanes[0]]
                for lane in lanes:
                    if metas[lane] != meta_val:
                        return self._memory_fallback(warp, instr, pc, lanes,
                                                     mask, aux, f1, meta_f)
            tag, otype, perms, bounds, exp, r = self._cap_info(meta_val)
            need = _P_STORE if is_store else _P_LOAD
            if not tag or otype != 0 or not (perms & need):
                # Exact per-lane fault ordering and message.
                return self._memory_fallback(warp, instr, pc, lanes, mask,
                                             aux, f1, meta_f)
            # Inline the k-window memo; gather lanes usually share one
            # window, so the previous lane's decode is cached in locals
            # before the dict is consulted.
            memo_get = self._bounds_memo.get
            memo = self._bounds_memo
            last_k = dec_base = dec_top = None
            for j, lane in enumerate(lanes):
                va = vals[lane]
                k = ((va >> exp) - r) >> 8
                if k != last_k:
                    key = (meta_val, k)
                    bt = memo_get(key)
                    if bt is None:
                        bt = concentrate.decode_bounds(bounds, va)
                        memo[key] = bt
                    dec_base, dec_top = bt
                    last_k = k
                a = addrs[j]
                if not (dec_base <= a and a + width <= dec_top):
                    return self._memory_fallback(warp, instr, pc, lanes,
                                                 mask, aux, f1, meta_f)
        memory = sm.memory
        words = memory._words
        if op is Op.CSC:
            f2 = self._gp_form(warp, instr.rs2)
            meta2 = self._meta_form(warp, instr.rs2)
            addrs2 = _expand(f2, num_lanes)
            metas2 = _expand_meta(meta2, num_lanes)
            if not (perms & _P_STORE_CAP):
                for lane in lanes:
                    if metas2[lane] > MASK32:
                        # Per-lane STORE_CAP fault: replay on the
                        # reference path (nothing written yet).
                        return self._memory_core(
                            warp, instr, pc, lanes, mask, aux,
                            self._forms_to_caps(f1, meta_f), None)
            # Inline write_cap_raw: per-lane alignment and range were
            # verified in the address loop above, so _check cannot fire.
            tags = memory._tags
            tags_add = tags.add
            tags_discard = tags.discard
            for j, lane in enumerate(lanes):
                m2 = metas2[lane]
                index = addrs[j] >> 2
                words[index] = addrs2[lane] & MASK32
                words[index + 1] = m2 & MASK32
                if m2 > MASK32:
                    tags_add(index)
                    tags_add(index + 1)
                else:
                    tags_discard(index)
                    tags_discard(index + 1)
            self._mem_timing_addrs(op, addrs, width, True, warp, lanes)
            return
        if op is Op.CLC:
            # Inline read_cap_raw (pre-verified _check, split hi/lo reads
            # as in the affine path).
            get = words.get
            tags = memory._tags
            out = [0] * num_lanes
            out_metas = [0] * num_lanes
            tagged = False
            strip = not (perms & _P_LOAD_CAP)
            for j, lane in enumerate(lanes):
                index = addrs[j] >> 2
                hi = get(index + 1, 0)
                if not strip and index in tags and index + 1 in tags:
                    tagged = True
                    out_metas[lane] = hi | (1 << 32)
                else:
                    out_metas[lane] = hi
                out[lane] = get(index, 0)
            sm._write_rd(warp, instr.rd, out, mask, out_metas, tagged)
            self._mem_timing_addrs(op, addrs, width, False, warp, lanes)
            return
        if is_store:
            f2 = self._gp_form(warp, instr.rs2)
            values = _expand(f2, num_lanes)
            discard = memory._tags.discard
            if width < 4:
                # Sub-word read-modify-write in lane order.
                get = words.get
                wbits = width * 8
                vmask = (1 << wbits) - 1
                for j, lane in enumerate(lanes):
                    a = addrs[j]
                    index = a >> 2
                    shift = (a & 3) * 8
                    m = vmask << shift
                    words[index] = (get(index, 0) & ~m) | \
                        ((values[lane] & vmask) << shift)
                    discard(index)
            else:
                for j, lane in enumerate(lanes):
                    index = addrs[j] >> 2
                    words[index] = values[lane] & MASK32
                    discard(index)
            self._mem_timing_addrs(op, addrs, width, True, warp, lanes)
            return
        get = words.get
        out = [0] * num_lanes
        if width < 4:
            wbits = width * 8
            vmask = (1 << wbits) - 1
            sbit = 1 << (wbits - 1)
            for j, lane in enumerate(lanes):
                a = addrs[j]
                value = (get(a >> 2, 0) >> ((a & 3) * 8)) & vmask
                if signed and value & sbit:
                    value -= 1 << wbits
                out[lane] = value & MASK32
        else:
            for j, lane in enumerate(lanes):
                out[lane] = get(addrs[j] >> 2, 0)
        sm._write_rd(warp, instr.rd, out, mask)
        self._mem_timing_addrs(op, addrs, width, False, warp, lanes)

    def _mem_timing_addrs(self, op, addrs, width, is_write, warp, lanes):
        """Timing for an explicit active-lane address list: the general
        path's equivalent of ``sm._memory_access`` (same stats, same DRAM
        request order)."""
        sm = self.sm
        if sm.probes is not None:
            sm._memory_access(
                op, [(lanes[j], addrs[j], width)
                     for j in range(len(addrs))], warp, is_write)
            return
        cfg = sm.cfg
        lo = min(addrs)
        hi = max(addrs)
        scratchpad = sm.scratchpad
        sp_base = scratchpad.base
        sp_end = sp_base + scratchpad.size_bytes
        if sp_base <= lo and hi < sp_end:
            conflicts = scratchpad.conflict_cycles(addrs)
            sm._extra_issue += conflicts
            stats = sm.stats
            stats.stall_bank_conflict += conflicts
            stats.scratchpad_accesses += len(addrs)
            ready = sm._cycle + cfg.scratchpad_latency
            if ready > sm._mem_ready:
                sm._mem_ready = ready
            if width == 8:
                sm._extra_issue += 1
            return
        line_bytes = cfg.dram_line_bytes
        stack = sm.stack_cache
        if (hi + width > sp_base and lo < sp_end) or \
                (stack is not None and hi + width > stack.base and
                 lo < stack.base + stack.size_bytes) or \
                line_bytes % width:
            # Mixed scratchpad/global, stateful stack cache, or lines the
            # alignment guard cannot rule out straddling: reference path.
            sm._memory_access(
                op, [(lanes[j], addrs[j], width)
                     for j in range(len(addrs))], warp, is_write)
            return
        writes_tag = is_write and op is Op.CSC
        sm._mem_ready = self._charge_lines(
            sm._cycle, sorted({a // line_bytes for a in addrs}), line_bytes,
            is_write, writes_tag, sm._mem_ready)
        if width == 8:
            sm._extra_issue += 1

    def _memory_fallback(self, warp, instr, pc, lanes, mask, aux, f1,
                         meta_f):
        """Reference-path memory semantics from already-read operands."""
        if meta_f is None:
            bases = _expand(f1, self.sm._num_lanes)
            return self._memory_core(warp, instr, pc, lanes, mask, aux,
                                     None, bases)
        return self._memory_core(warp, instr, pc, lanes, mask, aux,
                                 self._forms_to_caps(f1, meta_f), None)

    def _fast_mem_timing(self, op, addr0, stride, width, n, is_write, warp):
        """O(1)-per-line equivalent of ``sm._memory_access`` for a
        wrap-free affine access stream (same stats, same DRAM order)."""
        sm = self.sm
        if sm.probes is not None:
            # The probe bus sees one mem_txn event per coalesced line;
            # keep the reference path authoritative for observed runs.
            return self._materialised_timing(op, addr0, stride, width, n,
                                             is_write, warp)
        cfg = sm.cfg
        span = (n - 1) * stride
        lo = addr0 + (span if stride < 0 else 0)
        hi = addr0 + (span if stride > 0 else 0)
        scratchpad = sm.scratchpad
        sp_base = scratchpad.base
        sp_end = sp_base + scratchpad.size_bytes
        if sp_base <= lo and hi < sp_end:
            # Entirely in scratchpad (the lane range is an interval).
            if stride == 0 or \
                    (stride in (4, -4) and n <= scratchpad.num_banks):
                conflicts = 0
            else:
                conflicts = scratchpad.conflict_cycles(
                    [addr0 + i * stride for i in range(n)])
            sm._extra_issue += conflicts
            sm.stats.stall_bank_conflict += conflicts
            sm.stats.scratchpad_accesses += n
            ready = sm._cycle + cfg.scratchpad_latency
            if ready > sm._mem_ready:
                sm._mem_ready = ready
            if width == 8:
                sm._extra_issue += 1
            return
        if hi + width > sp_base and lo < sp_end:
            # Some lane may touch the scratchpad: reference path.
            return self._materialised_timing(op, addr0, stride, width, n,
                                             is_write, warp)
        stack = sm.stack_cache
        if stack is not None and hi + width > stack.base and \
                lo < stack.base + stack.size_bytes:
            # The stack cache is stateful (tags, writebacks): any
            # overlap goes through the reference path.
            return self._materialised_timing(op, addr0, stride, width, n,
                                             is_write, warp)
        line_bytes = cfg.dram_line_bytes
        if stride > line_bytes or -stride > line_bytes:
            # Lanes can skip whole lines: coalescing is no longer a
            # contiguous range.
            return self._materialised_timing(op, addr0, stride, width, n,
                                             is_write, warp)
        first = lo // line_bytes
        last = (hi + width - 1) // line_bytes
        writes_tag = is_write and op is Op.CSC
        sm._mem_ready = self._charge_lines(
            sm._cycle, range(first, last + 1), line_bytes,
            is_write, writes_tag, sm._mem_ready)
        if width == 8:
            sm._extra_issue += 1

    def _materialised_timing(self, op, addr0, stride, width, n, is_write,
                             warp):
        accesses = [(i, (addr0 + i * stride) & MASK32, width)
                    for i in range(n)]
        self.sm._memory_access(op, accesses, warp, is_write)

    def _charge_lines(self, cycle, lines, line_bytes, is_write, writes_tag,
                      mem_ready):
        """Per-line tag + DRAM accounting with the model calls unrolled.

        Bit-identical to calling ``tag_controller.access`` followed by
        ``dram.request(cycle, is_write, line_bytes)`` for each line in
        order (the per-call bodies are replicated here with their state
        hoisted into locals, because gather-heavy kernels touch one line
        per lane and the call overhead dominates).  Returns the updated
        memory-ready bound.
        """
        sm = self.sm
        dram = sm.dram
        latency = dram.latency
        cpt = dram.cycles_per_txn
        dstats = dram.stats
        next_free = dram._next_free
        slots = max(1, -(-line_bytes // dram.line_bytes))
        step = slots * cpt
        txns = 0
        enable_cheri = sm.cfg.enable_cheri
        if enable_cheri:
            tag = sm.tag_controller
            dirty = tag._dirty_regions
            tcache = tag._cache
            cache_lines = tag.cache_lines
            tag_line_words = tag.line_words
            region_words = tag.region_words
            tag_bytes = tag_line_words // 8
            tag_slots = max(1, -(-tag_bytes // dram.line_bytes))
            tag_step = tag_slots * cpt
            tag_txns = 0
            hits = 0
            misses = 0
            skips = 0
        for line in lines:
            if enable_cheri:
                word = (line * line_bytes) >> 2
                if writes_tag:
                    dirty.add(word // region_words)
                    check = True
                elif word // region_words in dirty:
                    check = True
                else:
                    skips += 1
                    check = False
                if check:
                    tline = word // tag_line_words
                    index = tline % cache_lines
                    if tcache.get(index) == tline:
                        hits += 1
                    else:
                        misses += 1
                        tcache[index] = tline
                        # dram.request(cycle, False, tag_bytes,
                        #              tag_traffic=True)
                        start = cycle if cycle > next_free else next_free
                        next_free = start + tag_step
                        tag_txns += tag_slots
                        done = next_free + latency
                        if done > mem_ready:
                            mem_ready = done
            # dram.request(cycle, is_write, line_bytes)
            start = cycle if cycle > next_free else next_free
            next_free = start + step
            txns += slots
            done = next_free + latency
            if done > mem_ready:
                mem_ready = done
        dram._next_free = next_free
        n = len(lines)
        if is_write:
            dstats.write_txns += txns
            dstats.write_bytes += n * line_bytes
        else:
            dstats.read_txns += txns
            dstats.read_bytes += n * line_bytes
        if enable_cheri:
            tag.hits += hits
            tag.misses += misses
            tag.zero_region_skips += skips
            if tag_txns:
                dstats.read_txns += tag_txns
                read_bytes = misses * tag_bytes
                dstats.read_bytes += read_bytes
                dstats.tag_bytes += read_bytes
        return mem_ready

    # ------------------------------------------------------------------
    # CHERI non-memory
    # ------------------------------------------------------------------

    def _v_cget(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, slow = aux
        f1 = self._gp_form(warp, instr.rs1)
        meta_f = self._meta_form(warp, instr.rs1)
        uniform_meta = type(meta_f) is _Scalar and meta_f.stride == 0
        full = mask == sm._full_mask
        value = None
        out = None
        if type(f1) is _Scalar:
            if f1.stride == 0 and uniform_meta:
                m = meta_f.base
                cap = Capability.from_meta_word(m & MASK32, f1.base,
                                               m > MASK32)
                value = fn(cap) & MASK32
            elif fn is _FN_CGETADDR and full:
                out = _Scalar(f1.base, f1.stride)
        if value is None and out is None and uniform_meta and \
                fn in _META_ONLY_CGET:
            m = meta_f.base
            cap = Capability.from_meta_word(m & MASK32, 0, m > MASK32)
            value = fn(cap) & MASK32
        if value is not None:
            if full:
                self._write_rd_form(warp, instr.rd, _Scalar(value, 0))
            else:
                sm._write_rd(warp, instr.rd, [value] * sm._num_lanes, mask)
        elif out is not None:
            self._write_rd_form(warp, instr.rd, out)
        else:
            return self._cget_core(warp, instr, pc, lanes, mask, fn, slow,
                                   self._forms_to_caps(f1, meta_f))
        if slow:
            sm._sfu_cheri_issue(lanes)

    def _v_crr(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, slow = aux
        f1 = self._gp_form(warp, instr.rs1)
        num_lanes = sm._num_lanes
        full = mask == sm._full_mask
        if type(f1) is _Scalar and f1.stride == 0:
            if full:
                self._write_rd_form(warp, instr.rd,
                                    _Scalar(fn(f1.base) & MASK32, 0))
            else:
                sm._write_rd(warp, instr.rd,
                             [fn(f1.base)] * num_lanes, mask)
        else:
            a = _expand(f1, num_lanes)
            if full:
                values = [fn(a[i]) & MASK32 for i in range(num_lanes)]
            else:
                values = [0] * num_lanes
                for lane in lanes:
                    values[lane] = fn(a[lane])
            sm._write_rd(warp, instr.rd, values, mask)
        if slow:
            sm._sfu_cheri_issue(lanes)

    def _write_rd_cap_any(self, warp, reg, gp_form, mask, full, meta_val,
                          tagged):
        """Write a capability result with uniform metadata under any mask
        (full masks write forms, partial masks merge lane lists)."""
        if full:
            self._write_rd_form(warp, reg, gp_form, meta_val)
            return
        sm = self.sm
        num_lanes = sm._num_lanes
        sm._write_rd(warp, reg, _expand(gp_form, num_lanes), mask,
                     [meta_val] * num_lanes, tagged)

    def _v_cmod1(self, warp, instr, pc, lanes, mask, aux):
        fn = aux
        f1 = self._gp_form(warp, instr.rs1)
        meta_f = self._meta_form(warp, instr.rs1)
        full = mask == self.sm._full_mask
        if type(meta_f) is _Scalar and meta_f.stride == 0 and \
                type(f1) is _Scalar:
            m = meta_f.base
            if fn is _FN_CMOVE:
                self._write_rd_cap_any(warp, instr.rd,
                                       _Scalar(f1.base, f1.stride),
                                       mask, full, m, m > MASK32)
                return
            if fn is _FN_CCLEARTAG:
                self._write_rd_cap_any(warp, instr.rd,
                                       _Scalar(f1.base, f1.stride),
                                       mask, full, m & MASK32, False)
                return
            if f1.stride == 0:
                cap = fn(Capability.from_meta_word(m & MASK32, f1.base,
                                                   m > MASK32))
                self._write_rd_cap_any(
                    warp, instr.rd, _Scalar(cap.addr & MASK32, 0),
                    mask, full, cap.meta_word() | (cap.tag << 32), cap.tag)
                return
        return self._cmod1_core(warp, instr, pc, lanes, mask, fn,
                                self._forms_to_caps(f1, meta_f))

    def _v_cmod2(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, slow = aux
        f1 = self._gp_form(warp, instr.rs1)
        meta_f = self._meta_form(warp, instr.rs1)
        f2 = self._gp_form(warp, instr.rs2)
        full = mask == sm._full_mask
        if type(f1) is _Scalar and type(meta_f) is _Scalar and \
                meta_f.stride == 0:
            m = meta_f.base
            addr_op = fn is _FN_CINCOFFSET or fn is _FN_CSETADDR
            if type(f2) is _Scalar and f1.stride == 0 and f2.stride == 0:
                # Uniform address math: try the k-window check first — a
                # same-window move keeps the metadata word bit-identical,
                # so no Capability needs decoding at all.
                if addr_op:
                    nb = ((f1.base + f2.base if fn is _FN_CINCOFFSET
                           else f2.base) & MASK32)
                    res = self._addr_meta(m, f1.base, (nb,))
                    if res is not None:
                        self._write_rd_cap_any(warp, instr.rd,
                                               _Scalar(nb, 0), mask, full,
                                               res[0], res[1])
                        if slow:
                            sm._sfu_cheri_issue(lanes)
                        return
                cap = fn(Capability.from_meta_word(m & MASK32, f1.base,
                                                   m > MASK32), f2.base)
                self._write_rd_cap_any(
                    warp, instr.rd, _Scalar(cap.addr & MASK32, 0),
                    mask, full, cap.meta_word() | (cap.tag << 32), cap.tag)
                if slow:
                    sm._sfu_cheri_issue(lanes)
                return
            ok = False
            if addr_op:
                inc = fn is _FN_CINCOFFSET
                if full and type(f2) is _Scalar:
                    ok = self._set_addr_window(
                        warp, instr.rd, m, f1,
                        f2.base + (f1.base if inc else 0),
                        f2.stride + (f1.stride if inc else 0))
                if not ok and f1.stride == 0:
                    # Gather pointer: uniform capability, per-lane operand.
                    ok = self._gather_addr(warp, instr.rd, lanes, mask, inc,
                                           m, f1.base, f2)
            if ok:
                if slow:
                    sm._sfu_cheri_issue(lanes)
                return
        return self._cmod2_core(warp, instr, pc, lanes, mask, fn, slow,
                                self._forms_to_caps(f1, meta_f),
                                _expand(f2, sm._num_lanes))

    def _v_cimm(self, warp, instr, pc, lanes, mask, aux):
        sm = self.sm
        fn, imm, slow = aux
        f1 = self._gp_form(warp, instr.rs1)
        meta_f = self._meta_form(warp, instr.rs1)
        full = mask == sm._full_mask
        if type(f1) is _Scalar and type(meta_f) is _Scalar and \
                meta_f.stride == 0:
            m = meta_f.base
            if f1.stride == 0:
                if fn is _FN_CINCOFFSETIMM:
                    nb = (f1.base + imm) & MASK32
                    res = self._addr_meta(m, f1.base, (nb,))
                    if res is not None:
                        self._write_rd_cap_any(warp, instr.rd,
                                               _Scalar(nb, 0), mask, full,
                                               res[0], res[1])
                        if slow:
                            sm._sfu_cheri_issue(lanes)
                        return
                cap = fn(Capability.from_meta_word(m & MASK32, f1.base,
                                                   m > MASK32), imm)
                self._write_rd_cap_any(
                    warp, instr.rd, _Scalar(cap.addr & MASK32, 0),
                    mask, full, cap.meta_word() | (cap.tag << 32), cap.tag)
                if slow:
                    sm._sfu_cheri_issue(lanes)
                return
            if full and fn is _FN_CINCOFFSETIMM and self._set_addr_window(
                    warp, instr.rd, m, f1, f1.base + imm, f1.stride):
                if slow:
                    sm._sfu_cheri_issue(lanes)
                return
        return self._cimm_core(warp, instr, pc, lanes, mask, fn, imm, slow,
                               self._forms_to_caps(f1, meta_f))

    def _addr_meta(self, meta_val, ref_addr, new_addrs):
        """Result (meta word incl. tag bit, tag) of setAddr/incOffset
        moving a capability from ``ref_addr`` to each of ``new_addrs``,
        or None when some move leaves the *k*-window (the exact
        Capability path must decide representability).

        Mirrors :meth:`_set_addr_window`'s three cases: untagged keeps
        meta and (cleared) tag; sealed keeps the meta word but clears the
        tag; tagged-unsealed keeps everything when every new address
        shares the reference address's *k*-window.
        """
        tag, otype, _perms, _bounds, exp, r = self._cap_info(meta_val)
        if not tag:
            return meta_val, False
        if otype != 0:
            return meta_val & MASK32, False
        k = ((ref_addr >> exp) - r) >> 8
        for a in new_addrs:
            if ((a >> exp) - r) >> 8 != k:
                return None
        return meta_val, True

    def _gather_addr(self, warp, rd, lanes, mask, inc, meta_val, ref, f2):
        """setAddr (``inc`` false) or incOffset of the uniform capability
        ``(meta_val, ref)`` by per-lane operands ``f2`` under any mask.
        Returns True when the result was written, False when an active
        lane leaves the *k*-window (exact per-lane path)."""
        sm = self.sm
        num_lanes = sm._num_lanes
        b = _expand(f2, num_lanes)
        if inc:
            new = [(ref + b[lane]) & MASK32 for lane in lanes]
        else:
            new = [b[lane] for lane in lanes]
        res = self._addr_meta(meta_val, ref, new)
        if res is None:
            return False
        out = [0] * num_lanes
        for j, lane in enumerate(lanes):
            out[lane] = new[j]
        sm._write_rd(warp, rd, out, mask, [res[0]] * num_lanes, res[1])
        return True

    def _set_addr_window(self, warp, rd, meta_val, ref_form, new_base,
                         new_stride):
        """setAddr/incOffset across all lanes via the *k*-window.

        ``ref_form`` holds the per-lane reference addresses; the new
        addresses are ``new_base + i*new_stride`` (pre-mod).  When every
        lane's reference and new address share one *k*-window, each
        lane's bounds decode is unchanged, so every lane stays
        representable with an unchanged metadata word — no per-lane
        Capability is needed.  Returns True when the fast path applied
        (result written), False to fall back to the exact per-lane path.
        """
        sm = self.sm
        num_lanes = sm._num_lanes
        out = _affine(new_base, new_stride, num_lanes)
        if out is None:
            return False
        tag, otype, _perms, _bounds, exp, r = self._cap_info(meta_val)
        if not tag:
            # Untagged: set_addr keeps the (cleared) tag and meta word.
            self._write_rd_form(warp, rd, out, meta_val)
            return True
        if otype != 0:
            # Sealed capabilities are address-immutable: tag cleared,
            # meta word kept.
            self._write_rd_form(warp, rd, out, meta_val & MASK32)
            return True
        span_ref = (num_lanes - 1) * ref_form.stride
        ref_lo = ref_form.base + (span_ref if ref_form.stride < 0 else 0)
        ref_hi = ref_form.base + (span_ref if ref_form.stride > 0 else 0)
        span_new = (num_lanes - 1) * out.stride
        new_lo = out.base + (span_new if out.stride < 0 else 0)
        new_hi = out.base + (span_new if out.stride > 0 else 0)
        if ref_lo < 0 or ref_hi > MASK32 or new_lo < 0 or new_hi > MASK32:
            return False
        k = ((ref_lo >> exp) - r) >> 8
        if (((ref_hi >> exp) - r) >> 8) != k or \
                (((new_lo >> exp) - r) >> 8) != k or \
                (((new_hi >> exp) - r) >> 8) != k:
            return False
        self._write_rd_form(warp, rd, out, meta_val)
        return True

    # ------------------------------------------------------------------
    # Scheduler: barrel issue loop + hot-trace regions
    # ------------------------------------------------------------------

    def run(self, max_cycles):
        sm = self.sm
        if sm.probes is not None:
            # Observed runs take the reference loop so idle probes and
            # issue events appear exactly as in the scalar backend (the
            # handlers themselves stay vectorized).
            return ScalarBackend.run(self, max_cycles)
        from repro.simt.pipeline import KernelAbort, SoftwareTrap

        # Hoisted per-issue state for the quiet issue path below.
        cfg = sm.cfg
        stats = sm.stats
        program = sm.program
        program_len = len(program)
        decoded = sm._decoded
        num_lanes = sm._num_lanes
        all_lanes = sm._all_lanes
        full_mask = sm._full_mask
        enable_cheri = cfg.enable_cheri
        dynamic_pcc = sm._dynamic_pcc
        shared_vrf = cfg.shared_vrf
        single_port = cfg.metadata_srf_single_port
        depth = cfg.pipeline_depth
        gp = sm.gp
        meta = sm.meta
        gp_pool = getattr(gp, "pool", None)
        gp_counts = gp_pool._counts if gp_pool is not None else None
        meta_pool = getattr(meta, "pool", None) if meta is not None else None
        meta_counts = meta_pool._counts if meta_pool is not None else None
        pcc_cache = sm._pcc_cache
        select = sm._select_threads
        check_pcc = sm._check_pcc
        regions = self._regions
        regions_get = regions.get
        hot = self._hot
        hot_get = hot.get
        hot_threshold = self._hot_threshold
        masked_prefix = self._masked_prefix
        advance = sm._advance

        # Issue counters are accumulated in plain ints / a per-instruction
        # list and flushed to the stats object in the finally block below,
        # so the hot loop never hashes an Op enum.  The flush runs on
        # faults and aborts too, keeping stats bit-identical to the
        # per-issue accounting at the point the exception escapes.
        icounts = [0] * program_len
        thread_acc = 0
        gp_occ_acc = 0
        meta_occ_acc = 0
        gp_count_get = gp_counts.get if gp_counts is not None else None
        meta_count_get = meta_counts.get if meta_counts is not None else None

        def issue_quiet(warp, cycle):
            # issue() minus the probe plumbing (None on this path) and
            # with the per-issue constants hoisted into cells;
            # bit-identical stats, faults and scheduling.
            nonlocal thread_acc, gp_occ_acc, meta_occ_acc
            halted = warp.halted
            if True in halted:
                pc, lanes = select(warp)
                if pc is None:
                    warp.done = True
                    warp.ready_at = _FAR_FUTURE
                    return cycle
            else:
                pcs = warp.pcs
                pc = pcs[0]
                if pcs.count(pc) == num_lanes and (
                        not dynamic_pcc or
                        warp.pcc_meta.count(warp.pcc_meta[0]) == num_lanes):
                    lanes = all_lanes
                else:
                    pc, lanes = select(warp)
            index = pc >> 2
            if not 0 <= index < program_len:
                raise SoftwareTrap(
                    "instruction fetch from unmapped pc 0x%x" % pc,
                    thread=warp.index * num_lanes + lanes[0], pc=pc)
            if enable_cheri:
                cached = pcc_cache.get(warp.pcc_meta[lanes[0]])
                if cached is None or not cached[2] or \
                        not (cached[0] <= pc and pc + 4 <= cached[1]):
                    # Populate the decode cache, or raise the precise
                    # PCC fetch fault.
                    check_pcc(warp, pc, lanes)
            if lanes is all_lanes:
                mask = full_mask
            else:
                mask = 0
                for lane in lanes:
                    mask |= 1 << lane
            instr = program[index]
            sm._cycle = cycle
            sm._mem_ready = cycle
            sm._extra_issue = 0
            sm._vec_touch = 0
            handler, aux, falls_through = decoded[index]
            handler(warp, instr, pc, lanes, mask, aux)
            if falls_through:
                if lanes is all_lanes:
                    warp.pcs = [pc + 4] * num_lanes
                else:
                    for lane in lanes:
                        warp.pcs[lane] = pc + 4
                # Hot-trace entry: selected lanes at a region start queue
                # its remaining pre-decoded steps, fed one per issue slot
                # by step_quiet, so the round-robin interleave is
                # unchanged.  Selection, fetch and PCC checks are hoisted
                # here: the cached PCC decode must cover the whole
                # region, which has no control flow, halts or barriers.
                # The regions entry is the promoted sentinel (built once;
                # the promoting visit already enters).
                steps = regions_get(index)
                if steps is None:
                    count = hot_get(index, 0) + 1
                    hot[index] = count
                    if count >= hot_threshold:
                        steps = regions[index] = self._build_region(index)
                if steps:
                    ok = True
                    if enable_cheri:
                        c = pcc_cache.get(warp.pcc_meta[lanes[0]])
                        ok = (c is not None and c[2] and c[0] <= pc and
                              steps[-1][0] + 4 <= c[1])
                    if ok:
                        if lanes is all_lanes:
                            warp.rq = [steps, 1, None, 0]
                        else:
                            # A diverged group queues only the prefix it
                            # is guaranteed to keep winning selection
                            # for, under its lane mask.
                            prefix = masked_prefix(warp, lanes, steps)
                            if prefix >= 2:
                                sub = steps if prefix == len(steps) \
                                    else steps[:prefix]
                                warp.rq = [sub, 1, lanes, mask]
            extra = sm._extra_issue
            if shared_vrf and sm._vec_touch == 3:
                extra += 1
                stats.stall_shared_vrf += 1
            if single_port and instr.op is Op.CSC:
                extra += 1
                stats.stall_csc_operand += 1
            icounts[index] += 1
            thread_acc += len(lanes)
            completion = cycle + depth
            if sm._mem_ready > completion:
                completion = sm._mem_ready
            warp.ready_at = completion
            if halted[0] and all(halted):
                warp.done = True
                warp.ready_at = _FAR_FUTURE
            width = 1 + extra
            if gp_count_get is not None:
                gp_occ_acc += gp_count_get(gp, 0) * width
            if meta_count_get is not None:
                meta_occ_acc += meta_count_get(meta, 0) * width
            return cycle + width

        def step_quiet(warp, cycle, rq):
            # One pre-decoded region step: selection, convergence,
            # fetch-range and PCC checks were hoisted to region entry in
            # issue_quiet and stay valid because regions are
            # straight-line (no control flow, halts or barriers).  The
            # entry mask rides in rq[2]/rq[3] (None = full warp), so
            # masked entries replay the handlers' own partial-mask
            # paths.  Accounting is bit-identical to issue_quiet's.
            nonlocal thread_acc, gp_occ_acc, meta_occ_acc
            steps, i, lanes, mask = rq
            if lanes is None:
                lanes = all_lanes
                mask = full_mask
            pc, instr, handler, aux, is_csc = steps[i]
            sm._cycle = cycle
            sm._mem_ready = cycle
            sm._extra_issue = 0
            sm._vec_touch = 0
            handler(warp, instr, pc, lanes, mask, aux)
            extra = sm._extra_issue
            if shared_vrf and sm._vec_touch == 3:
                extra += 1
                stats.stall_shared_vrf += 1
            if single_port and is_csc:
                extra += 1
                stats.stall_csc_operand += 1
            icounts[pc >> 2] += 1
            thread_acc += len(lanes)
            completion = cycle + depth
            if sm._mem_ready > completion:
                completion = sm._mem_ready
            warp.ready_at = completion
            i += 1
            if i >= len(steps):
                # The loop owns the PC of straight-line steps and moves
                # it once, when the region drains (see the finally below).
                warp.rq = None
                advance(warp, lanes, pc + 4)
            else:
                rq[1] = i
            width = 1 + extra
            if gp_count_get is not None:
                gp_occ_acc += gp_count_get(gp, 0) * width
            if meta_count_get is not None:
                meta_occ_acc += meta_count_get(meta, 0) * width
            return cycle + width

        cycle = 0
        rotation = 0
        warps = sm.warps
        for w in warps:
            w.rq = None  # stale queues from an aborted or prior program
        count = len(warps)
        live = count
        # Each warp's effective ready cycle: _FAR_FUTURE while it is done
        # or waiting at a barrier.  An issue changes only the picked
        # warp's entry, except a barrier arrival (it bumps barrier_waits),
        # which may release other warps: then the list is resynced.
        ready = [_FAR_FUTURE if w.in_barrier else w.ready_at for w in warps]
        barrier_waits = stats.barrier_waits
        try:
            while live:
                if rotation >= count:
                    rotation = 0
                if ready[rotation] <= cycle:
                    i = rotation
                else:
                    first = min(ready)
                    if first > cycle:
                        # Idle slot: jump straight to the next ready cycle.
                        if first == _FAR_FUTURE:
                            raise KernelAbort(
                                "deadlock: all warps blocked on a barrier",
                                cycle)
                        cycle = first
                        continue
                    # The first ready warp in round-robin order.
                    for i in range(rotation + 1, count):
                        if ready[i] <= cycle:
                            break
                    else:
                        for i in range(rotation):
                            if ready[i] <= cycle:
                                break
                warp = warps[i]
                rotation = i + 1
                rq = warp.rq
                if rq is not None:
                    cycle = step_quiet(warp, cycle, rq)
                    ready[i] = warp.ready_at
                else:
                    cycle = issue_quiet(warp, cycle)
                    if stats.barrier_waits == barrier_waits:
                        ready[i] = warp.ready_at
                    else:
                        barrier_waits = stats.barrier_waits
                        ready = [_FAR_FUTURE if w.in_barrier else w.ready_at
                                 for w in warps]
                if cycle > max_cycles:
                    raise KernelAbort("cycle limit exceeded", cycle)
                if warp.done:
                    live -= 1
        except (CapabilityFault, SoftwareTrap):
            if self.fault_cycle is None:
                self.fault_cycle = cycle
            raise
        finally:
            # A warp stopped mid-region gets the PC of its next queued
            # step, as if every step had moved the PC on itself.
            for w in warps:
                rq = w.rq
                if rq is not None:
                    advance(w, all_lanes if rq[2] is None else rq[2],
                            rq[0][rq[1]][0])
            opcode_counts = stats.opcode_counts
            issued = 0
            for idx in range(program_len):
                c = icounts[idx]
                if c:
                    opcode_counts[program[idx].op] += c
                    issued += c
            stats.instrs_issued += issued
            stats.thread_instrs += thread_acc
            stats.gp_vrf_occupancy_integral += gp_occ_acc
            stats.meta_vrf_occupancy_integral += meta_occ_acc
        return cycle

    def _masked_prefix(self, warp, lanes, steps):
        """Longest region prefix the selected group keeps winning.

        While the group drains a straight-line region, the other
        groups' (pc, metadata) keys are frozen — their lanes don't
        execute, and regions contain no halts or barriers — so the
        selection outcome at every queued step is decided by comparing
        the group's static ``(depth, -pc)`` priority along the region
        against the best frozen competitor.  Strict dominance is
        required: ties fall to insertion order, which the drained group
        cannot claim ahead of time.  Step 0 is already won (the caller
        selected this group for the current slot).
        """
        sm = self.sm
        program = sm.program
        program_len = len(program)
        pcs = warp.pcs
        halted = warp.halted
        active = set(lanes)
        other = None
        for lane in range(sm._num_lanes):
            if halted[lane] or lane in active:
                continue
            opc = pcs[lane]
            oi = opc >> 2
            od = program[oi].depth if 0 <= oi < program_len else 0
            pr = (od, -opc)
            if other is None or pr > other:
                other = pr
        n = len(steps)
        if other is None:
            return n  # halted-only remainder: no competing group
        k = 1
        while k < n:
            spc = steps[k][0]
            if (program[spc >> 2].depth, -spc) <= other:
                break
            k += 1
        return k

    def _build_region(self, index):
        """Compile the straight-line run starting at ``index`` into steps
        of (pc, instr, handler, aux, is_csc), or the empty tuple if
        too short (stored as a falsy known-non-region sentinel)."""
        sm = self.sm
        decoded = sm._decoded
        program = sm.program
        steps = []
        i = index
        end = min(len(program), index + self._max_region)
        while i < end:
            # A region ends at a handler that owns the PC (control flow,
            # halts, traps) or may reschedule other warps (a barrier).
            handler, aux, falls_through = decoded[i]
            if not falls_through or \
                    handler.__func__ is ScalarBackend._h_barrier:
                break
            instr = program[i]
            steps.append((i << 2, instr, handler, aux, instr.op is Op.CSC))
            i += 1
        return steps if len(steps) >= 2 else ()


#: scalar handler function -> vectorized handler method name.
_VECTOR_FOR = {
    ScalarBackend._h_int_r: "_v_int_r",
    ScalarBackend._h_int_i: "_v_int_i",
    ScalarBackend._h_lui: "_v_lui",
    ScalarBackend._h_auipc: "_v_auipc",
    ScalarBackend._h_branch: "_v_branch",
    ScalarBackend._h_jal: "_v_jal",
    ScalarBackend._h_jalr: "_v_jalr",
    ScalarBackend._h_float_rr: "_v_float_rr",
    ScalarBackend._h_float_unary: "_v_float_unary",
    ScalarBackend._h_memory: "_v_memory",
    ScalarBackend._h_cget: "_v_cget",
    ScalarBackend._h_crr: "_v_crr",
    ScalarBackend._h_cmod1: "_v_cmod1",
    ScalarBackend._h_cmod2: "_v_cmod2",
    ScalarBackend._h_cimm: "_v_cimm",
}
