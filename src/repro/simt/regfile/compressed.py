"""The compressed register file (SRF + VRF) and its building blocks.

Terminology follows paper Figure 5:

- **SRF** (scalar register file): one entry per architectural vector
  register, holding either a compressed vector (base + stride, or a
  partially-null uniform under the null-value optimisation) or a pointer to
  a VRF slot.
- **VRF** (vector register file): a size-constrained pool of physical slots
  for vectors that cannot be compressed.  A *free stack* tracks unused
  slots; when it runs dry the pipeline spills a resident vector register to
  main memory.

The VRF slot pool may be *shared* between the general-purpose and
capability-metadata register files (paper section 3.2), avoiding
fragmentation between the two.
"""

from collections import OrderedDict


class AccessReport:
    """Side effects of one register-file access the pipeline must cost."""

    __slots__ = ("spills", "reloads")

    def __init__(self, spills=0, reloads=0):
        self.spills = spills    # vector registers written back to main memory
        self.reloads = reloads  # spilled vector registers fetched from memory

    def __eq__(self, other):
        return (isinstance(other, AccessReport)
                and self.spills == other.spills
                and self.reloads == other.reloads)

    def __repr__(self):
        return "AccessReport(spills=%d, reloads=%d)" % (self.spills,
                                                        self.reloads)


class _Scalar:
    """SRF-resident compressed vector: lane i holds base + i*stride."""

    __slots__ = ("base", "stride")

    def __init__(self, base, stride=0):
        self.base = base
        self.stride = stride

    def expand(self, lanes, mask_bits):
        if self.stride == 0:
            return [self.base] * lanes
        return [(self.base + i * self.stride) & mask_bits for i in range(lanes)]


#: Shared form for a never-written register (all lanes zero).  Read-only
#: by the form-access contract, so one instance serves every reader.
_NULL_SCALAR = _Scalar(0, 0)

#: Shared report for accesses with no spill/reload side effects.  Callers
#: only ever read the counters of a returned report, so one clean
#: instance serves every such access without an allocation.
_NO_REPORT = AccessReport()


class _PartialNull:
    """SRF-resident under NVO: some lanes hold ``value``, the rest null (0).

    ``mask`` has bit i set when lane i holds ``value``.
    """

    __slots__ = ("value", "mask")

    def __init__(self, value, mask):
        self.value = value
        self.mask = mask

    def expand(self, lanes, mask_bits):
        return [self.value if (self.mask >> i) & 1 else 0 for i in range(lanes)]


class _Vector:
    """VRF-resident uncompressed vector."""

    __slots__ = ("slot", "values")

    def __init__(self, slot, values):
        self.slot = slot
        self.values = values

    def expand(self, lanes, mask_bits):
        return list(self.values)


class _Spilled:
    """Vector register spilled to main memory (values modelled in place)."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values

    def expand(self, lanes, mask_bits):
        return list(self.values)


class SlotPool:
    """The VRF free stack, possibly shared between register files.

    Tracks which (register file, warp, reg) owns each resident slot so a
    dry free stack can pick a spill victim (FIFO order).
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self._free = list(range(capacity))
        self._residents = OrderedDict()  # (rf, warp, reg) -> slot
        # Per-owner occupancy, maintained incrementally on acquire/release
        # so the pipeline's per-issue occupancy integral is O(1) instead of
        # an O(residents) recount (keyed by register-file identity).
        self._counts = {}

    @property
    def used(self):
        return self.capacity - len(self._free)

    def acquire(self, owner_rf, warp, reg, report):
        """Allocate a slot, spilling the oldest resident if necessary."""
        if not self._free:
            (victim_rf, victim_warp, victim_reg), slot = \
                self._residents.popitem(last=False)
            victim_rf._spill(victim_warp, victim_reg)
            self._counts[victim_rf] -= 1
            report.spills += 1
            self._free.append(slot)
        slot = self._free.pop()
        self._residents[(owner_rf, warp, reg)] = slot
        self._counts[owner_rf] = self._counts.get(owner_rf, 0) + 1
        return slot

    def release(self, owner_rf, warp, reg):
        slot = self._residents.pop((owner_rf, warp, reg), None)
        if slot is not None:
            self._free.append(slot)
            self._counts[owner_rf] -= 1

    def resident_count(self, owner_rf):
        return self._counts.get(owner_rf, 0)


class CompressedRegFile:
    """One compressed register file (general-purpose or metadata).

    ``detect_affine`` enables base+stride compression (general-purpose
    register file).  The metadata register file detects only uniform
    vectors (a stride makes no sense for capability metadata, paper
    section 3.2) and optionally partially-null vectors (``nvo``).
    """

    def __init__(self, lanes, width_bits, pool, detect_affine=True, nvo=False,
                 name="rf"):
        self.lanes = lanes
        self.width_bits = width_bits
        self.value_mask = (1 << width_bits) - 1
        self.pool = pool
        self.detect_affine = detect_affine
        self.nvo = nvo
        self.name = name
        # Keyed by (warp << 8) | reg: register indices are < 256 (RV32 has
        # 32 architectural registers), and a packed int hashes cheaper than
        # a tuple on the per-issue hot path.
        self._entries = {}
        self._wmask = (1 << lanes) - 1
        self.total_spills = 0
        self.total_reloads = 0
        # Value-regularity counters (paper section 2.2): how many written
        # vectors were uniform / affine / partially-null / general.
        self.writes_total = 0
        self.writes_uniform = 0
        self.writes_affine = 0
        self.writes_partial_null = 0

    # -- internals -----------------------------------------------------------

    def _spill(self, warp, reg):
        """Demote a VRF-resident vector to spilled (called by the pool)."""
        key = (warp << 8) | reg
        entry = self._entries.get(key)
        assert isinstance(entry, _Vector), "spill victim must be VRF-resident"
        self._entries[key] = _Spilled(entry.values)
        self.total_spills += 1

    def _reload(self, warp, reg, key, entry):
        """Bring the spilled vector ``entry`` back into the VRF.

        Returns ``(entry, report)``: the now-resident :class:`_Vector` and
        the reload (plus any spill it caused) for the pipeline to cost.
        """
        report = AccessReport()
        slot = self.pool.acquire(self, warp, reg, report)
        entry = _Vector(slot, entry.values)
        self._entries[key] = entry
        report.reloads += 1
        self.total_reloads += 1
        return entry, report

    # -- the pipeline-facing API ----------------------------------------------

    def read_form(self, warp, reg):
        """Read a register as its stored compact form.

        Returns ``(form, report_or_None)`` where ``form`` is the internal
        entry object (:class:`_Scalar`, :class:`_PartialNull` or
        :class:`_Vector`; a spilled vector is reloaded into the VRF
        first).  The caller must treat the form as immutable.  The report
        is ``None`` when the access had no spill/reload side effects to
        cost.
        """
        key = (warp << 8) | reg
        entry = self._entries.get(key)
        if entry is None:
            return _NULL_SCALAR, None
        if type(entry) is _Spilled:
            return self._reload(warp, reg, key, entry)
        return entry, None

    def read(self, warp, reg):
        """Read a full vector.  Returns (values, AccessReport)."""
        form, report = self.read_form(warp, reg)
        return (form.expand(self.lanes, self.value_mask),
                _NO_REPORT if report is None else report)

    def write(self, warp, reg, values, active_mask=None):
        """Write the active lanes of a vector.  Returns an AccessReport.

        ``active_mask`` is a bit mask of lanes to write (None = all): under
        control-flow divergence only the selected threads write back.
        """
        reports = write_register(
            self, None, warp, reg, values, None,
            self._wmask if active_mask is None else active_mask)[1]
        return _NO_REPORT if reports is None else reports[0]

    def peek(self, warp, reg):
        """Side-effect-free read of a full vector (checker/debug use).

        Unlike :meth:`read`, a spilled vector is expanded in place — it is
        not reloaded into the VRF — so no spill traffic, slot-pool state or
        statistic can change.  The lockstep cross-checker depends on this
        to observe register state without perturbing the run.
        """
        entry = self._entries.get((warp << 8) | reg)
        if entry is None:
            return [0] * self.lanes
        return entry.expand(self.lanes, self.value_mask)

    def is_vector_resident(self, warp, reg):
        """True when the register currently occupies a VRF slot."""
        return type(self._entries.get((warp << 8) | reg)) is _Vector

    @property
    def resident_vectors(self):
        """Number of vectors currently occupying VRF slots."""
        return self.pool.resident_count(self)


class PlainRegFile:
    """An uncompressed register file: full per-thread storage, no VRF.

    Models the unoptimised CHERI configuration's metadata register file
    ("value regularity in capability metadata is not detected or
    exploited") and is also handy as a behavioural reference in tests.
    The hardware stores every lane, so nothing here costs or counts;
    the simulator still keeps a uniform vector as ``_Scalar(v, 0)`` and
    any other as a slotless :class:`_Vector`, so the vector tier sees
    the same forms as from a compressed file.
    """

    def __init__(self, lanes, width_bits, name="plain"):
        self.lanes = lanes
        self.width_bits = width_bits
        self.value_mask = (1 << width_bits) - 1
        self.name = name
        self._entries = {}
        self._wmask = (1 << lanes) - 1
        self.total_spills = 0
        self.total_reloads = 0

    def read_form(self, warp, reg):
        """Read a register as its stored form (see
        :meth:`CompressedRegFile.read_form`); never has side effects to
        cost."""
        return self._entries.get((warp << 8) | reg, _NULL_SCALAR), None

    def read(self, warp, reg):
        return self.peek(warp, reg), _NO_REPORT

    def write(self, warp, reg, values, active_mask=None):
        value_mask = self.value_mask
        key = (warp << 8) | reg
        if active_mask is None or active_mask == self._wmask:
            merged = [v & value_mask for v in values]
        else:
            old = self.peek(warp, reg)
            merged = [
                (values[i] & value_mask) if (active_mask >> i) & 1 else old[i]
                for i in range(self.lanes)
            ]
        first = merged[0]
        if merged.count(first) == self.lanes:
            self._entries[key] = _Scalar(first, 0)
        else:
            self._entries[key] = _Vector(None, merged)
        return _NO_REPORT

    def peek(self, warp, reg):
        """Side-effect-free read of a full vector (checker/debug use)."""
        return self._entries.get((warp << 8) | reg, _NULL_SCALAR).expand(
            self.lanes, self.value_mask)

    @property
    def resident_vectors(self):
        return 0


def write_register(gp, meta, warp, reg, value, meta_value, mask):
    """Write register ``reg`` of ``warp``: ``value`` into the
    general-purpose file ``gp`` and ``meta_value`` into the metadata file
    ``meta`` (None without CHERI, then ``meta_value`` is ignored).

    Every register write ends here.  A value is a lane list written
    under the lane bit ``mask``, or, with a full mask only, a compact
    form already classified as the write-path comparator array would
    classify its expansion: a :class:`_Scalar` with canonical signed
    stride (0 when ``lanes == 1``; in [-128, 127]; 0 unless
    ``detect_affine``) or a :class:`_PartialNull` (only when ``nvo``:
    nonzero value, mask neither empty nor full, and the expansion not
    affine-classifiable).  Each compressed file bumps its regularity
    counters, releases a VRF slot its result no longer needs and
    acquires one for an uncompressed result.

    Returns ``(touch, reports)``: ``touch`` has bit 0 set when the value
    now occupies a VRF slot and bit 1 when the metadata does; ``reports``
    is None or the spill/reload reports to cost, the value's first.
    """
    key = (warp << 8) | reg
    touch = 0
    reports = None
    rf = gp
    v = value
    bit = 1
    while True:
        entries = rf._entries
        entry = entries.get(key)
        if type(v) is not list:
            form = v
        else:
            lanes = rf.lanes
            value_mask = rf.value_mask
            form = None
            if mask == rf._wmask:
                merged = list(map(value_mask.__and__, v))
                if type(entry) is _Spilled:
                    # Fully overwritten: the spilled copy is dead, no reload.
                    entry = None
            else:
                if type(entry) is _Spilled:
                    # Partial write needs the old lanes: reload first.
                    entry, report = rf._reload(warp, reg, key, entry)
                    reports = (reports or []) + [report]
                old = _NULL_SCALAR if entry is None else entry
                if type(old) is _Vector:
                    # Merge into the resident lane list in place.  Safe
                    # under the form-access contract: expansions handed
                    # out by read_form are only read within the issuing
                    # instruction, and all of an instruction's reads
                    # precede its writes.
                    merged = old.values
                elif type(old) is _Scalar and old.stride == 0 and \
                        v.count(old.base) == lanes:
                    # Every lane already holds the written value (e.g. a
                    # masked null write over null metadata): the merge is
                    # the uniform register itself.
                    form = old
                else:
                    merged = old.expand(lanes, value_mask)
                if form is None:
                    for i in range(lanes):
                        if (mask >> i) & 1:
                            merged[i] = v[i] & value_mask
            if form is None:
                # The write-path comparator array: find a compact form.
                first = merged[0]
                if merged.count(first) == lanes:
                    form = _Scalar(first, 0)
                else:
                    if rf.detect_affine and lanes >= 2:
                        stride = (merged[1] - first) & value_mask
                        # Lane 1 matches by construction; walk the rest.
                        expect = merged[1]
                        for i in range(2, lanes):
                            expect = (expect + stride) & value_mask
                            if merged[i] != expect:
                                break
                        else:
                            # Keep strides small enough for a narrow SRF
                            # stride field.
                            if stride >> (rf.width_bits - 1):
                                stride -= 1 << rf.width_bits
                            if -128 <= stride <= 127:
                                form = _Scalar(first, stride)
                    if form is None and rf.nvo:
                        nonzero = {x for x in merged if x != 0}
                        if len(nonzero) == 1:
                            nz = nonzero.pop()
                            nz_mask = 0
                            for i, x in enumerate(merged):
                                if x == nz:
                                    nz_mask |= 1 << i
                            form = _PartialNull(nz, nz_mask)
        rf.writes_total += 1
        if form is not None:
            if type(form) is _Scalar:
                if form.stride:
                    rf.writes_affine += 1
                else:
                    rf.writes_uniform += 1
            else:
                rf.writes_partial_null += 1
            if type(entry) is _Vector:
                rf.pool.release(rf, warp, reg)
            entries[key] = form
        else:
            touch |= bit
            if type(entry) is _Vector:
                entry.values = merged
            else:
                # A new slot: a reloaded entry is already resident.
                report = AccessReport()
                entries[key] = _Vector(
                    rf.pool.acquire(rf, warp, reg, report), merged)
                if report.spills:
                    reports = (reports or []) + [report]
        if meta is None:
            return touch, reports
        if type(meta) is PlainRegFile:
            # Stores every lane: nothing to count or cost.
            if type(meta_value) is list:
                meta.write(warp, reg, meta_value, mask)
            else:
                meta._entries[key] = meta_value
            return touch, reports
        # Second pass: the same commit into the metadata file, then stop.
        rf = meta
        v = meta_value
        bit = 2
        meta = None
