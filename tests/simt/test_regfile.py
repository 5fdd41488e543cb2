"""Tests for the compressed register file (SRF/VRF, NVO, shared pool)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simt.regfile import (
    AccessReport,
    CompressedRegFile,
    PlainRegFile,
    SlotPool,
    write_register,
)
from repro.simt.regfile.compressed import (
    _PartialNull,
    _Scalar,
    _Spilled,
    _Vector,
)

LANES = 8
FULL_MASK = (1 << LANES) - 1


def make_rf(capacity=16, detect_affine=True, nvo=False, pool=None):
    pool = pool or SlotPool(capacity)
    return CompressedRegFile(LANES, 32, pool, detect_affine=detect_affine,
                             nvo=nvo)


class TestCompression:
    def test_default_register_is_uniform_zero(self):
        rf = make_rf()
        values, report = rf.read(0, 5)
        assert values == [0] * LANES
        assert report.spills == 0 and report.reloads == 0

    def test_uniform_vector_stays_in_srf(self):
        rf = make_rf()
        rf.write(0, 5, [42] * LANES)
        assert not rf.is_vector_resident(0, 5)
        assert rf.read(0, 5)[0] == [42] * LANES

    def test_affine_vector_stays_in_srf(self):
        rf = make_rf()
        values = [100 + 4 * i for i in range(LANES)]
        rf.write(0, 5, values)
        assert not rf.is_vector_resident(0, 5)
        assert rf.read(0, 5)[0] == values

    def test_negative_stride_affine(self):
        rf = make_rf()
        values = [(1000 - 3 * i) & 0xFFFFFFFF for i in range(LANES)]
        rf.write(0, 1, values)
        assert not rf.is_vector_resident(0, 1)
        assert rf.read(0, 1)[0] == values

    def test_huge_stride_goes_to_vrf(self):
        rf = make_rf()
        values = [(i * 1000) & 0xFFFFFFFF for i in range(LANES)]
        rf.write(0, 5, values)
        assert rf.is_vector_resident(0, 5)
        assert rf.read(0, 5)[0] == values

    def test_general_vector_goes_to_vrf(self):
        rf = make_rf()
        values = [7, 1, 9, 3, 5, 2, 8, 0]
        rf.write(0, 5, values)
        assert rf.is_vector_resident(0, 5)
        assert rf.read(0, 5)[0] == values

    def test_uniform_detection_disabled_affine(self):
        rf = make_rf(detect_affine=False)
        values = [100 + i for i in range(LANES)]
        rf.write(0, 5, values)
        assert rf.is_vector_resident(0, 5)
        rf.write(0, 6, [9] * LANES)
        assert not rf.is_vector_resident(0, 6)

    def test_vector_recompresses_on_uniform_overwrite(self):
        rf = make_rf()
        rf.write(0, 5, [7, 1, 9, 3, 5, 2, 8, 0])
        assert rf.pool.used == 1
        rf.write(0, 5, [3] * LANES)
        assert rf.pool.used == 0
        assert not rf.is_vector_resident(0, 5)

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                    min_size=LANES, max_size=LANES))
    @settings(max_examples=200)
    def test_write_read_roundtrip(self, values):
        rf = make_rf()
        rf.write(1, 7, values)
        assert rf.read(1, 7)[0] == values

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.integers(min_value=-128, max_value=127))
    @settings(max_examples=200)
    def test_affine_roundtrip_compresses(self, base, stride):
        rf = make_rf()
        values = [(base + i * stride) & 0xFFFFFFFF for i in range(LANES)]
        rf.write(0, 3, values)
        assert rf.read(0, 3)[0] == values
        assert not rf.is_vector_resident(0, 3)


class TestMaskedWrites:
    def test_partial_write_merges_lanes(self):
        rf = make_rf()
        rf.write(0, 5, [10] * LANES)
        rf.write(0, 5, [99] * LANES, active_mask=0b00000001)
        assert rf.read(0, 5)[0] == [99, 10, 10, 10, 10, 10, 10, 10]

    def test_divergent_write_decompresses(self):
        rf = make_rf()
        rf.write(0, 5, [10] * LANES)
        assert not rf.is_vector_resident(0, 5)
        rf.write(0, 5, [99] * LANES, active_mask=0b00001111)
        # Two different uniform halves: not totally scalarisable.
        assert rf.is_vector_resident(0, 5)

    def test_partial_write_restoring_uniformity_recompresses(self):
        rf = make_rf()
        rf.write(0, 5, [10, 10, 10, 10, 99, 99, 99, 99])
        assert rf.is_vector_resident(0, 5)
        rf.write(0, 5, [10] * LANES, active_mask=0b11110000)
        assert not rf.is_vector_resident(0, 5)


class TestSpilling:
    def test_pool_exhaustion_spills_fifo(self):
        rf = make_rf(capacity=2)
        general = [[i * 13 + j * j for j in range(LANES)] for i in range(3)]
        rf.write(0, 1, general[0])
        rf.write(0, 2, general[1])
        report = rf.write(0, 3, general[2])
        assert report.spills == 1
        assert rf.total_spills == 1
        # Oldest (reg 1) was the victim; its value must survive.
        values, report = rf.read(0, 1)
        assert values == [v & 0xFFFFFFFF for v in general[0]]
        assert report.reloads == 1

    def test_reload_can_cascade_spill(self):
        rf = make_rf(capacity=1)
        a = [3, 1, 4, 1, 5, 9, 2, 6]
        b = [2, 7, 1, 8, 2, 8, 1, 8]
        rf.write(0, 1, a)
        rf.write(0, 2, b)          # spills reg 1
        values, report = rf.read(0, 1)  # reload spills reg 2
        assert values == a
        assert report.reloads == 1 and report.spills == 1
        assert rf.read(0, 2)[0] == b

    def test_full_overwrite_of_spilled_register_skips_reload(self):
        rf = make_rf(capacity=1)
        rf.write(0, 1, [3, 1, 4, 1, 5, 9, 2, 6])
        rf.write(0, 2, [2, 7, 1, 8, 2, 8, 1, 8])  # spills reg 1
        report = rf.write(0, 1, [5] * LANES)       # dead spilled copy
        assert report.reloads == 0
        assert rf.read(0, 1)[0] == [5] * LANES

    def test_partial_overwrite_of_spilled_register_reloads(self):
        rf = make_rf(capacity=1)
        a = [3, 1, 4, 1, 5, 9, 2, 6]
        rf.write(0, 1, a)
        rf.write(0, 2, [2, 7, 1, 8, 2, 8, 1, 8])  # spills reg 1
        report = rf.write(0, 1, [0] * LANES, active_mask=0b1)
        assert report.reloads == 1
        assert rf.read(0, 1)[0] == [0] + a[1:]

    def test_resident_count_tracks_pool(self):
        rf = make_rf(capacity=8)
        for reg in range(4):
            rf.write(0, reg + 1, [reg, 99, 5, 1, 2, 3, 4, reg])
        assert rf.resident_vectors == 4


class TestNullValueOptimisation:
    def make_nvo(self, capacity=8):
        return make_rf(capacity=capacity, detect_affine=False, nvo=True)

    def test_partially_null_uniform_stays_in_srf(self):
        rf = self.make_nvo()
        meta = 0xABCD0001
        rf.write(0, 5, [meta] * LANES)
        rf.write(0, 5, [0] * LANES, active_mask=0b00001111)
        assert not rf.is_vector_resident(0, 5)
        assert rf.read(0, 5)[0] == [0, 0, 0, 0, meta, meta, meta, meta]

    def test_null_overwritten_with_uniform_stays(self):
        rf = self.make_nvo()
        meta = 0x1234
        rf.write(0, 5, [meta] * LANES, active_mask=0b11000000)
        assert not rf.is_vector_resident(0, 5)
        assert rf.read(0, 5)[0] == [0] * 6 + [meta] * 2

    def test_two_distinct_values_need_vrf(self):
        rf = self.make_nvo()
        rf.write(0, 5, [0x1111] * LANES, active_mask=0b00001111)
        rf.write(0, 5, [0x2222] * LANES, active_mask=0b11110000)
        assert rf.is_vector_resident(0, 5)

    def test_without_nvo_partial_null_needs_vrf(self):
        rf = make_rf(detect_affine=False, nvo=False)
        rf.write(0, 5, [0xABCD] * LANES)
        rf.write(0, 5, [0] * LANES, active_mask=0b00001111)
        assert rf.is_vector_resident(0, 5)

    def test_nvo_recompression_from_vrf(self):
        rf = self.make_nvo()
        rf.write(0, 5, [1, 2, 3, 4, 5, 6, 7, 8])
        assert rf.is_vector_resident(0, 5)
        rf.write(0, 5, [0, 7, 0, 7, 0, 0, 0, 7])
        assert not rf.is_vector_resident(0, 5)


class TestSharedPool:
    def test_two_register_files_share_capacity(self):
        pool = SlotPool(2)
        gp = CompressedRegFile(LANES, 32, pool, name="gp")
        meta = CompressedRegFile(LANES, 33, pool, detect_affine=False, name="meta")
        gp.write(0, 1, [7, 1, 9, 3, 5, 2, 8, 0])
        gp.write(0, 2, [6, 2, 8, 4, 4, 3, 7, 1])
        report = meta.write(0, 1, [1, 2, 3, 4, 5, 6, 7, 8])
        assert report.spills == 1
        assert gp.total_spills == 1  # victim came from the *other* file

    def test_separate_pools_fragment(self):
        # Without sharing, one full pool spills even though the other is empty.
        gp = make_rf(capacity=1)
        meta = make_rf(capacity=1, detect_affine=False)
        gp.write(0, 1, [7, 1, 9, 3, 5, 2, 8, 0])
        report = gp.write(0, 2, [6, 2, 8, 4, 4, 3, 7, 1])
        assert report.spills == 1
        assert meta.pool.used == 0


class TestWriteRegularityCounters:
    def test_uniform_and_affine_classified(self):
        rf = make_rf()
        rf.write(0, 1, [5] * LANES)                       # uniform
        rf.write(0, 2, [10 + i for i in range(LANES)])    # affine
        rf.write(0, 3, [7, 1, 9, 3, 5, 2, 8, 0])          # general
        assert rf.writes_total == 3
        assert rf.writes_uniform == 1
        assert rf.writes_affine == 1

    def test_partial_null_classified(self):
        rf = make_rf(detect_affine=False, nvo=True)
        rf.write(0, 1, [9] * LANES, active_mask=0b1111)
        assert rf.writes_partial_null == 1

    def test_counters_accumulate(self):
        rf = make_rf()
        for _ in range(10):
            rf.write(0, 1, [3] * LANES)
        assert rf.writes_total == 10
        assert rf.writes_uniform == 10


def _state(rf, warp, reg):
    """Everything a write can change: the stored entry (type and fields),
    the regularity counters and the VRF occupancy."""
    entry = rf._entries.get((warp << 8) | reg)
    fields = {name: getattr(entry, name)
              for name in getattr(entry, "__slots__", ())}
    return (type(entry).__name__, fields, rf.writes_total,
            rf.writes_uniform, rf.writes_affine, rf.writes_partial_null,
            rf.pool.used, rf.resident_vectors)


GENERAL = [7, 1, 9, 3, 5, 2, 8, 0]


def _reference_form(kind, values):
    """The compact form the comparator array must find for a full vector,
    straight from the definitions: uniform; affine with a stride that
    fits the 8-bit SRF stride field (data file only); partially null
    (NVO metadata file only); else None (VRF)."""
    if values.count(values[0]) == LANES:
        return _Scalar(values[0], 0)
    if kind == "gp":
        stride = values[1] - values[0]
        stride = (stride + (1 << 31)) % (1 << 32) - (1 << 31)
        if -128 <= stride <= 127 and all(
                (values[0] + i * stride) % (1 << 32) == v
                for i, v in enumerate(values)):
            return _Scalar(values[0], stride)
        return None
    nonzero = set(values) - {0}
    if len(nonzero) == 1:
        value = nonzero.pop()
        return _PartialNull(value, sum(1 << i for i, v in enumerate(values)
                                       if v == value))
    return None


class TestWriteFormContract:
    """A full-mask ``write`` of a vector and a ``write_register`` of its
    compact form commit identically: same entry, counters and VRF."""

    @staticmethod
    def _make(kind):
        if kind == "gp":
            return make_rf(capacity=1)
        return CompressedRegFile(LANES, 33, SlotPool(1),
                                 detect_affine=False, nvo=True)

    @pytest.mark.parametrize("kind,values", [
        ("gp", [5] * LANES),
        ("gp", [100 + 4 * i for i in range(LANES)]),
        ("gp", [(1000 - 3 * i) & 0xFFFFFFFF for i in range(LANES)]),
        ("meta", [0] * LANES),
        ("meta", [(1 << 32) | 0xABCD] * LANES),
        ("meta", [0, 7, 0, 7, 0, 0, 0, 7]),
    ], ids=["uniform", "affine", "negative_stride", "null", "tagged",
            "partial_null"])
    @pytest.mark.parametrize("prior", ["empty", "compact", "resident",
                                       "spilled"])
    def test_write_and_write_form_commit_alike(self, kind, values, prior):
        by_values, by_form = self._make(kind), self._make(kind)
        for rf in (by_values, by_form):
            if prior == "compact":
                rf.write(0, 5, [3] * LANES)
            elif prior in ("resident", "spilled"):
                rf.write(0, 5, GENERAL)
            if prior == "spilled":
                rf.write(0, 6, [g + 1 for g in GENERAL])  # evicts reg 5
        form = _reference_form(kind, values)
        assert form is not None
        assert by_values.write(0, 5, values) == AccessReport()
        assert write_register(by_form, None, 0, 5, form, None,
                              FULL_MASK) == (0, None)
        assert _state(by_values, 0, 5) == _state(by_form, 0, 5)
        assert _state(by_values, 0, 5)[:2] == (type(form).__name__, {
            name: getattr(form, name) for name in form.__slots__})
        assert by_form.read(0, 5)[0] == values
        if prior == "resident":
            # The overwritten vector released its VRF slot.
            assert by_form.pool.used == 0
            assert not by_form.is_vector_resident(0, 5)


def _rf_pair(meta_kind):
    """A data file and a metadata file as the SM builds them: a plain
    metadata file, a compressed one with its own VRF, or one sharing the
    data file's VRF.  Pools are tiny so writes spill."""
    gp_pool = SlotPool(2 if meta_kind == "shared" else 1)
    gp = CompressedRegFile(LANES, 32, gp_pool, name="gp")
    if meta_kind == "plain":
        return gp, PlainRegFile(LANES, 33, name="meta")
    pool = gp_pool if meta_kind == "shared" else SlotPool(1)
    return gp, CompressedRegFile(LANES, 33, pool, detect_affine=False,
                                 nvo=True, name="meta")


def _pair_state(gp, meta):
    """Entries, counters and VRF state of both files of a pair,
    including the slot pools' FIFO victim order."""
    state = []
    for rf in (gp, meta):
        entries = {key: (type(e).__name__,
                         {n: getattr(e, n) for n in e.__slots__})
                   for key, e in rf._entries.items()}
        pool = getattr(rf, "pool", None)
        state.append((
            entries, rf.total_spills, rf.total_reloads,
            getattr(rf, "writes_total", None),
            getattr(rf, "writes_uniform", None),
            getattr(rf, "writes_affine", None),
            getattr(rf, "writes_partial_null", None),
            None if pool is None else [
                (owner.name, w, r) for owner, w, r in pool._residents]))
    return state


TAGGED = (1 << 32) | 0xABCD
#: (value lanes, metadata lanes) written to the pair.
JOINT_VALUES = {
    "uniform": ([5] * LANES, [TAGGED] * LANES),
    "affine": ([100 + 4 * i for i in range(LANES)], [0] * LANES),
    "general": (GENERAL, [TAGGED + i for i in range(LANES)]),
    "partial_null": ([9, 8, 7, 6, 5, 4, 3, 2], [0, 7, 0, 7, 0, 0, 0, 7]),
}


class TestJointWriteContract:
    """``write_register`` on a (data, metadata) pair commits exactly as
    the per-file sequence it replaces: a write of the data file alone,
    ``is_vector_resident`` on it, then the same on the metadata file —
    same entries, counters, VRF victim order, touch bits and reports
    (data file's first)."""

    @staticmethod
    def _prepare(gp, meta, prior):
        for rf in (gp, meta):
            if prior == "compact":
                rf.write(0, 5, [3] * LANES)
            elif prior in ("resident", "spilled"):
                rf.write(0, 5, [g + rf.width_bits for g in GENERAL])
        if prior == "spilled":
            for rf in (gp, meta):
                rf.write(0, 6, [g + 1 for g in GENERAL])  # evicts reg 5

    @staticmethod
    def _sequential(gp, meta, value, meta_value, mask):
        touch, reports = 0, []
        for bit, rf, v in ((1, gp, value), (2, meta, meta_value)):
            if type(v) is not list:
                v = v.expand(LANES, rf.value_mask)  # classifies alike
            report = rf.write(0, 5, v, mask)
            if report.spills or report.reloads:
                reports.append(report)
            if type(rf) is CompressedRegFile and \
                    rf.is_vector_resident(0, 5):
                touch |= bit
        return touch, reports or None

    @pytest.mark.parametrize("prior", ["empty", "compact", "resident",
                                       "spilled"])
    @pytest.mark.parametrize("meta_kind,written,how", [
        (meta_kind, written, how)
        for meta_kind in ("plain", "compressed", "shared")
        for written in sorted(JOINT_VALUES)
        for how in ("full", "half", "one_lane", "forms")
        # Only lists classify as general; a plain (unoptimised) metadata
        # file is never handed a partially-null form.
        if how != "forms" or (written != "general" and not (
            meta_kind == "plain" and written == "partial_null"))])
    def test_matches_per_file_sequence(self, meta_kind, prior, written, how):
        values, metas = JOINT_VALUES[written]
        mask = {"half": 0b00001111, "one_lane": 0b1}.get(how, FULL_MASK)
        if how == "forms":
            values = _reference_form("gp", values)
            metas = _reference_form("meta", metas)
        joint, sequential = _rf_pair(meta_kind), _rf_pair(meta_kind)
        for pair in (joint, sequential):
            self._prepare(*pair, prior)
        got = write_register(*joint, 0, 5, values, metas, mask)
        want = self._sequential(*sequential, values, metas, mask)
        assert got == want
        assert _pair_state(*joint) == _pair_state(*sequential)

    def test_reports_come_data_file_first(self):
        # One shared slot: the data write spills an older vector, the
        # metadata write then spills the data vector just written.
        pool = SlotPool(1)
        gp = CompressedRegFile(LANES, 32, pool, name="gp")
        meta = CompressedRegFile(LANES, 33, pool, detect_affine=False,
                                 name="meta")
        gp.write(0, 1, GENERAL)
        touch, reports = write_register(gp, meta, 0, 5, GENERAL,
                                        [TAGGED + i for i in range(LANES)],
                                        FULL_MASK)
        assert touch == 3
        assert reports == [AccessReport(spills=1), AccessReport(spills=1)]
        assert [e.__class__ for e in (gp._entries[5], meta._entries[5])] \
            == [_Spilled, _Vector]

    def test_without_metadata_file(self):
        gp = make_rf(capacity=1)
        assert write_register(gp, None, 0, 5, GENERAL, None,
                              FULL_MASK) == (1, None)
        assert write_register(gp, None, 0, 5, _Scalar(4, 0), None,
                              FULL_MASK) == (0, None)
        assert gp.pool.used == 0 and gp.writes_uniform == 1


class TestPlainRegFile:
    """The uncompressed file stores every lane but hands out the same
    forms as a compressed one: a uniform vector as ``_Scalar(v, 0)``,
    any other as a slotless ``_Vector``."""

    def test_roundtrip(self):
        rf = PlainRegFile(LANES, 33)
        rf.write(0, 5, [1 << 32] * LANES)
        assert rf.read(0, 5)[0] == [1 << 32] * LANES
        form, report = rf.read_form(0, 5)
        assert type(form) is _Scalar and report is None
        assert (form.base, form.stride) == (1 << 32, 0)

    def test_masked_write(self):
        rf = PlainRegFile(LANES, 32)
        rf.write(0, 5, [5] * LANES)
        rf.write(0, 5, [9] * LANES, active_mask=0b1)
        assert rf.read(0, 5)[0] == [9] + [5] * 7
        assert type(rf.read_form(0, 5)[0]) is _Vector
        rf.write(0, 5, [5] * LANES, active_mask=0b1)
        assert type(rf.read_form(0, 5)[0]) is _Scalar
        assert rf.resident_vectors == 0

    def test_never_spills(self):
        rf = PlainRegFile(LANES, 33)
        for reg in range(32):
            rf.write(0, reg, [reg * 17 + i for i in range(LANES)])
        assert rf.total_spills == 0
        assert rf.resident_vectors == 0
        form, _ = rf.read_form(0, 3)
        assert type(form) is _Vector and form.slot is None
        assert form.values == [3 * 17 + i for i in range(LANES)]


class TestWidthMasking:
    def test_values_masked_to_width(self):
        rf = CompressedRegFile(LANES, 33, SlotPool(4), detect_affine=False)
        rf.write(0, 1, [(1 << 40) | 5] * LANES)
        assert rf.read(0, 1)[0] == [((1 << 40) | 5) & ((1 << 33) - 1)] * LANES
