"""Scalar/vector backend equivalence at the SM level.

The vector backend (``SMConfig.backend == "vector"``) must be
bit-identical to the scalar reference backend — same statistics, same
memory effects, same faults — including the awkward corners these tests
pin down:

- instruction slots whose active-lane set shrinks to a single lane or
  whose static instructions never issue at all (a fully-taken branch);
- divergence and reconvergence across a warp, including the hot-trace
  region machinery, entered by converged warps and under partial masks;
- capability faults raised by a strict subset of a warp's lanes, also
  from inside a fused region (full-warp or masked);
- wide warps (``num_lanes == 16``), twice the evaluation geometry's
  lane count.
"""

from dataclasses import asdict, replace

import pytest

from repro.cheri import root_capability
from repro.isa.instructions import Instr, Op
from repro.simt import KernelAbort, SMConfig, StreamingMultiprocessor
from repro.simt.backend import BACKEND_NAMES, create_backend
from repro.simt.backend.vector import VectorBackend
from repro.simt.config import HEAP_BASE

from tests.simt.kernels import branch_ladder, frontier_loop


#: Test mode -> configuration: ``"cheri"`` is the unoptimised CHERI
#: configuration (uncompressed metadata file), ``"purecap"`` the
#: optimised one.
_FACTORIES = {"baseline": SMConfig.baseline, "cheri": SMConfig.cheri,
              "purecap": SMConfig.cheri_optimised}


def _config(mode, backend, num_warps, num_lanes, **kwargs):
    return _FACTORIES[mode](num_warps=num_warps, num_lanes=num_lanes,
                            **kwargs).with_(backend=backend)


@pytest.fixture
def eager_regions(monkeypatch):
    """Lower the region threshold so the tiny test programs form fused
    regions within a handful of loop iterations."""
    monkeypatch.setattr(VectorBackend, "_hot_threshold", 4)


@pytest.fixture
def masked_entries(monkeypatch):
    """Record every masked region entry the vector backend makes.

    ``_masked_prefix`` is consulted only when a diverged thread group
    sits at a region start; a prefix of at least two steps is entered."""
    prefixes = []
    original = VectorBackend._masked_prefix

    def spy(self, warp, lanes, steps):
        prefix = original(self, warp, lanes, steps)
        prefixes.append(prefix)
        return prefix

    monkeypatch.setattr(VectorBackend, "_masked_prefix", spy)
    return prefixes


#: (num_warps, num_lanes): a narrow warp and a wide (16-lane) one.
WARP_SHAPES = [(2, 4), (1, 16)]


def _formed(backend):
    """Start PCs of the fused regions the vector backend formed."""
    return {index << 2 for index, steps in backend._regions.items()
            if steps}


def _run_one(backend, prog, mode="baseline", num_warps=2, num_lanes=4,
             init_regs=None, init_cap_regs=None, setup=None, **kwargs):
    """One backend's view of a launch: stats, memory, tags, fault, and
    the backend itself."""
    sm = StreamingMultiprocessor(
        _config(mode, backend, num_warps, num_lanes, **kwargs))
    if setup is not None:
        setup(sm)
    fault = None
    try:
        sm.launch(prog, init_regs=init_regs, init_cap_regs=init_cap_regs)
    except KernelAbort as abort:
        cause = abort.cause
        fault = (type(cause).__name__, str(cause))
    return {
        "stats": asdict(sm.stats),
        "words": dict(sm.memory._words),
        "tags": set(sm.memory._tags),
        "fault": fault,
        "backend": sm.backend,
    }


def run_both(prog, **kwargs):
    """Run on both backends and assert every observable matches.

    Returns the scalar observation, so tests can make additional
    assertions about what actually happened, and the vector backend,
    so they can check which fused regions formed.
    """
    scalar = _run_one("scalar", prog, **kwargs)
    vector = _run_one("vector", prog, **kwargs)
    assert scalar["fault"] == vector["fault"]
    assert scalar["words"] == vector["words"]
    assert scalar["tags"] == vector["tags"]
    assert scalar["stats"] == vector["stats"]
    return scalar, vector["backend"]


def _faulting_step(backend):
    """``(pc, lanes)`` of the queued region step the first warp was
    executing when a fault escaped (``lanes`` is None for a full-warp
    entry), or None when it faulted outside a region."""
    rq = backend.sm.warps[0].rq
    if rq is None:
        return None
    steps, i, lanes, _ = rq
    return steps[i][0], lanes


def heap_slots(num_threads, base=HEAP_BASE):
    return [base + 4 * t for t in range(num_threads)]


class TestMaskedIssueSlots:
    def test_branch_taken_by_all_lanes_skips_a_block(self):
        # rs1 == rs2 for every lane: the fall-through block has zero
        # active lanes and must never issue on either backend.
        prog = [
            Instr(Op.BEQ, rs1=0, rs2=0, imm=12),
            Instr(Op.ADDI, rd=7, rs1=0, imm=99, depth=1),   # never issues
            Instr(Op.SW, rs1=8, rs2=7, imm=0, depth=1),     # never issues
            Instr(Op.SW, rs1=8, rs2=6, imm=0),
            Instr(Op.HALT),
        ]
        obs, _ = run_both(
            prog,
            init_regs={6: [41] * 8, 8: heap_slots(8)},
        )
        assert obs["words"][HEAP_BASE >> 2] == 41
        # The skipped block contributed nothing.
        assert obs["stats"]["opcode_counts"].get(Op.ADDI, 0) == 0

    def test_single_active_lane_then_empty_warp(self):
        # Lanes 0..2 halt immediately; lane 3 runs on alone, so every
        # subsequent slot issues with one active lane, then the warp
        # drains to zero runnable lanes.
        prog = [
            Instr(Op.BEQ, rs1=5, rs2=6, imm=8),
            Instr(Op.HALT),                                  # lanes != 3
            Instr(Op.ADDI, rd=7, rs1=7, imm=5, depth=1),
            Instr(Op.SW, rs1=8, rs2=7, imm=0, depth=1),
            Instr(Op.HALT),
        ]
        lanes = 4
        obs, _ = run_both(
            prog,
            num_warps=2, num_lanes=lanes,
            init_regs={5: [t % lanes for t in range(2 * lanes)],
                       6: [3] * (2 * lanes),
                       8: heap_slots(2 * lanes)},
        )
        for warp in range(2):
            slot = (HEAP_BASE + 4 * (warp * lanes + 3)) >> 2
            assert obs["words"][slot] == 5


class TestDivergenceReconvergence:
    def test_even_odd_split_and_rejoin(self):
        # Even lanes double, odd lanes negate; everyone rejoins for the
        # store.  Exercises select/reconverge on both backends and, via
        # the rejoined tail, the vector backend's converged fast path.
        prog = [
            Instr(Op.ANDI, rd=7, rs1=5, imm=1),
            Instr(Op.BNE, rs1=7, rs2=0, imm=12),
            Instr(Op.ADD, rd=9, rs1=5, rs2=5, depth=1),      # even
            Instr(Op.JAL, rd=0, imm=8, depth=1),
            Instr(Op.SUB, rd=9, rs1=0, rs2=5, depth=1),      # odd
            Instr(Op.SW, rs1=8, rs2=9, imm=0),
            Instr(Op.HALT),
        ]
        lanes = 4
        threads = 2 * lanes
        obs, _ = run_both(
            prog,
            num_warps=2, num_lanes=lanes,
            init_regs={5: list(range(threads)), 8: heap_slots(threads)},
        )
        for t in range(threads):
            expected = 2 * t if t % 2 == 0 else (-t) & 0xFFFFFFFF
            assert obs["words"][(HEAP_BASE + 4 * t) >> 2] == expected

    def test_divergent_loop_trip_counts(self):
        # Per-lane loop trip counts (tid iterations): lanes fall out of
        # the loop one by one, reconverging at the tail store.
        prog = [
            Instr(Op.ADDI, rd=9, rs1=0, imm=0),
            Instr(Op.BGE, rs1=9, rs2=5, imm=12),             # loop head
            Instr(Op.ADDI, rd=9, rs1=9, imm=1, depth=1),
            Instr(Op.JAL, rd=0, imm=-8, depth=1),
            Instr(Op.SW, rs1=8, rs2=9, imm=0),
            Instr(Op.HALT),
        ]
        lanes = 4
        threads = 2 * lanes
        obs, _ = run_both(
            prog,
            num_warps=2, num_lanes=lanes,
            init_regs={5: list(range(threads)), 8: heap_slots(threads)},
        )
        for t in range(threads):
            assert obs["words"][(HEAP_BASE + 4 * t) >> 2] == t


class TestFaultingLaneSubsets:
    def _oob_case(self, bad_lanes, num_lanes=4):
        cap, exact = root_capability().set_bounds(HEAP_BASE, 4 * num_lanes)
        assert exact
        caps = []
        for t in range(num_lanes):
            addr = HEAP_BASE + 4 * t
            if t in bad_lanes:
                addr = HEAP_BASE + 4 * num_lanes  # one past the end
            caps.append(cap.set_addr(addr))
        prog = [Instr(Op.CLW, rd=7, rs1=6, imm=0), Instr(Op.HALT)]
        return prog, {6: caps}

    @pytest.mark.parametrize("bad_lanes", [(3,), (0,), (1, 2)])
    def test_out_of_bounds_lane_subset_faults_identically(self, bad_lanes):
        prog, caps = self._oob_case(set(bad_lanes))
        obs, _ = run_both(prog, mode="purecap", num_warps=1,
                       init_cap_regs=caps)
        assert obs["fault"] is not None
        assert obs["fault"][0] == "BoundsViolation"

    def test_all_lanes_in_bounds_is_clean(self):
        prog, caps = self._oob_case(set())
        obs, _ = run_both(prog, mode="purecap", num_warps=1,
                       init_cap_regs=caps)
        assert obs["fault"] is None

    def test_store_fault_leaves_identical_memory(self):
        # A faulting masked store must leave memory in the same state on
        # both backends (the fault is precise: no partial effects after
        # the faulting slot).
        num_lanes = 4
        cap, exact = root_capability().set_bounds(HEAP_BASE, 4 * num_lanes)
        assert exact
        caps = [cap.set_addr(HEAP_BASE + 8 * t) for t in range(num_lanes)]
        prog = [Instr(Op.CSW, rs1=6, rs2=5, imm=0), Instr(Op.HALT)]
        obs, _ = run_both(prog, mode="purecap", num_warps=1,
                       init_regs={5: [7] * num_lanes}, init_cap_regs={6: caps})
        assert obs["fault"] is not None
        assert obs["fault"][0] == "BoundsViolation"


class TestWideSMNumpyPath:
    """16-lane warps: full-mask and masked ALU ops on wide warps."""

    def test_alu_mix_sixteen_lanes(self):
        lanes = 16
        prog = [
            Instr(Op.ADD, rd=9, rs1=5, rs2=6),
            Instr(Op.SLL, rd=10, rs1=9, rs2=7),
            Instr(Op.XOR, rd=11, rs1=10, rs2=5),
            Instr(Op.SUB, rd=12, rs1=11, rs2=6),
            Instr(Op.SW, rs1=8, rs2=12, imm=0),
            Instr(Op.HALT),
        ]
        obs, _ = run_both(
            prog,
            num_warps=1, num_lanes=lanes,
            init_regs={5: list(range(lanes)),
                       6: [0x01010101 * (t % 3) for t in range(lanes)],
                       7: [t % 5 for t in range(lanes)],
                       8: heap_slots(lanes)},
        )
        for t in range(lanes):
            a, b, sh = t, 0x01010101 * (t % 3), t % 5
            value = ((((a + b) & 0xFFFFFFFF) << sh) & 0xFFFFFFFF) ^ a
            value = (value - b) & 0xFFFFFFFF
            assert obs["words"][(HEAP_BASE + 4 * t) >> 2] == value

    def test_masked_wide_alu(self):
        # Divergence at 16 lanes: the masked path must scatter results
        # only into active lanes.
        lanes = 16
        prog = [
            Instr(Op.ANDI, rd=7, rs1=5, imm=1),
            Instr(Op.BNE, rs1=7, rs2=0, imm=12),
            Instr(Op.ADD, rd=9, rs1=5, rs2=5, depth=1),
            Instr(Op.JAL, rd=0, imm=8, depth=1),
            Instr(Op.ADDI, rd=9, rs1=5, imm=100, depth=1),
            Instr(Op.SW, rs1=8, rs2=9, imm=0),
            Instr(Op.HALT),
        ]
        obs, _ = run_both(
            prog,
            num_warps=1, num_lanes=lanes,
            init_regs={5: list(range(lanes)), 8: heap_slots(lanes)},
        )
        for t in range(lanes):
            expected = 2 * t if t % 2 == 0 else t + 100
            assert obs["words"][(HEAP_BASE + 4 * t) >> 2] == expected


class TestIrregularKernels:
    """Divergence-stress micro-kernels (shared with the lockstep tests).

    Both kernels keep a strict subset of each warp's lanes converged on
    a long straight-line block, so the vector backend's masked region
    entries — not just its per-slot masked issue — carry the run."""

    def test_branch_ladder_bit_identical(self):
        prog, regs = branch_ladder()
        obs, _ = run_both(prog, num_warps=2, num_lanes=4, init_regs=regs)
        assert obs["fault"] is None
        # Every lane rejoined and stored its final accumulator.
        for t in range(8):
            assert (HEAP_BASE + 4 * t) >> 2 in obs["words"]

    def test_frontier_loop_bit_identical(self):
        prog, regs = frontier_loop()
        obs, _ = run_both(prog, num_warps=2, num_lanes=4, init_regs=regs)
        assert obs["fault"] is None
        for t in range(8):
            trips = (3 * t) % 7 + 1
            assert obs["words"][(HEAP_BASE + 0x100 + 4 * t) >> 2] == trips

    def test_frontier_loop_wide_warp(self):
        prog, regs = frontier_loop(threads=16)
        obs, _ = run_both(prog, num_warps=1, num_lanes=16, init_regs=regs)
        assert obs["fault"] is None

    @pytest.mark.parametrize("num_warps,num_lanes", WARP_SHAPES)
    def test_branch_ladder_enters_masked_regions(self, eager_regions,
                                                 masked_entries, num_warps,
                                                 num_lanes):
        prog, regs = branch_ladder(trips=24, threads=num_warps * num_lanes)
        _, backend = run_both(prog, num_warps=num_warps,
                              num_lanes=num_lanes, init_regs=regs)
        # Both parity arms (even at 0x10, odd at 0x24) formed regions,
        # and diverged thread groups entered them under partial masks.
        assert {0x10, 0x24} <= _formed(backend)
        assert any(prefix >= 2 for prefix in masked_entries)

    @pytest.mark.parametrize("num_warps,num_lanes", WARP_SHAPES)
    def test_frontier_loop_enters_masked_regions(self, eager_regions,
                                                 masked_entries, num_warps,
                                                 num_lanes):
        prog, regs = frontier_loop(threads=num_warps * num_lanes)
        _, backend = run_both(prog, num_warps=num_warps,
                              num_lanes=num_lanes, init_regs=regs)
        # The loop body formed a region, and the lanes still walking
        # the frontier entered it after others retired.
        assert 0x8 in _formed(backend)
        assert any(prefix >= 2 for prefix in masked_entries)


def _alu_loop(trips=12):
    """A convergent counted loop with a 4-step straight-line body."""
    prog = [
        Instr(Op.ADDI, rd=9, rs1=0, imm=0),
        Instr(Op.BGE, rs1=9, rs2=5, imm=24),             # loop head
        Instr(Op.ADD, rd=10, rs1=9, rs2=6),              # region start
        Instr(Op.XOR, rd=11, rs1=10, rs2=7),
        Instr(Op.SLLI, rd=12, rs1=11, imm=1),
        Instr(Op.ADDI, rd=9, rs1=9, imm=1),
        Instr(Op.JAL, rd=0, imm=-20),
        Instr(Op.SW, rs1=8, rs2=12, imm=0),
        Instr(Op.HALT),
    ]
    threads = 8
    regs = {5: [trips] * threads,
            6: [3] * threads,
            7: [0x55] * threads,
            8: heap_slots(threads)}
    return prog, regs


class TestRegionRelaunch:
    def test_relaunch_stats_match_scalar(self, eager_regions):
        # Regions are per program and reset on every launch: launching
        # twice on one SM must match a scalar SM doing the same.
        prog, regs = _alu_loop()
        per_backend = {}
        for backend in BACKEND_NAMES:
            sm = StreamingMultiprocessor(
                _config("baseline", backend, 2, 4))
            sm.launch(prog, init_regs=regs)
            first = asdict(sm.stats)
            sm.launch(prog, init_regs=regs)
            per_backend[backend] = (first, asdict(sm.stats))
            if backend == "vector":
                assert 0x8 in _formed(sm.backend)
        assert per_backend["scalar"] == per_backend["vector"]


@pytest.mark.parametrize("num_lanes", [4, 16])
class TestMidRegionFault:
    """Capability faults raised from inside a fused region: same fault
    kind, same pinned cycle, same statistics as the scalar reference —
    whether the fault is uniform across the warp or confined to one
    lane, on narrow and wide (16-lane) warps."""

    def _fault_loop(self, bad_lane=None, window_words=8, trips=12,
                    num_lanes=4):
        """A loop whose CLW sits mid-region and walks each lane's
        capability forward until it leaves bounds."""
        prog = [
            Instr(Op.ADDI, rd=9, rs1=0, imm=0),
            Instr(Op.BGE, rs1=9, rs2=5, imm=24),         # loop head
            Instr(Op.ADD, rd=10, rs1=9, rs2=9),          # region start
            Instr(Op.CLW, rd=11, rs1=6, imm=0),          # faults late
            Instr(Op.CINCOFFSETIMM, rd=6, rs1=6, imm=4),
            Instr(Op.ADDI, rd=9, rs1=9, imm=1),
            Instr(Op.JAL, rd=0, imm=-20),
            Instr(Op.HALT),
        ]
        cap, exact = root_capability().set_bounds(HEAP_BASE,
                                                  4 * window_words)
        assert exact
        caps = []
        for t in range(num_lanes):
            addr = HEAP_BASE
            if t == bad_lane:
                # This lane starts deeper into the window, so it walks
                # out of bounds iterations before the others (but after
                # the loop body has been promoted to a region).
                addr = HEAP_BASE + 4 * (window_words - 6)
            caps.append(cap.set_addr(addr))
        regs = {5: [trips] * num_lanes}
        return prog, regs, {6: caps}

    def test_uniform_fault_mid_region(self, eager_regions, num_lanes):
        prog, regs, caps = self._fault_loop(num_lanes=num_lanes)
        obs, backend = run_both(prog, mode="purecap", num_warps=1,
                                num_lanes=num_lanes, init_regs=regs,
                                init_cap_regs=caps)
        assert obs["fault"] is not None
        assert obs["fault"][0] == "BoundsViolation"
        assert 0x8 in _formed(backend)

    def test_single_lane_fault_mid_region(self, eager_regions, num_lanes):
        prog, regs, caps = self._fault_loop(bad_lane=2,
                                            num_lanes=num_lanes)
        obs, backend = run_both(prog, mode="purecap", num_warps=1,
                                num_lanes=num_lanes, init_regs=regs,
                                init_cap_regs=caps)
        assert obs["fault"] is not None
        assert obs["fault"][0] == "BoundsViolation"
        assert 0x8 in _formed(backend)
        # The fault escaped from the CLW as a full-warp region step.
        assert _faulting_step(backend) == (0xC, None)

    def test_clean_when_window_covers_the_walk(self, eager_regions,
                                               num_lanes):
        prog, regs, caps = self._fault_loop(window_words=16, trips=12,
                                            num_lanes=num_lanes)
        obs, backend = run_both(prog, mode="purecap", num_warps=1,
                                num_lanes=num_lanes, init_regs=regs,
                                init_cap_regs=caps)
        assert obs["fault"] is None
        assert 0x8 in _formed(backend)


@pytest.mark.parametrize("num_lanes", [4, 16])
class TestMaskedMidRegionFault:
    """Capability faults raised from inside a region entered under a
    partial mask, uniform across the active subset or confined to a
    single lane of it, on narrow and wide (16-lane) warps."""

    def _masked_fault_loop(self, bad_lane=None, window_words=8, trips=12,
                           num_lanes=4, parked_lane=3):
        """One lane branches straight to HALT, so the remaining subset
        walks the capability-fault loop under a partial mask."""
        prog = [
            Instr(Op.BNE, rs1=12, rs2=0, imm=32),        # parked lane out
            Instr(Op.ADDI, rd=9, rs1=0, imm=0),
            Instr(Op.BGE, rs1=9, rs2=5, imm=28),         # loop head
            Instr(Op.ADD, rd=10, rs1=9, rs2=9, depth=1),  # region start
            Instr(Op.CLW, rd=11, rs1=6, imm=0, depth=1),  # faults late
            Instr(Op.CINCOFFSETIMM, rd=6, rs1=6, imm=4, depth=1),
            Instr(Op.ADDI, rd=9, rs1=9, imm=1, depth=1),
            Instr(Op.JAL, rd=0, imm=-20, depth=1),       # -> loop head
            Instr(Op.HALT),                              # parked lane
            Instr(Op.HALT),                              # loop exit
        ]
        cap, exact = root_capability().set_bounds(HEAP_BASE,
                                                  4 * window_words)
        assert exact
        caps = []
        for t in range(num_lanes):
            addr = HEAP_BASE
            if t == bad_lane:
                addr = HEAP_BASE + 4 * (window_words - 6)
            caps.append(cap.set_addr(addr))
        regs = {5: [trips] * num_lanes,
                12: [1 if t == parked_lane else 0
                     for t in range(num_lanes)]}
        return prog, regs, {6: caps}

    def test_uniform_masked_fault(self, eager_regions, masked_entries,
                                  num_lanes):
        prog, regs, caps = self._masked_fault_loop(num_lanes=num_lanes)
        obs, backend = run_both(prog, mode="purecap", num_warps=1,
                                num_lanes=num_lanes, init_regs=regs,
                                init_cap_regs=caps)
        assert obs["fault"] is not None
        assert obs["fault"][0] == "BoundsViolation"
        assert 0xC in _formed(backend)
        assert any(prefix >= 2 for prefix in masked_entries)

    def test_single_lane_masked_fault(self, eager_regions, masked_entries,
                                      num_lanes):
        prog, regs, caps = self._masked_fault_loop(
            bad_lane=1, num_lanes=num_lanes)
        obs, backend = run_both(prog, mode="purecap", num_warps=1,
                                num_lanes=num_lanes, init_regs=regs,
                                init_cap_regs=caps)
        assert obs["fault"] is not None
        assert obs["fault"][0] == "BoundsViolation"
        assert 0xC in _formed(backend)
        assert any(prefix >= 2 for prefix in masked_entries)
        # The fault escaped from the CLW as a masked region step.
        pc, lanes = _faulting_step(backend)
        assert pc == 0x10
        assert lanes is not None and 0 < len(lanes) < num_lanes

    def test_clean_masked_walk(self, eager_regions, masked_entries,
                               num_lanes):
        prog, regs, caps = self._masked_fault_loop(
            window_words=16, num_lanes=num_lanes)
        obs, backend = run_both(prog, mode="purecap", num_warps=1,
                                num_lanes=num_lanes, init_regs=regs,
                                init_cap_regs=caps)
        assert obs["fault"] is None
        assert 0xC in _formed(backend)
        assert any(prefix >= 2 for prefix in masked_entries)


def _abort_view(backend, prog, mode="baseline", num_warps=2, num_lanes=4,
                init_regs=None, init_cap_regs=None, setup=None,
                warps_per_block=1, max_cycles=200_000_000, **kwargs):
    """Everything an unprobed launch leaves behind, aborted or not:
    stats, memory, tags, every warp's PCs and halted lanes, and the abort
    (cause, the cause's pc, abort cycle, the backend's fault cycle)."""
    sm = StreamingMultiprocessor(
        _config(mode, backend, num_warps, num_lanes, **kwargs))
    if setup is not None:
        setup(sm)
    abort = None
    try:
        sm.launch(prog, init_regs=init_regs, init_cap_regs=init_cap_regs,
                  warps_per_block=warps_per_block, max_cycles=max_cycles)
    except KernelAbort as exc:
        cause = exc.cause
        abort = (type(cause).__name__, str(cause),
                 getattr(cause, "pc", None), exc.cycle,
                 sm.backend.fault_cycle)
    view = {
        "stats": asdict(sm.stats),
        "words": dict(sm.memory._words),
        "tags": set(sm.memory._tags),
        "pcs": [list(w.pcs) for w in sm.warps],
        "halted": [list(w.halted) for w in sm.warps],
        "abort": abort,
    }
    return view, sm.backend


def abort_both(prog, **kwargs):
    """Run on both backends, assert identical views (PCs and abort
    included); return the scalar view and the vector backend."""
    scalar, _ = _abort_view("scalar", prog, **kwargs)
    vector, backend = _abort_view("vector", prog, **kwargs)
    assert scalar == vector
    return scalar, backend


class TestBarrelScheduler:
    """The vector tier picks warps from a ready list and jumps over idle
    slots; the interleave must be the reference one, through barriers,
    DRAM-latency idle slots, VRF spills and deadlock."""

    WARPS, LANES, BLOCK_WARPS = 32, 8, 4

    def _tiled(self, trips=3):
        """Each block of 4 warps stages its DRAM tile in the scratchpad,
        meets at a barrier, reads a neighbouring warp's slot and writes
        back: per-block barriers, DRAM waits with every warp stalled, and
        general vectors for a small VRF to spill."""
        from repro.simt.config import SCRATCHPAD_BASE
        threads = self.WARPS * self.LANES
        block = self.BLOCK_WARPS * self.LANES
        out = HEAP_BASE + 4 * threads
        prog = [
            Instr(Op.LW, rd=10, rs1=5, imm=0),            # DRAM tile
            Instr(Op.ADD, rd=10, rs1=10, rs2=9),
            Instr(Op.MUL, rd=11, rs1=10, rs2=10),
            Instr(Op.SW, rs1=6, rs2=10, imm=0),           # own slot
            Instr(Op.BARRIER),
            Instr(Op.LW, rd=12, rs1=7, imm=0),            # neighbour
            Instr(Op.ADD, rd=12, rs1=12, rs2=11),
            Instr(Op.SW, rs1=8, rs2=12, imm=0),
            Instr(Op.BARRIER),
            Instr(Op.ADDI, rd=9, rs1=9, imm=-1),
            Instr(Op.BNE, rs1=9, rs2=0, imm=-40),
            Instr(Op.HALT),
        ]
        slot = [SCRATCHPAD_BASE + 4 * (t % block) for t in range(threads)]
        regs = {5: heap_slots(threads),
                6: slot,
                7: [slot[(t + self.LANES) % block + t // block * block]
                    for t in range(threads)],
                8: heap_slots(threads, out),
                9: [trips] * threads}

        def setup(sm):
            for t in range(threads):
                sm.memory.write(HEAP_BASE + 4 * t, 4,
                                (t * 2654435761) & 0xFFFF)
        return prog, regs, setup

    @pytest.mark.parametrize("vrf_fraction", [0.0625, 0.375])
    def test_tiled_kernel_matches_scalar(self, eager_regions, vrf_fraction):
        prog, regs, setup = self._tiled()
        view, backend = abort_both(
            prog, num_warps=self.WARPS, num_lanes=self.LANES,
            init_regs=regs, setup=setup, warps_per_block=self.BLOCK_WARPS,
            vrf_fraction=vrf_fraction)
        stats = view["stats"]
        assert view["abort"] is None
        assert stats["barrier_waits"] == 2 * 3 * self.WARPS
        # Idle slots: cycles no warp could issue in.
        assert stats["cycles"] > stats["instrs_issued"] + \
            stats["stall_bank_conflict"] + stats["stall_shared_vrf"]
        if vrf_fraction < 0.1:
            assert stats["gp_spills"] > 0
        assert 0x0 in _formed(backend)

    def test_tied_wakeup_after_idle_slot_keeps_round_robin(self):
        # Warp 1 spins less and waits at the barrier; warp 0 arrives last
        # and releases both, so the rotation point is warp 1.  Both wake
        # at the same cycle after an idle slot: round-robin picks warp 1
        # first, so warp 0's stores to the shared slots land last.
        lanes = 4
        prog = [
            Instr(Op.BEQ, rs1=9, rs2=0, imm=12),
            Instr(Op.ADDI, rd=9, rs1=9, imm=-1),
            Instr(Op.BNE, rs1=9, rs2=0, imm=-4),
            Instr(Op.BARRIER),
            Instr(Op.SW, rs1=6, rs2=7, imm=0),
            Instr(Op.HALT),
        ]
        regs = {6: heap_slots(lanes) * 2,
                7: list(range(1, 2 * lanes + 1)),
                9: [1] * lanes + [0] * lanes}
        view, _ = abort_both(prog, num_warps=2, num_lanes=lanes,
                             init_regs=regs, warps_per_block=2)
        assert view["abort"] is None
        assert sorted(view["words"].values()) == [1, 2, 3, 4]

    def test_deadlock_aborts_at_the_same_cycle(self):
        # Warp 0 waits at the barrier while warp 1, its block partner,
        # halts after a DRAM load: nobody is left to release warp 0.
        prog = [
            Instr(Op.BNE, rs1=12, rs2=0, imm=12),
            Instr(Op.BARRIER),
            Instr(Op.HALT),
            Instr(Op.LW, rd=10, rs1=5, imm=0),
            Instr(Op.HALT),
        ]
        regs = {5: heap_slots(8), 12: [0] * 4 + [1] * 4}
        view, _ = abort_both(prog, num_warps=2, num_lanes=4, init_regs=regs,
                             warps_per_block=2)
        kind, message, _pc, cycle, _fault_cycle = view["abort"]
        assert (kind, message) == (
            "str", "deadlock: all warps blocked on a barrier")
        assert cycle > 40  # after warp 1's DRAM load came back
        assert view["halted"] == [[False] * 4, [True] * 4]


class TestPreciseAbortState:
    """An abort leaves the same PCs, abort cycle and fault pc as the
    scalar reference, also when it hits the middle of a fused region
    whose steps leave the PC to the issue loop."""

    @pytest.mark.parametrize("bad_lane", [None, 2])
    def test_fault_mid_full_region(self, eager_regions, bad_lane):
        prog, regs, caps = TestMidRegionFault()._fault_loop(
            bad_lane=bad_lane)
        view, backend = abort_both(prog, mode="purecap", num_warps=1,
                                   init_regs=regs, init_cap_regs=caps)
        assert view["abort"][0] == "BoundsViolation"
        assert view["abort"][2] == 0xC
        assert view["pcs"] == [[0xC] * 4]
        assert _faulting_step(backend) == (0xC, None)

    def test_fault_at_region_entry(self, eager_regions):
        # The region's first instruction faults: no step is queued yet.
        prog = [
            Instr(Op.ADDI, rd=9, rs1=0, imm=0),
            Instr(Op.BGE, rs1=9, rs2=5, imm=20),          # loop head
            Instr(Op.CLW, rd=11, rs1=6, imm=0),           # region start
            Instr(Op.CINCOFFSETIMM, rd=6, rs1=6, imm=4),
            Instr(Op.ADDI, rd=9, rs1=9, imm=1),
            Instr(Op.JAL, rd=0, imm=-16),
            Instr(Op.HALT),
        ]
        cap, exact = root_capability().set_bounds(HEAP_BASE, 4 * 8)
        assert exact
        view, backend = abort_both(
            prog, mode="purecap", num_warps=1, init_regs={5: [12] * 4},
            init_cap_regs={6: [cap.set_addr(HEAP_BASE)] * 4})
        assert view["abort"][0] == "BoundsViolation"
        assert view["abort"][2] == 0x8
        assert view["pcs"] == [[0x8] * 4]
        assert 0x8 in _formed(backend)
        assert _faulting_step(backend) is None

    @pytest.mark.parametrize("bad_lane", [None, 1])
    def test_fault_mid_masked_region(self, eager_regions, masked_entries,
                                     bad_lane):
        prog, regs, caps = TestMaskedMidRegionFault()._masked_fault_loop(
            bad_lane=bad_lane)
        view, backend = abort_both(prog, mode="purecap", num_warps=1,
                                   init_regs=regs, init_cap_regs=caps)
        assert view["abort"][0] == "BoundsViolation"
        assert view["abort"][2] == 0x10
        # The parked lane sits at its HALT; the others at the CLW.
        assert view["pcs"] == [[0x10, 0x10, 0x10, 0x20]]
        pc, lanes = _faulting_step(backend)
        assert pc == 0x10 and lanes == [0, 1, 2]

    def test_cycle_limit_inside_a_region(self, eager_regions):
        # Every limit short of the clean run's length aborts; some abort
        # while a warp is still queued inside a region.
        prog, regs = _alu_loop()
        clean, _ = abort_both(prog, init_regs=regs)
        mid_region = 0
        for max_cycles in range(1, clean["stats"]["cycles"]):
            view, backend = abort_both(prog, init_regs=regs,
                                       max_cycles=max_cycles)
            assert view["abort"][:2] == ("str", "cycle limit exceeded")
            mid_region += any(w.rq is not None for w in backend.sm.warps)
        assert mid_region > 0


class TestBackendSelection:
    def test_default_is_vector(self):
        assert SMConfig().backend == "vector"

    def test_every_listed_backend_builds_without_an_sm(self):
        for name in BACKEND_NAMES:
            assert create_backend(name, None).name == name

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SMConfig.baseline().with_(backend="turbo")
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("turbo", None)


class TestSubWordMemory:
    def test_byte_halfword_roundtrip(self):
        # Byte and halfword stores/loads with sign extension, strided so
        # lanes hit different bytes of shared words.
        lanes = 4
        prog = [
            Instr(Op.SB, rs1=8, rs2=5, imm=0),
            Instr(Op.LB, rd=9, rs1=8, imm=0),
            Instr(Op.LBU, rd=10, rs1=8, imm=0),
            Instr(Op.SW, rs1=11, rs2=9, imm=0),
            Instr(Op.SW, rs1=12, rs2=10, imm=0),
            Instr(Op.HALT),
        ]
        threads = 2 * lanes
        obs, _ = run_both(
            prog,
            num_warps=2, num_lanes=lanes,
            init_regs={
                5: [0x80 + t for t in range(threads)],  # sign bit set
                8: [HEAP_BASE + t for t in range(threads)],
                11: heap_slots(threads, HEAP_BASE + 0x100),
                12: heap_slots(threads, HEAP_BASE + 0x200),
            },
        )
        for t in range(threads):
            signed = (0x80 + t) - 0x100  # LB sign-extends
            assert obs["words"][(HEAP_BASE + 0x100 + 4 * t) >> 2] == \
                signed & 0xFFFFFFFF
            assert obs["words"][(HEAP_BASE + 0x200 + 4 * t) >> 2] == \
                0x80 + t


@pytest.fixture
def vector_spies(monkeypatch):
    """Record the vector backend's exact-path fallbacks and the metadata
    forms its any-mask memory path receives."""
    seen = {"_cmod2_core": 0, "_memory_fallback": 0, "meta_forms": []}

    def counting(name):
        original = getattr(VectorBackend, name)

        def spy(self, *args):
            seen[name] += 1
            return original(self, *args)
        monkeypatch.setattr(VectorBackend, name, spy)

    counting("_cmod2_core")
    counting("_memory_fallback")
    general = VectorBackend._v_memory_general

    def general_spy(self, warp, instr, pc, lanes, mask, aux, f1, meta_f):
        seen["meta_forms"].append(type(meta_f).__name__)
        return general(self, warp, instr, pc, lanes, mask, aux, f1, meta_f)

    monkeypatch.setattr(VectorBackend, "_v_memory_general", general_spy)
    return seen


#: Lane of each warp that branches straight to HALT under a partial mask.
PARKED_LANE = 1
#: Lane whose pointer or operand is made special by a test case.
ODD_LANE = 2


def _parked_prog(body):
    """``body`` at depth 1 behind a branch that sends the lanes whose
    r12 is nonzero straight to their own HALT."""
    return ([Instr(Op.BNE, rs1=12, rs2=0, imm=4 * (len(body) + 2))] +
            [replace(i, depth=1) for i in body] +
            [Instr(Op.HALT), Instr(Op.HALT)])


def _parked_flags(threads, lanes, masked):
    return [1 if masked and t % lanes == PARKED_LANE else 0
            for t in range(threads)]


@pytest.mark.parametrize("num_warps,num_lanes", WARP_SHAPES)
@pytest.mark.parametrize("masked", [False, True],
                         ids=["full_mask", "partial_mask"])
@pytest.mark.parametrize("op", [Op.CINCOFFSET, Op.CSETADDR])
@pytest.mark.parametrize("mode", ["purecap", "cheri"])
class TestGatherAddressArithmetic:
    """CIncOffset/CSetAddr of a uniform capability by per-lane
    (non-affine, so VRF-resident) offsets: each result is stored with
    CSC so its tag, address and metadata reach memory.  Both metadata
    register files, compressed and uncompressed, hand the vector tier
    the same forms, so both configurations take the same arms."""

    OUT = HEAP_BASE + 0x1000

    def _run(self, mode, op, source, offsets, num_warps, num_lanes,
             masked):
        threads = num_warps * num_lanes
        out_cap, exact = root_capability().set_bounds(self.OUT,
                                                      8 * threads)
        assert exact
        operands = [(source.addr + offsets[t % num_lanes]) & 0xFFFFFFFF
                    if op is Op.CSETADDR else offsets[t % num_lanes]
                    for t in range(threads)]
        prog = _parked_prog([Instr(op, rd=7, rs1=6, rs2=5),
                             Instr(Op.CSC, rs1=8, rs2=7, imm=0)])
        obs, _ = run_both(
            prog, mode=mode, num_warps=num_warps,
            num_lanes=num_lanes,
            init_regs={5: operands,
                       12: _parked_flags(threads, num_lanes, masked)},
            init_cap_regs={6: source,
                           8: [out_cap.set_addr(self.OUT + 8 * t)
                               for t in range(threads)]})
        assert obs["fault"] is None
        tagged = []
        for t in range(threads):
            index = (self.OUT + 8 * t) >> 2
            if masked and t % num_lanes == PARKED_LANE:
                assert index not in obs["words"]
                continue
            expected = (source.addr + offsets[t % num_lanes]) & 0xFFFFFFFF
            assert obs["words"][index] == expected
            tagged.append(index in obs["tags"])
        return tagged

    @staticmethod
    def _offsets(num_lanes, odd=None):
        offsets = [8 * (lane ^ 1) for lane in range(num_lanes)]
        if odd is not None:
            offsets[ODD_LANE] = odd
        return offsets

    def test_all_lanes_in_one_window(self, mode, op, masked, num_warps,
                                     num_lanes, vector_spies):
        cap, _ = root_capability().set_bounds(HEAP_BASE, 8 * num_lanes)
        tagged = self._run(mode, op, cap, self._offsets(num_lanes),
                           num_warps, num_lanes, masked)
        assert all(tagged)
        assert vector_spies["_cmod2_core"] == 0

    def test_lane_in_another_window_but_representable(
            self, mode, op, masked, num_warps, num_lanes, vector_spies):
        # A large-exponent capability decodes identically one k-window
        # below its base; the exact path decides representability.
        cap, exact = root_capability().set_bounds(0x80000000, 0x80000000)
        assert exact
        odd = (HEAP_BASE - cap.addr) & 0xFFFFFFFF
        tagged = self._run(mode, op, cap, self._offsets(num_lanes, odd),
                           num_warps, num_lanes, masked)
        assert all(tagged)
        assert vector_spies["_cmod2_core"] == num_warps

    def test_unrepresentable_lane_clears_its_tag(self, mode, op, masked,
                                                 num_warps, num_lanes,
                                                 vector_spies):
        cap, _ = root_capability().set_bounds(HEAP_BASE, 8 * num_lanes)
        tagged = self._run(mode, op, cap,
                           self._offsets(num_lanes, 0x1000),
                           num_warps, num_lanes, masked)
        active = [lane for lane in range(num_lanes)
                  if not (masked and lane == PARKED_LANE)]
        odd = active.index(ODD_LANE)
        for w in range(num_warps):
            lanes = tagged[w * len(active):(w + 1) * len(active)]
            assert lanes == [j != odd for j in range(len(active))]
        assert vector_spies["_cmod2_core"] == num_warps

    @pytest.mark.parametrize("source", ["sealed", "untagged"])
    def test_sealed_and_untagged_sources(self, mode, op, masked, num_warps,
                                         num_lanes, source, vector_spies):
        cap, _ = root_capability().set_bounds(HEAP_BASE, 8 * num_lanes)
        cap = cap.seal_entry() if source == "sealed" else \
            cap.with_tag_cleared()
        tagged = self._run(mode, op, cap,
                           self._offsets(num_lanes, 0x1000),
                           num_warps, num_lanes, masked)
        assert not any(tagged)
        assert vector_spies["_cmod2_core"] == 0


@pytest.mark.parametrize("num_warps,num_lanes", WARP_SHAPES)
@pytest.mark.parametrize("op", [Op.CLW, Op.CSW, Op.CLC, Op.CSC])
class TestPartiallyNullPointerAccess:
    """Capability loads/stores under a partial mask through a pointer
    register whose metadata is partially null: the parked lane holds
    null, so the stored form is ``_PartialNull``."""

    OUT = HEAP_BASE + 0x800

    def _run(self, op, num_warps, num_lanes, null_lanes):
        threads = num_warps * num_lanes
        region, exact = root_capability().set_bounds(HEAP_BASE, 0x1000)
        assert exact
        null = region.from_meta_word(0, 0, False)
        pointers = [null if t % num_lanes in null_lanes
                    else region.set_addr(HEAP_BASE + 8 * t)
                    for t in range(threads)]
        stored = [region.set_addr(HEAP_BASE + 4 * t)
                  for t in range(threads)]

        def setup(sm):
            for t in range(threads):
                addr = HEAP_BASE + 8 * t
                if op is Op.CLC:
                    cap = stored[t]
                    sm.memory.write_cap_raw(
                        addr, (cap.meta_word() << 32) | cap.addr, True)
                else:
                    sm.memory.write(addr, 4, 0x1000 + t)

        body = {
            Op.CLW: [Instr(Op.CLW, rd=7, rs1=6, imm=0),
                     Instr(Op.CSW, rs1=8, rs2=7, imm=0)],
            Op.CSW: [Instr(Op.CSW, rs1=6, rs2=5, imm=0)],
            Op.CLC: [Instr(Op.CLC, rd=7, rs1=6, imm=0),
                     Instr(Op.CSC, rs1=8, rs2=7, imm=0)],
            Op.CSC: [Instr(Op.CSC, rs1=6, rs2=9, imm=0)],
        }[op]
        obs, _ = run_both(
            _parked_prog(body), mode="purecap", num_warps=num_warps,
            num_lanes=num_lanes, setup=setup,
            init_regs={5: [0x2000 + t for t in range(threads)],
                       12: _parked_flags(threads, num_lanes, True)},
            init_cap_regs={6: pointers, 9: stored,
                           8: [region.set_addr(self.OUT + 8 * t)
                               for t in range(threads)]})
        return obs

    def test_active_lanes_hold_the_pointer(self, op, num_warps, num_lanes,
                                           vector_spies):
        obs = self._run(op, num_warps, num_lanes, {PARKED_LANE})
        assert obs["fault"] is None
        assert "_PartialNull" in vector_spies["meta_forms"]
        assert vector_spies["_memory_fallback"] == 0
        threads = num_warps * num_lanes
        active = [t for t in range(threads)
                  if t % num_lanes != PARKED_LANE]
        if op is Op.CLW:
            for t in active:
                assert obs["words"][(self.OUT + 8 * t) >> 2] == 0x1000 + t
        elif op is Op.CSW:
            for t in active:
                assert obs["words"][(HEAP_BASE + 8 * t) >> 2] == 0x2000 + t
        else:
            base = self.OUT if op is Op.CLC else HEAP_BASE
            for t in active:
                index = (base + 8 * t) >> 2
                assert obs["words"][index] == HEAP_BASE + 4 * t
                assert index in obs["tags"]

    def test_active_null_lane_faults(self, op, num_warps, num_lanes,
                                     vector_spies):
        obs = self._run(op, num_warps, num_lanes, {PARKED_LANE, ODD_LANE})
        assert obs["fault"] is not None
        assert obs["fault"][0] == "TagViolation"
        assert vector_spies["_memory_fallback"] >= 1
