"""Lockstep cross-check: the whole benchmark suite, fault lockstep, and
a sensitivity check that the harness actually detects divergences.
"""

import pytest

from repro.benchsuite import BENCHMARK_NAMES
from repro.check import DivergenceError, check_benchmark, check_program
from repro.check.golden import GoldenModel
from repro.isa.assembler import assemble_text
from repro.isa.instructions import Op
from repro.simt.backend import BACKEND_NAMES
from repro.simt.config import SMConfig

CONFIGS = ("baseline", "cheri_opt", "boundscheck")


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_lockstep(name, config_name):
    """Every benchmark, in every mode, retires in architectural lockstep
    with the golden model (including the final full-state sweep)."""
    stats, checker = check_benchmark(name, config_name, scale=1)
    assert stats.cycles > 0
    assert checker.retired > 0
    assert checker.instructions >= checker.retired


# ---------------------------------------------------------------------------
# Fault lockstep
# ---------------------------------------------------------------------------

def _bounded_cap(length=64):
    from repro.cheri.capability import root_capability
    from repro.simt.config import HEAP_BASE
    cap, exact = root_capability().set_bounds(HEAP_BASE, length)
    assert exact
    return cap


def test_fault_lockstep_bounds_violation():
    program = assemble_text("clw t0, 64(a0)\nhalt")
    config = SMConfig.cheri_optimised(num_warps=2, num_lanes=4)
    stats, checker, fault = check_program(
        program, config, init_cap_regs={10: _bounded_cap(64)})
    assert stats is None
    assert type(fault).__name__ == "BoundsViolation"


def test_fault_lockstep_tag_violation():
    program = assemble_text("ccleartag a0, a0\nclw t0, 0(a0)\nhalt")
    config = SMConfig.cheri(num_warps=2, num_lanes=4)
    stats, checker, fault = check_program(
        program, config, init_cap_regs={10: _bounded_cap()})
    assert stats is None
    assert type(fault).__name__ == "TagViolation"


def test_in_bounds_access_is_not_a_fault():
    program = assemble_text("clw t0, 0(a0)\ncsw t0, 4(a0)\nhalt")
    config = SMConfig.cheri_optimised(num_warps=2, num_lanes=4)
    stats, checker, fault = check_program(
        program, config, init_cap_regs={10: _bounded_cap()})
    assert fault is None
    assert stats is not None and stats.cycles > 0


# ---------------------------------------------------------------------------
# Divergence-stress micro-kernels (masked compiled regions)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_divergence_micro_kernels_lockstep(backend, monkeypatch):
    """The irregular micro-kernels retire in golden-model lockstep on
    every backend.  The region threshold is lowered as in the
    equivalence sweep; with the checker attached the vector backend
    runs its vectorized handlers under the reference scheduler loop,
    and masked region entry itself is covered in
    ``tests/simt/test_backend.py``."""
    from repro.simt.backend.vector import VectorBackend
    from tests.simt.kernels import branch_ladder, frontier_loop
    monkeypatch.setattr(VectorBackend, "_hot_threshold", 4)
    for prog, regs in (branch_ladder(), frontier_loop()):
        config = SMConfig.baseline(num_warps=2, num_lanes=4).with_(
            backend=backend)
        stats, checker, fault = check_program(prog, config,
                                              init_regs=regs)
        assert fault is None
        assert stats is not None and checker.retired > 0


# ---------------------------------------------------------------------------
# Sensitivity: the checker must actually catch a wrong pipeline
# ---------------------------------------------------------------------------

def test_lockstep_detects_injected_alu_bug(monkeypatch):
    from repro.simt import pipeline
    monkeypatch.setitem(pipeline._INT_R_FN, Op.XOR,
                        lambda a, b: (a | b) & 0xFFFFFFFF)
    program = assemble_text("xor t0, a1, a2\nhalt")
    config = SMConfig.baseline(num_warps=1, num_lanes=2)
    with pytest.raises(DivergenceError) as info:
        check_program(program, config,
                      init_regs={11: [0b1100, 0b1010], 12: [0b1010, 0b0110]})
    assert "x5" in str(info.value)


def test_lockstep_detects_injected_memory_bug(monkeypatch):
    from repro.simt import pipeline
    from repro.simt.config import HEAP_BASE
    original = pipeline._AMO_FN[Op.AMOADD_W]
    monkeypatch.setitem(pipeline._AMO_FN, Op.AMOADD_W,
                        lambda old, v: (old - v) & 0xFFFFFFFF)
    program = assemble_text("amoadd.w t0, a0, a1\nhalt")
    config = SMConfig.baseline(num_warps=1, num_lanes=2)
    with pytest.raises(DivergenceError):
        check_program(program, config,
                      init_regs={10: [HEAP_BASE, HEAP_BASE],
                                 11: [5, 7]})
    assert pipeline._AMO_FN[Op.AMOADD_W] is not original  # still patched


# ---------------------------------------------------------------------------
# Golden model basics (independent of the pipeline)
# ---------------------------------------------------------------------------

def test_golden_model_runs_standalone():
    program = assemble_text("""
        addi t0, zero, 0
        addi t1, zero, 5
    loop:
        addi t0, t0, 1
        blt  t0, t1, loop
        halt
    """)
    golden = GoldenModel(program, num_threads=2, cheri=False)
    steps = 0
    while not all(golden.halted) and steps < 100:
        for thread in range(2):
            if not golden.halted[thread]:
                golden.step(thread)
        steps += 1
    assert all(golden.halted)
    assert golden.gp[0][5] == 5 and golden.gp[1][5] == 5
