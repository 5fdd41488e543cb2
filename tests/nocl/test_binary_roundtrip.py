"""Binary-encoding integration: every compiled kernel encodes and decodes.

The simulator executes decoded instruction objects, but a real TCIM holds
32-bit words; these tests prove the ISA encoding is complete for every
instruction any benchmark kernel emits in any mode, and that a program
round-tripped through its binary image still computes the same results.
"""

import pytest

from repro.benchsuite import BENCHMARK_NAMES
from repro.eval.runner import kernel_sources
from repro.nocl import NoCLRuntime, compile_kernel, i32, kernel, ptr
from repro.nocl.compiler import MODES
from repro.simt import SMConfig


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_every_benchmark_kernel_encodes(name, mode):
    # Every kernel bound in the benchmark's module (multi-kernel
    # benchmarks included), compiled without running the benchmark, then
    # the full program encoded and decoded.
    for source in kernel_sources(name).values():
        compiled = compile_kernel(source, mode)
        words = compiled.to_binary()
        assert all(0 <= w < (1 << 32) for w in words)
        decoded = compiled.from_binary_roundtrip()
        assert [i.op for i in decoded] == [i.op for i in compiled.instrs]
        assert [i.depth for i in decoded] == \
            [i.depth for i in compiled.instrs]


@kernel
def rt_kernel(n: i32, a: ptr[i32], out: ptr[i32]):
    i = threadIdx.x + blockIdx.x * blockDim.x
    while i < n:
        acc = 0
        for j in range(4):
            acc += a[i] * (j + 1)
        out[i] = acc
        i += blockDim.x * gridDim.x


@pytest.mark.parametrize("mode", MODES)
def test_decoded_program_computes_identically(mode):
    cfg = (SMConfig.cheri_optimised(num_warps=2, num_lanes=4)
           if mode == "purecap"
           else SMConfig.baseline(num_warps=2, num_lanes=4))
    compiled = compile_kernel(rt_kernel, mode)
    decoded = compiled.from_binary_roundtrip()

    def run(program_instrs):
        rt = NoCLRuntime(mode, config=cfg)
        rt._compiled[id(rt_kernel)] = compiled
        n = 32
        a = rt.alloc(i32, n)
        out = rt.alloc(i32, n)
        rt.upload(a, list(range(n)))
        # Substitute the instruction stream under test.
        compiled_backup = compiled.instrs
        compiled.instrs = program_instrs
        try:
            rt.launch(rt_kernel, 2, 8, [n, a, out])
        finally:
            compiled.instrs = compiled_backup
        return rt.download(out)

    original = run(compiled.instrs)
    roundtripped = run(decoded)
    assert original == roundtripped == [10 * i for i in range(32)]
