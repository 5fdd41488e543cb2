"""SM configuration: geometry, feature flags, and the paper's three presets.

The paper evaluates three configurations (section 4.1):

- **Baseline** — compressed general-purpose register file, no CHERI.
- **CHERI** — CHERI enabled, but capability metadata stored uncompressed,
  no CHERI instructions in the shared-function unit, dynamic PC metadata.
- **CHERI (Optimised)** — metadata register file compressed (uniform
  detection + null-value optimisation), shared VRF, one-read-port metadata
  SRF, bounds instructions in the SFU, static PC metadata restriction.
"""

from dataclasses import dataclass, replace

from repro.simt.backend import BACKEND_NAMES

#: Number of architectural registers per thread.
REGS_PER_THREAD = 32

#: Architectural ceiling on hardware threads per SM (warps x lanes).
#: Mirrors real SM limits (a few thousand threads) with generous slack.
MAX_HW_THREADS = 1 << 16

#: Maximum threads per block, mirroring the CUDA ``blockDim`` limit.
#: ``NoCLRuntime.launch`` rejects larger blocks, which gives the kernel
#: compiler's range analysis a sound static bound on ``threadIdx.x``.
MAX_BLOCK_DIM = 1024

#: Memory map used by the simulator and the NoCL runtime.
ARG_BASE = 0x00010000
HEAP_BASE = 0x00100000
STACK_BASE = 0x40000000
SCRATCHPAD_BASE = 0xC0000000


@dataclass(frozen=True)
class SMConfig:
    """Full configuration of one streaming multiprocessor."""

    # -- geometry ----------------------------------------------------------
    num_warps: int = 8
    num_lanes: int = 8
    #: VRF capacity as a fraction of all architectural vector registers.
    #: The paper's evaluation uses 3/8 (Table 2).
    vrf_fraction: float = 0.375
    scratchpad_bytes: int = 64 * 1024
    stack_bytes_per_thread: int = 2048

    # -- CHERI feature flags -------------------------------------------------
    enable_cheri: bool = False
    #: Detect uniform vectors in the capability-metadata register file and
    #: store them in the metadata SRF (section 3.2).
    compress_metadata: bool = False
    #: Share one VRF slot pool between the data and metadata register files
    #: (avoids fragmentation, at the cost of a serialisation stall when an
    #: access needs uncompressed data *and* metadata).  Requires
    #: ``compress_metadata``: an uncompressed metadata file has no VRF.
    shared_vrf: bool = False
    #: Null-value optimisation: metadata SRF entries may be partially null.
    #: Requires ``compress_metadata``: it is a form of the metadata SRF.
    nvo: bool = False
    #: One read port on the metadata SRF; CSC pays one extra operand-fetch
    #: cycle (section 3.2) but the SRF needs half the storage.
    metadata_srf_single_port: bool = False
    #: Get/set-bounds CHERI instructions execute in the shared-function
    #: unit instead of per-lane logic (section 3.3).
    sfu_cheri_slow_path: bool = False
    #: PC metadata fixed at kernel launch; active-thread selection may
    #: ignore it (the static PC metadata restriction, section 3.3).
    static_pc_metadata: bool = False
    #: Proof-of-concept compressed stack cache (section 4.4): absorbs
    #: register-spill / stack traffic at low hardware cost.  Off by
    #: default, like the paper's evaluation.
    enable_stack_cache: bool = False

    # -- execution backend ---------------------------------------------------
    #: Which execution backend interprets instructions.  ``"scalar"`` is
    #: the reference per-lane interpreter; ``"vector"`` executes each
    #: issued instruction across all lanes at once (symbolic uniform /
    #: affine forms, hot-trace specialisation) and is bit-identical to
    #: the scalar backend by construction — enforced by the equivalence
    #: tests and ``repro lockstep``.
    backend: str = "vector"

    # -- compiler ------------------------------------------------------------
    #: Kernel-compiler optimization level (``repro.nocl.opt``): 0 compiles
    #: the direct frontend output (historical behaviour), 1 runs the
    #: dataflow-analysis pass pipeline (LICM, CSE, strength reduction,
    #: bounds-check elimination, DCE).  Part of the config — not a side
    #: channel — so cache keys, manifests and the service dedup path all
    #: distinguish -O0 from -O1 results automatically.
    opt: int = 0

    # -- timing constants ----------------------------------------------------
    pipeline_depth: int = 6
    sfu_latency: int = 12
    sfu_cheri_latency: int = 3
    dram_latency: int = 40
    dram_line_bytes: int = 64
    scratchpad_latency: int = 2

    # ------------------------------------------------------------------------

    @property
    def num_threads(self):
        return self.num_warps * self.num_lanes

    @property
    def arch_vector_regs(self):
        """Total architectural vector registers (32 per warp)."""
        return REGS_PER_THREAD * self.num_warps

    @property
    def vrf_slots(self):
        """Physical VRF capacity in vector registers."""
        return max(1, int(self.arch_vector_regs * self.vrf_fraction))

    def validate(self):
        if self.num_warps < 1 or self.num_lanes < 1:
            raise ValueError("SM needs at least one warp and one lane")
        if self.num_threads > MAX_HW_THREADS:
            raise ValueError("SM capped at %d hardware threads"
                             % MAX_HW_THREADS)
        if not 0.0 < self.vrf_fraction <= 1.0:
            raise ValueError("vrf_fraction must be in (0, 1]")
        if self.backend not in BACKEND_NAMES:
            raise ValueError("unknown backend %r (choose %s)"
                             % (self.backend, " or ".join(BACKEND_NAMES)))
        if self.opt not in (0, 1):
            raise ValueError("unknown opt level %r (choose 0 or 1)"
                             % (self.opt,))
        features = (self.compress_metadata, self.shared_vrf, self.nvo,
                    self.metadata_srf_single_port, self.sfu_cheri_slow_path,
                    self.static_pc_metadata)
        if any(features) and not self.enable_cheri:
            raise ValueError("CHERI optimisations require enable_cheri")
        if (self.shared_vrf or self.nvo) and not self.compress_metadata:
            raise ValueError("shared_vrf and nvo require compress_metadata")
        return self

    def with_(self, **kwargs):
        """A modified copy (convenience for sweeps)."""
        return replace(self, **kwargs).validate()

    # -- the paper's three configurations ------------------------------------

    @classmethod
    def baseline(cls, **kwargs):
        """Baseline: compressed GP register file, no CHERI, no safety."""
        return cls(**kwargs).validate()

    @classmethod
    def cheri(cls, **kwargs):
        """Unoptimised CHERI: uncompressed metadata, no SFU slow path."""
        return cls(enable_cheri=True, **kwargs).validate()

    @classmethod
    def cheri_optimised(cls, **kwargs):
        """CHERI (Optimised): every section-3 technique enabled."""
        return cls(
            enable_cheri=True,
            compress_metadata=True,
            shared_vrf=True,
            nvo=True,
            metadata_srf_single_port=True,
            sfu_cheri_slow_path=True,
            static_pc_metadata=True,
            **kwargs,
        ).validate()
