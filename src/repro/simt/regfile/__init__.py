"""Register files: plain, compressed (SRF/VRF), and capability metadata.

SIMTight's compressed register file (paper Figure 5) detects uniform and
affine vectors at write time and stores them compactly in a scalar register
file (SRF), spilling only general vectors to a size-constrained vector
register file (VRF).  CHERI support adds a second, 33-bit capability-
metadata register file that compresses *independently* of the data register
file (section 3.2), optionally sharing the VRF and supporting partially-null
vectors (the null-value optimisation).
"""

from repro.simt.regfile.compressed import (
    AccessReport,
    CompressedRegFile,
    PlainRegFile,
    SlotPool,
    write_register,
)

__all__ = ["AccessReport", "CompressedRegFile", "PlainRegFile", "SlotPool",
           "write_register"]
