"""Capability fault taxonomy.

CHERI faults are *deterministic and enforced* (paper section 2.4): any memory
access through a capability that fails a tag, seal, permission, or bounds
check raises a precise exception rather than silently corrupting state.  The
SIMT pipeline converts these into kernel aborts that integration tests assert
on.
"""


class CapabilityFault(Exception):
    """Base class for all capability-check failures.

    Attributes:
        address: the faulting address (int) when applicable, else None.
        thread: global hardware-thread index that faulted, else None.
        pc: program counter of the faulting instruction, else None.
    """

    def __init__(self, message, address=None, thread=None, pc=None):
        super().__init__(message)
        self.address = address
        self.thread = thread
        self.pc = pc

    def __str__(self):
        base = super().__str__()
        parts = []
        if self.address is not None:
            parts.append("addr=0x%08x" % self.address)
        if self.thread is not None:
            parts.append("thread=%d" % self.thread)
        if self.pc is not None:
            parts.append("pc=0x%08x" % self.pc)
        if parts:
            return "%s (%s)" % (base, ", ".join(parts))
        return base


class TagViolation(CapabilityFault):
    """Use of an untagged (invalid) capability for a privileged operation."""


class SealViolation(CapabilityFault):
    """Use of a sealed capability where an unsealed one is required."""


class BoundsViolation(CapabilityFault):
    """Memory access outside the capability's [base, top) bounds."""


class PermissionViolation(CapabilityFault):
    """Access lacking a required permission bit (load/store/execute/...)."""
