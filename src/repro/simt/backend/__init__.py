"""Pluggable execution backends for the SIMT pipeline.

A backend owns instruction decode and the issue/scheduler loop of one
:class:`~repro.simt.pipeline.StreamingMultiprocessor`; the SM keeps the
shared plumbing (register files, memory system, capability checks) that
every backend drives.  Two backends exist:

- ``scalar`` — the reference per-lane interpreter (one Python-level loop
  over active lanes per instruction).
- ``vector`` — lane-vectorized execution: symbolic uniform/affine operand
  forms, fast-path capability checks and a hot-trace specializer,
  falling back to the scalar semantics per-op for rare cases.
  Bit-identical to ``scalar`` by construction.

Backends are selected by :attr:`repro.simt.config.SMConfig.backend`
(default ``vector``).
"""

#: Every selectable backend; the config, the CLI and the scripts list
#: their choices from here.
BACKEND_NAMES = ("scalar", "vector")


def create_backend(name, sm):
    """Instantiate the backend ``name`` bound to ``sm``."""
    if name == "scalar":
        from repro.simt.backend.scalar import ScalarBackend
        return ScalarBackend(sm)
    if name == "vector":
        from repro.simt.backend.vector import VectorBackend
        return VectorBackend(sm)
    raise ValueError("unknown backend %r (choose %s)"
                     % (name, " or ".join(BACKEND_NAMES)))
