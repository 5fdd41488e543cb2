"""The execution-backend interface.

A backend is bound to one SM and provides three entry points:

- :meth:`Backend.decode` — classify one static instruction into a
  ``(handler, aux, falls_through)`` triple, called once per instruction
  per launch;
- :meth:`Backend.issue` — execute one instruction for one warp at a given
  cycle, returning the cycle after the consumed issue slot(s);
- :meth:`Backend.run` — the barrel-scheduler loop, running the launched
  program to completion and returning the final cycle.

Backends must produce bit-identical simulated statistics, probe events and
fault semantics; only wall-clock speed may differ.  A backend may
subclass another (``vector`` extends ``scalar``) and keep per-launch
state such as fused regions, reset in :meth:`Backend.on_launch`; the
bit-identity contract applies to every backend alike.  ``fault_cycle``
records the exact scheduler cycle at which a capability fault or software
trap escaped :meth:`run`, so the SM can report the same abort cycle
regardless of how the backend batches work internally.
"""


class Backend:
    """Base class for execution backends (see module docstring)."""

    #: Human-readable backend name (mirrors ``SMConfig.backend``).
    name = "base"

    def __init__(self, sm):
        self.sm = sm
        #: Cycle at which a fault escaped :meth:`run` (None = no fault).
        self.fault_cycle = None

    def on_launch(self):
        """Reset per-launch state (decode caches, hot counters)."""
        self.fault_cycle = None

    def decode(self, instr):
        raise NotImplementedError

    def issue(self, warp, cycle):
        raise NotImplementedError

    def run(self, max_cycles):
        raise NotImplementedError
