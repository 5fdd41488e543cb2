"""Dynamic bounds-check accounting for the software-checked mode.

The compiler marks every surviving software bounds check (the ``BLTU``
guard emitted in ``boundscheck`` mode and not eliminated by
``repro.nocl.opt``) with its PC in ``CompiledKernel.bounds_check_pcs``.
:class:`BoundsCheckCounter` is a probe-bus sink that turns those static
sites into dynamic counts: how many guard instructions actually retired,
weighted by the executed lane count — i.e. per-thread checks performed.

This is the measurement behind the ``results/opt_boundscheck_gap.*``
artifact (``python -m repro results opt_boundscheck_gap``): the paper's
argument for hardware capability checks rests on software checks being
*dynamically* frequent, and the optimizer's bounds-check elimination
shrinks exactly that count.
"""


class BoundsCheckCounter:
    """Probe-bus sink counting dynamically executed bounds checks.

    Attach with :func:`repro.obs.attach`.  Counts accumulate across
    every kernel launched while attached (a benchmark may launch
    several kernels).
    """

    def __init__(self):
        #: Guard instructions retired, weighted by executed lanes
        #: (= per-thread dynamic bounds checks).
        self.checks_executed = 0
        #: Guard retire events (per-warp, unweighted).
        self.check_retires = 0
        #: Static surviving guard sites, summed over launches.
        self.static_sites = 0
        self.launches = 0
        self._pcs = frozenset()

    def on_launch(self, sm, program):
        # ``program`` on the bus is the raw instruction list; the
        # compiled kernel (which carries the guard PCs) rides side-band
        # on ``sm.kernel_info``, set by the NoCL runtime at launch.
        info = getattr(sm, "kernel_info", None)
        self._pcs = frozenset(getattr(info, "bounds_check_pcs", ()) or ())
        self.static_sites += len(self._pcs)
        self.launches += 1

    def on_retire(self, cycle, warp, pc, instr, lanes):
        if pc in self._pcs:
            self.checks_executed += len(lanes)
            self.check_retires += 1

    def as_dict(self):
        return {
            "checks_executed": self.checks_executed,
            "check_retires": self.check_retires,
            "static_sites": self.static_sites,
            "launches": self.launches,
        }
