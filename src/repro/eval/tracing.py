"""Instruction tracing: see exactly what the SM issues, cycle by cycle.

Attach a :class:`TraceRecorder` to an SM's probe bus
(:func:`repro.obs.attach`) before launching and it captures every retired
issue — cycle, warp, PC, disassembled instruction, active lanes.
Useful for debugging kernels, for teaching (watching reconvergence
happen), and for the trace-shape tests in the suite.
"""

from dataclasses import dataclass
from typing import List

from repro.isa.disasm import format_instr
from repro.obs import attach


@dataclass
class TraceEntry:
    cycle: int
    warp: int
    pc: int
    text: str
    op_name: str
    active_lanes: List[int]
    #: SM lane count; the mask renders at this width so entries line up
    #: and partially-active warps read at a glance.
    num_lanes: int = 0

    def __str__(self):
        width = self.num_lanes
        if not width:
            # Entries from before the lane count was known: size the mask
            # to the highest active lane (or nothing when none are).
            width = max(self.active_lanes) + 1 if self.active_lanes else 0
        active = set(self.active_lanes)
        lanes = "".join("x" if lane in active else "."
                        for lane in range(width))
        return "%8d  w%-2d %06x  [%s]  %s" % (
            self.cycle, self.warp, self.pc, lanes, self.text)


class TraceRecorder:
    """Collects per-issue trace entries (optionally bounded).

    ``num_lanes`` (when given) fixes the rendered width of the lane
    mask to the SM's actual warp size.
    """

    def __init__(self, limit=None, only_warp=None, num_lanes=0):
        self.entries = []
        self.limit = limit
        self.only_warp = only_warp
        self.num_lanes = num_lanes
        self.dropped = 0

    def on_retire(self, cycle, warp, pc, instr, lanes):
        self.record(cycle, warp.index, pc, instr, lanes)

    def record(self, cycle, warp, pc, instr, lanes):
        if self.only_warp is not None and warp != self.only_warp:
            return
        if self.limit is not None and len(self.entries) >= self.limit:
            self.dropped += 1
            return
        self.entries.append(TraceEntry(
            cycle=cycle, warp=warp, pc=pc, text=format_instr(instr),
            op_name=instr.op.name, active_lanes=list(lanes),
            num_lanes=self.num_lanes))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def render(self, count=None):
        entries = self.entries if count is None else self.entries[:count]
        lines = ["   cycle  warp pc      lanes  instruction"]
        lines.extend(str(entry) for entry in entries)
        if self.dropped:
            lines.append("... %d further issues not recorded" % self.dropped)
        return "\n".join(lines)


def trace_kernel(runtime, kernel_src, grid_dim, block_dim, args,
                 limit=2000, only_warp=None):
    """Launch a kernel with tracing enabled; returns (stats, recorder)."""
    recorder = TraceRecorder(limit=limit, only_warp=only_warp,
                             num_lanes=runtime.sm.cfg.num_lanes)
    bus = attach(runtime.sm, recorder)
    try:
        stats = runtime.launch(kernel_src, grid_dim, block_dim, args)
    finally:
        bus.detach_sink(recorder)
        if not bus.sinks:
            runtime.sm.probes = None
    return stats, recorder
