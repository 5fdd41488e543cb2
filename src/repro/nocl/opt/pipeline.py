"""Pass manager: opt levels, pass ordering, and the per-pass report.

``optimize`` is the single entry point :func:`repro.nocl.compiler
.compile_kernel` calls between the frontend and register allocation.
At ``-O0`` it is the identity (the caller skips it entirely); at
``-O1`` it runs

    [licm, cse, strength] x 2  ->  bounds-check elim  ->  dce

— two rounds of the enabling passes because CSE merging the length
constants of two arrays can make a bounds check of one array dominate
the other's, and LICM exposes CSE opportunities across iterations.

After the passes the linear item order has changed, so the loop
metadata the register allocator depends on is *recomputed from the
optimized CFG*: loop spans become the item ranges of the natural loops,
and any virtual register now defined before a loop but read inside it
(a hoisted or merged value, live across the back edge) joins
``var_vregs`` so linear-scan interval widening keeps it alive.
"""

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.nocl.ir import FIRST_VREG, VLabel
from repro.nocl.opt.cfg import CFGError, build_cfg
from repro.nocl.opt import passes as P

#: Supported optimization levels.
OPT_LEVELS = (0, 1)


@dataclass
class OptReport:
    """What the pipeline did to one kernel, per pass."""

    level: int
    items_before: int = 0
    items_after: int = 0
    #: pass name -> count of instructions hoisted/removed/rewritten
    passes: Dict[str, int] = field(default_factory=dict)
    #: bounds checks removed, split by proof obligation
    bounds_dominated: int = 0
    bounds_range_proved: int = 0

    def bump(self, name, count):
        if count:
            self.passes[name] = self.passes.get(name, 0) + count

    def as_dict(self):
        return {
            "level": self.level,
            "items_before": self.items_before,
            "items_after": self.items_after,
            "passes": dict(sorted(self.passes.items())),
            "bounds_dominated": self.bounds_dominated,
            "bounds_range_proved": self.bounds_range_proved,
        }


#: LICM pressure-target backoff ladder: each rung hoists less; the last
#: rung also disables CSE (which can stretch live ranges across loops).
_BACKOFF = (
    (P._PRESSURE_TARGET, True),
    (8, True),
    (4, True),
    (0, True),
    (0, False),
)


def optimize(items, loop_spans, var_vregs, level, cap_spills=False):
    """Run the ``-O<level>`` pipeline over the frontend's item list.

    Returns ``(items, loop_spans, var_vregs, report)``.  ``level`` 0
    returns its inputs untouched (the compiler short-circuits before
    calling here, but the contract holds regardless).

    Spill-aware backoff: hoisting and expression merging lengthen live
    ranges, and one register spilled inside a hot loop (a DRAM round
    trip per iteration with the stack cache off) costs more than any
    recomputation saves.  The pipeline therefore trial-allocates its
    output and retries with a lower LICM pressure target (finally
    without CSE) until the loop-depth-weighted spill cost is no worse
    than the unoptimized program's; if even the tamest attempt spills
    more, the kernel is left untouched.  ``cap_spills`` mirrors the
    compile mode's spill width so the trial matches the real
    allocation.
    """
    if level not in OPT_LEVELS:
        raise ValueError("unsupported opt level %r (expected one of %s)"
                         % (level, OPT_LEVELS))
    report = OptReport(level=level, items_before=len(items),
                       items_after=len(items))
    if level == 0:
        return items, loop_spans, var_vregs, report
    try:
        build_cfg(items)
    except CFGError:
        # Un-analyzable IR (indirect control flow): refuse to optimize.
        return items, loop_spans, var_vregs, report

    base_cost = _trial_spill_cost(items, loop_spans, var_vregs, cap_spills)
    for licm_target, enable_cse in _BACKOFF:
        attempt = OptReport(level=level, items_before=len(items))
        out = _run_passes(copy.deepcopy(items), attempt, licm_target,
                          enable_cse)
        out_spans, out_vregs = _recompute_loop_metadata(out, var_vregs)
        cost = _trial_spill_cost(out, out_spans, out_vregs, cap_spills)
        if cost > base_cost:
            continue
        attempt.items_after = len(out)
        return out, out_spans, out_vregs, attempt
    return items, loop_spans, var_vregs, report


def _run_passes(items, report, licm_target, enable_cse):
    for _ in range(2):
        items, hoisted = P.licm(items, pressure_target=licm_target)
        report.bump("licm", hoisted)
        if enable_cse:
            items, merged = P.cse(items)
            report.bump("cse", merged)
        items, reduced = P.strength_reduce(items)
        report.bump("strength", reduced)
    items, dominated, proved = P.eliminate_bounds_checks(items)
    report.bump("boundscheck", (dominated + proved) * 3)
    report.bounds_dominated = dominated
    report.bounds_range_proved = proved
    items, dead = P.dce(items)
    report.bump("dce", dead)
    return items


def _trial_spill_cost(items, loop_spans, var_vregs, cap_spills):
    """Loop-depth-weighted spill cost of a trial allocation of ``items``.

    Equal frame sizes can hide very different runtimes: a slot spilled
    once in the prologue is ~free, the same slot reloaded every
    iteration of an inner loop is a DRAM round trip per trip.  Each
    spill store / reload therefore counts ``64**depth`` (a stand-in
    for expected trip count), and the frame size only breaks ties.
    """
    from repro.nocl.regalloc import AllocationError, allocate
    try:
        allocated, frame = allocate(copy.deepcopy(items), list(loop_spans),
                                    set(var_vregs), cap_spills=cap_spills)
    except AllocationError:
        return (float("inf"), float("inf"))
    weighted = sum(64 ** min(item.depth, 4)
                   for item in allocated
                   if not isinstance(item, VLabel)
                   and item.comment in ("spill", "reload"))
    return (weighted, frame)


def _recompute_loop_metadata(items, var_vregs):
    """Loop spans + back-edge-live vregs for the optimized item order."""
    cfg = build_cfg(items)
    spans: List[Tuple[int, int]] = []
    for _header, body in cfg.loops:
        spans.append(cfg.loop_item_span(body))
    spans.sort()

    var_vregs = set(var_vregs)
    first_def: Dict[int, int] = {}
    for i, item in enumerate(items):
        if isinstance(item, VLabel):
            continue
        for reg in item.regs_written():
            if reg >= FIRST_VREG:
                first_def.setdefault(reg, i)
    for start, end in spans:
        for i in range(start, end):
            item = items[i]
            if isinstance(item, VLabel):
                continue
            for reg in item.regs_read():
                if reg >= FIRST_VREG and first_def.get(reg, start) < start:
                    # Defined before the loop, read inside it: the value
                    # must survive the back edge.
                    var_vregs.add(reg)
    return spans, var_vregs
