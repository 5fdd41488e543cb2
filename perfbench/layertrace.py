"""Outside-in layer tracing for the benchmark.

The benchmark never edits the simulator.  Instead it replaces a handful
of public functions and methods with timing wrappers *from outside*,
before the timed work starts, and restores them afterwards.  Every
wrapped call pushes a frame on one stack, so each layer's self time is
its own duration minus the time of the wrapped calls nested inside it.
Calls are kept in memory only as per-name totals (calls, total time,
time in wrapped callees): a span per call would cost more than the call
for the hot ones, ``CompressedRegFile.write`` (about 250k calls) and
``decode_bounds`` (about 140k).

What must not be wrapped (see README): decoded instruction handlers
(region formation keys on ``handler.__func__``) and the memory model
functions the vector tier inlines; and no probe or trace sink may be
attached to the SM, which would switch the vector tier to its reference
loop.
"""

import time
import weakref

_clock = time.perf_counter


class LayerTrace:
    """Per-name call counts, total time and self time."""

    def __init__(self):
        # Frame = [time spent in wrapped callees].  The sentinel frame
        # collects whatever ran outside every wrapped call.
        self._stack = [[0.0]]
        #: name -> [calls, total seconds, seconds in wrapped callees]
        self.totals = {}
        #: static instructions of the distinct kernels launched
        self.static_instrs = 0
        self._patches = []

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap(self, owner, attr, name, after=None):
        """Time every call of ``owner.attr`` into the totals of ``name``.

        ``after(args, result)`` runs once the call returns, outside its
        timed interval (so in its caller's self time).
        """
        fn = owner.__dict__[attr]
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[0]
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, wrapper)

    # -- results -----------------------------------------------------------

    def outside_seconds(self):
        """Wrapped time that ran outside any enclosing wrapped call."""
        return self._stack[0][0]

    def summary(self):
        return {name: {"calls": calls, "total_s": total,
                       "self_s": total - child}
                for name, (calls, total, child) in self.totals.items()}


def instrument(trace, root_owner, root_attr, regions, layers=True):
    """Install the benchmark's wrappers on the simulator's public API.

    ``root_owner.root_attr`` becomes the root, ``suite``.
    ``regions`` (a dict) receives, per benchmark, the number of compiled
    regions the vector tier formed, read after every
    ``StreamingMultiprocessor.launch``.  With ``layers=False`` only this
    region probe (one wrapper per launch and one on the root) is
    installed: that is the untraced comparison run.
    """
    from repro.benchsuite import ALL_BENCHMARKS
    from repro.simt.pipeline import StreamingMultiprocessor

    current = [None]
    programs_seen = weakref.WeakKeyDictionary()

    def after_launch(args, result):
        sm, program = args[0], args[1]
        name = current[0]
        regions[name] = regions.get(name, 0) + sum(
            1 for steps in sm.backend._regions.values() if steps)
        seen = programs_seen.setdefault(sm, set())
        if id(program) not in seen:
            seen.add(id(program))
            trace.static_instrs += len(program)

    for bench in ALL_BENCHMARKS.values():
        cls = type(bench)
        run = cls.__dict__["run"]

        def named_run(self, *args, _run=run, **kwargs):
            current[0] = self.name
            return _run(self, *args, **kwargs)

        trace._patch(cls, "run", named_run)
        if layers:
            trace.wrap(cls, "run", "benchsuite.run")

    trace.wrap(StreamingMultiprocessor, "launch", "simt.launch",
               after=after_launch)
    trace.wrap(root_owner, root_attr, "suite")
    if not layers:
        return

    from repro.cheri import concentrate
    from repro.cheri.capability import Capability
    from repro.eval import runner
    from repro.nocl import compiler, runtime
    from repro.simt.backend import create_backend
    from repro.simt.config import SMConfig
    from repro.simt.regfile.compressed import CompressedRegFile

    # compile_kernel is bound by name in nocl.runtime and looked up on
    # nocl.compiler by the runner's cache-key digest: wrap both.
    trace.wrap(runtime, "compile_kernel", "nocl.compile")
    trace.wrap(compiler, "compile_kernel", "nocl.compile")
    trace.wrap(runtime.NoCLRuntime, "upload", "runtime.upload")
    trace.wrap(runtime.NoCLRuntime, "download", "runtime.download")
    trace.wrap(runtime.NoCLRuntime, "launch", "runtime.launch")
    # The backend class the default config resolves to (its constructor
    # only stores the SM).
    backend = type(create_backend(SMConfig().backend, None))
    trace.wrap(backend, "run", "simt.run")
    trace.wrap(CompressedRegFile, "write", "regfile.write")
    trace.wrap(concentrate, "decode_bounds", "cheri.decode")
    trace.wrap(Capability, "set_bounds", "cheri.set_bounds")
    trace.wrap(runner, "_disk_store", "runner.store")
    trace.wrap(runner, "_disk_load", "runner.load")
    trace.wrap(runner, "_emit_manifest", "obs.manifest")
