"""Job model: specs, content-addressed keys, grid expansion, execution.

A *job* is one simulation cell — (benchmark, configuration, scale,
geometry overrides) — optionally lockstep-verified.  Its identity is a
content-addressed **job key** that reuses the experiment runner's
disk-cache machinery (:func:`repro.eval.runner.job_key`): the key covers
the compiled kernel binaries, the fully-resolved SM configuration, the
scale, and the simulator source digest.  Equal keys therefore guarantee
bit-identical statistics, which is what makes single-flight dedup and
cross-restart cache hits sound.  Both digests describe the sources the
process loaded and are memoised for its lifetime, so a key costs a
compile only the first time a process sees a (benchmark, mode, opt);
a server must be restarted to pick up edited simulator sources.

``kind="sleep"`` jobs exist for the service's own integration tests
(deterministic long-running work for exercising timeout, crash-retry,
and in-flight dedup); they never touch the simulator.
"""

import hashlib
import time
from dataclasses import dataclass, field

#: Geometry a ``verify`` job runs at unless the submission overrides it:
#: golden-model lockstep steps every lane in Python, so it uses the same
#: small sweep geometry as ``repro lockstep``.
VERIFY_GEOMETRY = dict(num_warps=4, num_lanes=4)

#: Job lifecycle states.  Terminal: done, cached, failed.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
CACHED = "cached"
FAILED = "failed"
TERMINAL = (DONE, CACHED, FAILED)


@dataclass
class JobSpec:
    """What to run.  Wire/pool representation is :meth:`as_dict`."""

    kind: str = "eval"          # "eval" | "sleep"
    benchmark: str = ""
    config_name: str = "cheri_opt"
    scale: int = 1
    overrides: dict = field(default_factory=dict)
    verify: bool = False
    seconds: float = 0.0        # sleep jobs only
    tag: str = ""               # sleep jobs only (distinguishes cases)

    def as_dict(self):
        out = {"kind": self.kind}
        if self.kind == "sleep":
            out.update(seconds=self.seconds, tag=self.tag)
            return out
        out.update(benchmark=self.benchmark, config_name=self.config_name,
                   scale=self.scale, overrides=dict(self.overrides),
                   verify=self.verify)
        return out

    @classmethod
    def from_dict(cls, data):
        kind = data.get("kind", "eval")
        if kind == "sleep":
            return cls(kind="sleep", seconds=float(data.get("seconds", 0)),
                       tag=str(data.get("tag", "")))
        return cls(kind="eval",
                   benchmark=data["benchmark"],
                   config_name=data.get("config_name", "cheri_opt"),
                   scale=int(data.get("scale", 1)),
                   overrides=dict(data.get("overrides") or {}),
                   verify=bool(data.get("verify", False)))

    def label(self):
        if self.kind == "sleep":
            return "sleep(%.2gs)%s" % (self.seconds,
                                       " #%s" % self.tag if self.tag else "")
        text = "%s/%s/s%d" % (self.benchmark, self.config_name, self.scale)
        if self.overrides:
            text += "/" + ",".join("%s=%s" % kv
                                   for kv in sorted(self.overrides.items()))
        if self.verify:
            text += "/verified"
        return text


class GridError(ValueError):
    """A submission that cannot be expanded into jobs."""


def expand_grid(message):
    """A ``submit`` request body → list of :class:`JobSpec` cells.

    The grid is ``benchmarks × configs × scales``; ``overrides`` and
    ``verify`` apply to every cell.  Benchmark names are resolved
    case-insensitively; unknown names or configs raise
    :class:`GridError` (the whole submission is rejected — partial
    grids would make dedup accounting unreadable).
    """
    from repro.benchsuite import ALL_BENCHMARKS, BENCHMARK_NAMES
    from repro.eval.runner import config_for

    if message.get("kind") == "sleep":
        return [JobSpec(kind="sleep",
                        seconds=float(message.get("seconds", 0.0)),
                        tag=str(message.get("tag", "")))]
    folded = {name.lower(): name for name in ALL_BENCHMARKS}
    benchmarks = message.get("benchmarks") or list(BENCHMARK_NAMES)
    if not isinstance(benchmarks, list):
        raise GridError("benchmarks must be a list")
    resolved = []
    for name in benchmarks:
        actual = folded.get(str(name).lower())
        if actual is None:
            raise GridError("unknown benchmark %r (choose from %s)"
                            % (name, ", ".join(BENCHMARK_NAMES)))
        resolved.append(actual)
    configs = message.get("configs") or ["cheri_opt"]
    if not isinstance(configs, list):
        raise GridError("configs must be a list")
    scales = message.get("scales") or [int(message.get("scale", 1))]
    overrides = dict(message.get("overrides") or {})
    for key, value in overrides.items():
        if not isinstance(value, (int, bool, float)):
            raise GridError("override %r must be a scalar" % key)
    verify = bool(message.get("verify", False))
    if verify:
        merged = dict(VERIFY_GEOMETRY)
        merged.update(overrides)
        overrides = merged
    for config_name in configs:
        try:
            config_for(config_name, **overrides)
        except (ValueError, TypeError) as exc:
            raise GridError(str(exc))
    return [
        JobSpec(benchmark=name, config_name=config_name, scale=int(scale),
                overrides=dict(overrides), verify=verify)
        for name in resolved
        for config_name in configs
        for scale in scales
    ]


def compute_key(spec):
    """Content-addressed job key (hex) for one spec.

    Eval jobs reuse the runner's disk-cache key wholesale (plus a
    ``lockstep`` discriminator for verified runs, which execute under a
    checker and are not interchangeable with plain runs in the job
    table).  The key is memoised per process: only the first key for a
    (benchmark, mode, opt) compiles, so a server computes such keys off
    its event loop, and every repeat is a dict lookup that
    :func:`memoised_key` answers on the loop.
    """
    if spec.kind == "sleep":
        digest = hashlib.sha256(
            b"sleep:%r:%r" % (spec.seconds, spec.tag.encode())).hexdigest()
        return "sleep-" + digest[:24]
    from repro.eval.runner import job_key
    return _eval_key(spec, job_key)


def memoised_key(spec):
    """:func:`compute_key` if it costs no compile, else ``None``: sleep
    keys always, eval keys once this process has computed them."""
    if spec.kind == "sleep":
        return compute_key(spec)
    from repro.eval.runner import memoised_job_key
    return _eval_key(spec, memoised_job_key)


def _eval_key(spec, key_fn):
    key = key_fn(spec.benchmark, spec.config_name, spec.scale,
                 **spec.overrides)
    if key is None or not spec.verify:
        return key
    return key + "-lockstep"


def probe_cache(spec):
    """Non-executing disk-cache probe → payload dict or ``None``.

    Verified and sleep jobs are never cache-served: a ``verify`` job's
    point is the fresh cross-checked execution.
    """
    if spec.kind != "eval" or spec.verify:
        return None
    from repro.eval.runner import probe_disk
    result = probe_disk(spec.benchmark, spec.config_name, spec.scale,
                        **spec.overrides)
    if result is None:
        return None
    payload = _payload_from_result(result)
    payload["cache_source"] = "disk"
    return payload


def _payload_from_result(result, lockstep=None):
    """A :class:`repro.eval.runner.RunResult` → JSON-able payload."""
    payload = {
        "benchmark": result.benchmark,
        "config": result.config_name,
        "mode": result.mode,
        "stats": result.stats.as_dict(),
        "cache_source": result.meta.source if result.meta else "memo",
        "sim_seconds": round(result.meta.wall_seconds, 6)
        if result.meta else 0.0,
    }
    if lockstep is not None:
        payload["lockstep"] = lockstep
    return payload


def execute_spec(spec_dict):
    """Worker-side execution of one job spec (runs in a pool process).

    Takes and returns plain dicts so the pool boundary stays
    pickle-trivial under the ``spawn`` start method.  Eval jobs go
    through :func:`repro.eval.runner.run_benchmark`, so every fresh
    simulation also lands in the shared disk cache — that is how a
    result computed by one worker becomes a ``cached`` hit for every
    later duplicate submission, across server restarts too.
    """
    spec = JobSpec.from_dict(spec_dict)
    if spec.kind == "sleep":
        time.sleep(spec.seconds)
        return {"slept": spec.seconds, "tag": spec.tag,
                "cache_source": "sim"}
    if spec.verify:
        from repro.check.lockstep import verified_run
        from repro.eval.runner import config_for
        overrides = dict(spec.overrides)
        num_warps = overrides.pop("num_warps", VERIFY_GEOMETRY["num_warps"])
        num_lanes = overrides.pop("num_lanes", VERIFY_GEOMETRY["num_lanes"])
        mode, _ = config_for(spec.config_name, num_warps=num_warps,
                             num_lanes=num_lanes, **overrides)
        start = time.perf_counter()
        stats, lockstep = verified_run(
            spec.benchmark, spec.config_name, scale=spec.scale,
            num_warps=num_warps, num_lanes=num_lanes, **overrides)
        return {
            "benchmark": spec.benchmark,
            "config": spec.config_name,
            "mode": mode,
            "stats": stats.as_dict(),
            "cache_source": "sim+lockstep",
            "sim_seconds": round(time.perf_counter() - start, 6),
            "lockstep": lockstep,
        }
    from repro.eval.runner import run_benchmark
    result = run_benchmark(spec.benchmark, spec.config_name, spec.scale,
                           **spec.overrides)
    return _payload_from_result(result)
