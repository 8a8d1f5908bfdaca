"""In-memory span tracer that splits a run's wall time across repro's layers.

The traced run of the benchmark wraps public entry points of each layer
(``GaussianProcessRegressor.fit``, ``Strategy.select``, ``ModelRegistry.load``,
``ParallelMap.map``, ...) from outside the program: :class:`Instrumentation`
swaps wrappers in on entry and puts every original back on exit, so the
program's own source is never touched.

Every wrapper records a span on one stack.  A span's *self time* is its
duration minus the time its child spans cover; the self times of all
layers plus the phase root's self time (``unattributed``) therefore add up
to the phase's wall time.  Spans are kept as per-layer aggregates plus
per-call durations (for p50/p99) and are reported when the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager

__all__ = [
    "LayerStat",
    "Tracer",
    "Instrumentation",
    "percentile_with_tail",
    "render_layer_table",
]


class LayerStat:
    """Aggregate of one layer's spans: calls, self time, durations, units."""

    __slots__ = ("calls", "self_s", "durations", "units")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations: list[float] = []
        self.units: dict[str, float] = {}

    def add_units(self, units: dict) -> None:
        for key, value in units.items():
            self.units[key] = self.units.get(key, 0.0) + value


class Tracer:
    """Span stack plus per-phase layer aggregates.

    Only the thread that created the tracer records; other threads, and
    forked worker processes (which inherit the wrappers), pass straight
    through to the wrapped function.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phases: dict[str, dict[str, LayerStat]] = {}
        self.walls: dict[str, float] = {}
        self._stats: dict[str, LayerStat] | None = None
        self._stack: list[list[float]] = []
        self._owner = threading.get_ident()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._detach)

    def _detach(self) -> None:
        self._owner = None

    def recording(self) -> bool:
        """Whether a span opened now, on this thread, would be recorded."""
        return self._stats is not None and threading.get_ident() == self._owner

    @contextmanager
    def phase(self, name: str, root: str):
        """Record spans into phase ``name`` under a root span named ``root``.

        The root's self time is the phase's unattributed time: whatever the
        driving loop spent outside every wrapped layer.
        """
        if self._stats is not None:
            raise RuntimeError("tracer phases do not nest")
        self._stats = self.phases.setdefault(name, {})
        t0 = self.clock()
        try:
            with self.span(root):
                yield self
        finally:
            self.walls[name] = self.walls.get(name, 0.0) + self.clock() - t0
            self._stats = None

    def stat(self, layer: str) -> LayerStat:
        stat = self._stats.get(layer)
        if stat is None:
            stat = self._stats[layer] = LayerStat()
        return stat

    @contextmanager
    def span(self, layer: str, units: dict | None = None):
        """Time a block as one call of ``layer`` (used by tests and roots)."""
        frame = self.enter()
        t0 = self.clock()
        try:
            yield
        finally:
            self.leave(layer, frame, self.clock() - t0, units)

    def enter(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def leave(self, layer: str, frame, duration: float, units=None) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += duration
        stat = self.stat(layer)
        stat.calls += 1
        stat.self_s += duration - frame[0]
        stat.durations.append(duration)
        if units:
            stat.add_units(units)

    def count(self, layer: str, n: int = 1) -> None:
        """Count a call without opening a span (for very hot, cheap calls)."""
        self.stat(layer).calls += n

    def totals(self) -> dict[str, LayerStat]:
        """Layer aggregates summed over every phase."""
        merged: dict[str, LayerStat] = {}
        for stats in self.phases.values():
            for layer, stat in stats.items():
                into = merged.setdefault(layer, LayerStat())
                into.calls += stat.calls
                into.self_s += stat.self_s
                into.durations.extend(stat.durations)
                into.add_units(stat.units)
        return merged


class _TimedTask:
    """Picklable task wrapper returning ``(result, seconds inside the task)``.

    Runs inside pool workers, so the time it reports is work done in the
    worker, excluding dispatch and result transfer.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        t0 = time.perf_counter()
        result = self.fn(item)
        return result, time.perf_counter() - t0


class Instrumentation:
    """Install layer wrappers on entry; restore every original on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            install_repro_layers(self)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _replace(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _span_wrapper(self, fn, layer: str, units=None):
        tracer = self.tracer
        clock = tracer.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            frame = tracer.enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.leave(layer, frame, clock() - t0)
                raise
            tracer.leave(
                layer,
                frame,
                clock() - t0,
                units(args, kwargs, result) if units is not None else None,
            )
            return result

        return wrapper

    def _count_wrapper(self, fn, layer: str):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording():
                tracer.count(layer)
            return fn(*args, **kwargs)

        return wrapper

    def span_method(self, cls, name: str, layer: str, units=None) -> None:
        """Wrap ``cls.name`` (defined on ``cls`` itself) as a span of ``layer``."""
        self._replace(cls, name, self._span_wrapper(cls.__dict__[name], layer, units))

    def count_method(self, cls, name: str, layer: str) -> None:
        """Count calls of ``cls.name`` without timing them."""
        self._replace(cls, name, self._count_wrapper(cls.__dict__[name], layer))

    def span_function(self, module, name: str, layer: str, units=None) -> None:
        """Wrap a module-level function everywhere it was imported by name.

        ``from .metrics import evaluate_model`` binds the function into the
        importing module too, so every loaded ``repro`` module holding the
        same object gets the wrapper.
        """
        original = module.__dict__[name]
        wrapper = self._span_wrapper(original, layer, units)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            if mod.__dict__.get(name) is original:
                self._replace(mod, name, wrapper)

    def parallel_map(self, cls, layer: str) -> None:
        """Wrap ``cls.map``: span in the parent plus in-task time per worker."""
        original = cls.__dict__["map"]
        tracer = self.tracer
        clock = tracer.clock

        @functools.wraps(original)
        def map(pm, fn, items):
            if not tracer.recording():
                return original(pm, fn, items)
            items = list(items)
            frame = tracer.enter()
            t0 = clock()
            try:
                timed = original(pm, _TimedTask(fn), items)
            except BaseException:
                tracer.leave(layer, frame, clock() - t0)
                raise
            duration = clock() - t0
            parallel = pm.backend != "serial" and pm.n_workers > 1 and len(items) > 1
            workers = min(pm.n_workers, len(items)) if parallel else 1
            tracer.leave(
                layer,
                frame,
                duration,
                {
                    "tasks": len(items),
                    "task_s": sum(seconds for _, seconds in timed),
                    "capacity_s": workers * duration,
                },
            )
            return [result for result, _ in timed]

        self._replace(cls, "map", map)


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return int(shape[0]) if len(shape) == 2 else 1


def _file_bytes(*paths) -> dict:
    return {"bytes": sum(os.path.getsize(p) for p in paths if os.path.exists(p))}


def install_repro_layers(inst: Instrumentation) -> None:
    """The benchmark's layer map: which entry point counts as which layer."""
    from repro.al import campaign, metrics, pool, session, sharding, strategies
    from repro.cluster import scheduler
    from repro.datasets.generate import ModelExecutor
    from repro.gp import gpr, kernels, optimize
    from repro.parallel import pmap
    from repro.serve import registry, service

    GPR = gpr.GaussianProcessRegressor
    inst.span_method(GPR, "fit", "gp.gpr.fit")
    inst.span_method(GPR, "log_marginal_likelihood", "gp.gpr.lml")
    inst.span_method(
        GPR, "predict", "gp.gpr.predict",
        units=lambda a, k, r: {"points": _rows(a[1] if len(a) > 1 else k["X"])},
    )
    inst.span_method(GPR, "update", "gp.gpr.update")
    inst.span_function(optimize, "minimize_with_restarts", "gp.optimize.restarts")
    for obj in list(vars(kernels).values()):
        if (
            isinstance(obj, type)
            and issubclass(obj, kernels.Kernel)
            and "__call__" in obj.__dict__
        ):
            inst.span_method(obj, "__call__", "gp.kernels.call")

    inst.span_method(strategies.Strategy, "select", "al.strategies.select")
    inst.span_function(strategies, "select_batch", "al.strategies.select")
    inst.span_method(sharding.AcquisitionRouter, "select_batch", "al.strategies.select")
    inst.span_method(pool.CandidatePool, "consume", "al.pool.consume")
    inst.span_method(pool.CandidatePool, "consume_repeats", "al.pool.consume")
    inst.span_function(metrics, "evaluate_model", "al.metrics.evaluate")

    inst.span_function(
        session, "save_session", "al.checkpoint",
        units=lambda a, k, r: _file_bytes(r),
    )
    inst.span_method(
        campaign.OnlineCampaign, "_checkpoint", "al.checkpoint",
        units=lambda a, k, r: _file_bytes(a[2]) if a[2] is not None else {},
    )

    def _shard_files(a, k, r):
        directory = a[1]
        return _file_bytes(*directory.glob("*.json"))

    inst.span_method(
        sharding.ShardedLearner, "_write_checkpoint", "al.checkpoint",
        units=_shard_files,
    )

    def _published(a, k, meta):
        reg = a[0]
        return _file_bytes(reg._version_path(meta.version), reg.manifest_path)

    inst.span_method(
        registry.ModelRegistry, "publish", "serve.registry.publish", units=_published
    )
    inst.span_method(registry.ModelRegistry, "load", "serve.registry.load")
    for name in ("predict", "predict_std"):
        inst.span_method(
            service.PredictionService, name, "serve.service.predict",
            units=lambda a, k, r: {"points": _rows(a[1])},
        )

    inst.parallel_map(pmap.ParallelMap, "parallel.map")
    inst.span_method(scheduler.SlurmSimulator, "run_batch", "cluster.scheduler.run_batch")
    inst.count_method(ModelExecutor, "estimate", "cluster.estimate")


def percentile_with_tail(values, q: float, *, min_tail: int = 10):
    """The ``q``-th percentile, or ``None`` with fewer than ``min_tail`` beyond it."""
    values = sorted(values)
    if not values or len(values) * (100 - q) < min_tail * 100:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def _ms(seconds) -> str:
    return f"{seconds * 1e3:9.3f}" if seconds is not None else f"{'-':>9}"


def render_layer_table(tracer: Tracer, phase: str, *, title: str = "") -> str:
    """Calls, self time, share of the phase's wall time, per-call p50/p99."""
    stats = tracer.phases.get(phase, {})
    wall = tracer.walls.get(phase, 0.0)
    lines = [
        title or f"layer table: {phase} (wall {wall:.3f} s)",
        f"{'layer':<34} {'calls':>9} {'self s':>9} {'share':>7} "
        f"{'p50 ms':>9} {'p99 ms':>9}",
    ]
    total = 0.0
    for layer, stat in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        total += stat.self_s
        p50, p99 = (percentile_with_tail(stat.durations, q) for q in (50, 99))
        share = stat.self_s / wall if wall > 0 else 0.0
        lines.append(
            f"{layer:<34} {stat.calls:>9d} {stat.self_s:>9.3f} "
            f"{share:>6.1%} {_ms(p50)} {_ms(p99)}"
        )
    lines.append(
        f"{'sum of self times':<34} {'':>9} {total:>9.3f} "
        f"{(total / wall if wall > 0 else 0.0):>6.1%}"
    )
    return "\n".join(lines)
