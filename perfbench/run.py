"""Run one benchmark workload and print its metrics as a JSON last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign_serve --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload is set up (several times where set-up is short; ``setup_s`` is
the median), a short untimed warm-up episode runs, then the episode and a
serving cycle on what it published repeat for about ``--seconds`` (at
least three times).  Every repeat does the same work, round by round,
and each metric is a median or mean over the whole run.

``--trace 1`` traces the set-up, runs the warm-up and one untraced
episode, then one episode and one serving cycle with every layer wrapped
(see ``tracing.py``), and reports the per-layer metrics plus the tracing
overhead.  The traced episode must reproduce the untraced one exactly.

The program is imported from ``src/`` next to this directory; without it
the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_GAP_S = 0.1
#: Fewest repeats of episode plus serving cycle in an untraced run.
MIN_REPEATS = 3


def _import_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def per_step_median(episodes: list) -> list:
    """Each step's (round's) median time over the repeated episodes.

    Repeated episodes run the same rounds on the same inputs, so step ``i``
    is the same work in every repeat; its median over repeats spread
    across the run is that step's typical time on this host.
    """
    return [
        statistics.median(times) for times in zip(*(ep.step_s for ep in episodes))
    ]


def end_to_end(workload, seed: int, seconds: float, workdir: Path, ops) -> tuple:
    """Untraced run: repeated set-up, then repeats of episode plus serving."""
    from perfbench import workloads

    setup_s = []
    for rep in range(workload.setup_reps):
        if rep:
            # Spaced out, so that short set-ups sample the host's speed
            # over a second or two rather than one fleeting state.
            time.sleep(SETUP_GAP_S)
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_s.append(time.perf_counter() - t0)

    workload.episode(state, workdir / "warmup", workloads.Ops(), workloads.WARMUP_N)
    # Episode plus serving cycle repeat until ``seconds`` have passed (at
    # least MIN_REPEATS times).  The host's speed drifts by tens of percent
    # over seconds, so every metric is a median or mean over samples spread
    # across the whole run, never one burst at its end.
    episodes, cycles = [], []
    t_start = time.perf_counter()
    while len(episodes) < MIN_REPEATS or time.perf_counter() - t_start < seconds:
        # Start every repeat from a collected heap, so garbage left by
        # set-up or an earlier repeat is not collected inside the timing.
        gc.collect()
        workdir_rep = workdir / f"repeat{len(episodes)}"
        ep = workload.episode(state, workdir_rep, ops)
        episodes.append(ep)
        cycles.append(workloads.serve(ep, workdir_rep, state["box"], seed, ops))

    verdicts = [workload.check(state, ep) for ep in episodes]
    problems = [p for v in verdicts for p in v.problems]
    if any(v.fingerprint != verdicts[0].fingerprint for v in verdicts):
        problems.append("repeated episodes on the same inputs gave different outputs")
    if any(len(ep.step_s) != len(episodes[0].step_s) for ep in episodes):
        problems.append("repeated episodes took different numbers of steps")
    serve_problems, deviation = workloads.verify_served(cycles, ops)
    problems += serve_problems

    steps = per_step_median(episodes)
    slowest = sorted(steps)[-max(1, len(steps) // 5) :]
    queries = [t for c in cycles for t in c.query_s]
    loads = [t for c in cycles for t in c.load_s]
    batch_s = [c.batch_s for c in cycles]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "run_s": (statistics.median(ep.run_s for ep in episodes), "s"),
        "step_p50_ms": (float(np.percentile(steps, 50)) * 1e3, "ms"),
        # Tail: the mean of the slowest fifth of the rounds.  A campaign's
        # slowest rounds are its few full refits, whose optimiser work
        # varies with the seed's data; a p90 over 25 rounds is one of them
        # and moved far more from seed to seed than their mean.
        "step_tail_ms": (statistics.fmean(slowest) * 1e3, "ms"),
        # Means, not medians, for the sub-millisecond queries and the
        # loads: the host flips between a fast and a slow speed state
        # within fractions of a second, so a median lands in one mode or
        # the other from run to run, while a mean over the whole run moves
        # smoothly with the share of time spent in each.
        "query_mean_us": (statistics.fmean(queries) * 1e6, "us"),
        "query_p90_us": (float(np.percentile(queries, 90)) * 1e6, "us"),
        "rollover_mean_ms": (statistics.fmean(loads) * 1e3, "ms"),
        "batch_kpts_per_s": (
            workloads.BATCH_POINTS / statistics.median(batch_s) / 1e3, "kpts/s"
        ),
        "final_rmse": (verdicts[0].final_rmse, "log10_s"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }
    info = {
        "repeats": len(episodes),
        "steps": len(steps),
        "episode_s": [round(ep.run_s, 4) for ep in episodes],
        "query_p50_us": float(np.percentile(queries, 50)) * 1e6,
        "query_p99_us": float(np.percentile(queries, 99)) * 1e6,
        "queries": len(queries),
        "rollovers": len(loads),
        "rollover_p50_ms": statistics.median(loads) * 1e3,
        "batch_vs_unchunked_max_abs": deviation,
        "setup_reps": len(setup_s),
    }
    return metrics, problems, info


def traced(workload, seed: int, workdir: Path, ops, names: list) -> tuple:
    """Untraced episode, then set-up, episode and serving cycle under the tracer."""
    from perfbench import tracing, workloads

    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        with tracer.phase("setup", "setup.unattributed"):
            state = workload.setup(seed)
    workload.episode(state, workdir / "warmup", workloads.Ops(), workloads.WARMUP_N)
    gc.collect()
    plain = workload.episode(state, workdir / "untraced", ops)
    retries0 = workloads.counter("parallel.task.retries")
    root = f"{workload.name}.unattributed"
    gc.collect()
    with tracing.Instrumentation(tracer):
        with tracer.phase("run", root):
            t0 = time.perf_counter()
            ep = workload.episode(state, workdir / "traced", ops)
            traced_run_s = time.perf_counter() - t0
        gc.collect()
        with tracer.phase("serve", "serve.unattributed"):
            served = workloads.serve(ep, workdir / "traced", state["box"], seed, ops)
    retries = workloads.counter("parallel.task.retries") - retries0

    plain_verdict = workload.check(state, plain, reference=True)
    verdict = workload.check(state, ep)
    problems = plain_verdict.problems + verdict.problems
    problems += workloads.verify_served([served], ops)[0]
    if verdict.fingerprint != plain_verdict.fingerprint:
        problems.append("traced episode differs from the untraced one")
    for phase, stats in tracer.phases.items():
        wall = tracer.walls[phase]
        total = sum(stat.self_s for stat in stats.values())
        if abs(total - wall) > 0.05 * wall:
            problems.append(
                f"{phase}: self times sum to {total:.3f} s of {wall:.3f} s wall"
            )

    totals = tracer.totals()

    def stat(layer):
        return totals.get(layer) or tracing.LayerStat()

    pmap = stat("parallel.map")
    capacity = pmap.units.get("capacity_s", 0.0)
    values = {
        "tracing.overhead": (traced_run_s / plain.run_s, "ratio"),
        "parallel.tasks": (pmap.units.get("tasks", 0.0), "count"),
        "parallel.task_s": (pmap.units.get("task_s", 0.0), "s"),
        "parallel.busy_frac": (
            pmap.units.get("task_s", 0.0) / capacity if capacity else 0.0,
            "ratio",
        ),
        "parallel.retries": (retries, "count"),
        "setup.unattributed_s": (stat("setup.unattributed").self_s, "s"),
        "serve.unattributed_s": (stat("serve.unattributed").self_s, "s"),
    }
    for name in names:
        if name in values:
            continue
        if name.endswith(".unattributed_s"):
            values[name] = (stat(name[: -len("_s")]).self_s, "s")
            continue
        layer, _, kind = name.rpartition(".")
        st = stat(layer)
        if kind == "self_s":
            values[name] = (st.self_s, "s")
        elif kind in ("calls", "writes"):
            values[name] = (st.calls, "count")
        else:
            values[name] = (
                st.units.get(kind, 0.0), "bytes" if kind == "bytes" else "count"
            )

    tables = [
        tracing.render_layer_table(
            tracer, phase, title=f"{workload.name} / {phase}: wall "
            f"{tracer.walls[phase]:.3f} s"
        )
        for phase in ("setup", "run", "serve")
    ]
    tables.append(
        f"tracing overhead: traced run_s {traced_run_s:.3f} s / untraced "
        f"run_s {plain.run_s:.3f} s = {traced_run_s / plain.run_s:.3f}"
    )
    return values, problems, "\n\n".join(tables)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from repro import telemetry as tm
    from perfbench import environment, workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in declared]

    print("environment: " + json.dumps(environment.environment(ROOT), sort_keys=True))
    ops = workloads.Ops()
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    # Registry-only telemetry: the program's own counters (shard.*,
    # parallel.*, campaign.*) feed the failure accounting; no spans.
    tm.enable()
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            if args.trace:
                values, problems, report = traced(
                    workload, args.seed, Path(tmp), ops, names
                )
                print(report)
            else:
                values, problems, info = end_to_end(
                    workload, args.seed, args.seconds, Path(tmp), ops
                )
                print("run: " + json.dumps(info, sort_keys=True))
    finally:
        tm.disable()

    if set(values) != set(names):
        problems.append(
            f"metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json"
        )
    metrics = {}
    for entry in declared:
        name = entry["name"]
        value, unit = values.get(name, (float("nan"), "?"))
        if unit != entry["unit"]:
            problems.append(f"{name} measured in {unit}, declared {entry['unit']}")
        if not math.isfinite(value) or (not args.trace and value <= 0):
            problems.append(f"{name} = {value} is not a positive finite number")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    print(ops.table())
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    attempted, failed = ops.totals()
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
