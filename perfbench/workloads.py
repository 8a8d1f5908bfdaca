"""The benchmark's two workloads: online campaign and sharded run.

Each workload is a closed loop driven from one client thread.  ``setup``
builds the inputs from the seed; ``episode`` runs the measured work once
and returns what it produced; the shared serving cycle (``serve``) then
rolls a version-pinned :class:`~repro.serve.PredictionService` over every
model the episode published and answers single-point queries plus a batch.

Why these two (also in ``README.md`` next to this file):

* ``campaign_serve`` — an online campaign through the simulated cluster
  that checkpoints every round and publishes every full refit, so
  checkpoint and registry I/O, acquisition and scheduling all weigh in.
* ``sharded_process`` — the only workload that crosses ``parallel.pmap``
  (process backend, two workers), so dispatch cost and BLAS thread
  oversubscription show.  BLAS thread variables are deliberately left
  unset.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import telemetry as tm
from repro.al import CostEfficiency, random_partition
from repro.al.campaign import CampaignConfig, OnlineCampaign
from repro.al.sharding import ShardedLearner, ShardingConfig, mixed_operator_pool
from repro.cluster.jobs import JobSpec
from repro.datasets.generate import ModelExecutor, feasible_configurations
from repro.datasets.schema import FeasibilityRule
from repro.parallel import ParallelMap
from repro.perfmodel.noise import PERFORMANCE_NOISE
from repro.serve import ModelRegistry, PredictionService
from repro.serve.service import DeadlineExceeded, ServiceOverloaded

#: Serving cycle, run after every measured episode on the models it
#: published: each version is loaded (the rollover) about ``ROLLOVERS`` /
#: versions times and then answers its share of about ``QUERIES``
#: single-point ``predict_std`` queries; then the newest version answers
#: one ``BATCH_POINTS`` batch.  A run makes at least three cycles, so at
#: least 2000 queries, spread over the whole run (see ``run.py``).
QUERIES = 700
ROLLOVERS = 4
BATCH_POINTS = 20_000
#: Per-query deadlines; a query past its deadline counts as failed.
QUERY_DEADLINE_S = 0.5
BATCH_DEADLINE_S = 30.0


class Ops:
    """Attempted and failed operations, per operation type."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()

    def add(self, op: str, attempted: int, failed: int = 0) -> None:
        self.attempted[op] += int(attempted)
        self.failed[op] += int(failed)

    def totals(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())

    def table(self) -> str:
        lines = [f"{'operation':<28} {'attempted':>10} {'failed':>8}"]
        for op in sorted(self.attempted):
            lines.append(
                f"{op:<28} {self.attempted[op]:>10d} {self.failed[op]:>8d}"
            )
        return "\n".join(lines)


#: Rounds of the short untimed episode that runs first in every
#: process: the first episode otherwise pays lazy imports and first calls,
#: 10-20% of a campaign episode on the 2-core VM of README.md.
WARMUP_N = 2


@dataclass
class Episode:
    """What one measured episode produced.

    A workload's ``episode(state, workdir, ops, n=None)`` runs ``n`` rounds
    instead of its own count when ``n`` is given (the warm-up).
    """

    run_s: float
    #: Wall time of each round, in order; together they cover the whole
    #: episode, so they sum to ``run_s``.  Repeated episodes on the same
    #: inputs do the same work round by round.
    step_s: list
    #: Workload-specific outputs, read by the workload's ``check``.
    outputs: dict
    #: Registry the episode published to, for the serving cycle.
    registry: ModelRegistry


def _segments(t0: float, stamps: list, t_end: float, n: int) -> list:
    """Split ``[t0, t_end]`` into ``n`` rounds at the round-end ``stamps``.

    The last ``n`` stamps end the rounds (a campaign also checkpoints once
    before its first round).  The first round also holds the start-up
    before it and the last one the wind-down after its checkpoint, so the
    rounds sum to the episode.
    """
    ends = list(stamps[len(stamps) - n :])
    return [float(t) for t in np.diff([t0] + ends[:-1] + [t_end])]


@dataclass
class Verdict:
    """Output checks of one episode.

    A workload's ``check(state, episode, reference=False)`` returns it;
    ``reference=True`` adds the checks that re-run work (the traced run
    asks for them once).
    """

    final_rmse: float
    #: Output identity: equal across repeated episodes and traced/untraced.
    fingerprint: tuple
    problems: list


def counter(name: str) -> int:
    """Current value of one of the program's own telemetry counters."""
    reg = tm.get_registry()
    return int(reg.counter(name).value) if reg is not None else 0


def _rmse(pred, truth) -> float:
    return float(np.sqrt(np.mean((np.asarray(pred) - np.asarray(truth)) ** 2)))


@contextmanager
def round_clock(cls, method: str):
    """Timestamp every call of the per-round checkpoint writer ``cls.method``.

    Campaign and sharded rounds end with exactly one checkpoint write, so
    the gaps between writes are the round times (see ``_segments``).  One
    clock read per round is all this adds to the untraced run.
    """
    original = cls.__dict__[method]
    stamps: list[float] = []

    def stamped(*args, **kwargs):
        result = original(*args, **kwargs)
        stamps.append(time.perf_counter())
        return result

    setattr(cls, method, stamped)
    try:
        yield stamps
    finally:
        setattr(cls, method, original)


# ---------------------------------------------------------- campaign_serve


def _poisson1_candidates() -> np.ndarray:
    return np.array(
        [
            (size, np_ranks, freq)
            for op, size, np_ranks, freq in feasible_configurations()
            if op == "poisson1"
        ],
        dtype=float,
    )


def _held_out_grid(candidates: np.ndarray, executor: ModelExecutor):
    """Off-grid poisson1 points (size and frequency midpoints) with truth."""
    rule = FeasibilityRule()
    sizes = np.unique(candidates[:, 0])
    freqs = np.unique(candidates[:, 2])
    mid_sizes = np.sqrt(sizes[:-1] * sizes[1:])
    mid_freqs = (freqs[:-1] + freqs[1:]) / 2.0
    rows, truth = [], []
    for size in mid_sizes:
        for np_ranks in np.unique(candidates[:, 1]):
            for freq in mid_freqs:
                spec = JobSpec("poisson1", float(size), int(np_ranks), float(freq))
                runtime = executor.estimate(spec)
                if rule.memory_ok(size, int(np_ranks)) and rule.runtime_ok(runtime):
                    rows.append((np.log10(size), np.log2(np_ranks), freq))
                    truth.append(np.log10(runtime))
    return np.asarray(rows, dtype=float), np.asarray(truth)


class CampaignServe:
    """Online campaign over the feasible poisson1 grid, then serving.

    Batch 8, 25 rounds, fast refits with a full refit every 5 rounds; every
    full refit is published and every round checkpointed.  The seed drives
    the campaign's scheduler and measurement noise.
    """

    name = "campaign_serve"
    setup_reps = 10
    batch_size = 8
    n_rounds = 25
    refit_every = 5
    max_rmse = 0.1

    def setup(self, seed: int) -> dict:
        candidates = _poisson1_candidates()
        executor = ModelExecutor()
        grid, truth = _held_out_grid(candidates, executor)
        feats = np.column_stack(
            [np.log10(candidates[:, 0]), np.log2(candidates[:, 1]), candidates[:, 2]]
        )
        return {
            "candidates": candidates,
            "grid": grid,
            "truth": truth,
            "seed": seed,
            "box": (feats.min(axis=0), feats.max(axis=0)),
        }

    def episode(
        self, state: dict, workdir: Path, ops: Ops, n: int | None = None
    ) -> Episode:
        n_rounds = n or self.n_rounds
        registry = ModelRegistry(workdir / "registry")
        submitted0 = counter("campaign.jobs.submitted")
        fallbacks0 = counter("campaign.fit.fallback_model")
        campaign = OnlineCampaign(
            CampaignConfig(
                operator="poisson1",
                candidates=state["candidates"],
                batch_size=self.batch_size,
                n_rounds=n_rounds,
            ),
            ModelExecutor(),
            rng=state["seed"],
            fast_refits=True,
            refit_every=self.refit_every,
            registry=registry,
        )
        with round_clock(OnlineCampaign, "_checkpoint") as stamps:
            t0 = time.perf_counter()
            result = campaign.run(checkpoint_path=workdir / "campaign.json")
            t_end = time.perf_counter()
        run_s = t_end - t0
        step_s = _segments(t0, stamps, t_end, len(result.rounds))
        ops.add("campaign.round", n_rounds, n_rounds - len(result.rounds))
        ops.add(
            "campaign.job",
            counter("campaign.jobs.submitted") - submitted0,
            result.n_failed + result.n_quarantined,
        )
        ops.add(
            "campaign.fit.fallback", 0,
            counter("campaign.fit.fallback_model") - fallbacks0,
        )
        return Episode(run_s, step_s, {"result": result}, registry=registry)

    def check(self, state: dict, ep: Episode, *, reference: bool = False) -> Verdict:
        result = ep.outputs["result"]
        problems = []
        final_rmse = _rmse(result.model.predict(state["grid"]), state["truth"])
        if result.stop_reason != "completed" or len(result.rounds) != self.n_rounds:
            problems.append(f"campaign stopped early: {result.stop_reason}")
        if len(result.y) != 1 + self.n_rounds * self.batch_size:
            problems.append(f"campaign measured {len(result.y)} points")
        if not np.isfinite(final_rmse) or final_rmse > self.max_rmse:
            problems.append(f"final_rmse {final_rmse:.4f} above {self.max_rmse}")
        published, _ = ep.registry.load()
        probe = state["grid"]
        if not np.array_equal(published.predict(probe), result.model.predict(probe)):
            problems.append("published final model differs from the in-memory one")
        return Verdict(
            final_rmse, (result.X.tobytes(), result.y.tobytes(), final_rmse), problems
        )


# --------------------------------------------------------- sharded_process


class ShardedProcess:
    """ShardedLearner, 4 shards, process backend with two workers.

    CostEfficiency, batch 4, 12 rounds, a checkpoint every round, final
    shard models published as one bundle.  The pool's configurations, the partition and
    the sharding seed (cells, model seeds) are fixed; the seed draws the
    measured runtimes.  The reference check
    (made by the traced run) re-runs the episode on the serial backend,
    which must give the bit-identical result.
    """

    name = "sharded_process"
    setup_reps = 20
    n_points = 600
    n_shards = 4
    batch_size = 4
    n_rounds = 12
    n_workers = 2
    sharding_seed = 13
    partition_seed = 9
    max_rmse = 0.2

    def setup(self, seed: int) -> dict:
        # Fixed configurations, measured anew from the seed: the seed draws
        # the runtime noise (as mixed_operator_pool does) on a fixed design
        # and a fixed partition.  Drawing the partition from the seed
        # instead moves final_rmse by ~30% from seed to seed, because
        # CostEfficiency leaves some partitions' corners unsampled.
        X, clean_log, _ = mixed_operator_pool(self.n_points, seed=5, noise=None)
        runtime = PERFORMANCE_NOISE.apply(
            10.0**clean_log, np.random.default_rng(seed)
        )
        partition = random_partition(
            self.n_points, rng=self.partition_seed,
            n_initial=self.n_points // 8, test_fraction=0.25,
        )
        return {
            "X": X,
            "y": np.log10(runtime),
            "costs": runtime * 2.0 ** X[:, 2],  # runtime x ranks
            "partition": partition,
            "seed": seed,
            "box": (X.min(axis=0), X.max(axis=0)),
        }

    def _learner(self, state, pmap, registry=None, n_rounds=None) -> ShardedLearner:
        return ShardedLearner(
            state["X"], state["y"], state["costs"], state["partition"],
            config=ShardingConfig(
                n_shards=self.n_shards,
                n_rounds=n_rounds or self.n_rounds,
                batch_size=self.batch_size,
                seed=self.sharding_seed,
            ),
            strategy=CostEfficiency(),
            pmap=pmap,
            registry=registry,
        )

    def episode(
        self, state: dict, workdir: Path, ops: Ops, n: int | None = None
    ) -> Episode:
        n_rounds = n or self.n_rounds
        registry = ModelRegistry(workdir / "registry")
        counters0 = {
            name: counter(name)
            for name in (
                "shard.fit.total", "shard.fit.failures", "shard.fit.corrupt",
                "parallel.task.retries", "parallel.task.timeouts",
                "parallel.worker.deaths",
            )
        }
        with round_clock(ShardedLearner, "_write_checkpoint") as stamps:
            t0 = time.perf_counter()
            learner = self._learner(
                state, ParallelMap("process", self.n_workers), registry, n_rounds
            )
            result = learner.run(checkpoint_dir=workdir / "checkpoint")
            t_end = time.perf_counter()
        run_s = t_end - t0
        step_s = _segments(t0, stamps, t_end, len(result.rounds))
        delta = {name: counter(name) - v for name, v in counters0.items()}
        ops.add("shard.round", n_rounds, n_rounds - len(result.rounds))
        ops.add(
            "shard.fit", delta["shard.fit.total"],
            delta["shard.fit.failures"] + delta["shard.fit.corrupt"],
        )
        ops.add(
            "parallel.task", 0,
            delta["parallel.task.retries"] + delta["parallel.task.timeouts"]
            + delta["parallel.worker.deaths"],
        )
        return Episode(run_s, step_s, {"result": result}, registry=registry)

    def check(self, state: dict, ep: Episode, *, reference: bool = False) -> Verdict:
        result = ep.outputs["result"]
        problems = []
        final_rmse = _rmse(result.model.predict(state["X"]), state["y"])
        if result.stop_reason != "completed" or len(result.rounds) != self.n_rounds:
            problems.append(f"sharded run stopped early: {result.stop_reason}")
        if not np.isfinite(final_rmse) or final_rmse > self.max_rmse:
            problems.append(f"final_rmse {final_rmse:.4f} above {self.max_rmse}")
        if reference:
            # Bit-identity contract: the serial backend gives the same result.
            serial = self._learner(state, ParallelMap("serial")).run()
            same = (
                np.array_equal(serial.X, result.X)
                and np.array_equal(serial.y, result.y)
                and serial.rounds == result.rounds
                and np.array_equal(
                    serial.model.predict(state["X"]),
                    result.model.predict(state["X"]),
                )
            )
            if not same:
                problems.append("process backend result differs from the serial one")
        return Verdict(
            final_rmse, (result.X.tobytes(), result.y.tobytes(), final_rmse), problems
        )


WORKLOADS = {w.name: w for w in (CampaignServe(), ShardedProcess())}


# ----------------------------------------------------------------- serving


@dataclass
class Served:
    """One serving cycle's timings plus the answers kept for ``verify_served``.

    ``load_s`` are the rollovers, ``query_s`` the answered single-point
    queries and ``batch_s`` the batch, in seconds.
    """

    load_s: list
    query_s: list
    batch_s: float
    #: ``(model, rows, answers, pinned version, served version)`` per
    #: version.
    answers: list
    batch: np.ndarray
    #: The batch service's model and its answer to ``batch``.
    batch_model: object
    batch_answer: tuple
    chunk_size: int


def serve(ep: Episode, workdir: Path, box, seed: int, ops: Ops) -> Served:
    """Roll pinned services over the published versions and query them.

    One client, closed loop.  For each version in turn: start a
    version-pinned service on it (the rollover; repeated so that the cycle
    makes about ``ROLLOVERS`` of them) and send the last one its share of
    ``QUERIES`` back-to-back single-point ``predict_std`` queries.  Then a
    service pinned to the newest version answers the ``BATCH_POINTS``
    batch.  Rows come from the seed alone, so every cycle of a run asks
    the same questions and loads the same versions equally often.
    """
    registry = ep.registry
    versions = [meta.version for meta in registry.versions()]
    rng = np.random.default_rng([seed, 7])
    lo, hi = box
    batch = rng.uniform(lo, hi, size=(BATCH_POINTS, len(lo)))
    per_version = math.ceil(QUERIES / len(versions))
    loads = math.ceil(ROLLOVERS / len(versions))
    rows = rng.uniform(lo, hi, size=(len(versions), per_version, 1, len(lo)))
    load_s, query_s, kept = [], [], []
    refused = late = 0
    for version, version_rows in zip(versions, rows):
        for _ in range(loads):
            t0 = time.perf_counter()
            service = PredictionService(
                registry, version=version, deadline_s=QUERY_DEADLINE_S
            )
            load_s.append(time.perf_counter() - t0)
        answered, answers = [], []
        for row in version_rows:
            t0 = time.perf_counter()
            try:
                answer = service.predict_std(row)
            except ServiceOverloaded:
                refused += 1
                continue
            except DeadlineExceeded:
                late += 1
                continue
            query_s.append(time.perf_counter() - t0)
            answered.append(row)
            answers.append(answer)
        kept.append((service.model, answered, answers, version, service.version))
    batch_service = PredictionService(registry, version=versions[-1])
    t0 = time.perf_counter()
    batch_answer = batch_service.predict_std(batch, deadline_s=BATCH_DEADLINE_S)
    batch_s = time.perf_counter() - t0

    ops.add("serve.rollover", len(versions) * loads)
    ops.add("serve.query", len(versions) * per_version + 1, refused + late)
    return Served(
        load_s=load_s,
        query_s=query_s,
        batch_s=batch_s,
        answers=kept,
        batch=batch,
        batch_model=batch_service.model,
        batch_answer=batch_answer,
        chunk_size=batch_service.chunk_size,
    )


def verify_served(cycles: list, ops: Ops) -> tuple[list, float]:
    """Served answers must equal the loaded model's own ``predict`` bit for bit.

    ``cycles`` are the run's serving cycles.  Every single-point answer is
    checked; the batch is checked in full on the first cycle, and the later
    cycles, which serve the same model, must give the same batch answer.
    Returns the problems found and the largest deviation of the served
    batch from one unchunked ``predict`` over all its rows.
    """
    problems = []
    mismatched = 0
    for served in cycles:
        for model, rows, answers, pinned, serving in served.answers:
            if serving != pinned:
                problems.append(f"service pinned to v{pinned} serves v{serving}")
            for row, (mu, sd) in zip(rows, answers):
                ref_mu, ref_sd = model.predict(row, return_std=True)
                if not (np.array_equal(mu, ref_mu) and np.array_equal(sd, ref_sd)):
                    mismatched += 1

    # The service predicts chunk by chunk; each chunk must match the loaded
    # model's predict on that chunk bit for bit.  One unchunked predict over
    # all rows may differ from it in the last ulp (BLAS blocks the shapes
    # differently), so that deviation is reported, and only a gross one
    # fails.
    first = cycles[0]
    model, batch, step = first.batch_model, first.batch, first.chunk_size
    chunks = [
        model.predict(batch[i : i + step], return_std=True)
        for i in range(0, len(batch), step)
    ]
    ref_mu = np.concatenate([c[0] for c in chunks])
    ref_sd = np.concatenate([c[1] for c in chunks])
    for served in cycles:
        mu, sd = served.batch_answer
        if not (np.array_equal(mu, ref_mu) and np.array_equal(sd, ref_sd)):
            mismatched += 1
    whole_mu, whole_sd = model.predict(batch, return_std=True)
    deviation = max(
        float(np.max(np.abs(ref_mu - whole_mu))),
        float(np.max(np.abs(ref_sd - whole_sd))),
    )
    if not deviation <= 1e-9 * max(1.0, float(np.max(np.abs(whole_mu)))):
        problems.append(f"served batch is {deviation:g} off the unchunked predict")
    if mismatched:
        problems.append(f"{mismatched} served answers differ from the loaded model")
    ops.add("serve.query", 0, mismatched)
    return problems, deviation
