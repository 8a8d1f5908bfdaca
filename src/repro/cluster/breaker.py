"""Per-node circuit breakers for the simulated cluster.

A real campaign that keeps dispatching to a dead node burns its whole
retry budget re-measuring the same crash.  The standard fix is the
circuit-breaker pattern, applied here per node:

* **closed** — the node takes jobs normally; consecutive (or windowed)
  job failures are counted;
* **open** — after ``failure_threshold`` consecutive failures (or a
  windowed failure rate above ``window_failure_rate``) the node stops
  receiving jobs for ``cooldown_seconds`` of simulated time;
* **half-open** — once the cooldown expires, at most
  ``half_open_max_probes`` concurrent *probe* jobs may land on the node:
  a probe success closes the breaker (full trust restored), a probe
  failure re-opens it;
* **blacklisted** — a node that re-opens ``max_opens`` times is considered
  permanently dead and never probed again.

:class:`~repro.cluster.scheduler.SlurmSimulator` consults the breaker when
placing jobs (open/blacklisted nodes are invisible to scheduling), feeds
every job completion back in, and — because simulated time only advances
through events — fast-forwards over cooldowns when the queue would
otherwise stall.  When pending work can *never* be placed (every node
open or blacklisted, or a job wider than the surviving nodes), the
scheduler raises :class:`AllNodesOpenError` instead of deadlocking.

All state transitions emit telemetry counters (``breaker.open``,
``breaker.close``, ``breaker.half_open``, ``breaker.blacklist``,
``breaker.probe``) and a ``breaker.transition`` trace event through the
:mod:`repro.telemetry` hooks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .. import telemetry as tm

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "BLACKLISTED",
    "BreakerConfig",
    "NodeCircuitBreaker",
    "AllNodesOpenError",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"
BLACKLISTED = "blacklisted"


class AllNodesOpenError(RuntimeError):
    """Pending jobs can never be placed: the breaker has isolated the cluster.

    Raised by :class:`~repro.cluster.scheduler.SlurmSimulator` instead of
    deadlocking.  The message names the per-node breaker states and the
    available remediations (raise ``failure_threshold``, extend
    ``cooldown_seconds``, raise ``max_opens``, replace the hardware, or
    disable the breaker) so an operator can act on it directly.
    """


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recovery parameters of a per-node circuit breaker.

    Attributes
    ----------
    failure_threshold:
        Consecutive job failures that trip a closed breaker open.
    window / window_failure_rate:
        Optional second trip condition: with ``window_failure_rate`` set,
        the breaker also opens when at least that fraction of the last
        ``window`` jobs on the node failed (catches flaky nodes that
        intersperse successes).  ``None`` (default) disables it.
    cooldown_seconds:
        Time an open breaker waits before going half-open, measured in
        the caller's clock: simulated seconds for the scheduler, AL
        rounds for the shard supervisor (:mod:`repro.al.sharding`).
    half_open_max_probes:
        Concurrent probe jobs allowed on a half-open node.
    max_opens:
        Times a node may trip open before it is permanently blacklisted.
    """

    failure_threshold: int = 3
    window: int = 8
    window_failure_rate: float | None = None
    cooldown_seconds: float = 1800.0
    half_open_max_probes: int = 1
    max_opens: int = 3

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.window_failure_rate is not None and not (
            0.0 < self.window_failure_rate <= 1.0
        ):
            raise ValueError("window_failure_rate must be in (0, 1] or None")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be >= 0")
        if self.half_open_max_probes < 1:
            raise ValueError("half_open_max_probes must be >= 1")
        if self.max_opens < 1:
            raise ValueError("max_opens must be >= 1")


@dataclass
class _NodeState:
    state: str = CLOSED
    consecutive_failures: int = 0
    recent: deque = field(default_factory=deque)  # of bools: failed?
    opened_at: float = 0.0
    n_opens: int = 0
    probing: int = 0  # in-flight probe jobs while half-open


class NodeCircuitBreaker:
    """Closed -> open -> half-open state machine for every cluster node.

    Time is supplied by the caller on every query (the scheduler's
    simulated clock, offset to the campaign-global timeline by
    :class:`~repro.cluster.scheduler.SlurmSimulator`'s
    ``breaker_clock_offset``; or the AL round index when
    :class:`~repro.al.sharding.ShardSupervisor` runs one breaker seat per
    shard); open->half-open transitions are resolved lazily against it,
    so the breaker has no clock of its own and :meth:`as_dict` /
    :meth:`from_dict` round-trip it exactly.

    Counters (``n_opened``, ``n_closed``, ``n_blacklisted``, ``n_probes``)
    accumulate over the breaker's lifetime for campaign accounting.
    """

    def __init__(self, config: BreakerConfig | None = None, *, n_nodes: int = 4):
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.config = config or BreakerConfig()
        self.n_nodes = int(n_nodes)
        self._nodes = {i: _NodeState() for i in range(self.n_nodes)}
        self.n_opened = 0
        self.n_closed = 0
        self.n_blacklisted = 0
        self.n_probes = 0

    # ------------------------------------------------------------------ queries

    def _resolve(self, node: int, t: float) -> _NodeState:
        ns = self._nodes[node]
        if ns.state == OPEN and t >= ns.opened_at + self.config.cooldown_seconds:
            ns.state = HALF_OPEN
            ns.probing = 0
            tm.count("breaker.half_open")
            tm.event("breaker.transition", node=node, to=HALF_OPEN, sim_t=t)
        return ns

    def state(self, node: int, t: float) -> str:
        """The node's breaker state at simulated time ``t``."""
        return self._resolve(node, t).state

    def allow(self, node: int, t: float) -> bool:
        """May a new job start on ``node`` at time ``t``?"""
        ns = self._resolve(node, t)
        if ns.state == CLOSED:
            return True
        if ns.state == HALF_OPEN:
            return ns.probing < self.config.half_open_max_probes
        return False

    def allowed_nodes(self, t: float) -> list[int]:
        """Nodes that may receive a job at time ``t`` (sorted)."""
        return [n for n in range(self.n_nodes) if self.allow(n, t)]

    def placeable_nodes(self) -> int:
        """Nodes not permanently blacklisted (upper bound on future capacity)."""
        return sum(1 for ns in self._nodes.values() if ns.state != BLACKLISTED)

    def next_transition_time(self, t: float) -> float | None:
        """Earliest future open->half-open transition, or ``None``.

        Lets the scheduler fast-forward an otherwise-stalled queue across a
        cooldown instead of deadlocking.
        """
        times = [
            ns.opened_at + self.config.cooldown_seconds
            for node, ns in self._nodes.items()
            if self._resolve(node, t).state == OPEN
        ]
        future = [x for x in times if x > t]
        return min(future) if future else None

    def snapshot(self, t: float) -> dict[int, str]:
        """Per-node states at time ``t`` (for error messages and telemetry)."""
        return {node: self.state(node, t) for node in range(self.n_nodes)}

    # ------------------------------------------------------------------ updates

    def on_job_start(self, nodes, t: float) -> None:
        """Note a job starting on ``nodes``; half-open nodes count a probe."""
        for node in nodes:
            ns = self._resolve(int(node), t)
            if ns.state == HALF_OPEN:
                ns.probing += 1
                self.n_probes += 1
                tm.count("breaker.probe")
                tm.event("breaker.probe", node=int(node), sim_t=t)

    def record_success(self, node: int, t: float) -> None:
        """A job on ``node`` completed cleanly."""
        ns = self._resolve(int(node), t)
        if ns.state == HALF_OPEN:
            # Probe success: full trust restored.
            if ns.probing > 0:
                ns.probing -= 1
            ns.state = CLOSED
            ns.consecutive_failures = 0
            ns.recent.clear()
            self.n_closed += 1
            tm.count("breaker.close")
            tm.event("breaker.transition", node=int(node), to=CLOSED, sim_t=t)
            return
        if ns.state == CLOSED:
            ns.consecutive_failures = 0
            self._push_recent(ns, False)

    def record_failure(self, node: int, t: float) -> None:
        """A job on ``node`` ended FAILED/TIMEOUT."""
        ns = self._resolve(int(node), t)
        if ns.state == HALF_OPEN:
            # Probe failure: straight back to open (or blacklist).
            if ns.probing > 0:
                ns.probing -= 1
            self._open(int(node), ns, t)
            return
        if ns.state != CLOSED:
            return  # failures of jobs started before the trip
        ns.consecutive_failures += 1
        self._push_recent(ns, True)
        cfg = self.config
        tripped = ns.consecutive_failures >= cfg.failure_threshold
        if not tripped and cfg.window_failure_rate is not None:
            if len(ns.recent) == cfg.window:
                rate = sum(ns.recent) / cfg.window
                tripped = rate >= cfg.window_failure_rate
        if tripped:
            self._open(int(node), ns, t)

    # -------------------------------------------------------------- persistence

    def as_dict(self) -> dict:
        """JSON-ready snapshot of every node's state and the counters."""
        return {
            "nodes": [
                {
                    "state": ns.state,
                    "consecutive_failures": ns.consecutive_failures,
                    "recent": list(ns.recent),
                    "opened_at": ns.opened_at,
                    "n_opens": ns.n_opens,
                    "probing": ns.probing,
                }
                for ns in self._nodes.values()
            ],
            "n_opened": self.n_opened,
            "n_closed": self.n_closed,
            "n_blacklisted": self.n_blacklisted,
            "n_probes": self.n_probes,
        }

    @classmethod
    def from_dict(
        cls, data: dict, *, n_nodes: int, config: BreakerConfig | None = None
    ) -> "NodeCircuitBreaker":
        """Rebuild a breaker from :meth:`as_dict` output."""
        nodes = data["nodes"]
        if len(nodes) != n_nodes:
            raise ValueError(
                f"breaker state has {len(nodes)} nodes, expected {n_nodes}"
            )
        breaker = cls(config, n_nodes=n_nodes)
        for i, d in enumerate(nodes):
            breaker._nodes[i] = _NodeState(
                state=str(d["state"]),
                consecutive_failures=int(d["consecutive_failures"]),
                recent=deque(bool(v) for v in d["recent"]),
                opened_at=float(d["opened_at"]),
                n_opens=int(d["n_opens"]),
                probing=int(d["probing"]),
            )
        for name in ("n_opened", "n_closed", "n_blacklisted", "n_probes"):
            setattr(breaker, name, int(data[name]))
        return breaker

    # ----------------------------------------------------------------- internal

    def _push_recent(self, ns: _NodeState, failed: bool) -> None:
        ns.recent.append(failed)
        while len(ns.recent) > self.config.window:
            ns.recent.popleft()

    def _open(self, node: int, ns: _NodeState, t: float) -> None:
        ns.n_opens += 1
        ns.consecutive_failures = 0
        ns.recent.clear()
        if ns.n_opens >= self.config.max_opens:
            ns.state = BLACKLISTED
            self.n_blacklisted += 1
            tm.count("breaker.blacklist")
            tm.event("breaker.transition", node=node, to=BLACKLISTED, sim_t=t)
            return
        ns.state = OPEN
        ns.opened_at = t
        self.n_opened += 1
        tm.count("breaker.open")
        tm.event("breaker.transition", node=node, to=OPEN, sim_t=t)

    def describe_stall(self, t: float, n_nodes_needed: int) -> str:
        """Actionable message for :class:`AllNodesOpenError`."""
        states = self.snapshot(t)
        listing = ", ".join(f"node{n}={s}" for n, s in states.items())
        return (
            f"cannot place pending jobs: {n_nodes_needed} node(s) needed but "
            f"the circuit breaker leaves none eligible ({listing}). "
            "Remediations: inspect per-node failure telemetry "
            "(breaker.transition events), raise failure_threshold or "
            "max_opens, extend cooldown_seconds, replace the failed "
            "hardware, or run without a breaker."
        )
