"""Deterministic wire-level fault injection for the networked service.

The paper's claims are about behaviour *under failures*: up to ``t``
servers may stop while reads must stay fast and atomic.  The socket
runtime's only fault so far was a hard ``kill_server``; this module adds
the whole regime in between — frames lost, delayed, duplicated and
reordered per link, links partitioned for windows of time, servers
killed and restarted mid-run — as one declarative, serializable
:class:`FaultPlan`.

Three properties the design guarantees:

* **Determinism.**  Every probabilistic decision is drawn from a
  :func:`~repro.sim.rng.derive_seed` substream keyed by
  ``(plan seed, side, shard, server, direction)``; the *n*-th frame on a
  link always receives the same fate for the same plan.  Each link
  stream maintains its own running digest, so an executed run's
  injected-fault trace is byte-replayable from the serialized plan plus
  the per-link frame counters (:meth:`ChaosInjector.replay_digest`) —
  independent of socket timing, which only affects how the per-link
  streams interleave.
* **Budget honesty.**  A plan is validated against the unified adversary
  model (:class:`repro.adversary.Adversary`): its peak number of
  concurrently *failed* servers (killed, partitioned, or behind a
  ``drop=1.0`` link) must fit the declared crash budget ``t``, and its
  fresh-state restarts the Byzantine budget ``b``, unless the plan
  explicitly opts out with ``allow_beyond_budget`` — a chaotic run
  cannot silently exceed the model it claims to test.
* **Graceful degradation is observable.**  The
  :class:`DegradationLedger` counts every operation as fast, slow or
  timed out, tracks per-server link uptime and the client pool's
  reconnect/retransmit work, and merges across load shards — the
  structured report a beyond-``t`` run exits with.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.adversary.model import Adversary
from repro.errors import ConfigurationError
from repro.registers.base import ClusterConfig
from repro.sim.rng import derive_seed, substream

PLAN_FORMAT = "repro-fault-plan/v1"
RUN_FORMAT = "repro-chaos-run/v1"

#: Draws per decision, in fixed order (drop, duplicate, reorder, delay
#: gate, delay magnitude).  The count is part of the wire-trace contract:
#: decision ``n`` of a link stream is always draws ``5n..5n+4``.
_DRAWS_PER_DECISION = 5


@dataclass(frozen=True)
class LinkFaults:
    """Per-link fault probabilities (one link = one server's connection).

    ``drop``/``duplicate``/``reorder`` are per-frame probabilities;
    ``delay`` is the probability a frame is held for a uniform draw from
    ``[delay_min, delay_max]`` seconds.  ``drop=1.0`` is a full outage
    and counts as a *failed server* for budget purposes.
    """

    drop: float = 0.0
    delay: float = 0.0
    delay_min: float = 0.001
    delay_max: float = 0.02
    duplicate: float = 0.0
    reorder: float = 0.0

    def validate(self) -> None:
        for name in ("drop", "delay", "duplicate", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(
                    f"link fault {name}={p} is not a probability"
                )
        if self.delay_min < 0 or self.delay_max < self.delay_min:
            raise ConfigurationError(
                f"bad delay range [{self.delay_min}, {self.delay_max}]"
            )

    @property
    def full_outage(self) -> bool:
        return self.drop >= 1.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "drop": self.drop,
            "delay": self.delay,
            "delay_min": self.delay_min,
            "delay_max": self.delay_max,
            "duplicate": self.duplicate,
            "reorder": self.reorder,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "LinkFaults":
        return cls(**{key: float(value) for key, value in record.items()})


@dataclass(frozen=True)
class Partition:
    """Link to ``server`` is cut during ``[start, end)`` (run-relative s)."""

    server: int
    start: float
    end: float

    def active(self, elapsed: float) -> bool:
        return self.start <= elapsed < self.end

    def to_dict(self) -> Dict[str, Any]:
        return {"server": self.server, "start": self.start, "end": self.end}

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Partition":
        return cls(
            server=int(record["server"]),
            start=float(record["start"]),
            end=float(record["end"]),
        )


@dataclass(frozen=True)
class ServerEvent:
    """Kill server ``server`` at ``kill_at``; restart it at ``restart_at``.

    The restart is *fresh-state*: the replica comes back having forgotten
    every write it acknowledged, which Section 6.2 counts as a Byzantine
    failure.  So a restarted server stays charged to the crash budget
    ``t`` until the end of the run and also spends one of ``b``
    (``restart_at=None`` = never restarts).
    """

    server: int
    kill_at: float
    restart_at: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "server": self.server,
            "kill_at": self.kill_at,
            "restart_at": self.restart_at,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "ServerEvent":
        restart = record.get("restart_at")
        return cls(
            server=int(record["server"]),
            kill_at=float(record["kill_at"]),
            restart_at=None if restart is None else float(restart),
        )


@dataclass(frozen=True)
class FaultPlan:
    """One declarative, replayable chaos recipe.

    ``links`` overrides the ``default`` faults for specific servers
    (1-based indices).  ``reorder_hold`` is the extra holdback a
    reordered frame suffers on top of any sampled delay — long enough to
    land behind subsequent undelayed traffic on the same link.
    """

    seed: int = 0
    default: LinkFaults = field(default_factory=LinkFaults)
    links: Tuple[Tuple[int, LinkFaults], ...] = ()
    partitions: Tuple[Partition, ...] = ()
    events: Tuple[ServerEvent, ...] = ()
    reorder_hold: float = 0.05
    allow_beyond_budget: bool = False
    label: str = ""

    # ------------------------------------------------------------------
    # lookups

    def link(self, server: int) -> LinkFaults:
        for index, faults in self.links:
            if index == server:
                return faults
        return self.default

    def partitioned(self, server: int, elapsed: float) -> bool:
        return any(
            p.server == server and p.active(elapsed) for p in self.partitions
        )

    # ------------------------------------------------------------------
    # budget accounting (the adversary-model seam)

    def _failure_intervals(self, server: int) -> List[Tuple[float, float]]:
        """Windows during which ``server`` counts as failed: a killed
        server from ``kill_at`` on, whether or not it restarts."""
        intervals: List[Tuple[float, float]] = []
        if self.link(server).full_outage:
            intervals.append((0.0, float("inf")))
        for p in self.partitions:
            if p.server == server and p.end > p.start:
                intervals.append((p.start, p.end))
        for e in self.events:
            if e.server == server:
                # Restarted or not, it stays charged to the end of the run:
                # a fresh-state replica has forgotten what it acknowledged.
                intervals.append((e.kill_at, float("inf")))
        if not intervals:
            return []
        # Merge overlaps so one flapping server never counts twice.
        intervals.sort()
        merged = [intervals[0]]
        for start, end in intervals[1:]:
            if start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    def max_concurrent_failures(self, servers: Optional[int] = None) -> int:
        """Peak number of servers simultaneously failed under this plan.

        ``servers`` is the cluster's ``S``.  It is needed only when the
        default link is a full outage: then every server without an
        override of its own is failed for the whole run, and without
        ``S`` that count is unknown, so it raises.
        """
        named = {index for index, _ in self.links}
        named.update(p.server for p in self.partitions)
        named.update(e.server for e in self.events)
        if self.default.full_outage:
            if servers is None:
                raise ConfigurationError(
                    "a full-outage default fails every server: counting "
                    "them needs the cluster's S"
                )
            named.update(range(1, servers + 1))
        points: List[Tuple[float, int]] = []
        for server in named:
            for start, end in self._failure_intervals(server):
                points.append((start, 1))
                if end != float("inf"):
                    points.append((end, -1))
        # Closing before opening at equal times: back-to-back windows on
        # different servers do not overlap.
        points.sort(key=lambda item: (item[0], item[1]))
        peak = level = 0
        for _, delta in points:
            level += delta
            peak = max(peak, level)
        return peak

    def adversary(self, servers: Optional[int] = None) -> Adversary:
        """The allowance this plan consumes, in the unified fault model."""
        return Adversary.for_plan(self, servers)

    def beyond_budget(self, t: int, servers: Optional[int] = None, b: int = 0) -> bool:
        """Whether the plan exceeds ``t``, or ``b`` by its fresh-state restarts."""
        adversary = self.adversary(servers)
        return adversary.crash_budget > t or adversary.byzantine_budget > b

    def validate(self, config: ClusterConfig) -> None:
        """Structural checks plus the adversary-model budget check."""
        self.default.validate()
        seen = set()
        for index, faults in self.links:
            if not 1 <= index <= config.S:
                raise ConfigurationError(
                    f"fault plan names server s{index}; cluster has S={config.S}"
                )
            if index in seen:
                raise ConfigurationError(f"duplicate link entry for s{index}")
            seen.add(index)
            faults.validate()
        for p in self.partitions:
            if not 1 <= p.server <= config.S:
                raise ConfigurationError(
                    f"partition names server s{p.server}; cluster has S={config.S}"
                )
            if p.start < 0 or p.end < p.start:
                raise ConfigurationError(
                    f"bad partition window [{p.start}, {p.end})"
                )
        for e in self.events:
            if not 1 <= e.server <= config.S:
                raise ConfigurationError(
                    f"kill event names server s{e.server}; cluster has S={config.S}"
                )
            if e.kill_at < 0 or (
                e.restart_at is not None and e.restart_at <= e.kill_at
            ):
                raise ConfigurationError(
                    f"bad kill/restart times ({e.kill_at}, {e.restart_at})"
                )
        if self.default.full_outage and not self.allow_beyond_budget:
            raise ConfigurationError(
                "default drop=1.0 fails every server; set allow_beyond_budget "
                "to run a beyond-t degradation experiment on purpose"
            )
        if self.reorder_hold < 0:
            raise ConfigurationError("reorder_hold must be non-negative")
        if not self.allow_beyond_budget:
            # The chaos layer may not silently exceed the declared model:
            # its peak failure count must fit the crash allowance.
            self.adversary(config.S).validate(config)

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": PLAN_FORMAT,
            "seed": self.seed,
            "label": self.label,
            "default": self.default.to_dict(),
            "links": {
                str(index): faults.to_dict() for index, faults in self.links
            },
            "partitions": [p.to_dict() for p in self.partitions],
            "events": [e.to_dict() for e in self.events],
            "reorder_hold": self.reorder_hold,
            "allow_beyond_budget": self.allow_beyond_budget,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "FaultPlan":
        if record.get("format", PLAN_FORMAT) != PLAN_FORMAT:
            raise ConfigurationError(
                f"unknown fault-plan format {record.get('format')!r}"
            )
        return cls(
            seed=int(record.get("seed", 0)),
            label=record.get("label", ""),
            default=LinkFaults.from_dict(record.get("default", {})),
            links=tuple(
                sorted(
                    (int(index), LinkFaults.from_dict(faults))
                    for index, faults in record.get("links", {}).items()
                )
            ),
            partitions=tuple(
                Partition.from_dict(p) for p in record.get("partitions", ())
            ),
            events=tuple(
                ServerEvent.from_dict(e) for e in record.get("events", ())
            ),
            reorder_hold=float(record.get("reorder_hold", 0.05)),
            allow_beyond_budget=bool(record.get("allow_beyond_budget", False)),
        )

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        import json

        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # canned plans

    @classmethod
    def generate(
        cls,
        seed: int,
        servers: int,
        t: int,
        beyond: int = 0,
        label: str = "",
    ) -> "FaultPlan":
        """A deterministic canned plan for ``(seed, S, t)``.

        ``beyond=0``: mild frame chaos on every link (drops, delays,
        duplicates, reorders) plus — when ``t >= 1`` — one kill of a
        derived server, so the peak failure count stays ≤ ``t``.  The
        server stays down: a fresh-state restart would spend ``b`` (see
        :class:`ServerEvent`), so restarts come only from plan files.
        ``beyond=k``: ``t + k`` servers suffer a full outage from the
        start (``allow_beyond_budget`` set), the graceful-degradation
        experiment.
        """
        rng = substream(seed, "chaos-plan", servers, t, beyond)
        default = LinkFaults(
            drop=0.03,
            delay=0.2,
            delay_min=0.001,
            delay_max=0.015,
            duplicate=0.03,
            reorder=0.03,
        )
        if beyond > 0:
            victims = sorted(rng.sample(range(1, servers + 1), min(servers, t + beyond)))
            return cls(
                seed=seed,
                label=label or f"generated-beyond-{beyond}",
                default=default,
                links=tuple((v, LinkFaults(drop=1.0)) for v in victims),
                allow_beyond_budget=True,
            )
        events: Tuple[ServerEvent, ...] = ()
        if t >= 1 and servers >= 2:
            victim = rng.randint(1, servers)
            kill_at = 0.8 + rng.random() * 0.4
            events = (ServerEvent(server=victim, kill_at=round(kill_at, 3)),)
        return cls(
            seed=seed,
            label=label or "generated",
            default=default,
            events=events,
        )


class FaultDecision(NamedTuple):
    """The fate of one frame (partitions are applied separately)."""

    drop: bool
    duplicate: bool
    reorder: bool
    delay: float


class ChaosInjector:
    """Frame-layer interceptor executing one :class:`FaultPlan`.

    One injector per client pool, intercepting both directions of its
    links (``side`` keys the decision streams and is recorded in run
    records; load shards pass their ``shard`` index so their decision
    streams are independent).  :meth:`decide` is the pure,
    replayable core — the *n*-th decision of a ``(server, direction)``
    stream depends only on the plan and ``n``; :meth:`apply` adds the
    wall-clock layer (partition windows, asyncio timers) on top.
    """

    def __init__(self, plan: FaultPlan, side: str = "client", shard: int = 0) -> None:
        self.plan = plan
        self.side = side
        self.shard = shard
        self._streams: Dict[Tuple[int, str], random.Random] = {}
        self._digests: Dict[Tuple[int, str], Any] = {}
        self._counters: Dict[Tuple[int, str], int] = {}
        self._origin: Optional[float] = None
        self.stats: Dict[str, int] = {
            "frames": 0,
            "dropped": 0,
            "delayed": 0,
            "duplicated": 0,
            "reordered": 0,
            "partition_dropped": 0,
        }

    # ------------------------------------------------------------------
    # clock

    def start(self, now: Optional[float] = None) -> None:
        if self._origin is None:
            self._origin = time.monotonic() if now is None else now

    def elapsed(self, now: Optional[float] = None) -> float:
        if self._origin is None:
            self.start(now)
        return (time.monotonic() if now is None else now) - self._origin

    # ------------------------------------------------------------------
    # the pure decision core

    def _stream(self, server: int, direction: str) -> random.Random:
        key = (server, direction)
        stream = self._streams.get(key)
        if stream is None:
            stream = random.Random(
                derive_seed(
                    self.plan.seed, "chaos", self.side, self.shard, server, direction
                )
            )
            self._streams[key] = stream
            self._digests[key] = hashlib.blake2b(digest_size=16)
            self._counters[key] = 0
        return stream

    def decide(self, server: int, direction: str) -> FaultDecision:
        """Draw the fate of the next frame on ``(server, direction)``."""
        stream = self._stream(server, direction)
        key = (server, direction)
        n = self._counters[key]
        self._counters[key] = n + 1
        faults = self.plan.link(server)
        u_drop = stream.random()
        u_dup = stream.random()
        u_reorder = stream.random()
        u_delay_gate = stream.random()
        u_delay_mag = stream.random()
        delay = 0.0
        if u_delay_gate < faults.delay:
            delay = faults.delay_min + u_delay_mag * (
                faults.delay_max - faults.delay_min
            )
        decision = FaultDecision(
            drop=u_drop < faults.drop,
            duplicate=u_dup < faults.duplicate,
            reorder=u_reorder < faults.reorder,
            delay=delay,
        )
        self._digests[key].update(
            f"{n}|{int(decision.drop)}{int(decision.duplicate)}"
            f"{int(decision.reorder)}|{decision.delay:.9f}".encode()
        )
        return decision

    # ------------------------------------------------------------------
    # application (wall clock, asyncio)

    def apply(self, server: int, direction: str, fire: Callable[[], None]) -> None:
        """Subject one frame to the plan; ``fire`` transmits/delivers it."""
        self.stats["frames"] += 1
        if self.plan.partitioned(server, self.elapsed()):
            # Time-window cut: outside the replayable decision stream on
            # purpose (it depends on when the frame happened to arrive).
            self.stats["partition_dropped"] += 1
            return
        decision = self.decide(server, direction)
        if decision.drop:
            self.stats["dropped"] += 1
            return
        delay = decision.delay
        if decision.reorder:
            self.stats["reordered"] += 1
            delay += self.plan.reorder_hold
        copies = 2 if decision.duplicate else 1
        if decision.duplicate:
            self.stats["duplicated"] += 1
        if delay > 0:
            self.stats["delayed"] += 1
            import asyncio

            loop = asyncio.get_running_loop()
            for _ in range(copies):
                loop.call_later(delay, fire)
        else:
            for _ in range(copies):
                fire()

    # ------------------------------------------------------------------
    # replayable trace

    @staticmethod
    def _key_str(key: Tuple[int, str]) -> str:
        return f"{key[0]}:{key[1]}"

    def counters(self) -> Dict[str, int]:
        """Per-link decision counts, JSON-keyed (``"3:send"``)."""
        return {
            self._key_str(key): count
            for key, count in sorted(self._counters.items())
        }

    def link_digests(self) -> Dict[str, str]:
        return {
            self._key_str(key): digest.hexdigest()
            for key, digest in sorted(self._digests.items())
        }

    def digest(self) -> str:
        """Order-independent digest over every link stream's digest."""
        return combined_digest(self.link_digests())

    @classmethod
    def replay_digest(
        cls,
        plan: FaultPlan,
        side: str,
        shard: int,
        counters: Dict[str, int],
    ) -> Dict[str, str]:
        """Re-derive the per-link digests for recorded frame counts.

        This is the byte-replay guarantee: the digest of a finished run
        is a pure function of ``(plan, side, shard, counters)``.
        """
        fresh = cls(plan, side=side, shard=shard)
        for key, count in counters.items():
            server_text, _, direction = key.partition(":")
            for _ in range(int(count)):
                fresh.decide(int(server_text), direction)
        return fresh.link_digests()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "side": self.side,
            "shard": self.shard,
            "counters": self.counters(),
            "digests": self.link_digests(),
            "digest": self.digest(),
            "stats": dict(self.stats),
        }


def combined_digest(link_digests: Dict[str, str]) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for key, value in sorted(link_digests.items()):
        hasher.update(f"{key}={value};".encode())
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# reconnect policy


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with bounded multiplicative jitter."""

    base: float = 0.05
    factor: float = 2.0
    cap: float = 2.0
    jitter: float = 0.5

    def delay(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.cap, self.base * self.factor ** max(0, attempt))
        spread = 1.0 - self.jitter + 2.0 * self.jitter * rng.random()
        return raw * spread


# ----------------------------------------------------------------------
# the degradation ledger


class DegradationLedger:
    """What the service delivered while the plan was hurting it.

    Counts each awaited operation as *fast* (completed within
    ``slow_threshold``), *slow*, or *timed out*; tracks per-server link
    uptime and the pool's repair work (reconnects, retransmits).  Shards
    serialize with :meth:`to_dict`; the parent folds them with
    :meth:`merge`.
    """

    def __init__(self, slow_threshold: float = 1.0) -> None:
        self.slow_threshold = slow_threshold
        self.fast = 0
        self.slow = 0
        self.timed_out = 0
        self.retransmits = 0
        self.reconnects = 0
        self.connect_failures = 0
        self._started: Optional[float] = None
        self._finalized: Optional[float] = None
        self._up_since: Dict[int, float] = {}
        self._up_seconds: Dict[int, float] = {}

    # -- lifecycle ------------------------------------------------------

    def start(self, now: float, servers: Tuple[int, ...] = ()) -> None:
        self._started = now
        for server in servers:
            self._up_seconds.setdefault(server, 0.0)

    def finalize(self, now: float) -> None:
        for server in list(self._up_since):
            self.link_down(server, now)
        self._finalized = now

    @property
    def observed_seconds(self) -> float:
        if self._started is None:
            return 0.0
        end = time.monotonic() if self._finalized is None else self._finalized
        return max(0.0, end - self._started)

    # -- recording ------------------------------------------------------

    def op_completed(self, latency: float) -> None:
        if latency <= self.slow_threshold:
            self.fast += 1
        else:
            self.slow += 1

    def op_timed_out(self) -> None:
        self.timed_out += 1

    def link_up(self, server: int, now: float) -> None:
        self._up_seconds.setdefault(server, 0.0)
        self._up_since.setdefault(server, now)

    def link_down(self, server: int, now: float) -> None:
        since = self._up_since.pop(server, None)
        if since is not None:
            self._up_seconds[server] = (
                self._up_seconds.get(server, 0.0) + max(0.0, now - since)
            )

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slow_threshold_s": self.slow_threshold,
            "ops": {
                "fast": self.fast,
                "slow": self.slow,
                "timed_out": self.timed_out,
            },
            "retransmits": self.retransmits,
            "reconnects": self.reconnects,
            "connect_failures": self.connect_failures,
            "observed_s": self.observed_seconds,
            "links": {
                str(server): {"up_s": up}
                for server, up in sorted(self._up_seconds.items())
            },
        }

    @staticmethod
    def merge(records: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Fold shard ledger dicts into one, with uptime fractions."""
        merged: Dict[str, Any] = {
            "slow_threshold_s": 0.0,
            "ops": {"fast": 0, "slow": 0, "timed_out": 0},
            "retransmits": 0,
            "reconnects": 0,
            "connect_failures": 0,
            "observed_s": 0.0,
            "links": {},
        }
        for record in records:
            merged["slow_threshold_s"] = max(
                merged["slow_threshold_s"], record.get("slow_threshold_s", 0.0)
            )
            for bucket in ("fast", "slow", "timed_out"):
                merged["ops"][bucket] += record.get("ops", {}).get(bucket, 0)
            for counter in ("retransmits", "reconnects", "connect_failures"):
                merged[counter] += record.get(counter, 0)
            merged["observed_s"] += record.get("observed_s", 0.0)
            for server, link in record.get("links", {}).items():
                entry = merged["links"].setdefault(server, {"up_s": 0.0})
                entry["up_s"] += link.get("up_s", 0.0)
        observed = merged["observed_s"]
        merged["uptime"] = {
            server: (link["up_s"] / observed if observed > 0 else 0.0)
            for server, link in sorted(merged["links"].items())
        }
        return merged


# ----------------------------------------------------------------------
# run records (the replay artifact)


def build_run_record(
    plan: FaultPlan,
    shards: Dict[int, Dict[str, Any]],
    t: int,
    events: Optional[List[Dict[str, Any]]] = None,
    summary: Optional[Dict[str, Any]] = None,
    servers: Optional[int] = None,
    b: int = 0,
) -> Dict[str, Any]:
    """The serialized artifact a chaotic run leaves behind.

    Carries the full plan (replayable on its own), every shard
    injector's counters + digests (so :func:`verify_run_record` can
    prove the injected-fault trace re-derives byte-identically), the
    kill/restart events actually executed, and a result summary.
    ``servers`` is the cluster's ``S`` (see
    :meth:`FaultPlan.max_concurrent_failures`); ``t`` and ``b`` are its
    budgets (see :meth:`FaultPlan.beyond_budget`).
    """
    return {
        "format": RUN_FORMAT,
        "plan": plan.to_dict(),
        "declared_t": t,
        "declared_b": b,
        "max_concurrent_failures": plan.max_concurrent_failures(servers),
        "within_budget": not plan.beyond_budget(t, servers, b),
        "shards": {str(index): record for index, record in sorted(shards.items())},
        "events_executed": events or [],
        "summary": summary or {},
    }


def verify_run_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Replay a run record's decision streams and compare digests.

    Returns ``{"ok": bool, "shards": {index: {"recorded", "replayed",
    "match"}}}`` — the ``repro chaos-replay`` engine.
    """
    fmt = record.get("format") if isinstance(record, dict) else None
    if fmt != RUN_FORMAT or not isinstance(record.get("plan"), dict):
        raise ConfigurationError(
            f"not a chaos run record (format={fmt!r}, expected {RUN_FORMAT!r} "
            "with a plan)"
        )
    plan = FaultPlan.from_dict(record["plan"])
    outcome: Dict[str, Any] = {"ok": True, "shards": {}}
    for index_text, shard in record.get("shards", {}).items():
        replayed = ChaosInjector.replay_digest(
            plan,
            shard.get("side", "client"),
            int(shard.get("shard", index_text)),
            shard.get("counters", {}),
        )
        recorded = shard.get("digests", {})
        match = replayed == recorded
        outcome["shards"][index_text] = {
            "recorded": combined_digest(recorded),
            "replayed": combined_digest(replayed),
            "match": match,
        }
        outcome["ok"] = outcome["ok"] and match
    return outcome


def plan_summary(plan: FaultPlan, servers: Optional[int] = None) -> str:
    """One human line describing a plan (CLI + load report); ``servers``
    is the cluster's ``S``."""
    d = plan.default
    parts = [
        f"seed={plan.seed}",
        f"drop={d.drop:g}",
        f"delay={d.delay:g}x[{d.delay_min:g},{d.delay_max:g}]s",
        f"dup={d.duplicate:g}",
        f"reorder={d.reorder:g}",
    ]
    outages = [str(i) for i, f in plan.links if f.full_outage]
    if outages:
        parts.append("outage=s" + ",s".join(outages))
    if plan.partitions:
        parts.append(f"partitions={len(plan.partitions)}")
    for e in plan.events:
        restart = "never" if e.restart_at is None else f"{e.restart_at:g}s"
        parts.append(f"kill=s{e.server}@{e.kill_at:g}s/restart@{restart}")
    parts.append(f"peak_failures={plan.max_concurrent_failures(servers)}")
    if plan.allow_beyond_budget:
        parts.append("BEYOND-BUDGET")
    return "  ".join(parts)


__all__ = [
    "BackoffPolicy",
    "ChaosInjector",
    "DegradationLedger",
    "FaultPlan",
    "LinkFaults",
    "Partition",
    "PLAN_FORMAT",
    "RUN_FORMAT",
    "ServerEvent",
    "build_run_record",
    "combined_digest",
    "plan_summary",
    "verify_run_record",
]
