"""Deterministic fault-injection harness for the campaign fleet.

The repo's resilience claims — checkpoint-resume bit-identity, lease
expiry re-enqueue, ack-loss idempotency, corrupt-record quarantine —
are only claims until something actually injects the faults. This
module is that something, built around one rule: **every fault is a
pure function of a seed**, so a failing chaos run replays exactly and
a fixed-seed run in CI is a regression test, not a dice roll.

:class:`ChaosPlan` holds the seed and a map of *site* names to
:class:`FaultRule` triggers. A site is one injection point — e.g.
``"source.claim"`` (worker claim RPC), ``"store.put_shard.torn"``
(checkpoint write tears mid-stream) — and each site draws from its own
:class:`random.Random` stream seeded by ``SHA-256(seed, site)``.
Because each call at a site consumes exactly one draw *from that
site's own stream*, whether the k-th call at a site fires is
independent of how worker threads interleave across sites: chaos
decisions replay exactly even in a multi-threaded fleet.

The injection points are thin proxies over the real components —
subclasses where the host code type-checks
(:class:`ChaosStore`/:class:`ChaosClient`), a wrapper where it
duck-types (:class:`ChaosWorkSource` over any
:class:`~repro.distributed.worker.WorkSource`, which is how broker
transport faults reach both the shared-store and HTTP topologies)::

    plan = ChaosPlan(seed=7, rules={
        "source.claim": FaultRule(probability=0.3),
        "store.put_shard.torn": FaultRule(at_calls=(2,)),
    })
    store = ChaosStore(tmp_path, plan)
    source = ChaosWorkSource(BrokerWorkSource(broker, store), plan)

The invariant the chaos matrix pins (``tests/testing/``): under any
plan, a campaign either completes **bit-identical** to
:meth:`CampaignRunner.run_reference` or settles terminally ``failed``
with a structured reason — never a hang, never silent corruption.

Sites the built-in proxies expose
---------------------------------

=================================  ====================================
``client.request.drop``            request never reaches the service
``client.request.delay``           request delayed ~20 ms, then sent
``client.response.drop``           request *took effect*, reply lost
``source.claim``                   claim RPC raises
``source.claim.drop``              unit claimed, response lost (the
                                   lease-expiry race: nobody works the
                                   unit until its TTL lapses)
``source.heartbeat``               heartbeat RPC raises (beat missed)
``source.heartbeat.lost``          heartbeat answers ``False`` (lease
                                   revoked under a live worker)
``source.complete.before``         complete RPC lost before any effect
``source.complete.after``          checkpoint + ack durable, reply lost
``source.ack``                     bare ack RPC raises
``source.fail``                    failure report lost
``store.put.before/.after``        final-record write crashes around
                                   the atomic replace
``store.put_shard.before``         crash before the checkpoint write
``store.put_shard.torn``           checkpoint file torn mid-write
                                   (truncated bytes at the final path)
``store.put_shard.after``          checkpoint durable, crash before ack
``store.put_job.before/.after``    job-record persistence crashes
=================================  ====================================
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.distributed.worker import WorkSource
from repro.service.client import ServiceClient, ServiceUnavailableError
from repro.service.store import ResultStore
from repro.service.spec import result_to_dict

#: Injected delay for ``*.delay`` sites — long enough to reorder async
#: races, short enough to keep chaos suites fast.
DELAY_S = 0.02


class ChaosError(ConnectionError):
    """An injected transport/backend fault (always transient in kind:
    the real operation would have succeeded)."""


class TornWriteError(OSError):
    """An injected crash in the middle of a store write — the caller
    dies exactly as a ``kill -9`` at that boundary would."""


@dataclass(frozen=True)
class FaultRule:
    """When a site fires.

    ``probability`` fires stochastically (from the site's seeded
    stream); ``at_calls`` fires deterministically at those 1-based call
    indices (the crash-consistency suite's "kill at exactly the k-th
    write" knob); ``max_fires`` caps total fires so a fault storm
    eventually clears and the run can converge.
    """

    probability: float = 0.0
    at_calls: Tuple[int, ...] = ()
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], "
                             f"got {self.probability}")
        if any(c < 1 for c in self.at_calls):
            raise ValueError(f"at_calls indices are 1-based, "
                             f"got {self.at_calls}")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError(f"max_fires must be non-negative, "
                             f"got {self.max_fires}")


class ChaosPlan:
    """Seeded fault schedule shared by every proxy in one run.

    Thread-safe: the worker fleet calls in from daemon threads while
    the scheduler calls in from the event loop. Determinism contract:
    for a fixed ``(seed, rules)``, whether the k-th call at a site
    fires is a pure function of ``(site, k)`` — interleaving across
    sites cannot change it (per-site streams, one draw per call).
    """

    def __init__(self, seed: int = 0,
                 rules: Optional[Dict[str, FaultRule]] = None,
                 sink: Optional[Callable[[dict], None]] = None) -> None:
        self.seed = int(seed)
        self.rules = dict(rules or {})
        #: Optional observer called with ``{"site", "call"}`` on every
        #: fire (after the decision, outside the lock). The obs layer
        #: adapts this into ``chaos.fire`` trace events
        #: (:func:`repro.obs.trace.chaos_sink`) so the matrix can
        #: assert scheduled faults against observed ones.
        self.sink = sink
        self._lock = threading.Lock()
        self._streams: Dict[str, random.Random] = {}
        self._calls: Dict[str, int] = {}
        self._fired_at: Dict[str, List[int]] = {}

    @classmethod
    def from_scenario(cls, name: str, seed: int = 0) -> "ChaosPlan":
        """A plan from the :data:`CHAOS_SCENARIOS` preset ``name``."""
        try:
            rules = CHAOS_SCENARIOS[name]
        except KeyError:
            raise ValueError(
                f"unknown chaos scenario {name!r}; known: "
                f"{sorted(CHAOS_SCENARIOS)}") from None
        return cls(seed=seed, rules=rules)

    def _stream(self, site: str) -> random.Random:
        stream = self._streams.get(site)
        if stream is None:
            # SHA-256, not hash(): per-process hash randomization must
            # never leak into the fault schedule.
            digest = hashlib.sha256(
                f"{self.seed}:{site}".encode("utf-8")).digest()
            stream = random.Random(int.from_bytes(digest[:16], "big"))
            self._streams[site] = stream
        return stream

    def should_fire(self, site: str) -> bool:
        """Record one call at ``site``; True when its rule fires.

        Sites without a rule still count calls (the trace shows what a
        scenario *could* have touched) but never fire and never draw.
        """
        with self._lock:
            self._calls[site] = call = self._calls.get(site, 0) + 1
            rule = self.rules.get(site)
            if rule is None:
                return False
            fired = False
            if rule.probability > 0.0:
                # One draw per call, unconditionally, so the stream
                # position always equals the call count — replay holds
                # even when at_calls/max_fires short-circuit the
                # decision.
                fired = self._stream(site).random() < rule.probability
            if call in rule.at_calls:
                fired = True
            fires = self._fired_at.setdefault(site, [])
            if rule.max_fires is not None and len(fires) >= rule.max_fires:
                fired = False
            if fired:
                fires.append(call)
        if fired and self.sink is not None:
            # Outside the lock (the sink may do I/O) and after the
            # decision is recorded: observation must never perturb the
            # schedule, and a broken sink must never block a fault.
            try:
                self.sink({"site": site, "call": call})
            except Exception:  # noqa: BLE001 - telemetry boundary
                pass
        return fired

    def snapshot(self) -> Dict[str, dict]:
        """Per-site ``{"calls": n, "fired_at": [k, ...]}`` trace.

        ``fired_at`` (which call indices fired, per site) is the
        replay-comparable core: it is interleaving-independent, so two
        runs of the same seeded scenario must produce identical values
        — the CI chaos lane's determinism assertion. ``calls`` totals
        are reported for context but may differ across runs whose
        thread timing diverges.
        """
        with self._lock:
            return {site: {"calls": self._calls[site],
                           "fired_at": list(self._fired_at.get(site, []))}
                    for site in sorted(self._calls)}

    def fired(self) -> Dict[str, List[int]]:
        """Just the interleaving-independent half of :meth:`snapshot`:
        per-site fired call indices, sites that never fired omitted."""
        with self._lock:
            return {site: list(fires)
                    for site, fires in sorted(self._fired_at.items())
                    if fires}


# ---------------------------------------------------------------------- #
# Proxies
# ---------------------------------------------------------------------- #


class ChaosStore(ResultStore):
    """A :class:`ResultStore` whose writes can crash at every boundary.

    ``*.before`` faults die with nothing durable; ``*.after`` faults
    die *after* the atomic replace (the checkpoint exists, the caller
    never learns); ``put_shard.torn`` leaves truncated bytes at the
    final path — the state a non-atomic writer would leave, which the
    integrity layer must quarantine on read. Reads are untouched: the
    store's own checked-read path is the subject under test.
    """

    def __init__(self, root, plan: ChaosPlan) -> None:
        super().__init__(root)
        self.plan = plan

    def put(self, key: str, record: dict) -> None:
        if self.plan.should_fire("store.put.before"):
            raise TornWriteError(
                f"chaos: crashed before writing result {key}")
        super().put(key, record)
        if self.plan.should_fire("store.put.after"):
            raise TornWriteError(
                f"chaos: crashed after writing result {key}")

    def put_shard(self, key, lo, hi, result, phases=None) -> None:
        if self.plan.should_fire("store.put_shard.before"):
            raise TornWriteError(
                f"chaos: crashed before checkpoint {key}:{lo}-{hi}")
        if self.plan.should_fire("store.put_shard.torn"):
            path = self._shard_path(key, lo, hi)
            path.parent.mkdir(parents=True, exist_ok=True)
            body = json.dumps({"lo": lo, "hi": hi,
                               "result": result_to_dict(result)})
            path.write_text(body[:max(1, len(body) // 2)])
            raise TornWriteError(
                f"chaos: checkpoint {key}:{lo}-{hi} torn mid-write")
        super().put_shard(key, lo, hi, result, phases=phases)
        if self.plan.should_fire("store.put_shard.after"):
            raise TornWriteError(
                f"chaos: crashed after checkpoint {key}:{lo}-{hi}, "
                f"before ack")

    def put_job(self, job_id: str, record: dict) -> None:
        self._job_write(super().put_job, job_id, record)

    def create_job(self, job_id: str, record: dict) -> bool:
        return self._job_write(super().create_job, job_id, record)

    def _job_write(self, write, job_id: str, record: dict):
        if self.plan.should_fire("store.put_job.before"):
            raise TornWriteError(
                f"chaos: crashed before persisting job {job_id}")
        written = write(job_id, record)
        if self.plan.should_fire("store.put_job.after"):
            raise TornWriteError(
                f"chaos: crashed after persisting job {job_id}")
        return written


class ChaosWorkSource(WorkSource):
    """Fault-wrapped :class:`WorkSource` (claim/heartbeat/ack/complete
    transport) — works over either topology's real source."""

    def __init__(self, inner: WorkSource, plan: ChaosPlan) -> None:
        self.inner = inner
        self.plan = plan

    def claim(self, owner, ttl_s):
        if self.plan.should_fire("source.claim"):
            raise ChaosError("chaos: claim request lost")
        claimed = self.inner.claim(owner, ttl_s)
        if claimed is not None and \
                self.plan.should_fire("source.claim.drop"):
            # The broker leased the unit but the worker never heard:
            # the unit is orphaned until its lease TTL expires and the
            # fleet reclaims it — the lease-expiry race, on demand.
            return None
        return claimed

    def heartbeat(self, unit_id, owner, ttl_s):
        if self.plan.should_fire("source.heartbeat"):
            raise ChaosError("chaos: heartbeat lost")
        if self.plan.should_fire("source.heartbeat.lost"):
            return False
        return self.inner.heartbeat(unit_id, owner, ttl_s)

    def complete(self, unit_id, owner, job_key, lo, hi, tallies,
                 phases=None):
        if self.plan.should_fire("source.complete.before"):
            raise ChaosError("chaos: complete request lost")
        self.inner.complete(unit_id, owner, job_key, lo, hi, tallies,
                            phases=phases)
        if self.plan.should_fire("source.complete.after"):
            # Checkpoint and ack are durable; only the reply vanished.
            # The worker will report a failure for work that succeeded
            # — the dedupe/idempotency machinery must shrug it off.
            raise ChaosError("chaos: complete reply lost")

    def ack(self, unit_id, owner):
        if self.plan.should_fire("source.ack"):
            raise ChaosError("chaos: ack request lost")
        return self.inner.ack(unit_id, owner)

    def fail(self, unit_id, owner, error, requeue):
        if self.plan.should_fire("source.fail"):
            raise ChaosError("chaos: failure report lost")
        self.inner.fail(unit_id, owner, error, requeue)

    def shard_done(self, job_key, lo, hi):
        return self.inner.shard_done(job_key, lo, hi)

    def record_events(self, trace_id, events):
        # Telemetry passes through unfaulted: trace evidence is how
        # the matrix audits the chaos run, so chaos never eats it.
        self.inner.record_events(trace_id, events)


class ChaosClient(ServiceClient):
    """A :class:`ServiceClient` whose transport drops, delays, or
    loses replies (``client.request.drop`` / ``client.request.delay``
    / ``client.response.drop``). Dropped requests surface as
    :class:`ServiceUnavailableError` — exactly what a dead socket
    raises — so the client's own retry path is what gets exercised.
    """

    def __init__(self, url: str = "http://127.0.0.1:8937",
                 timeout: float = 30.0,
                 plan: Optional[ChaosPlan] = None) -> None:
        super().__init__(url, timeout)
        self.plan = plan if plan is not None else ChaosPlan()

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        if self.plan.should_fire("client.request.drop"):
            raise ServiceUnavailableError(
                f"chaos: dropped {method} {path}")
        if self.plan.should_fire("client.request.delay"):
            time.sleep(DELAY_S)
        response = super()._request(method, path, payload)
        if self.plan.should_fire("client.response.drop"):
            # The server processed the request; only the reply died.
            raise ServiceUnavailableError(
                f"chaos: reply lost for {method} {path}")
        return response


# ---------------------------------------------------------------------- #
# Helpers + preset scenarios
# ---------------------------------------------------------------------- #


def corrupt_file(path, seed: int = 0) -> None:
    """Deterministically flip bytes in ``path`` in place (bit-rot /
    bad-sector simulation for integrity tests). The content stays the
    same length and usually stays parseable JSON-wise broken — both
    corruption flavours the checked read must catch."""
    data = bytearray(path.read_bytes() if hasattr(path, "read_bytes")
                     else open(path, "rb").read())
    if not data:
        return
    rng = random.Random(seed)
    for _ in range(max(1, len(data) // 64)):
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    with open(path, "wb") as handle:
        handle.write(bytes(data))


#: Preset rule maps for the CI chaos lane (``ChaosPlan.from_scenario``).
#: Every stochastic rule carries ``max_fires`` so a campaign always has
#: fault-free headroom to converge — the matrix asserts *terminal*
#: outcomes, so scenarios must not be able to fault forever.
CHAOS_SCENARIOS: Dict[str, Dict[str, FaultRule]] = {
    # Worker claim transport flaps; the daemon's backoff must ride it.
    "flaky_claims": {
        "source.claim": FaultRule(probability=0.4, max_fires=8),
    },
    # Acks/completions vanish after taking effect: duplicate delivery
    # via lease expiry; idempotent checkpoints must absorb it.
    "lost_acks": {
        "source.complete.after": FaultRule(probability=0.4, max_fires=4),
        "source.ack": FaultRule(probability=0.3, max_fires=4),
    },
    # Claims succeed broker-side but the worker never hears.
    "lease_races": {
        "source.claim.drop": FaultRule(probability=0.3, max_fires=3),
        "source.heartbeat.lost": FaultRule(probability=0.2, max_fires=2),
    },
    # Checkpoint writes crash at every boundary, including torn bytes
    # the integrity layer must quarantine.
    "torn_checkpoints": {
        "store.put_shard.before": FaultRule(probability=0.2, max_fires=3),
        "store.put_shard.torn": FaultRule(probability=0.2, max_fires=3),
        "store.put_shard.after": FaultRule(probability=0.2, max_fires=3),
    },
    # HTTP client transport drops and delays (wait() retry path).
    "flaky_transport": {
        "client.request.drop": FaultRule(probability=0.25, max_fires=6),
        "client.request.delay": FaultRule(probability=0.25, max_fires=6),
    },
    # Everything at once, capped low enough to converge.
    "mayhem": {
        "source.claim": FaultRule(probability=0.2, max_fires=4),
        "source.complete.after": FaultRule(probability=0.2, max_fires=2),
        "source.heartbeat": FaultRule(probability=0.2, max_fires=2),
        "store.put_shard.torn": FaultRule(probability=0.15, max_fires=2),
        "store.put_shard.after": FaultRule(probability=0.15, max_fires=2),
    },
}
