"""Distributed worker fleet: broker, wire format, and shard workers.

Scales the campaign service (:mod:`repro.service`) past one host's
pool: a :class:`CampaignService` in ``execution="distributed"`` mode
publishes its shard spans to a durable lease broker instead of running
them locally, and any number of ``repro worker`` processes execute
them. Three modules, three contracts:

* :mod:`repro.distributed.broker` — stdlib-only SQLite broker: FIFO
  work units claimed under TTL leases with heartbeat/ack, expired
  leases re-enqueued (a killed worker never strands a span);
* :mod:`repro.distributed.wire` — versioned, hash-stamped JSON
  encoding of :class:`repro.faults.batch.ShardTask`: workers refuse
  payloads from a mismatched spec revision instead of mis-executing
  them;
* :mod:`repro.distributed.worker` — the pull-execute-checkpoint loop
  over either transport: direct broker + store access (shared store
  path) or the service's ``/units/*`` HTTP endpoints (multi-host).

The whole layer rides on the per-trial seeding contract: a span's
tallies are a pure function of ``(entropy, lo, hi)`` and the engine
configuration, so *where* it executes is unobservable — distributed
results are bit-identical to the in-process ``CampaignRunner``,
including after killing workers mid-campaign (pinned by
``tests/distributed/``).
"""

from repro.distributed.broker import (
    DEFAULT_LEASE_TTL_S,
    SqliteBroker,
    WorkUnit,
)
from repro.distributed.wire import (
    WIRE_FORMAT,
    WIRE_VERSION,
    WireFormatError,
    decode_task,
    encode_task,
    task_from_wire_dict,
    task_wire_dict,
)
from repro.distributed.worker import (
    BrokerWorkSource,
    HttpWorkSource,
    ShardWorker,
    WorkSource,
    default_worker_id,
)

__all__ = [
    "BrokerWorkSource",
    "DEFAULT_LEASE_TTL_S",
    "HttpWorkSource",
    "ShardWorker",
    "SqliteBroker",
    "WIRE_FORMAT",
    "WIRE_VERSION",
    "WireFormatError",
    "WorkSource",
    "WorkUnit",
    "decode_task",
    "default_worker_id",
    "encode_task",
    "task_from_wire_dict",
    "task_wire_dict",
]
