"""Campaign service layer: submit-and-poll reliability campaigns.

Turns the library's blocking campaign entry points into long-running
service jobs:

* :mod:`repro.service.spec` — declarative, JSON-serializable
  :class:`JobSpec` families covering every campaign workload (fault
  campaigns, drift survival, burst survival, adaptive Wilson-CI runs,
  logic equivalence checks) with full fidelity to the engine
  options;
* :mod:`repro.service.store` — content-addressed persistent result
  store with shard-level checkpoints (identical ``(spec, entropy)``
  submissions dedupe to the cached result; a killed service resumes a
  half-done campaign without redoing completed spans);
* :mod:`repro.service.scheduler` — the asyncio scheduler executing
  jobs as :class:`repro.faults.batch.ShardTask` spans on a process
  pool (``execution="local"``) or publishing them to the
  :mod:`repro.distributed` worker fleet (``execution="distributed"``),
  under the per-trial seeding contract either way, so service-executed
  results are bit-identical to in-process ``CampaignRunner`` runs. Job
  ids wait on one in-process queue; the persisted job record is the
  only durable record of a job;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a small
  stdlib HTTP surface (``repro serve`` / ``repro submit`` /
  ``repro status``) and its Python client.
"""

from repro.service.client import ServiceClient
from repro.service.scheduler import (
    EXECUTION_MODES,
    CampaignService,
    JobRecord,
    UnitFailedError,
    service_info,
)
from repro.service.server import ServiceServer
from repro.service.spec import (
    JOB_KINDS,
    AdaptiveCampaignJobSpec,
    BurstSurvivalJobSpec,
    CampaignJobSpec,
    DriftSurvivalJobSpec,
    InjectorSpec,
    JobSpec,
    LogicEquivalenceJobSpec,
    injector_kinds,
    result_from_dict,
    result_to_dict,
)
from repro.service.store import ResultStore

__all__ = [
    "EXECUTION_MODES",
    "JOB_KINDS",
    "AdaptiveCampaignJobSpec",
    "BurstSurvivalJobSpec",
    "CampaignJobSpec",
    "CampaignService",
    "DriftSurvivalJobSpec",
    "InjectorSpec",
    "JobRecord",
    "JobSpec",
    "LogicEquivalenceJobSpec",
    "ResultStore",
    "ServiceClient",
    "ServiceServer",
    "UnitFailedError",
    "injector_kinds",
    "result_from_dict",
    "result_to_dict",
    "service_info",
]
