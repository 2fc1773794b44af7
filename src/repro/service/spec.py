"""Declarative, JSON-serializable campaign job specifications.

A :class:`JobSpec` is the unit of submission to the campaign service:
a plain-data description of one workload that (a) round-trips through
JSON losslessly, (b) validates eagerly (before queueing), and (c) has a
canonical content hash (:meth:`JobSpec.cache_key`) used as the
content-addressed store key — identical ``(spec, entropy)`` submissions
resolve to the same key and therefore dedupe to the same cached result.

Five kinds cover the library's campaign workload families:

=====================  ==================================================
``campaign``           Fault campaign: any :class:`InjectorSpec` through
                       :class:`repro.faults.batch.CampaignRunner`.
``drift_survival``     Drift + abrupt window survival
                       (:func:`repro.reliability.drift_analysis
                       .simulate_drift_survival`).
``burst_survival``     Linear-burst survival
                       (:func:`repro.reliability.burst
                       .simulate_burst_survival`).
``adaptive_campaign``  Wilson-CI early-stopped campaign
                       (:meth:`CampaignRunner.run_adaptive`).
``logic_equivalence``  Benchmark-circuit equivalence check
                       (:mod:`repro.logic.verify`).
=====================  ==================================================

Every campaign-family spec carries the full engine configuration —
``packing`` (``"u8"``/``"u64"``), ``batch_size``,
``include_check_bits``, ``code`` (registered block-code name,
:mod:`repro.core.registry`) — with exactly the
semantics of the in-process :class:`CampaignRunner` knobs; service
execution always uses the **per-trial** seeding contract (the only
relocatable one), so the spec's ``seed`` is the campaign root entropy.
``seed=None`` draws fresh OS entropy once at submission
(:meth:`JobSpec.normalized`); the normalized spec is what gets hashed,
executed, and recorded, making every run reproducible from its record.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Type

from repro.core.blocks import BlockGrid
from repro.core.registry import code_names
from repro.faults.batch import (
    DEFAULT_BATCH_SIZE,
    PACKINGS,
    AdaptiveRunResult,
    CampaignRunner,
)
from repro.faults.campaign import CampaignResult
from repro.faults.drift import DriftInjector, DriftModel
from repro.faults.injector import FaultInjector, LinearBurstInjector
from repro.faults.serialize import (
    build_injector,
    injector_kinds,
    validate_config,
)
from repro.utils.canonical import content_hash
from repro.utils.rng import DRAW_CONTRACT, resolve_entropy

# ---------------------------------------------------------------------- #
# Injector specifications
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class InjectorSpec:
    """Declarative injector description: a kind plus its parameters.

    A thin frozen-dataclass wrapper over the shared injector-config
    registry (:mod:`repro.faults.serialize` — the same kinds the
    distributed wire format speaks). ``params`` holds only JSON
    scalars; unknown kinds and unknown parameter names fail eagerly in
    :meth:`validate`, value errors surface from the injector
    constructors in :meth:`build`.
    """

    kind: str
    params: dict

    def to_config(self) -> dict:
        """The registry-form config ``{"kind", "params"}``."""
        return {"kind": self.kind, "params": dict(self.params)}

    def validate(self) -> None:
        validate_config(self.to_config())
        self.build()

    def build(self) -> FaultInjector:
        """Instantiate the injector (constructor validation applies)."""
        return build_injector(self.to_config())


# ---------------------------------------------------------------------- #
# Job specifications
# ---------------------------------------------------------------------- #

#: kind -> JobSpec subclass, populated by ``_register``.
JOB_KINDS: Dict[str, Type["JobSpec"]] = {}


def _register(cls):
    JOB_KINDS[cls.kind] = cls
    return cls


class JobSpec:
    """Base of the declarative job families (see the module docstring).

    Subclasses are frozen dataclasses whose fields are all JSON scalars
    (plus the nested :class:`InjectorSpec`); ``kind`` is a class-level
    discriminator, serialized alongside the fields.
    """

    kind: ClassVar[str]

    # -- serialization ------------------------------------------------- #

    def to_dict(self) -> dict:
        """Plain-data form, including every field at its current value."""
        out = {"kind": self.kind}
        out.update(dataclasses.asdict(self))
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_dict(data: dict) -> "JobSpec":
        """Rebuild any registered spec kind from its plain-data form."""
        data = dict(data)
        kind = data.pop("kind", None)
        if kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {kind!r}; "
                             f"known: {', '.join(sorted(JOB_KINDS))}")
        cls = JOB_KINDS[kind]
        injector = data.get("injector")
        if injector is not None and not isinstance(injector, InjectorSpec):
            if not isinstance(injector, dict) or \
                    not {"kind", "params"} <= set(injector):
                raise ValueError(
                    "injector must be an object with 'kind' and 'params' "
                    "fields, e.g. {\"kind\": \"uniform\", \"params\": "
                    "{\"probability\": 1e-3}}")
            data["injector"] = InjectorSpec(
                kind=injector["kind"], params=dict(injector["params"]))
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"job kind {kind!r} does not accept fields "
                             f"{unknown}")
        return cls(**data)

    @staticmethod
    def from_json(text: str) -> "JobSpec":
        return JobSpec.from_dict(json.loads(text))

    # -- normalization + content addressing ---------------------------- #

    def normalized(self) -> "JobSpec":
        """This spec with ``seed`` resolved to concrete root entropy.

        ``seed=None`` draws fresh OS entropy (once — the returned spec
        is fully reproducible); integer seeds pass through unchanged.
        """
        return dataclasses.replace(self, seed=resolve_entropy(self.seed))

    @property
    def entropy(self) -> int:
        """Root entropy of a normalized spec."""
        if self.seed is None:
            raise ValueError("spec has no entropy yet; call normalized() "
                             "to resolve seed=None into fresh entropy")
        return int(self.seed)

    def cache_key(self) -> str:
        """Content-addressed store key of this (spec, entropy) pair.

        Defined only for normalized specs: without concrete entropy two
        submissions are *not* the same work, so there is nothing to
        dedupe against. The key also hashes the campaign draw contract
        version (:data:`repro.utils.rng.DRAW_CONTRACT`): the same spec
        yields different tallies under another contract, so records and
        shard checkpoints written under one are never served or merged
        under another.
        """
        if self.seed is None:
            raise ValueError("cache_key requires a normalized spec "
                             "(seed resolved to concrete entropy)")
        return content_hash({"draw_contract": DRAW_CONTRACT,
                             "spec": self.to_dict()})

    # -- validation ----------------------------------------------------- #

    def validate(self) -> None:
        """Raise on any invalid field combination (eager, pre-queue)."""
        raise NotImplementedError


class _CampaignFamilySpec(JobSpec):
    """Shared surface of the sharded campaign-family kinds.

    Each subclass describes a grid geometry, an injector, and the
    engine configuration; :meth:`build_runner` materializes the
    per-trial-seeded :class:`CampaignRunner` whose results define what
    the service must reproduce bit-for-bit.
    """

    def build_injector(self) -> FaultInjector:
        raise NotImplementedError

    def build_grid(self) -> BlockGrid:
        return BlockGrid(self.n, self.m)

    def build_runner(self, workers: int = 1) -> CampaignRunner:
        """The in-process runner this spec's service execution mirrors."""
        return CampaignRunner(
            self.build_grid(), self.build_injector(), seed=self.entropy,
            include_check_bits=self.include_check_bits,
            batch_size=self.batch_size, workers=workers,
            seeding="per-trial", packing=self.packing, code=self.code)

    def _validate_engine_fields(self) -> None:
        self.build_grid()
        self.build_injector()
        if self.seed is not None and not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer or None, "
                             f"got {self.seed!r}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, "
                             f"got {self.batch_size}")
        if self.packing not in PACKINGS:
            raise ValueError(f"packing must be one of {PACKINGS}, "
                             f"got {self.packing!r}")
        if self.code not in code_names():
            raise ValueError(
                f"code {self.code!r} is not registered; "
                f"registered: {', '.join(code_names())}")

    def validate(self) -> None:
        self._validate_engine_fields()
        if self.trials <= 0:
            raise ValueError(f"trials must be positive, got {self.trials}")


@_register
@dataclass(frozen=True)
class CampaignJobSpec(_CampaignFamilySpec):
    """Fixed-size fault campaign: ``trials`` trials of one injector."""

    kind: ClassVar[str] = "campaign"

    n: int
    m: int
    injector: InjectorSpec
    trials: int
    seed: Optional[int] = None
    include_check_bits: bool = True
    batch_size: int = DEFAULT_BATCH_SIZE
    packing: str = "u8"
    code: str = "diagonal"

    def validate(self) -> None:
        self.injector.validate()
        super().validate()

    def build_injector(self) -> FaultInjector:
        return self.injector.build()


@_register
@dataclass(frozen=True)
class DriftSurvivalJobSpec(_CampaignFamilySpec):
    """Drift + abrupt exposure-window survival campaign."""

    kind: ClassVar[str] = "drift_survival"

    n: int
    m: int
    trials: int
    tau_hours: float = 5e4
    beta: float = 2.0
    abrupt_fit_per_bit: float = 1e-4
    window_hours: float = 24.0
    refresh_period_hours: Optional[float] = None
    seed: Optional[int] = None
    include_check_bits: bool = True
    batch_size: int = DEFAULT_BATCH_SIZE
    packing: str = "u8"
    code: str = "diagonal"

    def build_injector(self) -> FaultInjector:
        return DriftInjector(
            DriftModel(tau_hours=self.tau_hours, beta=self.beta,
                       abrupt_fit_per_bit=self.abrupt_fit_per_bit),
            self.window_hours,
            refresh_period_hours=self.refresh_period_hours,
            include_check_bits=self.include_check_bits)


@_register
@dataclass(frozen=True)
class BurstSurvivalJobSpec(_CampaignFamilySpec):
    """Linear-burst survival campaign (check bits always exposed)."""

    kind: ClassVar[str] = "burst_survival"

    n: int
    m: int
    length: int
    trials: int
    orientation: str = "row"
    seed: Optional[int] = None
    batch_size: int = DEFAULT_BATCH_SIZE
    packing: str = "u8"
    code: str = "diagonal"

    #: Burst survival always protects check memory, like
    #: :func:`repro.reliability.burst.simulate_burst_survival`.
    @property
    def include_check_bits(self) -> bool:
        return True

    def validate(self) -> None:
        super().validate()
        if self.length > self.n:
            raise ValueError(f"burst length {self.length} exceeds the "
                             f"{self.n}-cell crossbar lane")

    def build_injector(self) -> FaultInjector:
        return LinearBurstInjector(self.length, orientation=self.orientation)


@_register
@dataclass(frozen=True)
class AdaptiveCampaignJobSpec(_CampaignFamilySpec):
    """Wilson-CI early-stopped campaign (deterministic round schedule).

    Executes as a single work unit (the adaptive loop's stopping point
    depends on every previous round, so spans are not relocatable);
    results remain reproducible and content-addressable because the
    schedule is a pure function of the spec.
    """

    kind: ClassVar[str] = "adaptive_campaign"

    n: int
    m: int
    injector: InjectorSpec
    tolerance: float
    confidence: float = 0.95
    max_trials: int = 1_000_000
    initial_trials: int = 256
    growth: float = 2.0
    seed: Optional[int] = None
    include_check_bits: bool = True
    batch_size: int = DEFAULT_BATCH_SIZE
    packing: str = "u8"
    code: str = "diagonal"

    def validate(self) -> None:
        self.injector.validate()
        self._validate_engine_fields()
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, "
                             f"got {self.tolerance}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), "
                             f"got {self.confidence}")
        if self.max_trials <= 0 or self.initial_trials <= 0:
            raise ValueError("max_trials and initial_trials must be "
                             "positive")
        if self.growth < 1.0:
            raise ValueError(f"growth must be >= 1, got {self.growth}")

    def build_injector(self) -> FaultInjector:
        return self.injector.build()


@_register
@dataclass(frozen=True)
class LogicEquivalenceJobSpec(JobSpec):
    """Equivalence check of one benchmark circuit vs its golden model."""

    kind: ClassVar[str] = "logic_equivalence"

    circuit: str
    trials: int = 64
    seed: Optional[int] = None
    packing: str = "u64"
    exhaustive_threshold: int = 10

    def validate(self) -> None:
        from repro.circuits.registry import BENCHMARKS
        if self.circuit not in BENCHMARKS:
            raise ValueError(f"unknown circuit {self.circuit!r}; "
                             f"known: {', '.join(sorted(BENCHMARKS))}")
        if self.trials <= 0:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.seed is not None and not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer or None, "
                             f"got {self.seed!r}")
        if self.packing not in PACKINGS:
            raise ValueError(f"packing must be one of {PACKINGS}, "
                             f"got {self.packing!r}")
        if self.exhaustive_threshold < 0:
            raise ValueError("exhaustive_threshold must be non-negative")


# ---------------------------------------------------------------------- #
# Result serialization
# ---------------------------------------------------------------------- #

_CAMPAIGN_FIELDS = ("trials", "clean", "corrected", "detected", "silent",
                    "injected_faults", "blocks_with_multi_faults")


def result_to_dict(result) -> dict:
    """Tagged plain-data form of any service job result."""
    if isinstance(result, CampaignResult):
        out = {"type": "campaign_result"}
        out.update({f: getattr(result, f) for f in _CAMPAIGN_FIELDS})
        return out
    if isinstance(result, AdaptiveRunResult):
        return {
            "type": "adaptive_run_result",
            "result": result_to_dict(result.result),
            "tolerance": result.tolerance,
            "confidence": result.confidence,
            "halfwidth": result.halfwidth,
            "ci_low": result.ci_low,
            "ci_high": result.ci_high,
            "rounds": result.rounds,
            "converged": result.converged,
        }
    if isinstance(result, dict) and result.get("type"):
        return dict(result)
    raise TypeError(f"unserializable job result: {type(result).__name__}")


def result_from_dict(data: dict):
    """Inverse of :func:`result_to_dict`."""
    kind = data.get("type")
    if kind == "campaign_result":
        return CampaignResult(**{f: data[f] for f in _CAMPAIGN_FIELDS})
    if kind == "adaptive_run_result":
        return AdaptiveRunResult(
            result=result_from_dict(data["result"]),
            tolerance=data["tolerance"], confidence=data["confidence"],
            halfwidth=data["halfwidth"], ci_low=data["ci_low"],
            ci_high=data["ci_high"], rounds=data["rounds"],
            converged=data["converged"])
    if kind == "logic_equivalence_result":
        return dict(data)
    raise ValueError(f"unknown result type {kind!r}")
