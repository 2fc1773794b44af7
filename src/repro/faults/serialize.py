"""Declarative injector configs: kind registry + JSON round-trip.

The single source of truth for the ``kind``/``params`` form of a fault
injector, shared by two consumers that must agree exactly:

* :class:`repro.service.spec.InjectorSpec` — the user-facing field of a
  submitted job spec;
* :mod:`repro.distributed.wire` — the on-the-wire encoding of a
  :class:`repro.faults.batch.ShardTask`, where a worker on another host
  rebuilds the injector a dispatcher serialized.

A config is ``{"kind": <registered name>, "params": {<JSON scalars>}}``.
:func:`build_injector` turns a config into a live injector;
:meth:`FaultInjector.to_config` (implemented per concrete class) is the
inverse. A config holds no seed: injectors hold no stream, and every
draw comes from the campaign's keyed streams (:mod:`repro.faults.batch`),
which is precisely what makes a config — and the shard tasks built from
it — relocatable across processes and hosts.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.faults.drift import DriftInjector, DriftModel
from repro.faults.injector import (
    BurstInjector,
    CheckBitInjector,
    FaultInjector,
    LinearBurstInjector,
    UniformInjector,
)

#: kind -> (builder, allowed parameter names). Builders receive the
#: params dict and return a fresh injector.
INJECTOR_KINDS: Dict[str, Tuple[Callable[[dict], FaultInjector],
                                Tuple[str, ...]]] = {
    "uniform": (
        lambda p: UniformInjector(
            p["probability"],
            include_check_bits=p.get("include_check_bits", True)),
        ("probability", "include_check_bits")),
    "burst": (
        lambda p: BurstInjector(
            strikes=p.get("strikes", 1), radius=p.get("radius", 1),
            neighbor_probability=p.get("neighbor_probability", 0.5)),
        ("strikes", "radius", "neighbor_probability")),
    "linear_burst": (
        lambda p: LinearBurstInjector(
            p["length"], orientation=p.get("orientation", "row")),
        ("length", "orientation")),
    "check_bit": (
        lambda p: CheckBitInjector(p["probability"]),
        ("probability",)),
    "drift": (
        lambda p: DriftInjector(
            DriftModel(tau_hours=p.get("tau_hours", 5e4),
                       beta=p.get("beta", 2.0),
                       abrupt_fit_per_bit=p.get("abrupt_fit_per_bit", 1e-4)),
            p["window_hours"],
            refresh_period_hours=p.get("refresh_period_hours"),
            include_check_bits=p.get("include_check_bits", True)),
        ("tau_hours", "beta", "abrupt_fit_per_bit", "window_hours",
         "refresh_period_hours", "include_check_bits")),
}


def injector_kinds() -> Tuple[str, ...]:
    """Registered declarative injector kinds."""
    return tuple(sorted(INJECTOR_KINDS))


def validate_config(config: dict) -> None:
    """Raise ``ValueError`` unless ``config`` is a well-formed config."""
    if not isinstance(config, dict) or \
            not {"kind", "params"} <= set(config):
        raise ValueError(
            "injector config must be an object with 'kind' and 'params' "
            "fields, e.g. {\"kind\": \"uniform\", \"params\": "
            "{\"probability\": 1e-3}}")
    kind = config["kind"]
    if kind not in INJECTOR_KINDS:
        raise ValueError(f"unknown injector kind {kind!r}; "
                         f"known: {', '.join(injector_kinds())}")
    allowed = INJECTOR_KINDS[kind][1]
    unknown = sorted(set(config["params"]) - set(allowed))
    if unknown:
        raise ValueError(
            f"injector kind {kind!r} does not accept parameters "
            f"{unknown}; allowed: {', '.join(allowed)}")


def build_injector(config: dict) -> FaultInjector:
    """Instantiate the injector a config describes.

    Raises ``ValueError`` on unknown kinds, unknown parameter names,
    missing required parameters, and (via the injector constructors)
    out-of-range values.
    """
    validate_config(config)
    builder, _ = INJECTOR_KINDS[config["kind"]]
    try:
        return builder(dict(config["params"]))
    except KeyError as exc:
        raise ValueError(f"injector kind {config['kind']!r} requires "
                         f"parameter {exc.args[0]!r}") from None


def injector_config(injector: FaultInjector) -> dict:
    """The declarative config of a live injector (inverse of
    :func:`build_injector`); raises ``TypeError`` for injector classes
    with no declarative form (e.g. ``DeterministicInjector``)."""
    return injector.to_config()
