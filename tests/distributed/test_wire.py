"""Wire format: lossless round-trip, strict refusal of everything else.

The distributed layer's correctness rests on a worker executing
*exactly* the task the dispatcher described — so the encoding must
round-trip to behaviourally identical engines, and any payload from a
different revision (or damaged in transit) must be refused, never
guessed at.
"""

import json
import sys

import pytest

from repro.distributed.wire import (
    WIRE_VERSION,
    WireFormatError,
    decode_task,
    encode_task,
    _digest,
    task_from_wire_dict,
    task_wire_dict,
)
from repro.faults.batch import ShardTask, run_shard_task
from repro.faults.drift import DriftInjector, DriftModel
from repro.faults.injector import (
    BurstInjector,
    CheckBitInjector,
    DeterministicInjector,
    LinearBurstInjector,
    UniformInjector,
)
from repro.faults.serialize import build_injector, injector_kinds
from repro.utils.kernels import KernelUnavailableError

INJECTORS = {
    "uniform": UniformInjector(2e-3, include_check_bits=False),
    "burst": BurstInjector(strikes=2, radius=1, neighbor_probability=0.25),
    "linear_burst": LinearBurstInjector(3, orientation="col"),
    "check_bit": CheckBitInjector(1e-3),
    "drift": DriftInjector(
        DriftModel(tau_hours=200.0, beta=2.0, abrupt_fit_per_bit=1e5),
        24.0, refresh_period_hours=6.0),
}


def make_task(injector, **overrides) -> ShardTask:
    fields = dict(n=15, m=3, injector=injector, entropy=11, lo=32, hi=96,
                  batch_size=64, packing="u8")
    fields.update(overrides)
    return ShardTask(**fields)


class TestInjectorConfigs:
    def test_every_registered_kind_has_a_round_trip(self):
        assert set(INJECTORS) == set(injector_kinds())
        for kind, injector in INJECTORS.items():
            config = injector.to_config()
            assert config["kind"] == kind
            rebuilt = build_injector(config)
            assert rebuilt.to_config() == config

    def test_deterministic_injector_refuses_serialization(self):
        with pytest.raises(TypeError, match="no declarative config"):
            DeterministicInjector([(0, 0)]).to_config()

    def test_unknown_kind_and_params_rejected(self):
        with pytest.raises(ValueError, match="unknown injector kind"):
            build_injector({"kind": "cosmic_ray", "params": {}})
        with pytest.raises(ValueError, match="does not accept"):
            build_injector({"kind": "uniform",
                            "params": {"probability": 1e-3, "zap": 1}})
        with pytest.raises(ValueError, match="requires parameter"):
            build_injector({"kind": "uniform", "params": {}})


class TestRoundTrip:
    @pytest.mark.parametrize("kind", sorted(INJECTORS))
    def test_decoded_task_executes_identically(self, kind):
        task = make_task(INJECTORS[kind])
        rebuilt = decode_task(encode_task(task))
        assert rebuilt.span == task.span
        assert run_shard_task(rebuilt).as_dict() == \
            run_shard_task(task).as_dict()

    def test_encoding_is_canonical(self):
        """Byte-identical text regardless of construction order."""
        a = make_task(UniformInjector(2e-3))
        b = make_task(UniformInjector(2e-3))
        assert encode_task(a) == encode_task(b)

    def test_packed_layout_survives(self):
        task = make_task(INJECTORS["uniform"], packing="u64")
        assert decode_task(encode_task(task)).packing == "u64"

    def test_decoded_task_runs_without_a_kernel_tier(self, monkeypatch):
        """A worker that resolves no kernel tier (built without the
        compiled extension its dispatcher has, say) still runs every
        unit: the campaign engine asks for none."""
        task = decode_task(encode_task(
            make_task(INJECTORS["uniform"], packing="u64")))
        expected = run_shard_task(task).as_dict()

        def unavailable(*args, **kwargs):
            raise KernelUnavailableError("no kernel tier on this worker")

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and hasattr(module, "get_kernels"):
                monkeypatch.setattr(module, "get_kernels", unavailable)
        assert run_shard_task(task).as_dict() == expected


class TestRefusals:
    def test_version_mismatch(self):
        env = task_wire_dict(make_task(INJECTORS["uniform"]))
        env["version"] = WIRE_VERSION + 1
        with pytest.raises(WireFormatError, match="wire version"):
            task_from_wire_dict(env)

    def test_digest_mismatch_on_tampered_body(self):
        env = task_wire_dict(make_task(INJECTORS["uniform"]))
        env["task"]["hi"] += 64  # silently widening the span
        with pytest.raises(WireFormatError, match="digest mismatch"):
            task_from_wire_dict(env)

    def test_wrong_format_name(self):
        with pytest.raises(WireFormatError, match="not a shard-task"):
            task_from_wire_dict({"format": "repro/other", "version": 1})

    def test_not_json(self):
        with pytest.raises(WireFormatError, match="not JSON"):
            decode_task("{torn...")

    def test_missing_and_unknown_fields(self):
        env = task_wire_dict(make_task(INJECTORS["uniform"]))
        body = dict(env["task"])
        del body["entropy"]
        body["extra"] = 1
        env["task"] = body
        env["digest"] = json.loads(encode_task(
            make_task(INJECTORS["uniform"])))["digest"]
        # digest no longer matches the altered body -> refused before
        # field validation even runs
        with pytest.raises(WireFormatError):
            task_from_wire_dict(env)
        # A re-stamped body still carrying a field dropped at version 7
        # passes the digest and fails field validation.
        for field in ("backend_name", "kernels_name"):
            env = task_wire_dict(make_task(INJECTORS["uniform"]))
            env["task"][field] = "numpy"
            env["digest"] = _digest(env["task"])
            with pytest.raises(WireFormatError,
                               match=f"malformed shard task.*{field}"):
                task_from_wire_dict(env)

    def test_non_dict_payload(self):
        with pytest.raises(WireFormatError, match="must be an object"):
            task_from_wire_dict([1, 2, 3])
