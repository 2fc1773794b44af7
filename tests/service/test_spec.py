"""JobSpec families: validation, JSON round-trip, content addressing."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.drift import DriftInjector
from repro.faults.injector import (
    BurstInjector,
    CheckBitInjector,
    LinearBurstInjector,
    UniformInjector,
)
from repro.service import (
    JOB_KINDS,
    AdaptiveCampaignJobSpec,
    BurstSurvivalJobSpec,
    CampaignJobSpec,
    DriftSurvivalJobSpec,
    InjectorSpec,
    JobSpec,
    LogicEquivalenceJobSpec,
    injector_kinds,
)


def _campaign(**overrides):
    base = dict(n=15, m=3, trials=100, seed=7,
                injector=InjectorSpec("uniform", {"probability": 1e-3}))
    base.update(overrides)
    return CampaignJobSpec(**base)


class TestInjectorSpec:
    @pytest.mark.parametrize("kind,params,cls", [
        ("uniform", {"probability": 0.01}, UniformInjector),
        ("burst", {"strikes": 2, "radius": 1}, BurstInjector),
        ("linear_burst", {"length": 3}, LinearBurstInjector),
        ("check_bit", {"probability": 0.01}, CheckBitInjector),
        ("drift", {"window_hours": 24.0, "tau_hours": 100.0},
         DriftInjector),
    ])
    def test_builds_the_right_injector(self, kind, params, cls):
        spec = InjectorSpec(kind, params)
        spec.validate()
        assert isinstance(spec.build(), cls)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown injector kind"):
            InjectorSpec("cosmic_ray", {}).validate()

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="does not accept"):
            InjectorSpec("uniform", {"probability": 0.1,
                                     "strength": 3}).validate()

    def test_missing_required_parameter(self):
        with pytest.raises(ValueError, match="requires parameter"):
            InjectorSpec("uniform", {}).build()

    def test_constructor_validation_surfaces(self):
        with pytest.raises(ValueError, match="probability"):
            InjectorSpec("uniform", {"probability": 2.0}).validate()

    def test_kinds_listing(self):
        assert set(injector_kinds()) == {
            "uniform", "burst", "linear_burst", "check_bit", "drift"}


class TestValidation:
    def test_valid_campaign_passes(self):
        _campaign().validate()

    @pytest.mark.parametrize("overrides,match", [
        (dict(trials=0), "trials"),
        (dict(batch_size=0), "batch_size"),
        (dict(packing="u128"), "packing"),
        # A field dropped at wire version 7: refused by name.
        (dict(backend="tpu"), "backend"),
        (dict(seed="abc"), "seed"),
        (dict(n=16), "multiple"),
    ])
    def test_bad_campaign_fields(self, overrides, match):
        with pytest.raises(Exception, match=match):
            _campaign(**overrides).validate()

    def test_burst_length_vs_lane(self):
        with pytest.raises(ValueError, match="exceeds"):
            BurstSurvivalJobSpec(n=9, m=3, length=10, trials=5,
                                 seed=1).validate()

    def test_adaptive_parameter_checks(self):
        base = dict(n=9, m=3, seed=1,
                    injector=InjectorSpec("uniform", {"probability": 0.01}))
        with pytest.raises(ValueError, match="tolerance"):
            AdaptiveCampaignJobSpec(tolerance=0.0, **base).validate()
        with pytest.raises(ValueError, match="confidence"):
            AdaptiveCampaignJobSpec(tolerance=0.1, confidence=1.5,
                                    **base).validate()

    def test_logic_circuit_checked(self):
        with pytest.raises(ValueError, match="unknown circuit"):
            LogicEquivalenceJobSpec(circuit="nonesuch", seed=0).validate()
        LogicEquivalenceJobSpec(circuit="ctrl", seed=0).validate()

    def test_from_dict_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec.from_dict({"kind": "mystery"})

    def test_from_dict_unknown_field(self):
        # ``backend`` was a spec field once; a client still sending it
        # is refused like any other unknown field.
        for field, value in (("urgency", "high"), ("backend", "numpy")):
            data = _campaign().to_dict()
            data[field] = value
            with pytest.raises(ValueError,
                               match=f"does not accept fields .*{field}"):
                JobSpec.from_dict(data)

    @pytest.mark.parametrize("spec", [
        _campaign(),
        DriftSurvivalJobSpec(n=9, m=3, trials=5, seed=1),
        BurstSurvivalJobSpec(n=9, m=3, length=2, trials=5, seed=1),
        AdaptiveCampaignJobSpec(
            n=9, m=3, tolerance=0.1, seed=1,
            injector=InjectorSpec("uniform", {"probability": 0.01})),
    ], ids=lambda spec: spec.kind)
    def test_campaign_families_refuse_backend(self, spec):
        """Every family that once carried ``backend`` refuses it now."""
        data = spec.to_dict()
        assert "backend" not in data
        data["backend"] = "numpy"
        with pytest.raises(ValueError,
                           match="does not accept fields .*backend"):
            JobSpec.from_dict(data)


class TestNormalization:
    def test_integer_seed_passes_through(self):
        spec = _campaign(seed=99)
        assert spec.normalized() is not spec
        assert spec.normalized().seed == 99

    def test_none_seed_resolves_to_fresh_entropy(self):
        spec = _campaign(seed=None)
        a, b = spec.normalized(), spec.normalized()
        assert isinstance(a.seed, int)
        assert a.seed != b.seed  # fresh OS entropy per normalization

    def test_cache_key_requires_entropy(self):
        with pytest.raises(ValueError, match="normalized"):
            _campaign(seed=None).cache_key()

    def test_cache_key_is_content_addressed(self):
        assert _campaign().cache_key() == _campaign().cache_key()
        assert _campaign().cache_key() != _campaign(seed=8).cache_key()
        assert _campaign().cache_key() != \
            _campaign(packing="u64").cache_key()

    def test_explicit_defaults_hash_like_implicit(self):
        assert _campaign().cache_key() == \
            _campaign(batch_size=64, packing="u8",
                      code="diagonal").cache_key()


# ---------------------------------------------------------------------- #
# Round-trip property tests
# ---------------------------------------------------------------------- #

_seeds = st.integers(min_value=0, max_value=2**63 - 1)
_geometry = st.sampled_from([(9, 3), (15, 3), (15, 5), (45, 15)])

_injectors = st.one_of(
    st.builds(lambda p, icb: InjectorSpec(
        "uniform", {"probability": p, "include_check_bits": icb}),
        st.floats(0.0, 1.0, allow_nan=False), st.booleans()),
    st.builds(lambda s, r: InjectorSpec("burst", {"strikes": s,
                                                  "radius": r}),
              st.integers(0, 4), st.integers(0, 3)),
    st.builds(lambda ln, o: InjectorSpec(
        "linear_burst", {"length": ln, "orientation": o}),
        st.integers(1, 9), st.sampled_from(["row", "col"])),
    st.builds(lambda p: InjectorSpec("check_bit", {"probability": p}),
              st.floats(0.0, 1.0, allow_nan=False)),
    st.builds(lambda t, w, r: InjectorSpec(
        "drift", {"tau_hours": t, "window_hours": w,
                  "refresh_period_hours": r}),
        st.floats(1.0, 1e6, allow_nan=False),
        st.floats(0.0, 100.0, allow_nan=False),
        st.one_of(st.none(), st.floats(0.5, 100.0, allow_nan=False))),
)


@st.composite
def _campaign_specs(draw):
    n, m = draw(_geometry)
    return CampaignJobSpec(
        n=n, m=m, injector=draw(_injectors),
        trials=draw(st.integers(1, 10_000)),
        seed=draw(st.one_of(st.none(), _seeds)),
        include_check_bits=draw(st.booleans()),
        batch_size=draw(st.integers(1, 512)),
        packing=draw(st.sampled_from(["u8", "u64"])))


@st.composite
def _misc_specs(draw):
    n, m = draw(_geometry)
    which = draw(st.integers(0, 2))
    if which == 0:
        return DriftSurvivalJobSpec(
            n=n, m=m, trials=draw(st.integers(1, 5000)),
            tau_hours=draw(st.floats(1.0, 1e6, allow_nan=False)),
            beta=draw(st.floats(1.0, 5.0, allow_nan=False)),
            abrupt_fit_per_bit=draw(st.floats(0.0, 1e6, allow_nan=False)),
            window_hours=draw(st.floats(0.0, 1000.0, allow_nan=False)),
            refresh_period_hours=draw(st.one_of(
                st.none(), st.floats(0.5, 100.0, allow_nan=False))),
            seed=draw(st.one_of(st.none(), _seeds)))
    if which == 1:
        return BurstSurvivalJobSpec(
            n=n, m=m, length=draw(st.integers(1, m)),
            trials=draw(st.integers(1, 5000)),
            orientation=draw(st.sampled_from(["row", "col"])),
            seed=draw(st.one_of(st.none(), _seeds)))
    return LogicEquivalenceJobSpec(
        circuit=draw(st.sampled_from(["ctrl", "dec", "int2float"])),
        trials=draw(st.integers(1, 256)),
        seed=draw(st.one_of(st.none(), _seeds)),
        packing=draw(st.sampled_from(["u8", "u64"])),
        exhaustive_threshold=draw(st.integers(0, 16)))


class TestJsonRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(spec=_campaign_specs())
    def test_campaign_specs_round_trip(self, spec):
        again = JobSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_dict() == spec.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(spec=_misc_specs())
    def test_other_families_round_trip(self, spec):
        again = JobSpec.from_json(spec.to_json())
        assert again == spec

    @settings(max_examples=30, deadline=None)
    @given(spec=_campaign_specs())
    def test_normalized_keys_survive_the_wire(self, spec):
        """cache_key(spec) is stable across a JSON wire round trip."""
        normalized = spec.normalized()
        wired = JobSpec.from_json(normalized.to_json())
        assert wired.cache_key() == normalized.cache_key()

    def test_round_trip_through_plain_json_text(self):
        spec = AdaptiveCampaignJobSpec(
            n=15, m=5, tolerance=0.05, seed=3,
            injector=InjectorSpec("uniform", {"probability": 5e-3}))
        text = json.dumps(spec.to_dict())
        assert JobSpec.from_dict(json.loads(text)) == spec

    def test_every_registered_kind_is_constructible(self):
        assert set(JOB_KINDS) == {"campaign", "drift_survival",
                                  "burst_survival", "adaptive_campaign",
                                  "logic_equivalence"}
