"""The metrics registry: semantics, rendering, and the kill switch.

These are pure unit tests against a private :class:`MetricsRegistry`
instance — no service, no fleet — pinning the contracts every
instrumentation site in the codebase relies on: get-or-create
registration, thread-safe mutation, Prometheus text exposition, and
the near-zero-cost disabled path.
"""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    is_enabled,
    set_enabled,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def enabled():
    """Force observability on for the test, restoring the prior state."""
    previous = set_enabled(True)
    yield
    set_enabled(previous)


class TestRegistration:
    def test_get_or_create_returns_same_instance(self, registry):
        a = registry.counter("repro_test_total", "help", ("site",))
        b = registry.counter("repro_test_total", "other help", ("site",))
        assert a is b

    def test_type_mismatch_raises(self, registry):
        registry.counter("repro_test_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_test_total")

    def test_label_mismatch_raises(self, registry):
        registry.counter("repro_test_total", labelnames=("site",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("repro_test_total", labelnames=("other",))

    def test_invalid_metric_name_rejected(self, registry):
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad-name")

    def test_invalid_label_name_rejected(self, registry):
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("repro_ok_total", labelnames=("bad-label",))


class TestCounter:
    def test_inc_and_value(self, registry, enabled):
        c = registry.counter("repro_ops_total", labelnames=("kind",))
        c.inc(kind="read")
        c.inc(3, kind="read")
        c.inc(kind="write")
        assert c.value(kind="read") == 4
        assert c.value(kind="write") == 1
        assert c.total() == 5

    def test_wrong_labels_raise(self, registry, enabled):
        c = registry.counter("repro_ops_total", labelnames=("kind",))
        with pytest.raises(ValueError, match="expects labels"):
            c.inc(flavor="x")

    def test_unlabelled_counter(self, registry, enabled):
        c = registry.counter("repro_plain_total")
        c.inc()
        c.inc(2)
        assert c.value() == 3

    def test_thread_safety(self, registry, enabled):
        c = registry.counter("repro_race_total")

        def spin():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 8000


class TestGauge:
    def test_set_inc_dec(self, registry, enabled):
        g = registry.gauge("repro_depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12

    def test_labelled_gauge(self, registry, enabled):
        g = registry.gauge("repro_jobs", labelnames=("state",))
        g.set(2, state="running")
        g.set(7, state="done")
        assert g.value(state="running") == 2
        assert g.value(state="done") == 7


class TestHistogram:
    def test_observe_buckets_cumulative(self, registry, enabled):
        h = registry.histogram("repro_lat_seconds",
                               buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        child = h.child()
        assert child["count"] == 5
        assert child["sum"] == pytest.approx(56.05)
        # raw (non-cumulative) per-bucket counts incl. overflow
        assert child["counts"] == [1, 2, 1, 1]

    def test_render_has_inf_bucket_and_sum_count(self, registry, enabled):
        h = registry.histogram("repro_lat_seconds", "latency",
                               buckets=(0.1, 1.0))
        h.observe(0.5)
        text = registry.render()
        assert '# TYPE repro_lat_seconds histogram' in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 0' in text
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        assert 'repro_lat_seconds_sum 0.5' in text
        assert 'repro_lat_seconds_count 1' in text

    def test_empty_buckets_rejected(self, registry):
        with pytest.raises(ValueError, match="bucket"):
            registry.histogram("repro_bad_seconds", buckets=())

    def test_default_buckets_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS


class TestBoundHandles:
    def test_bound_counter_records_into_the_labelled_child(self, registry,
                                                            enabled):
        c = registry.counter("repro_ops_total", labelnames=("kind",))
        bound = c.labels(kind="a")
        bound.inc()
        bound.inc(2)
        c.inc(kind="a")
        assert c.value(kind="a") == 4
        assert c.value(kind="b") == 0

    def test_bound_histogram_observes_into_the_labelled_child(
            self, registry, enabled):
        h = registry.histogram("repro_lat_seconds", labelnames=("kind",),
                               buckets=(0.1, 1.0))
        h.labels(kind="a").observe(0.5)
        h.observe(5.0, kind="a")
        assert h.child(kind="a")["counts"] == [0, 1, 1]

    def test_labels_are_checked_once_at_binding(self, registry):
        c = registry.counter("repro_ops_total", labelnames=("kind",))
        with pytest.raises(ValueError, match="expects labels"):
            c.labels(other="a")

    def test_bound_handles_honour_the_switch(self, registry):
        c = registry.counter("repro_ops_total", labelnames=("kind",))
        h = registry.histogram("repro_lat_seconds")
        bound, bound_h = c.labels(kind="a"), h.labels()
        previous = set_enabled(False)
        try:
            bound.inc()
            bound_h.observe(0.5)
            assert c.value(kind="a") == 0 and h.child() is None
        finally:
            set_enabled(previous)


class TestRender:
    def test_help_type_and_samples(self, registry, enabled):
        c = registry.counter("repro_ops_total", "operations",
                             labelnames=("kind",))
        c.inc(kind="read")
        text = registry.render()
        assert "# HELP repro_ops_total operations" in text
        assert "# TYPE repro_ops_total counter" in text
        assert 'repro_ops_total{kind="read"} 1' in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render() == ""

    def test_metric_without_samples_omitted(self, registry, enabled):
        registry.counter("repro_never_total")
        assert registry.render() == ""

    def test_label_values_escaped(self, registry, enabled):
        c = registry.counter("repro_ops_total", labelnames=("site",))
        c.inc(site='a"b\\c\nd')
        text = registry.render()
        assert 'site="a\\"b\\\\c\\nd"' in text


class TestCounterTotals:
    def test_sums_across_labels_counters_only(self, registry, enabled):
        c = registry.counter("repro_ops_total", labelnames=("kind",))
        c.inc(2, kind="read")
        c.inc(3, kind="write")
        registry.gauge("repro_depth").set(9)
        registry.counter("repro_zero_total")  # never incremented
        totals = registry.counter_totals()
        assert totals == {"repro_ops_total": 5}


class TestEnableSwitch:
    def test_disabled_mutations_are_noops(self, registry):
        previous = set_enabled(False)
        try:
            assert is_enabled() is False
            c = registry.counter("repro_ops_total")
            g = registry.gauge("repro_depth")
            h = registry.histogram("repro_lat_seconds")
            c.inc()
            g.set(5)
            h.observe(0.5)
            assert c.value() == 0
            assert g.value() == 0
            assert h.child() is None
        finally:
            set_enabled(previous)

    def test_set_enabled_returns_previous(self):
        previous = set_enabled(False)
        try:
            assert set_enabled(True) is False
            assert set_enabled(True) is True
        finally:
            set_enabled(previous)

    def test_disable_preserves_accumulated_values(self, registry,
                                                  enabled):
        c = registry.counter("repro_ops_total")
        c.inc(4)
        inner = set_enabled(False)
        try:
            assert c.value() == 4
            assert "repro_ops_total 4" in registry.render()
        finally:
            set_enabled(inner)


class TestReset:
    def test_reset_zeroes_but_keeps_registration(self, registry, enabled):
        c = registry.counter("repro_ops_total", labelnames=("kind",))
        c.inc(kind="read")
        registry.reset()
        assert c.value(kind="read") == 0
        assert registry.counter("repro_ops_total",
                                labelnames=("kind",)) is c
