"""Telemetry regression tests: windowed-vs-lifetime latency stats and
tear-free snapshots.

Guards the two bugs fixed alongside the backend registry:

* ``RollingLatency.as_dict`` used to export the *lifetime* mean (and no
  max) next to *windowed* percentiles — a long-lived server's dashboard
  mean was dominated by samples the window had already dropped;
* ``ServerTelemetry.snapshot`` used to re-acquire the lock through the
  live ``throughput_per_second`` / ``coalescing_ratio`` properties after
  copying the counters, letting a concurrent completion tear the export
  (throughput computed over more completions than the ``completed`` field
  reported).
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import RollingLatency
from repro.server.telemetry import ServerTelemetry
from repro.util.validation import ValidationError


class TestRollingLatencyWindow:
    def test_mean_is_windowed_count_is_lifetime(self):
        lat = RollingLatency(window=4)
        for _ in range(100):
            lat.record(1000.0)   # ancient samples the window will drop
        for value in (1.0, 2.0, 3.0, 4.0):
            lat.record(value)
        stats = lat.as_dict()
        assert stats["count"] == 104
        assert stats["window_size"] == 4
        # windowed: only the last four samples
        assert stats["mean_seconds"] == pytest.approx(2.5)
        assert stats["max_seconds"] == 4.0
        # lifetime mean still dominated by the ancient spike, as labelled
        assert stats["lifetime_mean_seconds"] == pytest.approx(
            (100 * 1000.0 + 10.0) / 104)
        assert stats["lifetime_mean_seconds"] > stats["mean_seconds"]

    def test_mean_consistent_with_percentiles(self):
        """The regression in one line: every windowed statistic must
        describe the same sample set, so mean can never exceed p99/max."""
        lat = RollingLatency(window=8)
        for _ in range(50):
            lat.record(100.0)
        for _ in range(8):
            lat.record(0.5)
        stats = lat.as_dict()
        assert stats["p99_seconds"] == 0.5
        assert stats["max_seconds"] == 0.5
        assert stats["mean_seconds"] <= stats["max_seconds"]

    def test_empty_window_all_zero(self):
        stats = RollingLatency().as_dict()
        assert stats == {
            "count": 0, "window_size": 0, "mean_seconds": 0.0,
            "lifetime_mean_seconds": 0.0, "p50_seconds": 0.0,
            "p95_seconds": 0.0, "p99_seconds": 0.0, "max_seconds": 0.0,
        }

    def test_within_window_means_agree(self):
        lat = RollingLatency(window=16)
        for value in (1.0, 2.0, 3.0):
            lat.record(value)
        assert lat.mean == lat.lifetime_mean == pytest.approx(2.0)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValidationError):
            RollingLatency().record(-0.1)


class TestSnapshotConsistency:
    def test_throughput_derived_from_snapshot_counters(self):
        telemetry = ServerTelemetry()
        for _ in range(7):
            telemetry.submitted()
            telemetry.completed(0.01, 0.02, 0.03)
        snap = telemetry.snapshot()
        assert snap["completed"] == 7
        # exact identity: derived from the copied counters, not a second
        # read of the live property
        assert snap["throughput_per_second"] == (
            snap["completed"] / snap["uptime_seconds"])

    def test_coalescing_ratio_derived_from_snapshot_counters(self):
        telemetry = ServerTelemetry()
        telemetry.batch_dispatched(3, "single", 1)
        telemetry.batch_dispatched(5, "sharded", 4)
        snap = telemetry.snapshot()
        coalescing = snap["coalescing"]
        assert coalescing["requests_dispatched"] == 8
        assert coalescing["batches_dispatched"] == 2
        assert coalescing["ratio"] * coalescing["batches_dispatched"] == (
            coalescing["requests_dispatched"])
        assert snap["routing"] == {"single": 1, "single_device_leases": 1,
                                   "sharded": 1, "sharded_device_leases": 4}

    def test_zero_batches_ratio_is_zero(self):
        snap = ServerTelemetry().snapshot()
        assert snap["coalescing"]["ratio"] == 0.0
        assert snap["throughput_per_second"] == 0.0

    def test_live_properties_still_work(self):
        telemetry = ServerTelemetry()
        telemetry.batch_dispatched(4, "single", 1)
        telemetry.completed(0.0, 0.0, 0.0)
        assert telemetry.coalescing_ratio == 4.0
        assert telemetry.throughput_per_second > 0.0
        assert telemetry.uptime_seconds > 0.0

    def test_snapshot_consistent_under_concurrent_writers(self):
        """Hammer every recording path while snapshotting; each snapshot
        must be internally consistent (the exact derived identities hold
        for whatever counter values were copied)."""
        telemetry = ServerTelemetry(latency_window=64)
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                telemetry.submitted()
                telemetry.batch_dispatched(2, "single", 1)
                telemetry.completed(0.001, 0.002, 0.003)
                telemetry.failed("boom")

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                snap = telemetry.snapshot()
                coalescing = snap["coalescing"]
                assert snap["throughput_per_second"] == (
                    snap["completed"] / snap["uptime_seconds"])
                if coalescing["batches_dispatched"]:
                    assert coalescing["ratio"] == (
                        coalescing["requests_dispatched"]
                        / coalescing["batches_dispatched"])
                assert coalescing["requests_dispatched"] == (
                    2 * coalescing["batches_dispatched"])
                assert snap["failures"]["total"] == snap["failed"]
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_latency_sections_windowed(self):
        telemetry = ServerTelemetry(latency_window=2)
        telemetry.completed(9.0, 9.0, 9.0)
        telemetry.completed(1.0, 1.0, 1.0)
        telemetry.completed(3.0, 3.0, 3.0)
        latency = telemetry.snapshot()["latency"]
        for section in ("queue_wait", "execute", "total"):
            stats = latency[section]
            assert stats["count"] == 3
            assert stats["window_size"] == 2
            assert stats["mean_seconds"] == pytest.approx(2.0)
            assert stats["max_seconds"] == 3.0
