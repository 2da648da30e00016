"""Serving-layer telemetry: the numbers an operator's dashboard would show.

Everything is exported as a plain dict (:meth:`ServerTelemetry.snapshot`),
so the metrics can be JSON-serialised by the benchmark harness, rendered by
:mod:`repro.analysis.report`, or scraped by whatever sits in front of the
server.  Latency distributions are kept as bounded rolling windows — a
long-lived server must not grow memory with request count — and percentiles
are computed on demand from the window.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Any, Dict, Optional

from repro.obs.metrics import RollingLatency, global_registry

__all__ = ["ServerTelemetry"]


class ServerTelemetry:
    """Thread-safe counters, gauges and latency windows for one server.

    Metrics glossary (the keys of :meth:`snapshot`):

    * ``submitted / completed / failed`` — request outcomes; admission
      rejections are split by reason under ``rejected``, post-admission
      failures under ``failures`` — the two never mix.
    * ``queue`` — live depth, peak depth and the admission bound.
    * ``coalescing`` — dispatched requests vs micro-batches; the ratio is
      requests *per plan dispatch* (1.0 means no sharing was won).
    * ``latency`` — rolling p50/p95/p99 of queue wait, execution, and total
      (submit → result) time.
    * ``routing`` — micro-batches sent to each executor kind.
    * ``cache`` — the compile cache's lifetime counters (hit rate is the
      serving-economics headline).
    * ``devices`` — pool occupancy from the ledger: in-use, peak, and
      per-device busy time.
    """

    def __init__(self, latency_window: int = 2048) -> None:
        self._lock = threading.Lock()
        self._started_at = time.perf_counter()
        self._counters: Counter = Counter()
        self._rejections: Counter = Counter()
        self._failures: Counter = Counter()
        self._routing: Counter = Counter()
        self.queue_wait = RollingLatency(latency_window)
        self.execute = RollingLatency(latency_window)
        self.total = RollingLatency(latency_window)
        # Re-register into the process-wide metrics registry (weakref'd: a
        # garbage-collected server drops out of the unified snapshot).
        self.metrics_section = global_registry().register_provider(
            "server", self.snapshot)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def submitted(self) -> None:
        with self._lock:
            self._counters["submitted"] += 1

    def rejected(self, reason: str) -> None:
        with self._lock:
            self._counters["rejected"] += 1
            self._rejections[reason] += 1

    def batch_dispatched(self, size: int, executor: str,
                         devices: int) -> None:
        with self._lock:
            self._counters["batches_dispatched"] += 1
            self._counters["requests_dispatched"] += size
            self._routing[executor] += 1
            self._routing[f"{executor}_device_leases"] += devices

    def completed(self, queue_wait_seconds: float, execute_seconds: float,
                  total_seconds: float) -> None:
        with self._lock:
            self._counters["completed"] += 1
            self.queue_wait.record(max(0.0, queue_wait_seconds))
            self.execute.record(max(0.0, execute_seconds))
            self.total.record(max(0.0, total_seconds))

    def failed(self, reason: str) -> None:
        with self._lock:
            self._counters["failed"] += 1
            self._failures[reason] += 1

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def coalescing_ratio(self) -> float:
        """Requests dispatched per micro-batch (per distinct-plan dispatch)."""
        with self._lock:
            batches = self._counters["batches_dispatched"]
            requests = self._counters["requests_dispatched"]
        return requests / batches if batches else 0.0

    @property
    def uptime_seconds(self) -> float:
        return time.perf_counter() - self._started_at

    @property
    def throughput_per_second(self) -> float:
        uptime = self.uptime_seconds
        with self._lock:
            completed = self._counters["completed"]
        return completed / uptime if uptime > 0 else 0.0

    def snapshot(self,
                 queue: Optional[Any] = None,
                 cache: Optional[Any] = None,
                 ledger: Optional[Any] = None) -> Dict[str, Any]:
        """One internally consistent plain-dict export of every metric.

        ``queue``, ``cache`` and ``ledger`` (a
        :class:`repro.server.queue.RequestQueue`, a
        :class:`repro.service.CompileCache` and a
        :class:`repro.tcu.occupancy.OccupancyLedger`) contribute their own
        sections when provided.

        Every derived quantity (``throughput_per_second``,
        ``coalescing.ratio``) is computed from the counters copied under
        *one* lock acquisition — re-reading the live properties afterward
        would let a concurrent completion tear the export (e.g. a
        throughput computed over more completions than the ``completed``
        field reports).
        """
        with self._lock:
            uptime = time.perf_counter() - self._started_at
            counters = dict(self._counters)
            rejections = dict(self._rejections)
            failures = dict(self._failures)
            routing = dict(self._routing)
            latency = {
                "queue_wait": self.queue_wait.as_dict(),
                "execute": self.execute.as_dict(),
                "total": self.total.as_dict(),
            }
        completed = counters.get("completed", 0)
        requests = counters.get("requests_dispatched", 0)
        batches = counters.get("batches_dispatched", 0)
        snapshot: Dict[str, Any] = {
            "uptime_seconds": uptime,
            "submitted": counters.get("submitted", 0),
            "completed": completed,
            "failed": counters.get("failed", 0),
            "rejected": {"total": counters.get("rejected", 0), **rejections},
            "failures": {"total": counters.get("failed", 0), **failures},
            "throughput_per_second": completed / uptime if uptime > 0 else 0.0,
            "coalescing": {
                "requests_dispatched": requests,
                "batches_dispatched": batches,
                "ratio": requests / batches if batches else 0.0,
            },
            "routing": routing,
            "latency": latency,
        }
        if queue is not None:
            snapshot["queue"] = {
                "depth": queue.depth,
                "peak_depth": queue.peak_depth,
                "bound": queue.bound,
                "accepted": queue.accepted,
            }
        if cache is not None:
            snapshot["cache"] = cache.snapshot_stats().as_dict()
        if ledger is not None:
            snapshot["devices"] = ledger.snapshot()
        return snapshot
