"""The modelled-throughput gate: ``benchmarks/check_modelled.py`` against
the committed ``BENCH_*.json``."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("direct-small", "large-tcu", "sharded-halo")


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_modelled", ROOT / "benchmarks" / "check_modelled.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


def _result(value, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {checker.METRIC: {"value": value,
                                         "unit": "GStencil/s"}}}


@pytest.fixture(scope="module")
def record():
    return checker.latest_record()


def test_record_covers_every_workload_at_one_seed(record):
    assert isinstance(record["seed"], int)
    for workload in WORKLOADS:
        value = record["workloads"][workload][checker.METRIC]
        assert isinstance(value, float) and value > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_value_passes_and_one_ulp_fails(record, workload):
    value = record["workloads"][workload][checker.METRIC]
    assert checker.check(_result(value), workload, record) == []
    nudged = math.nextafter(value, math.inf)
    assert checker.check(_result(nudged), workload, record)


def test_incorrect_or_failed_runs_fail(record):
    value = record["workloads"]["large-tcu"][checker.METRIC]
    assert checker.check(_result(value, correct=False), "large-tcu", record)
    assert checker.check(_result(value, failed=1), "large-tcu", record)


def test_missing_metric_fails(record):
    result = _result(1.0)
    result["metrics"] = {}
    assert checker.check(result, "large-tcu", record)
