"""Drive one workload through the public session/server API and measure it.

One run = several cold set-ups (fresh session each, median reported) +
a measured phase of ``seconds`` on the last set-up's warm session.

* Untraced runs (``trace=False``) measure the end-to-end metrics with the
  session's tracer off.
* Traced runs alternate traced and untraced requests so the per-layer
  numbers and the tracing overhead come from the same interleaved sample.

Every output is checked against the float64 golden reference outside the
timed intervals, and every request's modelled facts against its plan's;
a wrong output, a drifting fact or an exception counts as a failed request
and the run carries on.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import asdict, dataclass, field
from statistics import median
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench import workloads as wl
from perfbench.layers import Instrumentation, LayerTotals, SpanRecord, breakdown
from perfbench.stats import min_samples_for, percentile, samples_beyond
from perfbench.verify import Verifier, numpy_baseline

#: error reason of a request whose modelled facts differ from its plan's
FACTS_MISMATCH = "plan_facts_mismatch"


@dataclass(frozen=True)
class RunFacts:
    """Facts of one solved request that must repeat exactly for its plan:
    work done, modelled device time and halo traffic."""

    points: float = 0.0
    device_seconds: float = 0.0
    iterations: int = 0
    sweeps: int = 0
    halo_exchanges: int = 0
    halo_bytes: float = 0.0
    halo_exposed_seconds: float = 0.0

    @classmethod
    def of(cls, run: Any) -> "RunFacts":
        return cls(
            points=float(run.points_updated),
            device_seconds=float(run.elapsed_seconds),
            iterations=int(run.iterations),
            sweeps=int(run.sweeps),
            halo_exchanges=int(getattr(run, "halo_exchange_count", 0)),
            halo_bytes=float(getattr(run, "halo_exchange_bytes", 0.0)),
            halo_exposed_seconds=float(getattr(run, "halo_exposed_seconds",
                                               0.0)))


@dataclass(frozen=True)
class PlanFacts:
    """Exact-repeat facts of one request kind: its plan's computed flops
    and bytes per sweep and the facts of one solve."""

    fingerprint: str
    flops_per_sweep: float
    bytes_per_sweep: float
    run: RunFacts


@dataclass
class Sample:
    """One measured request.  Only scalars are kept: holding every output
    would make the harness, not the program, set ``peak_rss_mb``."""

    kind: str
    latency_s: float
    traced: bool
    ok: bool
    facts: RunFacts = RunFacts()


@dataclass
class RunState:
    """Everything the measured phase accumulates."""

    samples: List[Sample] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)
    layers: LayerTotals = field(default_factory=LayerTotals)
    unattributed_s: float = 0.0
    active_s: float = 0.0
    server_before: Optional[Dict[str, Any]] = None
    server_after: Optional[Dict[str, Any]] = None
    cache_before: Optional[Dict[str, float]] = None
    cache_after: Optional[Dict[str, float]] = None

    def error(self, reason: str) -> None:
        self.errors[reason] = self.errors.get(reason, 0) + 1


# --------------------------------------------------------------------- #
# plan facts
# --------------------------------------------------------------------- #
def _estimates(compiled: Any) -> List[Any]:
    from repro import ProgramPlan

    if isinstance(compiled, ProgramPlan):
        return [plan.plan.estimate for stage in compiled.stages
                for plan in stage.compiled]
    return [compiled.plan.estimate]


def plan_facts(fingerprint: str, compiled: Any, run: Any) -> PlanFacts:
    """Facts of one solved request; flops and bytes are *computed* from
    the plan's roofline estimate (issued MMA flops, DRAM bytes)."""
    estimates = _estimates(compiled)
    return PlanFacts(
        fingerprint=fingerprint,
        flops_per_sweep=float(sum(2.0 * e.n_mma * e.fragment.macs
                                  for e in estimates)),
        bytes_per_sweep=float(sum(e.traffic.global_read_bytes
                                  + e.traffic.global_write_bytes
                                  for e in estimates)),
        run=RunFacts.of(run),
    )


# --------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------- #
@dataclass
class Setup:
    session: Any
    seconds: float
    facts: Dict[str, PlanFacts]
    #: compiles the session's cache counted (its misses)
    cache_compiles: int
    #: compiles seen through :attr:`CompiledStencil.overhead_seconds`
    compiles: int
    compile_stages: Dict[str, float]


def setup(workload: wl.Workload, pool: wl.GridPool, verifier: Verifier,
          tracer: Any, inst: Optional[Instrumentation]) -> Setup:
    """Build a session and solve every kind once, cold (a served kind
    starts the session's server).

    Timed from session construction until the last distinct plan has been
    compiled and solved; the outputs are checked afterwards.
    """
    from repro import SessionConfig, StencilSession

    if inst is not None:
        inst.compiles.clear()
    problems = [(kind, wl.make_problem(kind, pool.get(kind, 0), tag=kind.name))
                for kind in workload.kinds]
    solutions = {}
    start = time.perf_counter()
    session = StencilSession(SessionConfig(devices=workload.devices,
                                           tracer=tracer))
    for kind, problem in problems:
        solutions[kind.name] = session.solve(problem,
                                             **wl.policy_for(workload, kind))
    seconds = time.perf_counter() - start
    cache_compiles = session.cache.snapshot_stats().misses

    facts = {}
    for kind, problem in problems:
        solution = solutions[kind.name]
        verifier.require(kind, 0, solution.output)
        compiled = session.compile(problem)
        facts[kind.name] = plan_facts(solution.fingerprint, compiled,
                                      solution.result)
    stages: Dict[str, float] = {}
    compiles = 0
    if inst is not None:
        compiles = len(inst.compiles)
        for timings in inst.compiles:
            for stage, value in timings.items():
                stages[stage] = stages.get(stage, 0.0) + value
    return Setup(session, seconds, facts, cache_compiles, compiles, stages)


# --------------------------------------------------------------------- #
# measured phase
# --------------------------------------------------------------------- #
def _check(state: RunState, request: wl.Request, run: Any,
           facts: Dict[str, PlanFacts], verifier: Verifier) -> bool:
    """Whether the request's output is right and its modelled facts are
    exactly its plan's; each failure is counted by reason."""
    ok, reason = verifier.check(request.kind, request.variant, run.output)
    if not ok:
        state.error(f"wrong_output:{reason}")
    if RunFacts.of(run) != facts[request.kind.name].run:
        state.error(FACTS_MISMATCH)
        ok = False
    return ok


def _fold_trace(state: RunState, tracer: Any, root_id: str,
                wall: float) -> None:
    spans = [SpanRecord.of(s) for s in tracer.spans()]
    tracer.clear()
    item = breakdown(spans, root_id)
    state.layers.add(item)
    attributed = sum(item.self_seconds.values()) - item.overlap_seconds
    state.unattributed_s += wall - attributed


def closed_loop(workload: wl.Workload, session: Any,
                requests: Iterator[wl.Request], seconds: float,
                facts: Dict[str, PlanFacts], verifier: Verifier,
                inst: Optional[Instrumentation], state: RunState) -> None:
    """One client: the next request goes out when the last one returned.

    Only the solve calls are on the clock; checking and trace folding
    happen between requests with the clock paused.
    """
    tracer = session.tracer
    traced_turn = False
    while state.active_s < seconds:
        request = next(requests)
        policy = wl.policy_for(workload, request.kind)
        traced = inst is not None and traced_turn
        traced_turn = not traced_turn
        root = None
        if traced:
            inst.install()
            tracer.enabled = True
        start = time.perf_counter()
        try:
            if traced:
                with tracer.span("session.solve") as root:
                    inst.fallback = root
                    solution = session.solve(request.problem, **policy)
            else:
                solution = session.solve(request.problem, **policy)
        except Exception as exc:  # noqa: BLE001 - counted, the loop goes on
            end = time.perf_counter()
            state.active_s += end - start
            state.error(type(exc).__name__)
            state.samples.append(Sample(request.kind.name, end - start,
                                        traced, False))
            continue
        finally:
            if inst is not None:
                inst.fallback = None
                inst.uninstall()
                tracer.enabled = False
        end = time.perf_counter()
        latency = end - start
        state.active_s += latency
        run = solution.result
        ok = _check(state, request, run, facts, verifier)
        state.samples.append(Sample(request.kind.name, latency, traced, ok,
                                    RunFacts.of(run)))
        if traced:
            _fold_trace(state, tracer, root.span_id, latency)


# --------------------------------------------------------------------- #
# the whole run
# --------------------------------------------------------------------- #
def run(workload_name: str, seed: int, seconds: float,
        trace: bool) -> Dict[str, Any]:
    """Run one workload; returns the run record (metrics + facts)."""
    from repro import Tracer

    workload = wl.WORKLOADS[workload_name]
    pool = wl.GridPool(workload, seed)
    verifier = Verifier(workload, pool)
    tracer = Tracer(enabled=False) if trace else None
    inst = Instrumentation(tracer) if trace else None

    setups: List[Setup] = []
    for _ in range(workload.setup_repeats):
        if setups:
            setups[-1].session.close()
        gc.collect()
        if inst is not None:
            inst.install()
            tracer.enabled = True
        try:
            setups.append(setup(workload, pool, verifier, tracer, inst))
        finally:
            if inst is not None:
                inst.uninstall()
                tracer.enabled = False
                tracer.clear()
    session = setups[-1].session
    facts = setups[-1].facts

    state = RunState()
    requests = wl.stream(workload, seed, pool)
    state.cache_before = session.cache.snapshot_stats().as_dict()
    state.server_before = server_counters(session)
    gc.collect()
    try:
        closed_loop(workload, session, requests, seconds, facts, verifier,
                    inst, state)
        state.server_after = server_counters(session)
        state.cache_after = session.cache.snapshot_stats().as_dict()
    finally:
        session.close()

    baseline = numpy_baseline(workload, pool, verifier, seed) \
        if trace and workload.numpy_baseline else None
    return build_record(workload, seed, seconds, trace, setups, state,
                        baseline, verifier.setup_errors)


def _modelled_gstencil(workload: wl.Workload, seed: int,
                       facts: Dict[str, PlanFacts]) -> float:
    """Total points over total modelled device seconds of the seed's first
    :data:`MODEL_DRAWS` draws, from each kind's plan facts.  Every measured
    request was checked to repeat its plan's facts exactly, so this is the
    measured requests' figure over a fixed, seed-given mix."""
    counts = wl.kind_counts(workload, seed, wl.MODEL_DRAWS)
    points = sum(counts[k] * facts[k].run.points for k in counts)
    device = sum(counts[k] * facts[k].run.device_seconds for k in counts)
    return points / device / 1e9


def _weighted(workload: wl.Workload, values: Dict[str, float]) -> float:
    return sum(kind.weight * values.get(kind.name, 0.0)
               for kind in workload.kinds) / sum(k.weight
                                                 for k in workload.kinds)


def latency_bands(samples: List[Sample]) -> List[Dict[str, Any]]:
    """Kinds in order of median latency with the cumulative share of
    samples each covers.  A percentile close to the edge between two bands
    of clearly different latency would jump between them from run to run,
    so the mix weights keep p50 and p90 away from such edges."""
    medians = _kind_medians(samples)
    counts = _kind_counts([s for s in samples if s.ok])
    total = sum(counts.values())
    bands, low = [], 0.0
    for kind in sorted(medians, key=medians.get):
        high = low + counts[kind] / total
        bands.append({"kind": kind, "median_ms": medians[kind],
                      "share_from": low, "share_to": high})
        low = high
    return bands


def build_record(workload: wl.Workload, seed: int, seconds: float,
                 trace: bool, setups: List[Setup], state: RunState,
                 baseline: Optional[float],
                 verifier_errors: int) -> Dict[str, Any]:
    samples = state.samples
    attempted = len(samples)
    failed = sum(1 for s in samples if not s.ok)
    setup_errors = verifier_errors
    facts = setups[-1].facts
    setups_agree = all(s.facts == facts for s in setups)
    measured = [s for s in samples if not s.traced]
    latencies = [s.latency_s * 1e3 for s in measured if s.ok] or [0.0]
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0 and setup_errors == 0 and setups_agree,
        "attempted": attempted,
        "failed": failed,
        "errors": dict(state.errors),
        "setup_errors": setup_errors,
        "error_rate": failed / attempted if attempted else 0.0,
        "setup_seconds": [s.seconds for s in setups],
        "samples": len(latencies),
        "samples_beyond_p90": samples_beyond(len(latencies), 90),
        "windows": [len(w) for w in windows(measured,
                                            min_samples_for(90))],
        "min_samples_for_p90": min_samples_for(90),
        "latency_bands": latency_bands(measured) if measured else [],
        "plans": {name: asdict(f) for name, f in facts.items()},
        "exact_repeat": {
            "setups_agree": setups_agree,
            "requests_mismatching_plan_facts":
                state.errors.get(FACTS_MISMATCH, 0),
        },
    }
    if trace:
        metrics = per_layer(workload, setups, state, baseline)
        record["per_layer"] = _named(metrics)
        record["layer_table_ms"] = layer_table(state)
    else:
        record["end_to_end"] = _named(end_to_end(workload, seed, setups,
                                                 state))
    return record


def layer_table(state: RunState) -> Dict[str, float]:
    """Mean ms per traced request: each layer's self time, minus time two
    concurrent children both claimed, plus what no span covers, adds up to
    the client-measured wall time."""
    layers = state.layers
    count = max(1, layers.requests)
    table = layers.by_layer_ms()
    table["concurrency_overlap"] = -1e3 * layers.overlap_seconds / count
    table["unattributed"] = 1e3 * state.unattributed_s / count
    table["wall"] = sum(table.values())
    return table


def _named(metrics: Dict[str, Tuple[float, str]]) -> Dict[str, Any]:
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()}


#: Most windows the measured phase is split into (see :func:`end_to_end`).
MAX_WINDOWS = 5


def windows(samples: List[Sample], size: int) -> List[List[Sample]]:
    """Consecutive windows of at least ``size`` samples, at most
    :data:`MAX_WINDOWS` of them (one window when there are too few)."""
    count = max(1, min(MAX_WINDOWS, len(samples) // size))
    bounds = [round(i * len(samples) / count) for i in range(count + 1)]
    return [samples[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def end_to_end(workload: wl.Workload, seed: int, setups: List[Setup],
               state: RunState) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of an untraced run, ``name -> (value, unit)``.

    Latency percentiles and throughputs are computed per consecutive
    window of the measured phase (each with enough samples for ten beyond
    p90) and the median over windows is reported: a stretch of host noise
    in one window then does not move the figure.  ``success_rate`` is
    ``1 - error_rate``: a share that can read 0 is no use as a bounded
    metric.
    """
    samples = state.samples
    attempted = len(samples)
    failed = sum(1 for s in samples if not s.ok)
    p50, p90, rps, mstencil = [], [], [], []
    for window in windows(samples, min_samples_for(90)):
        latencies = [s.latency_s * 1e3 for s in window if s.ok] or [0.0]
        # the summed call times: checks ran with the clock paused
        wall = sum(s.latency_s for s in window)
        p50.append(percentile(latencies, 50))
        p90.append(percentile(latencies, 90))
        rps.append(sum(1 for s in window if s.ok) / wall)
        mstencil.append(sum(s.facts.points for s in window if s.ok)
                        / wall / 1e6)
    return {
        "setup_s": (median([s.seconds for s in setups]), "s"),
        "latency_ms_p50": (median(p50), "ms"),
        "latency_ms_p90": (median(p90), "ms"),
        "requests_per_s": (median(rps), "1/s"),
        "host_mstencil_per_s": (median(mstencil), "Mstencil/s"),
        "device_gstencil_per_s": (_modelled_gstencil(workload, seed,
                                                     setups[-1].facts),
                                  "GStencil/s"),
        "success_rate": (1.0 - failed / attempted if attempted else 0.0,
                         "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def _kind_counts(samples: List[Sample]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for s in samples:
        counts[s.kind] = counts.get(s.kind, 0) + 1
    return counts


def _kind_medians(samples: List[Sample]) -> Dict[str, float]:
    by_kind: Dict[str, List[float]] = {}
    for s in samples:
        if s.ok:
            by_kind.setdefault(s.kind, []).append(s.latency_s * 1e3)
    return {k: median(v) for k, v in by_kind.items()}


def per_layer(workload: wl.Workload, setups: List[Setup], state: RunState,
              baseline: Optional[float]) -> Dict[str, Tuple[float, str]]:
    """The traced run's per-layer metrics, ``name -> (value, unit)``.

    Times are self time in ms per traced request; counts are per traced
    request.  Metrics of a layer a workload does not reach read 0.
    """
    layers = state.layers
    ms = layers.per_request_ms
    calls = layers.per_request_calls
    traced = [s for s in state.samples if s.traced and s.ok]
    facts = setups[-1].facts
    cache_hits = state.cache_after["hits"] - state.cache_before["hits"]
    cache_lookups = (state.cache_after["lookups"]
                     - state.cache_before["lookups"])
    program_runs = [s for s in traced if workload.kind(s.kind).is_program]

    untraced = _kind_medians([s for s in state.samples if not s.traced])
    traced_medians = _kind_medians(traced)
    overhead = (_weighted(workload, traced_medians)
                / _weighted(workload, untraced)) if untraced else 0.0

    metrics: Dict[str, Tuple[float, str]] = {
        "session.solve_self_ms": (ms("session.solve"), "ms"),
        "session.fingerprint_ms": (ms("session.fingerprint"), "ms"),
        "session.route_ms": (ms("session.route"), "ms"),
        "session.route_calls": (calls("session.route"), "count"),
        "service.cache_lookup_ms": (ms("service.cache_lookup"), "ms"),
        "service.cache_hit_ratio": (cache_hits / cache_lookups
                                    if cache_lookups else 0.0, "ratio"),
        "service.cache_compiles": (float(median(
            [s.cache_compiles for s in setups])), "count"),
        "core.compile_transformation_ms": (_setup_stage(setups,
                                                        "transformation"),
                                           "ms"),
        "core.compile_metadata_ms": (_setup_stage(setups, "metadata"), "ms"),
        "core.compile_lut_ms": (_setup_stage(setups, "lookup_table"), "ms"),
        "core.compiles": (float(median([s.compiles for s in setups])),
                          "count"),
        "engine.execute_self_ms": (ms("engine.execute"), "ms"),
        "engine.sweep_ms": (ms("engine.sweep"), "ms"),
        "engine.sweeps": (calls("engine.sweep"), "count"),
        "engine.gather_ms": (ms("engine.gather"), "ms"),
        "engine.mma_ms": (ms("engine.mma"), "ms"),
        "engine.assemble_ms": (ms("engine.assemble"), "ms"),
        "engine.shard_compile_ms": (ms("engine.shard_compile"), "ms"),
        "engine.halo_exposed_device_s": (_mean(
            [s.facts.halo_exposed_seconds for s in traced]), "s"),
        "tcu.flops_per_sweep": (_weighted(workload, {
            k: f.flops_per_sweep for k, f in facts.items()}), "flop"),
        "tcu.bytes_per_sweep": (_weighted(workload, {
            k: f.bytes_per_sweep for k, f in facts.items()}), "B"),
        "stencils.boundary_fill_ms": (ms("stencils.boundary_fill"), "ms"),
        "stencils.boundary_fills": (calls("stencils.boundary_fill"),
                                    "count"),
        "stencils.halo_exchange_ms": (ms("stencils.halo_exchange"), "ms"),
        "stencils.halo_exchanges": (calls("stencils.halo_exchange"),
                                    "count"),
        "stencils.halo_bytes": (_mean([s.facts.halo_bytes for s in traced]),
                                "B"),
        "programs.self_ms": (ms("programs.execute"), "ms"),
        "programs.stage_ms": (1e3 * layers.inclusive_seconds.get(
            "programs.execute", 0.0) / max(1, len(program_runs)), "ms"),
        "programs.exchanges_per_step": (_mean(
            [s.facts.halo_exchanges / s.facts.iterations
             for s in program_runs]),
            "count"),
        "obs.traced_over_untraced": (overhead, "ratio"),
        "obs.unattributed_ms": (1e3 * state.unattributed_s
                                / max(1, layers.requests), "ms"),
        "obs.concurrency_overlap_ms": (1e3 * layers.overlap_seconds
                                       / max(1, layers.requests), "ms"),
        "reference.numpy_mstencil_per_s": (baseline or 0.0, "Mstencil/s"),
    }
    metrics.update(_server_metrics(state))
    return metrics


def server_counters(session: Any) -> Optional[Dict[str, float]]:
    """Dispatch counters of the session's server, if it has one."""
    snapshot = session.metrics()["server"]
    if snapshot is None:
        return None
    coalescer = session.server().coalescer
    return {"requests": snapshot["coalescing"]["requests_dispatched"],
            "batches": snapshot["coalescing"]["batches_dispatched"],
            "rejected": snapshot["rejected"]["total"],
            "cycles": coalescer.cycles, "collected": coalescer.collected}


def _server_metrics(state: RunState) -> Dict[str, Tuple[float, str]]:
    """Server-layer metrics: queue wait and request (submit to result)
    durations from the traced requests' spans; coalescing from the
    server's counters over the measured phase."""
    waits = [x * 1e3 for x in state.layers.durations.get("queue_wait", [])]
    service = [x * 1e3 for x in state.layers.durations.get("request", [])]
    delta = {k: state.server_after[k] - state.server_before[k]
             for k in state.server_after} if state.server_after else {}
    return {
        "server.queue_wait_ms_p50": (percentile(waits, 50) if waits else 0.0,
                                     "ms"),
        "server.queue_wait_ms_p90": (percentile(waits, 90) if waits else 0.0,
                                     "ms"),
        "server.coalescing_ratio": (delta["collected"] / delta["cycles"]
                                    if delta.get("cycles") else 0.0,
                                    "ratio"),
        "server.batch_size_mean": (delta["requests"] / delta["batches"]
                                   if delta.get("batches") else 0.0,
                                   "count"),
        "server.service_ms_p50": (percentile(service, 50)
                                  if service else 0.0, "ms"),
        "server.rejected": (float(delta.get("rejected", 0)), "count"),
        "server.self_ms": (state.layers.per_request_ms("request")
                           + state.layers.per_request_ms("queue_wait")
                           + state.layers.per_request_ms("route"), "ms"),
    }


def _setup_stage(setups: List[Setup], stage: str) -> float:
    return 1e3 * median([s.compile_stages.get(stage, 0.0) for s in setups])


def _mean(values: List[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0
