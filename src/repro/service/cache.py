"""LRU compilation cache with optional on-disk persistence.

The paper's pipeline is "compile once, sweep many times"; this cache makes
the *once* literal across independent solve calls.  Plans are keyed by the
canonical compile fingerprint (:mod:`repro.service.fingerprint`), bounded by
an LRU policy, and optionally persisted to disk so a fresh process starts
warm.  All operations are thread-safe — the batched solve service compiles
distinct plans from a thread pool against a shared cache.

Beside the plan LRU the cache keeps two in-memory tables: the sharded
executors' layouts (:meth:`CompileCache.shard_layout`), so a warm sharded
run looks up one layout instead of one plan per shard window, and the
problems' canonical compile requests (:meth:`CompileCache.request_for`), so
a warm solve fingerprints nothing.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.core.codegen import resolve_backend
from repro.core.pipeline import CompiledStencil
from repro.obs.metrics import global_registry
from repro.obs.trace import span as obs_span
from repro.service.fingerprint import CompileRequest
from repro.stencils.pattern import StencilPattern
from repro.tcu.spec import device_key
from repro.util.validation import require, require_positive_int

__all__ = ["CacheStats", "CacheEntry", "CompileCache", "rebrand"]


#: Schema version of the persisted-plan payload.  Bumped to 2 when the
#: execution backend joined the payload: version-1 files carry no backend
#: field, so they cannot prove which backend compiled them and are treated
#: as plain misses.  Bumped to 3 with the ``neumann(flux=...)`` boundary
#: family (compile fingerprint payload v4): plans persisted under the old
#: vocabulary are treated as misses rather than trusted across the change.
_PERSIST_PAYLOAD_VERSION = 3


#: Sharded layouts one cache memoizes (:meth:`CompileCache.shard_layout`)
#: before the table is cleared and starts over.  A layout holds a partition
#: and per-window sweep contexts over plans the LRU also holds; a workload
#: cycling through more distinct layouts than this rebuilds them.
SHARD_LAYOUT_LIMIT = 64


#: Canonical compile requests one cache memoizes by their problems'
#: fingerprinted inputs (:meth:`CompileCache.request_for`) before the table
#: is cleared and starts over.
REQUEST_MEMO_LIMIT = 256


def _request_key(problem: Any) -> Optional[Tuple[Any, ...]]:
    """Every input :meth:`Problem.compile_request` reads, by value, or
    ``None`` when an option value is unhashable.

    The pattern hashes by value, name included (a rebranded hit must keep
    its own name); ``repr`` of its weights tells ``-0.0`` from ``0.0``,
    which float ``==`` does not.  The grid contributes its shape and
    boundary, each option its type and value (``spec`` by
    :func:`~repro.tcu.spec.device_key`), and options naming no backend the
    default one resolves to now (``REPRO_BACKEND`` is read per request).
    """
    pattern = problem.pattern
    if pattern is None:
        return None     # a program: compile_request() says why it has none
    items = []
    for name, value in problem.options.items():
        if name == "spec":
            value = device_key(value)
        else:
            try:
                hash(value)
            except TypeError:
                return None
        items.append((name, type(value), value))
    backend = problem.options.get("backend")
    grid = problem.grid
    return (pattern, repr(pattern.weights), tuple(grid.shape),
            getattr(grid, "boundary", None), tuple(items),
            resolve_backend() if backend is None else None)


_PIPELINE_VERSION: Optional[str] = None


def _pipeline_version() -> str:
    """Build stamp for persisted plans: package version + a hash of the
    compilation pipeline's source.

    ``__version__`` alone is hand-maintained and rarely bumped, so it cannot
    tell two pipeline builds apart; hashing the source of every module that
    feeds :func:`compile_resolved` (core stages, the device model, the
    pattern definition) makes any code change invalidate persisted plans.
    Computed once per process; on any filesystem hiccup the stamp degrades
    to a unique value, which safely disables disk reuse.
    """
    global _PIPELINE_VERSION
    if _PIPELINE_VERSION is None:
        import repro
        digest = hashlib.sha256()
        try:
            package_dir = Path(repro.__file__).parent
            sources = sorted(
                list((package_dir / "core").glob("*.py"))
                + list((package_dir / "tcu").glob("*.py"))
                + list((package_dir / "util").glob("*.py"))
                + [package_dir / "stencils" / "pattern.py"])
            for source in sources:
                digest.update(source.name.encode())
                digest.update(source.read_bytes())
            stamp = digest.hexdigest()[:16]
        except OSError:
            stamp = f"unhashable-{os.getpid()}-{time.time_ns()}"
        _PIPELINE_VERSION = f"{repro.__version__}+{stamp}"
    return _PIPELINE_VERSION


def rebrand(compiled: CompiledStencil, request: CompileRequest) -> CompiledStencil:
    """Return ``compiled`` carrying the *requester's* pattern identity.

    Fingerprints deliberately ignore cosmetic pattern fields (name, kind,
    metadata, tap order), so a cache hit may have been compiled for a
    semantically equal but differently named pattern.  The plan's operands
    are shared as-is — only the pattern objects are swapped, so launch
    names, summaries and batch items report the identity of the request
    that hit.  Every consumer that serves one plan to many requests (the
    batch service, the online server) funnels through this helper; when the
    requester's pattern already equals the compiled one, ``compiled`` is
    returned unchanged.
    """
    options = request.options
    # equal original patterns imply equal fused patterns (fusion count is
    # fingerprinted), so the common case never materialises effective_pattern
    if compiled.original_pattern == options.pattern:
        return compiled
    plan = replace(compiled.plan, pattern=options.effective_pattern)
    search = compiled.search
    if search is not None:
        search = replace(search, pattern_name=options.effective_pattern.name)
    return replace(compiled,
                   original_pattern=options.pattern,
                   pattern=options.effective_pattern,
                   plan=plan,
                   search=search)


@dataclass
class CacheStats:
    """Counters a service operator would watch on a dashboard.

    ``compile_seconds`` is host wall time actually spent compiling (misses);
    ``saved_seconds`` sums the recorded compile cost of every hit — the time
    the cache avoided re-spending.
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    compile_seconds: float = 0.0
    saved_seconds: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from memory or disk (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "compile_seconds": self.compile_seconds,
            "saved_seconds": self.saved_seconds,
        }


@dataclass
class CacheEntry:
    """A cached plan plus the bookkeeping the stats need."""

    compiled: CompiledStencil
    compile_seconds: float
    hits: int = 0
    created_at: float = field(default_factory=time.time)


class CompileCache:
    """LRU-bounded cache of :class:`CompiledStencil` plans.

    Parameters
    ----------
    capacity:
        Maximum number of plans held in memory; the least recently used entry
        is evicted beyond that.
    persist_dir:
        Optional directory for write-through persistence.  Misses check the
        directory before compiling, so a new process (or a plan evicted from
        memory) reloads instead of recompiling; corrupt, unreadable or
        wrong-build files are treated as plain misses.  Unlike the in-memory
        tier, the directory is *not* LRU-bounded — plans accumulate until
        :meth:`clear` is called with ``remove_persisted=True`` (or the
        operator prunes the directory).

        .. warning::
           Plans are stored with :mod:`pickle`, and unpickling executes
           code.  ``persist_dir`` must be a trusted, same-privilege location
           (never a world-writable or untrusted-shared path).
    """

    def __init__(self, capacity: int = 128,
                 persist_dir: Optional[str | Path] = None) -> None:
        require_positive_int(capacity, "capacity")
        self.capacity = capacity
        self.persist_dir = Path(persist_dir) if persist_dir is not None else None
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        #: Per-fingerprint locks so concurrent misses on the *same* plan
        #: compile once while distinct plans compile in parallel.
        self._compile_locks: Dict[str, threading.Lock] = {}
        #: Sharded-run layouts by content key — a table apart from the plan
        #: LRU, bounded by :data:`SHARD_LAYOUT_LIMIT`.
        self._layouts: Dict[Hashable, Any] = {}
        #: Canonical compile requests by their problems' fingerprinted
        #: inputs, bounded by :data:`REQUEST_MEMO_LIMIT`.
        self._requests: Dict[Hashable, CompileRequest] = {}
        # Re-register into the process-wide metrics registry (weakref'd: a
        # garbage-collected cache drops out of the unified snapshot).
        self.metrics_section = global_registry().register_provider(
            "cache", self.metrics_snapshot)

    # ------------------------------------------------------------------ #
    # core API
    # ------------------------------------------------------------------ #
    def get_or_compile(self, request: CompileRequest,
                       events: Optional[list] = None) -> CompiledStencil:
        """Return the plan for ``request``, compiling it at most once.

        ``events``, when given, receives one of ``"hit"`` / ``"disk"`` /
        ``"compile"`` per call — a race-free way for callers (the batch
        service) to attribute work to *their* lookups on a shared cache.
        """
        record = events.append if events is not None else lambda event: None
        fingerprint = request.fingerprint
        # Ambient span: joins whatever trace is active (a served request, a
        # session solve); a shared no-op context when none is.
        with obs_span("cache.lookup", fingerprint=fingerprint) as span:
            cached = self._lookup(fingerprint)
            if cached is not None:
                record("hit")
                span.set(outcome="hit")
                return rebrand(cached, request)

            with self._fingerprint_lock(fingerprint):
                # Re-check: another thread may have compiled while we waited.
                cached = self._lookup(fingerprint)
                if cached is not None:
                    record("hit")
                    span.set(outcome="hit")
                    return rebrand(cached, request)
                persisted = self._load_persisted(fingerprint,
                                                 request.options.backend)
                if persisted is not None:
                    compiled, compile_seconds = persisted
                    with self._lock:
                        self.stats.hits += 1
                        self.stats.disk_hits += 1
                        self.stats.saved_seconds += compile_seconds
                    self._store(fingerprint,
                                CacheEntry(compiled, compile_seconds))
                    record("disk")
                    span.set(outcome="disk",
                             saved_compile_ms=compile_seconds * 1e3)
                    return rebrand(compiled, request)
                start = time.perf_counter()
                compiled = request.compile()
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.stats.misses += 1
                    self.stats.compile_seconds += elapsed
                self._store(fingerprint, CacheEntry(compiled, elapsed))
                self._persist(fingerprint, compiled, elapsed)
                record("compile")
                span.set(outcome="compile", compile_ms=elapsed * 1e3)
                return compiled

    def shard_layout(self, key: Hashable,
                     build: Callable[[], Any]) -> Tuple[Any, bool]:
        """``(layout, hit)``: the sharded layout memoized under ``key``,
        built with ``build()`` and stored on a miss.

        ``key`` must name every input the layout is derived from (see
        :mod:`repro.engine.sharded`).  The lock guards only the table's get
        and put, never a build: two threads missing on one key both build,
        and both return the layout stored first.
        """
        with self._lock:
            layout = self._layouts.get(key)
        if layout is not None:
            return layout, True
        layout = build()
        with self._lock:
            if len(self._layouts) >= SHARD_LAYOUT_LIMIT:
                self._layouts.clear()
            return self._layouts.setdefault(key, layout), False

    def request_for(self, problem: Any) -> CompileRequest:
        """The canonical compile request of a kernel
        :class:`~repro.session.Problem`, fingerprinted once per distinct
        problem.

        Memoized by value on every input :meth:`Problem.compile_request
        <repro.session.Problem.compile_request>` reads — never by object
        identity, as problems and grids are mutable and callers build fresh
        ones per request.  A problem with an unhashable option value is
        fingerprinted afresh, and a program problem raises as
        ``compile_request()`` does.  Equal to ``problem.compile_request()``.
        """
        key = _request_key(problem)
        if key is None:
            return problem.compile_request()
        with self._lock:
            request = self._requests.get(key)
        if request is not None:
            return request
        request = problem.compile_request()
        request.fingerprint  # derived before the request is shared
        with self._lock:
            if len(self._requests) >= REQUEST_MEMO_LIMIT:
                self._requests.clear()
            return self._requests.setdefault(key, request)

    def compile(self, pattern: StencilPattern, grid_shape: Tuple[int, ...],
                **compile_kwargs) -> CompiledStencil:
        """Drop-in cached equivalent of :func:`repro.compile_stencil`."""
        return self.get_or_compile(
            CompileRequest.build(pattern, grid_shape, **compile_kwargs))

    def contains(self, request: CompileRequest) -> bool:
        with self._lock:
            return request.fingerprint in self._entries

    def snapshot_stats(self) -> CacheStats:
        """Internally consistent copy of the statistics (taken under the
        cache lock, so concurrent lookups can't tear the counters)."""
        with self._lock:
            return replace(self.stats)

    def metrics_snapshot(self) -> Dict[str, float]:
        """Zero-arg provider the unified metrics registry calls."""
        stats = self.snapshot_stats().as_dict()
        stats["resident_plans"] = len(self)
        with self._lock:
            stats["resident_layouts"] = len(self._layouts)
        stats["capacity"] = self.capacity
        return stats

    def clear(self, remove_persisted: bool = False) -> None:
        """Drop all in-memory entries, memoized sharded layouts and compile
        requests, and reset the statistics.

        Persisted plans are kept by default (a later lookup resurrects them
        as disk hits); pass ``remove_persisted=True`` to delete them too.

        The per-fingerprint compile-lock table deliberately survives a
        clear: a :meth:`get_or_compile` may be holding (or about to acquire)
        one of those locks mid-compile, and replacing the table would let a
        racing miss on the same fingerprint take a *fresh* lock and compile
        the same plan twice (double-counting stats).  The table is bounded
        by normal eviction pruning; at worst a clear strands ~``capacity``
        idle locks until their fingerprints are evicted again.
        """
        with self._lock:
            self._entries.clear()
            self._layouts.clear()
            self._requests.clear()
            self.stats = CacheStats()
        if remove_persisted and self.persist_dir is not None:
            for path in self.persist_dir.glob("*.plan.pkl"):
                try:
                    path.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def fingerprints(self) -> Tuple[str, ...]:
        """Resident fingerprints, least → most recently used."""
        with self._lock:
            return tuple(self._entries)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _fingerprint_lock(self, fingerprint: str) -> threading.Lock:
        with self._lock:
            lock = self._compile_locks.get(fingerprint)
            if lock is None:
                lock = self._compile_locks[fingerprint] = threading.Lock()
            return lock

    def _lookup(self, fingerprint: str) -> Optional[CompiledStencil]:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return None
            self._entries.move_to_end(fingerprint)
            entry.hits += 1
            self.stats.hits += 1
            self.stats.saved_seconds += entry.compile_seconds
            return entry.compiled

    def _store(self, fingerprint: str, entry: CacheEntry) -> None:
        with self._lock:
            self._entries[fingerprint] = entry
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                # drop the per-fingerprint compile lock with the entry so the
                # lock table stays bounded on long-lived, high-churn services
                # (a concurrent waiter at worst duplicates one compile)
                self._compile_locks.pop(evicted, None)
                self.stats.evictions += 1

    def _path_for(self, fingerprint: str) -> Path:
        require(self.persist_dir is not None,
                "cache persistence is disabled (no persist_dir)")
        return self.persist_dir / f"{fingerprint}.plan.pkl"

    def _persist(self, fingerprint: str, compiled: CompiledStencil,
                 compile_seconds: float) -> None:
        if self.persist_dir is None:
            return
        path = self._path_for(fingerprint)
        # unique tmp name: two processes sharing a persist_dir may write the
        # same fingerprint concurrently, and a shared tmp inode would
        # interleave their writes into a corrupt published file
        tmp = path.with_suffix(f".{os.getpid()}.{threading.get_ident()}.tmp")
        payload = {"payload_version": _PERSIST_PAYLOAD_VERSION,
                   "version": _pipeline_version(),
                   "backend": compiled.backend,
                   "compiled": compiled,
                   "compile_seconds": compile_seconds}
        try:
            with tmp.open("wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)
        except Exception:  # lint: allow-broad-except — best-effort persist
            # best-effort: an unwritable directory or an unpicklable plan
            # (e.g. exotic pattern metadata) must never fail the solve — the
            # plan is already served from memory
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def _load_persisted(self, fingerprint: str, backend: str
                        ) -> Optional[Tuple[CompiledStencil, float]]:
        if self.persist_dir is None:
            return None
        path = self._path_for(fingerprint)
        if not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
        except Exception:  # lint: allow-broad-except — corrupt persisted plan
            # Corrupt, truncated, or written by an incompatible build
            # (ModuleNotFoundError, UnpicklingError, ...): a persisted plan is
            # an optimisation, never a correctness dependency — recompile.
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("payload_version") != _PERSIST_PAYLOAD_VERSION:
            # pre-backend schema (or a future one): no backend provenance
            return None
        if payload.get("version") != _pipeline_version():
            # compiled by a different build of the pipeline: its plan may
            # legitimately differ from what this build would produce
            return None
        compiled = payload.get("compiled")
        if not isinstance(compiled, CompiledStencil):
            return None
        # Belt-and-braces: the fingerprint already encodes the backend, so a
        # well-formed file can only mismatch through manual tampering — but a
        # cross-backend serve is a silent-wrong-numerics bug, so verify.
        if payload.get("backend") != backend or compiled.backend != backend:
            return None
        return compiled, float(payload.get("compile_seconds", 0.0))
