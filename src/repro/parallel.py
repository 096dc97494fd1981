"""Parallel run orchestrator: fan independent simulations across cores.

The paper's methodology is embarrassingly parallel — every figure
aggregates N perturbed-seed replicas per (config, workload) point, and
the Section 6.1 campaign runs hundreds of independent fault-injection
trials.  :func:`run_points` executes such independent points on a
*persistent* pool of warm worker processes:

* A point is described by a picklable, plain-data spec
  (:class:`RunSpec` by default).  The worker builds the ``System`` in
  the child process and returns plain-data :class:`RunMetrics` — a
  live ``System`` never crosses the process boundary.
* The pool is created once and reused across ``run_points`` calls
  (workers stay warm; an initializer pre-imports the simulation stack
  so no spec pays import cost), and specs are *streamed* to it in
  order, so parallel output is bit-identical to the serial path for
  any deterministic worker.
* ``jobs=1`` runs in-process (no pool, no pickling); ``jobs=0`` means
  "auto" (``cpu_count() - 1``, at least 1).  ``jobs=None`` defers to
  the ``REPRO_JOBS`` environment variable, then to ``default_jobs``.
* A crashed worker process surfaces as :class:`ParallelRunError`
  naming the failed spec, rather than a hang or a bare pool error.

On top of the pool sits a content-addressed **result cache**
(:class:`ResultCache`): a run's outcome is keyed by a fingerprint of
its spec *and* of the simulator's source code, so repeated sweep
points — re-running a benchmark, widening a campaign, regenerating a
figure — are near-free, while any code or configuration change
invalidates every stale entry automatically.  Enable it with
``cache=True`` (or ``--cache`` on the CLI / ``REPRO_CACHE=1`` in the
environment); entries live under ``.repro_cache/``.

Used by :func:`repro.system.experiments.measure` (seed replicas),
``benchmarks/bench_common.measure_grid`` (config × workload grids) and
:func:`repro.faults.campaign.run_campaign` (injection trials).
"""

from __future__ import annotations

import atexit
import dataclasses
import enum
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.common.errors import ConfigError
from repro.config import SystemConfig

#: Environment variable consulted when ``jobs`` is not given.
JOBS_ENV = "REPRO_JOBS"
#: Environment variable consulted when ``cache`` is not given: "1" (or
#: a directory path) enables the result cache, "0"/"" disables it.
CACHE_ENV = "REPRO_CACHE"
#: Default on-disk location of the result cache (repo-relative).
CACHE_DIR = ".repro_cache"
#: Environment variable bounding the cache directory size (megabytes).
#: Unset/0 means unbounded; above the budget the least-recently-used
#: entries are evicted (reads refresh recency via mtime).
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

SpecT = TypeVar("SpecT")
ResultT = TypeVar("ResultT")


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run (picklable plain data)."""

    config: SystemConfig
    workload: str
    ops: int
    max_cycles: int = 50_000_000


@dataclass(frozen=True)
class RunMetrics:
    """Plain-data outcome of one run (everything the harnesses read).

    Carries the scheduler/stat counters rather than the live ``System``
    so it can return from a worker process.
    """

    cycles: int
    completed: bool
    violations: int
    events_processed: int
    counters: Dict[str, int] = field(default_factory=dict)
    #: Observability snapshot (``REPRO_OBS=1``), or None.  Excluded
    #: from equality and repr: the deterministic payload above must
    #: compare bit-identical whether or not a run was observed.
    obs: Optional[Dict] = field(default=None, compare=False, repr=False)

    def counter_sum(self, prefix: str) -> int:
        """Sum of counters under ``prefix`` (StatsRegistry.sum analogue)."""
        return sum(v for k, v in self.counters.items() if k.startswith(prefix))

    def counter_max(self, prefix: str) -> int:
        """Largest counter under ``prefix`` (StatsRegistry.max_over analogue)."""
        return max(
            (v for k, v in self.counters.items() if k.startswith(prefix)),
            default=0,
        )


class ParallelRunError(RuntimeError):
    """A worker failed (exception or process death) on one spec."""

    def __init__(self, index: int, spec, reason: str):
        super().__init__(
            f"parallel run failed on spec #{index} ({spec!r}): {reason}"
        )
        self.index = index
        self.spec = spec
        self.reason = reason


def execute_run_spec(spec: RunSpec) -> RunMetrics:
    """Default worker: build the system in this process, run, summarise.

    Top-level (hence picklable by reference) so it can be shipped to
    pool workers.
    """
    from repro.system.builder import build_system

    system = build_system(spec.config, workload=spec.workload, ops=spec.ops)
    result = system.run(max_cycles=spec.max_cycles)
    obs_snap = None
    if system.obs.enabled:
        from repro.obs.export import snapshot_system

        obs_snap = snapshot_system(system)
    return RunMetrics(
        cycles=result.cycles,
        completed=result.completed,
        violations=len(result.violations),
        events_processed=system.scheduler.events_processed,
        counters=system.stats.counters(),
        obs=obs_snap,
    )


def resolve_jobs(jobs: Optional[int] = None, default: int = 1) -> int:
    """Normalise a ``jobs`` request to a concrete worker count.

    ``None`` reads ``REPRO_JOBS`` (falling back to ``default``); ``0``
    means auto (``cpu_count() - 1``, at least 1).
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        if env is not None and env.strip():
            try:
                jobs = int(env)
            except ValueError:
                raise ConfigError(
                    f"{JOBS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            jobs = default
    if jobs == 0:
        jobs = max(1, (os.cpu_count() or 1) - 1)
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    return jobs


# ---------------------------------------------------------------------------
# Persistent worker pool
# ---------------------------------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_jobs = 0


def _warm_worker() -> None:
    """Pool initializer: pre-import the simulation stack.

    Runs once per worker process at pool creation, so every streamed
    spec finds the builder (and everything it pulls in) already
    imported instead of paying the import on its first task.
    """
    import repro.system.builder  # noqa: F401


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """The shared worker pool, (re)created only when ``jobs`` changes."""
    global _pool, _pool_jobs
    if _pool is not None and _pool_jobs != jobs:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=jobs, initializer=_warm_worker)
        _pool_jobs = jobs
    return _pool


def discard_pool() -> None:
    """Tear down the persistent pool (crashed worker, interpreter exit)."""
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None


atexit.register(discard_pool)


def _indexed_call(item: Tuple[int, Callable, object]):
    """Shippable wrapper: run one spec, return (index, error, result,
    elapsed_seconds).

    Worker exceptions come back as values instead of poisoning the
    pool, so one bad spec aborts the batch without costing the warm
    workers.  The elapsed time feeds the pool utilization metric in
    the parent and never touches the deterministic result payload.
    """
    index, worker, spec = item
    start = time.perf_counter()
    try:
        return index, None, worker(spec), time.perf_counter() - start
    except BaseException as exc:  # noqa: BLE001 - reported to the caller
        return index, str(exc) or type(exc).__name__, None, (
            time.perf_counter() - start
        )


# ---------------------------------------------------------------------------
# Pool observability
# ---------------------------------------------------------------------------

_last_obs: Optional[Dict] = None


def last_run_obs() -> Optional[Dict]:
    """Pool/cache view of the most recent :func:`run_points` batch.

    Plain data (jobs, wall seconds, per-task seconds, utilization,
    cache hits/misses) — independent of the per-run ``RunMetrics.obs``
    snapshots, which describe the simulated systems themselves.
    """
    return dict(_last_obs) if _last_obs is not None else None


def _note_execution(
    jobs: int, wall_s: float, latencies: List[float]
) -> None:
    """Record one batch's pool metrics (results untouched)."""
    global _last_obs
    task_s = sum(latencies)
    busy = wall_s * jobs
    _last_obs = {
        "jobs": jobs,
        "specs": len(latencies),
        "wall_s": wall_s,
        "task_s_total": task_s,
        "task_s_max": max(latencies, default=0.0),
        "utilization": (task_s / busy) if busy > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# Content-addressed result cache
# ---------------------------------------------------------------------------

_code_fp: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of every source file in the ``repro`` package (memoised).

    Folded into each spec fingerprint so that *any* code change —
    model fix, protocol tweak, kernel rewrite — invalidates every
    cached result without bookkeeping.
    """
    global _code_fp
    if _code_fp is None:
        digest = hashlib.sha256()
        root = os.path.dirname(os.path.abspath(__file__))
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        _code_fp = digest.hexdigest()
    return _code_fp


def _json_default(obj):
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    raise TypeError(f"unfingerprintable value in spec: {obj!r}")


def spec_fingerprint(spec) -> str:
    """Stable content hash of a (dataclass) spec plus the code version."""
    payload = {
        "type": type(spec).__name__,
        "code": code_fingerprint(),
        "spec": dataclasses.asdict(spec),
    }
    blob = json.dumps(payload, sort_keys=True, default=_json_default)
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """On-disk ``spec fingerprint -> result`` store.

    One JSON file per entry under ``root``; entries self-describe their
    result type, and only types with a registered codec are stored or
    served (unknown payloads read as misses).  Writes go through a
    temp-file rename so concurrent workers never see a torn entry.
    """

    #: result type name -> (encode to JSON-safe dict, decode back).
    _codecs: Dict[str, Tuple[Callable, Callable]] = {}

    @classmethod
    def register(
        cls, result_type: type, encode: Callable, decode: Callable
    ) -> None:
        cls._codecs[result_type.__name__] = (encode, decode)

    def __init__(self, root: str = CACHE_DIR, max_bytes: Optional[int] = None):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if max_bytes is None:
            env = os.environ.get(CACHE_MAX_MB_ENV, "").strip()
            try:
                max_bytes = int(float(env) * 1024 * 1024) if env else 0
            except ValueError:
                max_bytes = 0
        #: Byte budget for the directory; 0 disables eviction.
        self.max_bytes = max_bytes

    def _path(self, spec) -> str:
        return os.path.join(self.root, spec_fingerprint(spec) + ".json")

    def get(self, spec):
        """The cached result for ``spec``, or None on any kind of miss."""
        if not dataclasses.is_dataclass(spec):
            self.misses += 1
            return None
        try:
            with open(self._path(spec)) as fh:
                payload = json.load(fh)
            codec = self._codecs.get(payload["type"])
            if codec is None:
                self.misses += 1
                return None
            value = codec[1](payload["data"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(self._path(spec))  # refresh LRU recency
        except OSError:
            pass
        return value

    def put(self, spec, result) -> None:
        """Store ``result`` for ``spec`` (no-op for unregistered types)."""
        if not dataclasses.is_dataclass(spec):
            return
        codec = self._codecs.get(type(result).__name__)
        if codec is None:
            return
        os.makedirs(self.root, exist_ok=True)
        path = self._path(spec)
        payload = {"type": type(result).__name__, "data": codec[0](result)}
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
        self._evict_over_budget(keep=path)

    def _evict_over_budget(self, keep: Optional[str] = None) -> None:
        """Delete least-recently-used entries until under ``max_bytes``.

        ``keep`` (the entry just written) is never evicted, so a budget
        smaller than one entry still leaves the latest result usable.
        Concurrent workers may race on the same victims; a loser's
        missing file is simply skipped.
        """
        if not self.max_bytes:
            return
        try:
            entries = []
            total = 0
            with os.scandir(self.root) as it:
                for ent in it:
                    if not ent.name.endswith(".json"):
                        continue
                    try:
                        st = ent.stat()
                    except OSError:
                        continue
                    entries.append((st.st_mtime, ent.path, st.st_size))
                    total += st.st_size
        except OSError:
            return
        if total <= self.max_bytes:
            return
        entries.sort()  # oldest mtime first
        for _mtime, path, size in entries:
            if total <= self.max_bytes:
                break
            if path == keep:  # both built via os.path.join(root, name)
                continue
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            self.evictions += 1


ResultCache.register(
    RunMetrics,
    encode=dataclasses.asdict,
    decode=lambda data: RunMetrics(**data),
)


def resolve_cache(cache=None) -> Optional[ResultCache]:
    """Normalise a ``cache`` request to a :class:`ResultCache` or None.

    ``None`` defers to ``REPRO_CACHE`` ("1"/"true" → default directory,
    a path → that directory, "0"/"" → off); ``True``/``False`` force it
    on (default directory) or off; a string selects the directory; an
    existing :class:`ResultCache` passes through.
    """
    if isinstance(cache, ResultCache):
        return cache
    if cache is None:
        env = os.environ.get(CACHE_ENV, "").strip()
        if env.lower() in ("", "0", "false", "no", "off"):
            return None
        if env.lower() in ("1", "true", "yes", "on"):
            return ResultCache()
        return ResultCache(env)
    if cache is False:
        return None
    if cache is True:
        return ResultCache()
    return ResultCache(str(cache))


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def run_points(
    specs: Sequence[SpecT],
    jobs: Optional[int] = None,
    worker: Callable[[SpecT], ResultT] = execute_run_spec,
    cache=None,
) -> List[ResultT]:
    """Run ``worker`` over every spec, preserving spec order.

    With ``jobs <= 1`` (or a single spec) the specs run serially in
    this process — the exact code path the pool workers execute — so
    parallel and serial results are identical for deterministic
    workers.  Worker exceptions and worker-process deaths both raise
    :class:`ParallelRunError` identifying the offending spec.

    ``cache`` (see :func:`resolve_cache`) consults the result cache
    first and only executes the missing specs; fresh results are
    written back, so a repeated sweep costs one file read per point.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    store = resolve_cache(cache)
    if store is None:
        return _execute(specs, jobs, worker)

    results: List[Optional[ResultT]] = [store.get(spec) for spec in specs]
    missing = [i for i, r in enumerate(results) if r is None]
    if missing:
        try:
            fresh = _execute([specs[i] for i in missing], jobs, worker)
        except ParallelRunError as exc:
            # Re-key the failure to the caller's spec numbering.
            index = missing[exc.index]
            raise ParallelRunError(index, specs[index], exc.reason) from exc
        for i, value in zip(missing, fresh):
            store.put(specs[i], value)
            results[i] = value
    else:
        _note_execution(jobs, 0.0, [])
    global _last_obs
    if _last_obs is not None:
        _last_obs["cache_hits"] = store.hits
        _last_obs["cache_misses"] = store.misses
        _last_obs["cache_evictions"] = store.evictions
    return results  # type: ignore[return-value]


def _execute(
    specs: List[SpecT], jobs: int, worker: Callable[[SpecT], ResultT]
) -> List[ResultT]:
    start = time.perf_counter()
    latencies: List[float] = []
    if jobs <= 1 or len(specs) <= 1:
        results_serial: List[ResultT] = []
        for spec in specs:
            t0 = time.perf_counter()
            results_serial.append(worker(spec))
            latencies.append(time.perf_counter() - t0)
        _note_execution(1, time.perf_counter() - start, latencies)
        return results_serial

    results: List[Optional[ResultT]] = [None] * len(specs)
    pool = _get_pool(jobs)
    items = [(i, worker, spec) for i, spec in enumerate(specs)]
    done = 0
    try:
        # Streamed in order: workers pull specs as they free up, the
        # parent consumes (index, error, result, elapsed) records as
        # they complete, and a failure aborts the batch promptly
        # without tearing down the warm pool.
        for index, error, value, elapsed in pool.map(_indexed_call, items):
            if error is not None:
                raise ParallelRunError(index, specs[index], error)
            results[index] = value
            latencies.append(elapsed)
            done += 1
    except BrokenProcessPool as exc:
        discard_pool()
        index = min(done, len(specs) - 1)
        raise ParallelRunError(
            index, specs[index], "worker process died"
        ) from exc
    _note_execution(jobs, time.perf_counter() - start, latencies)
    return results  # type: ignore[return-value]
