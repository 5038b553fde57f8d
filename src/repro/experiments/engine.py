"""The experiment engine: cached, backend-parallel execution of specs.

The engine executes an iterable of :class:`~repro.experiments.artifact.
RunSpec`s (or any content-keyed task) through a pluggable
:class:`~repro.experiments.backends.ExecutionBackend`, with a
content-addressed on-disk result cache under ``results/cache/``:

* cache keys are the spec's canonical digest — same spec, same key, on
  any machine and in any process (see
  :mod:`repro.experiments.cache`);
* the engine owns grid *policy* — cache lookups and stores, results in
  submission order, :class:`RunEvent` progress, ``require_cached`` —
  while the backend owns only "run ``fn(payload)`` somewhere":
  inline (:class:`~repro.experiments.backends.SerialBackend`), across
  a single-host process pool
  (:class:`~repro.experiments.backends.ProcessBackend`), or sharded
  over a shared queue directory drained by ``repro worker`` processes
  on any number of hosts
  (:class:`~repro.experiments.backends.FileQueueBackend`);
* hit/miss/invalidation counts are accounted per engine
  (:class:`CacheStats`), and ``use_cache=False`` is the escape hatch.

Determinism is a tested contract: a spec's artifact is bit-identical
on every backend and from the cache
(``tests/experiments/test_backends.py``).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.errors import (
    BackendError,
    CacheMissError,
    ConfigurationError,
    ExperimentError,
)
from repro.experiments.artifact import RunArtifact, RunSpec
from repro.experiments.backends import (
    BackendTask,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
)
from repro.experiments.cache import DEFAULT_CACHE_DIR, CacheStats, ResultCache

__all__ = [
    "CacheStats",
    "ResultCache",
    "RunEvent",
    "ExperimentEngine",
    "inline_engine",
    "DEFAULT_CACHE_DIR",
]


# ----------------------------------------------------------------------
# progress telemetry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunEvent:
    """One progress event: ``kind`` is start | hit | done | stored.

    ``seconds`` on a ``done`` event is the task's own execution time,
    measured where the task ran (a pool or file-queue worker times the
    call around ``fn`` itself, so queue wait is excluded).
    """

    kind: str
    label: str
    index: int
    total: int
    key: str | None = None
    seconds: float = 0.0


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

class ExperimentEngine:
    """Executes content-keyed tasks with caching and backend fan-out.

    Without an explicit ``backend``, ``jobs`` picks one: 1 runs tasks
    inline, > 1 fans cache-missing tasks across a process pool.
    Results are returned in submission order regardless of completion
    order, and cache writes happen in the coordinating process (plus,
    for the file queue, in the worker that executed the task), so
    concurrent engines never race on entry files beyond the
    atomic-replace guarantee.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str = DEFAULT_CACHE_DIR,
        use_cache: bool = True,
        progress: Callable[[RunEvent], None] | None = None,
        require_cached: bool = False,
        backend: ExecutionBackend | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs!r}")
        if require_cached and not use_cache:
            raise ConfigurationError(
                "require_cached=True is meaningless with use_cache=False"
            )
        self.jobs = int(jobs)
        if backend is None:
            backend = ProcessBackend(jobs) if jobs > 1 else SerialBackend()
        self.backend = backend
        self.cache = ResultCache(cache_dir) if use_cache else None
        self._disabled_stats = CacheStats()
        self.progress = progress
        self.require_cached = bool(require_cached)
        self.executed = 0

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Cache accounting; a stable all-zero instance when caching is
        disabled, so callers can hold a reference either way."""
        return self.cache.stats if self.cache is not None else self._disabled_stats

    def _emit(self, event: RunEvent) -> None:
        if self.progress is not None:
            self.progress(event)

    # ------------------------------------------------------------------
    # generic task execution
    # ------------------------------------------------------------------
    def run_tasks(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        keys: Sequence[str | None] | None = None,
        labels: Sequence[str] | None = None,
    ) -> list[Any]:
        """Run ``fn(payload)`` for every payload, in order.

        ``fn`` must be a module-level callable (it crosses process —
        and, on the file-queue backend, host — boundaries). ``keys[i]``
        is the cache key for payload ``i`` (None disables caching for
        that task).
        """
        payloads = list(payloads)
        total = len(payloads)
        keys = list(keys) if keys is not None else [None] * total
        labels = list(labels) if labels is not None else [
            f"task-{i}" for i in range(total)
        ]
        if not (len(keys) == len(labels) == total):
            raise ConfigurationError("payloads/keys/labels length mismatch")

        results: list[Any] = [None] * total
        pending: list[int] = []
        for i, key in enumerate(keys):
            cached = self.cache.load(key) if (self.cache and key) else None
            if cached is not None:
                results[i] = cached
                self._emit(RunEvent("hit", labels[i], i, total, key))
            else:
                pending.append(i)

        if pending and self.require_cached:
            missing = ", ".join(labels[i] for i in pending)
            raise CacheMissError(
                f"{len(pending)} of {total} task(s) have no usable cache "
                f"entry (missing or schema-stale): {missing}. "
                "Re-run them without --cached-only first."
            )
        if not pending:
            return results

        tasks = [
            BackendTask(index=i, payload=payloads[i], key=keys[i], label=labels[i])
            for i in pending
        ]

        def on_start(task: BackendTask) -> None:
            self._emit(RunEvent("start", task.label, task.index, total, task.key))

        remaining = set(pending)
        for completion in self.backend.run(fn, tasks, on_start=on_start):
            i = completion.task.index
            if completion.error is not None:
                error = completion.error
                if hasattr(error, "add_note"):  # pragma: no branch
                    error.add_note(
                        f"task {labels[i]!r} (index {i}) failed on the "
                        f"{self.backend.name} backend"
                    )
                raise error
            results[i] = completion.result
            remaining.discard(i)
            self.executed += 1
            self._emit(
                RunEvent("done", labels[i], i, total, keys[i], completion.seconds)
            )
            self._store(keys[i], labels[i], results[i], i, total)
        if remaining:
            raise BackendError(
                f"backend {self.backend.name!r} completed without results "
                f"for task(s): {', '.join(labels[i] for i in sorted(remaining))}"
            )
        return results

    def _store(self, key, label, payload, index, total):
        if self.cache is not None and key:
            self.cache.store(key, payload)
            self._emit(RunEvent("stored", label, index, total, key))

    # ------------------------------------------------------------------
    # spec-addressed execution
    # ------------------------------------------------------------------
    def run_many(self, specs: Iterable[RunSpec]) -> list[RunArtifact]:
        """Execute run specs (cached, possibly parallel), in order."""
        specs = list(specs)
        artifacts = self.run_tasks(
            _execute_and_reclaim,
            specs,
            keys=[s.digest() for s in specs],
            labels=[s.label for s in specs],
        )
        for spec, artifact in zip(specs, artifacts):
            if not isinstance(artifact, RunArtifact):
                raise ExperimentError(
                    f"spec {spec.label} produced {type(artifact).__name__}, "
                    "not a RunArtifact (corrupted cache entry?)"
                )
        return artifacts

    def run(self, spec: RunSpec) -> RunArtifact:
        """Execute one run spec (cached)."""
        return self.run_many([spec])[0]


def _execute_and_reclaim(spec: RunSpec) -> RunArtifact:
    """Execute one spec, then reclaim its simulation stack.

    The simulator, servers, monitors and request logs of a finished run
    form reference cycles; only a full collection frees them. Collecting
    here, at the run boundary, keeps that pause (and the memory) out of
    whatever the caller does next.
    """
    from repro.experiments.runner import execute_spec

    artifact = execute_spec(spec)
    gc.collect()
    return artifact


def inline_engine(engine: ExperimentEngine | None) -> ExperimentEngine:
    """The engine to use when a caller passed None: sequential, uncached.

    Keeps library entry points (figure functions, ablations, sweeps)
    side-effect free by default — only callers that opt in (CLI,
    benchmarks) touch ``results/cache/``.
    """
    return engine if engine is not None else ExperimentEngine(
        jobs=1, use_cache=False
    )
