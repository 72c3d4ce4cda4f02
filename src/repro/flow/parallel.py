"""Process-pool fan-out for independent (module, pipeline) compiles.

The figure drivers compile hundreds of independent jobs; this module
distributes them across worker processes with :func:`compile_many`,
returning completed :class:`FlowContext` objects (pass records and
all) keyed by job, in submission order.

Caching composes: hits are resolved in the parent before any worker
spawns, workers share the disk layer of a path-backed
:class:`~repro.flow.cache.CompileCache` (atomic entry files make the
sharing safe), and every parallel result is folded back into the
parent cache so later serial queries hit in memory.

A failing job raises :class:`CompileJobError` carrying the job key and
the pass records accumulated up to the failure -- the log context an
error report needs -- identically from the serial and the parallel
path (the earliest failing job in submission order wins, so error
behaviour is deterministic regardless of worker scheduling).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

from repro.flow.cache import CompileCache, flow_fingerprint
from repro.flow.core import (
    FlowContext,
    FlowError,
    PassRecord,
    ensure_recursion_headroom,
    render_log,
)
from repro.flow.manager import PassManager, prepare_resume, run_resumable

if TYPE_CHECKING:
    from repro.aig.graph import AIG
    from repro.rtl.module import Module
    from repro.tech.cells import Library


@dataclass(frozen=True)
class CompileJob:
    """One independent compile: a pipeline over one design.

    ``pipeline`` may be a :class:`PassManager` or a spec string (parsed
    in the worker); everything else mirrors the keyword surface of
    :meth:`PassManager.compile`.  ``key`` identifies the job in the
    result mapping and must be unique within one ``compile_many`` call.

    A job can start from the frontend stage: ``ctrl`` carries a
    controller IR (``ControllerIR`` protocol) that the pipeline's
    ``ctrl``-stage passes lower, and ``bindings`` carries
    configuration-memory contents for ``pe_bind`` -- the job ships the
    *IR*, not a pre-built module, so the lowering itself is cached,
    parallelized, and fingerprinted like every other stage.
    """

    key: Hashable
    pipeline: "PassManager | str"
    module: "Module | None" = None
    ctrl: object | None = None
    aig: "AIG | None" = None
    annotations: tuple = ()
    bindings: "dict[str, list[int]] | None" = None
    library: "Library | None" = None
    seed: int = 2011
    #: Optional :class:`repro.check.facts.FactSheet`; fingerprinted
    #: like every other input, consumed (after SAT re-discharge) by
    #: the optimizing passes.
    facts: object | None = None


class CompileJobError(FlowError):
    """A compile job failed; carries the job key and the pass records
    (hence log lines) accumulated up to the failure."""

    def __init__(
        self, key: Hashable, error: str, records: Sequence[PassRecord] = ()
    ) -> None:
        self.key = key
        self.error = error
        self.records = list(records)
        tail = render_log(self.records)[-4:]
        message = f"compile job {key!r} failed: {error}"
        if tail:
            message += "; log tail: " + " | ".join(tail)
        super().__init__(message)

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the rendered
        # message) into ``__init__`` -- replay the real fields instead
        # so the error crosses the process pool intact.
        return (CompileJobError, (self.key, self.error, self.records))


def _resolve_pipeline(pipeline: "PassManager | str") -> PassManager:
    if isinstance(pipeline, str):
        return PassManager.parse(pipeline)
    return pipeline


def _job_fingerprints(
    job: CompileJob, pipeline: PassManager
) -> "tuple[str, list[str]]":
    """``(fingerprint, prefix_fps)`` of one job: a multi-pass pipeline
    folds every prefix (the last is the full key); a single pass has
    nothing to resume from and needs only its key."""
    inputs = dict(
        ctrl=job.ctrl,
        module=job.module,
        aig=job.aig,
        annotations=job.annotations,
        bindings=job.bindings,
        library=job.library,
        seed=job.seed,
        facts=job.facts,
    )
    if len(pipeline.passes) > 1:
        prefix_fps = pipeline.prefix_fingerprints(**inputs)
        return prefix_fps[-1], prefix_fps
    return flow_fingerprint(pipeline.spec(), **inputs), []


def _execute_job(
    job: CompileJob,
    cache: CompileCache | None,
    fingerprint: str | None = None,
    *,
    force_snapshot_after: frozenset = frozenset(),
) -> FlowContext:
    """Run one job (cache-aware and resumable), wrapping failures with
    their log context.  A caller that already missed on
    ``fingerprint`` passes it in to skip the redundant second lookup
    (prefix resume points are still probed).  ``force_snapshot_after``
    holds top-level pass indices the prefix-trie planner marked as
    shared boundaries -- they snapshot regardless of wall time or
    stage."""
    pipeline = _resolve_pipeline(job.pipeline)
    prefix_fps: list[str] = []
    if cache is not None and fingerprint is None:
        fingerprint, prefix_fps = _job_fingerprints(job, pipeline)
        hit = cache.get(fingerprint)
        if hit is not None:
            return hit
    elif cache is not None and len(pipeline.passes) > 1:
        _, prefix_fps = _job_fingerprints(job, pipeline)
    ctx, start = prepare_resume(
        pipeline,
        ctrl=job.ctrl,
        module=job.module,
        aig=job.aig,
        annotations=job.annotations,
        bindings=job.bindings,
        library=job.library,
        seed=job.seed,
        facts=job.facts,
        cache=cache,
        prefix_fingerprints=prefix_fps,
    )
    try:
        run_resumable(
            pipeline,
            ctx,
            start=start,
            cache=cache,
            prefix_fingerprints=prefix_fps,
            force_snapshot_after=force_snapshot_after,
        )
    except CompileJobError:
        raise
    except Exception as exc:
        raise CompileJobError(
            job.key, f"{type(exc).__name__}: {exc}", ctx.records
        ) from exc
    if cache is not None:
        cache.put(fingerprint, ctx)
    return ctx


def _worker_run(
    job: CompileJob,
    cache_path: str | None,
    force_snapshot_after: frozenset = frozenset(),
) -> FlowContext:
    """Entry point executed inside a pool worker."""
    ensure_recursion_headroom()
    cache = None if cache_path is None else CompileCache(path=cache_path)
    return _execute_job(
        job, cache, force_snapshot_after=force_snapshot_after
    )


def _pool_context():
    """Fork on Linux (cheap, inherits the recursion limit and warning
    filters); spawn elsewhere -- fork is crash-prone on macOS, which is
    why CPython itself switched that platform's default to spawn."""
    methods = multiprocessing.get_all_start_methods()
    use_fork = sys.platform == "linux" and "fork" in methods
    return multiprocessing.get_context("fork" if use_fork else "spawn")


def _plan_waves(
    prefix_lists: Sequence[Sequence[str]],
) -> "tuple[list[list[int]], dict[int, frozenset]]":
    """The prefix-trie schedule of one job batch.

    ``prefix_lists[i]`` is job ``i``'s prefix fingerprints (full
    fingerprint last); a fingerprint appearing in two or more jobs is
    *shared* -- work that must execute exactly once.  The plan is a
    list of waves (job indices) plus, per job, the top-level pass
    indices whose boundary must snapshot (``forced``): within a wave
    no two jobs carry the same not-yet-covered shared fingerprint, so
    each shared prefix has exactly one *leader*; after the wave the
    leader's snapshots (and completed entry) are published, and the
    followers -- deferred to later waves -- resume from them instead
    of re-executing the prefix.

    Full fingerprints count as shared too: two content-identical jobs
    (distinct keys) serialize, and the second hits the cache outright.

    Returns:
        ``(waves, forced)`` -- waves partition ``range(len(...))`` in
        submission order; ``forced[i]`` holds the snapshot boundaries
        job ``i`` must persist (its own final pass never snapshots;
        the completed entry covers it).
    """
    counts = Counter(fp for fps in prefix_lists for fp in fps)
    forced = {
        i: frozenset(
            k for k, fp in enumerate(fps[:-1]) if counts[fp] >= 2
        )
        for i, fps in enumerate(prefix_lists)
    }
    covered: set[str] = set()
    waves: list[list[int]] = []
    remaining = list(range(len(prefix_lists)))
    while remaining:
        wave: list[int] = []
        claimed: set[str] = set()
        deferred: list[int] = []
        for i in remaining:
            wants = {
                fp
                for fp in prefix_lists[i]
                if counts[fp] >= 2 and fp not in covered
            }
            if wants & claimed:
                deferred.append(i)
            else:
                wave.append(i)
                claimed |= wants
        waves.append(wave)
        covered |= claimed
        remaining = deferred
    return waves, forced


def default_workers() -> int:
    """A sensible worker count for ``--jobs 0`` style requests.

    Returns:
        One worker per CPU core the scheduler reports (at least 1):
        the jobs are CPU-bound synthesis runs, so oversubscription
        buys nothing.
    """
    return max(os.cpu_count() or 1, 1)


def compile_many(
    jobs: Iterable[CompileJob],
    *,
    workers: int = 1,
    cache: CompileCache | None = None,
    server: "str | None" = None,
) -> "dict[Hashable, FlowContext]":
    """Compile independent jobs, optionally across worker processes
    or through a remote compile server.

    Results are bit-identical to running the same jobs serially --
    parallelism only changes wall time, never outputs (contexts cross
    the process boundary by pickle, which preserves floats exactly).

    With a cache, hits are resolved up front in the parent (no worker
    is spawned for them); misses computed by workers are folded back
    into the parent's memory layer, and the disk layer -- when the
    cache has a ``path`` -- is shared with the workers directly
    (atomic entry files make concurrent writers safe).  A memory-only
    cache still dedups across one ``compile_many`` call, but workers
    cannot share it.

    With a cache, misses are scheduled by a *prefix-trie planner*:
    jobs whose pipelines share a prefix on identical inputs are
    grouped so that exactly one leader executes each shared prefix,
    storing a resume point at the shared boundary, before the
    followers fan out and resume from it (serially, submission order
    achieves this; across workers, jobs are batched into waves that
    never race on an uncovered shared prefix -- requires a
    path-backed cache, since followers read the leader's resume
    points through the shared disk layer).  Without a cache every job
    runs its full pipeline in one flat schedule.

    With ``server``, cache misses are submitted to a
    :mod:`repro.serve` compile server as one batch instead of
    executing locally; a local ``cache`` then *fronts* the shared
    service (read-through for the up-front hit resolution,
    write-through as returned contexts are stored back), so only the
    first sighting of a fingerprint ever crosses the network.  Error
    behaviour is identical to local execution -- the earliest failing
    job in submission order raises its
    :class:`CompileJobError` -- and ``workers`` is ignored (the
    server's pool bounds concurrency).

    Args:
        jobs: the independent compiles; ``job.key`` must be unique
            within the call.
        workers: process count; ``<= 1`` runs serially in-process.
        cache: a shared :class:`~repro.flow.cache.CompileCache`, or
            ``None`` to always compile.
        server: base URL of a running compile server
            (``http://127.0.0.1:8731``), or ``None`` to execute
            locally.

    Returns:
        ``{job.key: completed FlowContext}`` in submission order; each
        context carries its own :class:`PassRecord` stream, which is
        how per-job instrumentation merges back.

    Raises:
        FlowError: duplicate job keys; transport failures against
            ``server`` (:class:`repro.serve.client.ServeError`).
        CompileJobError: a job failed; the earliest failing job in
            submission order raises (deterministic regardless of
            worker scheduling), carrying its key and the pass records
            accumulated up to the failure.
    """
    jobs = list(jobs)
    seen_keys: set = set()
    for job in jobs:
        if job.key in seen_keys:
            raise FlowError(f"duplicate compile job key {job.key!r}")
        seen_keys.add(job.key)

    ensure_recursion_headroom()
    results: dict[Hashable, FlowContext] = {}
    pending: list[tuple[int, CompileJob, str | None, list[str]]] = []
    for index, job in enumerate(jobs):
        if cache is not None:
            fingerprint, prefix_fps = _job_fingerprints(
                job, _resolve_pipeline(job.pipeline)
            )
            hit = cache.get(fingerprint)
            if hit is not None:
                results[job.key] = hit
                continue
            pending.append((index, job, fingerprint, prefix_fps))
        else:
            pending.append((index, job, None, []))

    # The prefix-trie plan of the misses: which boundaries must
    # snapshot, and (for the pool path) which jobs may run
    # concurrently without racing on a shared prefix.
    if cache is not None:
        waves, forced = _plan_waves([fps for _, _, _, fps in pending])
    else:
        waves = [list(range(len(pending)))]
        forced = {}

    if server is not None:
        # Imported lazily: repro.serve depends on this module.
        from repro.serve.client import ServeClient

        if pending:
            # The server runs its own prefix-flight dedup; the batch
            # goes up unplanned.
            remote = ServeClient(server).compile(
                [job for _, job, _, _ in pending]
            )
            for _, job, fingerprint, _ in pending:
                ctx = remote[job.key]
                results[job.key] = ctx
                if cache is not None:
                    cache.put(fingerprint, ctx)
    elif workers <= 1 or len(pending) <= 1:
        # Submission order already executes each shared prefix exactly
        # once: the first job carrying it leads (snapshotting the
        # forced boundary), every later job resumes from its point.
        for position, (_, job, fingerprint, _) in enumerate(pending):
            results[job.key] = _execute_job(
                job,
                cache,
                fingerprint,
                force_snapshot_after=forced.get(position, frozenset()),
            )
    else:
        cache_path = None if cache is None or cache.path is None else str(
            cache.path
        )
        if cache_path is None:
            # Workers cannot see each other's resume points without a
            # shared disk layer, so wave barriers buy nothing.
            waves = [list(range(len(pending)))]
            forced = {}
        failures: list[tuple[int, CompileJobError]] = []
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            mp_context=_pool_context(),
            initializer=ensure_recursion_headroom,
        ) as pool:
            for wave in waves:
                futures = [
                    (position,
                     pool.submit(
                         _worker_run,
                         pending[position][1],
                         cache_path,
                         forced.get(position, frozenset()),
                     ))
                    for position in wave
                ]
                for position, future in futures:
                    index, job, fingerprint, _ = pending[position]
                    try:
                        ctx = future.result()
                    except CompileJobError as exc:
                        failures.append((index, exc))
                        continue
                    results[job.key] = ctx
                    if cache is not None:
                        # The worker already published to the shared
                        # disk layer; fold into the parent's memory
                        # layer too.
                        cache.put_memory(fingerprint, ctx)
        if failures:
            # Deterministic: the earliest job in submission order
            # raises, exactly as the serial path would.
            failures.sort(key=lambda pair: pair[0])
            raise failures[0][1]

    return {job.key: results[job.key] for job in jobs}
