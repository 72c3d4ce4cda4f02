"""Content-addressed caching for flow pipeline compiles.

The figure drivers re-synthesize hundreds of independent
(module, pipeline) pairs, and repeated sweeps re-run identical jobs
from scratch.  This module keys a completed :class:`FlowContext` on a
stable *fingerprint* of everything that determines the result:

* the canonical content hash of the input design
  (:meth:`Module.canonical_hash` / :meth:`AIG.canonical_hash`),
* the rendered pipeline spec, including every non-default pass
  parameter (:meth:`PassManager.spec` -- which is why spec round-trip
  fidelity is load-bearing),
* the seeded annotations, the RNG seed, and the cell library,
* a digest of the ``repro`` package's own source (:func:`code_digest`),
  so an edited pass can never be answered by a result its old code
  computed.

:class:`CompileCache` layers a bounded in-memory LRU over an optional
*backend* -- any object implementing the small :class:`CacheBackend`
protocol (load/store raw entry bytes by fingerprint).  The built-in
:class:`LocalDirBackend` is the historical on-disk store: pickled
contexts written atomically (temp file + :func:`os.replace`), so a
directory can be shared by the worker processes of
:func:`repro.flow.parallel.compile_many` and across interpreter runs
(``python -m repro.expts`` reuses ``.repro-cache/`` by default).
:mod:`repro.serve.backends` adds remote and tiered backends speaking
the compile server's HTTP cache endpoints, which is how CI, developers
and many concurrent clients share one warm cache.  Corrupt or
truncated entries read as misses, never as errors.

The cache is thread-safe: the memory LRU and every counter are guarded
by one lock, so a compile server's request handlers and pool callbacks
can share a single instance (backend I/O happens outside the lock --
backends must be individually thread-safe, which atomic entry files
already make the local-dir one).

Cached contexts must be treated as read-only: an in-memory hit returns
the stored object itself.

Entries are **pickles**: loading one executes whatever its bytes
describe, so only point ``path`` (or a remote backend) at stores you
trust (your own working tree, your own CI workspace, your own compile
server).  Do not share a cache with writers you would not let run code
on your machine.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.flow.core import FlowContext, FlowError, is_controller_ir
from repro.tech.cells import default_library_hash

if TYPE_CHECKING:
    from repro.aig.graph import AIG
    from repro.rtl.module import Module
    from repro.synth.dc_options import StateAnnotation
    from repro.tech.cells import Library

#: Bump whenever the key layout or the context pickling layout
#: changes, to invalidate every existing entry.  Changes to pass
#: behaviour need no bump: :func:`code_digest` already keys every
#: entry on the source that computed it.
#: Version 2: controller-IR inputs (``ctrl``) and configuration
#: ``bindings`` joined the key when the frontend became passes.
#: Version 3: a ``None`` library fingerprints as the *resolved*
#: default library (``repro.tech.cells.default_library``), so a
#: changed default can never serve stale hits.
#: Version 4: :class:`FlowContext` grew a ``meta`` slot (resume
#: provenance), changing the context pickling layout.
#: Version 5: :class:`FlowContext` grew a ``facts`` slot and fact
#: sheets joined the key -- a fact-assisted compile may legitimately
#: produce a different (better) result than a plain one, so the two
#: must never collide.
FINGERPRINT_VERSION = 5

#: Bound of the in-memory resume-point layer (pickled bytes, see
#: :meth:`CompileCache.put_snapshot`).  Mid-pipeline contexts are
#: bigger and shorter-lived than completed entries, so they get their
#: own, smaller LRU.
RESUME_MEMORY_ENTRIES = 32

#: The pickle-tolerance set: anything a truncated, stale, or
#: wrong-version entry can raise while loading.  Shared by every
#: consumer that must read damaged entries as misses.
UNPICKLE_ERRORS = (
    OSError,
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
)


def flow_fingerprint(
    spec: str,
    *,
    ctrl=None,
    module: "Module | None" = None,
    aig: "AIG | None" = None,
    annotations: Sequence["StateAnnotation"] = (),
    bindings: "dict[str, list[int]] | None" = None,
    library: "Library | None" = None,
    seed: int = 2011,
    facts=None,
) -> str:
    """The cache key of one ``PassManager.compile`` invocation.

    Everything the run's result can depend on goes in: canonical input
    hashes, the rendered pipeline spec (per-pass parameters included),
    the seeded annotations in order (order can matter -- encoding
    assigns codes by iteration), the library identity, and the RNG
    seed.  Annotation values are hashed in the order given, and the
    spec is the *rendered* string, so any pass whose parameters cannot
    round-trip through spec syntax raises rather than fingerprinting
    ambiguously.

    Args:
        spec: the rendered pipeline spec (:meth:`PassManager.spec`).
        ctrl: the controller-IR input, when the flow starts from the
            frontend stage; hashed by its ``ir_hash()`` (the
            :class:`~repro.flow.core.ControllerIR` protocol), so a
            warm run skips the lowering as well as the synthesis.
        module: the un-elaborated RTL input, when the flow starts from
            RTL; hashed by :meth:`Module.canonical_hash`.
        aig: the elaborated input, when the flow starts from an AIG;
            hashed by :meth:`AIG.canonical_hash`.
        annotations: seeded state annotations, hashed in order.
        bindings: configuration-memory contents consumed by the
            ``pe_bind`` pass; hashed name-sorted.
        library: the cell library (``canonical_hash()``); ``None``
            means the flow's default library, which is *resolved
            before hashing* -- ``TechMapPass`` falls back to
            :func:`repro.tech.cells.default_library` at run time, so
            the fingerprint must cover that resolved library, not the
            ``None`` placeholder, or a future change of the built-in
            default would serve stale cache hits.
        seed: the context RNG seed.
        facts: the seeded :class:`~repro.check.facts.FactSheet`, or
            ``None``; hashed by its content hash (``sheet_hash()``),
            so fact-assisted and plain compiles key differently.

    Returns:
        A hex SHA-256 digest; equal digests mean "same compile".

    Raises:
        FlowError: via ``spec`` rendering upstream -- a pipeline whose
            parameters have no faithful spec form must not be
            fingerprinted (two distinct pipelines could collide); also
            when ``ctrl`` does not implement the ControllerIR
            protocol (an unhashable IR input must not be cached).
    """
    chunks = _input_chunks(
        ctrl=ctrl,
        module=module,
        aig=aig,
        annotations=annotations,
        bindings=bindings,
        library=library,
        seed=seed,
        facts=facts,
    )
    return _spec_digest(spec, chunks)


def _input_chunks(
    *,
    ctrl=None,
    module: "Module | None" = None,
    aig: "AIG | None" = None,
    annotations: Sequence["StateAnnotation"] = (),
    bindings: "dict[str, list[int]] | None" = None,
    library: "Library | None" = None,
    seed: int = 2011,
    facts=None,
) -> "list[bytes]":
    """The input-dependent digest chunks of :func:`flow_fingerprint`,
    in hashing order -- everything except the version header and the
    spec chunk, so a prefix fold (:func:`fingerprint_prefixes`) hashes
    the inputs once instead of once per prefix."""
    if ctrl is not None and not is_controller_ir(ctrl):
        raise FlowError(
            f"{type(ctrl).__name__} input has no ir_hash(): only "
            f"ControllerIR inputs can be fingerprinted"
        )
    chunks = [
        repr(("ctrl", None if ctrl is None else ctrl.ir_hash())).encode(),
        repr(
            ("module", None if module is None else module.canonical_hash())
        ).encode(),
        repr(
            (
                "bindings",
                None
                if bindings is None
                else tuple(
                    (name, tuple(words))
                    for name, words in sorted(bindings.items())
                ),
            )
        ).encode(),
        repr(
            ("aig", None if aig is None else aig.canonical_hash())
        ).encode(),
        repr(
            (
                "annotations",
                tuple((a.reg_name, tuple(a.values)) for a in annotations),
            )
        ).encode(),
    ]
    library_hash = (
        default_library_hash() if library is None else library.canonical_hash()
    )
    chunks.append(repr(("library", library_hash)).encode())
    # Specs carry pass-pinned libraries by *name* (map{library=...});
    # the registry digest makes the names' definitions part of the
    # key, so editing any registered kit invalidates instead of
    # replaying results mapped against the old cells.  Imported
    # lazily: this module loads before the pass registry during
    # package import.
    from repro.flow.passes import registered_libraries_digest

    chunks.append(
        repr(("library-registry", registered_libraries_digest())).encode()
    )
    chunks.append(repr(("seed", seed)).encode())
    chunks.append(
        repr(
            ("facts", None if facts is None else facts.sheet_hash())
        ).encode()
    )
    return chunks


@functools.cache
def code_digest() -> str:
    """SHA-256 over every ``.py`` source of the ``repro`` package.

    Computed on the first fingerprint of a process, never at import,
    and folded into every cache key, so results cached by one version
    of the code are misses for any other.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        source = path.read_bytes()
        name = path.relative_to(root).as_posix()
        digest.update(repr((name, len(source))).encode())
        digest.update(source)
    return digest.hexdigest()


def _spec_digest(spec: str, chunks: "list[bytes]") -> str:
    digest = hashlib.sha256()
    digest.update(repr(("flow-fingerprint", FINGERPRINT_VERSION)).encode())
    digest.update(repr(("code", code_digest())).encode())
    digest.update(repr(("spec", spec)).encode())
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def fingerprint_prefixes(
    prefix_specs: Sequence[str],
    *,
    ctrl=None,
    module: "Module | None" = None,
    aig: "AIG | None" = None,
    annotations: Sequence["StateAnnotation"] = (),
    bindings: "dict[str, list[int]] | None" = None,
    library: "Library | None" = None,
    seed: int = 2011,
    facts=None,
) -> "list[str]":
    """:func:`flow_fingerprint` folded over every pipeline prefix.

    ``prefix_specs`` is the cumulative rendered spec of each prefix
    (:meth:`PassManager.prefix_specs` -- element ``k`` covers the
    first ``k + 1`` passes, so the last element is the full spec).
    The input hashes are computed once and each prefix fingerprint is
    *digest-identical* to calling :func:`flow_fingerprint` on that
    prefix's spec with the same inputs: the fingerprint of a pipeline
    that genuinely ends at pass ``k`` and of the length-``k`` prefix
    of a longer pipeline are the same key, which is what makes resume
    points shareable across recipes that diverge after a common
    prefix (and lets them live in the completed-entry namespace).

    Returns:
        One hex digest per prefix, in prefix order (the last is the
        full-pipeline fingerprint).
    """
    chunks = _input_chunks(
        ctrl=ctrl,
        module=module,
        aig=aig,
        annotations=annotations,
        bindings=bindings,
        library=library,
        seed=seed,
        facts=facts,
    )
    return [_spec_digest(spec, chunks) for spec in prefix_specs]


class CacheBackend:
    """The protocol of a :class:`CompileCache` persistence layer.

    A backend is a key-value store of raw entry bytes keyed by
    :func:`flow_fingerprint` digests -- completed results and
    mid-pipeline resume points alike, since a prefix fingerprint is
    the full fingerprint of the pipeline that ends there.  It never
    sees the pickling -- serialization stays in :class:`CompileCache`,
    so every backend (local directory, remote server, tiered
    combinations) moves opaque blobs and the corrupt-entry tolerance
    lives in exactly one place.

    Backends must be safe to call from multiple threads: the cache
    invokes them outside its own lock so slow I/O never serializes
    unrelated lookups.
    """

    def load(self, key: str) -> bytes | None:
        """The stored blob for ``key``, or ``None`` on a miss.  I/O
        failures read as misses, never as errors."""
        raise NotImplementedError

    def store(self, key: str, blob: bytes) -> None:
        """Persist ``blob`` under ``key``, replacing any previous
        entry.  Concurrent writers of the same key must be safe."""
        raise NotImplementedError

    def stats(self) -> dict:
        """A JSON-safe description of the backend for ``/stats``."""
        return {"kind": type(self).__name__}

    def sweep(
        self,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
    ) -> "SweepStats":
        """Evict stored entries (see :meth:`CompileCache.sweep` for
        the contract).  A store this process cannot garbage-collect
        (a remote server owns its own) sweeps nothing."""
        return SweepStats()


class LocalDirBackend(CacheBackend):
    """The historical on-disk store: one atomically-written pickle
    file per fingerprint under a two-level fanout directory.

    Args:
        path: store directory; created on first write.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    def entry_file(self, key: str) -> Path:
        # Two-level fanout keeps directories small on big sweeps.
        return self.path / key[:2] / f"{key}.pkl"

    def load(self, key: str) -> bytes | None:
        try:
            return self.entry_file(key).read_bytes()
        except OSError:
            return None

    def store(self, key: str, blob: bytes) -> None:
        entry = self.entry_file(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: concurrent workers may race on the same key,
        # and a reader must never observe a half-written pickle.
        handle = tempfile.NamedTemporaryFile(
            dir=entry.parent, prefix=f".{key[:8]}-", suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                handle.write(blob)
            os.replace(handle.name, entry)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def _entries(self) -> "list[tuple[float, int, Path]]":
        """``(mtime, size, file)`` of every stored entry; foreign and
        vanishing files are skipped."""
        try:
            if not self.path.is_dir():
                return []
            files = list(self.path.glob("*/*.pkl"))
        except OSError:
            return []  # an unreadable cache directory reads as empty
        entries = []
        for file in files:
            try:
                if not file.is_file():
                    continue  # a directory named *.pkl is not ours
                stat = file.stat()
            except OSError:
                continue  # deleted (or unreadable) under us: skip
            entries.append((stat.st_mtime, stat.st_size, file))
        return entries

    def stats(self) -> dict:
        entries = self._entries()
        return {
            "kind": "local-dir",
            "path": str(self.path),
            "entries": len(entries),
            "entry_bytes": sum(size for _, size, _ in entries),
        }

    # -- garbage collection -------------------------------------------
    def sweep(
        self,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
    ) -> "SweepStats":
        """Evict entries by age, then oldest-first by size budget.
        Resume points are entries like any other: one listing, one
        age horizon, one budget."""
        entries = self._entries()
        bytes_before = sum(size for _, size, _ in entries)
        scanned = len(entries)

        doomed: list[tuple[float, int, Path]] = []
        if max_age_days is not None:
            horizon = time.time() - max_age_days * 86400.0
            doomed = [e for e in entries if e[0] < horizon]
            entries = [e for e in entries if e[0] >= horizon]
        if max_bytes is not None:
            entries.sort(key=lambda e: e[:2])  # oldest first
            kept_bytes = sum(size for _, size, _ in entries)
            while entries and kept_bytes > max_bytes:
                victim = entries.pop(0)
                kept_bytes -= victim[1]
                doomed.append(victim)

        removed = 0
        freed = 0
        for _, size, file in doomed:
            try:
                os.unlink(file)
            except OSError:
                continue  # already gone: someone else swept it
            removed += 1
            freed += size
        return SweepStats(
            scanned=scanned,
            removed=removed,
            bytes_before=bytes_before,
            bytes_after=bytes_before - freed,
        )


class CompileCache:
    """A two-layer (memory LRU, optional backend) store of flow
    contexts, keyed by :func:`flow_fingerprint`.

    One namespace holds completed results and mid-pipeline *resume
    points* (:meth:`put_snapshot`): a prefix fingerprint is the full
    fingerprint of the pipeline that ends there, so a resume point is
    the completed result of that shorter pipeline, and either kind of
    store serves both :meth:`get` and :meth:`get_prefix_entry`.

    Args:
        path: directory of an on-disk :class:`LocalDirBackend`;
            created on first write.  ``None`` keeps the cache
            memory-only (unless ``backend`` is given).
        max_memory_entries: LRU bound of the in-memory layer.
        backend: an explicit :class:`CacheBackend` (mutually exclusive
            with ``path``) -- e.g. the remote or tiered backends of
            :mod:`repro.serve.backends`.
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        max_memory_entries: int = 512,
        backend: CacheBackend | None = None,
    ) -> None:
        if max_memory_entries < 1:
            raise ValueError(
                f"max_memory_entries must be >= 1, got {max_memory_entries}"
            )
        if path is not None and backend is not None:
            raise ValueError(
                "give path (a LocalDirBackend) or backend, not both"
            )
        if backend is None and path is not None:
            backend = LocalDirBackend(path)
        self.backend = backend
        self.max_memory_entries = max_memory_entries
        #: One lock guards the LRU dicts and every counter: server
        #: request handlers and pool callbacks share one instance, and
        #: an unguarded OrderedDict corrupts under concurrent movers.
        #: Backend I/O and (un)pickling happen outside the lock.
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, "FlowContext"] = OrderedDict()  # guarded-by: _lock
        #: Resume points stay pickled *bytes*, never the unpickled
        #: context: resuming mutates the restored context in place, so
        #: handing two resumes one shared object would let the first
        #: corrupt the second.  Every hit unpickles fresh.
        self._resume: OrderedDict[str, bytes] = OrderedDict()  # guarded-by: _lock
        self.memory_hits = 0  # guarded-by: _lock
        self.disk_hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.stores = 0  # guarded-by: _lock
        self.inflight = 0  # guarded-by: _lock
        self.snapshot_stores = 0  # guarded-by: _lock

    @property
    def path(self) -> Path | None:
        """The local store directory, when the backend is one
        (:func:`repro.flow.parallel.compile_many` ships this to worker
        processes); ``None`` for memory-only and remote backends."""
        if isinstance(self.backend, LocalDirBackend):
            return self.backend.path
        return None

    # -- lookup -------------------------------------------------------
    @property
    def hits(self) -> int:
        with self._lock:
            return self.memory_hits + self.disk_hits

    def get(self, key: str) -> "FlowContext | None":
        """Look up a completed context by fingerprint.

        A resume point stored under ``key`` answers too (it *is* the
        completed result of the pipeline ``key`` fingerprints).  Hits
        are promoted into the memory layer.  Corrupt or truncated
        entries read as misses, never as errors.

        Args:
            key: a :func:`flow_fingerprint` digest.

        Returns:
            The cached context (treat as read-only -- memory hits
            share one object), or ``None`` on a miss.
        """
        with self._lock:
            hit = self._memory.get(key)
            if hit is not None:
                self._memory.move_to_end(key)
                self.memory_hits += 1
                return hit
            blob = self._resume.get(key)
        in_memory = blob is not None
        if blob is None and self.backend is not None:
            blob = self.backend.load(key)
        hit = None if blob is None else _loads(blob)
        with self._lock:
            if hit is None:
                self.misses += 1
            elif in_memory:
                self.memory_hits += 1
            else:
                self.disk_hits += 1
        if hit is not None:
            self.put_memory(key, hit)
        return hit

    def put(self, key: str, ctx: "FlowContext") -> None:
        """Store a completed context under ``key`` (memory and
        backend).

        Args:
            key: a :func:`flow_fingerprint` digest.
            ctx: the finished flow context; stored by reference in
                memory and pickled to the backend, so do not mutate it
                after storing.

        Raises:
            OSError: a local backend's directory is not writable.
        """
        self.put_memory(key, ctx)
        if self.backend is not None:
            self.backend.store(key, _dumps(ctx))
        with self._lock:
            self.stores += 1

    # -- resume points ------------------------------------------------
    def put_snapshot(
        self, prefix_fingerprint: str, ctx: "FlowContext"
    ) -> None:
        """Store a mid-pipeline context as the resume point of a
        pipeline prefix (:func:`fingerprint_prefixes`).

        The context is pickled once, here -- the stored bytes are the
        resume point's identity from then on, immune to the caller
        continuing to mutate ``ctx`` -- and the bytes go under the
        prefix fingerprint itself, in memory and in the backend.
        """
        blob = _dumps(ctx)
        self._remember(prefix_fingerprint, blob)
        if self.backend is not None:
            self.backend.store(prefix_fingerprint, blob)
        with self._lock:
            self.snapshot_stores += 1

    def get_prefix_entry(self, key: str) -> "FlowContext | None":
        """The context stored under ``key`` restored *for mutation* --
        the resume probe's read, whether a resume point or a completed
        entry of a shorter pipeline is stored there.

        Unlike :meth:`get`, the result is always a fresh copy (memory
        hits are unpickled or pickle-roundtripped), never the shared
        read-only object, and no hit/miss counters move -- cold
        compiles probe every prefix depth, which would otherwise drown
        the miss rate.
        """
        with self._lock:
            blob = self._resume.get(key)
            if blob is not None:
                self._resume.move_to_end(key)
            ctx = self._memory.get(key) if blob is None else None
        if blob is not None:
            return _loads(blob)
        if ctx is not None:
            return _loads(_dumps(ctx))
        if self.backend is None:
            return None
        blob = self.backend.load(key)
        restored = None if blob is None else _loads(blob)
        if restored is not None:
            self._remember(key, blob)
        return restored

    #: The resume read under its earlier name: ``perfbench`` binds a
    #: trace target to it by name, and that tree changes only with the
    #: benchmark.
    get_snapshot = get_prefix_entry

    def _remember(self, key: str, blob: bytes) -> None:
        with self._lock:
            self._resume[key] = blob
            self._resume.move_to_end(key)
            while len(self._resume) > RESUME_MEMORY_ENTRIES:
                self._resume.popitem(last=False)

    def stats(self) -> dict:
        """A JSON-safe counter snapshot -- what the compile server
        exposes at ``/stats``.  ``disk_hits`` counts backend hits;
        ``snapshot_stores`` counts resume points written;
        ``inflight`` is the number of cache-missing compiles
        currently executing (maintained by callers through
        :meth:`inflight_begin`/:meth:`inflight_end`)."""
        with self._lock:
            return {
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "hits": self.memory_hits + self.disk_hits,
                "misses": self.misses,
                "stores": self.stores,
                "inflight": self.inflight,
                "memory_entries": len(self._memory),
                "snapshot_stores": self.snapshot_stores,
                "backend": None
                if self.backend is None
                else self.backend.stats(),
            }

    def stats_line(self) -> str:
        """The one-line human form of :meth:`stats`."""
        stats = self.stats()
        return (
            f"cache: {stats['memory_hits']} memory hits, "
            f"{stats['disk_hits']} disk hits, {stats['misses']} misses, "
            f"{stats['stores']} stores"
        )

    # -- in-flight accounting -----------------------------------------
    def inflight_begin(self) -> None:
        """Mark one cache-missing compile as executing (server
        handlers call this around the actual synthesis work)."""
        with self._lock:
            self.inflight += 1

    def inflight_end(self) -> None:
        with self._lock:
            self.inflight -= 1

    # -- the memory layer ---------------------------------------------
    def put_memory(self, key: str, ctx: "FlowContext") -> None:
        """Store in the memory layer only (used when the backend was
        already written by a worker process)."""
        with self._lock:
            self._memory[key] = ctx
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)

    # -- raw entry bytes (the server's cache endpoints) ---------------
    def export_blob(self, key: str) -> bytes | None:
        """The raw entry bytes for ``key``, or ``None`` on a miss.

        Serves ``GET /cache/<fingerprint>``: backend bytes are returned
        verbatim when available; a memory-only hit is returned as its
        pickled bytes, so a remote client reading through this cache
        sees exactly what a local cache would have stored.
        """
        if self.backend is not None:
            blob = self.backend.load(key)
            if blob is not None:
                return blob
        with self._lock:
            blob = self._resume.get(key)
            ctx = self._memory.get(key)
        if blob is not None:
            return blob
        return None if ctx is None else _dumps(ctx)

    def import_blob(self, key: str, blob: bytes) -> bool:
        """Store raw entry bytes under ``key`` (``PUT
        /cache/<fingerprint>``).

        With a backend, the bytes are persisted verbatim (no unpickle
        on the write path -- a server absorbing write-through traffic
        must not execute every uploaded entry).  Memory-only caches
        must deserialize to keep the entry at all; a corrupt or
        wrong-shaped blob is rejected.

        Returns:
            True when the entry was accepted.
        """
        if self.backend is not None:
            self.backend.store(key, blob)
        else:
            ctx = _loads(blob)
            if ctx is None:
                return False
            self.put_memory(key, ctx)
        with self._lock:
            self.stores += 1
        return True

    # -- garbage collection -------------------------------------------
    def sweep(
        self,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
    ) -> "SweepStats":
        """Evict backend entries by age, then by size budget.

        ``.repro-cache/`` otherwise grows without bound: every distinct
        (design, pipeline, seed, library) fingerprint adds a pickle
        that nothing ever deletes.  The sweep first drops entries older
        than ``max_age_days`` (by mtime -- ``os.replace`` preserves the
        write time, so age means "time since this result was
        computed"), then, if the survivors still exceed ``max_bytes``,
        drops the oldest survivors first until the budget holds.
        Resume points are entries and are swept with them.
        Concurrently-deleted files are skipped, so sweeping a live
        shared cache is safe; the memory layer is left intact (it is
        bounded by ``max_memory_entries`` already).

        Args:
            max_bytes: total size budget for the local store; ``None``
                means no size bound.
            max_age_days: entries older than this are evicted
                regardless of the size budget; ``None`` means no age
                bound.

        Returns:
            A :class:`SweepStats` describing what was scanned, what
            was removed, and the bytes before/after.  A memory-only
            cache, a backend that is not a sweepable local store, a
            missing or empty cache directory, and a ``path`` that is
            not a directory at all return all-zero stats -- GC of
            nothing is a no-op, never an error.  Foreign files in the
            cache directory (anything that is not a regular ``*.pkl``
            entry file, including stray subdirectories named like
            entries) and files that vanish or turn unreadable
            mid-sweep are skipped, not crashed on.

        Raises:
            ValueError: a negative ``max_bytes`` or ``max_age_days``.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_age_days is not None and max_age_days < 0:
            raise ValueError(
                f"max_age_days must be >= 0, got {max_age_days}"
            )
        if self.backend is None:
            return SweepStats()
        return self.backend.sweep(
            max_bytes=max_bytes, max_age_days=max_age_days
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "memory" if self.backend is None else repr(self.backend.stats())
        return f"<CompileCache {where} {self.stats_line()!r}>"


def _dumps(ctx: "FlowContext") -> bytes:
    return pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL)


def _loads(blob: bytes) -> "FlowContext | None":
    try:
        loaded = pickle.loads(blob)
    except UNPICKLE_ERRORS:
        # A truncated or stale entry is a miss, not an error.
        return None
    if not isinstance(loaded, FlowContext):
        # A foreign blob under an entry key is a miss, never a context.
        return None
    return loaded


@dataclass(frozen=True)
class SweepStats:
    """What one :meth:`CompileCache.sweep` did."""

    scanned: int = 0
    removed: int = 0
    bytes_before: int = 0
    bytes_after: int = 0

    def __str__(self) -> str:
        return (
            f"swept {self.removed}/{self.scanned} entries, "
            f"{self.bytes_before} -> {self.bytes_after} bytes"
        )
