"""Shared cache backends: remote (sharded) and tiered layering.

The :class:`~repro.flow.cache.CacheBackend` protocol moves opaque
entry bytes; these implementations make a
:class:`~repro.flow.cache.CompileCache` *shared infrastructure*:

* :class:`RemoteBackend` speaks the compile server's
  ``GET/PUT /cache/<fingerprint>`` endpoints (completed results and
  resume points alike).  Given several server URLs it shards
  deterministically by fingerprint prefix, so a fleet of cache
  servers splits the keyspace without coordination (every client
  computes the same shard for the same key).
* :class:`TieredBackend` layers two backends read-through /
  write-through: loads try the near layer first and promote far hits
  into it; stores write both.  ``TieredBackend(LocalDirBackend(...),
  RemoteBackend(...))`` is the intended shape -- a developer's local
  ``.repro-cache/`` fronting the team's shared server, so only the
  first miss of a fingerprint ever crosses the network.

Failure posture: a shared cache is an accelerator, never a
correctness dependency.  Remote loads that fail for any reason read
as misses and remote stores are best-effort (counted, not raised), so
an unreachable cache server degrades a sweep to local compiling
instead of crashing it.
"""

from __future__ import annotations

import threading
import urllib.error
import urllib.request

from repro.flow.cache import CacheBackend

#: Cache entries are a few hundred KB of pickle; a hung shared cache
#: must not stall a compile longer than the compile itself would take.
DEFAULT_TIMEOUT_S = 30.0


class RemoteBackend(CacheBackend):
    """A cache backend speaking compile-server ``/cache`` endpoints,
    sharded by fingerprint prefix across one or more servers.

    Args:
        urls: one server base URL or a sequence of them; with several,
            entry ``key`` lives on ``urls[int(key[:8], 16) % len]`` --
            fingerprints are uniform SHA-256 digests, so the prefix
            spreads load evenly and every client agrees on placement.
        timeout: socket timeout per cache operation, seconds.
    """

    def __init__(
        self,
        urls: "str | list[str] | tuple[str, ...]",
        timeout: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        if isinstance(urls, str):
            urls = (urls,)
        self.urls = tuple(url.rstrip("/") for url in urls)
        if not self.urls:
            raise ValueError("RemoteBackend needs at least one server URL")
        self.timeout = timeout
        self._lock = threading.Lock()
        self.loads = 0  # guarded-by: _lock
        self.load_hits = 0  # guarded-by: _lock
        self.load_errors = 0  # guarded-by: _lock
        self.store_calls = 0  # guarded-by: _lock
        self.store_errors = 0  # guarded-by: _lock

    def shard(self, key: str) -> str:
        """The server URL entry ``key`` shards to."""
        return self.urls[int(key[:8], 16) % len(self.urls)]

    def _entry_url(self, key: str) -> str:
        return f"{self.shard(key)}/cache/{key}"

    def load(self, key: str) -> bytes | None:
        with self._lock:
            self.loads += 1
        try:
            with urllib.request.urlopen(
                self._entry_url(key), timeout=self.timeout
            ) as response:
                blob = response.read()
        except urllib.error.HTTPError as exc:
            if exc.code != 404:
                with self._lock:
                    self.load_errors += 1
            return None
        except (OSError, urllib.error.URLError, ValueError):
            # Unreachable shard, bad URL, timeout: a miss, not a crash.
            with self._lock:
                self.load_errors += 1
            return None
        with self._lock:
            self.load_hits += 1
        return blob

    def store(self, key: str, blob: bytes) -> None:
        with self._lock:
            self.store_calls += 1
        request = urllib.request.Request(
            self._entry_url(key),
            data=blob,
            headers={"Content-Type": "application/octet-stream"},
            method="PUT",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout):
                pass
        except (OSError, urllib.error.URLError, ValueError):
            # Write-through is best-effort: losing a shared-store write
            # costs a future client one compile, never this one.
            with self._lock:
                self.store_errors += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "kind": "remote",
                "urls": list(self.urls),
                "loads": self.loads,
                "load_hits": self.load_hits,
                "load_errors": self.load_errors,
                "store_calls": self.store_calls,
                "store_errors": self.store_errors,
            }


class TieredBackend(CacheBackend):
    """Two backends layered read-through / write-through.

    Args:
        near: the fast front layer (typically a
            :class:`~repro.flow.cache.LocalDirBackend`); consulted
            first on loads, receives promoted far hits and all stores.
        far: the shared back layer (typically a
            :class:`RemoteBackend`); consulted on near misses, written
            through on stores.
    """

    def __init__(self, near: CacheBackend, far: CacheBackend) -> None:
        self.near = near
        self.far = far
        self._lock = threading.Lock()
        self.near_hits = 0  # guarded-by: _lock
        self.far_hits = 0  # guarded-by: _lock
        self.promotions = 0  # guarded-by: _lock

    def load(self, key: str) -> bytes | None:
        blob = self.near.load(key)
        if blob is not None:
            with self._lock:
                self.near_hits += 1
            return blob
        blob = self.far.load(key)
        if blob is None:
            return None
        with self._lock:
            self.far_hits += 1
        try:
            self.near.store(key, blob)
            with self._lock:
                self.promotions += 1
        except OSError:
            pass  # an unwritable near layer only costs repeat far reads
        return blob

    def store(self, key: str, blob: bytes) -> None:
        self.near.store(key, blob)
        self.far.store(key, blob)

    def stats(self) -> dict:
        with self._lock:
            counters = {
                "near_hits": self.near_hits,
                "far_hits": self.far_hits,
                "promotions": self.promotions,
            }
        return {
            "kind": "tiered",
            **counters,
            "near": self.near.stats(),
            "far": self.far.stats(),
        }

    # GC passes through to the near layer, so ``track gc`` keeps
    # working on a tiered developer cache.
    def sweep(self, max_bytes=None, max_age_days=None):
        return self.near.sweep(
            max_bytes=max_bytes, max_age_days=max_age_days
        )
