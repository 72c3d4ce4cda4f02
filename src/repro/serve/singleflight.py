"""Single-flight execution: N concurrent identical calls, one run.

The compile server dedupes in-flight work by
:func:`~repro.flow.cache.flow_fingerprint`: when many clients submit
the same compile concurrently (a CI fan-out warming one shared cache
is the motivating case), exactly one *leader* executes it and every
concurrent *follower* blocks on the leader's result instead of
burning a worker slot on a duplicate.  This is the classic
``singleflight`` primitive of Go's ``groupcache``, reduced to what a
threaded server needs.

Scope: single-flight spans *concurrent* calls only.  Once the leader
finishes, its table entry is dropped -- a later identical call starts
fresh (and is expected to hit the result cache instead; the server
always re-checks the cache inside the flight, so the leader/cache
composition never computes twice either).

Errors propagate to everyone: the leader's exception is re-raised in
each waiting follower, so a failing compile fails every submitter of
that fingerprint rather than hanging the followers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, TypeVar

T = TypeVar("T")


class _Flight:
    """One in-flight computation: an event the followers wait on and
    the slots the leader fills before setting it."""

    __slots__ = ("done", "result", "error", "followers")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result = None
        self.error: BaseException | None = None
        self.followers = 0


@dataclass(frozen=True)
class FlightOutcome:
    """What one :meth:`SingleFlight.do` call observed.

    ``leader`` is True for the caller that actually executed ``fn``;
    ``deduped`` for followers that rode an in-flight leader.  Exactly
    one of them is True per call.
    """

    value: object
    leader: bool

    @property
    def deduped(self) -> bool:
        return not self.leader


@dataclass
class FlightStats:
    """Thread-safe counters over one :class:`SingleFlight` table."""

    started: int = 0  # guarded-by: _lock
    deduped: int = 0  # guarded-by: _lock
    errors: int = 0  # guarded-by: _lock
    prefix_waits: int = 0  # guarded-by: _lock
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def to_json(self) -> dict:
        with self._lock:
            return {
                "started": self.started,
                "deduped": self.deduped,
                "errors": self.errors,
                "prefix_waits": self.prefix_waits,
            }


class SingleFlight:
    """A table of in-flight keyed computations with leader election.

    Usage::

        flight = SingleFlight()
        outcome = flight.do(fingerprint, compute)
        ctx = outcome.value          # computed once per concurrent burst
        if outcome.deduped: ...      # this caller rode a leader

    Thread-safe; ``fn`` runs outside the table lock, so flights of
    *different* keys execute concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}  # guarded-by: _lock
        self._prefixes: dict[str, _Flight] = {}  # guarded-by: _lock
        self.stats = FlightStats()

    def inflight(self) -> int:
        """How many distinct keys are currently executing."""
        with self._lock:
            return len(self._flights)

    def do(
        self,
        key: str,
        fn: Callable[[], T],
        prefix_keys: "tuple[str, ...]" = (),
    ) -> FlightOutcome:
        """Run ``fn`` once per concurrent burst of ``key``.

        The first caller of a key becomes the leader and executes
        ``fn``; callers arriving while the leader runs block and
        receive the leader's result (or re-raise its exception) without
        executing anything.

        ``prefix_keys`` extends the dedup to *shared pipeline
        prefixes* (shallowest first -- the server passes prefix
        fingerprints): a leader registers them alongside its own key,
        and a caller whose key misses but whose prefix matches an
        executing leader waits for that leader to finish **once**
        before leading itself -- by then the leader's resume points
        are in the cache, so the resumed compile skips the shared
        prefix instead of racing the leader through it.  Waiters never
        hold a flight while waiting, so prefix waits cannot deadlock.

        Args:
            key: the dedup key (a flow fingerprint, for the server).
            fn: the computation; executed by leaders only.
            prefix_keys: keys of the pipeline's proper prefixes.

        Returns:
            A :class:`FlightOutcome` carrying the value and whether
            this caller led or was deduped.

        Raises:
            BaseException: whatever ``fn`` raised, in the leader *and*
                in every follower of that flight.
        """
        waited = False
        while True:
            leading = False
            owner: _Flight | None = None
            with self._lock:
                flight = self._flights.get(key)
                if flight is not None:
                    flight.followers += 1
                    with self.stats._lock:
                        self.stats.deduped += 1
                elif not waited:
                    # Deepest shared prefix first: the further along
                    # the owner is, the more of our pipeline its
                    # resume points cover.
                    for prefix in reversed(prefix_keys):
                        owner = self._prefixes.get(prefix)
                        if owner is not None:
                            break
                if flight is None and owner is None:
                    flight = _Flight()
                    self._flights[key] = flight
                    for prefix in prefix_keys:
                        self._prefixes.setdefault(prefix, flight)
                    leading = True
                    with self.stats._lock:
                        self.stats.started += 1
            if owner is not None:
                # Wait at most once (an executing leader never waits,
                # so there is no cycle to deadlock on), then re-enter:
                # the owner may have published exactly our key, in
                # which case the cache re-check inside ``fn`` wins.
                with self.stats._lock:
                    self.stats.prefix_waits += 1
                owner.done.wait()
                waited = True
                continue
            break
        if leading:
            try:
                flight.result = fn()
            except BaseException as exc:
                flight.error = exc
                with self.stats._lock:
                    self.stats.errors += 1
                raise
            finally:
                # Drop the table entries *before* waking followers: a
                # caller arriving after completion must start a fresh
                # flight (and normally hits the result cache instead).
                with self._lock:
                    del self._flights[key]
                    for prefix in prefix_keys:
                        if self._prefixes.get(prefix) is flight:
                            del self._prefixes[prefix]
                flight.done.set()
            return FlightOutcome(flight.result, leader=True)

        flight.done.wait()
        if flight.error is not None:
            raise flight.error
        return FlightOutcome(flight.result, leader=False)
