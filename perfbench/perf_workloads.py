"""The benchmark's workloads: what one cold phase and its warm phases run.

``pctrl-cold`` and ``figures-sweep`` call the public figure drivers of
:mod:`repro.expts` against a fresh private on-disk cache; the warm
phases re-run the same drivers against new :class:`CompileCache`
objects over the directory the cold phase filled, so every warm hit
is read back from disk.  ``serve-replay`` self-hosts a
:class:`repro.serve.server.CompileServer` and replays a seeded trace
through closed-loop client threads.

The drivers return figure tables, not compiled contexts, so each phase
captures the contexts ``compile_many`` hands back to the drivers by
wrapping that one binding in each driver module (a pass-through that
only keeps a reference); the correctness gate reads them after the
timed region.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import shutil
import subprocess
import tempfile
import threading
import time
from pathlib import Path

from perf_trace import Patcher

SCALE = "small"

#: (label, driver module, driver function) per compile workload.
FIGURE_DRIVERS = {
    "pctrl-cold": (("fig9", "repro.expts.fig9_pctrl", "run_fig9"),),
    "figures-sweep": (
        ("fig5", "repro.expts.fig5_tables", "run_fig5"),
        ("fig6", "repro.expts.fig6_fsm", "run_fig6"),
        ("fig8", "repro.expts.fig8_stateprop", "run_fig8"),
        ("techsweep", "repro.expts.techsweep", "run_techsweep"),
    ),
}

WORKLOADS = ("pctrl-cold", "figures-sweep", "serve-replay")


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Phase:
    """What one cold or warm phase did and returned."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.jobs = 0
        self.results: dict = {}
        self.tables: dict = {}
        self.cache: dict = {}
        self.failures: list[str] = []
        self.latencies_ms: list[float] = []
        self.server_ms: list[float] = []
        self.hits = 0
        self.compiles = 0
        #: Result digests keyed by ``repr(key)``, for a phase that ran
        #: in another interpreter and sent digests instead of contexts.
        self.digests: "dict | None" = None

    def to_json(self, digest) -> dict:
        """What a phase run in another interpreter reports back."""
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "jobs": self.jobs,
            "tables": self.tables,
            "cache": self.cache,
            "failures": self.failures,
            "digests": {
                repr(key): digest(ctx) for key, ctx in self.results.items()
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "Phase":
        phase = cls(data["name"])
        for field in ("wall_s", "cpu_s", "jobs", "tables", "cache",
                      "failures", "digests"):
            setattr(phase, field, data[field])
        return phase


class Cycle:
    """One cold phase and the warm phases that follow it."""

    def __init__(self, cold: Phase, warms: list) -> None:
        self.cold = cold
        self.warms = warms

    @property
    def phases(self) -> list:
        return [self.cold, *self.warms]


def _capturing(label: str, sink: list, original):
    def compile_many(jobs, **kwargs):
        out = original(jobs, **kwargs)
        sink.append((label, out))
        return out

    return compile_many


class FigureWorkload:
    """Figure drivers over a fresh private cache: cold, then warm.

    With ``warm_command`` (the argument vector that starts this
    benchmark in another interpreter), each cycle's warm phases run in
    ``warm_procs`` fresh interpreters, the way a later invocation of a
    figure meets the cache an earlier one filled; they report timings,
    tables and result digests back as JSON.  Without it (the traced
    run) the warm phases run in this process.
    """

    def __init__(
        self, name: str, seed: int, workdir: Path, workers: int,
        warm_repeats: int, warm_procs: int = 1, warm_command=None,
    ) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.workers = workers
        self.warm_repeats = warm_repeats
        self.warm_procs = warm_procs
        self.warm_command = warm_command
        self.drivers = FIGURE_DRIVERS[name]

    def setup(self) -> None:
        """Import the drivers and build what the drivers do not."""
        from repro.flow import CompileCache

        self.CompileCache = CompileCache
        self.modules = {
            label: importlib.import_module(module)
            for label, module, _ in self.drivers
        }
        self.funcs = {
            label: getattr(self.modules[label], func)
            for label, _, func in self.drivers
        }
        if self.name == "pctrl-cold":
            from repro.expts.fig9_pctrl import Fig9Scale
            from repro.smartmem.pctrl import build_pctrl

            build_pctrl(Fig9Scale.named(SCALE).params)

    def _phase(self, name: str, cache) -> Phase:
        phase = Phase(name)
        sink: list = []
        with Patcher() as patcher:
            for label in self.funcs:
                patcher.replace(
                    self.modules[label],
                    "compile_many",
                    lambda original, label=label: _capturing(
                        label, sink, original
                    ),
                )
            gc.collect()
            cpu0 = cpu_seconds()
            start = time.perf_counter()
            for label, func in self.funcs.items():
                result = func(scale=SCALE, workers=self.workers, cache=cache)
                phase.tables[label] = dict(result.tables)
            phase.wall_s = time.perf_counter() - start
            phase.cpu_s = cpu_seconds() - cpu0
        calls: dict = {}
        for label, out in sink:
            call = calls[label] = calls.get(label, -1) + 1
            for key, ctx in out.items():
                phase.results[(label, call, key)] = ctx
        phase.jobs = len(phase.results)
        phase.cache = cache.stats()
        return phase

    def warm_phases(self, path, inspect) -> list:
        """``warm_repeats`` warm phases, each through a new cache
        object over ``path``, so every hit is read back from disk."""
        warms = []
        for _ in range(self.warm_repeats):
            warm = self._phase("warm", self.CompileCache(path))
            stats = warm.cache
            if stats["misses"] or stats["stores"] or stats["snapshot_stores"]:
                warm.failures.append(
                    f"warm phase saw {stats['misses']} misses, "
                    f"{stats['stores']} stores and "
                    f"{stats['snapshot_stores']} snapshot stores"
                )
            inspect(warm)
            warms.append(warm)
        return warms

    def _warm_elsewhere(self, path) -> list:
        command = [
            *self.warm_command, "--warm-child", "--workload", self.name,
            "--seed", str(self.seed), "--cache-dir", str(path),
            "--repeats", str(self.warm_repeats),
        ]
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=150,
        )
        if done.returncode != 0:
            raise RuntimeError(f"warm phase failed: {done.stderr.strip()}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        return [Phase.from_json(data) for data in report["phases"]]

    def cycle(self, inspect) -> Cycle:
        """One cold phase and its warm phases; ``inspect(phase)`` runs
        after each phase, outside the timed region."""
        path = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        try:
            cold = self._phase("cold", self.CompileCache(path))
            if cold.cache["hits"]:
                cold.failures.append(
                    f"cold phase saw {cold.cache['hits']} cache hits"
                )
            inspect(cold)
            if self.warm_command is None:
                return Cycle(cold, self.warm_phases(path, inspect))
            warms = []
            for _ in range(self.warm_procs):
                for warm in self._warm_elsewhere(path):
                    inspect(warm)
                    warms.append(warm)
            return Cycle(cold, warms)
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def environments(self, key) -> tuple:
        """Input assumptions a result was specialized under.

        Fig. 9's Manual flow pins dispatch to the opcodes its
        configuration can receive, so its netlists are checked once per
        legal opcode with ``req_op`` held there."""
        label, _, job_key = key
        if label == "fig9" and job_key[0] == "manual":
            from repro.smartmem.config import CACHED_CONFIG, UNCACHED_CONFIG

            config = CACHED_CONFIG if job_key[1] == "cached" else UNCACHED_CONFIG
            return tuple({"req_op": op} for op in config.allowed_opcodes())
        return (None,)


class ServeWorkload:
    """A self-hosted compile server under closed-loop client threads."""

    name = "serve-replay"

    def __init__(
        self, seed: int, workers: int, warm_repeats: int,
        clients: int = 2, jobs_per_client: int = 100,
    ) -> None:
        self.seed = seed
        self.workers = workers
        self.warm_repeats = warm_repeats
        self.clients = clients
        self.jobs_per_client = jobs_per_client

    def setup(self) -> None:
        from repro.expts.replay import build_trace
        from repro.flow.cache import CompileCache
        from repro.serve.client import ServeClient
        from repro.serve.server import CompileServer

        self.CompileCache = CompileCache
        self.CompileServer = CompileServer
        self.ServeClient = ServeClient
        self.trace = build_trace(
            SCALE, self.clients, self.jobs_per_client, self.seed
        )
        self.variants = {
            job.key[2:] for batch in self.trace for job in batch
        }
        # Server start belongs to set-up: bind, serve, shut down once.
        self.start_server().close()

    def start_server(self):
        return self.CompileServer(
            cache=self.CompileCache(), workers=self.workers
        ).start()

    def _replay(self, name: str, url: str) -> Phase:
        phase = Phase(name)
        outputs: list = [None] * len(self.trace)

        def client(index: int, batch) -> None:
            connection = self.ServeClient(url)
            seen = []
            try:
                for job in batch:
                    start = time.perf_counter()
                    result = connection.compile_detailed([job])[0]
                    seen.append(
                        (job, result, (time.perf_counter() - start) * 1e3)
                    )
            except Exception as exc:  # a dead server fails the phase
                outputs[index] = (seen, exc)
                return
            outputs[index] = (seen, None)

        before = self.ServeClient(url).stats()
        threads = [
            threading.Thread(target=client, args=(i, batch),
                             name=f"replay-client-{i}")
            for i, batch in enumerate(self.trace)
        ]
        gc.collect()
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.wall_s = time.perf_counter() - start
        phase.cpu_s = cpu_seconds() - cpu0
        after = self.ServeClient(url).stats()
        phase.compiles = after["compiles"] - before["compiles"]
        phase.cache = after
        for index, (seen, error) in enumerate(outputs):
            batch = self.trace[index]
            phase.jobs += len(batch)
            if error is not None:
                phase.failures.append(
                    f"{name}: client {index} failed after {len(seen)} of "
                    f"{len(batch)} jobs: {type(error).__name__}: {error}"
                )
                phase.failures.extend(
                    f"{name}: job {job.key!r} not served"
                    for job in batch[len(seen) + 1:]
                )
            for job, result, latency_ms in seen:
                phase.latencies_ms.append(latency_ms)
                phase.server_ms.append(result.wall_time_s * 1e3)
                if result.error is not None:
                    phase.failures.append(
                        f"{name}: job {job.key!r} failed: {result.error}"
                    )
                    continue
                phase.hits += result.cache_hit
                phase.results[job.key] = result.ctx
        return phase

    def cycle(self, inspect) -> Cycle:
        """One cold phase and its warm phases against a fresh server;
        ``inspect(phase)`` runs after each phase, outside the timed
        region."""
        server = self.start_server()
        try:
            cold = self._replay("cold", server.url)
            if cold.compiles != len(self.variants):
                cold.failures.append(
                    f"cold phase compiled {cold.compiles} jobs for "
                    f"{len(self.variants)} distinct variants"
                )
            inspect(cold)
            warms = []
            for _ in range(self.warm_repeats):
                warm = self._replay("warm", server.url)
                if warm.compiles or warm.hits != warm.jobs:
                    warm.failures.append(
                        f"warm phase compiled {warm.compiles} jobs and hit "
                        f"{warm.hits} of {warm.jobs}"
                    )
                inspect(warm)
                warms.append(warm)
        finally:
            server.close()
        return Cycle(cold, warms)

    def environments(self, key) -> tuple:
        return (None,)


def make_workload(
    name: str, seed: int, workdir: Path, workers: int, warm_repeats: int,
    warm_procs: int = 1, warm_command=None,
):
    if name == "serve-replay":
        return ServeWorkload(seed, workers, warm_repeats)
    return FigureWorkload(
        name, seed, workdir, workers, warm_repeats, warm_procs, warm_command
    )
