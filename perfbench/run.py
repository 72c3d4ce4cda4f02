#!/usr/bin/env python3
"""The repository benchmark: the paper's figures compiled cold and warm,
and the compile server replaying a seeded trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload serve-replay --seed 1 --seconds 40 --trace 1

Workloads (``perfbench/RATIONALE.md`` says why each was chosen):

* ``figures-sweep`` -- fig5, fig6, fig8 and techsweep with two worker
  processes, cold into an empty cache, then warm;
* ``serve-replay``  -- an in-process compile server with two workers,
  two closed-loop client threads replaying a trace sampled (seeded)
  from the techsweep grid, cold then warm;
* ``pctrl-cold``    -- Fig. 9 at small scale: five PCtrl compiles,
  serial, into an empty cache, then warm re-runs from that cache.
  ``BENCHMARK.json`` leaves it out: its one cold phase takes 20-45 s,
  so a run holds a single sample of it and cannot be steady on a
  shared host.  Run it by hand for claims about the synthesis kernels.

``--trace 0`` runs one untimed warm-up cycle, then repeats whole
cold+warm cycles for ``--seconds`` and reports the end-to-end metrics,
each the median of the run's samples.  ``--trace 1``
runs one untraced and one traced cycle with a single worker, reports
every per-layer metric plus the tracing overhead, and writes a Chrome
trace-event file under ``.perfbench-out/``.  Every output is checked
outside the timed region (``perf_gate``); a failed check makes
``correct`` false and the exit code 1.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fewest fresh interpreters timed per run for ``setup_s`` (median
#: reported), and the fewer a traced run times for ``import.repro_s``.
SETUP_SAMPLES = 5
TRACED_SETUP_SAMPLES = 3

#: Spans shorter than this stay out of the Chrome trace file.
TRACE_FILE_MIN_US = 50.0

#: Worker processes (figures) or server compile threads (serve).
WORKERS = {"pctrl-cold": 1, "figures-sweep": 2, "serve-replay": 2}

#: Warm phases per warm interpreter (figure workloads) or per cycle
#: (serve-replay, whose warm phases reuse the cycle's server).
WARM_REPEATS = {"pctrl-cold": 4, "figures-sweep": 5, "serve-replay": 2}

#: Fresh interpreters that run warm phases after each cold phase.
WARM_PROCS = {"pctrl-cold": 3, "figures-sweep": 1}

#: Workloads that run on one CPU, with every interpreter they start.
#: serve-replay's server and client threads share the GIL, so they
#: never run Python code in parallel; spread over two vCPUs they only
#: add cross-CPU wake-ups, whose cost on a shared VM swings with the
#: neighbours' load.  Measured side by side on a shared 2-vCPU VM, the
#: unpinned runs took 1.5-2x the pinned runs' wall time and swung
#: between runs; the pinned runs did not.
ONE_CPU = ("serve-replay",)

#: Modules whose import ``import.repro_s`` times, per workload.
IMPORTS = {
    "pctrl-cold": ("repro.flow", "repro.expts.fig9_pctrl"),
    "figures-sweep": (
        "repro.flow", "repro.expts.fig5_tables", "repro.expts.fig6_fsm",
        "repro.expts.fig8_stateprop", "repro.expts.techsweep",
    ),
    "serve-replay": (
        "repro.flow", "repro.expts.replay", "repro.serve.server",
        "repro.serve.client",
    ),
}

#: (name, unit) of the end-to-end metrics, as ``BENCHMARK.json`` lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("cold_cpu_s", "s"),
    ("warm_s", "s"),
    ("peak_rss_mb", "MB"),
    ("area_um2", "um2"),
    ("cold_jobs_per_s", "1/s"),
)


def parse_args(argv):
    from perf_workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out-dir", default=".perfbench-out",
        help="where result records and trace files go, relative to the "
        "repository root (default: %(default)s)",
    )
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--warm-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", help=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- set-up ----------------------------------------------------------------

def setup_child(args) -> int:
    """Run one workload's set-up in this fresh interpreter and report
    the import time (the parent times the whole interpreter)."""
    import importlib

    from perf_workloads import make_workload

    start = time.perf_counter()
    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    import_s = time.perf_counter() - start
    make_workload(args.workload, args.seed, None, WORKERS[args.workload],
                  0).setup()
    print(json.dumps({"import_s": import_s}))
    return 0


def warm_child(args) -> int:
    """Run warm phases in this fresh interpreter against the cache
    directory a cold phase filled; report them as JSON."""
    from perf_gate import result_digest
    from perf_workloads import make_workload

    workload = make_workload(
        args.workload, args.seed, None, WORKERS[args.workload], args.repeats
    )
    workload.setup()
    reports = []

    def report(phase) -> None:
        reports.append(phase.to_json(result_digest))
        phase.results = {}

    workload.warm_phases(args.cache_dir, report)
    print(json.dumps({"phases": reports}))
    return 0


def time_setups(args, samples: int) -> tuple[list, list]:
    """Wall time of ``samples`` fresh interpreters, each importing the
    program and building the workload's inputs."""
    walls, imports = [], []
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-child",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    for _ in range(samples):
        start = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        imports.append(json.loads(done.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports


# -- environment record ----------------------------------------------------

def _git(*command) -> str | None:
    try:
        done = subprocess.run(
            ["git", *command], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.aig.kernel import resolve_backend

    sha = dirty = None
    if (ROOT / ".git").exists():  # never a repository above the checkout
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": type(resolve_backend()).__name__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
        "repro_env": {
            key: value for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
    }


# -- the correctness gate across cycles ------------------------------------

class Gate:
    """Checks each phase's outputs right after the phase ends.

    The first cold phase is the reference every later phase must
    reproduce exactly; it alone is cross-simulated.  Unless ``keep``,
    a phase's compiled contexts are dropped once checked, so what the
    benchmark retains never weighs on the next timed phase.
    """

    def __init__(self, workload, seed: int) -> None:
        from perf_gate import load_expected

        self.workload = workload
        self.seed = seed
        self.keep = False
        self.expected = load_expected()
        self.reference: dict | None = None
        self.cold: dict = {}
        self.failures: list[str] = []
        self.area_um2: float | None = None

    def variant(self, key):
        return key[2:] if self.workload.name == "serve-replay" else key

    def _digests(self, phase, failures) -> dict:
        """``repr(variant) -> digest``; every result of one variant
        must agree."""
        from perf_gate import result_digest

        out: dict = {}
        memo: dict = {}
        if phase.digests is not None:  # computed in another interpreter
            items = [(eval_key(key), digest)
                     for key, digest in phase.digests.items()]
        else:
            items = []
            for key, ctx in phase.results.items():
                digest = memo.get(id(ctx))
                if digest is None:
                    digest = memo[id(ctx)] = result_digest(ctx)
                items.append((key, digest))
        for key, digest in items:
            variant = repr(self.variant(key))
            if out.setdefault(variant, digest) != digest:
                failures.append(f"{phase.name}: results of {variant} disagree")
        return out

    def inspect(self, phase) -> None:
        from perf_gate import compare_digests, compare_tables

        failures = list(phase.failures)
        for label, tables in phase.tables.items():
            failures += compare_tables(
                f"{phase.name} {label}", tables,
                self.expected["figures"][label],
            )
        digests = self._digests(phase, failures)
        if phase.name == "cold":
            self.cold = digests
            if self.reference is None:
                self.reference = digests
                failures += self._first_cold(phase)
            reference, against = self.reference, "the first cold phase"
        else:
            reference, against = self.cold, "its cold phase"
        if set(digests) != set(reference):
            failures.append(f"{phase.name}: result keys differ from {against}")
        failures += compare_digests(phase.name, reference, digests)
        self.failures += failures
        if not self.keep:
            phase.results = {}

    def distinct(self, phase) -> dict:
        """``variant -> (job key, context)``, first result of each."""
        out: dict = {}
        for key, ctx in phase.results.items():
            out.setdefault(self.variant(key), (key, ctx))
        return out

    def _first_cold(self, phase) -> list[str]:
        from perf_gate import crosscheck
        from perf_stats import geomean

        failures: list[str] = []
        distinct = {}
        for variant, (key, ctx) in self.distinct(phase).items():
            distinct[variant] = ctx
            failures += crosscheck(
                ctx, variant, self.seed, self.workload.environments(key)
            )
        self.area_um2 = geomean(ctx.area.total for ctx in distinct.values())
        if self.workload.name == "serve-replay":
            rows = techsweep_areas(self.expected["figures"]["techsweep"])
            for variant, ctx in distinct.items():
                want = rows.get(variant)
                got = f"{ctx.area.total:.1f}"
                if want != got:
                    failures.append(
                        f"served {variant!r}: area {got} != expected {want}"
                    )
        else:
            want = self.expected["area_um2"][self.workload.name]
            if self.area_um2 != want:
                failures.append(
                    f"area_um2 {self.area_um2!r} != expected {want!r}"
                )
        return failures


def eval_key(text: str):
    """A job key back from its ``repr`` (tuples of strings and ints)."""
    import ast

    return ast.literal_eval(text)


def techsweep_areas(tables: dict) -> dict:
    """``(design, recipe, library) -> area text`` from the expected
    techsweep table."""
    (text,) = tables.values()
    rows = {}
    for line in text.splitlines()[2:]:
        design, recipe, library, area, *_ = line.split()
        rows[(design, recipe, library)] = area
    return rows


# -- runs --------------------------------------------------------------------

def measure(args, workdir: Path) -> dict:
    """One untimed warm-up cycle, then untraced cycles for
    ``--seconds``: the end-to-end metrics.

    Every timing reports the median of the run's samples.  A warm
    sample is one cycle's mean warm phase: a single warm phase takes
    0.1-0.2 s, short enough for the host's sub-second swings to split
    the phases between two levels.  ``setup_s`` samples fresh
    interpreters before the first cycle and after each timed cycle, so
    its samples are spread over the run.
    """
    from perf_stats import median, samples_beyond, tail_percentile
    from perf_workloads import make_workload, peak_rss_mb

    setup_walls, _ = time_setups(args, 2)
    workload = make_workload(
        args.workload, args.seed, workdir, WORKERS[args.workload],
        WARM_REPEATS[args.workload], WARM_PROCS.get(args.workload, 1),
        warm_command=[sys.executable, str(Path(__file__).resolve())],
    )
    workload.setup()
    gate = Gate(workload, args.seed)
    # Warm-up: one whole cycle, checked (it is the gate's reference and
    # carries the cross-simulation) but not timed, so lazy set-up in
    # the program and in the host's caches is done before timing starts.
    warmup = workload.cycle(gate.inspect)
    attempted = sum(phase.jobs for phase in warmup.phases)
    del warmup
    cold_s, cold_cpu, warm_s, rates = [], [], [], []
    cold_lat, warm_lat = [], []
    warm_phases = 0
    start = time.perf_counter()
    while True:
        cycle = workload.cycle(gate.inspect)
        cold_s.append(cycle.cold.wall_s)
        cold_cpu.append(cycle.cold.cpu_s)
        rates.append(cycle.cold.jobs / cycle.cold.wall_s)
        warm_s.append(
            sum(warm.wall_s for warm in cycle.warms) / len(cycle.warms)
        )
        warm_phases += len(cycle.warms)
        cold_lat += cycle.cold.latencies_ms
        for warm in cycle.warms:
            warm_lat += warm.latencies_ms
        attempted += sum(phase.jobs for phase in cycle.phases)
        del cycle
        setup_walls += time_setups(args, 1)[0]
        if time.perf_counter() - start >= args.seconds:
            break
    if len(setup_walls) < SETUP_SAMPLES:
        setup_walls += time_setups(args, SETUP_SAMPLES - len(setup_walls))[0]
    values = {
        "setup_s": median(setup_walls),
        "cold_s": median(cold_s),
        "cold_cpu_s": median(cold_cpu),
        "warm_s": median(warm_s),
        "peak_rss_mb": peak_rss_mb(),
        "area_um2": gate.area_um2,
        "cold_jobs_per_s": median(rates),
    }
    notes = [
        f"setup_s: median of {len(setup_walls)} fresh interpreters",
        f"cold_s, cold_cpu_s, cold_jobs_per_s: median of {len(cold_s)} "
        f"cold phases (fastest {min(cold_s):.4g} s, "
        f"{min(cold_cpu):.4g} s CPU)",
        f"warm_s: median over {len(warm_s)} cycles of the cycle's mean "
        f"warm phase ({warm_phases} warm phases; fastest cycle "
        f"{min(warm_s):.4g} s)",
    ]
    extra = {}
    for phase, samples in (("cold", cold_lat), ("warm", warm_lat)):
        if not samples:
            continue
        extra[f"{phase}_p50_ms"] = tail_percentile(samples, 50)
        try:
            extra[f"{phase}_p90_ms"] = tail_percentile(samples, 90)
        except ValueError:
            pass
        notes.append(
            f"{phase} per-request latency: {len(samples)} samples, "
            f"{samples_beyond(len(samples), 90)} beyond p90"
        )
    return {
        "values": values,
        "extra": extra,
        "notes": notes,
        "attempted": attempted,
        "failures": gate.failures,
        "samples": {
            "setup_s": setup_walls, "cold_s": cold_s,
            "cold_cpu_s": cold_cpu, "warm_s": warm_s,
        },
    }


def measure_traced(args, workdir: Path, out_dir: Path) -> dict:
    """One untraced and one traced single-worker cycle: the per-layer
    metrics, the tracing overhead and a Chrome trace file."""
    from perf_layers import layer_metrics, targets
    from perf_stats import median
    from perf_trace import Patcher, Tracer, chrome_trace, install, layer_times
    from perf_workloads import make_workload

    _, import_times = time_setups(args, TRACED_SETUP_SAMPLES)
    workload = make_workload(args.workload, args.seed, workdir, 1, 1)
    workload.setup()
    gate = Gate(workload, args.seed)
    reference = workload.cycle(gate.inspect)
    attempted = sum(phase.jobs for phase in reference.phases)
    reference_s = reference.cold.wall_s
    del reference

    tracer = Tracer()
    patcher = Patcher()
    try:
        absent = install(tracer, patcher, targets(tracer))
        # Checked after the bindings are restored, so the gate's own
        # work is neither traced nor counted.
        traced = workload.cycle(lambda phase: None)
    finally:
        patcher.restore()
    gate.keep = True  # the per-layer metrics read the contexts
    for phase in traced.phases:
        gate.inspect(phase)
    attempted += sum(phase.jobs for phase in traced.phases)
    overhead = traced.cold.wall_s / reference_s - 1.0
    contexts = [ctx for _, ctx in gate.distinct(traced.cold).values()]
    values = layer_metrics(
        tracer, traced, contexts, 1, median(import_times), overhead
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(
            chrome_trace(
                tracer, {"workload": args.workload, "seed": args.seed},
                min_us=TRACE_FILE_MIN_US,
            ),
            handle,
        )
    layers = layer_times(tracer.spans)
    notes = [
        f"tracing overhead: traced cold phase {traced.cold.wall_s:.3f} s vs "
        f"untraced {reference_s:.3f} s ({overhead:+.1%})",
        f"trace: {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)",
    ]
    notes += [f"absent binding: {binding}" for binding in absent]
    notes.append("layer                              calls     busy_s     self_s")
    for name, entry in sorted(
        layers.items(), key=lambda item: -item[1]["busy_s"]
    ):
        notes.append(
            f"{name:<32} {entry['calls']:>7} {entry['busy_s']:>10.4f} "
            f"{entry['self_s']:>10.4f}"
        )
    return {
        "values": values,
        "extra": {},
        "notes": notes,
        "attempted": attempted,
        "failures": gate.failures,
        "samples": {"counts": dict(sorted(tracer.counts.items()))},
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "repro" / "flow" / "__init__.py").is_file():
        print(
            f"perfbench: the program's source (src/repro) is missing "
            f"under {ROOT}; nothing to measure",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload in ONE_CPU and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_child:
        return setup_child(args)
    if args.warm_child:
        return warm_child(args)

    from perf_layers import PER_LAYER
    from perf_stats import valid_metric_name

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    out_dir = ROOT / args.out_dir
    try:
        if args.trace:
            run = measure_traced(args, workdir, out_dir)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            run = measure(args, workdir)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    env = environment()
    failures = run["failures"]
    attempted = run["attempted"]
    failed = min(len(failures), attempted)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in run["notes"]:
        print(note)
    for message in failures[:50]:
        print(f"FAILED: {message}")
    for name, value in run["values"].items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, value in run["extra"].items():
        print(f"metric {name} = {value:.6g} ms (serve-replay only)")
    print(f"metric failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")

    bad = [name for name in run["values"] if not valid_metric_name(name)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in run["values"].items()
        },
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    record = out_dir / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record, "w", encoding="utf-8") as handle:
        json.dump(
            {**result, "env": env, "extra": run["extra"],
             "samples": run["samples"], "failures": failures},
            handle, indent=1, sort_keys=True,
        )
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
