"""Cold-grid benchmark: prefix-memoized compilation vs baseline.

The techsweep grid is the motivating workload for prefix resume:
every (design, recipe, library) variant of one design shares the
design's frontend lowering, the two recipes share ``elaborate,
optimize``, and the libraries of one recipe share everything up to
``map`` -- yet the all-or-nothing cache re-executes that shared
prefix for every variant of a *cold* grid.

This driver quantifies the win.  It compiles the identical techsweep
job grid twice, cold (a warm cache hides the prefix machinery
entirely):

* *baseline*: no cache -- every job runs its full pipeline, exactly
  the all-or-nothing behaviour;
* *prefix*: a **fresh** temporary cache, so resume points and the
  prefix-trie scheduler are on -- the planner forces a resume point
  at every shared prefix boundary, so each shared prefix is executed
  exactly once and every other variant resumes past it.

The figure of merit is ``execution_ratio``: baseline pass executions
over prefix-phase pass executions (resumed records replay for free
and are not executions).  CI gates this ratio and, separately, that
both phases produced **byte-identical** results -- the driver itself
raises when any variant's netlist hash, area, or record structure
drifts between the phases, so a stored record is already
identity-checked.
"""

from __future__ import annotations

import tempfile

from repro.expts.common import (
    ExperimentPoint,
    ExperimentResult,
    format_table,
    sizing_meta,
)
from repro.expts.techsweep import (
    RECIPES,
    build_jobs,
    resolve_libraries,
    swept_libraries_hash,
)
from repro.flow import CompileCache, compile_many
from repro.flow.core import FlowError


def executed_records(ctx) -> int:
    """How many of a context's pass records this compile *executed*.

    A resumed compile restores ``resumed_records`` records from the
    resume point (replayed provenance, zero work) and appends one record
    per pass actually run; a from-scratch compile executed them all.
    """
    meta = getattr(ctx, "meta", None) or {}
    return len(ctx.records) - int(meta.get("resumed_records", 0) or 0)


def _structure(ctx) -> tuple:
    """The identity a variant must preserve across the two phases:
    final logic, final cost, and the full record structure (names and
    outcome flags; wall clocks excepted, they are the experiment)."""
    return (
        ctx.aig.canonical_hash() if ctx.aig is not None else None,
        None if ctx.area is None else round(ctx.area.total, 6),
        tuple(
            (r.name, r.failed, r.rejected, r.skipped) for r in ctx.records
        ),
    )


def run_prefixgrid(
    scale: str = "small",
    clock_period_ns: float = 20.0,
    workers: int = 1,
    cache=None,
    server: "str | None" = None,
    libraries: tuple[str, ...] | None = None,
    store_dir=None,
    commit: str = "HEAD",
) -> ExperimentResult:
    """Compile the techsweep grid cold, with and without prefix resume.

    Args:
        scale: grid size (``small``/``medium``/``paper``).
        clock_period_ns: common relaxed timing target.
        workers: process fan-out for both phases.
        cache: ignored -- the baseline runs uncached and the prefix
            phase against a fresh temporary cache, because the
            measurement only means anything cold
            (accepted so ``track record`` can drive every figure
            uniformly).
        server: ignored, for the same reason.
        libraries: library names to explore; defaults to every
            registered library.
        store_dir: when given, persist the result into the run store
            under ``commit``.
        commit: commit ref or label for the stored record.

    Returns:
        An :class:`ExperimentResult` with one point per job in each
        of two series (``baseline``/``prefix``); every point's ``x``
        is the variant's total record count and ``y`` how many of
        those records this phase executed, so the ``prefix`` series
        geomean is the per-variant executed fraction.

    Raises:
        FlowError: when any variant's result differs between the two
            phases -- resumption must be invisible in everything but
            wall time.
    """
    del cache, server  # cold temporary caches are the measurement
    libraries = resolve_libraries(libraries)
    jobs = build_jobs(scale, clock_period_ns, libraries)

    baseline = compile_many(jobs, workers=workers, cache=None)
    with tempfile.TemporaryDirectory(prefix="prefixgrid-snap-") as tmp:
        prefixed = compile_many(
            jobs, workers=workers, cache=CompileCache(tmp)
        )

    result = ExperimentResult(
        "Prefix-memoized cold grid -- snapshots vs all-or-nothing",
        f"The techsweep grid ({len(jobs)} jobs: designs x "
        f"{len(RECIPES)} recipes x {len(libraries)} libraries) "
        f"compiled cold twice; x = records per variant, y = records "
        f"this phase actually executed.",
    )
    result.absorb_flow(prefixed.values())

    rows = []
    baseline_total = prefix_total = 0
    for job in jobs:
        base_ctx, pref_ctx = baseline[job.key], prefixed[job.key]
        if _structure(base_ctx) != _structure(pref_ctx):
            raise FlowError(
                f"prefixgrid: resumed variant {job.key!r} is not "
                f"byte-identical to its from-scratch baseline"
            )
        total = len(base_ctx.records)
        base_exec = executed_records(base_ctx)
        pref_exec = executed_records(pref_ctx)
        baseline_total += base_exec
        prefix_total += pref_exec
        label, recipe, library = job.key
        rows.append(
            [
                label,
                recipe,
                library,
                str(total),
                str(base_exec),
                str(pref_exec),
                str((pref_ctx.meta or {}).get("resumed_at", "-")),
            ]
        )
        for series, ctx, executed in (
            ("baseline", base_ctx, base_exec),
            ("prefix", pref_ctx, pref_exec),
        ):
            result.points.append(
                ExperimentPoint(
                    series,
                    float(total),
                    float(executed),
                    f"{label}/{recipe}/{library}",
                    {
                        "design": label,
                        "recipe": recipe,
                        "library": library,
                        **sizing_meta(ctx),
                    },
                )
            )
    result.tables[
        "Executed records per variant (baseline vs prefix phase)"
    ] = format_table(
        [
            "design", "recipe", "library", "records",
            "base_exec", "prefix_exec", "resumed_at",
        ],
        rows,
    )

    ratio = (
        baseline_total / prefix_total if prefix_total else float("inf")
    )
    result.meta["baseline_executed"] = baseline_total
    result.meta["prefix_executed"] = prefix_total
    result.meta["execution_ratio"] = ratio
    result.meta["libraries"] = list(libraries)
    result.meta["recipes"] = dict(RECIPES)
    result.meta["clock_period_ns"] = clock_period_ns
    result.notes.append(
        f"prefix phase executed {prefix_total} of {baseline_total} "
        f"baseline pass records: {ratio:.2f}x fewer executions"
    )
    result.notes.append(
        "all variants byte-identical across phases "
        "(netlist hash, area, record structure)"
    )

    if store_dir is not None:
        _store(result, store_dir, commit, scale, libraries)
    return result


def _store(
    result: ExperimentResult,
    store_dir,
    commit: str,
    scale: str,
    libraries: tuple[str, ...],
):
    from repro.flow.store import RunRecord, RunStore, now
    from repro.track import resolve_ref, worktree_dirty

    result.meta.setdefault("scale", scale)
    resolved = resolve_ref(commit)
    if commit == "HEAD" and resolved != commit and worktree_dirty():
        resolved += "-dirty"
    record = RunRecord(
        figure="prefixgrid",
        commit=resolved,
        result=result,
        scale=scale,
        library=swept_libraries_hash(libraries),
        created_at=now(),
    )
    return RunStore(store_dir).put(record)
