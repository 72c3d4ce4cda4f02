"""Which layers the traced run wraps, and the per-layer metrics it
derives from the spans, the counts and the instrumentation the API
already returns (pass records, fold statistics, resume provenance,
cache statistics, the server's per-job wall time and ``/stats``)."""

from __future__ import annotations

from perf_stats import median
from perf_trace import Target, layer_times

#: Passes whose busy time, self time and calls are reported.
PASSES = (
    "elaborate", "seq_sweep", "stateprop", "rewrite", "balance", "resub",
    "dc_rewrite", "retime", "map", "size",
)

#: Span layers whose busy time is reported, with their self time.
TIMED_LAYERS = (
    "check.spec", "flow.manager.compile", "flow.fingerprint",
    "flow.cache.get", "flow.cache.put", "flow.cache.snapshot",
    "flow.parallel", "aig.cuts.enumerate", "aig.kernel.isop", "sat.solve",
    "tech.map", "tech.sta", "tech.sizing", "serve.protocol",
    "serve.run_job",
)


def _per_layer_spec() -> list:
    spec = [
        ("import.repro_s", "s", "lower"),
        ("smartmem.build_pctrl.busy_s", "s", "lower"),
        ("flow.manager.compile.calls", "count", "lower"),
        ("flow.manager.overhead_s", "s", "lower"),
        ("flow.fingerprint.calls", "count", "lower"),
        ("flow.cache.get.calls", "count", "lower"),
        ("flow.cache.hit_ratio", "ratio", "higher"),
        ("flow.cache.bytes", "bytes", "lower"),
        ("flow.cache.put.calls", "count", "lower"),
        ("flow.prefix.resumes", "count", "higher"),
        ("flow.prefix.passes_skipped", "count", "higher"),
        ("flow.parallel.utilization", "ratio", "higher"),
        ("flow.frontend.busy_s", "s", "lower"),
        ("aig.cuts.enumerate.calls", "count", "lower"),
        ("aig.kernel.isop.calls", "count", "lower"),
        ("aig.kernel.expand_cut.calls", "count", "lower"),
        ("aig.topo_order.calls", "count", "lower"),
        ("aig.ands_final", "count", "lower"),
        ("sat.solve.calls", "count", "lower"),
        ("sat.solve.sat_ratio", "ratio", "higher"),
        ("synth.stateprop.proved_ratio", "ratio", "higher"),
        ("tech.sta.calls", "count", "lower"),
        ("serve.server_ms.p50", "ms", "lower"),
        ("serve.overhead_ms.p50", "ms", "lower"),
        ("serve.singleflight.deduped", "count", "higher"),
        ("serve.hit_ratio", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    for layer in TIMED_LAYERS:
        spec.append((f"{layer}.busy_s", "s", "lower"))
        spec.append((f"{layer}.self_s", "s", "lower"))
    for name in PASSES:
        spec.append((f"pass.{name}.calls", "count", "lower"))
        spec.append((f"pass.{name}.busy_s", "s", "lower"))
        spec.append((f"pass.{name}.self_s", "s", "lower"))
    return spec


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = _per_layer_spec()


# -- wrapping targets ---------------------------------------------------

def _pass_name(args) -> str:
    return "pass." + args[0].name


def _pass_record(record) -> dict:
    return {"record_wall": record.wall_time_s, "stage": record.stage}


def _job_key(args):
    key = getattr(args[0], "key", None)
    return None if key is None else repr(key)


def targets(tracer) -> list:
    """Every wrapped layer with the bindings callers reach it through
    (the defining module's name and every ``from ... import`` copy)."""
    from repro.aig.kernel import resolve_backend

    backend = type(resolve_backend())
    kernel = f"{backend.__module__}:{backend.__qualname__}"

    def cache_hit(result):
        if result is not None:
            tracer.count("flow.cache.get.hits")

    def sat_outcome(result):
        if result:
            tracer.count("sat.solve.sat")

    figure_modules = (
        "repro.expts.fig5_tables", "repro.expts.fig6_fsm",
        "repro.expts.fig8_stateprop", "repro.expts.fig9_pctrl",
        "repro.expts.techsweep",
    )
    return [
        Target("flow.parallel", (
            "repro.flow.parallel:compile_many", "repro.flow:compile_many",
            *(f"{module}:compile_many" for module in figure_modules),
        )),
        Target("flow.manager.compile", (
            "repro.flow.manager:PassManager.compile",
            "repro.flow.parallel:_execute_job",
            "repro.serve.server:_execute_job",
        ), job_of=_job_key),
        Target("check.spec", (
            "repro.check.spec:check_manager", "repro.check.spec:check_job",
            "repro.check:check_manager", "repro.check:check_job",
            "repro.serve.server:check_job",
        )),
        Target("flow.fingerprint", (
            "repro.flow.cache:flow_fingerprint",
            "repro.flow.cache:fingerprint_prefixes",
            "repro.flow.parallel:flow_fingerprint",
            "repro.flow:flow_fingerprint", "repro.flow:fingerprint_prefixes",
        )),
        Target("flow.cache.get", ("repro.flow.cache:CompileCache.get",),
               on_result=cache_hit),
        Target("flow.cache.put", ("repro.flow.cache:CompileCache.put",)),
        Target("flow.cache.snapshot", (
            "repro.flow.cache:CompileCache.put_snapshot",
            "repro.flow.cache:CompileCache.get_snapshot",
            "repro.flow.cache:CompileCache.get_prefix_entry",
        )),
        Target("pass", ("repro.flow.core:Pass.execute",),
               name_of=_pass_name, on_result=_pass_record),
        Target("aig.cuts.enumerate", ("repro.aig.cuts:CutSet._compute",)),
        Target("aig.kernel.isop", (f"{kernel}.isop_cover",)),
        Target("aig.kernel.expand_cut", (f"{kernel}.expand_cut",),
               mode="count"),
        Target("aig.topo_order", ("repro.aig.graph:AIG.topo_order",),
               mode="count"),
        Target("sat.solve", ("repro.sat.solver:Solver.solve",),
               on_result=sat_outcome),
        Target("tech.map", (
            "repro.flow.passes:map_aig", "repro.tech.mapper:map_aig",
            "repro.tech:map_aig",
        )),
        Target("tech.sta", (
            "repro.flow.passes:analyze_timing",
            "repro.tech.sizing:analyze_timing",
            "repro.tech.sta:analyze_timing", "repro.tech:analyze_timing",
        )),
        Target("tech.sizing", (
            "repro.flow.passes:size_for_clock",
            "repro.tech.sizing:size_for_clock", "repro.tech:size_for_clock",
        )),
        Target("smartmem.build_pctrl", (
            "repro.expts.fig9_pctrl:build_pctrl",
            "repro.smartmem.pctrl:build_pctrl", "repro.smartmem:build_pctrl",
        )),
        Target("serve.protocol", (
            "repro.serve.protocol:encode_batch",
            "repro.serve.protocol:decode_batch",
            "repro.serve.protocol:encode_result",
            "repro.serve.protocol:decode_result",
            "repro.serve.client:encode_batch",
            "repro.serve.client:decode_result",
            "repro.serve.server:decode_batch",
            "repro.serve.server:encode_result",
        )),
        Target("serve.run_job", ("repro.serve.server:CompileServer.run_job",)),
    ]


# -- metrics ---------------------------------------------------------------

def layer_metrics(tracer, cycle, contexts, workers: int, import_s: float,
                  overhead_ratio: float) -> dict:
    """Every :data:`PER_LAYER` metric of one traced cycle (0 where a
    layer did not run in this workload); ``contexts`` are the cold
    phase's distinct compiled designs."""
    spans = tracer.spans
    counts = tracer.counts
    layers = layer_times(spans)

    def layer(name, field):
        return layers.get(name, {}).get(field, 0)

    out = {
        "import.repro_s": import_s,
        "smartmem.build_pctrl.busy_s": layer("smartmem.build_pctrl", "busy_s"),
        "trace.overhead_ratio": overhead_ratio,
    }
    for name in TIMED_LAYERS:
        out[f"{name}.busy_s"] = layer(name, "busy_s")
        out[f"{name}.self_s"] = layer(name, "self_s")
    for name in ("flow.manager.compile", "flow.fingerprint",
                 "flow.cache.get", "flow.cache.put", "aig.cuts.enumerate",
                 "aig.kernel.isop", "sat.solve", "tech.sta"):
        out[f"{name}.calls"] = layer(name, "calls")
    for name in PASSES:
        out[f"pass.{name}.calls"] = layer(f"pass.{name}", "calls")
        out[f"pass.{name}.busy_s"] = layer(f"pass.{name}", "busy_s")
        out[f"pass.{name}.self_s"] = layer(f"pass.{name}", "self_s")
    out["aig.kernel.expand_cut.calls"] = counts["aig.kernel.expand_cut.calls"]
    out["aig.topo_order.calls"] = counts["aig.topo_order.calls"]

    # Manager overhead: compile wall minus its top-level pass records.
    compile_ids = {
        span.id: span for span in spans if span.name == "flow.manager.compile"
    }
    top_level = [
        span for span in spans
        if span.parent in compile_ids and span.args
        and "record_wall" in span.args
    ]
    pass_wall = sum(span.args["record_wall"] for span in top_level)
    out["flow.manager.overhead_s"] = (
        out["flow.manager.compile.busy_s"] - pass_wall
    )
    out["flow.frontend.busy_s"] = sum(
        span.args["record_wall"] for span in top_level
        if span.args["stage"] == "ctrl"
    )
    parallel = out["flow.parallel.busy_s"]
    out["flow.parallel.utilization"] = (
        pass_wall / (workers * parallel) if parallel else 0.0
    )

    gets = out["flow.cache.get.calls"]
    out["flow.cache.hit_ratio"] = (
        counts["flow.cache.get.hits"] / gets if gets else 0.0
    )
    backend = (cycle.cold.cache.get("backend") or {}) if isinstance(
        cycle.cold.cache.get("backend"), dict) else {}
    out["flow.cache.bytes"] = backend.get("entry_bytes", 0) + backend.get(
        "snapshot_bytes", 0
    )
    solves = out["sat.solve.calls"]
    out["sat.solve.sat_ratio"] = (
        counts["sat.solve.sat"] / solves if solves else 0.0
    )

    resumed = [int(ctx.meta.get("passes_skipped", 0) or 0) for ctx in contexts]
    out["flow.prefix.resumes"] = sum(1 for skipped in resumed if skipped)
    out["flow.prefix.passes_skipped"] = sum(resumed)
    out["aig.ands_final"] = sum(
        ctx.aig.num_ands for ctx in contexts if ctx.aig is not None
    )
    proved = tried = 0
    for ctx in contexts:
        stats = ctx.fold_stats
        if stats is not None:
            proved += stats.constants_proven + stats.merges_proven
            tried += stats.candidates_tried
    out["synth.stateprop.proved_ratio"] = proved / tried if tried else 0.0

    latencies, server_ms = [], []
    hits = jobs = 0
    for phase in cycle.phases:
        latencies += phase.latencies_ms
        server_ms += phase.server_ms
        hits += phase.hits
        jobs += len(phase.latencies_ms)
    out["serve.server_ms.p50"] = median(server_ms) if server_ms else 0.0
    out["serve.overhead_ms.p50"] = (
        median([c - s for c, s in zip(latencies, server_ms)])
        if latencies else 0.0
    )
    out["serve.hit_ratio"] = hits / jobs if jobs else 0.0
    flights = cycle.warms[-1].cache.get("singleflight") if cycle.warms else None
    out["serve.singleflight.deduped"] = (
        flights.get("deduped", 0) if isinstance(flights, dict) else 0
    )
    return {name: out[name] for name, _, _ in PER_LAYER}
