"""compile_many: determinism vs serial, cache sharing, failure context."""

import pytest

from repro.flow import (
    CompileCache,
    CompileJob,
    CompileJobError,
    FlowError,
    PassManager,
    compile_many,
)
from repro.flow.core import Pass
from repro.rtl.ast import Const
from repro.rtl.builder import ModuleBuilder, mux
from repro.synth.dc_options import StateAnnotation


def build_rom_module(scale=3, name="m"):
    b = ModuleBuilder(name)
    addr = b.input("addr", 4)
    rom = b.rom("t", 8, 16, [(scale * i + 1) % 256 for i in range(16)])
    b.output("data", rom.read(addr))
    return b.build()


def sample_jobs():
    pipeline = PassManager.parse("elaborate,optimize,map,size")
    return [
        CompileJob(scale, pipeline, module=build_rom_module(scale), seed=7)
        for scale in (3, 5, 7, 11)
    ]


def record_signature(ctx):
    """Everything deterministic about a record stream (wall times are
    the one legitimately run-dependent field)."""
    return [
        (r.name, r.stage, r.before, r.after, r.messages, r.skipped,
         r.rejected, r.failed)
        for r in ctx.records
    ]


def test_parallel_results_identical_to_serial():
    serial = compile_many(sample_jobs(), workers=1)
    parallel = compile_many(sample_jobs(), workers=2)
    assert list(serial) == list(parallel)  # key order = submission order
    for key in serial:
        assert serial[key].area.total == parallel[key].area.total
        assert (
            serial[key].timing.critical_delay
            == parallel[key].timing.critical_delay
        )
        assert record_signature(serial[key]) == record_signature(
            parallel[key]
        )


def test_string_pipelines_parse_in_the_worker():
    results = compile_many(
        [
            CompileJob(
                "spec", "elaborate,optimize,map,size",
                module=build_rom_module(),
            )
        ],
        workers=2,
    )
    assert results["spec"].area.total > 0


def test_annotations_and_seed_travel_with_the_job():
    # A 3-state case FSM annotated with its reachable set {0, 1, 2}.
    b = ModuleBuilder("fsm")
    go = b.input("go")
    state = b.reg("state", 2)
    nxt = b.case(
        state,
        {
            0: mux(go[0], Const(1, 2), Const(0, 2)),
            1: Const(2, 2),
            2: Const(0, 2),
        },
        Const(0, 2),
    )
    b.drive(state, nxt)
    b.output("busy", state.ne(0))
    module = b.build()
    spec = "honour_annotations,elaborate,optimize,state_folding,map,size"
    annotated = CompileJob(
        "annotated", spec,
        module=module,
        annotations=(StateAnnotation("state", (0, 1, 2)),),
        seed=13,
    )
    plain = CompileJob("plain", spec, module=module, seed=13)
    serial = compile_many([annotated, plain], workers=1)
    parallel = compile_many([annotated, plain], workers=2)
    assert (
        parallel["annotated"].area.total == serial["annotated"].area.total
    )
    assert parallel["plain"].area.total == serial["plain"].area.total


def test_duplicate_keys_rejected():
    pipeline = PassManager.parse("elaborate")
    jobs = [
        CompileJob("same", pipeline, module=build_rom_module()),
        CompileJob("same", pipeline, module=build_rom_module(5)),
    ]
    with pytest.raises(FlowError, match="duplicate compile job key"):
        compile_many(jobs)


def test_disk_cache_shared_across_workers(tmp_path):
    cache = CompileCache(tmp_path / "cache")
    first = compile_many(sample_jobs(), workers=2, cache=cache)
    assert cache.misses == len(first) and cache.stores == 0
    # Worker processes published to the shared disk store...
    for job in sample_jobs():
        fp = job.pipeline.prefix_fingerprints(module=job.module, seed=7)[-1]
        assert cache.backend.entry_file(fp).is_file()
    # ...and the parent absorbed the results into its memory layer.
    warm = compile_many(sample_jobs(), workers=2, cache=cache)
    assert cache.memory_hits == len(first)
    for key in first:
        assert warm[key].area.total == first[key].area.total
    # A fresh process-equivalent (new cache object) hits the disk.
    cold = CompileCache(tmp_path / "cache")
    again = compile_many(sample_jobs(), workers=2, cache=cold)
    assert cold.disk_hits == len(first) and cold.misses == 0
    for key in first:
        assert again[key].area.total == first[key].area.total


def test_memory_only_cache_still_absorbs_parallel_results():
    cache = CompileCache()
    compile_many(sample_jobs(), workers=2, cache=cache)
    compile_many(sample_jobs(), workers=2, cache=cache)
    assert cache.memory_hits == 4


class ExplodingPass(Pass):
    name = "explode"
    stage = "aig"

    def run(self, ctx):
        self.note("explode: about to fail")
        raise RuntimeError("boom")


def test_serial_failure_carries_log_context():
    bad = PassManager(
        PassManager.parse("elaborate").passes + [ExplodingPass()]
    )
    with pytest.raises(CompileJobError) as err:
        compile_many(
            [CompileJob("broken", bad, module=build_rom_module())],
            workers=1,
        )
    assert err.value.key == "broken"
    assert "boom" in err.value.error
    # The failing pass's notes survived (the Pass.execute finally fix).
    assert any("about to fail" in m for r in err.value.records
               for m in r.messages)
    assert err.value.records[-1].failed


def test_parallel_failure_is_deterministic_and_keeps_context():
    bad = PassManager(
        PassManager.parse("elaborate").passes + [ExplodingPass()]
    )
    good = PassManager.parse("elaborate,optimize,map,size")
    jobs = [
        CompileJob("a", good, module=build_rom_module(3)),
        CompileJob("first-broken", bad, module=build_rom_module(5)),
        CompileJob("second-broken", bad, module=build_rom_module(7)),
    ]
    with pytest.raises(CompileJobError) as err:
        compile_many(jobs, workers=2)
    # The earliest failing job in submission order wins, as serially.
    assert err.value.key == "first-broken"
    assert any("about to fail" in m for r in err.value.records
               for m in r.messages)


def test_failed_pass_does_not_leak_notes_into_next_run():
    exploding = ExplodingPass()
    from repro.flow import FlowContext
    from repro.synth.elaborate import elaborate

    ctx = FlowContext(aig=elaborate(build_rom_module()).aig)
    with pytest.raises(RuntimeError):
        exploding.execute(ctx)
    [record] = ctx.records
    assert record.failed and record.messages == ("explode: about to fail",)

    class Quiet(ExplodingPass):
        def run(self, ctx):  # no note, no failure
            pass

    quiet = Quiet()
    quiet._notes = exploding._notes  # simulate shared state; must be empty
    second = quiet.execute(ctx)
    assert second.messages == ()
