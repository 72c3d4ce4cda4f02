"""Resume points: prefix fingerprints, one namespace, resume, GC."""

import pickle

from repro.flow import (
    CompileCache,
    PassManager,
    fingerprint_prefixes,
    flow_fingerprint,
)
from repro.flow.core import FlowContext
from repro.flow.manager import (
    SNAPSHOT_MIN_PASS_S,
    prepare_resume,
    run_resumable,
    should_snapshot,
)
from repro.rtl.builder import ModuleBuilder


def build_rom_module(scale=3, name="m"):
    b = ModuleBuilder(name)
    addr = b.input("addr", 4)
    rom = b.rom("t", 8, 16, [(scale * i + 1) % 256 for i in range(16)])
    b.output("data", rom.read(addr))
    return b.build()


FULL_SPEC = "elaborate,optimize,resub,dc_rewrite,map,size"


def record_signature(ctx):
    return [
        (r.name, r.stage, r.before, r.after, r.messages, r.skipped,
         r.rejected, r.failed)
        for r in ctx.records
    ]


def identity(ctx):
    """What a resume point must share with a from-scratch compile:
    the logic, the netlist, and the record structure."""
    return (
        ctx.aig.canonical_hash(),
        None if ctx.netlist is None else (
            repr(ctx.netlist.instances), repr(ctx.netlist.flops),
            ctx.netlist.po_nets,
        ),
        record_signature(ctx),
    )


def compile_forcing_every_boundary(spec, module, cache):
    """Run ``spec`` storing a resume point after every non-final pass
    (what the prefix-trie planner forces on shared boundaries)."""
    pipeline = PassManager.parse(spec)
    fps = pipeline.prefix_fingerprints(module=module)
    ctx, start = prepare_resume(
        pipeline, module=module, cache=cache, prefix_fingerprints=fps
    )
    run_resumable(
        pipeline,
        ctx,
        start=start,
        cache=cache,
        prefix_fingerprints=fps,
        force_snapshot_after=frozenset(range(len(pipeline.passes))),
    )
    cache.put(fps[-1], ctx)
    return ctx, fps


# ---------------------------------------------------------------------
# Prefix fingerprints.
# ---------------------------------------------------------------------

def test_prefix_fingerprints_equal_standalone_fingerprints():
    """Element k of the fold is byte-identical to flow_fingerprint of
    the k-pass pipeline -- the identity cross-recipe sharing rests on."""
    pipeline = PassManager.parse(FULL_SPEC)
    module = build_rom_module()
    fps = pipeline.prefix_fingerprints(module=module, seed=7)
    assert len(fps) == len(pipeline.passes)
    for spec, fp in zip(pipeline.prefix_specs(), fps):
        assert fp == flow_fingerprint(spec, module=module, seed=7)


def test_prefix_fingerprints_diverge_only_from_the_edit_point():
    module = build_rom_module()
    longer = PassManager.parse(FULL_SPEC).prefix_fingerprints(module=module)
    shorter = PassManager.parse("elaborate,optimize,map,size").\
        prefix_fingerprints(module=module)
    assert longer[:2] == shorter[:2]  # shared elaborate,optimize prefix
    assert longer[2] != shorter[2]


def test_short_pipeline_full_fingerprint_is_longer_ones_prefix():
    module = build_rom_module()
    short = PassManager.parse("elaborate,optimize")
    longer = PassManager.parse("elaborate,optimize,resub")
    assert (
        short.prefix_fingerprints(module=module)[-1]
        == longer.prefix_fingerprints(module=module)[1]
    )
    assert fingerprint_prefixes(
        short.prefix_specs(), module=module
    ) == short.prefix_fingerprints(module=module)


# ---------------------------------------------------------------------
# The fixed resume-point rule.
# ---------------------------------------------------------------------

def test_should_snapshot_rules():
    assert should_snapshot(wall_time_s=0.0, stage_changed=True)
    assert should_snapshot(
        wall_time_s=SNAPSHOT_MIN_PASS_S, stage_changed=False
    )
    assert not should_snapshot(
        wall_time_s=SNAPSHOT_MIN_PASS_S / 2, stage_changed=False
    )
    assert should_snapshot(
        wall_time_s=0.0, stage_changed=False, forced=True
    )


def test_final_pass_never_snapshots(tmp_path):
    """A one-pass pipeline has no boundary to resume from: its only
    stored entry is the completed result."""
    cache = CompileCache(tmp_path)
    PassManager.parse("elaborate").compile(
        module=build_rom_module(), cache=cache
    )
    assert cache.snapshot_stores == 0
    assert cache.stats()["backend"]["entries"] == 1


# ---------------------------------------------------------------------
# Resume-point storage round trips.
# ---------------------------------------------------------------------

def test_snapshot_roundtrip_returns_fresh_objects(tmp_path):
    """Every get_prefix_entry must hand out an independent context --
    resume mutates the restored object, so sharing would corrupt the
    stored point for the next consumer."""
    cache = CompileCache(tmp_path)
    pipeline = PassManager.parse("elaborate,optimize")
    module = build_rom_module()
    fp = pipeline.prefix_fingerprints(module=module)[0]

    ctx = FlowContext(module=module)
    pipeline.passes[0].execute(ctx)
    cache.put_snapshot(fp, ctx)

    first = cache.get_prefix_entry(fp)
    second = cache.get_prefix_entry(fp)
    assert first is not None and second is not None
    assert first is not second and first is not ctx
    assert first.aig.canonical_hash() == ctx.aig.canonical_hash()
    # Mutating one restored copy must not leak into the next.
    first.meta["poisoned"] = True
    assert "poisoned" not in cache.get_prefix_entry(fp).meta
    assert cache.snapshot_stores == 1


def test_mutating_ctx_after_put_snapshot_leaves_point_unchanged():
    """The point is pickled at store time: the resumable compile keeps
    running passes on ``ctx`` afterwards."""
    cache = CompileCache()
    pipeline = PassManager.parse("elaborate,optimize")
    module = build_rom_module()
    fp = pipeline.prefix_fingerprints(module=module)[0]
    ctx = FlowContext(module=module)
    pipeline.passes[0].execute(ctx)
    before = identity(ctx)
    cache.put_snapshot(fp, ctx)

    pipeline.passes[1].execute(ctx)
    ctx.meta["after"] = True
    restored = cache.get_prefix_entry(fp)
    assert identity(restored) == before
    assert len(restored.records) == 1
    assert "after" not in restored.meta


def test_snapshot_survives_process_boundary(tmp_path):
    """Disk-only restore: a second cache instance over the same
    directory (a fresh worker, in production) sees the resume point."""
    pipeline = PassManager.parse("elaborate,optimize")
    module = build_rom_module()
    fp = pipeline.prefix_fingerprints(module=module)[0]
    ctx = FlowContext(module=module)
    pipeline.passes[0].execute(ctx)
    CompileCache(tmp_path).put_snapshot(fp, ctx)

    restored = CompileCache(tmp_path).get_prefix_entry(fp)
    assert restored is not None
    assert restored.aig.canonical_hash() == ctx.aig.canonical_hash()


def test_resume_point_is_the_prefix_pipelines_completed_result(tmp_path):
    """One namespace: a resume point a long pipeline stored under a
    prefix fingerprint answers ``get()`` for the pipeline that ends
    there, and equals a from-scratch compile of that prefix."""
    module = build_rom_module()
    cache = CompileCache(tmp_path)
    _, fps = compile_forcing_every_boundary(FULL_SPEC, module, cache)
    prefix = PassManager.parse("elaborate,optimize,resub,dc_rewrite,map")
    assert prefix.prefix_fingerprints(module=module)[-1] == fps[4]

    for reader in (cache, CompileCache(tmp_path)):  # memory, then disk
        served = reader.get(fps[4])
        assert served is not None
        scratch = prefix.compile(module=module)
        assert identity(served) == identity(scratch)
        assert served.netlist is not None
    # A compile of the prefix pipeline is a plain hit: nothing runs.
    fresh = CompileCache(tmp_path)
    done = prefix.compile(module=module, cache=fresh)
    assert fresh.disk_hits == 1 and fresh.misses == 0
    assert identity(done) == identity(prefix.compile(module=module))


def test_memory_only_cache_resumes():
    module = build_rom_module()
    cache = CompileCache()
    compile_forcing_every_boundary("elaborate,optimize,resub", module, cache)
    assert cache.snapshot_stores == 2
    assert cache.get(
        PassManager.parse("elaborate").prefix_fingerprints(module=module)[0]
    ) is not None
    resumed = PassManager.parse(FULL_SPEC).compile(
        module=module, cache=cache
    )
    assert resumed.meta["passes_skipped"] == 3
    assert resumed.meta["resumed_at"] == "resub"
    scratch = PassManager.parse(FULL_SPEC).compile(module=module)
    assert identity(resumed) == identity(scratch)


def test_resumed_compile_matches_from_scratch(tmp_path):
    """The correctness bar: seed the cache with a shorter pipeline's
    resume points, compile the longer pipeline, get byte-identical
    results (hashes + records modulo wall time)."""
    module = build_rom_module()
    scratch = PassManager.parse(FULL_SPEC).compile(module=module)

    cache = CompileCache(tmp_path)
    # A prior compile of the shared prefix leaves its resume points
    # (and its completed entry) behind...
    compile_forcing_every_boundary("elaborate,optimize,resub", module, cache)
    # ...which the longer pipeline resumes past.
    resumed = PassManager.parse(FULL_SPEC).compile(
        module=module, cache=cache
    )
    assert resumed.meta["passes_skipped"] == 3
    assert resumed.meta["resumed_at"] == "resub"
    assert resumed.aig.canonical_hash() == scratch.aig.canonical_hash()
    assert resumed.area.total == scratch.area.total
    assert record_signature(resumed) == record_signature(scratch)


def test_completed_entry_of_shorter_pipeline_serves_as_resume_point(
    tmp_path,
):
    """Cross-recipe sharing: the short pipeline's *entry* (its full
    fingerprint == the longer one's prefix digest) is a valid resume
    point."""
    module = build_rom_module()
    cache = CompileCache(tmp_path)
    PassManager.parse("elaborate,optimize").compile(
        module=module, cache=cache
    )
    resumed = PassManager.parse("elaborate,optimize,resub").compile(
        module=module, cache=cache
    )
    assert resumed.meta["passes_skipped"] == 2
    assert resumed.meta["resumed_at"] == "optimize"
    scratch = PassManager.parse("elaborate,optimize,resub").compile(
        module=module
    )
    assert record_signature(resumed) == record_signature(scratch)


# ---------------------------------------------------------------------
# Damaged and foreign blobs.
# ---------------------------------------------------------------------

def _seeded(tmp_path):
    """A cache holding one completed entry and one resume point."""
    cache = CompileCache(tmp_path)
    pipeline = PassManager.parse("elaborate,optimize")
    module = build_rom_module()
    fps = pipeline.prefix_fingerprints(module=module)
    done = pipeline.compile(module=module, cache=cache)
    return cache, fps, done


def test_future_snapshot_version_reads_as_miss(tmp_path, monkeypatch):
    """Version skew needs no envelope: every key folds in the code
    digest, so a resume point stored by other code sits under another
    key and this code's probe misses it."""
    from repro.flow import cache as cache_module

    _, fps, _ = _seeded(tmp_path)
    monkeypatch.setattr(cache_module, "code_digest", lambda: "other-code")
    skewed = PassManager.parse("elaborate,optimize").prefix_fingerprints(
        module=build_rom_module()
    )
    assert skewed[0] != fps[0]
    fresh = CompileCache(tmp_path)
    assert fresh.get_prefix_entry(skewed[0]) is None
    assert fresh.get(skewed[0]) is None
    assert fresh.get_prefix_entry(fps[0]) is not None


def test_corrupt_snapshot_blob_reads_as_miss(tmp_path):
    cache, fps, _ = _seeded(tmp_path)
    cache.backend.entry_file(fps[0]).write_bytes(b"not a pickle")
    fresh = CompileCache(tmp_path)
    assert fresh.get_prefix_entry(fps[0]) is None
    assert fresh.get(fps[0]) is None


def test_snapshot_blob_under_entry_key_reads_as_entry_miss(tmp_path):
    """A pickle that is not a context (a foreign or old-layout blob)
    planted under an entry key must not leak out of get() or the
    resume probe."""
    cache, fps, done = _seeded(tmp_path)
    key = fps[-1]
    foreign = pickle.dumps(("envelope", 1, done))
    cache.backend.entry_file(key).write_bytes(foreign)
    assert CompileCache(tmp_path).get(key) is None
    assert CompileCache(tmp_path).get_prefix_entry(key) is None


# ---------------------------------------------------------------------
# GC sweeps resume points and entries from one listing.
# ---------------------------------------------------------------------

def test_sweep_covers_snapshots(tmp_path):
    cache, fps, _ = _seeded(tmp_path)
    assert cache.snapshot_stores == 1  # after elaborate (stage change)
    assert cache.stats()["backend"]["entries"] == 2
    swept = cache.sweep(max_bytes=0)
    assert swept.scanned == 2
    assert swept.removed == 2  # the entry and the resume point
    stats = CompileCache(tmp_path).stats()
    assert stats["backend"]["entries"] == 0
    assert stats["backend"]["entry_bytes"] == 0
    # A swept resume point is a miss, never an error.
    assert CompileCache(tmp_path).get_prefix_entry(fps[0]) is None


def test_age_sweep_keeps_fresh_snapshots(tmp_path):
    cache, fps, _ = _seeded(tmp_path)
    swept = cache.sweep(max_age_days=30)
    assert swept.scanned == 2 and swept.removed == 0
    assert CompileCache(tmp_path).get_prefix_entry(fps[0]) is not None
