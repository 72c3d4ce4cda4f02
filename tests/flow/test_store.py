"""The run store: serialization round-trips, diffing, cache GC."""

import json
import math
import os

import pytest

from repro.expts.common import (
    ExperimentPoint,
    ExperimentResult,
    PassTotals,
    RatioStats,
)
from repro.flow import CompileCache, SweepStats
from repro.flow.core import AigStats, FlowContext, PassRecord
from repro.flow.store import (
    RUN_STORE_VERSION,
    RunRecord,
    RunStore,
    StoreError,
    diff_runs,
)


# ---------------------------------------------------------------------
# Serialization round-trips.
# ---------------------------------------------------------------------

def test_pass_record_roundtrip_all_fields():
    record = PassRecord(
        name="rewrite",
        stage="aig",
        wall_time_s=0.125,
        before=AigStats(num_ands=100, num_latches=3),
        after=AigStats(num_ands=80, num_latches=3),
        messages=("line one", "line two"),
        skipped=True,
        rejected=True,
        failed=True,
    )
    back = PassRecord.from_json(
        json.loads(json.dumps(record.to_json(), allow_nan=False))
    )
    assert back == record
    assert back.failed and back.rejected and back.skipped
    assert back.delta_ands == -20


def test_pass_record_roundtrip_none_stats():
    record = PassRecord(
        name="fsm_infer", stage="rtl", wall_time_s=0.0,
        before=None, after=None,
    )
    assert PassRecord.from_json(record.to_json()) == record


def test_ratio_stats_roundtrip_encodes_nan_as_null():
    empty = RatioStats.of([])
    data = json.loads(json.dumps(empty.to_json(), allow_nan=False))
    assert data["geomean"] is None
    back = RatioStats.from_json(data)
    assert math.isnan(back.geomean) and back.count == 0

    with_excluded = RatioStats.of([1.0, 2.0, 0.0])
    back = RatioStats.from_json(with_excluded.to_json())
    assert back.excluded == 1
    assert back.geomean == pytest.approx(with_excluded.geomean)


def test_experiment_result_roundtrip():
    result = ExperimentResult("Fig. X", "a description")
    result.points.append(
        ExperimentPoint("series-a", 10.0, 12.5, "p0", {"depth": 4})
    )
    result.points.append(ExperimentPoint("series-a", 5.0, 0.0, "p1"))
    result.tables["Areas"] = "a  b\n1  2"
    result.notes.append("a note")
    result.meta["pipeline"] = "elaborate,optimize"
    result.pass_totals["optimize"] = PassTotals(
        "optimize", calls=4, wall_time_s=1.5, delta_ands=-12,
        failed=1, rejected=2, skipped=3,
    )
    payload = json.dumps(result.to_json(), allow_nan=False)
    back = ExperimentResult.from_json(json.loads(payload))
    assert back.points == result.points
    assert back.tables == result.tables
    assert back.notes == result.notes
    assert back.meta == result.meta
    assert back.pass_totals == result.pass_totals
    # The excluded zero-ratio point survives into the stored summary.
    summary = result.to_json()["series_summaries"]["series-a"]
    assert summary["excluded"] == 1


def test_absorb_flow_aggregates_flags():
    ctx = FlowContext()
    stats = AigStats(10, 0)
    ctx.records.append(PassRecord("p", "aig", 0.5, stats, AigStats(8, 0)))
    ctx.records.append(
        PassRecord("p", "aig", 0.25, stats, stats, rejected=True)
    )
    ctx.records.append(PassRecord("q", "aig", 0.1, None, None, failed=True))
    result = ExperimentResult("r", "d")
    result.absorb_flow([ctx])
    assert result.pass_totals["p"] == PassTotals(
        "p", calls=2, wall_time_s=0.75, delta_ands=-2, rejected=1
    )
    assert result.pass_totals["q"].failed == 1
    assert result.pass_totals["q"].delta_ands == 0


# ---------------------------------------------------------------------
# The store itself.
# ---------------------------------------------------------------------

def _result(points=(), totals=()):
    result = ExperimentResult("Fig. T", "test result")
    result.points.extend(points)
    for item in totals:
        result.pass_totals[item.name] = item
    return result


def _record(commit="c0", figure="figT", **kwargs):
    return RunRecord(
        figure=figure, commit=commit, result=_result(**kwargs),
        scale="small", library="lib0", created_at=123.0,
    )


def test_store_put_get_roundtrip(tmp_path):
    store = RunStore(tmp_path / "runs")
    record = _record(
        points=[ExperimentPoint("s", 1.0, 2.0, "p")],
        totals=[PassTotals("optimize", 1, 0.5, -3)],
    )
    path = store.put(record)
    assert path.is_file()
    back = store.get("c0", "figT")
    assert back.result.points == record.result.points
    assert back.result.pass_totals == record.result.pass_totals
    assert back.scale == "small" and back.library == "lib0"
    assert store.get("c0", "other") is None
    assert store.get("nope", "figT") is None
    assert store.commits() == ["c0"]
    assert store.figures("c0") == ["figT"]
    assert [r.figure for r in store.entries()] == ["figT"]


def test_store_rejects_unsafe_keys(tmp_path):
    store = RunStore(tmp_path)
    with pytest.raises(StoreError):
        store.get("../escape", "figT")
    with pytest.raises(StoreError):
        store.put(_record(commit="a/b"))
    with pytest.raises(StoreError):
        store.get("c0", ".hidden")


def test_store_corrupt_record_is_an_error_not_a_miss(tmp_path):
    store = RunStore(tmp_path)
    store.put(_record())
    store.record_file("c0", "figT").write_text("{not json", encoding="utf-8")
    with pytest.raises(StoreError):
        store.get("c0", "figT")


def test_store_refuses_newer_version(tmp_path):
    store = RunStore(tmp_path)
    store.put(_record())
    entry = store.record_file("c0", "figT")
    data = json.loads(entry.read_text())
    data["version"] = RUN_STORE_VERSION + 1
    entry.write_text(json.dumps(data))
    with pytest.raises(StoreError):
        store.get("c0", "figT")


# ---------------------------------------------------------------------
# Diffing.
# ---------------------------------------------------------------------

def test_diff_identical_runs_is_clean():
    points = [ExperimentPoint("s", 10.0, 12.0, "p0")]
    totals = [PassTotals("optimize", 2, 1.0, -5)]
    diff = diff_runs(
        _record(points=points, totals=totals),
        _record(commit="c1", points=points, totals=totals),
    )
    assert diff.identical
    assert not diff.area_regressions(0.0)
    assert not diff.time_regressions(0.0)
    assert "identical" in diff.render(1.0, 50.0)


def test_diff_flags_area_regression_over_threshold():
    base = _record(points=[ExperimentPoint("s", 10.0, 100.0, "p0")])
    # 3% growth: over a 1% threshold, under a 5% one.
    cur = _record(
        commit="c1", points=[ExperimentPoint("s", 10.0, 103.0, "p0")]
    )
    diff = diff_runs(base, cur)
    assert not diff.identical
    assert len(diff.area_regressions(1.0)) == 1
    assert diff.area_regressions(5.0) == []
    [delta] = diff.changed_points()
    assert delta.y_pct == pytest.approx(3.0)
    assert "<<" in diff.render(1.0, 50.0)


def test_diff_area_improvement_is_not_a_regression():
    base = _record(points=[ExperimentPoint("s", 10.0, 100.0, "p0")])
    cur = _record(
        commit="c1", points=[ExperimentPoint("s", 10.0, 80.0, "p0")]
    )
    assert diff_runs(base, cur).area_regressions(1.0) == []


def test_diff_flags_pass_slowdown_with_noise_floor():
    base = _record(totals=[
        PassTotals("optimize", 2, 1.0, -5),
        PassTotals("balance", 2, 0.010, 0),
    ])
    cur = _record(commit="c1", totals=[
        PassTotals("optimize", 2, 2.0, -5),     # 2x slower: real
        PassTotals("balance", 2, 0.020, 0),     # 2x of 10ms: noise
    ])
    diff = diff_runs(base, cur)
    flagged = diff.time_regressions(50.0, min_time_s=0.05)
    assert [d.name for d in flagged] == ["optimize"]
    # Lowering the floor exposes the tiny pass too.
    assert len(diff.time_regressions(50.0, min_time_s=0.0)) == 2
    assert not diff.structural_changes()


def test_diff_reports_partial_baseline():
    base = _record(
        points=[
            ExperimentPoint("s", 1.0, 1.0, "both"),
            ExperimentPoint("s", 1.0, 1.0, "gone"),
        ],
        totals=[PassTotals("optimize", 1, 1.0, 0)],
    )
    cur = _record(
        commit="c1",
        points=[
            ExperimentPoint("s", 1.0, 1.0, "both"),
            ExperimentPoint("s", 1.0, 1.0, "new"),
        ],
        totals=[PassTotals("rewrite", 1, 1.0, 0)],
    )
    diff = diff_runs(base, cur)
    assert diff.incomplete and not diff.identical
    assert diff.only_in_baseline == ["s/gone"]
    assert diff.only_in_current == ["s/new"]
    assert diff.passes_only_in_baseline == ["optimize"]
    assert diff.passes_only_in_current == ["rewrite"]
    rendered = diff.render(1.0, 50.0)
    assert "only in baseline" in rendered and "only in current" in rendered


def test_diff_notes_library_and_scale_mismatch():
    base = _record()
    cur = RunRecord(
        figure="figT", commit="c1", result=_result(),
        scale="medium", library="lib-other",
    )
    diff = diff_runs(base, cur)
    assert any("librar" in note for note in diff.notes)
    assert any("scale" in note for note in diff.notes)


def test_diff_requires_same_figure():
    with pytest.raises(StoreError):
        diff_runs(_record(), _record(figure="other"))


# ---------------------------------------------------------------------
# Cache GC.
# ---------------------------------------------------------------------

def _fill_cache(tmp_path, sizes_and_ages):
    """A disk cache with fake entries of given (bytes, age-days)."""
    import time as time_mod

    cache = CompileCache(tmp_path / "cache")
    files = []
    for index, (size, age_days) in enumerate(sizes_and_ages):
        key = f"{index:02d}" + "ab" * 31  # 64 hex-ish chars
        entry = cache.backend.entry_file(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_bytes(b"x" * size)
        stamp = time_mod.time() - age_days * 86400.0
        os.utime(entry, (stamp, stamp))
        files.append(entry)
    return cache, files


def test_sweep_evicts_oldest_first_for_size_budget(tmp_path):
    cache, files = _fill_cache(
        tmp_path, [(100, 5), (100, 3), (100, 1)]
    )
    stats = cache.sweep(max_bytes=150)
    # Oldest two go; the newest survives.
    assert stats.removed == 2 and stats.scanned == 3
    assert stats.bytes_before == 300 and stats.bytes_after == 100
    assert not files[0].exists() and not files[1].exists()
    assert files[2].exists()


def test_sweep_age_bound_ignores_fresh_entries(tmp_path):
    cache, files = _fill_cache(tmp_path, [(100, 10), (100, 0)])
    stats = cache.sweep(max_age_days=2)
    assert stats.removed == 1
    assert not files[0].exists() and files[1].exists()


def test_sweep_combined_age_then_size(tmp_path):
    cache, files = _fill_cache(
        tmp_path, [(100, 10), (100, 4), (100, 2), (100, 1)]
    )
    stats = cache.sweep(max_bytes=200, max_age_days=5)
    # Age kills the 10-day entry; budget then evicts the 4-day one.
    assert stats.removed == 2
    assert [f.exists() for f in files] == [False, False, True, True]


def test_sweep_noop_cases(tmp_path):
    assert CompileCache().sweep(max_bytes=0).scanned == 0  # memory-only
    cache = CompileCache(tmp_path / "never-written")
    assert cache.sweep(max_bytes=0).scanned == 0
    cache, files = _fill_cache(tmp_path, [(100, 1)])
    stats = cache.sweep()  # no bounds given: nothing evicted
    assert stats.removed == 0 and files[0].exists()
    with pytest.raises(ValueError):
        cache.sweep(max_bytes=-1)
    with pytest.raises(ValueError):
        cache.sweep(max_age_days=-1)


def test_sweep_missing_and_empty_dirs_return_zero_stats(tmp_path):
    """GC of nothing is a no-op, never an error."""
    missing = CompileCache(tmp_path / "does-not-exist")
    stats = missing.sweep(max_bytes=0, max_age_days=0)
    assert stats == SweepStats()
    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    stats = CompileCache(empty_dir).sweep(max_bytes=0, max_age_days=0)
    assert stats == SweepStats()
    # A path that is a *file* is as good as no cache.
    file_path = tmp_path / "plain-file"
    file_path.write_bytes(b"x")
    stats = CompileCache(file_path).sweep(max_bytes=0)
    assert stats == SweepStats()


def test_sweep_skips_foreign_files(tmp_path):
    """Files the cache did not write are never counted or deleted."""
    cache, files = _fill_cache(tmp_path, [(100, 10)])
    root = cache.path
    (root / "README.txt").write_text("not an entry")
    (root / "ab").mkdir(exist_ok=True)
    (root / "ab" / "notes.json").write_text("{}")
    impostor = root / "ab" / "dir-named-like-entry.pkl"
    impostor.mkdir()
    (impostor / "inner").write_bytes(b"x")
    stats = cache.sweep(max_bytes=0, max_age_days=0)
    # Only the genuine entry was scanned and removed.
    assert stats.scanned == 1 and stats.removed == 1
    assert not files[0].exists()
    assert (root / "README.txt").exists()
    assert (root / "ab" / "notes.json").exists()
    assert impostor.is_dir() and (impostor / "inner").exists()


def test_track_gc_on_missing_cache_dir_exits_zero(tmp_path, capsys):
    from repro.track import main as track_main

    code = track_main(
        ["gc", "--cache-dir", str(tmp_path / "nope"), "--max-bytes", "1K"]
    )
    assert code == 0
    assert "swept 0/0 entries" in capsys.readouterr().out


def test_swept_cache_still_works(tmp_path):
    """Eviction must read as a miss, not an error, on the next run."""
    from repro.flow import PassManager
    from repro.rtl.builder import ModuleBuilder

    b = ModuleBuilder("m")
    addr = b.input("a", 2)
    b.output("y", ~addr)
    module = b.build()

    cache = CompileCache(tmp_path / "cache")
    pipeline = PassManager.parse("elaborate,optimize")
    pipeline.compile(module, cache=cache)
    swept = cache.sweep(max_bytes=0)
    # One completed entry, plus the resume point stored at the stage
    # boundary after elaborate -- both evicted.
    assert swept.removed == swept.scanned == 2
    fresh = CompileCache(tmp_path / "cache")  # cold memory layer
    ctx = pipeline.compile(module, cache=fresh)
    assert ctx.aig is not None and fresh.misses == 1


# ---------------------------------------------------------------------
# Timing-aware diffs (per-point critical_delay / met).
# ---------------------------------------------------------------------

def _timed_point(delay, met=True, y=100.0):
    return ExperimentPoint(
        "s", 10.0, y, "p0", {"critical_delay": delay, "met": met}
    )


def test_diff_carries_per_point_timing():
    diff = diff_runs(
        _record(points=[_timed_point(1.0)]),
        _record(commit="c1", points=[_timed_point(1.2)]),
    )
    [delta] = diff.point_deltas
    assert delta.delay_old == 1.0 and delta.delay_new == 1.2
    assert delta.delay_pct == pytest.approx(20.0)
    assert not delta.met_regressed
    # A pure delay change counts as a changed point.
    assert diff.changed_points() == [delta]
    assert "delay 1.000 -> 1.200" in diff.render(1.0, 50.0)


def test_delay_regressions_gate_on_threshold_and_met():
    base = _record(points=[_timed_point(1.0)])
    slower = _record(commit="c1", points=[_timed_point(1.2)])
    diff = diff_runs(base, slower)
    assert len(diff.delay_regressions(10.0)) == 1
    assert diff.delay_regressions(25.0) == []
    # Losing timing closure regresses at any threshold.
    missed = _record(commit="c2", points=[_timed_point(1.01, met=False)])
    diff = diff_runs(base, missed)
    assert len(diff.delay_regressions(100.0)) == 1
    assert "[target now missed]" in diff.render(1.0, 50.0, 0.05, 100.0)
    assert "<<" in diff.render(1.0, 50.0, 0.05, 100.0)


def test_points_without_timing_are_exempt_from_the_delay_gate():
    old_style = _record(points=[ExperimentPoint("s", 10.0, 100.0, "p0")])
    new_style = _record(commit="c1", points=[_timed_point(9.9)])
    diff = diff_runs(old_style, new_style)
    [delta] = diff.point_deltas
    assert delta.delay_pct is None
    assert diff.delay_regressions(0.0) == []
    # And timing-free runs never become non-identical through timing.
    same = diff_runs(
        old_style,
        _record(commit="c2", points=[ExperimentPoint("s", 10.0, 100.0, "p0")]),
    )
    assert same.identical
