"""Tests for the ``python -m repro.track`` command-line interface."""

import json

import pytest

from repro.flow import PASS_REGISTRY, LocalDirBackend
from repro.track import main, resolve_ref
from repro.track.bench import run_pass_bench


@pytest.fixture()
def dirs(tmp_path):
    return {
        "store": str(tmp_path / "runs"),
        "cache": str(tmp_path / "cache"),
    }


def _record_fig5(dirs, commit="HEAD"):
    return main([
        "record", "fig5", "--scale", "small",
        "--commit", commit,
        "--store-dir", dirs["store"], "--cache-dir", dirs["cache"],
    ])


def test_record_then_self_diff_is_identical(dirs, capsys):
    assert _record_fig5(dirs) == 0
    first = capsys.readouterr().out
    assert "recorded 12 point(s)" in first
    assert "24 misses, 24 stores" in first

    # Re-record at the same commit: served entirely from the cache...
    assert _record_fig5(dirs) == 0
    second = capsys.readouterr().out
    assert "0 misses, 0 stores" in second

    # ...so HEAD diffed against itself reports zero deltas.
    assert main(["diff", "HEAD", "HEAD", "--store-dir", dirs["store"]]) == 0
    out = capsys.readouterr().out
    assert "identical: no point or pass deltas" in out


def test_injected_regression_fails_the_diff(dirs, capsys):
    from repro.flow.store import RunStore

    assert _record_fig5(dirs, commit="base") == 0
    store = RunStore(dirs["store"])
    entry = store.record_file(resolve_ref("base"), "fig5")
    data = json.loads(entry.read_text())
    data["commit"] = "hacked"
    data["result"]["points"][0]["y"] *= 1.5           # +50% area
    data["result"]["pass_totals"]["optimize"]["wall_time_s"] *= 3.0
    store.record_file("hacked", "fig5").parent.mkdir(
        parents=True, exist_ok=True
    )
    store.record_file("hacked", "fig5").write_text(json.dumps(data))
    capsys.readouterr()

    base = resolve_ref("base")
    args = [base, "hacked", "--store-dir", dirs["store"]]
    assert main(["diff", *args]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "<<" in out

    # Warn-only reports but exits clean (the CI soft-launch mode).
    assert main(["diff", *args, "--warn-only"]) == 0
    # Loose thresholds pass outright.
    assert main([
        "diff", *args, "--max-area-pct", "60", "--max-time-pct", "500",
    ]) == 0


def test_diff_against_missing_baseline(dirs, capsys):
    assert _record_fig5(dirs, commit="only") == 0
    capsys.readouterr()
    args = ["nothere", "only", "--store-dir", dirs["store"]]
    assert main(["diff", *args]) == 0
    assert "no record at nothere" in capsys.readouterr().out
    assert main(["diff", *args, "--strict"]) == 2

    empty = ["a", "b", "--store-dir", dirs["store"] + "-empty"]
    assert main(["diff", *empty]) == 0
    assert "no records" in capsys.readouterr().out
    assert main(["diff", *empty, "--strict"]) == 2


def test_list_shows_recorded_runs(dirs, capsys):
    assert _record_fig5(dirs, commit="label0") == 0
    capsys.readouterr()
    assert main(["list", "--store-dir", dirs["store"]]) == 0
    out = capsys.readouterr().out
    assert "label0" in out and "fig5" in out and "12 point(s)" in out


def test_gc_requires_a_bound(dirs, capsys):
    assert main(["gc", "--cache-dir", dirs["cache"]]) == 2
    assert _record_fig5(dirs) == 0
    capsys.readouterr()
    # The 24 completed entries plus the resume points (how many depends
    # on pass wall times), swept as one listing.
    stored = LocalDirBackend(dirs["cache"]).stats()["entries"]
    assert stored > 24
    assert main([
        "gc", "--cache-dir", dirs["cache"], "--max-bytes", "0",
    ]) == 0
    assert f"swept {stored}/{stored}" in capsys.readouterr().out


def test_record_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        main(["record", "fig99"])


def test_gc_rejects_negative_bounds(dirs, capsys):
    for flags in (["--max-bytes", "-1"], ["--max-age-days", "-2"]):
        with pytest.raises(SystemExit):
            main(["gc", "--cache-dir", dirs["cache"], *flags])
        assert ">= 0" in capsys.readouterr().err


def test_diff_accepts_bench_alias_for_figure(dirs, capsys):
    """``--figure bench`` must hit the stored ``bench_passes`` record,
    not silently skip an unknown figure name."""
    from repro.flow.store import RunStore
    from repro.track.bench import store_bench_record

    contexts = _tiny_contexts()
    store_bench_record(contexts, dirs["store"], commit="c0")
    store_bench_record(contexts, dirs["store"], commit="c1")
    assert main([
        "diff", "c0", "c1", "--figure", "bench",
        "--store-dir", dirs["store"],
    ]) == 0
    out = capsys.readouterr().out
    assert "bench_passes" in out and "no record" not in out
    # The stored shape matches `track record bench` (library included).
    assert RunStore(dirs["store"]).get("c0", "bench_passes").library


def _tiny_contexts():
    from repro.flow import PassManager
    from repro.track.bench import build_table_aig

    aig = build_table_aig(num_inputs=3, width=2)
    return [PassManager.parse("tt_sweep,balance").compile(aig=aig)]


def test_resolve_ref_passes_labels_through():
    assert resolve_ref("not-a-real-ref-label") == "not-a-real-ref-label"


def test_run_pass_bench_covers_the_registry():
    result = run_pass_bench()
    assert set(PASS_REGISTRY) <= set(result.pass_totals)
    assert all(t.calls >= 1 for t in result.pass_totals.values())
    assert "pipelines" in result.meta


def test_injected_delay_regression_gates_only_when_asked(dirs, capsys):
    from repro.flow.store import RunStore

    assert _record_fig5(dirs, commit="base") == 0
    store = RunStore(dirs["store"])
    entry = store.record_file(resolve_ref("base"), "fig5")
    data = json.loads(entry.read_text())
    data["commit"] = "slower"
    # +30% achieved delay and a missed target; areas untouched.
    meta = data["result"]["points"][0]["meta"]
    meta["critical_delay"] *= 1.3
    meta["met"] = False
    store.record_file("slower", "fig5").parent.mkdir(
        parents=True, exist_ok=True
    )
    store.record_file("slower", "fig5").write_text(json.dumps(data))
    capsys.readouterr()

    base = resolve_ref("base")
    args = [base, "slower", "--store-dir", dirs["store"]]
    # Without the gate the delay change is reported but not blocking.
    assert main(["diff", *args]) == 0
    assert "delay" in capsys.readouterr().out
    # The gate flags the grown delay (and the lost closure)...
    assert main(["diff", *args, "--max-delay-pct", "10"]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "delay > 10.0%" in out
    # ...and a met->missed point regresses at any percentage.
    assert main(["diff", *args, "--max-delay-pct", "1000"]) == 1
