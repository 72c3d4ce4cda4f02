"""Self-tests of the benchmark's own arithmetic, wrappers and gate.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perf_gate import compare_digests, crosscheck, result_digest  # noqa: E402
from perf_layers import PER_LAYER, targets  # noqa: E402
from perf_stats import (  # noqa: E402
    percentile,
    samples_beyond,
    tail_percentile,
    valid_metric_name,
)
from perf_trace import (  # noqa: E402
    Patcher,
    Span,
    Target,
    Tracer,
    install,
    layer_times,
    resolve_binding,
    self_times,
)


def _load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- percentiles ------------------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert tail_percentile(list(range(100)), 90) == 89
    assert samples_beyond(99, 90) == 9
    with pytest.raises(ValueError):
        tail_percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        tail_percentile(list(range(200)), 99)


# -- span arithmetic ----------------------------------------------------------

def _span(span_id, name, start, end, parent=None):
    return Span(span_id, name, start, end, parent, 1, None, None)


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        _span(0, "parent", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),   # overlaps a on [3, 4]
        _span(3, "c", 9.0, 12.0, parent=0),  # clipped to [9, 10]
        _span(4, "leaf", 1.5, 2.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[4] == pytest.approx(0.5)


def test_busy_time_counts_nested_same_name_once():
    spans = [
        _span(0, "pass.x", 0.0, 4.0),
        _span(1, "pass.x", 1.0, 2.0, parent=0),
        _span(2, "pass.x", 5.0, 6.0),
    ]
    entry = layer_times(spans)["pass.x"]
    assert entry["calls"] == 2
    assert entry["busy_s"] == pytest.approx(5.0)
    assert entry["self_s"] == pytest.approx(5.0)


def test_tracer_records_parent_and_job():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer_frame = tracer.begin("outer", job="j1")
    tracer.end(tracer.begin("inner"))
    tracer.end(outer_frame)
    inner, outer = tracer.spans  # clock: origin 0, outer 1..4, inner 2..3
    assert inner.parent == outer.id
    assert inner.job == "j1"
    assert layer_times(tracer.spans)["outer"]["self_s"] == pytest.approx(2.0)


# -- metric names -----------------------------------------------------------

def test_metric_names_are_valid_and_match_benchmark_json():
    runner = _load_runner()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert per_layer == list(PER_LAYER)
    assert end_to_end == list(runner.END_TO_END)
    names = [name for name, *_ in per_layer + end_to_end]
    assert len(names) == len(set(names))
    assert all(valid_metric_name(name) for name in names)
    for bad in ("", "-lead", "a b", "x/y", "a" * 65, "µm"):
        assert not valid_metric_name(bad)


# -- wrappers ---------------------------------------------------------------

def _binding_state(targets_list):
    state = {}
    for target in targets_list:
        for binding in target.bindings:
            try:
                owner, attr = resolve_binding(binding)
            except (ImportError, AttributeError):
                continue
            state[binding] = (getattr(owner, attr), attr in vars(owner))
    return state


def test_every_wrapper_restores_the_original_binding():
    tracer = Tracer()
    wrapped = targets(tracer)
    before = _binding_state(wrapped)
    assert before, "no target resolved"
    patcher = Patcher()
    absent = install(tracer, patcher, wrapped)
    assert absent == []
    during = _binding_state(wrapped)
    assert all(during[b][0] is not before[b][0] for b in before)
    patcher.restore()
    after = _binding_state(wrapped)
    for binding, (value, own) in before.items():
        assert after[binding][0] is value, binding
        assert after[binding][1] == own, binding


def test_absent_targets_are_reported_not_fatal():
    tracer = Tracer()
    with Patcher() as patcher:
        absent = install(tracer, patcher, [
            Target("x", ("repro.no_such_module:f",)),
            Target("y", ("repro.flow.cache:CompileCache.no_such_method",)),
        ])
    assert absent == [
        "repro.no_such_module:f",
        "repro.flow.cache:CompileCache.no_such_method",
    ]


# -- the correctness gate ---------------------------------------------------

def _compiled_fsm():
    from repro.flow import default_pipeline
    from repro.rtl.ast import Const
    from repro.rtl.builder import ModuleBuilder, mux
    from repro.synth.dc_options import CompileOptions

    b = ModuleBuilder("gate_fsm")
    go = b.input("go")
    state = b.reg("state", 2)
    b.drive(state, b.case(
        state,
        {0: mux(go[0], Const(1, 2), Const(0, 2)), 1: Const(2, 2),
         2: Const(0, 2)},
        Const(0, 2),
    ))
    b.output("busy", state.ne(0))
    b.output("done", state.eq(2))
    return default_pipeline(CompileOptions()).compile(b.build())


class _Workload:
    name = "figures-sweep"

    def environments(self, key):
        return (None,)


def test_gate_counts_a_seeded_netlist_defect():
    from perf_workloads import Phase

    good = _compiled_fsm()
    assert crosscheck(good, "good", seed=1) == []
    broken = copy.deepcopy(good)
    po = broken.netlist.po_nets
    po["busy[0]"], po["done[0]"] = po["done[0]"], po["busy[0]"]
    assert crosscheck(broken, "broken", seed=1)
    assert compare_digests(
        "warm", {"k": result_digest(good)}, {"k": result_digest(broken)}
    )

    gate = _load_runner().Gate(_Workload(), seed=1)
    phase = Phase("cold")
    phase.results = {("fig", 0, "k"): broken}
    gate.inspect(phase)
    assert any("cross-simulation" in failure for failure in gate.failures)
    assert phase.results == {}  # dropped once checked
