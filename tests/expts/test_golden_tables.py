"""The paper-figure tables at ``--scale small`` are golden.

Every kernel and pass change must leave the Fig. 5/6/8 and techsweep
tables byte-identical.  The reference lives in
``perfbench/expected/tables.json`` (the benchmark checks its runs
against the same file); this test only reads it, so a change that
alters a figure fails here without running the benchmark.
"""

import json
from pathlib import Path

import pytest

from repro.expts.fig5_tables import run_fig5
from repro.expts.fig6_fsm import run_fig6
from repro.expts.fig8_stateprop import run_fig8
from repro.expts.techsweep import run_techsweep
from repro.flow import CompileCache

from tests.helpers import clear_process_memos

EXPECTED = Path(__file__).resolve().parents[2] / "perfbench" / "expected" / "tables.json"

DRIVERS = {
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig8": run_fig8,
    "techsweep": run_techsweep,
}


@pytest.fixture(scope="module")
def expected():
    data = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert data["scale"] == "small"
    return data["figures"]


# Every run starts from empty process-wide memos (cut sets, covers,
# orbits, match tables); with ``workers=2`` the pool workers fill
# their own copies, a path the serial run never takes.
@pytest.mark.parametrize(
    "label, workers",
    [
        pytest.param(label, workers, id=label if workers == 1 else f"{label}-workers2")
        for label in sorted(DRIVERS)
        for workers in (1, 2)
    ],
)
def test_small_scale_tables_match_the_golden_file(
    label, workers, expected, tmp_path
):
    clear_process_memos()
    result = DRIVERS[label](
        scale="small", workers=workers, cache=CompileCache(tmp_path)
    )
    assert dict(result.tables) == expected[label]
