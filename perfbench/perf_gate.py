"""The correctness gate: every compiled result checked against an
independent reference, outside the timed region.

* Figure tables must equal the expected tables committed beside the
  benchmark (``expected/tables.json``).
* Warm, resumed and served results must carry the same result digest
  (AIG canonical hash plus the mapped netlist) as the cold ones.
* Every compiled netlist that carries an RTL module is cross-simulated
  against the RTL reference simulator on seeded stimulus, with a
  settle window for retimed flows.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected" / "tables.json"

#: Cycles of seeded random stimulus per cross-simulation.
SIM_CYCLES = 64

#: Cycles ignored after reset when a flow retimed registers (retiming
#: is equivalence modulo an initialization window).
RETIME_SETTLE_CYCLES = 4


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def result_digest(ctx) -> str:
    """A digest of what a compile produced: the optimized AIG's
    canonical hash, the mapped netlist's structure, area and timing."""
    digest = hashlib.sha256()
    aig = getattr(ctx, "aig", None)
    digest.update(b"-" if aig is None else aig.canonical_hash().encode())
    netlist = getattr(ctx, "netlist", None)
    if netlist is not None:
        for inst in netlist.instances:
            digest.update(
                repr((inst.cell_name, inst.inputs, inst.output, inst.drive))
                .encode()
            )
        for flop in netlist.flops:
            digest.update(
                repr((flop.name, flop.cell.name, flop.d_net, flop.q_net,
                      flop.reset_value, flop.drive)).encode()
            )
        digest.update(repr(sorted(netlist.pi_nets.items())).encode())
        digest.update(repr(sorted(netlist.po_nets.items())).encode())
    area = getattr(ctx, "area", None)
    timing = getattr(ctx, "timing", None)
    digest.update(
        repr((
            None if area is None else (area.combinational, area.sequential),
            None if timing is None else timing.critical_delay,
        )).encode()
    )
    return digest.hexdigest()


def compare_tables(label: str, actual: dict, expected: dict) -> list[str]:
    """Every expected table of figure ``label`` must be present and
    byte-identical."""
    failures = []
    if set(actual) != set(expected):
        failures.append(
            f"{label}: table titles {sorted(actual)} != expected "
            f"{sorted(expected)}"
        )
    for title, text in expected.items():
        if title in actual and actual[title] != text:
            failures.append(f"{label}: table {title!r} differs from expected")
    return failures


def compare_digests(phase: str, reference: dict, digests: dict) -> list[str]:
    """Each key of ``digests`` must match ``reference`` exactly."""
    failures = []
    for key, digest in digests.items():
        want = reference.get(key)
        if want is None:
            failures.append(f"{phase}: result {key!r} has no cold reference")
        elif want != digest:
            failures.append(f"{phase}: result {key!r} differs from cold")
    return failures


def retimed(ctx) -> bool:
    return any(
        record.name.startswith("retime") and not record.skipped
        for record in ctx.records
    )


def crosscheck(ctx, label, seed: int, environments=(None,)) -> list[str]:
    """Cross-simulate ``ctx.netlist`` against ``ctx.module``.

    ``environments`` lists input pins held fixed during a simulation
    (``None`` drives every input at random); a design specialized under
    an assumption about its inputs is checked once per legal value.
    """
    from repro.sim.crosscheck import crosscheck_rtl_netlist

    if ctx.module is None or ctx.netlist is None:
        return []
    settle = RETIME_SETTLE_CYCLES if retimed(ctx) else 0
    failures = []
    for index, overrides in enumerate(environments):
        sim_seed = random.Random(f"{seed}/{label}/{index}").getrandbits(32)
        try:
            crosscheck_rtl_netlist(
                ctx.module,
                ctx.netlist,
                cycles=SIM_CYCLES,
                seed=sim_seed,
                overrides=overrides,
                settle_cycles=settle,
            )
        except AssertionError as exc:
            failures.append(f"cross-simulation of {label!r}: {exc}")
        except Exception as exc:  # a simulator crash is a failed check
            failures.append(
                f"cross-simulation of {label!r} raised "
                f"{type(exc).__name__}: {exc}"
            )
    return failures
