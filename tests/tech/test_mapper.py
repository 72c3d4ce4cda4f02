"""Unit tests for technology mapping (validated by netlist simulation)."""

import random
from itertools import permutations

import pytest

from repro.aig.graph import AIG, lit_compl
from repro.flow.passes import LIBRARY_FACTORIES
from repro.tech import mapper
from repro.tech.cells import Library
from repro.tech.mapper import map_aig

from tests.helpers import make_word


def crosscheck_netlist(aig, netlist, cycles=64, seed=0, latch_bits=0):
    """Drive AIG and netlist with identical random vectors."""
    rng = random.Random(seed)
    for _ in range(cycles):
        pi_values = {node: rng.getrandbits(1) for node in aig.pis}
        latch_values = {
            latch.node: rng.getrandbits(1) for latch in aig.latches
        }
        want_pos, want_next = aig.evaluate(pi_values, latch_values)
        name_values = {
            name: pi_values[node] for name, node in zip(aig.pi_names, aig.pis)
        }
        flop_values = {
            latch.name: latch_values[latch.node] for latch in aig.latches
        }
        got_pos, got_next = netlist.evaluate(name_values, flop_values)
        assert got_pos == want_pos
        assert got_next == want_next


def test_map_simple_gate():
    aig = AIG()
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    aig.add_po("f", aig.and_(a, b))
    netlist = map_aig(aig)
    crosscheck_netlist(aig, netlist)
    report = netlist.area_report()
    assert report.num_cells >= 1
    assert report.sequential == 0


def test_nand_matches_without_inverter():
    """~(a & b) should map to one NAND2, not AND2+INV."""
    aig = AIG()
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    aig.add_po("f", lit_compl(aig.and_(a, b)))
    netlist = map_aig(aig)
    crosscheck_netlist(aig, netlist)
    assert len(netlist.instances) == 1
    assert netlist.instances[0].cell_name == "NAND2"


def test_xor_maps_to_xor_cell():
    aig = AIG()
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    aig.add_po("f", aig.xor(a, b))
    netlist = map_aig(aig)
    crosscheck_netlist(aig, netlist)
    names = {inst.cell_name for inst in netlist.instances}
    assert names <= {"XOR2", "XNOR2", "INV"}
    assert len(netlist.instances) <= 2


def test_mux_maps_compactly():
    aig = AIG()
    s = aig.add_pi("s")
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    aig.add_po("f", aig.mux(s, a, b))
    netlist = map_aig(aig)
    crosscheck_netlist(aig, netlist)
    assert len(netlist.instances) <= 2


def test_constant_outputs_use_ties():
    aig = AIG()
    aig.add_pi("a")
    aig.add_po("zero", 0)
    aig.add_po("one", 1)
    netlist = map_aig(aig)
    assert netlist.num_ties == 2
    pos, _ = netlist.evaluate({"a": 1})
    assert pos == {"zero": 0, "one": 1}


def test_latches_map_to_reset_matched_flops():
    aig = AIG()
    a = aig.add_pi("a")
    for kind in ("none", "sync", "async"):
        q = aig.add_latch(f"q_{kind}", reset_kind=kind, reset_value=1)
        aig.set_latch_next(q, aig.xor(q, a))
        aig.add_po(f"o_{kind}", q)
    netlist = map_aig(aig)
    crosscheck_netlist(aig, netlist)
    kinds = {flop.name: flop.cell.reset_kind for flop in netlist.flops}
    assert kinds == {"q_none": "none", "q_sync": "sync", "q_async": "async"}


def test_random_aigs_map_correctly():
    rng = random.Random(23)
    for trial in range(8):
        aig = AIG()
        xs = make_word(aig, "x", 6)
        pool = list(xs)
        for _ in range(60):
            a = rng.choice(pool) ^ rng.randint(0, 1)
            b = rng.choice(pool) ^ rng.randint(0, 1)
            pool.append(aig.and_(a, b))
        for index in range(4):
            aig.add_po(f"f{index}", rng.choice(pool) ^ rng.randint(0, 1))
        cleaned, _ = aig.cleanup()
        netlist = map_aig(cleaned)
        crosscheck_netlist(cleaned, netlist, cycles=64, seed=trial)


def test_mapping_cheaper_than_naive():
    """Area-flow mapping beats one-cell-per-AND on a shared structure."""
    aig = AIG()
    xs = make_word(aig, "x", 8)
    # 8-input AND tree: should use NAND4/NOR trees, far fewer than 7 AND2.
    acc = xs[0]
    for lit in xs[1:]:
        acc = aig.and_(acc, lit)
    aig.add_po("f", acc)
    netlist = map_aig(aig)
    crosscheck_netlist(aig, netlist)
    and2 = Library.tsmc90ish().cells["AND2"]
    naive_area = 7 * and2.area
    assert netlist.area_report().combinational < naive_area


def brute_force_transform(table, perm, phases, arity):
    """Per leaf minterm, evaluate the cell on its permuted, inverted
    inputs."""
    result = 0
    for minterm in range(1 << arity):
        index = 0
        for cell_input, leaf in enumerate(perm):
            bit = (minterm >> leaf) & 1
            if (phases >> cell_input) & 1:
                bit ^= 1
            if bit:
                index |= 1 << cell_input
        if (table >> index) & 1:
            result |= 1 << minterm
    return result


@pytest.mark.parametrize("name", sorted(LIBRARY_FACTORIES))
def test_orbits_match_a_per_minterm_transform(name):
    mapper._orbit.cache_clear()
    for cell in LIBRARY_FACTORIES[name]().cells.values():
        arity = cell.arity
        expected = tuple(
            (
                tuple((leaf, phases >> i & 1) for i, leaf in enumerate(perm)),
                brute_force_transform(cell.table, perm, phases, arity),
            )
            for perm in permutations(range(arity))
            for phases in range(1 << arity)
        )
        assert mapper._orbit(cell.table, arity) == expected
        # A second call is a hit on the same orbit.
        assert mapper._orbit(cell.table, arity) is mapper._orbit(
            cell.table, arity
        )
