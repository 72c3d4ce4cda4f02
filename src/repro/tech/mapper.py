"""Technology mapping: cut-based NPN matching with area-flow covering.

The mapper assigns every AND node (in both output phases) its cheapest
realization as a library cell over one of its 4-feasible cuts, then
extracts a cover from the outputs down.  Complemented edges cost an
inverter unless a cell absorbs the inversion (the NPN orbit of every
cell is precomputed, so NAND/NOR/AOI forms match directly).

Covering uses the classic area-flow heuristic: a leaf's cost is
discounted by its fanout, approximating the sharing the final cover
will enjoy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from repro.aig.cuts import enumerate_cuts
from repro.aig.graph import AIG, lit_node, lit_sign
from repro.aig.tt_util import project_table
from repro.tables.bits import all_ones, tt_support
from repro.tech.cells import Cell, Library, default_library
from repro.tech.netlist import CONST0_NET, CONST1_NET, MappedNetlist

_K = 4
_MAX_CUTS = 6


@dataclass(frozen=True)
class Match:
    """A cell realization of a cut function.

    ``pins[i]`` is ``(leaf_index, leaf_phase)`` for cell input ``i``:
    the index of the cut leaf feeding it, and 1 when the input must be
    the *complement* of that leaf.
    """

    cell: Cell
    pins: tuple[tuple[int, int], ...]


class _MatchTable:
    """table -> matches, per arity, over a library's NPN orbits."""

    def __init__(self, library: Library) -> None:
        self.by_arity: list[dict[int, list[Match]]] = [dict() for _ in range(_K + 1)]
        for cell in library.cells.values():
            if cell.arity > _K or cell.name == "BUF":
                continue
            self._add_orbit(cell)

    def _add_orbit(self, cell: Cell) -> None:
        for pins, table in _orbit(cell.table, cell.arity):
            bucket = self.by_arity[cell.arity].setdefault(table, [])
            match = Match(cell, pins)
            # Keep only the cheapest cell per exact table.
            if not bucket or cell.area < bucket[0].cell.area:
                bucket.insert(0, match)
            else:
                bucket.append(match)

    def lookup(self, table: int, arity: int) -> list[Match]:
        if arity > _K:
            return []
        return self.by_arity[arity].get(table, [])


@lru_cache(maxsize=None)
def _orbit(
    table: int, arity: int
) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """``(pins, transformed table)`` for every input permutation and
    phase assignment of a cell function, in the order the match table
    files them; libraries share cell functions, so each orbit is
    computed once per process."""
    return tuple(
        (
            tuple(
                (leaf, (phases >> cell_input) & 1)
                for cell_input, leaf in enumerate(perm)
            ),
            _transform(table, perm, phases, arity),
        )
        for perm in permutations(range(arity))
        for phases in range(1 << arity)
    )


@lru_cache(maxsize=None)
def _index_map(
    perm: tuple[int, ...], phases: int, arity: int
) -> tuple[int, ...]:
    """Per leaf minterm, the cell-input minterm it drives: cell input
    ``i`` reads leaf ``perm[i]``, inverted when bit ``i`` of
    ``phases`` is set."""
    indices = []
    for minterm in range(1 << arity):
        index = 0
        for cell_input, leaf in enumerate(perm):
            if ((minterm >> leaf) ^ (phases >> cell_input)) & 1:
                index |= 1 << cell_input
        indices.append(index)
    return tuple(indices)


def _transform(table: int, perm: tuple[int, ...], phases: int, arity: int) -> int:
    """Reindex ``table``: cell input i reads (possibly inverted) leaf perm[i]."""
    result = 0
    for minterm, index in enumerate(_index_map(perm, phases, arity)):
        if (table >> index) & 1:
            result |= 1 << minterm
    return result


_match_table_cache: dict[str, _MatchTable] = {}

#: Entries kept by :func:`support_reduction` (least recently used
#: evicted).
REDUCTION_MEMO_SIZE = 4096


@lru_cache(maxsize=REDUCTION_MEMO_SIZE)
def support_reduction(table: int, size: int) -> tuple[tuple[int, ...], int]:
    """``(support, reduced)``: the variable positions ``table`` depends
    on and the table projected onto them, memoized -- the same cut
    functions recur across nodes, designs and compiles."""
    support = tt_support(table, size)
    return support, project_table(table, support, size)


def _matches_for(library: Library) -> _MatchTable:
    # Keyed on the library's *content* hash, not id(): two Library
    # objects with identical cells share one match table, and a
    # recycled object id (GC + reallocation) can never serve another
    # library's matches -- which matters now that flows routinely map
    # against several libraries in one process.
    key = library.canonical_hash()
    table = _match_table_cache.get(key)
    if table is None:
        table = _MatchTable(library)
        _match_table_cache[key] = table
    return table


def map_aig(aig: AIG, library: Library | None = None) -> MappedNetlist:
    """Map a (cleaned-up) AIG onto the library; returns the netlist."""
    library = library or default_library()
    matches = _matches_for(library)
    cuts = enumerate_cuts(aig, k=_K, max_cuts=_MAX_CUTS)
    fanout = aig.fanout_counts()
    inv_area = library.inverter.area

    # ------------------------------------------------------------------
    # Phase 1: dynamic programming over (node, phase).
    # ------------------------------------------------------------------
    INF = float("inf")
    cost: dict[tuple[int, int], float] = {}
    # Area flow of each (node, phase), indexed by its literal and
    # fixed together with its cost.
    flows: list[float | None] = [None] * (2 * aig.num_nodes)
    choice: dict[tuple[int, int], tuple] = {}

    def settle(node: int, phase: int, value: float) -> None:
        cost[(node, phase)] = value
        flows[(node << 1) | phase] = value / max(fanout[node], 1)

    for source in aig.combinational_inputs():
        settle(source, 0, 0.0)
        settle(source, 1, inv_area)
    settle(0, 0, 0.0)
    settle(0, 1, 0.0)

    for node in aig.topo_order():
        # Each cut's function reduced to its true support; the
        # complement phase has the same support.
        reduced_cuts = []
        for cut in cuts[node]:
            if cut.leaves == (node,):
                continue
            support, reduced = support_reduction(cut.table, cut.size)
            if len(support) < cut.size:
                leaves = tuple(cut.leaves[i] for i in support)
            else:
                leaves = cut.leaves
            reduced_cuts.append((leaves, reduced, all_ones(len(support))))
        for phase in (0, 1):
            best = INF
            best_choice = None
            for leaves, reduced, universe in reduced_cuts:
                if phase:
                    reduced ^= universe
                if not leaves:
                    # Constant under folding; realized by tie cells.
                    best = 0.0
                    best_choice = ("const", reduced & 1)
                    continue
                for match in matches.lookup(reduced, len(leaves)):
                    total = match.cell.area
                    for leaf_index, leaf_phase in match.pins:
                        leaf_flow = flows[(leaves[leaf_index] << 1) | leaf_phase]
                        if leaf_flow is None:
                            break
                        total += leaf_flow
                    else:
                        if total < best:
                            best = total
                            best_choice = ("cell", match, leaves)
            # Fallback: the other phase plus an inverter.
            other = cost.get((node, phase ^ 1))
            if other is not None and other + inv_area < best:
                best = other + inv_area
                best_choice = ("invert",)
            if best_choice is None:
                raise AssertionError(f"no match found for node {node}")
            settle(node, phase, best)
            choice[(node, phase)] = best_choice

    # ------------------------------------------------------------------
    # Phase 2: extract the cover from the outputs down.
    # ------------------------------------------------------------------
    netlist = MappedNetlist(library)
    for name, node in zip(aig.pi_names, aig.pis):
        netlist.pi_nets[name] = netlist.new_net()
    q_nets: dict[int, int] = {}
    for latch in aig.latches:
        q_nets[latch.node] = netlist.new_net()

    realized: dict[tuple[int, int], int] = {(0, 0): CONST0_NET, (0, 1): CONST1_NET}
    for name, node in zip(aig.pi_names, aig.pis):
        realized[(node, 0)] = netlist.pi_nets[name]
    for latch in aig.latches:
        realized[(latch.node, 0)] = q_nets[latch.node]

    def realize(node: int, phase: int) -> int:
        key = (node, phase)
        net = realized.get(key)
        if net is not None:
            return net
        if not aig.is_and(node):
            # Source needed in complemented phase: one shared inverter.
            base = realize(node, 0)
            net = netlist.add_instance("INV", [base])
            realized[key] = net
            return net
        picked = choice[key]
        if picked[0] == "invert":
            base = realize(node, phase ^ 1)
            net = netlist.add_instance("INV", [base])
        elif picked[0] == "const":
            netlist.num_ties += 1
            net = CONST1_NET if picked[1] else CONST0_NET
        else:
            _, match, leaves = picked
            input_nets = []
            for leaf_index, leaf_phase in match.pins:
                input_nets.append(realize(leaves[leaf_index], leaf_phase))
            net = netlist.add_instance(match.cell.name, input_nets)
        realized[key] = net
        return net

    for name, lit in aig.pos:
        node, phase = lit_node(lit), lit_sign(lit)
        if node == 0:
            netlist.num_ties += 1
            netlist.po_nets[name] = CONST1_NET if phase else CONST0_NET
        else:
            netlist.po_nets[name] = realize(node, phase)
    for latch in aig.latches:
        node, phase = lit_node(latch.next_lit), lit_sign(latch.next_lit)
        if node == 0:
            netlist.num_ties += 1
            d_net = CONST1_NET if phase else CONST0_NET
        else:
            d_net = realize(node, phase)
        netlist.flops.append(
            _make_flop(latch, library, d_net, q_nets[latch.node])
        )
    return netlist


def _make_flop(latch, library: Library, d_net: int, q_net: int):
    from repro.tech.netlist import FlopInstance

    return FlopInstance(
        name=latch.name,
        cell=library.flop_for(latch.reset_kind),
        d_net=d_net,
        q_net=q_net,
        reset_value=latch.reset_value,
    )
