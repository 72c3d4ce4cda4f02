"""K-feasible cut enumeration with truth-table computation.

A *cut* of a node is a set of nodes (leaves) that separates it from the
inputs; every k-feasible cut with its local truth table is the unit of
work for both technology mapping and rewriting.  This is the standard
priority-cuts algorithm: merge fanin cut sets, discard cuts wider than
``k``, keep a bounded number per node.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aig.graph import AIG, lit_node, lit_sign
from repro.aig.kernel import resolve_backend
from repro.tables.bits import all_ones, var_mask


@dataclass(frozen=True, slots=True)
class Cut:
    """A cut: leaf node indices (sorted) plus the local function.

    ``table`` is a truth-table int over ``len(leaves)`` variables where
    variable ``i`` is ``leaves[i]``.
    """

    leaves: tuple[int, ...]
    table: int

    @property
    def size(self) -> int:
        return len(self.leaves)


class CutSet:
    """Cuts for every node of an AIG."""

    def __init__(self, aig: AIG, k: int = 4, max_cuts: int = 8) -> None:
        if k < 2 or k > 6:
            raise ValueError("cut size must be between 2 and 6")
        self.aig = aig
        self.k = k
        self.max_cuts = max_cuts
        self._kernel = resolve_backend()
        self.cuts: dict[int, list[Cut]] = {}
        self._compute()

    def _compute(self) -> None:
        aig = self.aig
        for source in aig.combinational_inputs():
            self.cuts[source] = [Cut((source,), 0b10)]
        self.cuts[0] = [Cut((), 0)]  # constant node: empty cut, table false
        for node in aig.topo_order():
            self.cuts[node] = self._node_cuts(node)

    def _node_cuts(self, node: int) -> list[Cut]:
        aig = self.aig
        f0, f1 = aig.fanins(node)
        cuts0 = self.cuts[lit_node(f0)]
        cuts1 = self.cuts[lit_node(f1)]
        merged: dict[tuple[int, ...], Cut] = {}
        for cut0 in cuts0:
            for cut1 in cuts1:
                leaves = tuple(sorted(set(cut0.leaves) | set(cut1.leaves)))
                if len(leaves) > self.k:
                    continue
                if leaves in merged:
                    continue
                table0 = self._kernel.expand_cut(cut0.table, cut0.leaves, leaves)
                table1 = self._kernel.expand_cut(cut1.table, cut1.leaves, leaves)
                universe = all_ones(len(leaves))
                if lit_sign(f0):
                    table0 ^= universe
                if lit_sign(f1):
                    table1 ^= universe
                merged[leaves] = Cut(leaves, table0 & table1)
        cuts = sorted(merged.values(), key=lambda c: (c.size, c.leaves))
        cuts = _drop_dominated(cuts)[: self.max_cuts]
        cuts.append(Cut((node,), 0b10))  # trivial cut, always last
        return cuts

    def __getitem__(self, node: int) -> list[Cut]:
        return self.cuts[node]


def enumerate_cuts(aig: AIG, k: int = 4, max_cuts: int = 8) -> CutSet:
    """Convenience constructor for :class:`CutSet`."""
    return CutSet(aig, k=k, max_cuts=max_cuts)


def _drop_dominated(cuts: list[Cut]) -> list[Cut]:
    """Remove cuts whose leaves are a superset of another cut's."""
    kept: list[Cut] = []
    for cut in cuts:
        leaf_set = set(cut.leaves)
        if any(set(other.leaves) <= leaf_set for other in kept):
            continue
        kept.append(cut)
    return kept


def cut_table_var(index: int, num_leaves: int) -> int:
    """Truth table of leaf ``index`` as a cut-local variable."""
    return var_mask(index, num_leaves)
