"""K-feasible cut enumeration with truth-table computation.

A *cut* of a node is a set of nodes (leaves) that separates it from the
inputs; every k-feasible cut with its local truth table is the unit of
work for both technology mapping and rewriting.  This is the standard
priority-cuts algorithm: merge fanin cut sets, discard cuts wider than
``k``, keep a bounded number per node.

Each cut carries a 64-bit leaf *signature* while its node's cuts are
merged (the OR of ``1 << (leaf & 63)``, as in ABC): a merge whose
signature has more than ``k`` bits set is rejected before its leaf
tuple is built, and dominance is tested on signatures before leaf
sets.  Collisions only lower a bit count or make a subset test pass,
so the filters never reject a cut the exact tests would keep.

The optimize loop enumerates the same graph again and again (its last
round leaves the graph unchanged, and the mapper then enumerates it
once more), so :func:`enumerate_cuts` memoizes whole cut sets
process-wide, keyed on the graph's exact structure.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.aig.graph import AIG, lit_node, lit_sign
from repro.aig.kernel import resolve_backend
from repro.tables.bits import all_ones

#: Total AIG nodes whose cut sets the memo of :func:`enumerate_cuts`
#: holds (least recently used graphs evicted first); a larger graph is
#: enumerated but not kept.
CUT_MEMO_NODES = 4096


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


def _signature(node: int) -> int:
    return 1 << (node & 63)


class CutSet:
    """Cuts for every node of an AIG.

    ``cut_set[node]`` is a tuple: sets returned by
    :func:`enumerate_cuts` are shared between callers and threads.
    """

    def __init__(self, aig: AIG, k: int = 4, max_cuts: int = 8) -> None:
        if k < 2 or k > 6:
            raise ValueError("cut size must be between 2 and 6")
        self.k = k
        self.max_cuts = max_cuts
        self._kernel = resolve_backend()
        self.cuts: dict[int, tuple[Cut, ...]] = {}
        self._compute(aig)

    def _compute(self, aig: AIG) -> None:
        signatures: dict[int, tuple[int, ...]] = {0: (0,)}
        for source in aig.combinational_inputs():
            self.cuts[source] = (Cut((source,), 0b10),)
            signatures[source] = (_signature(source),)
        self.cuts[0] = (Cut((), 0),)  # constant node: empty cut, table false
        for node in aig.topo_order():
            self.cuts[node], signatures[node] = self._node_cuts(
                node, aig.fanins(node), signatures
            )

    def _node_cuts(
        self,
        node: int,
        fanins: tuple[int, int],
        signatures: dict[int, tuple[int, ...]],
    ) -> tuple[tuple[Cut, ...], tuple[int, ...]]:
        f0, f1 = fanins
        k = self.k
        pairs0 = tuple(zip(self.cuts[lit_node(f0)], signatures[lit_node(f0)]))
        pairs1 = tuple(zip(self.cuts[lit_node(f1)], signatures[lit_node(f1)]))
        # leaves -> (signature, cut0, cut1).  The first pair to reach a
        # leaf set computes its table: with a leaf inside another
        # leaf's cone, two pairs can disagree off the reachable space.
        merged: dict[tuple[int, ...], tuple[int, Cut, Cut]] = {}
        for cut0, sig0 in pairs0:
            leaves0 = set(cut0.leaves)
            for cut1, sig1 in pairs1:
                sig = sig0 | sig1
                if sig.bit_count() > k:
                    continue
                leaves = tuple(sorted(leaves0.union(cut1.leaves)))
                if len(leaves) > k or leaves in merged:
                    continue
                merged[leaves] = (sig, cut0, cut1)

        # Smallest first (by size, then leaves), dropping any cut whose
        # leaves contain a kept cut's leaves; only the survivors get a
        # table.
        kept: list[tuple[tuple[int, ...], int]] = []
        for leaves in sorted(sorted(merged), key=len):
            sig = merged[leaves][0]
            for other, other_sig in kept:
                if not other_sig & ~sig and set(other).issubset(leaves):
                    break
            else:
                kept.append((leaves, sig))
                if len(kept) == self.max_cuts:
                    break
        kept = kept[: self.max_cuts]  # a spec may ask for max_cuts <= 0

        cuts = []
        for leaves, _ in kept:
            _, cut0, cut1 = merged[leaves]
            table0 = self._kernel.expand_cut(cut0.table, cut0.leaves, leaves)
            table1 = self._kernel.expand_cut(cut1.table, cut1.leaves, leaves)
            universe = all_ones(len(leaves))
            if lit_sign(f0):
                table0 ^= universe
            if lit_sign(f1):
                table1 ^= universe
            cuts.append(Cut(leaves, table0 & table1))
        cuts.append(Cut((node,), 0b10))  # trivial cut, always last
        return tuple(cuts), tuple(sig for _, sig in kept) + (_signature(node),)

    def __getitem__(self, node: int) -> tuple[Cut, ...]:
        return self.cuts[node]


class _CutSetMemo:
    """Cut sets by exact graph structure, least recently used first,
    bounded by the total AIG nodes of the graphs they cover."""

    def __init__(self, max_nodes: int) -> None:
        self.max_nodes = max_nodes
        self.held_nodes = 0
        self._entries: OrderedDict[tuple, tuple[CutSet, int]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> CutSet | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: tuple, cut_set: CutSet, nodes: int) -> None:
        if nodes > self.max_nodes:
            return
        with self._lock:
            if key in self._entries:  # another thread stored it first
                return
            self._entries[key] = (cut_set, nodes)
            self.held_nodes += nodes
            while self.held_nodes > self.max_nodes:
                _, (_, evicted) = self._entries.popitem(last=False)
                self.held_nodes -= evicted

    def __len__(self) -> int:
        return len(self._entries)

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.held_nodes = 0


cut_set_memo = _CutSetMemo(CUT_MEMO_NODES)


def enumerate_cuts(aig: AIG, k: int = 4, max_cuts: int = 8) -> CutSet:
    """The cut set of ``aig``, memoized process-wide.

    The key is the exact structure (:meth:`AIG.structure_key`) plus
    ``k`` and ``max_cuts``, not :meth:`AIG.canonical_hash`: cut leaves
    are raw node ids, which canonical renumbering would conflate.  A
    hit returns the very :class:`CutSet` an earlier call computed, so
    callers must not modify it.
    """
    nodes = aig.num_nodes
    if nodes > cut_set_memo.max_nodes:
        return CutSet(aig, k=k, max_cuts=max_cuts)
    key = (k, max_cuts, aig.structure_key())
    cut_set = cut_set_memo.get(key)
    if cut_set is None:
        cut_set = CutSet(aig, k=k, max_cuts=max_cuts)
        cut_set_memo.put(key, cut_set, nodes)
    return cut_set
