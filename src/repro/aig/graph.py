"""The And-Inverter Graph data structure.

Encoding conventions (the usual AIGER ones):

* Node 0 is the constant-FALSE node.
* A *literal* is ``2 * node + complement``; literal 0 is constant false
  and literal 1 constant true.
* Primary inputs and latch outputs are nodes without fanins.
* AND nodes store two fanin literals, each of which may be complemented.

Structural hashing and the standard folding rules are applied by
:meth:`AIG.and_` as nodes are created, so a caller never observes a
trivially reducible AND node.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

CONST0 = 0
CONST1 = 1

_NO_FANIN = -1


def lit_node(lit: int) -> int:
    """Node index of a literal."""
    return lit >> 1


def lit_sign(lit: int) -> int:
    """Complement bit of a literal (0 or 1)."""
    return lit & 1

def lit_compl(lit: int) -> int:
    """The complemented literal."""
    return lit ^ 1


@dataclass(slots=True)
class Latch:
    """A sequential element.

    Attributes:
        name: diagnostic name (unique within the AIG).
        node: the AIG node acting as the latch *output*.
        next_lit: literal computing the next state (set after creation).
        reset_kind: ``"none"``, ``"sync"`` or ``"async"``.
        reset_value: the value loaded by reset (0/1); also the value the
            simulator starts from for ``"none"`` latches so that
            simulations are deterministic.
    """

    name: str
    node: int
    next_lit: int = CONST0
    reset_kind: str = "none"
    reset_value: int = 0


@dataclass(slots=True)
class _Nodes:
    """Struct-of-arrays node storage."""

    fanin0: list[int] = field(default_factory=lambda: [_NO_FANIN])
    fanin1: list[int] = field(default_factory=lambda: [_NO_FANIN])

    def __len__(self) -> int:
        return len(self.fanin0)


class AIG:
    """A sequential And-Inverter Graph with structural hashing."""

    def __init__(self) -> None:
        self._nodes = _Nodes()
        self._strash: dict[tuple[int, int], int] = {}
        self._pis: list[int] = []
        self._pi_names: list[str] = []
        self._pos: list[tuple[str, int]] = []
        self._latches: list[Latch] = []
        self._latch_of_node: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_pi(self, name: str) -> int:
        """Create a primary input; returns its (positive) literal."""
        node = self._new_node()
        self._pis.append(node)
        self._pi_names.append(name)
        return node << 1

    def add_latch(
        self, name: str, reset_kind: str = "none", reset_value: int = 0
    ) -> int:
        """Create a latch; returns the literal of its output.

        The next-state function must be supplied later through
        :meth:`set_latch_next` (definitions are usually cyclic).
        """
        if reset_kind not in ("none", "sync", "async"):
            raise ValueError(f"unknown reset kind {reset_kind!r}")
        node = self._new_node()
        latch = Latch(name, node, CONST0, reset_kind, reset_value & 1)
        self._latch_of_node[node] = len(self._latches)
        self._latches.append(latch)
        return node << 1

    def set_latch_next(self, latch_lit: int, next_lit: int) -> None:
        """Connect the next-state literal of the latch behind ``latch_lit``."""
        node = lit_node(latch_lit)
        index = self._latch_of_node.get(node)
        if index is None:
            raise ValueError("literal does not name a latch output")
        if lit_sign(latch_lit):
            raise ValueError("latch output literal must be uncomplemented")
        self._check_lit(next_lit)
        self._latches[index].next_lit = next_lit

    def add_po(self, name: str, lit: int) -> None:
        """Register a primary output."""
        self._check_lit(lit)
        self._pos.append((name, lit))

    def and_(self, a: int, b: int) -> int:
        """AND of two literals, with folding and structural hashing."""
        self._check_lit(a)
        self._check_lit(b)
        if a == CONST0 or b == CONST0 or a == lit_compl(b):
            return CONST0
        if a == CONST1 or a == b:
            return b
        if b == CONST1:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        node = self._strash.get(key)
        if node is None:
            node = self._new_node(a, b)
            self._strash[key] = node
        return node << 1

    def not_(self, a: int) -> int:
        return lit_compl(a)

    def or_(self, a: int, b: int) -> int:
        return lit_compl(self.and_(lit_compl(a), lit_compl(b)))

    def xor(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, lit_compl(b)), self.and_(lit_compl(a), b))

    def xnor(self, a: int, b: int) -> int:
        return lit_compl(self.xor(a, b))

    def mux(self, sel: int, if1: int, if0: int) -> int:
        """``sel ? if1 : if0``."""
        if if1 == if0:
            return if1
        if sel == CONST1:
            return if1
        if sel == CONST0:
            return if0
        return self.or_(self.and_(sel, if1), self.and_(lit_compl(sel), if0))

    def _new_node(self, fanin0: int = _NO_FANIN, fanin1: int = _NO_FANIN) -> int:
        self._nodes.fanin0.append(fanin0)
        self._nodes.fanin1.append(fanin1)
        return len(self._nodes) - 1

    def _check_lit(self, lit: int) -> None:
        if lit < 0 or lit_node(lit) >= len(self._nodes):
            raise ValueError(f"literal {lit} references an unknown node")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total node count, including constant, PIs and latches."""
        return len(self._nodes)

    @property
    def num_ands(self) -> int:
        return len(self._strash)

    @property
    def pis(self) -> list[int]:
        """PI node indices in creation order."""
        return list(self._pis)

    @property
    def pi_names(self) -> list[str]:
        return list(self._pi_names)

    @property
    def pos(self) -> list[tuple[str, int]]:
        """``(name, literal)`` for each primary output."""
        return list(self._pos)

    @property
    def latches(self) -> list[Latch]:
        return list(self._latches)

    def is_and(self, node: int) -> bool:
        return self._nodes.fanin0[node] != _NO_FANIN

    def is_latch_output(self, node: int) -> bool:
        return node in self._latch_of_node

    def is_pi(self, node: int) -> bool:
        return (
            node != 0
            and not self.is_and(node)
            and not self.is_latch_output(node)
        )

    def latch_for_node(self, node: int) -> Latch:
        return self._latches[self._latch_of_node[node]]

    def fanins(self, node: int) -> tuple[int, int]:
        """Fanin literals of an AND node."""
        if not self.is_and(node):
            raise ValueError(f"node {node} is not an AND node")
        return self._nodes.fanin0[node], self._nodes.fanin1[node]

    def combinational_inputs(self) -> list[int]:
        """PI nodes followed by latch-output nodes."""
        return self._pis + [latch.node for latch in self._latches]

    def combinational_outputs(self) -> list[int]:
        """PO literals followed by latch next-state literals."""
        return [lit for _, lit in self._pos] + [
            latch.next_lit for latch in self._latches
        ]

    def topo_order(self, roots: list[int] | None = None) -> list[int]:
        """AND nodes in topological order (fanins first).

        Args:
            roots: literals whose cones to cover; defaults to all
                combinational outputs.
        """
        if roots is None:
            roots = self.combinational_outputs()
        order: list[int] = []
        seen = bytearray(len(self._nodes))
        stack = [lit_node(lit) for lit in roots]
        while stack:
            node = stack.pop()
            if node >= 0:
                if seen[node] or not self.is_and(node):
                    continue
                seen[node] = 1
                stack.append(~node)  # postorder marker
                f0, f1 = self._nodes.fanin0[node], self._nodes.fanin1[node]
                stack.append(lit_node(f0))
                stack.append(lit_node(f1))
            else:
                order.append(~node)
        return order

    def support(self, lit: int) -> set[int]:
        """Set of source nodes (PIs and latch outputs) feeding ``lit``."""
        sources: set[int] = set()
        seen = set()
        stack = [lit_node(lit)]
        while stack:
            node = stack.pop()
            if node in seen or node == 0:
                continue
            seen.add(node)
            if self.is_and(node):
                f0, f1 = self.fanins(node)
                stack.append(lit_node(f0))
                stack.append(lit_node(f1))
            else:
                sources.add(node)
        return sources

    def live_nodes(self, dead_latches: Iterable[int] = ()) -> set[int]:
        """Nodes that can influence a primary output (node 0 excluded).

        The liveness fixpoint as one worklist walk from the POs: a
        live node's fanins are live, and a live latch output makes its
        next-state cone live -- so a latch feeding only itself stays
        dead, unlike in a walk rooted at every latch next.  Each node
        is visited at most once.

        Args:
            dead_latches: latch output nodes whose next-state cones
                do not count (stuck latches about to be replaced by
                constants); the latch nodes themselves are still
                reported when reached.
        """
        dead = set(dead_latches)
        live: set[int] = set()
        stack = [lit_node(lit) for _, lit in self._pos]
        while stack:
            node = stack.pop()
            if node in live or node == 0:
                continue
            live.add(node)
            if self.is_and(node):
                stack.append(lit_node(self._nodes.fanin0[node]))
                stack.append(lit_node(self._nodes.fanin1[node]))
            elif node in self._latch_of_node and node not in dead:
                stack.append(lit_node(self.latch_for_node(node).next_lit))
        return live

    def fanout_counts(self) -> list[int]:
        """Static fanout count per node over all combinational cones."""
        counts = [0] * len(self._nodes)
        for node in range(len(self._nodes)):
            if self.is_and(node):
                f0, f1 = self.fanins(node)
                counts[lit_node(f0)] += 1
                counts[lit_node(f1)] += 1
        for lit in self.combinational_outputs():
            counts[lit_node(lit)] += 1
        return counts

    def levels(self) -> list[int]:
        """Logic depth of every node (PIs and latches are level 0)."""
        level = [0] * len(self._nodes)
        for node in self.topo_order():
            f0, f1 = self.fanins(node)
            level[node] = 1 + max(level[lit_node(f0)], level[lit_node(f1)])
        return level

    def depth(self) -> int:
        """Depth of the deepest combinational output cone."""
        level = self.levels()
        outputs = self.combinational_outputs()
        if not outputs:
            return 0
        return max(level[lit_node(lit)] for lit in outputs)

    # ------------------------------------------------------------------
    # Evaluation (bit-parallel)
    # ------------------------------------------------------------------
    def evaluate(
        self,
        pi_values: dict[int, int],
        latch_values: dict[int, int] | None = None,
        width: int = 1,
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Simulate the combinational portion once, bit-parallel.

        Args:
            pi_values: node -> packed value (``width`` simulation bits).
            latch_values: latch node -> packed current state (defaults
                to each latch's reset value replicated).
            width: number of parallel simulation patterns.

        Returns:
            ``(po_values, latch_next_values)`` keyed by name.
        """
        mask = (1 << width) - 1
        values = [0] * len(self._nodes)
        for node in self._pis:
            values[node] = pi_values.get(node, 0) & mask
        for latch in self._latches:
            if latch_values is not None and latch.node in latch_values:
                values[latch.node] = latch_values[latch.node] & mask
            else:
                values[latch.node] = mask if latch.reset_value else 0

        def lit_value(lit: int) -> int:
            value = values[lit_node(lit)]
            return (value ^ mask) if lit_sign(lit) else value

        for node in self.topo_order():
            f0, f1 = self.fanins(node)
            values[node] = lit_value(f0) & lit_value(f1)

        po_values = {name: lit_value(lit) for name, lit in self._pos}
        next_values = {
            latch.name: lit_value(latch.next_lit) for latch in self._latches
        }
        return po_values, next_values

    # ------------------------------------------------------------------
    # Rebuilding
    # ------------------------------------------------------------------
    def cleanup(self) -> tuple["AIG", dict[int, int]]:
        """Copy the graph keeping only logic reachable from outputs.

        Returns the compacted AIG and a literal translation map
        ``old_literal -> new_literal`` (defined for every node that
        survived, in positive polarity).
        """
        new = AIG()
        lit_map: dict[int, int] = {CONST0: CONST0}
        for node, name in zip(self._pis, self._pi_names):
            lit_map[node << 1] = new.add_pi(name)
        for latch in self._latches:
            lit_map[latch.node << 1] = new.add_latch(
                latch.name, latch.reset_kind, latch.reset_value
            )

        def translate(lit: int) -> int:
            base = lit_map[lit & ~1]
            return base ^ (lit & 1)

        for node in self.topo_order():
            f0, f1 = self.fanins(node)
            lit_map[node << 1] = new.and_(translate(f0), translate(f1))
        for name, lit in self._pos:
            new.add_po(name, translate(lit))
        for old_latch, new_latch in zip(self._latches, new._latches):
            new.set_latch_next(new_latch.node << 1, translate(old_latch.next_lit))
        return new, lit_map

    def canonical_hash(self) -> str:
        """Content hash of the observable graph, stable across
        processes and interpreter runs.

        Nodes are renumbered canonically -- constant, PIs and latches
        in creation order, then reachable AND nodes in topological
        order -- so the digest depends only on names, reset behaviour,
        and the structure of the output cones, never on raw node ids
        or dead (unreachable) logic.  This is the module/graph half of
        the compile-cache fingerprint (see :mod:`repro.flow.cache`).
        """
        renumber: dict[int, int] = {0: 0}
        for node in self._pis:
            renumber[node] = len(renumber)
        for latch in self._latches:
            renumber[latch.node] = len(renumber)
        order = self.topo_order()
        for node in order:
            renumber[node] = len(renumber)

        def canon_lit(lit: int) -> int:
            return (renumber[lit_node(lit)] << 1) | (lit & 1)

        digest = hashlib.sha256()
        digest.update(repr(("pis", tuple(self._pi_names))).encode())
        for latch in self._latches:
            digest.update(
                repr(
                    (
                        "latch",
                        latch.name,
                        latch.reset_kind,
                        latch.reset_value,
                        canon_lit(latch.next_lit),
                    )
                ).encode()
            )
        for node in order:
            fanin0, fanin1 = self.fanins(node)
            digest.update(
                repr(("and", canon_lit(fanin0), canon_lit(fanin1))).encode()
            )
        for name, lit in self._pos:
            digest.update(repr(("po", name, canon_lit(lit))).encode())
        return digest.hexdigest()

    def stats(self) -> str:
        return (
            f"AIG: pi={len(self._pis)} po={len(self._pos)} "
            f"latch={len(self._latches)} and={self.num_ands} "
            f"depth={self.depth()}"
        )

    def __repr__(self) -> str:  # pragma: no cover - diagnostic only
        return f"<{self.stats()}>"
