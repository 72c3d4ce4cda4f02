"""Shared helpers for driving AIGs in tests."""

from repro.aig import cuts, kernel
from repro.aig.graph import AIG, lit_node, lit_sign
from repro.tech import mapper


def make_word(aig: AIG, name: str, width: int) -> list[int]:
    """Create ``width`` primary inputs named ``name[0]..``, LSB first.

    Uses the same ``name[i]`` bit-naming convention as the elaborator,
    so helpers that locate buses by name work on hand-built AIGs too.
    """
    return [aig.add_pi(f"{name}[{i}]") for i in range(width)]


def pi_assign(word: list[int], value: int) -> dict[int, int]:
    """Map the PI nodes of ``word`` to the bits of ``value``."""
    return {lit_node(lit): (value >> i) & 1 for i, lit in enumerate(word)}


def eval_lits(aig: AIG, lits: list[int], pi_values: dict[int, int]) -> int:
    """Evaluate arbitrary literals as a word without mutating the AIG."""
    mask = 1
    values = [0] * aig.num_nodes
    for node in aig.pis:
        values[node] = pi_values.get(node, 0) & mask
    for latch in aig.latches:
        values[latch.node] = latch.reset_value

    def lit_value(lit: int) -> int:
        value = values[lit_node(lit)]
        return value ^ 1 if lit_sign(lit) else value

    for node in aig.topo_order(roots=[lit for lit in lits if lit > 1]):
        f0, f1 = aig.fanins(node)
        values[node] = lit_value(f0) & lit_value(f1)

    result = 0
    for index, lit in enumerate(lits):
        if lit_value(lit):
            result |= 1 << index
    return result


def clear_process_memos() -> None:
    """Empty every process-wide kernel memo: ISOP covers, cut
    expansion, cut sets, support reduction, NPN orbits and match
    tables."""
    for memo in (
        kernel.isop_memo,
        kernel.expansion_memo,
        cuts.cut_set_memo,
        mapper.support_reduction,
        mapper._orbit,
        mapper._index_map,
    ):
        memo.cache_clear()
    mapper._match_table_cache.clear()
