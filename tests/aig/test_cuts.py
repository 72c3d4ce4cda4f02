"""Cut enumeration and the process-wide cut-set memo.

A memoized cut set must equal a fresh enumeration node by node, from a
cold or a warm memo; graphs that differ only in node numbering or dead
nodes must never share an entry; and the memo must stay within its
node bound.  The signature-filtered merge must keep exactly the cuts
the plain set-based merge keeps.
"""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import cuts
from repro.aig.cuts import CUT_MEMO_NODES, Cut, CutSet, enumerate_cuts
from repro.aig.graph import AIG, lit_node, lit_sign
from repro.aig.kernel import resolve_backend
from repro.tables.bits import all_ones


@pytest.fixture(autouse=True)
def cold_memo():
    cuts.cut_set_memo.cache_clear()
    yield
    cuts.cut_set_memo.cache_clear()


def random_aig(seed, num_inputs=6, num_nodes=50, dead=0):
    rng = random.Random(seed)
    aig = AIG()
    pool = [aig.add_pi(f"x[{i}]") for i in range(num_inputs)]
    for _ in range(dead):
        aig.and_(rng.choice(pool), rng.choice(pool) ^ 1)  # never used
    if rng.random() < 0.5:
        q = aig.add_latch("q")
        pool.append(q)
    else:
        q = None
    for _ in range(num_nodes):
        a = rng.choice(pool) ^ rng.randint(0, 1)
        b = rng.choice(pool) ^ rng.randint(0, 1)
        pool.append(aig.and_(a, b))
    for index in range(4):
        aig.add_po(f"f{index}", rng.choice(pool) ^ rng.randint(0, 1))
    if q is not None:
        aig.set_latch_next(q, rng.choice(pool) ^ rng.randint(0, 1))
    return aig


def reference_cuts(aig, k, max_cuts):
    """The plain priority-cuts merge: set unions, every merged table,
    then sort, drop dominated cuts and truncate."""
    kernel = resolve_backend()
    result = {source: [Cut((source,), 0b10)] for source in aig.combinational_inputs()}
    result[0] = [Cut((), 0)]
    for node in aig.topo_order():
        f0, f1 = aig.fanins(node)
        merged = {}
        for cut0 in result[lit_node(f0)]:
            for cut1 in result[lit_node(f1)]:
                leaves = tuple(sorted(set(cut0.leaves) | set(cut1.leaves)))
                if len(leaves) > k or leaves in merged:
                    continue
                table0 = kernel.expand_cut(cut0.table, cut0.leaves, leaves)
                table1 = kernel.expand_cut(cut1.table, cut1.leaves, leaves)
                universe = all_ones(len(leaves))
                if lit_sign(f0):
                    table0 ^= universe
                if lit_sign(f1):
                    table1 ^= universe
                merged[leaves] = Cut(leaves, table0 & table1)
        kept = []
        for cut in sorted(merged.values(), key=lambda c: (c.size, c.leaves)):
            if not any(set(other.leaves) <= set(cut.leaves) for other in kept):
                kept.append(cut)
        result[node] = kept[:max_cuts] + [Cut((node,), 0b10)]
    return {node: tuple(node_cuts) for node, node_cuts in result.items()}


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=2, max_value=6),
    max_cuts=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=60, deadline=None)
def test_memoized_cut_sets_equal_a_fresh_enumeration(seed, k, max_cuts):
    aig = random_aig(seed, dead=seed % 3)
    fresh = CutSet(aig, k=k, max_cuts=max_cuts).cuts
    assert fresh == reference_cuts(aig, k, max_cuts)
    cuts.cut_set_memo.cache_clear()
    cold = enumerate_cuts(aig, k=k, max_cuts=max_cuts)
    for other in range(3):
        enumerate_cuts(random_aig(seed + 1 + other), k=k, max_cuts=max_cuts)
    warm = enumerate_cuts(aig, k=k, max_cuts=max_cuts)
    assert warm is cold
    assert warm.cuts == fresh
    assert all(isinstance(node_cuts, tuple) for node_cuts in warm.cuts.values())


def three_input_and(order):
    """``(a & b) & c`` with the PIs and ANDs created in ``order``."""
    aig = AIG()
    lits = {}
    for step in order:
        if step == "ab":
            lits["ab"] = aig.and_(lits["a"], lits["b"])
        elif step == "top":
            lits["top"] = aig.and_(lits["ab"], lits["c"])
        elif step == "dead":
            aig.and_(lits["a"], lits["c"] ^ 1)
        else:
            lits[step] = aig.add_pi(step)
    aig.add_po("f", lits["top"])
    return aig


def test_graphs_equal_up_to_numbering_or_dead_nodes_get_their_own_cuts():
    graphs = [
        three_input_and(["a", "b", "c", "ab", "top"]),
        # The live ANDs renumbered by a dead node created before them.
        three_input_and(["a", "b", "c", "dead", "ab", "top"]),
        # The same ids as the first graph, plus a dead node.
        three_input_and(["a", "b", "c", "ab", "top", "dead"]),
    ]
    assert len({aig.canonical_hash() for aig in graphs}) == 1
    assert len({aig.structure_key() for aig in graphs}) == 3
    results = [enumerate_cuts(aig, k=4, max_cuts=6) for aig in graphs]
    assert len(cuts.cut_set_memo) == 3
    for aig, cut_set in zip(graphs, results):
        assert cut_set.cuts == CutSet(aig, k=4, max_cuts=6).cuts
        assert set(cut_set.cuts) == {0, *aig.pis, *aig.topo_order()}
    # Different k or max_cuts on the same graph are distinct entries.
    narrow = enumerate_cuts(graphs[0], k=2, max_cuts=6)
    assert narrow.cuts == CutSet(graphs[0], k=2, max_cuts=6).cuts
    assert narrow.cuts != results[0].cuts
    assert len(cuts.cut_set_memo) == 4


def test_memo_stays_within_its_node_bound(monkeypatch):
    memo = cuts._CutSetMemo(max_nodes=200)
    monkeypatch.setattr(cuts, "cut_set_memo", memo)
    graphs = [random_aig(seed, num_nodes=40) for seed in range(12)]
    for aig in graphs + graphs[:4]:
        assert enumerate_cuts(aig).cuts == CutSet(aig).cuts
        assert memo.held_nodes <= memo.max_nodes
        assert memo.held_nodes == sum(
            nodes for _, nodes in memo._entries.values()
        )
    assert len(memo) >= 1

    # A graph over the bound is enumerated correctly but not kept.
    big = random_aig(99, num_nodes=250)
    assert big.num_nodes > memo.max_nodes
    held = dict(memo._entries)
    assert enumerate_cuts(big).cuts == CutSet(big).cuts
    assert memo._entries == held


def test_module_bound_keeps_small_graphs_and_skips_large_ones():
    small = random_aig(1)
    enumerate_cuts(small)
    assert cuts.cut_set_memo.held_nodes == small.num_nodes
    large = random_aig(2, num_inputs=16, num_nodes=CUT_MEMO_NODES + 200)
    assert large.num_nodes > CUT_MEMO_NODES
    enumerate_cuts(large)
    assert len(cuts.cut_set_memo) == 1
    assert cuts.cut_set_memo.held_nodes <= CUT_MEMO_NODES


def test_threads_share_the_memo_safely():
    graphs = [random_aig(seed, num_nodes=80) for seed in range(8)]
    expected = [CutSet(aig, k=4, max_cuts=6).cuts for aig in graphs]
    memo = cuts.cut_set_memo

    def enumerate_all(start):
        return [
            enumerate_cuts(graphs[(start + i) % len(graphs)], k=4, max_cuts=6).cuts
            for i in range(len(graphs))
        ]

    with ThreadPoolExecutor(max_workers=4) as pool:
        for start, got in enumerate(pool.map(enumerate_all, range(8))):
            for i, cut_map in enumerate(got):
                assert cut_map == expected[(start + i) % len(graphs)]
    assert memo.held_nodes <= memo.max_nodes
    assert len(memo) == len(graphs)


def test_cut_size_is_validated():
    aig = random_aig(0)
    for k in (1, 7):
        with pytest.raises(ValueError):
            enumerate_cuts(aig, k=k)
