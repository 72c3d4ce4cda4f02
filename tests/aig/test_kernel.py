"""The process-wide memos of the kernels: ISOP covers, cut
expansion, cut sets, and the mapper's support reduction, NPN orbits
and match tables.

Each memo must return exactly what the unmemoized computation returns,
keep distinct keys apart, stay within its fixed bound, and leave every
pass result unchanged whether it starts cold or warm -- on one thread
or on several sharing the memos.
"""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import kernel, rewrite
from repro.aig.graph import AIG
from repro.aig.kernel import resolve_backend
from repro.tables.bits import all_ones
from repro.tables.isop import isop
from repro.tech import mapper
from repro.tech.mapper import map_aig

from tests.helpers import clear_process_memos


@st.composite
def on_dc_sets(draw):
    num_vars = draw(st.integers(min_value=0, max_value=6))
    universe = all_ones(num_vars)
    on = draw(st.integers(min_value=0, max_value=universe))
    dc = draw(st.integers(min_value=0, max_value=universe)) & ~on
    return on, dc, num_vars


@given(on_dc_sets())
@settings(max_examples=200, deadline=None)
def test_isop_cover_matches_a_fresh_isop(args):
    on, dc, num_vars = args
    cover = resolve_backend().isop_cover(on, dc, num_vars)
    assert isinstance(cover, tuple)
    assert list(cover) == isop(on, dc, num_vars)
    # A second call is a hit and returns the same cover.
    assert resolve_backend().isop_cover(on, dc, num_vars) == cover


@st.composite
def expansions(draw):
    to_leaves = tuple(sorted(draw(
        st.sets(st.integers(min_value=0, max_value=20), max_size=6)
    )))
    from_leaves = tuple(sorted(draw(st.sets(st.sampled_from(to_leaves))))) \
        if to_leaves else ()
    table = draw(st.integers(min_value=0, max_value=all_ones(len(from_leaves))))
    return table, from_leaves, to_leaves


def brute_force_expand(table, from_leaves, to_leaves):
    """Bit ``m`` of the result reads ``table`` at the restriction of
    minterm ``m`` to ``from_leaves``."""
    result = 0
    for minterm in range(1 << len(to_leaves)):
        source = 0
        for from_var, leaf in enumerate(from_leaves):
            if minterm >> to_leaves.index(leaf) & 1:
                source |= 1 << from_var
        if table >> source & 1:
            result |= 1 << minterm
    return result


@given(expansions())
@settings(max_examples=300, deadline=None)
def test_expand_cut_matches_a_minterm_reference(args):
    table, from_leaves, to_leaves = args
    got = resolve_backend().expand_cut(table, from_leaves, to_leaves)
    assert got == brute_force_expand(table, from_leaves, to_leaves)


def test_keys_differing_only_in_num_vars_or_dc_never_share():
    clear_process_memos()
    backend = resolve_backend()
    # x0 over one variable versus the same ON-set over two.
    assert backend.isop_cover(0b10, 0, 1) == tuple(isop(0b10, 0, 1))
    assert backend.isop_cover(0b10, 0, 2) == tuple(isop(0b10, 0, 2))
    assert backend.isop_cover(0b10, 0, 1) != backend.isop_cover(0b10, 0, 2)
    # Minterm 2 alone versus minterm 2 with minterm 3 free.
    assert backend.isop_cover(0b0100, 0, 2) == tuple(isop(0b0100, 0, 2))
    assert backend.isop_cover(0b0100, 0b1000, 2) == tuple(
        isop(0b0100, 0b1000, 2)
    )
    assert backend.isop_cover(0b0100, 0, 2) != backend.isop_cover(
        0b0100, 0b1000, 2
    )
    assert kernel.isop_memo.cache_info().currsize == 4
    # The same table and positions widened to different universes.
    assert backend.expand_cut(0b10, (5,), (5, 7)) == 0b1010
    assert backend.expand_cut(0b10, (5,), (5, 7, 9)) == 0b10101010
    assert kernel.expansion_memo.cache_info().currsize == 2
    assert mapper.support_reduction(0b1010, 2) == ((0,), 0b10)
    # x0 & ~x2 over three variables projects onto (x0, x2).
    assert mapper.support_reduction(0b1010, 3) == ((0, 2), 0b0010)


@pytest.mark.parametrize(
    "memo, key_of",
    [
        (kernel.isop_memo, lambda i: (i, 0, 4)),
        (kernel.expansion_memo, lambda i: (i, (0, 1, 2, 3), 5)),
        (mapper.support_reduction, lambda i: (i, 4)),
    ],
    ids=["isop", "expansion", "reduction"],
)
def test_memos_stay_within_their_bound(memo, key_of):
    bound = memo.cache_info().maxsize
    assert bound is not None
    for index in range(bound + 50):
        memo(*key_of(index))
        assert memo.cache_info().currsize <= bound
    assert memo.cache_info().currsize == bound


def random_aig(seed, num_inputs=6, num_nodes=60):
    rng = random.Random(seed)
    aig = AIG()
    pool = [aig.add_pi(f"x[{i}]") for i in range(num_inputs)]
    for _ in range(num_nodes):
        a = rng.choice(pool) ^ rng.randint(0, 1)
        b = rng.choice(pool) ^ rng.randint(0, 1)
        pool.append(aig.and_(a, b))
    for index in range(4):
        aig.add_po(f"f{index}", rng.choice(pool) ^ rng.randint(0, 1))
    return aig


def netlist_signature(netlist):
    return (
        [(i.cell_name, i.inputs, i.output, i.drive) for i in netlist.instances],
        netlist.pi_nets,
        netlist.po_nets,
        netlist.num_nets,
        netlist.num_ties,
    )


def rewrite_and_map(aig):
    optimized = rewrite(aig)
    return optimized.canonical_hash(), netlist_signature(map_aig(optimized))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_results_do_not_depend_on_memo_state(seed):
    aig = random_aig(seed)
    clear_process_memos()
    cold = rewrite_and_map(aig)
    for other in range(3):
        rewrite_and_map(random_aig(seed + 1 + other))
    warm = rewrite_and_map(aig)
    assert cold == warm


def test_threads_sharing_the_memos_match_serial_results():
    designs = [random_aig(seed, num_inputs=8, num_nodes=150) for seed in range(6)]
    clear_process_memos()
    serial = [rewrite_and_map(aig) for aig in designs]
    clear_process_memos()
    with ThreadPoolExecutor(max_workers=4) as pool:
        # Each design is compiled four times, interleaved, so the
        # threads race on the same memo entries.
        jobs = [
            [pool.submit(rewrite_and_map, designs[(start + i) % len(designs)])
             for i in range(len(designs))]
            for start in range(4)
        ]
        for start, futures in enumerate(jobs):
            for i, future in enumerate(futures):
                assert future.result() == serial[(start + i) % len(designs)]
