"""Unit tests for sequential sweeping (stuck/dead register removal)."""

from repro.aig.graph import AIG, CONST0, CONST1
from repro.synth.sweep import seq_sweep


def test_self_loop_latch_becomes_constant():
    aig = AIG()
    a = aig.add_pi("a")
    q = aig.add_latch("q", reset_kind="sync", reset_value=1)
    aig.set_latch_next(q, q)  # never changes
    aig.add_po("o", aig.and_(q, a))
    swept, removed = seq_sweep(aig)
    assert removed == 1
    assert len(swept.latches) == 0
    # q was stuck at 1, so o == a.
    assert swept.pos[0][1] == swept.pis[0] << 1


def test_reset_constant_feedback_is_stuck():
    aig = AIG()
    a = aig.add_pi("a")
    q = aig.add_latch("q", reset_value=0)
    aig.set_latch_next(q, CONST0)  # driven with its own reset value
    aig.add_po("o", aig.or_(q, a))
    swept, removed = seq_sweep(aig)
    assert removed == 1
    assert swept.pos[0][1] == swept.pis[0] << 1


def test_constant_different_from_reset_is_not_stuck():
    aig = AIG()
    q = aig.add_latch("q", reset_value=0)
    aig.set_latch_next(q, CONST1)  # becomes 1 after one cycle
    aig.add_po("o", q)
    swept, removed = seq_sweep(aig)
    assert removed == 0
    assert len(swept.latches) == 1


def test_dead_latch_removed():
    aig = AIG()
    a = aig.add_pi("a")
    q = aig.add_latch("q")
    aig.set_latch_next(q, aig.xor(q, a))  # toggling but unobserved
    aig.add_po("o", a)
    swept, removed = seq_sweep(aig)
    assert removed == 1
    assert len(swept.latches) == 0


def test_live_latch_kept():
    aig = AIG()
    a = aig.add_pi("a")
    q = aig.add_latch("q")
    aig.set_latch_next(q, aig.xor(q, a))
    aig.add_po("o", q)
    swept, removed = seq_sweep(aig)
    assert removed == 0
    assert len(swept.latches) == 1


def test_chain_of_dead_latches_collapses():
    """Killing a stuck latch strands its upstream pipeline stage."""
    aig = AIG()
    a = aig.add_pi("a")
    stage1 = aig.add_latch("s1")
    stage2 = aig.add_latch("s2")
    aig.set_latch_next(stage1, a)
    aig.set_latch_next(stage2, stage2)  # stuck
    # stage1 only feeds logic that also needs stage2 (stuck at 0).
    aig.add_po("o", aig.and_(stage1, stage2))
    swept, removed = seq_sweep(aig)
    assert removed == 2
    assert len(swept.latches) == 0
    assert swept.pos[0][1] == 0  # and with stuck-0 folds away


def test_mutually_live_latches_survive():
    aig = AIG()
    a = aig.add_pi("a")
    p = aig.add_latch("p")
    q = aig.add_latch("q")
    aig.set_latch_next(p, q)
    aig.set_latch_next(q, aig.xor(p, a))
    aig.add_po("o", p)
    swept, removed = seq_sweep(aig)
    assert removed == 0
    assert len(swept.latches) == 2


def test_unobserved_cycle_removed():
    aig = AIG()
    a = aig.add_pi("a")
    p = aig.add_latch("p")
    q = aig.add_latch("q")
    aig.set_latch_next(p, q)
    aig.set_latch_next(q, aig.xor(p, a))
    aig.add_po("o", a)
    swept, removed = seq_sweep(aig)
    assert removed == 2


def test_pipeline_live_only_through_next_cones():
    """r reaches the output only through q's and then p's next-state
    cones; the stuck latch s in the output cone is removed without
    stranding the pipeline."""
    aig = AIG()
    a = aig.add_pi("a")
    p = aig.add_latch("p")
    q = aig.add_latch("q")
    r = aig.add_latch("r")
    s = aig.add_latch("s")
    aig.set_latch_next(r, a)
    aig.set_latch_next(q, aig.xor(r, a))
    aig.set_latch_next(p, q)
    aig.set_latch_next(s, s)  # stuck at 0
    aig.add_po("o", aig.or_(p, s))
    swept, removed = seq_sweep(aig)
    assert removed == 1
    assert [latch.name for latch in swept.latches] == ["p", "q", "r"]
