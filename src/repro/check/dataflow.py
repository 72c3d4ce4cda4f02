"""Abstract-interpretation dataflow engine over controller IRs.

The structural linters (:mod:`repro.check.irlint`) walk graphs; this
module *interprets* them: a generic worklist fixpoint solver
(:func:`solve`) over pluggable lattices, instantiated four ways:

* **predicate-aware FSM reachability** -- symbolic input conditions
  propagated through transitions.  Strictly stronger than CHK201/202's
  edge-existence walk: a state every edge can reach but no *allowed
  input* can reach is CHK701, and a cube-form transition guard no
  allowed input satisfies -- discharged via :mod:`repro.sat` -- is
  CHK702.
* **constant/interval propagation over microcode** -- reachability of
  :class:`~repro.controllers.assembler.AssembledProgram` addresses
  through the sequencer, then per-field constant folding over the
  reachable control words: CHK703 (a BRANCH whose taken and
  fall-through targets coincide), CHK704 (a control field holding one
  value at every reachable address), CHK705 (a dispatch table wired to
  a sequencer that never dispatches).
* **liveness on AIGs and mapped netlists** -- the CHK402/CHK503 walks
  root at *all* outputs including every latch next; the liveness
  fixpoint here roots at primary outputs only and adds a latch's next
  cone when (and only when) its output is observed, so self-sustaining
  but output-independent cones are found: CHK706.
* **pass-effect contracts** -- declared :class:`~repro.flow.schema.
  PassSchema` effects checked pipeline-wide by
  :func:`repro.check.spec.check_manager` (CHK710 lives there; the
  freshness lattice is this module's smallest instantiation).

Findings are warnings: a semantically unreachable state is exactly the
don't-care :mod:`repro.check.facts` feeds to the optimizer, so shipping
one is an opportunity, not a bug.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.check.diagnostics import Diagnostic


# ---------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------
class Lattice:
    """A join-semilattice: the value domain of one analysis.

    Subclasses provide ``bottom``/``top`` elements and the
    ``join``/``leq`` operations; :func:`solve` only ever calls these
    four, so any domain with a finite ascending-chain height plugs in.
    """

    def bottom(self):
        raise NotImplementedError

    def top(self):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        raise NotImplementedError


class BoolLattice(Lattice):
    """Reachability: ``False`` (bottom, unreachable) below ``True``."""

    def bottom(self):
        return False

    def top(self):
        return True

    def join(self, a, b):
        return a or b

    def leq(self, a, b) -> bool:
        return (not a) or b


#: Bottom/top sentinels of :class:`ConstLattice` (``repr``-stable so
#: they can appear in messages).
CONST_BOTTOM = "<bottom>"
CONST_TOP = "<top>"


class ConstLattice(Lattice):
    """Constant propagation: bottom below every concrete value below
    top; two distinct values join to top."""

    def bottom(self):
        return CONST_BOTTOM

    def top(self):
        return CONST_TOP

    def join(self, a, b):
        if a == CONST_BOTTOM:
            return b
        if b == CONST_BOTTOM:
            return a
        if a == b:
            return a
        return CONST_TOP

    def leq(self, a, b) -> bool:
        return a == CONST_BOTTOM or b == CONST_TOP or a == b


class IntervalLattice(Lattice):
    """Integer intervals ``(lo, hi)``; ``None`` is bottom.  ``width``
    bounds the domain, making top ``(0, 2**width - 1)`` and chains
    finite without widening."""

    def __init__(self, width: int) -> None:
        self.width = width

    def bottom(self):
        return None

    def top(self):
        return (0, (1 << self.width) - 1)

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return (min(a[0], b[0]), max(a[1], b[1]))

    def leq(self, a, b) -> bool:
        if a is None:
            return True
        if b is None:
            return False
        return b[0] <= a[0] and a[1] <= b[1]


#: An edge transfer function: input fact in, output fact out.
TransferFunction = Callable[[object], object]


def solve(
    successors: "Callable[[object], Iterable]",
    entries: dict,
    lattice: Lattice,
) -> dict:
    """Worklist fixpoint: propagate ``entries`` facts forward until
    stable.

    Args:
        successors: ``node -> iterable of (succ, transfer)`` where
            ``transfer`` is a :data:`TransferFunction` or ``None``
            (identity).  Nodes never yielded and never seeded stay at
            bottom (absent from the result).
        entries: seed facts, ``{node: fact}``.
        lattice: the value domain.

    Returns:
        ``{node: fact}`` at the least fixpoint over all nodes reached.
    """
    facts = dict(entries)
    worklist = deque(entries)
    while worklist:
        node = worklist.popleft()
        fact = facts[node]
        for succ, transfer in successors(node):
            out = fact if transfer is None else transfer(fact)
            old = facts.get(succ)
            new = out if old is None else lattice.join(old, out)
            if old is None or not lattice.leq(new, old):
                facts[succ] = new
                worklist.append(succ)
    return facts


def fold(lattice: Lattice, values: Iterable):
    """Join an iterable of facts (bottom when empty)."""
    result = lattice.bottom()
    for value in values:
        result = lattice.join(result, value)
    return result


# ---------------------------------------------------------------------
# FSM reachability under input predicates
# ---------------------------------------------------------------------
def _cube_matches(cube: str, word: int) -> bool:
    bits = len(cube)
    for position in range(bits):
        want = cube[bits - 1 - position]  # cube[0] is the MSB
        if want != "-" and int(want) != (word >> position) & 1:
            return False
    return True


def allowed_input_words(
    num_inputs: int, allowed_inputs=None
) -> "list[int]":
    """The concrete input words an input predicate admits.

    ``allowed_inputs`` is ``None`` (everything), an iterable of words,
    or an iterable of cube strings over ``0``/``1``/``-`` (MSB first,
    ``num_inputs`` long).  Mixing words and cubes is fine.
    """
    if allowed_inputs is None:
        return list(range(1 << num_inputs))
    cubes = []
    words: set[int] = set()
    for item in allowed_inputs:
        if isinstance(item, str):
            if len(item) != num_inputs or any(c not in "01-" for c in item):
                raise ValueError(
                    f"cube {item!r} is not a {num_inputs}-bit pattern "
                    f"over 0/1/-"
                )
            cubes.append(item)
        else:
            words.add(int(item))
    if cubes:
        for word in range(1 << num_inputs):
            if any(_cube_matches(cube, word) for cube in cubes):
                words.add(word)
    return sorted(words)


def fsm_reachable_states(spec, allowed_inputs=None) -> "set[int]":
    """States of an :class:`~repro.controllers.fsm.FsmSpec` reachable
    from reset when inputs are confined to ``allowed_inputs`` (see
    :func:`allowed_input_words`).  With no predicate this coincides
    with ``spec.reachable_states()``; a predicate makes it strictly
    stronger."""
    words = allowed_input_words(spec.num_inputs, allowed_inputs)

    def successors(state):
        return [
            (spec.next_state[state][word], None) for word in words
        ]

    lattice = BoolLattice()
    facts = solve(successors, {spec.reset_state: True}, lattice)
    return {state for state, fact in facts.items() if fact}


def analyze_fsm(spec, allowed_inputs=None) -> "list[Diagnostic]":
    """CHK701: states no *allowed* input sequence reaches from reset.

    The edge-existence walk (CHK201) asks "does a transition arrive
    here"; this asks "does a transition arrive here under the declared
    input predicate", which is what the Manual flow's mode pinning
    actually guarantees.
    """
    diagnostics: list[Diagnostic] = []
    where = f"fsm {spec.name!r}"
    reachable = fsm_reachable_states(spec, allowed_inputs)
    constrained = allowed_inputs is not None
    for state in range(spec.num_states):
        if state in reachable:
            continue
        qualifier = (
            "under the declared input predicate " if constrained else ""
        )
        diagnostics.append(
            Diagnostic(
                "CHK701",
                "warning",
                f"{where} state {state}",
                f"state {state} is semantically unreachable "
                f"{qualifier}from reset state {spec.reset_state}",
                suggestion=(
                    "attach the proven reachable set as a fact sheet "
                    "so fsm_encode and dc_rewrite can exploit it"
                ),
            )
        )
    return diagnostics


def _cube_assumptions(cube: str, input_vars) -> "list[int]":
    """SAT assumptions asserting ``cube`` over ``input_vars`` (var of
    bit 0 first; ``cube[0]`` is the MSB)."""
    bits = len(cube)
    assumptions = []
    for position in range(bits):
        want = cube[bits - 1 - position]
        if want == "-":
            continue
        var = input_vars[position]
        assumptions.append(var if want == "1" else -var)
    return assumptions


def analyze_guards(
    num_states: int,
    num_input_bits: int,
    rows,
    reset_state: int = 0,
    allowed_cubes=None,
) -> "list[Diagnostic]":
    """Predicate-aware analysis of a sparse cube-form transition table
    (the format of :func:`repro.check.irlint.lint_transitions`).

    Emits CHK702 for rows whose guard cube no allowed input satisfies
    -- each discharged by :mod:`repro.sat` (the guard is asserted as
    assumptions against the allowed-cube disjunction; UNSAT is the
    proof) -- and CHK701 for states unreachable from ``reset_state``
    once unsatisfiable guards are deleted.
    """
    from repro.sat.solver import Solver

    diagnostics: list[Diagnostic] = []
    solver = Solver()
    input_vars = [solver.new_var() for _ in range(num_input_bits)]
    if allowed_cubes is not None:
        selectors = []
        for cube in allowed_cubes:
            if len(cube) != num_input_bits or any(
                c not in "01-" for c in cube
            ):
                raise ValueError(
                    f"cube {cube!r} is not a {num_input_bits}-bit "
                    f"pattern over 0/1/-"
                )
            member = solver.new_var()
            for literal in _cube_assumptions(cube, input_vars):
                solver.add_clause([-member, literal])
            selectors.append(member)
        solver.add_clause(selectors or [])

    satisfiable: list[tuple[int, str, int]] = []
    for index, (state, cube, target) in enumerate(rows):
        if solver.solve(_cube_assumptions(cube, input_vars)):
            satisfiable.append((state, cube, target))
            continue
        diagnostics.append(
            Diagnostic(
                "CHK702",
                "warning",
                f"state {state} row {index}",
                f"guard {cube!r} is unsatisfiable under the allowed "
                f"input cubes (UNSAT)",
                suggestion="delete the row; it can never fire",
            )
        )

    edges: dict[int, list] = {}
    for state, _, target in satisfiable:
        edges.setdefault(state, []).append((target, None))
    facts = solve(
        lambda node: edges.get(node, []), {reset_state: True}, BoolLattice()
    )
    for state in range(num_states):
        if facts.get(state):
            continue
        diagnostics.append(
            Diagnostic(
                "CHK701",
                "warning",
                f"state {state}",
                f"state {state} is semantically unreachable from reset "
                f"state {reset_state} (all paths go through "
                f"unsatisfiable guards)",
            )
        )
    return diagnostics


# ---------------------------------------------------------------------
# Microcode reachability + constant propagation
# ---------------------------------------------------------------------
def microcode_reachable(
    program, entry_labels=None, opcodes=None
) -> "set[int]":
    """Reachable addresses of an ``AssembledProgram`` via the worklist
    solver.  Byte-identical results to
    ``program.reachable_addresses()`` (the CHK304 walk this engine
    replaces), including the ``KeyError`` on undefined entry or
    dispatch labels."""
    from repro.controllers.microcode import SeqOp

    length = program.length
    depth = program.depth
    starts = {0}
    if entry_labels:
        starts = {program.labels[name] for name in entry_labels}
    dispatch_targets: set[int] = set()
    if program.dispatch is not None:
        dispatch_targets = program.dispatch.targets(program.labels, opcodes)

    def successors(addr):
        seq_op, _, target = program.seq_words[addr]
        succ: set[int] = set()
        if seq_op == SeqOp.NEXT:
            succ.add((addr + 1) % depth)
        elif seq_op == SeqOp.JUMP:
            succ.add(target)
        elif seq_op == SeqOp.BRANCH:
            succ.add(target)
            succ.add((addr + 1) % depth)
        elif seq_op == SeqOp.DISPATCH:
            succ |= dispatch_targets
        return [(s, None) for s in succ if s < length]

    entries = {addr: True for addr in starts if addr < length}
    facts = solve(successors, entries, BoolLattice())
    return {addr for addr, fact in facts.items() if fact}


def analyze_microcode(
    program, entry_labels=None, opcodes=None
) -> "list[Diagnostic]":
    """Constant/interval propagation over an ``AssembledProgram``.

    * CHK703 -- a reachable BRANCH whose taken target equals its
      fall-through: the condition is read but cannot matter.
    * CHK704 -- a control field that decodes to one value at every
      reachable address (the downstream register is provably constant).
    * CHK705 -- a dispatch table wired into the image while no
      reachable instruction dispatches: every target is dead.

    Undefined labels make reachability meaningless; those programs are
    skipped here (CHK305 already reports them).
    """
    from repro.controllers.microcode import SeqOp

    try:
        reachable = microcode_reachable(program, entry_labels, opcodes)
    except KeyError:
        return []
    diagnostics: list[Diagnostic] = []
    length = program.length
    depth = program.depth

    for addr in sorted(reachable):
        seq_op, _, target = program.seq_words[addr]
        if seq_op == SeqOp.BRANCH and target == (addr + 1) % depth:
            diagnostics.append(
                Diagnostic(
                    "CHK703",
                    "warning",
                    f"addr {addr}",
                    f"branch at address {addr} is dead: taken target "
                    f"{target} equals the fall-through",
                    suggestion="replace the BRANCH with NEXT",
                )
            )

    if len(reachable) >= 2:
        lattice = ConstLattice()
        for field in program.format.fields:
            value = fold(
                lattice,
                (
                    program.format.unpack(program.control_words[addr])[
                        field.name
                    ]
                    for addr in sorted(reachable)
                ),
            )
            if value in (CONST_BOTTOM, CONST_TOP):
                continue
            diagnostics.append(
                Diagnostic(
                    "CHK704",
                    "warning",
                    f"field {field.name!r}",
                    f"control field {field.name!r} decodes to "
                    f"{value!r} at every reachable address",
                    suggestion=(
                        "the downstream register is constant; tie it "
                        "off or let dc_rewrite consume the fact"
                    ),
                )
            )

    if program.dispatch is not None and not any(
        program.seq_words[addr][0] == SeqOp.DISPATCH
        for addr in reachable
    ):
        diagnostics.append(
            Diagnostic(
                "CHK705",
                "warning",
                f"dispatch {program.dispatch.name!r}",
                f"dispatch table {program.dispatch.name!r} is wired "
                f"but no reachable instruction dispatches; none of its "
                f"targets can be taken",
            )
        )
    return diagnostics


# ---------------------------------------------------------------------
# Liveness on AIGs and mapped netlists
# ---------------------------------------------------------------------
def analyze_aig(aig) -> "list[Diagnostic]":
    """CHK706: logic cones no primary output depends on.

    Reports AND nodes and latches outside every primary-output cone
    under the liveness fixpoint of :meth:`~repro.aig.graph.AIG.live_nodes`
    -- strictly stronger than CHK402's dangling-node walk, which keeps
    any cone a latch next references even when the latch itself is
    unobservable.
    """
    live = aig.live_nodes()
    dead_latches = [
        latch.name for latch in aig.latches if latch.node not in live
    ]
    dead_ands = [
        node
        for node in range(1, aig.num_nodes)
        if aig.is_and(node) and node not in live
    ]
    if not dead_latches and not dead_ands:
        return []
    parts = []
    if dead_ands:
        shown = ", ".join(str(n) for n in dead_ands[:6])
        more = "" if len(dead_ands) <= 6 else ", ..."
        parts.append(f"nodes {shown}{more}")
    if dead_latches:
        shown = ", ".join(repr(n) for n in dead_latches[:4])
        more = "" if len(dead_latches) <= 4 else ", ..."
        parts.append(f"latches {shown}{more}")
    return [
        Diagnostic(
            "CHK706",
            "warning",
            "; ".join(parts),
            f"{len(dead_ands)} AND node(s) and {len(dead_latches)} "
            f"latch(es) influence no primary output",
            suggestion=(
                "the cone is an observability don't-care; sweep it or "
                "let dc_rewrite absorb it"
            ),
        )
    ]


def analyze_netlist(netlist) -> "list[Diagnostic]":
    """CHK706 on a mapped netlist: instances and flops outside every
    primary-output cone (a flop's data cone counts only when its Q net
    is itself observed)."""
    producer = {inst.output: inst for inst in netlist.instances}
    flop_by_q = {flop.q_net: flop for flop in netlist.flops}

    def successors(net):
        succ = []
        inst = producer.get(net)
        if inst is not None:
            succ.extend((source, None) for source in inst.inputs)
        flop = flop_by_q.get(net)
        if flop is not None:
            succ.append((flop.d_net, None))
        return succ

    entries = {net: True for net in netlist.po_nets.values()}
    facts = solve(successors, entries, BoolLattice())
    live = {net for net, fact in facts.items() if fact}

    dead_instances = [
        index
        for index, inst in enumerate(netlist.instances)
        if inst.output not in live
    ]
    dead_flops = [
        flop.name for flop in netlist.flops if flop.q_net not in live
    ]
    if not dead_instances and not dead_flops:
        return []
    parts = []
    if dead_instances:
        shown = ", ".join(str(i) for i in dead_instances[:6])
        more = "" if len(dead_instances) <= 6 else ", ..."
        parts.append(f"instances {shown}{more}")
    if dead_flops:
        shown = ", ".join(repr(n) for n in dead_flops[:4])
        more = "" if len(dead_flops) <= 4 else ", ..."
        parts.append(f"flops {shown}{more}")
    return [
        Diagnostic(
            "CHK706",
            "warning",
            "; ".join(parts),
            f"{len(dead_instances)} instance(s) and {len(dead_flops)} "
            f"flop(s) influence no primary output",
            suggestion="dead after mapping; re-run the sweep passes",
        )
    ]


# ---------------------------------------------------------------------
# Dispatch on the ControllerIR kind
# ---------------------------------------------------------------------
def analyze_ir(ir, allowed_inputs=None) -> "list[Diagnostic]":
    """Run the dataflow analyses matching an IR's ``kind`` tag (the
    :func:`repro.check.irlint.lint_ir` idiom)."""
    kind = str(ir.ir_stats()["kind"])
    if kind == "fsm":
        return analyze_fsm(ir, allowed_inputs)
    if kind == "program":
        try:
            assembled = ir.assemble()
        except (ValueError, KeyError):
            return []  # CHK300 territory
        return analyze_microcode(assembled)
    if kind == "microcode":
        return analyze_microcode(ir)
    return []
