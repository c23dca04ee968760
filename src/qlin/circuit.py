"""Algebraic representation of unitary circuits over the gate set {H, P, CNOT}.

A Circuit is an immutable ordered gate sequence on a fixed number of wires;
an empty sequence is the identity. Gates are stored in temporal order, so the
gate appended last is the leftmost factor of the circuit's matrix.

Each gate kind is described once, in its class: the wires it touches, its
validation against an arity, its remapping through a wire vector, its
inverse, its controlled expansion over {H, P, CNOT}, its glyphs for draw, and
its spellings. Its action on amplitudes is written once too, in the kernels
module, which matrix_of and the simulator share. A gate is its spelling,
the tuple (name, *params, *wires): Phase(a, j) is ("P", a, j), so it equals
the plain tuple ("P", a, j), and never a gate of another kind. Every text
form of a gate has that shape: the native line `P <a> <j>`, the QASM
statement `u1(a) q[j]` and the JSON list `["P", a, j]`. The rest of the
package reads these attributes rather than switching on the kind, except
optimise's rewrite rules and the kernels' planner, whose `plan`,
`_fold_one_wire` and `_fold_phase_polynomial` test `gate.name` in five places.

Basis convention: wire 0 is the MOST significant bit of a basis-state index,
so on two wires |10> (wire 0 set) has index 2. Every matrix produced here and
every oracle in the test suite follows this convention.

All operations are pure and circuits are safe to share between threads.
"""
from __future__ import annotations

import functools
import math
import operator
from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    ArityMismatch,
    ArityTooLarge,
    ControlEqualsTarget,
    DuplicateWire,
    NonFiniteAngle,
    NonRealAngle,
    TooManyCells,
    TooManyGates,
    TooManyRounds,
    TooManyShots,
    WireOutOfRange,
)
from .kernels import apply_plan, plan

MATRIX_ARITY_LIMIT = 12

# Most gates the circuit builders (ansatz, qaoa_unitary, qft) may make. A gate
# is a tuple of 56-64 bytes (a P's float 24 more), and 10**6 of them take tens
# of megabytes and about half a second to build, so each builder checks its
# closed-form gate count against this before it draws an angle or builds a gate.
BUILD_GATE_LIMIT = 10**6


# Most cells `draw` may build: a label per wire plus a cell per wire per gate.
# A row costs about 200 bytes even with no gates, so 10**6 cells peak at about
# 200 MB (10**6 empty rows); draw checks its count against this before it
# builds any row.
DRAW_CELL_LIMIT = 10**6


# Most shots one run may draw: `simulate --shots`, or a VQE trajectory's
# rounds * measured terms * samples per term. Shots are read in bounded
# batches, so memory does not grow with the count, but time does: 10**6
# shots of four wires take about 2 s on a 2-core host, so 10**8 take a few
# minutes. Checked before any shot is drawn.
SHOT_LIMIT = 10**8


# Most optimiser rounds a VQE or QAOA trajectory may run (`--k`). Each round
# builds and runs at least one circuit: 10**5 rounds on three wires take
# about a minute on a 2-core host. Checked before the first round.
ROUND_LIMIT = 10**5


def _integer(x) -> bool:
    """Whether x can be a wire or an arity: an int or a numpy integer, but no bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _real(x) -> bool:
    """Whether x can be an angle or a coefficient: an int, a float or a numpy
    integer or float, but no bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _real_angle(x) -> float:
    """x as a float, if `_real` takes it.

    Any other type raises NonRealAngle, and an int past the largest float
    raises NonFiniteAngle; an infinite or nan float is returned as it is.
    """
    if not _real(x):
        raise NonRealAngle(x)
    try:
        return float(x)
    except OverflowError:  # an int past the largest float
        raise NonFiniteAngle(math.inf) from None


def _check_gate_count(count: int) -> None:
    """Raise TooManyGates if a builder's gate count passes BUILD_GATE_LIMIT."""
    if count > BUILD_GATE_LIMIT:
        raise TooManyGates(count, BUILD_GATE_LIMIT)


def _check_shot_count(count: int) -> None:
    """Raise TooManyShots if a run's shot count passes SHOT_LIMIT."""
    if count > SHOT_LIMIT:
        raise TooManyShots(count, SHOT_LIMIT)


def _check_round_count(count: int) -> None:
    """Raise TooManyRounds if a trajectory's round count passes ROUND_LIMIT."""
    if count > ROUND_LIMIT:
        raise TooManyRounds(count, ROUND_LIMIT)


_new = tuple.__new__
_item = operator.itemgetter


class _Gate(tuple):
    """What every gate kind shares; each kind's own facts live in its class.

    A gate is its spelling: the tuple (name, *params, *wires), so
    Phase(a, j) is ("P", a, j). Building one is one tuple.__new__, and its
    equality, hash and immutability are the tuple's. The name tag keeps the
    kinds apart, so no gate equals a gate of another kind, and a gate equals
    the plain tuple of its spelling: Hadamard(0) == ("H", 0). A kind's
    fields are items of the tuple, read through properties, and
    `kind(*params, *wires)` rebuilds a gate from its spelling, as pickle and
    copy do.
    """

    __slots__ = ()
    name: ClassVar[str]  # native and JSON spelling, and the tuple's first item
    qasm: ClassVar[tuple[str, ...]]  # QASM spellings; export_qasm emits the first
    glyphs: ClassVar[tuple[str, ...]]  # draw cell for each touched wire
    n_params: ClassVar[int] = 0
    n_wires: ClassVar[int] = 1
    params: tuple[float, ...] = ()
    wires: tuple[int, ...]

    def __getnewargs__(self) -> tuple:
        return self[1:]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self[1:]))})"

    def check(self, arity: int) -> None:
        """Raise the CircuitError for this gate on `arity` wires, if any."""
        for w in self.wires:
            if type(w) is not int and not _integer(w) or not 0 <= w < arity:
                raise WireOutOfRange(w, arity)

    def remap(self, wires: Sequence[int]) -> GateApp:
        """The same gate with its wire k moved to wires[k]."""
        return type(self)(*self.params, *(wires[w] for w in self.wires))

    def inverse(self) -> GateApp:
        return self

    def controlled(self, ctl: int) -> list[GateApp]:
        """This gate controlled on wire `ctl`, expanded over {H, P, CNOT}."""
        raise NotImplementedError


# Controlled-gate decompositions. All three are exact (no stray global
# phase), so controlled(c) is block-diag(I, matrix_of(c)) to rounding error.
#
# CP(a)  = P(a/2)@t, CNOT, P(-a/2)@t, CNOT, P(a/2)@ctl
# CH     = Ry(pi/4)@t, CNOT, Ry(-pi/4)@t where Ry(r) = e^(-ir/2) P(pi/2) H P(r) H P(-pi/2);
#          the scalar phases of the two Ry blocks cancel.
# CCNOT  = standard T-depth construction over {H, P(+-pi/4), CNOT}.

_QUARTER = math.pi / 4
_HALF = math.pi / 2


def _ry_block(tgt: int, angle: float) -> list[GateApp]:
    return [
        Phase(-_HALF, tgt),
        Hadamard(tgt),
        Phase(angle, tgt),
        Hadamard(tgt),
        Phase(_HALF, tgt),
    ]


def _controlled_phase(half: float, ctl: int, tgt: int) -> tuple[GateApp, ...]:
    """CP(2 * half) with control ctl and target tgt, as the CP line above."""
    return (
        Phase(half, tgt),
        ControlledNot(ctl, tgt),
        Phase(-half, tgt),
        ControlledNot(ctl, tgt),
        Phase(half, ctl),
    )


class Hadamard(_Gate):
    __slots__ = ()
    name = "H"
    qasm = ("h",)
    glyphs = ("H",)
    wire = property(_item(1))
    wires = property(_item(slice(1, 2)))

    def __new__(cls, wire: int):
        return _new(cls, ("H", wire))

    def controlled(self, ctl: int) -> list[GateApp]:
        tgt = self.wire
        return _ry_block(tgt, _QUARTER) + [ControlledNot(ctl, tgt)] + _ry_block(tgt, -_QUARTER)


class Phase(_Gate):
    __slots__ = ()
    name = "P"
    qasm = ("u1", "p")
    glyphs = ("P",)
    n_params = 1
    angle = property(_item(1))
    wire = property(_item(2))
    params = property(_item(slice(1, 2)))
    wires = property(_item(slice(2, 3)))

    def __new__(cls, angle: float, wire: int):
        return _new(cls, ("P", angle, wire))

    def check(self, arity: int) -> None:
        angle = self[1]
        if type(angle) is not float:
            angle = _real_angle(angle)
        if not math.isfinite(angle):
            raise NonFiniteAngle(angle)
        _Gate.check(self, arity)  # not super(), whose lookup costs more than the check

    def inverse(self) -> GateApp:
        return Phase(-self.angle, self.wire)

    def controlled(self, ctl: int) -> list[GateApp]:
        return list(_controlled_phase(self.angle / 2.0, ctl, self.wire))


class ControlledNot(_Gate):
    __slots__ = ()
    name = "CNOT"
    qasm = ("cx",)
    glyphs = ("o", "X")
    n_wires = 2
    control = property(_item(1))
    target = property(_item(2))
    wires = property(_item(slice(1, 3)))

    def __new__(cls, control: int, target: int):
        return _new(cls, ("CNOT", control, target))

    def check(self, arity: int) -> None:
        _Gate.check(self, arity)
        if self.control == self.target:
            raise ControlEqualsTarget(self.control)

    def controlled(self, ctl: int) -> list[GateApp]:
        a, b, t = ctl, self.control, self.target
        return [
            Hadamard(t),
            ControlledNot(b, t),
            Phase(-_QUARTER, t),
            ControlledNot(a, t),
            Phase(_QUARTER, t),
            ControlledNot(b, t),
            Phase(-_QUARTER, t),
            ControlledNot(a, t),
            Phase(_QUARTER, b),
            Phase(_QUARTER, t),
            Hadamard(t),
            ControlledNot(a, b),
            Phase(_QUARTER, a),
            Phase(-_QUARTER, b),
            ControlledNot(a, b),
        ]


GateApp = Hadamard | Phase | ControlledNot
GATE_KINDS = (Hadamard, Phase, ControlledNot)


@dataclass(frozen=True)
class Circuit:
    """An n-wire unitary as an ordered sequence of atomic gate applications.

    Construction validates every gate against the arity, so an existing
    Circuit never holds an out-of-range wire, a wire or arity that is not an
    integer (a bool is not one), a CNOT with control == target or a
    non-finite phase angle. The package's own builders (qft, optimise,
    compose, tensor, apply, adjoint, controlled and the add_* appends) skip
    the re-check through _trusted: their gates come from valid circuits or
    are chosen by them, and the appends check their new gate.
    """

    arity: int
    gates: tuple[GateApp, ...] = ()

    def __post_init__(self):
        if type(self.arity) is not int and not _integer(self.arity) or self.arity < 0:
            raise ArityMismatch(f"arity must be a non-negative integer, got {self.arity!r}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            gate.check(self.arity)

    @staticmethod
    def _trusted(arity: int, gates) -> Circuit:
        """A Circuit of `gates`, each known valid on `arity` wires, built without checks."""
        circuit = object.__new__(Circuit)
        object.__setattr__(circuit, "arity", arity)
        object.__setattr__(circuit, "gates", tuple(gates))
        return circuit

    @functools.cached_property
    def _plan(self) -> tuple:
        """The kernels' fused passes for the gates, planned on first use."""
        return plan(self.gates)


def identity(n: int) -> Circuit:
    """The identity circuit on n wires (no gates)."""
    return Circuit(n)


def _append(c: Circuit, gate: GateApp) -> Circuit:
    gate.check(c.arity)  # c's own gates are valid already
    return Circuit._trusted(c.arity, c.gates + (gate,))


def add_h(c: Circuit, j: int) -> Circuit:
    """Append a Hadamard on wire j."""
    return _append(c, Hadamard(j))


def add_p(c: Circuit, alpha: float, j: int) -> Circuit:
    """Append a phase shift diag(1, e^(i*alpha)) on wire j."""
    return _append(c, Phase(alpha, j))


def add_cnot(c: Circuit, control: int, target: int) -> Circuit:
    """Append a CNOT; flips target exactly when control is 1."""
    return _append(c, ControlledNot(control, target))


def compose(a: Circuit, b: Circuit) -> Circuit:
    """Sequential composition: b runs first, so matrix_of(result) = A . B."""
    if a.arity != b.arity:
        raise ArityMismatch(f"cannot compose arity {a.arity} with arity {b.arity}")
    return Circuit._trusted(a.arity, b.gates + a.gates)


def tensor(a: Circuit, b: Circuit) -> Circuit:
    """Parallel composition with a on the lower-indexed wires: matrix A (x) B."""
    arity = operator.index(a.arity) + operator.index(b.arity)  # exact, where numpy's would wrap
    shifted = range(a.arity, arity)
    return Circuit._trusted(arity, a.gates + tuple(g.remap(shifted) for g in b.gates))


def apply(small: Circuit, big: Circuit, wires: Sequence[int]) -> Circuit:
    """Apply `small` onto `big` so small's wire k acts on big's wires[k].

    The wire vector may hit any selection of big's wires in any order, which
    also permutes small's inputs/outputs. Appends the remapped gates after
    big's, i.e. matrix_of(result) = embed(small, wires) . matrix_of(big).
    """
    wires = list(wires)
    if len(wires) != small.arity:
        raise ArityMismatch(
            f"wire vector has length {len(wires)} but the applied circuit has arity {small.arity}"
        )
    seen: set[int] = set()
    for w in wires:
        if not _integer(w) or not 0 <= w < big.arity:
            raise WireOutOfRange(w, big.arity)
        if w in seen:
            raise DuplicateWire(w)
        seen.add(w)
    return Circuit._trusted(big.arity, big.gates + tuple(g.remap(wires) for g in small.gates))


def adjoint(c: Circuit) -> Circuit:
    """Inverse circuit: reverse the gate list and invert each gate."""
    return Circuit._trusted(c.arity, [g.inverse() for g in reversed(c.gates)])


def controlled(c: Circuit) -> Circuit:
    """Controlled version of c: new control on wire 0, c shifted up by one.

    The matrix equals block-diag(I, matrix_of(c)) exactly; each atomic gate
    is expanded to its controlled form over {H, P, CNOT}.
    """
    up = range(1, operator.index(c.arity) + 1)  # exact, where numpy's would wrap
    return Circuit._trusted(up.stop, [g for gate in c.gates for g in gate.remap(up).controlled(0)])


# A finite float is a whole number of steps of 2**-1074, so optimise keeps each
# merged angle exactly as an integer count of them; one division rounds it.
_STEPS = 2**1074
# A P pair whose exact sum reaches _FINITE is summed again from its angles as
# rounded for output, and stays split only if that sum reaches it too; so the
# split pairs of a result stay split when the result is optimised again.
_FINITE = (2**1024 - 2**970) * _STEPS  # steps from which rounding reaches inf


def _steps(angle: float) -> int:
    if isinstance(angle, np.integer):  # the one angle type with no as_integer_ratio
        angle = int(angle)
    num, den = angle.as_integer_ratio()  # den is a power of two
    return num * (_STEPS // den)


def optimise(c: Circuit) -> Circuit:
    """Peephole cleanup in one pass over the gates.

    Rules: cancel a gate followed by its inverse (H.H, identical CNOTs,
    P(a).P(-a)), merge P(a).P(b) into P(a+b), drop P(0). "Adjacent" is
    per-wire: gates on disjoint wires never block a rule, and a new gate
    meets only the last kept gate on each of its wires. Merged angles are
    summed exactly and rounded once, so the result is its own optimise and,
    within the float range, does not depend on the order of merges; a pair
    whose sum has no finite float stays split. Preserves the matrix (up to
    rounding in merged angles) and never increases the gate count.
    """
    kept: dict[int, GateApp] = {}  # input position -> kept gate, in order
    sums: dict[int, int] = {}  # position of a kept P -> its angle in steps
    stacks: dict[int, list[int]] = defaultdict(lambda: [-1])  # touched wire -> kept positions
    for i, gate in enumerate(c.gates):
        wires = gate.wires
        if not isinstance(gate, Phase):
            top = stacks[wires[0]][-1]
            if kept.get(top) == gate.inverse() and all(stacks[w][-1] == top for w in wires):
                del kept[top]
                for w in wires:
                    stacks[w].pop()
            else:
                kept[i] = gate
                for w in wires:
                    stacks[w].append(i)
        elif gate.angle != 0.0:
            stack = stacks[gate.wire]
            kept[i], sums[i] = gate, _steps(gate.angle)
            stack.append(i)
            while stack[-1] in sums and stack[-2] in sums:  # a P right above a P
                below, top = stack[-2:]
                total = sums[below] + sums[top]
                if abs(total) >= _FINITE:  # past inf: try the rounded angles
                    total = _steps(sums[below] / _STEPS) + _steps(sums[top] / _STEPS)
                    if abs(total) >= _FINITE:  # no finite float, so the pair stays split
                        break
                del kept[top], sums[top], stack[-1]
                sums[below] = total
                if total == 0:
                    del kept[below], sums[below], stack[-1]
    gates = (Phase(sums[i] / _STEPS, g.wire) if i in sums else g for i, g in kept.items())
    return Circuit._trusted(c.arity, gates)


def depth(c: Circuit) -> int:
    """Longest wire-wise dependency chain; a CNOT occupies both its wires."""
    frontier: dict[int, int] = {}  # touched wire -> its chain length; O(gates), not O(arity)
    for gate in c.gates:
        wires = gate.wires
        if len(wires) == 1:  # most gates; read without a generator
            w = wires[0]
            frontier[w] = frontier.get(w, 0) + 1
            continue
        step = 1 + max(frontier.get(w, 0) for w in wires)
        for w in wires:
            frontier[w] = step
    return max(frontier.values(), default=0)


def gate_counts(c: Circuit) -> Counter[str]:
    """Exact gate multiset sizes keyed by kind ("H", "P", "CNOT")."""
    return Counter(gate.name for gate in c.gates)


def matrix_of(c: Circuit) -> np.ndarray:
    """Dense unitary of the circuit; the reference semantics for everything else.

    The circuit's kernel plan runs on the identity in place, with its columns
    as the batch, so column j is U|j>. Cost is O(4^arity) per pass, and the
    matrix itself takes 16 * 4^arity bytes (the plan's buffer half as much),
    so arities above MATRIX_ARITY_LIMIT are rejected before anything is
    allocated.
    """
    n = c.arity
    if n > MATRIX_ARITY_LIMIT:
        raise ArityTooLarge(n, MATRIX_ARITY_LIMIT)
    mat = np.eye(2**n, dtype=complex)
    apply_plan(mat, c._plan, range(n))
    return mat


def draw(c: Circuit) -> str:
    """ASCII rendering, one row per wire, one column per gate in temporal order.

    Raises TooManyCells when arity * (gates + 1) passes DRAW_CELL_LIMIT.
    """
    count = c.arity * (len(c.gates) + 1)
    if count > DRAW_CELL_LIMIT:
        raise TooManyCells(count, DRAW_CELL_LIMIT)
    rows = [[f"q{w}: "] for w in range(c.arity)]
    for gate in c.gates:
        wires = gate.wires
        cells = {w: "-|-" for w in range(min(wires) + 1, max(wires))}
        cells.update((w, f"-{glyph}-") for w, glyph in zip(wires, gate.glyphs))
        for w in range(c.arity):
            rows[w].append(cells.get(w, "---"))
    return "\n".join("".join(row).rstrip() for row in rows)


def format_angle(angle: float) -> str:
    """Deterministic angle serialisation: 15 significant digits.

    Past 1.797693134862315e308 (4 finite doubles of each sign), 15 digits
    round up to infinity, so the shortest exact repr is used there.
    """
    angle = float(angle)  # numpy warns when a float32 is compared with a float past its range
    if abs(angle) > 1.797693134862315e308:
        return repr(angle)
    return f"{angle:.15g}"


def export_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text: H -> h, P(a) -> u1(a), CNOT -> cx."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.arity}];"]
    for gate in c.gates:
        args = f"({','.join(map(format_angle, gate.params))})" if gate.params else ""
        operands = ",".join(f"q[{w}]" for w in gate.wires)
        lines.append(f"{gate.qasm[0]}{args} {operands};")
    return "\n".join(lines) + "\n"
