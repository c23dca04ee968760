"""Named standard circuits: standalone gates, Bell-basis prep, and the QFT."""
from __future__ import annotations

import math
import operator

from .circuit import (
    Circuit,
    ControlledNot,
    Hadamard,
    _check_gate_count,
    _controlled_phase,
    add_cnot,
    add_h,
    add_p,
    controlled,
    identity,
)
from .errors import NonFiniteAngle


def h_gate() -> Circuit:
    return add_h(identity(1), 0)


def p_gate(angle: float) -> Circuit:
    return add_p(identity(1), angle, 0)


def cnot_gate() -> Circuit:
    return add_cnot(identity(2), 0, 1)


def t_gate() -> Circuit:
    return p_gate(math.pi / 4)


def to_bell_basis() -> Circuit:
    """H on wire 0 then CNOT(0,1); maps |00> to the Bell state."""
    return Circuit(2, [Hadamard(0), ControlledNot(0, 1)])


def _rm_angle(m: int) -> float:
    """2*pi / 2^m, as 2*pi scaled by 2^-m: exact while that is a normal
    float, correctly rounded below, and 0 for large m. An m so negative
    that the angle passes the largest float raises NonFiniteAngle."""
    try:
        return math.ldexp(2.0 * math.pi, -operator.index(m))
    except OverflowError:
        raise NonFiniteAngle(math.inf) from None


def rm(m: int) -> Circuit:
    """Phase rotation P(2*pi / 2^m) used by the QFT cascade."""
    return p_gate(_rm_angle(m))


def c_rm(m: int) -> Circuit:
    """Controlled rm(m); control on wire 0, rotation on wire 1."""
    return controlled(rm(m))


def qft(n: int) -> Circuit:
    """Quantum Fourier transform on n wires, without a final swap layer.

    The matrix equals the DFT of size 2^n with the output bit order reversed.
    Raises TooManyGates before building when its n + 5 * n * (n - 1) / 2
    gates pass BUILD_GATE_LIMIT.
    """
    _check_gate_count(n + 5 * (n * (n - 1) // 2))  # a controlled P is 5 gates
    gates = []
    for k in range(n):
        # H on wire k followed by controlled rotations onto wire k: the
        # control at distance d contributes P(2*pi / 2^(d+1)).
        gates.append(Hadamard(k))
        for m in range(2, n - k + 1):
            gates += _controlled_phase(_rm_angle(m) / 2.0, k + m - 1, k)
    return Circuit._trusted(Circuit(n).arity, gates)  # Circuit(n) checks n; the gates are valid on it
