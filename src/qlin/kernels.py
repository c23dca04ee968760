"""The action of each gate kind on a state tensor, written once.

A state tensor has one axis of length 2 per wire, wire 0 first (the most
significant bit of a basis index), followed by any trailing batch axes. Every
kernel indexes only the axes up to the wires it names, so the trailing axes
stay whole: the simulator passes its amplitudes with no batch axis, and
matrix_of passes the identity with one batch axis over the columns. Kernels
act in place, so the tensor must be a view of the array the caller keeps.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _hadamard(t: np.ndarray, wire: int) -> None:
    lead = (slice(None),) * wire
    idx0, idx1 = lead + (0,), lead + (1,)
    a0 = t[idx0].copy()
    a1 = t[idx1]
    t[idx0] = (a0 + a1) * _INV_SQRT2
    t[idx1] = (a0 - a1) * _INV_SQRT2


def _phase(t: np.ndarray, angle: float, wire: int) -> None:
    t[(slice(None),) * wire + (1,)] *= complex(math.cos(angle), math.sin(angle))


def _cnot(t: np.ndarray, control: int, target: int) -> None:
    i10 = [slice(None)] * (max(control, target) + 1)
    i10[control] = 1
    i11 = list(i10)
    i10[target], i11[target] = 0, 1
    i10, i11 = tuple(i10), tuple(i11)
    swapped = t[i10].copy()
    t[i10] = t[i11]
    t[i11] = swapped


# Kernel per gate kind, called with the gate's fields in order and its wires
# mapped to axes of the tensor.
_KERNELS = {"H": _hadamard, "P": _phase, "CNOT": _cnot}


def apply_gates(t: np.ndarray, gates: Sequence, wires: Sequence[int]) -> None:
    """Apply gates to `t` in order, in place, with a gate's wire k on axis wires[k]."""
    for gate in gates:
        _KERNELS[gate.name](t, *gate.fields_on(wires))
