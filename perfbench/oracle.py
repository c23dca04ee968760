"""Numerical references the benchmark checks qlin's outputs against.

Written from first principles so that a check does not mirror the library:
gates are applied to tensors with numpy slicing, Pauli operators are built
from Kronecker products, and the QFT is checked against the closed-form
product state of the DFT. Wire 0 is the most significant bit throughout,
as in qlin. Gates are plain tuples: ("H", w), ("P", angle, w), ("CNOT", c, t).
"""
from __future__ import annotations

import math

import numpy as np

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def apply_gates(states: np.ndarray, n: int, gates: list[tuple]) -> np.ndarray:
    """Apply gates to a (2^n, k) block of column states; returns a new block."""
    t = np.array(states, dtype=complex).reshape((2,) * n + (-1,))
    for gate in gates:
        if gate[0] == "H":
            w = gate[1]
            a0 = np.take(t, 0, axis=w)
            a1 = np.take(t, 1, axis=w)
            t = np.stack(((a0 + a1) * _H[0, 0], (a0 - a1) * _H[0, 0]), axis=w)
        elif gate[0] == "P":
            angle, w = gate[1], gate[2]
            index = [slice(None)] * t.ndim
            index[w] = 1
            t[tuple(index)] *= complex(math.cos(angle), math.sin(angle))
        else:
            c, tg = gate[1], gate[2]
            index = [slice(None)] * t.ndim
            index[c] = 1
            sub = t[tuple(index)]
            axis = tg - (1 if tg > c else 0)
            t[tuple(index)] = np.flip(sub, axis=axis).copy()
    return t.reshape(2**n, -1)


def unitary(n: int, gates: list[tuple]) -> np.ndarray:
    """Dense unitary, one column per basis state (small n only)."""
    return apply_gates(np.eye(2**n, dtype=complex), n, gates)


def random_states(n: int, count: int, rng) -> np.ndarray:
    """`count` random unit column states on n wires from a random.Random."""
    dim = 2**n
    gen = np.random.default_rng(rng.getrandbits(64))
    block = gen.normal(size=(dim, count)) + 1j * gen.normal(size=(dim, count))
    return block / np.linalg.norm(block, axis=0)


def pauli_matrix(term: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for op in term:
        out = np.kron(out, _PAULI[op])
    return out


def pauli_expectations(psi: np.ndarray, terms: list[str]) -> list[float]:
    return [float(np.real(np.vdot(psi, pauli_matrix(t) @ psi))) for t in terms]


def qft_product_state_error(n: int, gates: list[tuple], x: int) -> float:
    """Largest per-wire distance between the circuit's output on |x> and the
    bit-reversed DFT column, simulated as a product state.

    Valid because every CNOT of the QFT is controlled by a wire that is still
    a basis state; a control found in superposition returns infinity. Output
    wire j of the bit-reversed DFT holds (|0> + e^(2 pi i x / 2^(n-j))|1>)/sqrt 2.
    """
    wires = [np.array([1.0, 0.0], dtype=complex) if not (x >> (n - 1 - w)) & 1
             else np.array([0.0, 1.0], dtype=complex) for w in range(n)]
    for gate in gates:
        if gate[0] == "H":
            wires[gate[1]] = _H @ wires[gate[1]]
        elif gate[0] == "P":
            wires[gate[2]] = wires[gate[2]] * np.array([1.0, complex(math.cos(gate[1]), math.sin(gate[1]))])
        else:
            control = np.abs(wires[gate[1]])
            if min(control) > 1e-9:
                return math.inf
            if control[1] > 0.5:
                wires[gate[2]] = wires[gate[2]][::-1]
    worst = 0.0
    for j in range(n):
        modulus = 1 << (n - j)
        phase = 2.0 * math.pi * (x % modulus) / modulus
        expected = np.array([1.0, complex(math.cos(phase), math.sin(phase))]) / math.sqrt(2.0)
        worst = max(worst, 1.0 - abs(np.vdot(expected, wires[j])))
    return worst


def chi2_upper_quantile(df: int, z: float) -> float:
    """Wilson-Hilferty approximation of the chi-squared quantile whose upper
    tail equals the standard normal's beyond z."""
    k = 2.0 / (9.0 * df)
    return df * (1.0 - k + z * math.sqrt(k)) ** 3


def chi2_statistic(observed: list[int], expected_probs: list[float], total: int) -> tuple[float, int]:
    """Pearson statistic after pooling outcomes expected fewer than 5 times
    into one bin; returns (statistic, degrees of freedom)."""
    stat, bins = 0.0, 0
    pooled_obs, pooled_exp = 0, 0.0
    for obs, prob in zip(observed, expected_probs):
        exp = prob * total
        if exp < 5.0:
            pooled_obs += obs
            pooled_exp += exp
            continue
        stat += (obs - exp) ** 2 / exp
        bins += 1
    if pooled_exp >= 1e-12:
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        bins += 1
    elif pooled_obs:
        return math.inf, max(bins - 1, 1)
    return stat, max(bins - 1, 1)
