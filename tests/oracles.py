"""Independent oracles and generators shared by the test suite.

Everything here is written from first principles (Kronecker products, basis
index manipulation, brute-force enumeration) so that it checks the library
rather than mirroring its implementation. Wire 0 is the most significant bit
of a basis index throughout.
"""
from __future__ import annotations

import ast
import math
import operator
import random

import numpy as np

from qlin import Circuit, add_cnot, add_h, add_p, identity
from qlin.errors import ParseError

I2 = np.eye(2, dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_all(*mats: np.ndarray) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_matrix(term: str) -> np.ndarray:
    return kron_all(*(PAULI[op] for op in term))


def basis_state(n: int, index: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[index] = 1.0
    return v


def embed_matrix(small: np.ndarray, n: int, wires: list[int]) -> np.ndarray:
    """Brute-force embedding: small's wire k acts on global wire wires[k]."""
    k = len(wires)
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        xs = 0
        for w in wires:
            xs = (xs << 1) | ((col >> (n - 1 - w)) & 1)
        for ys in range(2**k):
            amp = small[ys, xs]
            if amp == 0:
                continue
            row = col
            for a, w in enumerate(wires):
                mask = 1 << (n - 1 - w)
                if (ys >> (k - 1 - a)) & 1:
                    row |= mask
                else:
                    row &= ~mask
            out[row, col] += amp
    return out


def block_diag_controlled(mat: np.ndarray) -> np.ndarray:
    """block-diag(I, mat): the controlled version with the control as MSB."""
    dim = mat.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = mat
    return out


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Product of every gate's brute-force embedding, the last gate leftmost.

    H is H, P(a) is diag(1, e^(ia)) and CNOT is X controlled on its first
    wire, each placed on the gate's wires by embed_matrix.
    """
    n = circuit.arity
    out = np.eye(2**n, dtype=complex)
    for gate in circuit.gates:
        if gate.name == "H":
            small = H
        elif gate.name == "P":
            small = np.diag([1.0, np.exp(1j * gate.params[0])])
        else:
            small = block_diag_controlled(X)
        out = embed_matrix(small, n, list(gate.wires)) @ out
    return out


def bit_reversed_dft(n: int) -> np.ndarray:
    """(1/sqrt(2^n)) omega^(jk) with the output bit order reversed."""
    dim = 2**n
    omega = np.exp(2j * np.pi / dim)
    dft = np.array([[omega ** (j * k) for k in range(dim)] for j in range(dim)])
    dft /= math.sqrt(dim)
    reversed_rows = [int(format(j, f"0{n}b")[::-1], 2) for j in range(dim)]
    return dft[reversed_rows, :]


def normalise_phase(mat: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Divide out the phase of the first nonzero entry (row-major scan)."""
    for z in mat.ravel():
        if abs(z) > tol:
            return mat * (abs(z) / z)
    return mat


def assert_close(a, b, tol: float = 1e-9):
    dev = np.max(np.abs(np.asarray(a) - np.asarray(b)))
    assert dev <= tol, f"max deviation {dev:.3e} exceeds {tol}"


def random_circuit(rng: random.Random, arity: int, gate_count: int) -> Circuit:
    """Uniformly random circuit over the gate set; CNOT only if arity >= 2."""
    c = identity(arity)
    kinds = ["H", "P", "CNOT"] if arity >= 2 else ["H", "P"]
    for _ in range(gate_count):
        kind = rng.choice(kinds) if arity >= 1 else None
        if kind == "H":
            c = add_h(c, rng.randrange(arity))
        elif kind == "P":
            c = add_p(c, rng.uniform(-2 * math.pi, 2 * math.pi), rng.randrange(arity))
        elif kind == "CNOT":
            control, target = rng.sample(range(arity), 2)
            c = add_cnot(c, control, target)
    return c


class FixedRandom:
    """RandomSource stand-in yielding a scripted sequence of uniforms."""

    def __init__(self, values):
        self._values = list(values)

    def uniform(self) -> float:
        return self._values.pop(0)

    def uniforms(self, k: int) -> np.ndarray:
        return np.array([self.uniform() for _ in range(k)], dtype=float)


class DenseSession:
    """Reference device session: one dense vector over the live qubits.

    Qubits sit in allocation order, the earliest live one as the most
    significant bit of a basis index. Allocation appends |0> qubits as new
    least significant bits; a circuit acts through embed_matrix of its
    dense_unitary; measuring a qubit draws one `uniform()`, reads 1 iff that
    draw is below the qubit's probability of 1, keeps the basis states that
    agree with the bit, drops the bit from their indices and renormalises.
    """

    def __init__(self, uniform):
        self._uniform = uniform
        self.qubits: list = []
        self.vector = np.ones(1, dtype=complex)

    def allocate(self, names) -> None:
        for name in names:
            self.vector = np.kron(self.vector, basis_state(1, 0))
            self.qubits.append(name)

    def apply(self, names, circuit: Circuit) -> None:
        wires = [self.qubits.index(name) for name in names]
        self.vector = embed_matrix(dense_unitary(circuit), len(self.qubits), wires) @ self.vector

    def measure(self, names) -> list[int]:
        return [self._measure_one(name) for name in names]

    def _measure_one(self, name) -> int:
        n = len(self.qubits)
        shift = n - 1 - self.qubits.index(name)
        p_one = sum(abs(self.vector[i]) ** 2 for i in range(2**n) if (i >> shift) & 1)
        bit = int(self._uniform() < p_one)
        # increasing indices with the bit dropped stay increasing, so the
        # kept amplitudes are already in the order of the smaller state
        kept = [self.vector[i] for i in range(2**n) if (i >> shift) & 1 == bit]
        self.vector = np.array(kept, dtype=complex) / math.sqrt(p_one if bit else 1.0 - p_one)
        self.qubits.remove(name)
        return bit


# Reference angle reader: Python's own parser and an explicit-stack walk of
# its tree, as formats.parse_angle read angles before it had its own grammar.
# It accepts Python forms the formats do not (`0x10`, `1_0`, `ｐｉ`, `pi#x`).

_BINARY_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_MAX_ANGLE_DEPTH = 1000


def _eval_angle_node(root: ast.expr) -> float:
    """Evaluate an angle expression tree with an explicit stack, left to right.

    Nesting deeper than _MAX_ANGLE_DEPTH raises RecursionError wherever the
    caller sits on the interpreter's stack.
    """
    values: list[float] = []
    todo: list[tuple[ast.AST, int]] = [(root, 0)]  # (node, depth); depth -1: apply the operator
    while todo:
        node, depth = todo.pop()
        if depth < 0:
            if type(node) in _UNARY_OPS:
                values.append(_UNARY_OPS[type(node)](values.pop()))
            else:
                right = values.pop()
                values.append(_BINARY_OPS[type(node)](values.pop(), right))
        elif depth > _MAX_ANGLE_DEPTH:
            raise RecursionError("angle expression nests too deeply")
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):  # not bool
            values.append(float(node.value))
        elif isinstance(node, ast.Name) and node.id == "pi":
            values.append(math.pi)
        elif isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
            todo += [(node.op, -1), (node.operand, depth + 1)]
        elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            todo += [(node.op, -1), (node.right, depth + 1), (node.left, depth + 1)]
        else:
            raise ValueError("unsupported angle expression")
    return values.pop()


def parse_angle(text: str, line: int) -> float:
    """Evaluate an angle literal or a +-*/ expression over `pi`."""
    try:
        return _eval_angle_node(ast.parse(text.strip(), mode="eval").body)
    # OverflowError: an integer literal too large for a float
    except (SyntaxError, ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(line, f"bad angle {text.strip()!r}") from None
    except (RecursionError, MemoryError):  # the evaluator's depth cap or ast.parse's limit
        raise ParseError(line, "angle expression nests too deeply") from None
