"""Exact state-vector simulation backend.

Circuits are applied directly to the 2^n amplitude vector by the kernel
plan that matrix_of also runs (see the kernels module): each circuit is
planned once into fused in-place passes of O(2^n) each, which share one
scratch buffer of half the state's size, and no 2^n x 2^n matrix is ever
materialised. Measurement collapses and physically contracts the measured
wire out of the state, so the vector always has one axis per live qubit.
Wire 0 is the most significant bit of an amplitude index, matching the
circuit module's matrix convention.

Randomness is injected through RandomSource and never read from global
state: the same seed and program give the same outcome sequence, bit for bit.
`StateVectorBackend.sample` prepares a measure-all circuit once and draws
every shot from that one state, in shot order, from the backend's stream;
the collapse tree it walks frees each state once its last child is built.
"""
from __future__ import annotations

import json
import math
import random
from collections.abc import Sequence

import numpy as np

from .circuit import Circuit, GateApp
from .device import DeviceBackend, DeviceSession, _exclusive
from .errors import CapacityExceeded
from .kernels import apply_plan, plan

DEFAULT_MAX_QUBITS = 24

_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(seed: int, index: int) -> int:
    """Stable seed of stream `index` split off `seed` (splitmix64 mixing).

    The CLI's `vqe` and `qaoa` give the backend stream 0 and the optimiser
    stream 1.
    """
    x = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class RandomSource:
    """Seedable stream of uniform doubles in [0, 1)."""

    def __init__(self, seed: int | None = None):
        self._rng = random.Random(seed)

    def uniform(self) -> float:
        return self._rng.random()

    def uniforms(self, k: int) -> np.ndarray:
        """The next k draws of `uniform`, in order, as one array."""
        # iter(f, None) never stops by itself; fromiter takes exactly k items
        return np.fromiter(iter(self._rng.random, None), float, k)


def _p_one(t: np.ndarray, wire: int) -> float:
    """Probability that measuring `wire` of the state tensor `t` gives 1."""
    idx1 = [slice(None)] * t.ndim
    idx1[wire] = 1
    return float(np.sum(np.abs(t[tuple(idx1)]) ** 2))


def _collapse(t: np.ndarray, wire: int, bit: int, p_one: float) -> np.ndarray:
    """The normalised amplitude vector left after `wire` of `t` reads `bit`."""
    kept = np.take(t, bit, axis=wire).reshape(-1)
    kept /= math.sqrt(p_one if bit else 1.0 - p_one)
    return kept


def _sample_prepared(nodes: list, uniforms: np.ndarray, bits: np.ndarray) -> None:
    """Measure every wire of the collapse-tree nodes on the stack `nodes`, in order.

    A node is (parent, bit, p_one, rows): the state tensor left after the
    parent's wire 0 read `bit` with probability of 1 `p_one`, or the parent
    itself when `bit` is None, for the shots `rows`. `uniforms[s, k]` is the
    draw shot s makes at wire k and `bits[s, k]` receives its outcome. Shots
    that agree on their first k bits share the state left after them, so a
    node is built once, with the same helpers and floats as
    `QuantumState.measure_wire`, and only if some shot reaches it. The walk is
    depth first and takes the nodes over: a parent is freed once its last
    child is built, so the stack holds at most about two state vectors, and a
    single shot holds one node and the child being built.
    """
    wires = bits.shape[1]
    while nodes:
        t, bit, p_one, rows = nodes.pop()
        if bit is not None:
            t = _collapse(t, 0, bit, p_one).reshape(t.shape[1:])
        depth = wires - t.ndim
        p_one = _p_one(t, 0)
        ones = uniforms[rows, depth] < p_one
        bits[rows, depth] = ones
        if t.ndim > 1:
            # pushed 1 first, so the 0 child is built and walked first
            for bit, reached in ((1, rows[ones]), (0, rows[~ones])):
                if len(reached):
                    nodes.append((t, bit, p_one, reached))


class QuantumState:
    """Amplitude vector plus the registry mapping live qubit ids to wires.

    The registry is a bijection between live ids and wire positions in
    [0, wire_count); measurement removes an id and shifts the wires above it
    down by one.
    """

    __slots__ = ("amplitudes", "registry")

    def __init__(self):
        self.amplitudes = np.ones(1, dtype=complex)
        self.registry: dict[int, int] = {}

    @property
    def wire_count(self) -> int:
        return len(self.registry)

    def extend_with_zeros(self, ids: Sequence[int]) -> None:
        """Append one |0> wire per id, as new least significant bits."""
        p = len(ids)
        if p == 0:
            return
        zeros = np.zeros(2**p, dtype=complex)
        zeros[0] = 1.0
        n = self.wire_count
        if n:
            # np.kron's products, without its per-call overhead
            self.amplitudes = np.multiply.outer(self.amplitudes, zeros).reshape(-1)
        else:  # the same entries, without a second state-sized array
            zeros *= self.amplitudes[0]
            self.amplitudes = zeros
        for offset, ident in enumerate(ids):
            self.registry[ident] = n + offset

    def apply_gate(self, gate: GateApp) -> None:
        """Apply one gate whose wire fields are positions in this state."""
        self._apply(plan((gate,)), range(self.wire_count))

    def _apply(self, steps: Sequence[tuple], wires: Sequence[int]) -> None:
        """Run a kernel plan, with a gate's wire k acting on position wires[k]."""
        apply_plan(self.amplitudes, steps, wires)

    def measure_wire(self, ident: int, rand: RandomSource) -> int:
        """Measure the qubit named `ident`: collapse, renormalise, contract.

        The outcome is 1 exactly when the drawn uniform is below the
        probability of 1, so basis states measure deterministically for any
        seed.
        """
        registry = self.registry
        wire = registry[ident]
        t = self.amplitudes.reshape([2] * len(registry))
        p_one = _p_one(t, wire)
        bit = 1 if rand.uniform() < p_one else 0
        self.amplitudes = _collapse(t, wire, bit, p_one)
        del registry[ident]
        for other, w in registry.items():
            if w > wire:
                registry[other] = w - 1
        return bit

    def debug_dump(self) -> str:
        """Amplitudes as a JSON array of [re, im] pairs (test hook)."""
        return json.dumps([[z.real, z.imag] for z in self.amplitudes])


class _SimulatorSession(DeviceSession):
    def __init__(self, rand: RandomSource, max_qubits: int):
        self._state = QuantumState()
        self._random = rand
        self._max_qubits = max_qubits

    def allocate(self, ids: Sequence[int]) -> None:
        requested = self._state.wire_count + len(ids)
        if requested > self._max_qubits:
            raise CapacityExceeded(requested, self._max_qubits)
        self._state.extend_with_zeros(ids)

    def apply(self, ids: Sequence[int], circuit: Circuit) -> None:
        registry = self._state.registry
        self._state._apply(circuit._plan, [registry[i] for i in ids])

    def measure(self, ids: Sequence[int]) -> list[int]:
        return [self._state.measure_wire(i, self._random) for i in ids]


class StateVectorBackend(DeviceBackend):
    """DeviceBackend running exact state-vector simulation.

    One RandomSource feeds all sessions of the instance, so a sequence of
    executes is reproducible end to end from the constructor seed. The qubit
    cap protects desk-scale machines from accidental 2^n blowups.
    """

    def __init__(self, seed: int | None = None, max_qubits: int = DEFAULT_MAX_QUBITS):
        self._random = RandomSource(seed)
        self.max_qubits = max_qubits

    def new_session(self) -> _SimulatorSession:
        return _SimulatorSession(self._random, self.max_qubits)

    def sample(self, circuit: Circuit, shots: int) -> list[list[int]]:
        """As `DeviceBackend.sample`, preparing the circuit's state once.

        Each shot draws `circuit.arity` uniforms in wire order, as a session
        measuring every wire does, and the outcomes come from the collapse
        tree of the one prepared state; the bits and the position of the
        random stream afterwards equal the per-shot loop's.
        """
        if shots < 1:
            return []  # the default runs no execution, so it neither fails nor draws
        n = circuit.arity
        with _exclusive(self):
            if n > self.max_qubits:
                raise CapacityExceeded(n, self.max_qubits)
            state = QuantumState()
            state.extend_with_zeros(range(n))
            state._apply(circuit._plan, range(n))
            uniforms = self._random.uniforms(shots * n)
            bits = np.zeros((shots, n), dtype=np.int8)
            if n:
                # the stack holds the only reference to the state from here on
                nodes = [(state.amplitudes.reshape([2] * n), None, 0.0, np.arange(shots))]
                del state
                _sample_prepared(nodes, uniforms.reshape(shots, n), bits)
        return bits.tolist()
