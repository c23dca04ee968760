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
`RandomSource.uniforms` draws many uniforms at once, equal to as many
`uniform` calls; it takes them from Python's own generator, and never from
numpy.random, whose import alone costs several MB of resident memory.
`QuantumState` is the backend's session: its `allocate`, `apply` and
`measure` are the three device primitives, and every state is created and
changed through them. `StateVectorBackend.sample` prepares a measure-all
circuit once, through the same `allocate` and `apply`, and walks its
collapse one wire at a time for all shots at once, drawing in shot order.
`count_ones` prepares its prep once, the same way, applies each basis to a
copy through the same `apply`, walks it, and counts the ones on every wire:
prep, then basis, in one session, as the default's shots run them.
That walk and a session's measurement both take p1 from `_p_ones` and the
renormalised state from `_collapse`.
"""
from __future__ import annotations

import math
import random
from collections.abc import Callable, Sequence

import numpy as np

from .circuit import Circuit
from .device import DeviceBackend, DeviceSession, _batch_sizes, _check_bases, _exclusive
from .errors import CapacityExceeded
from .kernels import apply_plan

DEFAULT_MAX_QUBITS = 24

_MASK64 = 0xFFFFFFFFFFFFFFFF
_ONE_ROW = np.zeros(1, dtype=np.intp)  # the rows of a one-state `_collapse`
_SCALE_PIECE = 2048  # floats `_collapse` scales at once, when it scales rows by a column


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
        # random.random's own formula, (a >> 5) * 2**26 + (b >> 6) over 2**53
        # from two 32-bit outputs a and b, applied to the same outputs, which
        # getrandbits packs least significant word first: the same floats,
        # and the same position in the stream afterwards
        words = np.frombuffer(self._rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u4")
        draws = (words[0::2] >> 5) * 67108864.0
        draws += words[1::2] >> 6
        draws /= 9007199254740992.0
        return draws


def _count(ids: Sequence[int]) -> int:
    """len(ids), also for a range longer than sys.maxsize, whose len raises OverflowError."""
    if isinstance(ids, range):
        return max(0, -((ids.start - ids.stop) // ids.step))  # the ceiling of (stop - start) / step
    return len(ids)


def _p_ones(states: np.ndarray, wire: int = 0) -> np.ndarray:
    """Probability that measuring `wire` gives 1, for each row of `states`.

    Each row is one state's amplitude vector. Both measurement paths take p1
    from here and the state left from `_collapse`, so they agree float for
    float. The sum always runs over an array, since numpy's scalar path can
    round a lone amplitude's |a|^2 differently.
    """
    ones = states.reshape(len(states), 2**wire, 2, -1)[:, :, 1]
    return np.sum(np.abs(ones) ** 2, axis=(1, 2))


def _collapse(states: np.ndarray, wire: int, rows: np.ndarray, bits, norms) -> np.ndarray:
    """Row k: row rows[k] of `states` where `wire` reads bits[k], over norms[k].

    Both measurement paths renormalise here, by sqrt(p) of the outcome read.
    `rows` is an index array, so the gather copies and `states` is left as is.
    The real and imaginary parts are multiplied by 1 / norm, which gives the
    values of dividing by the norm (numpy divides a complex number by n + 0j
    as a product with 1 / n) without the ufunc buffer of a complex division.
    """
    kept = states.reshape(len(states), 2**wire, 2, -1)[rows, :, bits].reshape(len(rows), -1)
    parts = kept.view(np.float64).reshape(len(rows), -1)
    scales = 1.0 / norms
    # numpy buffers a product broadcast along rows shorter than 8192 floats in
    # as many floats as it has, up to 64 KiB, while the parent rows are held;
    # pieces of at most _SCALE_PIECE floats keep that buffer small (a scalar,
    # from a session's one state, needs no buffer)
    if isinstance(scales, float) or parts.size <= _SCALE_PIECE:
        parts *= scales
        return kept
    step = max(1, _SCALE_PIECE // parts.shape[1])
    for start in range(0, len(parts), step):
        parts[start : start + step] *= scales[start : start + step]
    return kept


def _sample_prepared(state: QuantumState, uniforms: np.ndarray) -> np.ndarray:
    """Measure every wire of `state`, once per row of `uniforms`, in wire order.

    `uniforms[s, d]` is the draw shot s makes at wire d, and row s of the
    result holds its bits. Shots that agree on their first d bits share the
    state left after them, so the walk goes one wire at a time and keeps the
    states the shots have reached as the rows of one array, taking p1 and
    the renormalised rows from `_p_ones` and `_collapse`. A row is built only
    if some shot reaches it, and the walk takes the amplitudes of `state`
    over: each level's rows are freed once the next level's are built, and
    both hold at most one state's worth each.
    """
    shots, wires = uniforms.shape
    bits = np.empty((shots, wires), dtype=np.int8)
    states, state.amplitudes = state.amplitudes.reshape(1, -1), None
    reached = np.zeros(shots, dtype=np.intp)  # each shot's row of `states`
    for depth in range(wires):
        p_one = _p_ones(states)
        ones = uniforms[:, depth] < p_one[reached]
        bits[:, depth] = ones
        if depth + 1 == wires:
            break
        # child 2 * row + bit; keep the children some shot reaches, in order
        child = 2 * reached + ones
        hit = np.zeros(2 * len(states), dtype=bool)
        hit[child] = True
        reached = (np.cumsum(hit) - 1)[child]
        rows, bit = np.divmod(np.flatnonzero(hit), 2)
        del child, hit  # not held while the next level's rows are gathered
        norms = np.sqrt(np.where(bit, p_one[rows], 1.0 - p_one[rows]))[:, None]
        states = _collapse(states, 0, rows, bit, norms)
    return bits


class QuantumState(DeviceSession):
    """The simulator's session: amplitude vector plus a registry of live qubit ids.

    The registry is a bijection between live ids and wire positions in
    [0, len(registry)); measurement removes an id and shifts the wires above
    it down by one. `allocate`, `apply` and `measure` are the device
    primitives and the whole of the state's behaviour, drawing from `rand`
    and capped at `max_qubits` wires.
    """

    __slots__ = ("amplitudes", "registry", "max_qubits", "_random")

    def __init__(self, rand: RandomSource, max_qubits: int = DEFAULT_MAX_QUBITS):
        self.amplitudes = np.ones(1, dtype=complex)
        self.registry: dict[int, int] = {}
        self.max_qubits = max_qubits
        self._random = rand

    def allocate(self, ids: Sequence[int]) -> None:
        """Append one |0> wire per id, as new least significant bits."""
        n = len(self.registry)
        p = _count(ids)
        if n + p > self.max_qubits:
            raise CapacityExceeded(n + p, self.max_qubits)
        if p == 0:
            return
        zeros = np.zeros(2**p, dtype=complex)
        zeros[0] = 1.0
        if n:
            # np.kron's products, without its per-call overhead
            self.amplitudes = np.multiply.outer(self.amplitudes, zeros).reshape(-1)
        else:  # the same entries, without a second state-sized array
            zeros *= self.amplitudes[0]
            self.amplitudes = zeros
        for offset, ident in enumerate(ids):
            self.registry[ident] = n + offset

    def apply(self, ids: Sequence[int], circuit: Circuit) -> None:
        registry = self.registry
        apply_plan(self.amplitudes, circuit._plan, [registry[i] for i in ids])

    def measure(self, ids: Sequence[int]) -> list[int]:
        """Measure each named qubit in turn: collapse, renormalise, contract.

        An outcome is 1 exactly when its uniform is below the probability of
        1, so basis states measure deterministically for any seed.
        """
        registry = self.registry
        bits = []
        for ident in ids:
            wire = registry.pop(ident)
            t = self.amplitudes.reshape(1, -1)
            p1 = float(_p_ones(t, wire)[0])
            bit = 1 if self._random.uniform() < p1 else 0
            self.amplitudes = _collapse(t, wire, _ONE_ROW, bit, math.sqrt(p1 if bit else 1 - p1))[0]
            for other, w in registry.items():
                if w > wire:
                    registry[other] = w - 1
            bits.append(bit)
        return bits


class StateVectorBackend(DeviceBackend):
    """DeviceBackend running exact state-vector simulation.

    One RandomSource feeds all sessions of the instance, so a sequence of
    executes is reproducible end to end from the constructor seed. The qubit
    cap protects desk-scale machines from accidental 2^n blowups.
    """

    def __init__(self, seed: int | None = None, max_qubits: int = DEFAULT_MAX_QUBITS):
        self._random = RandomSource(seed)
        self.max_qubits = max_qubits

    def new_session(self) -> QuantumState:
        return QuantumState(self._random, self.max_qubits)

    def sample(self, circuit: Circuit, shots: int) -> np.ndarray:
        """As `DeviceBackend.sample`, preparing the circuit's state once.

        Each shot draws `circuit.arity` uniforms in wire order, as a session
        measuring every wire does, and the outcomes come from the collapse
        walk over the one prepared state; the bits and the position of the
        random stream afterwards equal the per-shot loop's.
        """
        n = circuit.arity
        if shots < 1:
            # the default runs no execution, so it neither fails nor draws
            return np.zeros((0, n), dtype=np.int8)
        return self._walk(n, shots, lambda: self._prepared(circuit))

    def count_ones(self, prep: Circuit, bases: Sequence[Circuit], shots: int) -> np.ndarray:
        """As `DeviceBackend.count_ones`, preparing `prep` once.

        `prep` goes through one session's `allocate` and `apply`; each batch
        applies its basis to a copy of that state, through the same `apply`,
        and walks it as `sample` does. So the walked state is the default's,
        float for float, and the bits and the position of the random stream
        afterwards equal the default's. A prep too wide for the backend is
        refused whatever `shots` is, unless there is no basis to measure.
        """
        _check_bases(prep, bases)
        n = prep.arity
        if bases and n > self.max_qubits:
            raise CapacityExceeded(n, self.max_qubits)
        counts = np.zeros((len(bases), n), dtype=np.int64)
        if not (bases and shots > 0):
            return counts
        state = self._prepared(prep)
        prepared = state.amplitudes

        def continued() -> QuantumState:
            state.amplitudes = prepared.copy()
            state.apply(range(n), basis)
            return state

        for row, basis in zip(counts, bases):
            for size in _batch_sizes(shots):
                # numpy sums a narrow int8 array's rows several times faster than its columns
                row += np.ascontiguousarray(self._walk(n, size, continued).T).sum(axis=1)
        return counts

    def _prepared(self, circuit: Circuit) -> QuantumState:
        """A session holding `circuit` applied to |0...0>, through `allocate` and `apply`.

        It is the class's own session, which a subclass that refuses
        sessions still has.
        """
        state = StateVectorBackend.new_session(self)
        state.allocate(range(circuit.arity))
        state.apply(range(circuit.arity), circuit)
        return state

    def _walk(self, n: int, shots: int, prepare: Callable[[], QuantumState]) -> np.ndarray:
        """The bits of `shots` shots of the n-wire state `prepare()` returns.

        One shot's draws, n uniforms in wire order, are those of a session
        measuring every wire. The backend is held while the shots are drawn
        and walked; the capacity is checked before anything is drawn, and
        the uniforms are drawn before the state exists, so the draw's
        temporaries never sit beside it.
        """
        with _exclusive(self):
            if n > self.max_qubits:
                raise CapacityExceeded(n, self.max_qubits)
            uniforms = self._random.uniforms(shots * n).reshape(shots, n)
            return _sample_prepared(prepare(), uniforms)
