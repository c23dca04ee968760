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
`uniform` calls; it takes them from Python's own generator, in getrandbits
calls of at most `_DRAW_PIECE` draws, and never from numpy.random, whose
import alone costs several MB of resident memory.
`QuantumState` is the backend's session: its `allocate`, `apply` and
`measure` are the three device primitives, and every state is created and
changed through them. The first `apply` to the |0...0> that `allocate`
builds on an empty session tells the kernels that the state is fresh, so a
circuit that opens with a layer of one-wire passes on a large state starts
as a product state (see the kernels module). Since that choice is made in
the session, `sample`, `count_ones`, the default's per-shot programs and a
relabelled circuit all take the same path.
Both shot methods of `StateVectorBackend` take their walks from one
scheduler, `_walks`. It prepares the prep once, through the same `allocate`
and `apply`, so a prep too wide for the backend is refused before any draw.
It cuts the (basis, shot) rows, basis-major and then shot-major as the
default's shots run, into walks, each ending after `_SHOT_BATCH` rows, at
the end of its group of bases or at the last row. Each walk draws its rows'
uniforms in shot order and starts from one row per basis: a copy of the
prepared state with that basis applied in place through the same `apply`
(prep, then basis, in one session), or, on a last walk from one basis, the
prepared state itself. `sample` is the scheduler over one empty basis, each
walk writing its rows of the result; `count_ones` sums each walk's ones per
basis and wire, and takes at least one shot, as the default does.
A walk and a session's measurement both take p1 from `_p_ones` and the
renormalised state from `_collapse`.
"""
from __future__ import annotations

import functools
import math
import random
from collections.abc import Callable, Sequence

import numpy as np

from .circuit import Circuit, _check_shot_count
from .device import DeviceBackend, DeviceSession, _check_bases, _check_shot_type, _exclusive
from .errors import CapacityExceeded
from .kernels import _SMALL_STATE, _small_ufunc_buffer, apply_plan

DEFAULT_MAX_QUBITS = 24

_MASK64 = 0xFFFFFFFFFFFFFFFF
_ONE_ROW = np.zeros(1, dtype=np.intp)  # the rows of a one-state `_collapse`
_DRAW_PIECE = 2**20  # most uniforms one getrandbits call draws; 64 bits each must fit a C int
# Most (basis, shot) rows one walk of `_walks` measures, for `sample` and
# `count_ones` alike, and most shots CLI `simulate` asks `sample` for at once.
# It bounds memory, not outcomes, since every walk draws in shot order; both
# `_walks` and the CLI read it at call time.
_SHOT_BATCH = 2**16


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
        # and the same position in the stream afterwards. getrandbits takes a
        # C int of bits, so the words come in pieces of at most _DRAW_PIECE
        # draws, in order, which gives the same outputs as one call.
        draws = np.empty(k)
        for start in range(0, k, _DRAW_PIECE):
            out = draws[start : start + _DRAW_PIECE]
            bits = self._rng.getrandbits(64 * len(out)).to_bytes(8 * len(out), "little")
            words = np.frombuffer(bits, "<u4")
            np.multiply(words[0::2] >> 5, 67108864.0, out=out)
            out += words[1::2] >> 6
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
    if isinstance(scales, float):  # a session's one state
        parts *= scales
    else:
        with _small_ufunc_buffer():  # a column of norms is broadcast along the rows
            parts *= scales
    return kept


def _sample_prepared(start: Callable[[], tuple[np.ndarray, np.ndarray]], uniforms: np.ndarray,
                     bits: np.ndarray) -> np.ndarray:
    """Measure every wire of a start row, once per row of `uniforms`, in wire order, into `bits`.

    `start()` returns the start rows, each one state's amplitude vector, and
    each shot's start row. `uniforms[s, d]` is the draw shot s makes at wire
    d, and row s of `bits`, which is returned, gets its bits. Shots that
    start from one row and agree on their first d bits share the state left
    after them, so the walk goes one wire at a time and keeps the states the
    shots have reached as the rows of one array, taking p1 and the
    renormalised rows from `_p_ones` and `_collapse`. A row is built only if
    some shot reaches it. The walk holds the only reference to the start
    rows, since it calls `start` itself: each level's rows are freed once the
    next level's are built, and both hold at most as many entries as the
    start rows each.
    """
    wires = uniforms.shape[1]
    states, reached = start()  # `reached`: each shot's row of `states`
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


def _start_rows(state: QuantumState, bases: Sequence[Circuit], edges: np.ndarray,
                last: bool) -> tuple[np.ndarray, np.ndarray]:
    """One start row per basis, and each shot's row, its basis's; see `StateVectorBackend._walks`.

    A row is the state `state` holds, the prepared one, with its basis
    applied in place through `state.apply`. On the last walk, one basis is
    applied to the prepared state itself, and `state` lets go of it, so the
    walk holds the only reference to its start rows.
    """
    prepared = state.amplitudes
    if last and len(bases) == 1:
        rows = prepared.reshape(1, -1)
    else:
        rows = np.empty((len(bases), prepared.size), dtype=complex)
        rows[...] = prepared
    for row, basis in zip(rows, bases):
        if basis.gates:  # an empty basis applies nothing, so sample's session sees one apply
            state.amplitudes = row
            state.apply(range(len(state.registry)), basis)
    # never a finished start row, which the next walk would copy
    state.amplitudes = None if last else prepared
    return rows, np.repeat(np.arange(len(rows)), np.diff(edges))


class QuantumState(DeviceSession):
    """The simulator's session: amplitude vector plus a registry of live qubit ids.

    The registry is a bijection between live ids and wire positions in
    [0, len(registry)); measurement removes an id and shifts the wires above
    it down by one. `allocate`, `apply` and `measure` are the device
    primitives and the whole of the state's behaviour, drawing from `rand`
    and capped at `max_qubits` wires.

    The state is fresh while `amplitudes` is still the array that `allocate`
    built from an empty session with entry 0 exactly 1 (a measurement of
    every qubit can leave a phase there instead); `apply` passes that to
    the kernels. The session keeps that array, not a flag, so assigning
    `amplitudes` another array makes it not fresh (writing into the array
    in place is not seen, and must not be done); `apply` and `measure`
    end it, even with no passes or no ids. A state that `allocate` extends
    is never fresh, even when it is |0...0>.
    """

    __slots__ = ("amplitudes", "registry", "max_qubits", "_random", "_zero")

    def __init__(self, rand: RandomSource, max_qubits: int = DEFAULT_MAX_QUBITS):
        self.amplitudes = np.ones(1, dtype=complex)
        self.registry: dict[int, int] = {}
        self.max_qubits = max_qubits
        self._random = rand
        self._zero = None  # the array `allocate` left as |0...0>, while it is untouched

    def allocate(self, ids: Sequence[int]) -> None:
        """Append one |0> wire per id, as new least significant bits, by one strided write."""
        n = len(self.registry)
        p = _count(ids)
        if n + p > self.max_qubits:
            raise CapacityExceeded(n + p, self.max_qubits)
        if p == 0:
            return
        state = np.zeros(2 ** (n + p), dtype=complex)
        state[:: 2**p] = self.amplitudes
        self.amplitudes = state
        if n == 0 and state[0] == 1:  # not after a measurement that left a phase
            self._zero = state
        for offset, ident in enumerate(ids):
            self.registry[ident] = n + offset

    def apply(self, ids: Sequence[int], circuit: Circuit) -> None:
        registry = self.registry
        fresh = self._zero is self.amplitudes
        self._zero = None
        apply_plan(self.amplitudes, circuit._plan, [registry[i] for i in ids], fresh)

    def measure(self, ids: Sequence[int]) -> list[int]:
        """Measure each named qubit in turn: collapse, renormalise, contract.

        An outcome is 1 exactly when its uniform is below the probability of
        1, so basis states measure deterministically for any seed.
        """
        registry = self.registry
        self._zero = None
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
        measuring every wire does. The shots are the rows of `_walks` over
        one empty basis, so they are walked from the one prepared state at
        most `_SHOT_BATCH` at a time, each walk writing its rows of the
        result; the bits and the position of the random stream afterwards
        equal the per-shot loop's.
        """
        _check_shot_type(shots)
        n = circuit.arity
        if shots < 1:
            # the default runs no execution, so it neither fails nor draws
            return np.zeros((0, n), dtype=np.int8)
        _check_shot_count(shots)
        return self._walks(circuit, [Circuit(n)], shots, False)

    def count_ones(self, prep: Circuit, bases: Sequence[Circuit], shots: int) -> np.ndarray:
        """As `DeviceBackend.count_ones`, preparing `prep` once and walking many bases at once.

        The (basis, shot) rows are those of `_walks`, and each walk's bits
        are summed per basis and wire before the next walk draws.
        """
        _check_bases(prep, bases, shots)
        if not bases:
            return np.zeros((0, prep.arity), dtype=np.int64)
        return self._walks(prep, bases, shots, True)

    def _prepared(self, circuit: Circuit) -> QuantumState:
        """A session holding `circuit` applied to |0...0>, through `allocate` and `apply`.

        It is the class's own session, which a subclass that refuses
        sessions still has.
        """
        state = StateVectorBackend.new_session(self)
        state.allocate(range(circuit.arity))
        state.apply(range(circuit.arity), circuit)
        return state

    def _walks(self, prep: Circuit, bases: Sequence[Circuit], shots: int, count: bool) -> np.ndarray:
        """Each (basis, shot) row's bits, in order, or with `count` each basis's ones on every wire.

        `prep` goes through one session's `allocate` and `apply`, which
        refuses a prep too wide for the backend before any draw. The
        (basis, shot) rows are walked in the default's order, basis-major
        and then shot-major; a walk of rows [a, b) ends at a + `_SHOT_BATCH`,
        at the end of its group of bases (whose start rows hold at most
        max(2**n, _SMALL_STATE) entries, so one basis from 12 wires up) or at
        the last row, whichever is first. Each walk draws its rows' uniforms,
        n in wire order per row, and then starts from one row per basis,
        a // shots to (b - 1) // shots, built by `_start_rows` through the
        same `apply`. So every start row is the default's state, float for
        float, and the bits and the stream position afterwards equal the
        default's. The backend is held from the preparation to the last walk.
        """
        n = prep.arity
        total = len(bases) * shots
        group = max(1, _SMALL_STATE >> n) * shots  # the rows of the bases whose start rows one walk may hold
        with _exclusive(self):
            state = self._prepared(prep)
            out = np.zeros((len(bases), n), dtype=np.int64) if count else np.empty((total, n), dtype=np.int8)
            a = 0
            while a < total:
                b = min(a + _SHOT_BATCH, (a // group + 1) * group, total)
                lo, hi = a // shots, (b - 1) // shots + 1
                # where each basis's rows start and end in the walk
                edges = np.clip(np.arange(lo, hi + 1) * shots - a, 0, b - a)
                # the uniforms are drawn before the start rows exist, so the
                # draw's temporaries never sit beside them, and are held by
                # the walk alone
                bits = _sample_prepared(functools.partial(_start_rows, state, bases[lo:hi], edges, b == total),
                                        self._random.uniforms((b - a) * n).reshape(b - a, n),
                                        np.empty((b - a, n), dtype=np.int8) if count else out[a:b])
                if count:
                    # one sum per basis and wire; numpy sums a narrow int8
                    # array's rows several times faster than its columns
                    out[lo:hi] += np.add.reduceat(np.ascontiguousarray(bits.T), edges[:-1], axis=1,
                                                  dtype=np.int64).T
                del bits  # not held while the next walk draws
                a = b
            return out
