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
RandomSource computes its draws in numpy uint64 arithmetic, never through
numpy.random, whose import alone costs several MB of resident memory.
`QuantumState` is the backend's session: its `allocate`, `apply` and
`measure` are the three device primitives, and every state is created and
changed through them. The first `apply` to the |0...0> that `allocate`
builds on an empty session tells the kernels that the state is fresh, so a
circuit that opens with a layer of one-wire passes on a large state starts
as a product state (see the kernels module). Since that choice is made in
the session, `sample`, `counts`, `count_ones`, the default's per-shot
programs and a relabelled circuit all take the same path.
The three shot methods of `StateVectorBackend` take their walks from one
scheduler, `_walks`. It prepares the prep once, through the same `allocate`
and `apply`, so a prep too wide for the backend is refused before any draw.
It cuts the (basis, shot) rows, basis-major and then shot-major as the
default's shots run, into walks, each ending after `device._SHOT_BATCH`
rows, at the end of its group of bases or at the last row. Each walk draws
its rows' uniforms in shot order and starts from one row per basis: a copy
of the prepared state with that basis applied in place through the same
`apply` (prep, then basis, in one session), or the prepared state itself
for a lone empty basis and, on a last walk, for a lone basis. Each walk
hands its rows to a reducer of the caller's: `sample` and `counts` run the
scheduler over one empty basis, `sample` writing each walk's rows of the
result and `counts` adding up each walk's outcome keys, so a `counts` of any
size prepares its state once; `count_ones` sums each walk's ones per basis
and wire, and takes at least one shot, as the default does.
A walk and a session's measurement both take p1 from `_p_ones` and the
renormalised state from `_collapse`.
"""
from __future__ import annotations

import functools
import math
import operator
import os
from collections.abc import Callable, Sequence

import numpy as np

from . import device
from .circuit import Circuit, _check_shot_count, _integer
from .device import DeviceBackend, DeviceSession, _check_bases, _check_shot_type, _count_outcomes, _exclusive
from .errors import CapacityExceeded
from .kernels import _SMALL_STATE, _small_ufunc_buffer, apply_plan

DEFAULT_MAX_QUBITS = 24

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment of the counter
_ONE_ROW = np.zeros(1, dtype=np.intp)  # the rows of a one-state `_collapse`
_DRAW_PIECE = 2**16  # most uniforms `RandomSource.uniforms` makes at once, in one uint64 temporary
_SCALAR_BLOCK = 1024  # the draws `RandomSource.uniform` makes ahead at once


def _splitmix(state: int, first: int, scratch: np.ndarray) -> np.ndarray:
    """Outputs first, first + 1, ... of SplitMix64 from `state`, as many as `scratch` holds.

    Output i is mix(state + (i + 1) * gamma), with SplitMix64's gamma and
    finaliser mix (Steele, Lea and Flood, OOPSLA 2014), in a new uint64
    array; the uint64 `scratch` takes the shifts. numpy's uint64 wraps mod
    2**64, as the formula does.
    """
    x = np.arange(len(scratch), dtype=np.uint64)
    x *= np.uint64(_GAMMA)
    x += np.uint64((state + (first + 1) * _GAMMA) & _MASK64)
    x ^= np.right_shift(x, 30, out=scratch)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, 27, out=scratch)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, 31, out=scratch)
    return x


def derive_seed(seed: int, index: int) -> int:
    """Stable seed of stream `index` split off `seed` (splitmix64 mixing).

    It is output `index` of SplitMix64 from `seed` mod 2**64, so draw i of
    `RandomSource(s)` is derive_seed(s, i) >> 11 over 2**53. The CLI's `vqe`
    and `qaoa` give the backend stream 0 and the optimiser stream 1.
    """
    seed, index = operator.index(seed), operator.index(index)  # numpy integers overflow below
    return int(_splitmix(seed & _MASK64, index, np.empty(1, dtype=np.uint64))[0])


def _draw(out: np.ndarray, state: int, first: int) -> None:
    """Write draws first, first + 1, ... of `RandomSource` state `state` into the float array `out`.

    A draw is an output's top 53 bits over 2**53. `out` is the shifts'
    scratch, so the one temporary is the uint64 outputs.
    """
    x = _splitmix(state, first, out.view(np.uint64))
    x >>= 11
    out[...] = x.view(np.int64)  # equal below 2**63, and numpy casts int64 faster
    out *= 2.0**-53


class RandomSource:
    """Seedable stream of uniform doubles in [0, 1): SplitMix64 on a counter.

    Draw i (from 0) is derive_seed(s, i) >> 11 over 2**53, where the state s
    is the seed, an int or numpy integer, mod 2**64; None seeds from
    os.urandom(8), and any other seed is a TypeError. `uniforms(k)` makes
    the next k draws in pieces of at most `_DRAW_PIECE`; `uniform` pops the
    next of a block of `_SCALAR_BLOCK` made ahead, whose unread draws
    `uniforms` first gives back. Both run `_draw`, so k `uniform` calls and
    one `uniforms(k)` give the same floats and leave the stream alike.
    """

    __slots__ = ("_state", "_next", "_block")

    def __init__(self, seed: int | None = None):
        if seed is None:
            seed = int.from_bytes(os.urandom(8), "little")
        elif not _integer(seed):
            raise TypeError(f"seed of type {type(seed).__name__}, not an int or None")
        self._state = int(seed) & _MASK64
        self._next = 0  # the first draw not made yet
        self._block: list[float] = []  # the unread draws made ahead, last draw first

    def uniform(self) -> float:
        try:
            return self._block.pop()
        except IndexError:
            block = np.empty(_SCALAR_BLOCK)
            _draw(block, self._state, self._next)
            self._next += _SCALAR_BLOCK
            self._block = block[::-1].tolist()
            return self._block.pop()

    def uniforms(self, k: int) -> np.ndarray:
        """The next k draws of `uniform`, in order, as one array."""
        # so the counter stays a Python int; a numpy one overflows times gamma
        k = operator.index(k)
        draws = np.empty(k)  # a negative k raises here, before the stream moves
        first = self._next - len(self._block)
        self._block = []
        self._next = first + k
        for start in range(0, k, _DRAW_PIECE):
            _draw(draws[start : start + _DRAW_PIECE], self._state, first + start)
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
    applied in place through `state.apply`. A lone empty basis's row is the
    prepared state itself, which the walk only reads, and so, on the last
    walk, is a lone basis's, applied in place. On the last walk `state` lets
    go of the prepared state, so the walk holds the only reference to its
    start rows.
    """
    prepared = state.amplitudes
    if len(bases) == 1 and (last or not bases[0].gates):
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


def _check_qubit_cap(max_qubits: int) -> None:
    """Refuse a qubit cap that is not an int or a numpy integer (a bool is not one), then a negative one."""
    if type(max_qubits) is not int and not _integer(max_qubits):
        raise TypeError(f"qubit cap of type {type(max_qubits).__name__}, not an int")
    if max_qubits < 0:
        raise ValueError(f"qubit cap {max_qubits} is negative")


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
        _check_qubit_cap(max_qubits)
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
        _check_qubit_cap(max_qubits)
        self._random = RandomSource(seed)
        self.max_qubits = max_qubits

    def new_session(self) -> QuantumState:
        return QuantumState(self._random, self.max_qubits)

    def sample(self, circuit: Circuit, shots: int) -> np.ndarray:
        """As `DeviceBackend.sample`, preparing the circuit's state once.

        Each shot draws `circuit.arity` uniforms in wire order, as a session
        measuring every wire does. The shots are the rows of `_walks` over
        one empty basis, so they are walked from the one prepared state at
        most `device._SHOT_BATCH` at a time, each walk writing its rows of
        the result; the bits and the position of the random stream
        afterwards equal the per-shot loop's.
        """
        _check_shot_type(shots)
        n = circuit.arity
        if shots < 1:
            # the default runs no execution, so it neither fails nor draws
            return np.zeros((0, n), dtype=np.int8)
        _check_shot_count(shots)
        return self._walks(circuit, [Circuit(n)], shots, functools.partial(np.empty, (shots, n), np.int8),
                           lambda out, walk, rows, lo, edges: walk(out[rows]))

    def counts(self, circuit: Circuit, shots: int) -> dict[int, int]:
        """As `DeviceBackend.counts`, preparing the circuit's state once.

        The shots are `sample`'s, as one `_walks` call over one empty basis,
        each walk's outcome keys added up before the next walk draws. A
        subclass that overrides `sample` gets the default, which asks that
        `sample` for its shots.
        """
        if type(self).sample is not StateVectorBackend.sample:
            return super().counts(circuit, shots)
        _check_shot_type(shots)
        if shots < 1:
            return {}
        _check_shot_count(shots)
        return self._walks(circuit, [Circuit(circuit.arity)], shots, dict,
                           lambda tally, walk, rows, lo, edges: _count_outcomes(tally, walk()))

    def count_ones(self, prep: Circuit, bases: Sequence[Circuit], shots: int) -> np.ndarray:
        """As `DeviceBackend.count_ones`, preparing `prep` once and walking many bases at once.

        The (basis, shot) rows are those of `_walks`, and each walk's bits
        are summed per basis and wire before the next walk draws.
        """
        _check_bases(prep, bases, shots)
        if not bases:
            return np.zeros((0, prep.arity), dtype=np.int64)
        return self._walks(prep, bases, shots, functools.partial(np.zeros, (len(bases), prep.arity), np.int64),
                           _add_ones)

    def _prepared(self, circuit: Circuit) -> QuantumState:
        """A session holding `circuit` applied to |0...0>, through `allocate` and `apply`.

        It is the class's own session, which a subclass that refuses
        sessions still has.
        """
        state = StateVectorBackend.new_session(self)
        state.allocate(range(circuit.arity))
        state.apply(range(circuit.arity), circuit)
        return state

    def _walks(self, prep: Circuit, bases: Sequence[Circuit], shots: int, result: Callable[[], object],
               take: Callable[..., object]) -> object:
        """`result()`, made once `prep` is prepared, with every walk of the (basis, shot) rows taken into it.

        `prep` goes through one session's `allocate` and `apply`, which
        refuses a prep too wide for the backend before any draw or any
        result. The (basis, shot) rows are walked in the default's order,
        basis-major and then shot-major; a walk of rows [a, b) ends at
        a + `device._SHOT_BATCH`, at the end of its group of bases (whose
        start rows hold at most max(2**n, _SMALL_STATE) entries, so one
        basis from 12 wires up) or at the last row, whichever is first.
        `take(out, walk, slice(a, b), lo, edges)` runs each walk once, in
        order: `walk(bits)` draws its rows' uniforms, n in wire order per
        row, and then walks from one start row per basis, lo = a // shots
        to (b - 1) // shots, built by `_start_rows` through the same
        `apply`, writing the rows' bits into `bits`, or into a new int8
        array when none is given, which it returns; `edges` are where each
        basis's rows start and end in the walk. So every start row is the
        default's state, float for float, and the bits and the stream
        position afterwards equal the default's. The backend is held from
        the preparation to the last walk.
        """
        n = prep.arity
        total = len(bases) * shots
        group = max(1, _SMALL_STATE >> n) * shots  # the rows of the bases whose start rows one walk may hold
        with _exclusive(self):
            state = self._prepared(prep)
            out = result()
            a = 0
            while a < total:
                b = min(a + device._SHOT_BATCH, (a // group + 1) * group, total)
                lo, hi = a // shots, (b - 1) // shots + 1
                # where each basis's rows start and end in the walk
                edges = np.clip(np.arange(lo, hi + 1) * shots - a, 0, b - a)
                start = functools.partial(_start_rows, state, bases[lo:hi], edges, b == total)

                def walk(bits: np.ndarray | None = None) -> np.ndarray:
                    # the uniforms are drawn before the start rows and a new
                    # bits array exist, so the draw's temporaries never sit
                    # beside them, and are held by the walk alone
                    return _sample_prepared(start, self._random.uniforms((b - a) * n).reshape(b - a, n),
                                            np.empty((b - a, n), dtype=np.int8) if bits is None else bits)

                take(out, walk, slice(a, b), lo, edges)
                a = b
            return out


def _add_ones(ones: np.ndarray, walk: Callable[[], np.ndarray], rows: slice, lo: int, edges: np.ndarray) -> None:
    """`count_ones`'s reducer: add each basis's ones on every wire over the walk's rows to `ones`."""
    # one sum per basis and wire; numpy sums a narrow int8 array's rows
    # several times faster than its columns
    bits = np.ascontiguousarray(walk().T)
    ones[lo : lo + len(edges) - 1] += np.add.reduceat(bits, edges[:-1], axis=1, dtype=np.int64).T
