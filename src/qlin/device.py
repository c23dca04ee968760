"""Abstract quantum-device interface with single-use qubit handles.

A QuantumProgram is an immutable description of an effectful computation; it
does nothing until `execute` runs it against a backend. Within one execution
every qubit handle is linear: it is produced by exactly one operation and
must be consumed by exactly one later operation (a circuit application or a
measurement). Violations raise UseAfterConsume / DuplicateHandle during the
run, and a program that returns while qubits are still live fails the final
DanglingQubits check.

A backend session implements three primitives: allocate, apply and measure.
Handles are fresh after every operation, but the qubit behind them keeps one
id from allocation to measurement, so sessions never rebind their qubits.

A backend also offers three shot methods; the coin, QAOA's cuts, the energy
estimator and CLI `simulate` take every measure-all shot (allocate, apply,
measure every wire) from them:

- `sample(circuit, shots)` gives the bits of `shots` such runs of `circuit`
  as an int8 array with one row per shot, and an empty one for `shots < 1`.
  The default executes the measure-all program once per shot.
- `counts(circuit, shots)` gives the same shots as a dict from each outcome,
  the integer its bits spell with wire 0 the most significant bit, to its
  count, and an empty one for `shots < 1`. The default asks `sample` for at
  most `_SHOT_BATCH` shots at a time and counts each batch before it asks
  for the next, so it honours a backend's `sample` and its memory does not
  grow with the shot count.
- `count_ones(prep, bases, shots)` gives, as row j of an int64 array, the
  ones on every wire over `shots` runs of one program: allocate, apply
  `prep`, apply `bases[j]`, measure every wire. The estimator measures
  every Pauli term of a Hamiltonian this way, reading the term's wire. The
  default executes that program once per shot. It takes at least one shot:
  `_check_bases` refuses a basis of another arity (ArityMismatch), then
  `shots < 1` (ValueError).

`_SHOT_BATCH`, defined here, is the one batch size: the simulator's
overrides of all three walk their (basis, shot) rows, a shot of `sample` or
`counts` being a row of one empty basis, in ranges of at most that many.

Every method, on every path, first refuses a shot count that the count rule
(see the README's Conventions) refuses with a TypeError, and refuses more
than SHOT_LIMIT shots (for `count_ones`, (basis, shot) rows) with
TooManyShots. Every refusal comes before any session is opened or any
uniform drawn.

A backend may override any of them with a faster path, but the override must
give the same bits or counts and leave the backend's randomness where the
default would. That means the state before the measurements must be the one
the default's `allocate` and `apply` calls leave, float for float, not only
closely: a probability that is 0 or 1 up to rounding decides a bit by its
last digit. An override that makes the same calls on a session of its own,
prep and then basis, agrees by construction.

Handle ids are hidden; tests may use the privileged `_handle_id` hook but
production code has no business reading them.
"""
from __future__ import annotations

import functools
import threading
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from typing import Any, Generic, TypeVar

import numpy as np

from .circuit import Circuit, _check_shot_count, _checked_count
from .errors import ArityMismatch, DanglingQubits, DeviceError, DuplicateHandle, UseAfterConsume
from .stdcircuits import cnot_gate, h_gate, p_gate

A = TypeVar("A")
B = TypeVar("B")

_TOKEN = object()
# Most shots the default `counts` asks `sample` for at once, and most (basis,
# shot) rows one walk of the simulator measures. It bounds memory, not
# outcomes, since every walk draws in shot order; both read it at call time.
_SHOT_BATCH = 2**16


class QubitHandle:
    """Opaque single-use token naming one live qubit of a running program."""

    __slots__ = ("_id", "_owner")

    def __init__(self, ident: int, owner: object, *, _token: object = None):
        if _token is not _TOKEN:
            raise TypeError("QubitHandle values are issued by device operations only")
        self._id = ident
        self._owner = owner

    def __repr__(self) -> str:
        return "<qubit>"


def _handle_id(handle: QubitHandle) -> int:
    """Privileged inspection hook for tests."""
    return handle._id


class DeviceSession(ABC):
    """Backend-facing primitives for one execution, keyed by opaque qubit ids.

    A qubit keeps the id it was allocated under until it is measured. The
    device layer owns id issuance and the linearity discipline; sessions
    only have to move quantum state around.
    """

    __slots__ = ()

    @abstractmethod
    def allocate(self, ids: Sequence[int]) -> None:
        """Add one |0> qubit per id."""

    @abstractmethod
    def apply(self, ids: Sequence[int], circuit: Circuit) -> None:
        """Apply `circuit` with its wire k acting on the qubit named ids[k]."""

    @abstractmethod
    def measure(self, ids: Sequence[int]) -> list[int]:
        """Born-rule measurement; destroys the measured qubits."""


class DeviceBackend(ABC):
    """Factory for per-execution sessions."""

    @abstractmethod
    def new_session(self) -> DeviceSession:
        ...

    def sample(self, circuit: Circuit, shots: int) -> np.ndarray:
        """Bits of `shots` runs of the measure-all program of `circuit`.

        Returns an int8 array of shape (shots, circuit.arity); row s holds
        shot s's bits in wire order. Overrides must return exactly what this
        loop returns for the same backend state, and consume the backend's
        randomness the same way.
        """
        _check_shot_count(_checked_count(shots, "shot count", None))
        program = _measure_all(circuit)
        bits = [execute(self, program) for _ in range(shots)]
        return np.array(bits, dtype=np.int8).reshape(len(bits), circuit.arity)

    def counts(self, circuit: Circuit, shots: int) -> dict[int, int]:
        """Each outcome of `shots` runs of the measure-all program of `circuit`, and its count.

        An outcome is keyed by the integer its bits spell, wire 0 the most
        significant bit. The shots are those of `sample`, asked for at most
        `_SHOT_BATCH` at a time; overrides must return exactly what this
        loop returns for the same backend state, and consume the backend's
        randomness the same way.
        """
        if _checked_count(shots, "shot count", None) < 1:
            return {}
        _check_shot_count(shots)
        tally: dict[int, int] = {}
        for done in range(0, shots, _SHOT_BATCH):
            _count_outcomes(tally, self.sample(circuit, min(_SHOT_BATCH, shots - done)))
        return tally

    def count_ones(self, prep: Circuit, bases: Sequence[Circuit], shots: int) -> np.ndarray:
        """Ones per wire over `shots` runs of: allocate, apply prep, apply bases[j], measure all.

        Returns an int64 array of shape (len(bases), prep.arity), row j per
        basis. `shots` must be at least 1 (see `_check_bases`). Overrides
        must return exactly what this loop returns for the same backend
        state, and consume the backend's randomness the same way.
        """
        _check_bases(prep, bases, shots)
        rows = []
        for basis in bases:
            program = _measure_all(prep, basis)
            rows.append(sum(np.array(execute(self, program), dtype=np.int64) for _ in range(shots)))
        return np.array(rows, dtype=np.int64).reshape(len(bases), prep.arity)


def _count_outcomes(tally: dict[int, int], bits) -> None:
    """Add each row of `bits`, one shot's bits in wire order, to `tally` under the integer it spells.

    The width is the rows', and the keys are exact at any width: below 63
    wires through int64, from 63 up as Python ints.
    """
    bits = np.asarray(bits, dtype=np.int8)
    n = bits.shape[1]
    if n < 63:
        keys, freq = np.unique(bits @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64)), return_counts=True)
        keys = keys.tolist()
    else:
        rows, freq = np.unique(bits, axis=0, return_counts=True)
        keys = [int("".join(map(str, row)), 2) for row in rows.tolist()]
    for key, count in zip(keys, freq.tolist()):
        tally[key] = tally.get(key, 0) + count


def _check_bases(prep: Circuit, bases: Sequence[Circuit], shots: int) -> None:
    """Refuse a shot count that is not an integer, a basis that does not act on
    the prep's wires, then fewer than one shot or more than SHOT_LIMIT in all,
    before any session or draw."""
    _checked_count(shots, "shot count", None)
    for basis in bases:
        if basis.arity != prep.arity:
            raise ArityMismatch(f"basis arity {basis.arity} does not match prep arity {prep.arity}")
    if shots < 1:
        raise ValueError("count_ones needs at least one shot")
    _check_shot_count(len(bases) * shots)


class _Execution:
    """Linearity bookkeeping around one session; records the op trace."""

    def __init__(self, session: DeviceSession):
        self._session = session
        self._next_id = 0
        self._live: dict[int, int] = {}  # live handle id -> qubit id
        self.trace: list[tuple[Any, ...]] = []

    def _hand_out(self, qubits: Sequence[int]) -> list[QubitHandle]:
        """Issue one fresh handle per qubit id."""
        start = self._next_id
        self._next_id += len(qubits)
        live = self._live
        handles = []
        for ident, qubit in zip(range(start, self._next_id), qubits):
            live[ident] = qubit
            handles.append(QubitHandle(ident, self, _token=_TOKEN))
        return handles

    def _consume(self, handles: Sequence[QubitHandle], arity: int | None = None) -> list[int]:
        """Check the handles' linearity (and count), retire them, return their qubit ids."""
        live = self._live
        ids = []
        seen: set[int] = set()
        for handle in handles:
            ident = handle._id
            if handle._owner is not self:
                raise UseAfterConsume("qubit handle belongs to a different execution")
            if ident in seen:
                raise DuplicateHandle("the same qubit handle was passed twice to one operation")
            seen.add(ident)
            if ident not in live:
                raise UseAfterConsume("qubit handle was already consumed")
            ids.append(ident)
        if arity is not None and arity != len(ids):
            raise ArityMismatch(f"circuit arity {arity} does not match {len(ids)} handle(s)")
        return [live.pop(ident) for ident in ids]

    def new_qubits(self, p: int) -> list[QubitHandle]:
        # a range, so a p past the session's cap costs nothing before it is refused
        qubits = range(self._next_id, self._next_id + p)
        self._session.allocate(qubits)
        self.trace.append(("new", p))
        return self._hand_out(qubits)

    def apply_circuit(self, handles: Sequence[QubitHandle], circuit: Circuit) -> list[QubitHandle]:
        qubits = self._consume(handles, circuit.arity)
        self._session.apply(qubits, circuit)
        self.trace.append(("apply", circuit.arity, circuit.gates))
        return self._hand_out(qubits)

    def measure(self, handles: Sequence[QubitHandle]) -> list[int]:
        qubits = self._consume(handles)
        bits = self._session.measure(qubits)
        self.trace.append(("measure", len(qubits)))
        return bits


class QuantumProgram(Generic[A]):
    """Composable, reusable description of a device computation returning A.

    Values are immutable; running the same program twice performs the same
    operations on fresh sessions. Sequencing is monadic: `pure` injects a
    classical value and `then` chains a continuation on the result.
    """

    __slots__ = ("_step",)

    def __init__(self, step: Callable[[_Execution], A]):
        self._step = step

    def then(self, f: Callable[[A], "QuantumProgram[B]"]) -> "QuantumProgram[B]":
        """Monadic bind: run self, feed the result to f, run f's program."""
        return QuantumProgram(lambda ex: f(self._step(ex))._step(ex))

    def map(self, f: Callable[[A], B]) -> "QuantumProgram[B]":
        return QuantumProgram(lambda ex: f(self._step(ex)))


def pure(value: A) -> QuantumProgram[A]:
    """Program that performs no device operations and returns `value`."""
    return QuantumProgram(lambda ex: value)


def qprogram(genfn):
    """Write a program as a generator: `yield` a sub-program, receive its result.

    The decorated function returns a QuantumProgram value; the generator body
    is re-instantiated on every execution, so the value stays reusable.
    """

    @functools.wraps(genfn)
    def make(*args, **kwargs) -> QuantumProgram:
        def step(ex: _Execution):
            gen = genfn(*args, **kwargs)
            try:
                prog = next(gen)
                while True:
                    prog = gen.send(prog._step(ex))
            except StopIteration as stop:
                return stop.value

        return QuantumProgram(step)

    return make


def new_qubits(p: int) -> QuantumProgram[list[QubitHandle]]:
    """Prepare p fresh qubits in |0> and return their handles.

    A count the count rule (see the README's Conventions) refuses raises
    TypeError, and a negative one ValueError, before any device operation."""
    _checked_count(p, "qubit count", 0)
    return QuantumProgram(lambda ex: ex.new_qubits(p))


def apply_circuit(
    handles: Sequence[QubitHandle], circuit: Circuit
) -> QuantumProgram[list[QubitHandle]]:
    """Apply `circuit` to the named qubits (in handle order) and return fresh handles."""
    handles = list(handles)
    return QuantumProgram(lambda ex: ex.apply_circuit(handles, circuit))


def apply_h(q: QubitHandle) -> QuantumProgram[QubitHandle]:
    return apply_circuit([q], h_gate()).map(lambda hs: hs[0])


def apply_p(alpha: float, q: QubitHandle) -> QuantumProgram[QubitHandle]:
    return apply_circuit([q], p_gate(alpha)).map(lambda hs: hs[0])


def apply_cnot(q1: QubitHandle, q2: QubitHandle) -> QuantumProgram[list[QubitHandle]]:
    return apply_circuit([q1, q2], cnot_gate())


def measure(handles: Sequence[QubitHandle]) -> QuantumProgram[list[int]]:
    """Measure and destroy the named qubits; bit k belongs to handles[k]."""
    handles = list(handles)
    return QuantumProgram(lambda ex: ex.measure(handles))


def measure_qubit(q: QubitHandle) -> QuantumProgram[int]:
    return measure([q]).map(lambda bits: bits[0])


@qprogram
def _measure_all(*circuits: Circuit):
    """One shot: allocate the circuits' arity in qubits, apply each circuit in turn, measure every wire."""
    qs = yield new_qubits(circuits[0].arity)
    for circuit in circuits:
        qs = yield apply_circuit(qs, circuit)
    bits = yield measure(qs)
    return bits


class _exclusive:
    """Hold `backend` for one execution; a nested or concurrent one on it raises DeviceError.

    Each backend gets one lock, taken without blocking. It lives in the
    instance's __dict__, so subclasses that skip DeviceBackend.__init__ get
    one too, and dict.setdefault makes two threads that create it at once
    share the first. A class rather than a generator-based context manager:
    it runs on every execute, where the generator version cost about 2 us
    more.
    """

    __slots__ = ("_lock",)

    def __init__(self, backend: DeviceBackend):
        attrs = backend.__dict__
        self._lock = attrs.get("_qlin_lock") or attrs.setdefault("_qlin_lock", threading.Lock())

    def __enter__(self) -> None:
        if not self._lock.acquire(blocking=False):
            raise DeviceError("executions may not be nested on the same backend instance")

    def __exit__(self, *exc_info: object) -> None:
        self._lock.release()


def execute(backend: DeviceBackend, program: QuantumProgram[A]) -> A:
    """Run a program on a fresh session of `backend` and return its result.

    The program must measure every qubit it allocates; leftovers raise
    DanglingQubits. Executions on one backend instance must not nest.
    """
    result, _ = execute_with_trace(backend, program)
    return result


def execute_with_trace(
    backend: DeviceBackend, program: QuantumProgram[A]
) -> tuple[A, list[tuple[Any, ...]]]:
    """As execute, additionally returning the recorded device-op trace."""
    with _exclusive(backend):
        ex = _Execution(backend.new_session())
        result = program._step(ex)
    if ex._live:
        raise DanglingQubits(len(ex._live))
    return result, ex.trace
