"""Device interface: handle discipline, program sequencing, execution contract."""
import queue
import random
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from qlin import (
    Hamiltonian,
    QubitHandle,
    StateVectorBackend,
    apply_circuit,
    apply_cnot,
    apply_h,
    apply_p,
    coin,
    compute_energy,
    execute,
    execute_with_trace,
    identity,
    measure,
    measure_qubit,
    new_qubits,
    pure,
    qprogram,
    to_bell_basis,
)
from qlin.circuit import Circuit, ControlledNot, Hadamard
from qlin.device import DeviceBackend, DeviceSession, _handle_id
from qlin.errors import (
    ArityMismatch,
    CapacityExceeded,
    DanglingQubits,
    DeviceError,
    DuplicateHandle,
    UseAfterConsume,
)
from qlin.stdcircuits import h_gate

from .oracles import DenseSession, random_circuit


def backend(seed=0):
    return StateVectorBackend(seed=seed)


@qprogram
def _alloc_and_measure(p):
    qs = yield new_qubits(p)
    bits = yield measure(qs)
    return bits


def test_new_qubits_zero():
    result, trace = execute_with_trace(backend(), _alloc_and_measure(0))
    assert result == []
    assert trace == [("new", 0), ("measure", 0)]


def test_fresh_qubits_measure_zero():
    assert execute(backend(), _alloc_and_measure(3)) == [0, 0, 0]


def test_handles_are_distinct_and_opaque():
    ids = []

    @qprogram
    def program():
        qs = yield new_qubits(2)
        ids.extend(_handle_id(q) for q in qs)
        yield measure(qs)

    execute(backend(), program())
    assert len(set(ids)) == 2
    with pytest.raises(TypeError):
        QubitHandle(0, None)
    assert repr_has_no_id()


def repr_has_no_id():
    holder = []

    @qprogram
    def program():
        qs = yield new_qubits(1)
        holder.append(repr(qs[0]))
        yield measure(qs)

    execute(backend(), program())
    return holder[0] == "<qubit>"


def test_handle_freshness_across_operations():
    seen = []

    @qprogram
    def program():
        qs = yield new_qubits(2)
        seen.extend(map(_handle_id, qs))
        qs = yield apply_circuit(qs, to_bell_basis())
        seen.extend(map(_handle_id, qs))
        q = yield apply_h(qs[0])
        seen.append(_handle_id(q))
        yield measure([q, qs[1]])

    execute(backend(), program())
    assert len(seen) == len(set(seen))


def test_session_contract_is_three_primitives():
    assert DeviceSession.__abstractmethods__ == {"allocate", "apply", "measure"}


def test_apply_h_trace_matches_circuit_form():
    @qprogram
    def special():
        q, = yield new_qubits(1)
        q = yield apply_h(q)
        yield measure([q])

    @qprogram
    def general():
        q, = yield new_qubits(1)
        qs = yield apply_circuit([q], h_gate())
        yield measure(qs)

    _, trace_special = execute_with_trace(backend(1), special())
    _, trace_general = execute_with_trace(backend(1), general())
    assert trace_special == trace_general


def test_apply_p_zero_keeps_statistics():
    @qprogram
    def with_phase():
        q, = yield new_qubits(1)
        q = yield apply_h(q)
        q = yield apply_p(0.0, q)
        bit = yield measure_qubit(q)
        return bit

    @qprogram
    def without_phase():
        q, = yield new_qubits(1)
        q = yield apply_h(q)
        bit = yield measure_qubit(q)
        return bit

    # same amplitudes, same uniform stream, so outcomes match draw for draw
    b1, b2 = backend(5), backend(5)
    for _ in range(200):
        assert execute(b1, with_phase()) == execute(b2, without_phase())


def test_bell_measurement_correlated():
    @qprogram
    def bell():
        qs = yield new_qubits(2)
        qs = yield apply_circuit(qs, to_bell_basis())
        bits = yield measure(qs)
        return tuple(bits)

    b = backend(11)
    outcomes = {execute(b, bell()) for _ in range(500)}
    assert outcomes == {(0, 0), (1, 1)}


def test_duplicate_handle_rejected():
    @qprogram
    def program():
        q, = yield new_qubits(1)
        yield apply_cnot(q, q)

    with pytest.raises(DuplicateHandle):
        execute(backend(), program())


def test_use_after_consume_rejected():
    @qprogram
    def program():
        q, = yield new_qubits(1)
        fresh = yield apply_h(q)
        stale = yield apply_h(q)
        yield measure([fresh, stale])

    with pytest.raises(UseAfterConsume):
        execute(backend(), program())


def test_measured_handle_is_consumed():
    @qprogram
    def program():
        q, = yield new_qubits(1)
        yield measure([q])
        yield measure([q])

    with pytest.raises(UseAfterConsume):
        execute(backend(), program())


def test_foreign_handle_rejected():
    smuggled = []

    @qprogram
    def smuggle():
        q, = yield new_qubits(1)
        smuggled.append(q)
        yield measure([q])

    execute(backend(), smuggle())

    @qprogram
    def use_foreign():
        q, = yield new_qubits(1)
        yield measure([smuggled[0]])
        yield measure([q])

    with pytest.raises(UseAfterConsume):
        execute(backend(), use_foreign())


def test_arity_mismatch_rejected():
    @qprogram
    def program():
        qs = yield new_qubits(2)
        yield apply_circuit(qs, h_gate())

    with pytest.raises(ArityMismatch):
        execute(backend(), program())


def test_dangling_qubits_rejected():
    @qprogram
    def program():
        qs = yield new_qubits(2)
        bit = yield measure_qubit(qs[0])
        return bit

    with pytest.raises(DanglingQubits):
        execute(backend(), program())


def test_execute_pure_program():
    assert execute(backend(), pure(True)) is True


def test_execute_not_reentrant():
    b = backend()

    @qprogram
    def nested():
        q, = yield new_qubits(1)
        execute(b, pure(0))
        yield measure([q])

    with pytest.raises(DeviceError):
        execute(b, nested())
    # the guard resets, so the backend is usable afterwards
    assert execute(b, pure(7)) == 7


def test_sample_inside_execute_is_nested():
    # both shot methods refuse to run inside an execution: sample and
    # count_ones; neither draws, and the backend is usable afterwards
    b, reference = backend(), backend()
    prep = Circuit(2, [Hadamard(0), ControlledNot(0, 1)])
    for shots in (lambda: b.sample(h_gate(), 3), lambda: b.count_ones(prep, [identity(2)], 3)):

        @qprogram
        def nested():
            q, = yield new_qubits(1)
            shots()
            yield measure([q])

        with pytest.raises(DeviceError):
            execute(b, nested())
        assert execute(b, pure(7)) == 7
        basis = Circuit(2, [Hadamard(0)])
        assert np.array_equal(b.count_ones(prep, [basis], 40), reference.count_ones(prep, [basis], 40))


class _RacingBackend(StateVectorBackend):
    """Two threads execute on it at once: it lines them up on the guard and
    keeps the first inside its session until released."""

    def __init__(self):
        super().__init__(seed=0)
        self.looked = threading.Barrier(2)
        self.inside: list[str] = []
        self.leave = threading.Event()

    def __getattr__(self, name):
        # a guard that checks an attribute and then sets it looks it up here
        # while it is unset; hold each thread until both have looked
        try:
            self.looked.wait(timeout=1)
        except threading.BrokenBarrierError:
            pass
        raise AttributeError(name)

    def new_session(self):
        self.inside.append(threading.current_thread().name)
        self.leave.wait(timeout=5)
        return super().new_session()


def test_two_threads_on_one_backend_get_one_device_error():
    b = _RacingBackend()
    done, refused = [], []

    def run():
        try:
            done.append(execute(b, pure(1)))
        except DeviceError as err:
            refused.append(str(err))

    threads = [threading.Thread(target=run) for _ in range(2)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 5
    while not (refused or len(b.inside) == 2) and time.monotonic() < deadline:
        time.sleep(0.001)
    b.leave.set()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert done == [1]
    assert refused == ["executions may not be nested on the same backend instance"]
    assert execute(b, pure(7)) == 7


def test_sample_capacity_error_releases_the_backend():
    b = StateVectorBackend(seed=0, max_qubits=2)
    with pytest.raises(CapacityExceeded):
        b.sample(identity(3), 5)
    assert execute(b, pure(7)) == 7
    assert b.sample(identity(2), 2).tolist() == [[0, 0], [0, 0]]


def test_sample_capacity_error_draws_nothing():
    b = StateVectorBackend(seed=5, max_qubits=2)
    with pytest.raises(CapacityExceeded):
        b.sample(identity(3), 5)
    bell = to_bell_basis()
    assert b.sample(bell, 40).tolist() == StateVectorBackend(seed=5).sample(bell, 40).tolist()


_WIDE_PREPS = {
    "3": (3, [Hadamard(1)]),
    "1000000000000": (10**12, [Hadamard(1)]),
    "3-shared": (3, [Hadamard(0), ControlledNot(0, 1)]),
}


@pytest.mark.parametrize(
    "arity, gates, shots",
    [pytest.param(*_WIDE_PREPS[name], shots, id=name if shots == 5 else f"{name}-shots{shots}")
     for shots in (5, 0, -1) for name in _WIDE_PREPS],
)
def test_count_ones_capacity_error_draws_nothing(arity, gates, shots):
    # refused as sample refuses it, at once however wide and whatever the
    # shots, before any draw or any array is made
    b = StateVectorBackend(seed=5, max_qubits=2)
    prep = Circuit(arity, gates)
    with pytest.raises(CapacityExceeded):
        b.count_ones(prep, [identity(arity)], shots)
    assert execute(b, pure(7)) == 7
    bell = to_bell_basis()
    assert b.sample(bell, 40).tolist() == StateVectorBackend(seed=5).sample(bell, 40).tolist()


@pytest.mark.parametrize("shots", [5, 0, -1])
def test_count_ones_with_no_bases_refuses_no_width(shots):
    # nothing is measured, so a prep wider than the cap still gives its
    # (0, arity) counts, on both paths, and nothing is drawn; an all-identity
    # Hamiltonian on such a register is still its coefficients' sum
    b = StateVectorBackend(seed=5, max_qubits=2)
    wide = Circuit(10**12, [Hadamard(1)])
    for counts in (b.count_ones(wide, [], shots), DeviceBackend.count_ones(b, wide, [], shots)):
        assert counts.dtype == np.int64 and counts.shape == (0, 10**12)
    assert compute_energy(b, identity(3), Hamiltonian(((2.0, "III"), (-0.5, "III"))), 5) == 1.5
    bell = to_bell_basis()
    assert b.sample(bell, 40).tolist() == StateVectorBackend(seed=5).sample(bell, 40).tolist()


def test_count_ones_refuses_a_basis_of_another_arity():
    # a basis on fewer or more wires than the prep is an ArityMismatch on
    # both paths, whatever the shots, before anything is drawn
    b = StateVectorBackend(seed=5)
    prep = Circuit(2, [Hadamard(0), ControlledNot(0, 1)])
    for basis in (identity(1), identity(3)):
        for shots in (5, 0):
            for count_ones in (b.count_ones, lambda *args: DeviceBackend.count_ones(b, *args)):
                with pytest.raises(ArityMismatch):
                    count_ones(prep, [identity(2), basis], shots)
    bell = to_bell_basis()
    assert b.sample(bell, 40).tolist() == StateVectorBackend(seed=5).sample(bell, 40).tolist()


@pytest.mark.parametrize("p", [25, 10**6, 10**12, 2**63, 2**100])
def test_new_qubits_past_the_cap_fails_before_building_ids(p):
    # the session sees a range, so no p costs memory or overflows before the cap refuses it
    b = backend(4)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityExceeded) as err:
            execute(b, _alloc_and_measure(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.requested, err.value.limit) == (p, 24)
    assert peak < 2**20
    assert coin(b) == coin(backend(4))


def test_programs_are_reusable_values():
    program = _alloc_and_measure(1)
    assert execute(backend(3), program) == execute(backend(3), program)


# monad laws, observed on device-op traces

def _f(x):
    @qprogram
    def body():
        qs = yield new_qubits(x)
        bits = yield measure(qs)
        return len(bits)

    return body()


def test_monad_left_identity():
    lhs = pure(2).then(_f)
    rhs = _f(2)
    assert execute_with_trace(backend(0), lhs) == execute_with_trace(backend(0), rhs)


def test_monad_right_identity():
    program = _alloc_and_measure(2)
    lhs = program.then(pure)
    assert execute_with_trace(backend(0), lhs) == execute_with_trace(backend(0), program)


def test_monad_associativity():
    def g(n):
        return pure(n + 1)

    program = _alloc_and_measure(1)
    lhs = program.then(lambda bits: _f(len(bits)).then(g))
    rhs = program.then(lambda bits: _f(len(bits))).then(g)
    assert execute_with_trace(backend(0), lhs) == execute_with_trace(backend(0), rhs)


def test_map_transforms_result_only():
    program = _alloc_and_measure(2).map(tuple)
    result, trace = execute_with_trace(backend(0), program)
    assert result == (0, 0)
    assert trace == [("new", 2), ("measure", 2)]


# a stateful property: random device operations against a model

class _RecordingBackend(StateVectorBackend):
    """A StateVectorBackend that keeps its latest session, to read its state."""

    def new_session(self):
        self.session = super().new_session()
        return self.session


class _Stepper:
    """One `execute` on a worker thread, running the operations sent to it one at a time.

    `step(op)` runs the program `op` as the execution's next operation and
    returns its result, or the exception that ended the execution. `finish()`
    lets the program return, and gives what `execute` then returned or raised.
    """

    TIMEOUT = 30.0

    def __init__(self, backend):
        self._ops: queue.Queue = queue.Queue()
        self._results: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._run, args=(backend,), daemon=True)
        self._thread.start()

    def _run(self, backend):
        try:
            outcome = execute(backend, self._program())
        except Exception as err:  # handed to the test thread, which checks its type
            outcome = err
        self._results.put(outcome)

    @qprogram
    def _program(self):
        while (op := self._ops.get(timeout=self.TIMEOUT)) is not None:
            self._results.put((yield op))
        return "returned"

    def step(self, op):
        self._ops.put(op)
        outcome = self._results.get(timeout=self.TIMEOUT)
        if isinstance(outcome, Exception):
            self._join()
        return outcome

    def finish(self):
        outcome = self.step(None)
        self._join()
        return outcome

    def _join(self):
        self._thread.join(self.TIMEOUT)
        assert not self._thread.is_alive()


class DeviceMachine(RuleBasedStateMachine):
    """Allocate, apply and measure on one backend, faults included.

    A model of live handles predicts each typed error and which of several
    faults is reported first: `_consume` looks at the handles in order (a
    foreign one, then one repeated within the call, then a consumed one),
    and at the arity last. A dense reference session, drawing from a copy of
    the backend's random stream, predicts every bit exactly and the state
    within rounding. An error ends the execution, as it does in `execute`,
    and the next operation starts a new one.
    """

    CAP = 5

    @initialize(seed=st.integers(0, 2**64 - 1))
    def start(self, seed):
        self.backend = _RecordingBackend(seed=seed, max_qubits=self.CAP)
        self.uniform = random.Random(seed).random
        self.foreign: list = []  # handles of earlier executions
        self.stepper = None

    def _execution(self) -> _Stepper:
        if self.stepper is None:
            self.stepper = _Stepper(self.backend)
            self.reference = DenseSession(self.uniform)
            self.live: dict = {}  # live handle -> the qubit it names
            self.spent: list = []  # handles consumed in this execution
            self.names = 0
        return self.stepper

    def _end(self):
        self.foreign += [*self.live, *self.spent]
        self.stepper = None

    def _pick(self, data) -> list:
        """Distinct live handles, sometimes with stale, repeated or foreign ones among them."""
        handles = data.draw(st.lists(st.sampled_from(list(self.live)), unique=True)) if self.live else []
        for _ in range(data.draw(st.sampled_from([0, 0, 0, 0, 1, 1, 2]))):
            pools = [pool for pool in (self.spent, handles, self.foreign) if pool]
            if pools:
                bad = data.draw(st.sampled_from(data.draw(st.sampled_from(pools))))
                handles.insert(data.draw(st.integers(0, len(handles))), bad)
        return handles

    def _error(self, handles, arity=None):
        """The error `_consume` should raise for `handles`, or None."""
        seen = set()
        for handle in handles:
            if handle in self.foreign:
                return UseAfterConsume
            if handle in seen:
                return DuplicateHandle
            seen.add(handle)
            if handle not in self.live:
                return UseAfterConsume
        if arity is not None and arity != len(handles):
            return ArityMismatch
        return None

    def _outcome(self, op, error):
        """Run `op`; if `error` is expected, check that the execution ended with it."""
        outcome = self._execution().step(op)
        if isinstance(outcome, Exception):
            self._end()
        assert type(outcome) is error if error else not isinstance(outcome, Exception), outcome
        return None if error else outcome

    def _issued(self, handles, names):
        known = [*self.live, *self.spent, *self.foreign]
        assert len(handles) == len(names) == len(set(handles))
        assert not any(h in known for h in handles)
        self.live.update(zip(handles, names))

    def _consumed(self, handles) -> list:
        self.spent += handles
        return [self.live.pop(h) for h in handles]

    def _check_state(self):
        amplitudes = self.backend.session.amplitudes
        np.testing.assert_allclose(amplitudes, self.reference.vector, rtol=0, atol=1e-9)

    @rule(p=st.integers(0, 3))
    def allocate(self, p):
        self._execution()
        requested = len(self.live) + p
        handles = self._outcome(new_qubits(p), CapacityExceeded if requested > self.CAP else None)
        if handles is not None:
            names = list(range(self.names, self.names + p))
            self.names += p
            self.reference.allocate(names)
            self._issued(handles, names)
            self._check_state()

    @rule(data=st.data())
    def apply(self, data):
        self._execution()
        handles = self._pick(data)
        arity = max(0, len(handles) + data.draw(st.sampled_from([0, 0, 0, 1, -1])))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        circuit = random_circuit(rng, arity, data.draw(st.integers(0, 6)))
        fresh = self._outcome(apply_circuit(handles, circuit), self._error(handles, arity))
        if fresh is not None:
            names = self._consumed(handles)
            self.reference.apply(names, circuit)
            self._issued(fresh, names)
            self._check_state()

    @rule(data=st.data())
    def measure(self, data):
        self._execution()
        handles = self._pick(data)
        bits = self._outcome(measure(handles), self._error(handles))
        if bits is not None:
            assert bits == self.reference.measure(self._consumed(handles))
            self._check_state()

    @rule()
    def finish(self):
        outcome = self._execution().finish()
        live = len(self.live)
        self._end()
        if live:
            assert type(outcome) is DanglingQubits and outcome.count == live, outcome
        else:
            assert outcome == "returned", outcome

    def teardown(self):
        if getattr(self, "stepper", None) is not None:
            self.stepper.finish()


DeviceMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None, derandomize=True
)
TestDeviceMachine = DeviceMachine.TestCase
