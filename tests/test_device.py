"""Device interface: handle discipline, program sequencing, execution contract."""
import threading
import time

import pytest

from qlin import (
    QubitHandle,
    StateVectorBackend,
    apply_circuit,
    apply_cnot,
    apply_h,
    apply_p,
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
from qlin.device import DeviceSession, _handle_id
from qlin.errors import (
    ArityMismatch,
    CapacityExceeded,
    DanglingQubits,
    DeviceError,
    DuplicateHandle,
    UseAfterConsume,
)
from qlin.stdcircuits import h_gate


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
    b = backend()

    @qprogram
    def nested():
        q, = yield new_qubits(1)
        b.sample(h_gate(), 3)
        yield measure([q])

    with pytest.raises(DeviceError):
        execute(b, nested())


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
