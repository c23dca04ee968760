"""State-vector backend: state ops, oracle agreement, statistics, determinism."""
import copy
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qlin
from qlin import (
    Hamiltonian,
    RandomSource,
    StateVectorBackend,
    ansatz,
    apply,
    apply_circuit,
    coin,
    compose,
    compute_energy,
    encoding_unitary,
    execute,
    h_gate,
    identity,
    matrix_of,
    measure,
    new_qubits,
    qprogram,
    to_bell_basis,
)
from qlin.circuit import SHOT_LIMIT, Circuit, ControlledNot, Hadamard, Phase
from qlin.device import DeviceBackend
from qlin.errors import CapacityExceeded, TooManyShots
from qlin import device, kernels, simulator
from qlin.simulator import QuantumState, derive_seed

from .oracles import FixedRandom, assert_close, basis_state, dense_unitary, random_circuit


def fresh_state(ids, rand=None) -> QuantumState:
    state = QuantumState(rand or RandomSource(0))
    state.allocate(ids)
    return state


def gate_by_gate(state: QuantumState, gates) -> None:
    """Apply each gate as a one-gate circuit over all of the state's wires."""
    n = len(state.registry)
    for gate in gates:
        state.apply(range(n), Circuit(n, [gate]))


def bell_state_2q(rand=None) -> QuantumState:
    state = fresh_state([0, 1], rand)
    gate_by_gate(state, [Hadamard(0), ControlledNot(0, 1)])
    return state


# allocate

def test_extend_from_empty():
    state = fresh_state([0, 1])
    assert_close(state.amplitudes, [1, 0, 0, 0])
    assert state.registry == {0: 0, 1: 1}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 10), st.integers(0, 3), st.integers(0, 2**32 - 1), st.booleans())
@example(0, 2, 0, False)  # an empty session carrying a phase
@example(0, 2, 0, True)  # an empty session: fresh
@example(3, 1, 0, True)  # allocate's |000>, extended: not fresh
def test_allocate_is_the_kronecker_product_with_zeros(n, p, seed, untouched):
    # on an empty session as on a live one, every entry is the one np.kron
    # gives; only an empty session whose entry 0 is exactly 1 becomes fresh,
    # a state that allocate extends never does, and no wires change nothing
    state = fresh_state(range(n))
    if not untouched:  # n random amplitudes, or a phase on an empty session
        rng = np.random.default_rng(seed)
        start = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state.amplitudes = start / np.linalg.norm(start)
    before, fresh = state.amplitudes.copy(), state._zero is state.amplitudes
    state.allocate(range(n, n + p))
    zeros = np.zeros(2**p, dtype=complex)
    zeros[0] = 1
    assert np.array_equal(state.amplitudes, np.kron(before, zeros))
    assert state.registry == {i: i for i in range(n + p)}
    assert (state._zero is state.amplitudes) == (fresh if p == 0 else n == 0 and before[0] == 1)


def test_extending_a_wide_state_holds_nothing_beside_it():
    # no ufunc buffer (256 KiB) and no second copy of the new state
    n = 18
    state = fresh_state(range(n))
    state.apply(range(n), Circuit(n, [Hadamard(w) for w in range(n)]))
    tracemalloc.start()
    try:
        state.allocate([n])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** (n + 1) * 16 + 4096


def test_extend_by_zero_is_noop():
    state = bell_state_2q()
    before = state.amplitudes.copy()
    state.allocate([])
    assert_close(state.amplitudes, before)
    assert state.registry == {0: 0, 1: 1}


# apply, one gate at a time

def test_hadamard_on_zero():
    state = fresh_state([0])
    gate_by_gate(state, [Hadamard(0)])
    assert_close(state.amplitudes, np.array([1, 1]) / math.sqrt(2))


def test_phase_pi_flips_sign():
    state = fresh_state([0])
    gate_by_gate(state, [Hadamard(0), Phase(math.pi, 0)])
    assert_close(state.amplitudes, np.array([1, -1]) / math.sqrt(2))


def test_cnot_permutes_basis():
    state = fresh_state([0, 1])
    state.amplitudes = basis_state(2, 0b10)
    gate_by_gate(state, [ControlledNot(0, 1)])
    assert_close(state.amplitudes, basis_state(2, 0b11))


@pytest.mark.parametrize("seed", range(8))
def test_apply_gate_agrees_with_matrix_embedding(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    circuit = random_circuit(rng, n, 12)
    state = fresh_state(range(n))
    start = np.array([rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(2**n)])
    start /= np.linalg.norm(start)
    state.amplitudes = start.copy()
    gate_by_gate(state, circuit.gates)
    assert_close(state.amplitudes, matrix_of(circuit) @ start)
    # matrix_of runs the same kernels, so check against an independent oracle too
    assert_close(state.amplitudes, dense_unitary(circuit) @ start)


def assert_session_matches_remapped_circuit(rng, m, circuit, ids):
    # a session runs circuit wire k on the qubit named ids[k]; that must equal
    # applying apply(c, identity(m), ids) to the whole state: bit for bit as
    # one circuit, whose fused passes are the same, and to rounding gate by gate
    start = np.array([rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(2**m)])
    start /= np.linalg.norm(start)

    session = StateVectorBackend(seed=0).new_session()
    session.allocate(list(range(m)))
    session.amplitudes = start.copy()
    session.apply(ids, circuit)

    remapped = apply(circuit, identity(m), ids)
    whole = fresh_state(range(m))
    whole.amplitudes = start.copy()
    whole.apply(range(m), remapped)
    assert np.array_equal(session.amplitudes, whole.amplitudes)

    reference = fresh_state(range(m))
    reference.amplitudes = start.copy()
    gate_by_gate(reference, remapped.gates)
    assert_close(session.amplitudes, reference.amplitudes, tol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_session_apply_matches_apply_gate_on_remapped_circuit(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 6)
    n = rng.randint(1, m)
    circuit = random_circuit(rng, n, 15)
    assert_session_matches_remapped_circuit(rng, m, circuit, rng.sample(range(m), n))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_session_apply_matches_remapped_circuit_on_large_states(seed):
    # above the kernels' small-state size a layer of one-wire passes forms
    # its dense blocks on state wires, so both calls form the same blocks;
    # the qubits are often a shuffled run of consecutive wires, which blocks
    rng = random.Random(seed)
    m = rng.randint(13, 14)
    n = rng.randint(2, 8)
    first = rng.randint(0, m - n)
    ids = rng.sample(range(first, first + n) if rng.random() < 0.5 else range(m), n)
    assert_session_matches_remapped_circuit(rng, m, random_circuit(rng, n, 40), ids)


@st.composite
def grouping_edges(draw):
    """A circuit on n of 13 or 14 wires, its wire map, and whether it opens with a lone pass.

    Its plan sets the edge cases of grouping one-wire passes on a large state
    next to each other: a run closed by a repeated wire, a lone pass between
    CNOTs, a layer right after a diagonal, and an opening that is a lone pass
    (which takes no product start) or a layer (which takes one).
    """
    m = draw(st.integers(13, 14))
    n = draw(st.integers(3, 8))
    ids = draw(st.permutations(range(m)))[:n]

    def one_wire(w):  # a run that opens with an H, so it never joins a run of CNOTs
        if draw(st.booleans()):
            return [Hadamard(w)]
        a, b = draw(st.floats(-7.0, 7.0)), draw(st.floats(-7.0, 7.0))
        return [Hadamard(w), Phase(a, w), Hadamard(w), Phase(b, w)]

    def wires(least):
        return draw(st.permutations(range(n)))[: draw(st.integers(least, n))]

    def layer():
        return [g for w in wires(2) for g in one_wire(w)]

    def gadget():  # CNOT.P.CNOT, whose phase is never 1: one diagonal pass
        u, v = wires(2)[:2]
        return [ControlledNot(u, v), Phase(draw(st.floats(0.1, 3.0)), v), ControlledNot(u, v)]

    lone = draw(st.booleans())
    gates = (one_wire(draw(st.integers(0, n - 1))) + gadget()) if lone else layer()
    for kind in draw(st.lists(st.sampled_from(["closed", "lone", "after-diagonal"]), min_size=1, max_size=6)):
        if kind == "closed":  # runs on distinct wires, then on the first of them again
            run = wires(2)
            gates += [g for w in run + run[:1] for g in one_wire(w)]
        elif kind == "lone":
            gates += [ControlledNot(*wires(2)[:2]), *one_wire(draw(st.integers(0, n - 1))),
                      ControlledNot(*wires(2)[:2])]
        else:
            gates += gadget() + layer()
    return m, ids, lone, Circuit(n, gates)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(grouping_edges(), st.integers(0, 10_000))
def test_session_apply_matches_remapped_circuit_at_the_edges_of_a_layer(program, seed):
    m, ids, lone, circuit = program
    assert_session_matches_remapped_circuit(random.Random(seed), m, circuit, ids)
    # and fresh from allocate, where only an opening layer is a product start
    session = fresh_state(range(m))
    with pytest.MonkeyPatch.context() as patch:
        calls = _spy_product_start(patch)
        session.apply(ids, circuit)
    assert calls == ([] if lone else [2**m])
    remapped = apply(circuit, identity(m), ids)
    whole = fresh_state(range(m))
    whole.apply(range(m), remapped)
    assert np.array_equal(session.amplitudes, whole.amplitudes)
    reference = fresh_state(range(m))
    gate_by_gate(reference, remapped.gates)
    assert_close(session.amplitudes, reference.amplitudes, tol=1e-12)


def _opening_layer(rng, n, h_only):
    """A layer of one-wire runs on 2 to n of n wires: H, Ps only or a mixed run each."""
    gates = []
    for w in rng.sample(range(n), rng.randint(2, n)):
        kind = "H" if h_only else rng.choice(["H", "P", "2x2"])
        if kind == "H":
            gates.append(Hadamard(w))
        elif kind == "P":
            gates += [Phase(rng.uniform(-7, 7), w) for _ in range(rng.randint(1, 2))]
        else:
            gates += [Phase(rng.uniform(-7, 7), w), Hadamard(w), Phase(rng.uniform(-7, 7), w)]
    return gates


def _dense_path(start, wires, circuit):
    """`circuit` applied to a copy of `start` by the plan's passes alone, with no product start."""
    out = start.copy()
    kernels.apply_plan(out, circuit._plan, wires)
    return out


def _spy_product_start(monkeypatch):
    """Record the size of each state `kernels._product_start` writes."""
    calls = []
    product_start = kernels._product_start
    monkeypatch.setattr(kernels, "_product_start", lambda *a: calls.append(len(a[0])) or product_start(*a))
    return calls


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.booleans())
def test_fresh_session_starts_its_opening_layer_as_a_product(seed, h_only):
    # a session fresh from allocate writes a leading layer as the outer
    # product of its blocks' first columns: equal to the dense blocks for a
    # real layer and within rounding otherwise, and still bit for bit the
    # relabelled circuit's state
    rng = random.Random(seed)
    m = rng.randint(13, 15)
    n = rng.randint(2, m)
    first = rng.randint(0, m - n)
    ids = rng.sample(range(first, first + n) if rng.random() < 0.5 else range(m), n)
    gates = _opening_layer(rng, n, h_only) + list(random_circuit(rng, n, 20).gates)
    circuit = Circuit(n, gates)

    session = fresh_state(range(m))
    with pytest.MonkeyPatch.context() as patch:
        calls = _spy_product_start(patch)
        session.apply(ids, circuit)
    assert calls == [2**m]
    dense = fresh_state(range(m))
    dense.amplitudes = dense.amplitudes.copy()  # |0...0>, but not the array allocate left
    dense.apply(ids, circuit)
    if h_only:
        assert np.array_equal(session.amplitudes, dense.amplitudes)
    else:
        assert np.max(np.abs(session.amplitudes - dense.amplitudes)) <= 1e-15

    whole = fresh_state(range(m))
    whole.apply(range(m), apply(circuit, identity(m), ids))
    assert np.array_equal(session.amplitudes, whole.amplitudes)


def test_fresh_session_takes_the_product_start_once(monkeypatch):
    # only the first apply after allocate, and only above the small state
    calls = _spy_product_start(monkeypatch)
    layer = Circuit(13, [Hadamard(w) for w in range(13)])
    state = fresh_state(range(13))
    state.apply(range(13), layer)
    state.apply(range(13), layer)
    fresh_state(range(12)).apply(range(12), Circuit(12, [Hadamard(w) for w in range(12)]))
    assert calls == [2**13]


def _complex_layer(m, seed):
    return Circuit(m, _opening_layer(random.Random(seed), m, False))


def test_replaced_amplitudes_take_the_dense_path():
    m = 13
    layer = _complex_layer(m, 1)
    rng = np.random.default_rng(1)
    start = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
    start /= np.linalg.norm(start)
    state = fresh_state(range(m))
    state.amplitudes = start.copy()
    state.apply(range(m), layer)
    assert np.array_equal(state.amplitudes, _dense_path(start, range(m), layer))


def test_a_state_measured_and_then_extended_takes_the_dense_path():
    m = 13
    layer = _complex_layer(m, 2)
    state = fresh_state(range(m), RandomSource(4))
    state.apply(range(m), random_circuit(random.Random(4), m, 60))
    state.measure([3, 7, 11])
    state.allocate([20, 21, 22])
    ids = sorted(state.registry, key=state.registry.get)
    start = state.amplitudes.copy()
    state.apply(ids, layer)
    assert np.array_equal(state.amplitudes, _dense_path(start, range(m), layer))


def test_a_phase_left_by_measuring_every_qubit_is_kept():
    # measuring the last qubit leaves one amplitude, here e^0.7i; the state
    # allocated after it is that phase times |0...0>, so it is not fresh
    state = fresh_state([0], FixedRandom([0.0]))
    state.apply([0], Circuit(1, [Hadamard(0), Phase(0.7, 0)]))
    assert state.measure([0]) == [1]
    assert state.amplitudes[0] != 1
    m = 13
    state.allocate(range(m))
    start = state.amplitudes.copy()
    layer = _complex_layer(m, 3)
    state.apply(range(m), layer)
    assert np.array_equal(state.amplitudes, _dense_path(start, range(m), layer))


@pytest.mark.parametrize("prep", [identity(13), Circuit(13, [Hadamard(0), Phase(math.pi, 0), Hadamard(0)])])
def test_count_ones_start_rows_take_the_dense_path(prep, monkeypatch):
    # each basis runs on a copy of the prepared state that its session holds
    # as its amplitudes, never as the state allocate left, also when the prep
    # has no passes and the copy is |0...0>
    m = 13
    bases = [_complex_layer(m, seed) for seed in range(8, 12)]  # 9 and 10 round differently as products
    walks = _recorded_walks(monkeypatch)
    calls = _spy_product_start(monkeypatch)
    StateVectorBackend(seed=0).count_ones(prep, bases, 1)
    assert calls == []
    prepared = fresh_state(range(m))
    prepared.apply(range(m), prep)
    rows = [rows[0] for rows, _, _ in walks]
    assert len(rows) == len(bases)
    for row, basis in zip(rows, bases):
        assert np.array_equal(row, _dense_path(prepared.amplitudes, range(m), basis))


def test_normalisation_preserved():
    rng = random.Random(99)
    state = fresh_state([0, 1, 2])
    for gate in random_circuit(rng, 3, 40).gates:
        gate_by_gate(state, [gate])
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-9


# measure

def test_measure_basis_state_deterministic():
    for scripted in ([0.0], [0.999999]):
        state = fresh_state([7], FixedRandom(scripted))
        assert state.measure([7]) == [0]
        assert_close(state.amplitudes, [1.0])
        assert state.registry == {}


def test_measure_decision_rule():
    state = fresh_state([0], FixedRandom([0.3]))
    gate_by_gate(state, [Hadamard(0)])
    assert state.measure([0]) == [1]  # u < p1 with u=0.3, p1=0.5
    assert_close(state.amplitudes, [1.0])


def test_measure_bell_wire_collapses_partner():
    state = bell_state_2q(FixedRandom([0.7]))
    assert state.measure([0]) == [0]  # u >= 0.5 picks outcome 0
    assert_close(state.amplitudes, [1, 0])
    assert state.registry == {1: 0}


def test_registry_reindexes_after_middle_measurement():
    state = fresh_state([10, 11, 12], FixedRandom([0.5]))
    state.measure([11])
    assert state.registry == {10: 0, 12: 1}


def test_quantum_state_has_only_the_three_primitives():
    # the state is reached through the device primitives alone, so a wrapper
    # around the session class sees one span per primitive
    public = {name for name, value in vars(QuantumState).items() if callable(value) and not name.startswith("_")}
    assert public == {"allocate", "apply", "measure"}
    with pytest.raises(TypeError):
        QuantumState()


# backend behaviour

@qprogram
def _bell_shot():
    qs = yield new_qubits(2)
    qs = yield apply_circuit(qs, to_bell_basis())
    bits = yield measure(qs)
    return "".join(map(str, bits))


def test_statistics_match_born_rule():
    backend = StateVectorBackend(seed=13)
    program = _bell_shot()
    counts = Counter(execute(backend, program) for _ in range(20000))
    assert set(counts) == {"00", "11"}
    probs = np.abs(matrix_of(to_bell_basis()) @ basis_state(2, 0)) ** 2
    assert abs(counts["00"] / 20000 - probs[0b00]) < 0.02
    assert abs(counts["11"] / 20000 - probs[0b11]) < 0.02


def test_random_circuit_statistics_match_amplitudes():
    rng = random.Random(4)
    circuit = random_circuit(rng, 2, 10)

    @qprogram
    def shot():
        qs = yield new_qubits(2)
        qs = yield apply_circuit(qs, circuit)
        bits = yield measure(qs)
        return bits[0] * 2 + bits[1]

    backend = StateVectorBackend(seed=21)
    program = shot()
    counts = Counter(execute(backend, program) for _ in range(20000))
    probs = np.abs(matrix_of(circuit) @ basis_state(2, 0)) ** 2
    for outcome in range(4):
        assert abs(counts[outcome] / 20000 - probs[outcome]) < 0.02


def test_seeded_runs_are_identical():
    def outcomes(seed):
        backend = StateVectorBackend(seed=seed)
        program = _bell_shot()
        return [execute(backend, program) for _ in range(100)]

    assert outcomes(42) == outcomes(42)
    assert outcomes(42) != outcomes(43)


def test_capacity_cap():
    backend = StateVectorBackend(seed=0, max_qubits=3)

    @qprogram
    def program():
        qs = yield new_qubits(4)
        yield measure(qs)

    with pytest.raises(CapacityExceeded):
        execute(backend, program())


_NOT_INT_CAPS = pytest.mark.parametrize("cap", [True, np.bool_(True), 2.5, 24.0, "24", None],
                                        ids=["bool", "numpy-bool", "float", "integral-float", "str", "None"])


@_NOT_INT_CAPS
def test_backend_refuses_a_qubit_cap_that_is_not_an_int(cap):
    # with max_qubits=True a CNOT sample would otherwise fail with "capped at True"
    with pytest.raises(TypeError, match=f"qubit cap of type {type(cap).__name__}, not an int"):
        StateVectorBackend(seed=0, max_qubits=cap)


@_NOT_INT_CAPS
def test_session_refuses_a_qubit_cap_that_is_not_an_int(cap):
    rand = RandomSource(0)
    with pytest.raises(TypeError, match=f"qubit cap of type {type(cap).__name__}, not an int"):
        QuantumState(rand, cap)
    assert rand.uniform() == RandomSource(0).uniform()


def test_a_numpy_integer_qubit_cap_is_kept():
    backend = StateVectorBackend(seed=0, max_qubits=np.int64(2))
    assert backend.sample(to_bell_basis(), 4).shape == (4, 2)


@pytest.mark.parametrize("cap", [-1, np.int64(-3), -(2**70)], ids=["int", "numpy-int", "huge"])
def test_a_negative_qubit_cap_is_refused_at_construction(cap):
    # a backend capped below 0 would refuse even a 0-wire sample, at its first run
    rand = RandomSource(0)
    for build in (lambda: StateVectorBackend(seed=0, max_qubits=cap), lambda: QuantumState(rand, cap)):
        with pytest.raises(ValueError, match=f"^qubit cap {cap} is negative$"):
            build()
    assert rand.uniform() == RandomSource(0).uniform()


def test_a_zero_qubit_cap_runs_zero_wire_circuits():
    assert StateVectorBackend(seed=0, max_qubits=0).sample(identity(0), 3).shape == (3, 0)
    state = QuantumState(RandomSource(0), 0)
    state.allocate(range(0))
    with pytest.raises(CapacityExceeded):
        state.allocate(range(1))


def test_count_of_a_range_equals_its_len():
    # allocate counts ids with it, since new_qubits hands the session a range,
    # and len raises OverflowError for one past sys.maxsize
    for start, stop, step in itertools.product(range(-5, 6), range(-5, 6), (-3, -1, 1, 2)):
        ids = range(start, stop, step)
        assert simulator._count(ids) == len(ids)
    assert simulator._count(range(7, 7 + 2**100)) == 2**100


# sampling one prepared state

def _basis_circuit(bits):
    """|bits> by H P(pi) H on every 1 wire: each p1 is 0 or 1 up to rounding."""
    flips = [w for w, bit in enumerate(bits) if bit]
    gates = [g for w in flips for g in (Hadamard(w), Phase(math.pi, w), Hadamard(w))]
    return Circuit(len(bits), gates)


sample_circuits = st.one_of(
    st.builds(
        lambda seed, arity, gates: random_circuit(random.Random(seed), arity, gates),
        st.integers(0, 10_000),
        st.integers(0, 6),
        st.integers(0, 15),
    ),
    st.lists(st.booleans(), max_size=6).map(_basis_circuit),
)


# pieces of a few uniforms cut each walk's draw into several
draw_pieces = st.sampled_from([1, 2, 3, 5, simulator._DRAW_PIECE])


def _skip_draws(skip, *backends):
    """Make `skip` scalar draws on each backend, leaving `uniform`'s block partly read."""
    for backend in backends:
        for _ in range(skip):
            backend._random.uniform()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sample_circuits, st.integers(-3, 50), st.sampled_from([1, 3, 7, 2**16]), draw_pieces,
       st.integers(0, 6), st.integers())
@example(identity(0), 0, 2**16, simulator._DRAW_PIECE, 0, 1)
@example(identity(0), 3, 2**16, simulator._DRAW_PIECE, 0, 1)
@example(identity(2), 0, 2**16, simulator._DRAW_PIECE, 0, 1)
@example(identity(0), -1, 2**16, simulator._DRAW_PIECE, 0, 1)
@example(identity(0), 3, 1, simulator._DRAW_PIECE, 0, 1)
def test_sample_matches_the_per_shot_default(circuit, shots, batch, piece, skip, seed):
    # batches of 1, 3 and 7 rows cut most samples into several walks
    fast, default = StateVectorBackend(seed=seed), StateVectorBackend(seed=seed)
    _skip_draws(skip, fast, default)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(device, "_SHOT_BATCH", batch)
        patch.setattr(simulator, "_DRAW_PIECE", piece)
        bits = fast.sample(circuit, shots)
    reference = DeviceBackend.sample(default, circuit, shots)
    for drawn in (bits, reference):
        assert drawn.dtype == np.int8 and drawn.shape == (max(shots, 0), circuit.arity)
    assert bits.tolist() == reference.tolist()
    # both drew the same number of uniforms, so their streams go on alike
    assert [coin(fast) for _ in range(16)] == [coin(default) for _ in range(16)]


def _outcome(run):
    """run()'s value, or the type and text of what it raised."""
    try:
        return run()
    except Exception as err:
        return type(err), str(err)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sample_circuits,
       st.one_of(st.integers(-3, 50), st.sampled_from([2.0, True, None, "3", np.int64(9), SHOT_LIMIT + 1])),
       st.sampled_from([1, 3, 7, 2**16]), st.integers(0, 6), st.integers())
@example(identity(0), 5, 2, 0, 1)
@example(identity(3), 0, 2**16, 0, 1)
def test_counts_match_the_default_over_sample(circuit, shots, batch, skip, seed):
    # one walk per batch of one preparation, against the default's one
    # sample call per batch; batches of 1, 3 and 7 cut most runs into
    # several walks. A refusal is the same on both paths, and neither path
    # draws before it
    fast, default = StateVectorBackend(seed=seed), StateVectorBackend(seed=seed)
    _skip_draws(skip, fast, default)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(device, "_SHOT_BATCH", batch)
        counts = _outcome(lambda: fast.counts(circuit, shots))
        reference = _outcome(lambda: DeviceBackend.counts(default, circuit, shots))
    assert counts == reference
    following = fast._random.uniform()
    assert following == default._random.uniform()
    if isinstance(counts, dict):
        assert sum(counts.values()) == max(shots, 0)
        assert all(0 <= key < 2**circuit.arity for key in counts)
    else:
        assert counts[0] in (TypeError, TooManyShots)
        untouched = StateVectorBackend(seed=seed)
        _skip_draws(skip, untouched)
        assert following == untouched._random.uniform()


def test_counts_take_an_overriding_sample():
    # a subclass's sample is the one shot source, as the default's loop asks
    class Ones(StateVectorBackend):
        def sample(self, circuit, shots):
            return np.ones((shots, circuit.arity), dtype=np.int8)

    assert Ones(seed=0).counts(identity(3), 5) == {0b111: 5}


def test_sample_prepares_through_allocate_and_apply(monkeypatch):
    # one preparation path: what wraps the backend's session and its
    # primitives, such as a tracer, sees sample's state too
    calls = []

    def recorder(cls, name):
        method = getattr(cls, name)

        def record(self, *args):
            calls.append((name, *[list(ids) for ids in args[:1]]))
            return method(self, *args)

        return record

    for cls, name in [(StateVectorBackend, "new_session"), (QuantumState, "allocate"), (QuantumState, "apply")]:
        monkeypatch.setattr(cls, name, recorder(cls, name))
    circuit = random_circuit(random.Random(2), 4, 20)
    bits = StateVectorBackend(seed=9).sample(circuit, 50)
    assert calls == [("new_session",), ("allocate", [0, 1, 2, 3]), ("apply", [0, 1, 2, 3])]
    assert bits.tolist() == DeviceBackend.sample(StateVectorBackend(seed=9), circuit, 50).tolist()


def test_sample_decision_rule():
    # shot by shot, wire by wire; 1 iff u < p1, so u = 0 at p1 = 0 reads 0
    backend = StateVectorBackend()
    backend._random = FixedRandom([0.0, 0.3, 0.7, 0.0])
    assert backend.sample(Circuit(2, [Hadamard(0)]), 2).tolist() == [[1, 0], [0, 0]]


def test_the_ufunc_buffer_size_is_the_callers_after_every_path():
    # the walk's column of norms and the product start both shrink numpy's
    # ufunc buffer while they run, and give back whatever size they found
    n = 13  # above _SMALL_STATE entries, so a fresh layer starts as a product
    layer = Circuit(n, [Hadamard(w) for w in range(n)])
    size = np.setbufsize(3 * 8192)
    try:
        backend = StateVectorBackend(seed=2)
        backend.sample(layer, 50)
        assert np.getbufsize() == 3 * 8192
        backend.count_ones(layer, [identity(n), layer], 50)
        assert np.getbufsize() == 3 * 8192
        fresh_state(range(n)).apply(range(n), layer)
        assert np.getbufsize() == 3 * 8192
    finally:
        np.setbufsize(size)


def test_sample_keeps_about_two_state_vectors():
    # every outcome prefix of H on 16 wires is reachable, so a walk that kept
    # each node's amplitudes would hold about a dozen state vectors
    circuit = Circuit(16, [Hadamard(w) for w in range(16)])
    backend = StateVectorBackend(seed=3)
    tracemalloc.start()
    try:
        bits = backend.sample(circuit, 4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(bits) == 4000 and all(len(shot) == 16 for shot in bits)
    assert peak < 3 * 2**16 * 16
    # the walk's peak before its renormalisation moved into `_collapse`: no
    # ufunc buffer of a division by a column of norms sits beside two levels
    assert peak <= 2.644 * 2**16 * 16


def test_sample_memory_does_not_grow_with_shots():
    # drawing and walking every shot at once would hold about 25 B per shot
    # beside the result; walks of at most _SHOT_BATCH rows hold a bounded
    # amount
    peaks = []
    for shots in (10**5, 10**6):
        backend = StateVectorBackend(seed=1)
        tracemalloc.start()
        try:
            bits = backend.sample(h_gate(), shots)
            peaks.append(tracemalloc.get_traced_memory()[1] - bits.nbytes)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.01 * peaks[0]


def test_counts_walks_start_from_the_prepared_state_without_a_copy(monkeypatch):
    # every walk but the last reads the prepared state that the session
    # keeps for the next walk; a copy of it as the walk's start row would
    # raise the peak by about a tenth here. A basis state keeps each level
    # of the walk at one row, and walks of 1024 rows keep the walk's own
    # arrays near the size of the 12-wire state
    monkeypatch.setattr(device, "_SHOT_BATCH", 1024)
    circuit = identity(12)
    for shots in (1024, 3 * 1024):  # numpy's first-use allocations
        StateVectorBackend(seed=3).counts(circuit, shots)
    one, several = (_peak(lambda b: b.counts(circuit, shots)) for shots in (1024, 3 * 1024))
    assert several <= 1.01 * one


def test_one_shot_frees_each_state_once_its_child_is_built():
    # a single shot reaches one child per level; holding the parents (or the
    # prepared state) while descending would approach two state vectors
    n = 18
    circuit = Circuit(n, [Hadamard(w) for w in range(n)])
    tracemalloc.start()
    try:
        bits = StateVectorBackend(seed=5).sample(circuit, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bits.tolist() == DeviceBackend.sample(StateVectorBackend(seed=5), circuit, 1).tolist()
    assert peak < 1.75 * 2**n * 16


@pytest.mark.parametrize("arity", range(1, 13))
def test_walk_probabilities_equal_the_per_shot_ones(arity, monkeypatch):
    # every row's p1 in the collapse walk is the float the per-shot
    # measurement computes on that row's state; at the last wire each row
    # holds one amplitude per outcome, where a scalar |a|^2 could differ
    levels = []
    p_ones = simulator._p_ones

    def recorded(states, wire=0):
        levels.append((states, p_ones(states, wire)))
        return levels[-1][1]

    monkeypatch.setattr(simulator, "_p_ones", recorded)
    rng = random.Random(arity)
    for seed in range(8):
        StateVectorBackend(seed=seed).sample(random_circuit(rng, arity, 12 * arity), 3000)
    monkeypatch.undo()
    assert len(levels) == 8 * arity
    for states, p in levels:
        assert [float(simulator._p_ones(row.reshape(1, -1))[0]) for row in states] == p.tolist()


def test_walk_states_equal_the_per_shot_collapse(monkeypatch):
    # a one-shot walk's row at each wire is the state a session's measure leaves
    # there, float for float, so the two paths renormalise alike
    levels = []
    p_ones = simulator._p_ones
    monkeypatch.setattr(simulator, "_p_ones", lambda states, wire=0: levels.append(states) or p_ones(states, wire))
    rng = random.Random(5)
    for arity in range(1, 9):
        circuit = random_circuit(rng, arity, 12 * arity)
        for seed in range(4):
            levels.clear()
            StateVectorBackend(seed=seed).sample(circuit, 1)
            walked = levels[:]
            state = fresh_state(range(arity), RandomSource(seed))
            state.apply(range(arity), circuit)
            assert len(walked) == arity
            for ident, states in enumerate(walked):
                assert states.shape == (1, 2 ** (arity - ident))
                assert states[0].tobytes() == state.amplitudes.tobytes()
                state.measure([ident])


# sampling one preparation in many bases

@st.composite
def preps_and_bases(draw):
    """A prep from sample_circuits and bases on its arity: random circuits,
    basis states (each p1 is 0 or 1 up to rounding) and, on a prep with a
    wire, Pauli encodings."""
    prep = draw(sample_circuits)
    n = prep.arity
    kinds = [
        st.builds(lambda seed, gates: random_circuit(random.Random(seed), n, gates),
                  st.integers(0, 10_000), st.integers(0, 8)),
        st.lists(st.booleans(), min_size=n, max_size=n).map(_basis_circuit),
    ]
    if n:
        paulis = st.text("IXYZ", min_size=n, max_size=n).filter(lambda t: set(t) != {"I"})
        kinds.append(paulis.map(encoding_unitary))
    return prep, draw(st.lists(st.one_of(kinds), max_size=4))


def _recorded_walks(patch):
    """Patch the collapse walk to record each walk's start rows, each shot's
    start row and the bits; return the record."""
    walks = []
    walk = simulator._sample_prepared

    def recorded(start, uniforms, out):
        rows, reached = start()
        record = (rows.copy(), reached.copy())
        bits = walk(lambda: (rows, reached), uniforms, out)
        walks.append((*record, bits.copy()))
        return bits

    patch.setattr(simulator, "_sample_prepared", recorded)
    return walks


def _default_shots(backend, prep, bases, shots):
    """The default's counts and, in shot order, the bits of each of its shots' measure-all."""
    measured = []
    measure = QuantumState.measure
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QuantumState, "measure", lambda self, ids: measured.append(measure(self, ids)) or measured[-1])
        counts = DeviceBackend.count_ones(backend, prep, bases, shots)
    return counts, np.array(measured, dtype=np.int8).reshape(len(measured), prep.arity)


def _walks_are_the_default_shots(walks, prep, bases, shots, measured):
    """Each shot, basis-major and then shot-major over the walks, starts from a
    fresh session's allocate, apply(prep) and apply(its basis), array for
    array; every start row of a walk is some shot's; and the bits, in order,
    are the default's."""
    n = prep.arity
    states = []
    for basis in bases:
        state = fresh_state(range(n))
        state.apply(range(n), prep)
        state.apply(range(n), basis)
        states.append(state.amplitudes)
    done = 0
    for rows, reached, _ in walks:
        assert np.array_equal(np.unique(reached), np.arange(len(rows)))
        for shot, row in enumerate(reached, start=done):
            assert np.array_equal(rows[row], states[shot // shots])
        done += len(reached)
    assert done == len(bases) * shots
    walked = [bits for *_, bits in walks]
    assert np.array_equal(np.concatenate(walked) if walked else np.zeros((0, n), np.int8), measured)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(preps_and_bases(), st.integers(1, 40), st.sampled_from([1, 7, 2**16, "shots - 1", "shots + 1"]),
       draw_pieces, st.integers(0, 6), st.integers())
def test_count_ones_matches_the_default(case, shots, batch, piece, skip, seed):
    # equal counts could hide two flipped shots that cancel, so every shot's
    # bits and start state are compared too; the start state shows rounding
    # before it flips a bit. Batches of 1, 7 and shots - 1 rows let one walk
    # span two bases, and 1, 7 and shots + 1 let one basis span two walks
    prep, bases = case
    batch = {"shots - 1": max(shots - 1, 1), "shots + 1": shots + 1}.get(batch, batch)
    fast, default = StateVectorBackend(seed=seed), StateVectorBackend(seed=seed)
    _skip_draws(skip, fast, default)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(device, "_SHOT_BATCH", batch)
        patch.setattr(simulator, "_DRAW_PIECE", piece)
        walks = _recorded_walks(patch)
        counts = fast.count_ones(prep, bases, shots)
    reference, measured = _default_shots(default, prep, bases, shots)
    for ones in (counts, reference):
        assert ones.dtype == np.int64 and ones.shape == (len(bases), prep.arity)
    assert np.array_equal(counts, reference)
    # a prep here has at most 6 wires, so one walk may hold every basis
    assert len(walks) == -(-len(bases) * shots // batch)
    _walks_are_the_default_shots(walks, prep, bases, shots, measured)
    # both drew the same number of uniforms, so their streams go on alike
    assert [coin(fast) for _ in range(16)] == [coin(default) for _ in range(16)]


@st.composite
def wide_preps(draw):
    """A random prep on 13 or 14 wires, above the kernels' small state, where
    a layer runs as dense blocks, maybe led or ended by one-wire runs on
    consecutive wires; and random bases on its wires."""
    n = draw(st.integers(13, 14))
    rng = random.Random(draw(st.integers(0, 10_000)))
    gates = list(random_circuit(rng, n, draw(st.integers(0, 40))).gates)
    for at in draw(st.lists(st.sampled_from([0, len(gates)]), max_size=2)):
        start = rng.randrange(n - 4)
        gates[at:at] = [Hadamard(w) if rng.random() < 0.5 else Phase(rng.uniform(-7, 7), w)
                        for w in range(start, start + 5)]
    bases = [random_circuit(rng, n, draw(st.integers(0, 8))) for _ in range(draw(st.integers(1, 3)))]
    return Circuit(n, gates), bases


@settings(max_examples=25, deadline=None, derandomize=True)
@given(wide_preps())
def test_count_ones_prepares_the_composed_state_exactly(case):
    # the state each basis's walk starts from is the one a fresh session
    # reaches by applying the prep and then the basis, bit for bit, also
    # where both run as dense blocks, and the shots are the default's
    prep, bases = case
    fast, default = StateVectorBackend(seed=0), StateVectorBackend(seed=0)
    with pytest.MonkeyPatch.context() as patch:
        walks = _recorded_walks(patch)
        counts = fast.count_ones(prep, bases, 1)
    reference, measured = _default_shots(default, prep, bases, 1)
    assert np.array_equal(counts, reference)
    assert len(walks) == len(bases)
    _walks_are_the_default_shots(walks, prep, bases, 1, measured)
    assert [coin(fast) for _ in range(16)] == [coin(default) for _ in range(16)]


def test_count_ones_prepares_once_through_allocate_and_apply(monkeypatch):
    # one session per call: the prep goes through its allocate and apply
    # once, and each basis through its apply once per walk that reaches it;
    # walks of 30 of the 150 rows reach bases [0], [0, 1], [1], [1, 2], [2]
    monkeypatch.setattr(device, "_SHOT_BATCH", 30)
    calls = []

    def recorder(cls, name):
        method = getattr(cls, name)

        def record(self, *args):
            calls.append((name, *[list(ids) for ids in args[:1]]))
            return method(self, *args)

        return record

    for cls, name in [(StateVectorBackend, "new_session"), (QuantumState, "allocate"), (QuantumState, "apply")]:
        monkeypatch.setattr(cls, name, recorder(cls, name))
    prep = ansatz(4, 2, [0.1 * i for i in range(16)])
    bases = [encoding_unitary(term) for term in ("ZZII", "XXYY", "YYXX")]
    walks = _recorded_walks(monkeypatch)
    fast, default = StateVectorBackend(seed=9), StateVectorBackend(seed=9)
    counts = fast.count_ones(prep, bases, 50)
    wires = [0, 1, 2, 3]
    assert calls == [("new_session",), ("allocate", wires)] + [("apply", wires)] * 8
    assert [len(rows) for rows, _, _ in walks] == [1, 2, 1, 2, 1]
    monkeypatch.undo()
    reference, measured = _default_shots(default, prep, bases, 50)
    assert np.array_equal(counts, reference)
    _walks_are_the_default_shots(walks, prep, bases, 50, measured)
    assert [coin(fast) for _ in range(16)] == [coin(default) for _ in range(16)]


@pytest.mark.parametrize("n, n_bases, shots, batch, sizes, rows", [
    # groups of 2 bases (two start rows of 2**11 entries) end inside a batch:
    # rows [0, 10) reach bases 0 and 1, [10, 14) basis 1, [14, 24) bases 2 and 3
    (11, 5, 7, 10, [10, 4, 10, 4, 7], [2, 1, 2, 1, 1]),
    # one basis per group, and each basis's shots span three walks
    (12, 2, 25, 10, [10, 10, 5] * 2, [1] * 6),
    (13, 2, 12, 5, [5, 5, 2] * 2, [1] * 6),
])
def test_count_ones_walks_end_at_batch_and_group_ends(n, n_bases, shots, batch, sizes, rows, monkeypatch):
    # a walk ends at a batch's end, its group's end or the last row,
    # whichever comes first, and its shots are still the default's
    rng = random.Random(n)
    prep = random_circuit(rng, n, 4 * n)
    bases = [random_circuit(rng, n, 8) for _ in range(n_bases)]
    monkeypatch.setattr(device, "_SHOT_BATCH", batch)
    walks = _recorded_walks(monkeypatch)
    fast, default = StateVectorBackend(seed=n), StateVectorBackend(seed=n)
    counts = fast.count_ones(prep, bases, shots)
    monkeypatch.undo()
    reference, measured = _default_shots(default, prep, bases, shots)
    assert np.array_equal(counts, reference)
    assert [len(reached) for _, reached, _ in walks] == sizes
    assert [len(start) for start, _, _ in walks] == rows
    _walks_are_the_default_shots(walks, prep, bases, shots, measured)
    assert [coin(fast) for _ in range(16)] == [coin(default) for _ in range(16)]


def _peak(run):
    """The tracemalloc peak of run(backend) on a fresh seeded backend."""
    backend = StateVectorBackend(seed=3)
    tracemalloc.start()
    try:
        run(backend)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimator_holds_at_most_one_state_more_than_sample():
    # the prep's state stays beside each basis's walk, and nothing else does
    # but the basis circuits and their plans, below and above 2**16 entries
    shots = 4000
    for n in (16, 17):
        prep = ansatz(n, 2, [0.4 + 0.1 * i for i in range(4 * n)])
        terms = ["XY" + "Z" * (n - 2), "Z" * n, "Y" + "X" * (n - 1)]
        sample_peak = max(_peak(lambda b: b.sample(compose(encoding_unitary(t), prep), shots)) for t in terms)
        hamiltonian = Hamiltonian(tuple((1.0, t) for t in terms))
        assert _peak(lambda b: compute_energy(b, prep, hamiltonian, shots)) <= sample_peak + 2**n * 16 + 2**15


def test_estimator_on_a_small_prep_holds_no_more_than_sampling_all_its_shots():
    # one walk measures the 9 bases of a 4-wire prep as 9000 rows; beside
    # what sample's 9000 shots hold, it may keep its 9 start rows (2.3 KB),
    # each basis's row edges and counts, and the encodings with their plans
    # when they are not cached yet: 16 KiB in all, far below one start row
    # per shot (2.3 MB)
    terms = ["ZIII", "IZII", "IIZI", "IIIZ", "ZZII", "IIZZ", "ZIIZ", "XXYY", "YYXX"]
    hamiltonian = Hamiltonian(tuple((0.1, t) for t in terms))
    params = [0.3 * i for i in range(16)]
    sample_peak = _peak(lambda b: b.sample(ansatz(4, 2, params), 9000))
    assert _peak(lambda b: compute_energy(b, ansatz(4, 2, params), hamiltonian, 1000)) <= sample_peak + 2**14


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert len({derive_seed(7, i) for i in range(1000)}) == 1000


@pytest.mark.parametrize("seed, index", [(np.int64(7), 0), (7, np.int64(1)), (np.uint64(2**64 - 1), np.int32(3)),
                                         (np.int64(-5), np.uint8(200))])
def test_derive_seed_takes_a_numpy_integer_as_the_equal_int(seed, index):
    assert derive_seed(seed, index) == derive_seed(int(seed), int(index))


def test_random_source_determinism():
    a = RandomSource(5)
    b = RandomSource(5)
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]
    assert a.uniforms(1000).tolist() == [b.uniform() for _ in range(1000)]
    assert a.uniform() == b.uniform()


def _splitmix64(state):
    """Python-int SplitMix64: the stream's 64-bit outputs, one per step."""
    mask = 2**64 - 1
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 2**62 - 1])
def test_first_draws_are_splitmix64_on_the_seed(seed):
    # each uniform is the top 53 bits of one SplitMix64 output over 2**53
    outputs = _splitmix64(seed)
    expected = [(next(outputs) >> 11) / 2**53 for _ in range(5)]
    a, b = RandomSource(seed), RandomSource(seed)
    assert [a.uniform() for _ in range(5)] == expected
    assert b.uniforms(5).tolist() == expected


def test_random_source_seed_map():
    # an integer seed is its value mod 2**64, whatever its type
    first = RandomSource(5).uniforms(8).tolist()
    for seed in (5 + 2**64, 5 - 2**64, np.int64(5), np.uint64(5), np.int8(5)):
        assert RandomSource(seed).uniforms(8).tolist() == first
    assert RandomSource(-5).uniforms(8).tolist() == RandomSource(2**64 - 5).uniforms(8).tolist()
    assert RandomSource(-5).uniforms(8).tolist() != first
    assert RandomSource(np.int64(-5)).uniforms(8).tolist() == RandomSource(-5).uniforms(8).tolist()
    # None seeds from the OS, 64 bits at a time
    assert RandomSource().uniforms(8).tolist() != RandomSource().uniforms(8).tolist()
    for seed in ("5", 5.0, True, False, [5]):
        with pytest.raises(TypeError):
            RandomSource(seed)
        with pytest.raises(TypeError):
            StateVectorBackend(seed=seed)


# where `uniform` makes its next block and `uniforms` starts its next piece
_edges = [0, 1, simulator._SCALAR_BLOCK - 1, simulator._SCALAR_BLOCK, simulator._SCALAR_BLOCK + 1,
          simulator._DRAW_PIECE - 1, simulator._DRAW_PIECE, simulator._DRAW_PIECE + 1]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from(_edges), st.integers(0, 10**5)),
    st.one_of(st.sampled_from(_edges), st.integers(0, 3000)),
    st.one_of(st.none(), st.integers()),
)
def test_uniforms_equal_that_many_uniform_calls_bit_for_bit(k, skip, seed):
    a = RandomSource(seed)
    b = copy.deepcopy(a)  # a seed of None seeds from the OS
    assert [a.uniform() for _ in range(skip)] == [b.uniform() for _ in range(skip)]
    drawn = a.uniforms(k)
    assert drawn.dtype == np.float64 and drawn.shape == (k,)
    assert drawn.tobytes() == np.array([b.uniform() for _ in range(k)], dtype=float).tobytes()
    assert a.uniform() == b.uniform()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 60), st.integers(0, 2100), st.integers())
def test_uniforms_draw_in_pieces_of_at_most_draw_piece(piece, k, skip, seed):
    # the pieces give the same floats and stream position as one piece would;
    # vqe-shots' 36,000 uniforms per walk still take one piece
    assert 36_000 <= simulator._DRAW_PIECE
    a = RandomSource(seed)
    b = copy.deepcopy(a)
    for _ in range(skip):
        a.uniform(), b.uniform()
    asked = []
    draw = simulator._draw
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_DRAW_PIECE", piece)
        patch.setattr(simulator, "_draw", lambda out, *rest: asked.append(len(out)) or draw(out, *rest))
        drawn = a.uniforms(k)
    assert drawn.dtype == np.float64 and drawn.shape == (k,)
    assert drawn.tobytes() == np.array([b.uniform() for _ in range(k)], dtype=float).tobytes()
    assert a.uniform() == b.uniform()
    assert len(asked) == -(-k // piece) and max(asked, default=0) <= piece and sum(asked) == k


def test_a_large_draw_holds_at_most_2_mib_beside_its_result():
    # one sample walk of 2**16 shots on 18 wires draws this many uniforms
    rand = RandomSource(1)
    tracemalloc.start()
    try:
        drawn = rand.uniforms(18 * 2**16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= drawn.nbytes + 2 * 2**20


@pytest.mark.parametrize("shots, arity", [(np.int64(5), 3), (5, np.int64(3)), (np.int64(5), np.int64(1))])
def test_draws_after_numpy_integer_shots_or_arity_match_the_default(shots, arity):
    # a walk's draw of (rows * arity) uniforms is then a numpy integer; the
    # stream's counter stays a Python int, so later draws still run
    prep = Circuit(arity, random_circuit(random.Random(4), int(arity), 12).gates)
    bases = [identity(arity), Circuit(arity, [Hadamard(0)])]
    sampled, sampled_by_default, counted, counted_by_default = [StateVectorBackend(seed=3) for _ in range(4)]
    assert sampled.sample(prep, shots).tolist() == DeviceBackend.sample(sampled_by_default, prep, shots).tolist()
    assert np.array_equal(counted.count_ones(prep, bases, shots),
                          DeviceBackend.count_ones(counted_by_default, prep, bases, shots))
    for fast, default in ((sampled, sampled_by_default), (counted, counted_by_default)):
        assert type(fast._random._next) is int
        assert [coin(fast) for _ in range(3)] == [coin(default) for _ in range(3)]
        assert fast._random.uniforms(9).tolist() == default._random.uniforms(9).tolist()
        assert fast._random.uniforms(np.int64(4)).tolist() == [default._random.uniform() for _ in range(4)]
        assert coin(fast) == coin(default)


def test_sampling_does_not_import_numpy_random():
    # importing numpy.random alone costs several MB of resident memory
    code = (
        "import sys, qlin\n"
        "backend = qlin.StateVectorBackend(seed=1)\n"
        "backend.sample(qlin.to_bell_basis(), 100)\n"
        "qlin.compute_energy_pauli(backend, qlin.ansatz(2, 1, [0.1, 0.2, 0.3, 0.4]), 'XZ', 100)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(qlin.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"

