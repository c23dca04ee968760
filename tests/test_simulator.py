"""State-vector backend: state ops, oracle agreement, statistics, determinism."""
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
    identity,
    matrix_of,
    measure,
    new_qubits,
    qprogram,
    to_bell_basis,
)
from qlin.circuit import Circuit, ControlledNot, Hadamard, Phase
from qlin.device import DeviceBackend
from qlin.errors import CapacityExceeded
from qlin import device, simulator
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


def test_extend_bell_by_one():
    state = bell_state_2q()
    state.allocate([2])
    want = np.zeros(8, dtype=complex)
    want[0b000] = want[0b110] = 1 / math.sqrt(2)
    assert_close(state.amplitudes, want)
    assert state.registry == {0: 0, 1: 1, 2: 2}


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


@settings(max_examples=120, deadline=None, derandomize=True)
@given(sample_circuits, st.integers(-3, 50), st.integers())
@example(identity(0), 0, 1)
@example(identity(0), 3, 1)
@example(identity(2), 0, 1)
@example(identity(0), -1, 1)
def test_sample_matches_the_per_shot_default(circuit, shots, seed):
    fast, default = StateVectorBackend(seed=seed), StateVectorBackend(seed=seed)
    bits, reference = fast.sample(circuit, shots), DeviceBackend.sample(default, circuit, shots)
    for drawn in (bits, reference):
        assert drawn.dtype == np.int8 and drawn.shape == (max(shots, 0), circuit.arity)
    assert bits.tolist() == reference.tolist()
    # both drew the same number of uniforms, so their streams go on alike
    assert [coin(fast) for _ in range(16)] == [coin(default) for _ in range(16)]


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
    """Patch the collapse walk to record each walk's start state and bits; return the record."""
    walks = []
    walk = simulator._sample_prepared

    def recorded(state, uniforms):
        start = state.amplitudes.copy()
        bits = walk(state, uniforms)
        walks.append((start, bits.copy()))
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


def _walks_are_the_default_shots(walks, prep, bases, measured):
    """Each basis's walks start from a fresh session's allocate, apply(prep) and
    apply(basis), array for array, and their bits, in order, are the default's."""
    n = prep.arity
    per_basis = len(walks) // len(bases) if bases else 0
    for k, (start, _) in enumerate(walks):
        state = fresh_state(range(n))
        state.apply(range(n), prep)
        state.apply(range(n), bases[k // per_basis])
        assert np.array_equal(start, state.amplitudes)
    walked = [bits for _, bits in walks]
    assert np.array_equal(np.concatenate(walked) if walked else np.zeros((0, n), np.int8), measured)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(preps_and_bases(), st.integers(0, 40), st.sampled_from([1, 7, 2**16]), st.integers())
def test_count_ones_matches_the_default(case, shots, batch, seed):
    # equal counts could hide two flipped shots that cancel, so every shot's
    # bits and every walk's start state are compared too; the start state
    # shows rounding before it flips a bit
    prep, bases = case
    fast, default = StateVectorBackend(seed=seed), StateVectorBackend(seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(device, "_SHOT_BATCH", batch)
        walks = _recorded_walks(patch)
        counts = fast.count_ones(prep, bases, shots)
    reference, measured = _default_shots(default, prep, bases, shots)
    for ones in (counts, reference):
        assert ones.dtype == np.int64 and ones.shape == (len(bases), prep.arity)
    assert np.array_equal(counts, reference)
    assert len(walks) == len(bases) * -(-shots // batch)
    _walks_are_the_default_shots(walks, prep, bases, measured)
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
    _walks_are_the_default_shots(walks, prep, bases, measured)
    assert [coin(fast) for _ in range(16)] == [coin(default) for _ in range(16)]


def test_count_ones_prepares_once_through_allocate_and_apply(monkeypatch):
    # one session per call: the prep goes through its allocate and apply
    # once, and each batch of each basis through its apply
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
    assert calls == [("new_session",), ("allocate", wires)] + [("apply", wires)] * 7
    monkeypatch.undo()
    reference, measured = _default_shots(default, prep, bases, 50)
    assert np.array_equal(counts, reference)
    _walks_are_the_default_shots(walks, prep, bases, measured)
    assert [coin(fast) for _ in range(16)] == [coin(default) for _ in range(16)]


def test_estimator_holds_at_most_one_state_more_than_sample():
    # the prep's state stays beside each basis's walk, and nothing else does
    # but the basis circuits and their plans, below and above 2**16 entries
    shots = 4000
    for n in (16, 17):
        prep = ansatz(n, 2, [0.4 + 0.1 * i for i in range(4 * n)])
        terms = ["XY" + "Z" * (n - 2), "Z" * n, "Y" + "X" * (n - 1)]

        def peak(run):
            backend = StateVectorBackend(seed=3)
            tracemalloc.start()
            try:
                run(backend)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sample_peak = max(peak(lambda b: b.sample(compose(encoding_unitary(t), prep), shots)) for t in terms)
        hamiltonian = Hamiltonian(tuple((1.0, t) for t in terms))
        assert peak(lambda b: compute_energy(b, prep, hamiltonian, shots)) <= sample_peak + 2**n * 16 + 2**15


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert len({derive_seed(7, i) for i in range(1000)}) == 1000


def test_random_source_determinism():
    a = RandomSource(5)
    b = RandomSource(5)
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]
    assert a.uniforms(1000).tolist() == [b.uniform() for _ in range(1000)]
    assert a.uniform() == b.uniform()


# Mersenne Twister refills its 624 words every 312 uniforms
_block_edges = st.sampled_from([0, 1, 311, 312, 313, 623, 624, 625])


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(_block_edges, st.integers(0, 10**5)),
    st.one_of(_block_edges, st.integers(0, 700)),
    st.one_of(st.none(), st.integers()),
)
def test_uniforms_equal_that_many_uniform_calls_bit_for_bit(k, skip, seed):
    a = RandomSource(seed)
    b = RandomSource()
    b._rng.setstate(a._rng.getstate())  # a seed of None seeds from the OS
    assert [a.uniform() for _ in range(skip)] == [b.uniform() for _ in range(skip)]
    drawn = a.uniforms(k)
    assert drawn.dtype == np.float64 and drawn.shape == (k,)
    assert drawn.tobytes() == np.array([b.uniform() for _ in range(k)], dtype=float).tobytes()
    assert a.uniform() == b.uniform()


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

