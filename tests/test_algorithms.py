"""Algorithm drivers: coin, RUS, QAOA pieces, Hamiltonian averaging, VQE."""
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qlin import (
    Graph,
    Hamiltonian,
    QuantumState,
    RandomSource,
    StateVectorBackend,
    ansatz,
    best_cut,
    coin,
    compute_energy,
    compute_energy_pauli,
    cut_value,
    encoding_unitary,
    execute_with_trace,
    identity,
    matrix_of,
    measure_qubit,
    new_qubits,
    qaoa,
    qaoa_trajectory,
    qaoa_unitary,
    qprogram,
    random_qaoa_params,
    rus,
    rus_example_unitary,
    run_rus,
    vqe,
    vqe_trajectory,
)
from qlin import algorithms, circuit
from qlin.algorithms import random_ansatz_params
from qlin.circuit import Circuit, add_p
from qlin.device import DeviceBackend, DeviceSession
from qlin.errors import (
    AllIdentityTerm,
    ArityMismatch,
    NonFiniteAngle,
    NonRealAngle,
    ParamCountMismatch,
    RusIterationLimit,
    TooManyGates,
    TooManyRounds,
    TooManyShots,
)
from qlin.stdcircuits import h_gate

from .oracles import assert_close, basis_state, pauli_matrix


class CountingBackend(DeviceBackend):
    """Wraps the simulator and counts device executions (sessions)."""

    def __init__(self, seed=0):
        self.inner = StateVectorBackend(seed=seed)
        self.sessions = 0

    def new_session(self):
        self.sessions += 1
        return self.inner.new_session()


class MinimalSession(DeviceSession):
    """Only the three primitives, over a QuantumState; logs every call."""

    def __init__(self, rand, log):
        self.state = QuantumState(rand)
        self.log = log

    def allocate(self, ids):
        self.log.append(("new", len(ids)))
        self.state.allocate(ids)

    def apply(self, ids, circuit):
        self.log.append(("apply", len(ids), circuit.gates))
        for gate in circuit.gates:
            self.state.apply(ids, Circuit(circuit.arity, [gate]))

    def measure(self, ids):
        self.log.append(("measure", len(ids)))
        return self.state.measure(ids)


class MinimalBackend(DeviceBackend):
    def __init__(self, seed):
        self.rand = RandomSource(seed)
        self.log = []

    def new_session(self):
        return MinimalSession(self.rand, self.log)


def test_drivers_run_on_a_three_primitive_session():
    # same seed, same draws, same kernels: the outcomes match the simulator's
    for seed in range(5):
        minimal, reference = MinimalBackend(seed), StateVectorBackend(seed=seed)
        assert [coin(minimal) for _ in range(8)] == [coin(reference) for _ in range(8)]
        assert run_rus(minimal) == run_rus(reference)
        assert qaoa_trajectory(minimal, 3, 1, k3(), RandomSource(seed)) == qaoa_trajectory(
            reference, 3, 1, k3(), RandomSource(seed)
        )
        prepare = ansatz(2, 1, [0.3, 1.1, 2.0, 0.4])
        assert compute_energy_pauli(minimal, prepare, "XY", 50) == compute_energy_pauli(
            reference, prepare, "XY", 50
        )


class SampleOnlyBackend(StateVectorBackend):
    def new_session(self):
        raise AssertionError("measure-all shots are taken through sample")


def test_coin_and_qaoa_take_their_shots_from_sample():
    # no session can be opened, so every shot comes from sample; the
    # outcomes still equal the three-primitive session's
    for seed in range(3):
        sampler, minimal = SampleOnlyBackend(seed=seed), MinimalBackend(seed)
        assert [coin(sampler) for _ in range(8)] == [coin(minimal) for _ in range(8)]
        assert qaoa_trajectory(sampler, 3, 1, k3(), RandomSource(seed)) == qaoa_trajectory(
            minimal, 3, 1, k3(), RandomSource(seed)
        )


def test_coin_and_qaoa_cuts_are_plain_ints():
    # numpy's int8 would not survive `--format json`
    for backend in (MinimalBackend(2), StateVectorBackend(seed=2)):
        assert type(coin(backend)) is int
        for record in qaoa_trajectory(backend, 3, 1, k3(), RandomSource(2)):
            assert all(type(bit) is int for bit in record.cut)


class RecordingMinimalBackend(MinimalBackend):
    """A backend with only new_session, whose sample records each call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.batches = []

    def sample(self, circuit, shots):
        self.batches.append(shots)
        return super().sample(circuit, shots)


class OnesBackend(StateVectorBackend):
    """A simulator whose count_ones is overridden: every shot reads all ones."""

    def count_ones(self, prep, bases, shots):
        return np.full((len(bases), prep.arity), shots, dtype=np.int64)


def test_estimator_takes_its_counts_from_an_overriding_count_ones():
    # the default's shots are its own programs, not an overriding sample's
    prepare = ansatz(2, 1, [0.3, 1.1, 2.0, 0.4])
    recording = RecordingMinimalBackend(3)
    assert compute_energy_pauli(recording, prepare, "XY", 50) == compute_energy_pauli(
        StateVectorBackend(seed=3), prepare, "XY", 50
    )
    assert recording.batches == []
    assert compute_energy_pauli(OnesBackend(seed=3), prepare, "XY", 50) == -1.0
    hamiltonian = Hamiltonian(((0.5, "ZI"), (0.25, "IX"), (2.0, "II")))
    assert compute_energy(OnesBackend(seed=3), prepare, hamiltonian, 50) == 1.25


def test_estimator_shot_is_one_program_applying_prep_then_basis():
    backend = MinimalBackend(0)
    prepare = ansatz(3, 1, [0.1 * i for i in range(6)])
    compute_energy_pauli(backend, prepare, "IXZ", 2)
    shot = [("new", 3), ("apply", 3, prepare.gates), ("apply", 3, encoding_unitary("IXZ").gates),
            ("measure", 3)]
    assert backend.log == shot + shot


# coin

def test_coin_trace():
    backend = StateVectorBackend(seed=0)
    bits = []

    @qprogram
    def collect():
        q, = yield new_qubits(1)
        from qlin import apply_h

        q = yield apply_h(q)
        bit = yield measure_qubit(q)
        return bit

    _, trace = execute_with_trace(backend, collect())
    assert [op[0] for op in trace] == ["new", "apply", "measure"]


def test_coin_is_fair():
    backend = StateVectorBackend(seed=2)
    ones = sum(coin(backend) for _ in range(20000))
    assert 0.48 <= ones / 20000 <= 0.52


def test_coin_fixed_seed_is_deterministic():
    assert coin(StateVectorBackend(seed=9)) == coin(StateVectorBackend(seed=9))


# repeat-until-success

def rus_driver(u_prime, e, max_iterations=None):
    @qprogram
    def program():
        q, = yield new_qubits(1)
        q = yield rus(q, u_prime, e, max_iterations)
        bit = yield measure_qubit(q)
        return bit

    return program()


def _retries(trace) -> int:
    return sum(1 for op in trace if op[0] == "new") - 2


def test_rus_identity_succeeds_first_round():
    program = rus_driver(identity(2), identity(1))
    bit, trace = execute_with_trace(StateVectorBackend(seed=0), program)
    assert bit == 0
    assert _retries(trace) == 0


def test_rus_retry_count_reproducible():
    program = rus_driver(rus_example_unitary(), identity(1))

    def run(seed):
        backend = StateVectorBackend(seed=seed)
        return [execute_with_trace(backend, program) for _ in range(50)]

    assert run(17) == run(17)


def test_rus_statistics_match_projection_oracle():
    u = matrix_of(rus_example_unitary())
    success = u[0:2, 0:2]  # ancilla (wire 0) projected onto |0>
    out = success @ basis_state(1, 0)
    p_one = abs(out[1]) ** 2 / np.linalg.norm(out) ** 2
    program = rus_driver(rus_example_unitary(), identity(1))
    backend = StateVectorBackend(seed=5)
    bits = [execute_with_trace(backend, program)[0] for _ in range(4000)]
    assert abs(sum(bits) / 4000 - p_one) < 0.03


def test_rus_iteration_limit():
    # seed chosen so the first round fails at least once
    program = rus_driver(rus_example_unitary(), identity(1), max_iterations=1)
    backend = StateVectorBackend(seed=1)
    with pytest.raises(RusIterationLimit):
        for _ in range(200):
            execute_with_trace(backend, program)


def test_run_rus_defaults():
    assert run_rus(StateVectorBackend(seed=3)) in (0, 1)


@pytest.mark.parametrize("max_iterations", [0, -1, -(2**70)])
def test_run_rus_refuses_fewer_than_one_iteration_before_any_device_op(max_iterations):
    # as `qlin rus --max-iter` does; None still means no bound
    backend = CountingBackend(seed=1)
    with pytest.raises(ValueError, match="max_iterations"):
        run_rus(backend, max_iterations=max_iterations)
    assert backend.sessions == 0
    assert coin(backend.inner) == coin(StateVectorBackend(seed=1))


@pytest.mark.parametrize("max_iterations", [0, -2])
def test_rus_refuses_fewer_than_one_iteration_before_its_ancilla(max_iterations):
    # the program checks for itself, not only run_rus
    backend = MinimalBackend(seed=1)
    with pytest.raises(ValueError, match="max_iterations"):
        execute_with_trace(backend, rus_driver(rus_example_unitary(), identity(1), max_iterations))
    assert backend.log == [("new", 1)]  # the driver's data qubit, and no ancilla
    assert backend.rand.uniform() == RandomSource(1).uniform()


# graphs and cuts

def k3() -> Graph:
    return Graph(3, ((0, 1), (1, 2), (0, 2)))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 3),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))


@pytest.mark.parametrize("count, edges", [
    (True, ()), (2.5, ()), (3.0, ()), ("3", ()), (None, ()), (np.bool_(True), ()),
    (3, ((0, True),)), (3, ((False, 1),)), (3, ((0, 1.5),)), (3, ((0.0, 1),)), (3, ((0, "1"),)),
    (3, ((0, np.bool_(True)),)), (3, ((0, np.float64(2)),)),
], ids=["bool-count", "float-count", "integral-float-count", "str-count", "None-count", "numpy-bool-count",
        "bool-end", "bool-start", "float-end", "integral-float-start", "str-end", "numpy-bool-end",
        "numpy-float-end"])
def test_graph_refuses_a_vertex_count_or_endpoint_that_is_not_an_int(count, edges):
    with pytest.raises(ValueError, match="not an int"):
        Graph(count, edges)


def test_graph_takes_numpy_integers():
    graph = Graph(np.int64(3), ((np.int8(2), np.uint16(0)), (np.int32(1), 2)))
    assert graph == Graph(3, ((0, 2), (1, 2)))


def test_cut_value_triangle():
    assert cut_value(k3(), (0, 1, 1)) == 2
    assert cut_value(k3(), (0, 0, 0)) == 0


def test_best_cut_brute_force():
    cuts = [tuple((x >> (2 - i)) & 1 for i in range(3)) for x in range(8)]
    cut, value = best_cut(k3(), cuts)
    assert value == 2 == max(cut_value(k3(), c) for c in cuts)
    assert cut == (0, 0, 1)  # first maximiser in enumeration order


def test_best_cut_matches_brute_force_on_random_graphs():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(1, 4)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = tuple(rng.sample(pool, rng.randint(0, len(pool))))
        graph = Graph(n, edges)
        cuts = [tuple((x >> (n - 1 - i)) & 1 for i in range(n)) for x in range(2**n)]
        _, value = best_cut(graph, cuts)
        assert value == max(cut_value(graph, c) for c in cuts)


# angles: every library builder takes them by Phase's type rule

# each builder with one angle in each place it takes one
ANGLE_BUILDERS = {
    "add_p": lambda a: add_p(identity(1), a, 0),
    "ansatz-theta": lambda a: ansatz(1, 1, [a, 0.25]),
    "ansatz-phi": lambda a: ansatz(1, 1, [0.25, a]),
    "qaoa-beta": lambda a: qaoa_unitary([a], [0.3], Graph(2, ((0, 1),))),
    "qaoa-gamma": lambda a: qaoa_unitary([0.3], [a], Graph(2, ((0, 1),))),
}
BUILDERS = pytest.mark.parametrize("build", ANGLE_BUILDERS.values(), ids=list(ANGLE_BUILDERS))


@BUILDERS
@pytest.mark.parametrize("angle", ["0.5", None, 1 + 0j, True, np.bool_(False), np.complex128(1)],
                         ids=["str", "None", "complex", "bool", "numpy-bool", "numpy-complex"])
def test_library_builders_refuse_an_angle_that_is_not_a_real_number(build, angle):
    with pytest.raises(NonRealAngle, match=f"type {type(angle).__name__} is not a real number"):
        build(angle)


@BUILDERS
def test_library_builders_refuse_an_int_angle_past_the_largest_float(build):
    with pytest.raises(NonFiniteAngle):
        build(10**400)


@BUILDERS
@pytest.mark.parametrize("angle", [3, -1, 0.5, np.float32(0.5), np.float64(-0.75)])
def test_library_builders_keep_int_float_and_numpy_float_angles(build, angle):
    assert np.array_equal(matrix_of(build(angle)), matrix_of(build(float(angle))))


# Hamiltonian coefficients: the type rule of angles, with the class's ValueError

@pytest.mark.parametrize("coeff", ["1.5", None, 1 + 0j, True, np.bool_(False), np.complex128(1), Fraction(1, 2)],
                         ids=["str", "None", "complex", "bool", "numpy-bool", "numpy-complex", "fraction"])
def test_hamiltonian_refuses_a_coefficient_that_is_not_an_int_or_a_float(coeff):
    with pytest.raises(ValueError, match=f"coefficient of type {type(coeff).__name__}, not an int or a float"):
        Hamiltonian(((1.0, "I"), (coeff, "Z")))


@pytest.mark.parametrize("coeff", [10**400, -(10**400)], ids=["positive", "negative"])
def test_hamiltonian_refuses_an_int_coefficient_past_the_largest_float(coeff):
    with pytest.raises(ValueError, match=f"non-finite coefficient {'-' if coeff < 0 else ''}inf"):
        Hamiltonian(((coeff, "Z"),))


@pytest.mark.parametrize("coeff", [3, -1, 0.5, np.int64(2), np.float32(0.5), np.float64(-0.75)])
def test_hamiltonian_keeps_int_float_and_numpy_coefficients_as_floats(coeff):
    ((kept, _),) = Hamiltonian(((coeff, "Z"),)).terms
    assert type(kept) is float and kept == float(coeff)



# Pauli strings are str: a list, a tuple or bytes would pass len and set, and
# an int or None would raise a bare TypeError

NOT_STR_TERMS = pytest.mark.parametrize("term", [["Z"], ("Z",), 5, None, b""],
                                        ids=["list", "tuple", "int", "None", "bytes"])


@NOT_STR_TERMS
def test_hamiltonian_refuses_a_pauli_string_that_is_not_a_str(term):
    with pytest.raises(ValueError, match="invalid Pauli string"):
        Hamiltonian(((1.0, term),))


@NOT_STR_TERMS
def test_encoding_unitary_refuses_a_pauli_string_that_is_not_a_str(term):
    with pytest.raises(ValueError, match="invalid Pauli string"):
        encoding_unitary(term)


@pytest.mark.parametrize("term", [5, None, b"", ["Z"]], ids=["int", "None", "bytes", "list"])
def test_compute_energy_pauli_refuses_a_term_that_is_not_a_str(term):
    # before len(term) is read for the arity check
    with pytest.raises(ValueError, match="invalid Pauli string"):
        compute_energy_pauli(StateVectorBackend(seed=0), identity(1), term, 10)


def test_a_numpy_str_pauli_string_is_kept():
    term = np.str_("XZ")
    assert hash(Hamiltonian(((1.0, term),))) == hash(Hamiltonian(((1.0, "XZ"),)))
    assert encoding_unitary(term) == encoding_unitary("XZ")


# QAOA circuit structure

def test_qaoa_unitary_zero_layers():
    circuit = qaoa_unitary([], [], k3())
    assert len(circuit.gates) == 3
    assert dict(Counter(type(g).__name__ for g in circuit.gates)) == {"Hadamard": 3}


def _cost_layer(graph: Graph, gamma: float):
    full = qaoa_unitary([0.0], [gamma], graph)
    n = graph.vertex_count
    cost_gates = full.gates[n : n + 3 * len(graph.edges)]
    from qlin import Circuit

    return Circuit(n, cost_gates)


@pytest.mark.parametrize("gamma", [0.0, 0.7, 2.1])
def test_cost_layer_is_diagonal(gamma):
    mat = matrix_of(_cost_layer(k3(), gamma))
    assert_close(mat, np.diag(np.diag(mat)))


@pytest.mark.parametrize("gamma", [0.4, 1.3])
def test_cost_layer_phases_encode_cut_values(gamma):
    graph = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 2)))
    diag = np.diag(matrix_of(_cost_layer(graph, gamma)))
    for x in range(16):
        cut = tuple((x >> (3 - i)) & 1 for i in range(4))
        want = np.exp(-2j * gamma * cut_value(graph, cut))
        assert abs(diag[x] - want) < 1e-9


def test_cost_layer_gamma_zero_is_identity():
    assert_close(matrix_of(_cost_layer(k3(), 0.0)), np.eye(8))


def test_qaoa_finds_triangle_maxcut():
    backend = StateVectorBackend(seed=7)
    cut = qaoa(backend, 50, 1, k3(), RandomSource(7))
    assert cut_value(k3(), cut) == 2


def test_qaoa_edgeless_graph():
    graph = Graph(2, ())
    backend = StateVectorBackend(seed=1)
    cut = qaoa(backend, 3, 1, graph, RandomSource(1))
    assert cut_value(graph, cut) == 0


def test_qaoa_single_iteration_single_execution():
    backend = CountingBackend(seed=4)
    history = qaoa_trajectory(backend, 1, 1, k3(), RandomSource(4))
    assert backend.sessions == 1
    assert len(history) == 1


def test_trajectories_check_the_gate_cap_before_proposing_angles():
    def never(*args):
        raise AssertionError("angles were proposed for a circuit over the gate cap")

    # 10**9 layers: their angles alone would exhaust memory
    backend, rand = StateVectorBackend(seed=1), RandomSource(1)
    with pytest.raises(TooManyGates):
        vqe_trajectory(backend, Hamiltonian(((1.0, "ZZ"),)), 10**9, 1, 10, rand, never)
    for graph in (k3(), Graph(0, ())):  # an empty graph's layers count too
        with pytest.raises(TooManyGates):
            qaoa_trajectory(backend, 1, 10**9, graph, rand, never)


@pytest.mark.parametrize("p", [-1, -(2**70)])
def test_qaoa_refuses_a_negative_layer_count_before_the_first_round(p):
    # as `qlin qaoa --p` does, rather than running rounds with no angles
    def never(*args):
        raise AssertionError("a round began with a negative layer count")

    backend = CountingBackend(seed=1)
    for run in (qaoa_trajectory, qaoa):
        with pytest.raises(ValueError, match="non-negative"):
            run(backend, 1, p, k3(), RandomSource(1), never)
    assert backend.sessions == 0


def test_trajectories_check_their_rounds_and_shots_before_any_work():
    def never(*args):
        raise AssertionError("a round began for a trajectory over a cap")

    backend, rand = StateVectorBackend(seed=1), RandomSource(1)
    ham = Hamiltonian(((1.0, "ZZ"),))
    with pytest.raises(TooManyRounds):
        vqe_trajectory(backend, ham, 1, 10**12, 10, rand, never)
    with pytest.raises(TooManyShots):
        vqe_trajectory(backend, ham, 1, 1, 10**12, rand, never)
    with pytest.raises(TooManyRounds):
        qaoa_trajectory(backend, 10**12, 1, k3(), rand, never)


@pytest.mark.parametrize(
    "ham",
    [
        Hamiltonian(((1.0, "ZZ"), (0.5, "XI"))),
        Hamiltonian(((2.0, "II"), (1.0, "ZI"), (0.5, "XY"), (0.3, "YY"))),
    ],
)
def test_vqe_counts_every_shot_of_every_round_against_the_cap(ham, monkeypatch):
    # 3 rounds of 5 shots per measured term; identity terms draw no shots
    shots = 3 * 5 * sum(1 for _, term in ham.terms if set(term) != {"I"})
    monkeypatch.setattr(circuit, "SHOT_LIMIT", shots)
    assert len(vqe_trajectory(StateVectorBackend(seed=2), ham, 1, 3, 5, RandomSource(2))) == 3
    monkeypatch.setattr(circuit, "SHOT_LIMIT", shots - 1)
    with pytest.raises(TooManyShots):
        vqe_trajectory(StateVectorBackend(seed=2), ham, 1, 3, 5, RandomSource(2))


def test_trajectories_check_their_exact_round_count(monkeypatch):
    monkeypatch.setattr(circuit, "ROUND_LIMIT", 4)
    ham, rand = Hamiltonian(((1.0, "Z"),)), RandomSource(3)
    assert len(vqe_trajectory(StateVectorBackend(seed=3), ham, 1, 4, 2, rand)) == 4
    assert len(qaoa_trajectory(StateVectorBackend(seed=3), 4, 1, k3(), rand)) == 4
    with pytest.raises(TooManyRounds):
        vqe_trajectory(StateVectorBackend(seed=3), ham, 1, 5, 2, rand)
    with pytest.raises(TooManyRounds):
        qaoa_trajectory(StateVectorBackend(seed=3), 5, 1, k3(), rand)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ansatz(3, 2, [0.1 * i for i in range(12)]),
        lambda: ansatz(1, 3, [0.1 * i for i in range(6)]),
        lambda: qaoa_unitary([0.1, 0.2], [0.3, 0.4], k3()),
        lambda: qaoa_unitary([0.1], [0.3], Graph(4, ())),
    ],
)
def test_builders_check_their_exact_gate_count(build, monkeypatch):
    gates = len(build().gates)
    monkeypatch.setattr(circuit, "BUILD_GATE_LIMIT", gates)
    assert len(build().gates) == gates
    monkeypatch.setattr(circuit, "BUILD_GATE_LIMIT", gates - 1)
    with pytest.raises(TooManyGates):
        build()


def test_random_qaoa_params():
    rand = RandomSource(3)
    history = []
    betas, gammas = random_qaoa_params(k3(), 2, history, rand)
    assert len(betas) == len(gammas) == 2
    again_betas, again_gammas = random_qaoa_params(k3(), 2, history, RandomSource(3))
    assert (betas, gammas) == (again_betas, again_gammas)
    draws = [random_qaoa_params(k3(), 1, [], RandomSource(s)) for s in range(1000)]
    assert all(0 <= b[0] < math.pi and 0 <= g[0] < 2 * math.pi for b, g in draws)


# Hamiltonian averaging

def test_encoding_unitary_z_is_identity():
    assert encoding_unitary("Z") == identity(1)


def test_encoding_unitary_x_diagonalises_plus():
    state = matrix_of(encoding_unitary("X")) @ (matrix_of(h_gate()) @ basis_state(1, 0))
    assert_close(state, basis_state(1, 0))


def test_encoding_unitary_zz_collects_bell_parity():
    from qlin import to_bell_basis

    bell = matrix_of(to_bell_basis()) @ basis_state(2, 0)
    encoded = matrix_of(encoding_unitary("ZZ")) @ bell
    # parity lands on wire 0: probability of wire0 = 1 must vanish
    probs = np.abs(encoded) ** 2
    assert probs[0b10] + probs[0b11] < 1e-12


def test_encoding_unitary_all_identity():
    with pytest.raises(AllIdentityTerm):
        encoding_unitary("II")


def test_compute_energy_pauli_exact_z():
    backend = StateVectorBackend(seed=0)
    assert compute_energy_pauli(backend, identity(1), "Z", 50) == 1.0


def test_compute_energy_pauli_h_z_near_zero():
    backend = StateVectorBackend(seed=6)
    estimate = compute_energy_pauli(backend, h_gate(), "Z", 10000)
    assert -0.05 <= estimate <= 0.05


def test_compute_energy_pauli_h_x_is_one():
    backend = StateVectorBackend(seed=6)
    estimate = compute_energy_pauli(backend, h_gate(), "X", 10000)
    assert 0.95 <= estimate <= 1.0


def test_compute_energy_pauli_arity_check():
    with pytest.raises(ArityMismatch):
        compute_energy_pauli(StateVectorBackend(), identity(1), "ZZ", 10)


def test_compute_energy_mixed_terms():
    backend = StateVectorBackend(seed=8)
    hamiltonian = Hamiltonian(((0.5, "Z"), (0.5, "X")))
    estimate = compute_energy(backend, identity(1), hamiltonian, 10000)
    assert abs(estimate - 0.5) < 0.03


def test_compute_energy_identity_shortcut():
    backend = CountingBackend()
    assert compute_energy(backend, identity(1), Hamiltonian(((2.0, "I"),)), 100) == 2.0
    assert backend.sessions == 0


def test_compute_energy_counts_every_term_in_one_call(monkeypatch):
    # one count_ones call per energy, in term order, a repeated term included;
    # a Hamiltonian with nothing to measure prepares no state
    calls, sessions = [], []
    count_ones = StateVectorBackend.count_ones

    def recorded(self, prep, bases, shots):
        calls.append((len(bases), shots))
        return count_ones(self, prep, bases, shots)

    new_session = StateVectorBackend.new_session
    monkeypatch.setattr(StateVectorBackend, "count_ones", recorded)
    monkeypatch.setattr(StateVectorBackend, "new_session", lambda self: sessions.append(self) or new_session(self))
    prepare = ansatz(3, 1, [0.1 * i for i in range(6)])
    hamiltonian = Hamiltonian(((0.5, "III"), (0.2, "IZX"), (0.3, "XYI"), (0.1, "IZX")))
    energy = compute_energy(StateVectorBackend(seed=4), prepare, hamiltonian, 30)
    assert calls == [(3, 30)]
    assert len(sessions) == 1  # the prep is prepared once, for every term
    sessions.clear()
    identity_only = Hamiltonian(((2.0, "III"),))
    assert compute_energy(StateVectorBackend(seed=4), prepare, identity_only, 100) == 2.0
    assert sessions == []
    monkeypatch.undo()
    assert energy == compute_energy(StateVectorBackend(seed=4), prepare, hamiltonian, 30)


def test_a_hamiltonians_term_circuits_are_built_once(monkeypatch):
    # each Hamiltonian keeps its terms' measurement circuits, so a second
    # energy of 100 terms, more than a small cache of recent terms holds,
    # builds no Circuit
    terms = [t for t in map("".join, itertools.product("IXYZ", repeat=4)) if t != "IIII"][:100]
    hamiltonian = Hamiltonian(tuple((0.01, t) for t in terms))
    prepare = ansatz(4, 1, [0.1 * i for i in range(8)])
    first = compute_energy(StateVectorBackend(seed=6), prepare, hamiltonian, 5)
    built = []
    post_init, trusted = Circuit.__post_init__, Circuit._trusted
    monkeypatch.setattr(Circuit, "__post_init__", lambda self: built.append(self) or post_init(self))
    monkeypatch.setattr(Circuit, "_trusted", staticmethod(lambda *args: built.append(args) or trusted(*args)))
    assert compute_energy(StateVectorBackend(seed=6), prepare, hamiltonian, 5) == first
    assert built == []


def test_compute_energy_checks_its_inputs_whatever_the_terms():
    # an all-identity Hamiltonian needs no shot, but a wrong arity or sample
    # count fails as it does with any term to measure, before any shot
    prepare = ansatz(3, 1, [0.1 * i for i in range(6)])
    for terms in (((1.0, "II"),), ((1.0, "II"), (0.5, "ZX"))):
        backend = CountingBackend()
        with pytest.raises(ArityMismatch):
            compute_energy(backend, prepare, Hamiltonian(terms), 10)
        with pytest.raises(ValueError):
            compute_energy(backend, identity(2), Hamiltonian(terms), 0)
        assert backend.sessions == 0


def test_estimator_counts_its_shots_against_the_limit_before_any_draw():
    # measured terms x n_samples pass SHOT_LIMIT, as vqe_trajectory counts
    # them for one round: refused with TooManyShots before any session,
    # also when each term alone is within the limit
    backend = CountingBackend(seed=1)
    prepare = ansatz(2, 1, [0.1, 0.2, 0.3, 0.4])
    three = Hamiltonian(((1.0, "ZI"), (0.5, "II"), (0.5, "XY"), (0.2, "YY")))
    for n_samples in (circuit.SHOT_LIMIT + 1, 2**40):
        with pytest.raises(TooManyShots):
            compute_energy_pauli(backend, h_gate(), "X", n_samples)
    with pytest.raises(TooManyShots):
        compute_energy(backend, prepare, three, circuit.SHOT_LIMIT // 3 + 1)
    assert backend.sessions == 0
    assert coin(backend.inner) == coin(StateVectorBackend(seed=1))


def test_compute_energy_empty_pauli_string_is_its_coefficient():
    # "" acts on no qubit, so like "II" it has expectation 1 and needs no circuit
    empty = Hamiltonian(((0.5, ""),))
    backend = CountingBackend()
    assert compute_energy(backend, identity(0), empty, 100) == 0.5
    # a term with nothing to measure counts no shots against SHOT_LIMIT either
    history = vqe_trajectory(backend, empty, 1, 2, circuit.SHOT_LIMIT + 1, RandomSource(0))
    assert [record.energy for record in history] == [0.5, 0.5]
    assert backend.sessions == 0
    assert coin(backend.inner) == coin(StateVectorBackend(seed=0))  # no uniform drawn


def test_estimator_memory_does_not_grow_with_samples():
    # asking sample for every shot at once would hold about 126 B per shot
    # here; the slack covers the collapse tree's row arrays, whose sizes
    # follow the draws
    rng = random.Random(3)
    prepare = ansatz(4, 2, [rng.uniform(0, 2 * math.pi) for _ in range(16)])
    peaks = []
    for n_samples in (10**5, 4 * 10**5):
        backend = StateVectorBackend(seed=1)
        tracemalloc.start()
        try:
            compute_energy_pauli(backend, prepare, "ZZIX", n_samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.01 * peaks[0]


@pytest.mark.parametrize("term", ["ZI", "XI", "ZZ", "XY"])
def test_estimator_converges_to_oracle(term):
    rng = random.Random(sum(term.encode()))
    prepare = ansatz(2, 1, [rng.uniform(0, 2 * math.pi) for _ in range(4)])
    state = matrix_of(prepare) @ basis_state(2, 0)
    want = float(np.real(state.conj() @ pauli_matrix(term) @ state))
    estimates = [
        compute_energy_pauli(StateVectorBackend(seed=s), prepare, term, 2000)
        for s in range(4)
    ]
    assert abs(sum(estimates) / 4 - want) <= 3 / math.sqrt(2000)


# ansatz

def test_ansatz_zero_depth():
    assert ansatz(3, 0, []) == identity(3)


def test_ansatz_zero_angles_is_identity():
    assert_close(matrix_of(ansatz(1, 1, [0.0, 0.0])), np.eye(2))


def test_ansatz_pi_block_acts_as_x():
    assert_close(matrix_of(ansatz(1, 1, [math.pi, 0.0])), pauli_matrix("X"))


@pytest.mark.parametrize("depth", [-1, -3])
def test_ansatz_and_vqe_refuse_a_negative_depth_before_any_draw(depth):
    # as `qlin vqe --depth` does, rather than a ParamCountMismatch or an empty circuit
    for n, params in [(0, []), (2, [0.5] * 4)]:
        with pytest.raises(ValueError, match="non-negative"):
            ansatz(n, depth, params)
    backend, rand = CountingBackend(seed=1), RandomSource(1)
    for run in (vqe_trajectory, vqe):
        with pytest.raises(ValueError, match="non-negative"):
            run(backend, Hamiltonian(((1.0, "ZZ"),)), depth, 1, 10, rand, random_ansatz_params)
    assert backend.sessions == 0
    assert rand.uniform() == RandomSource(1).uniform()
    assert coin(backend.inner) == coin(StateVectorBackend(seed=1))


def test_ansatz_param_count():
    with pytest.raises(ParamCountMismatch):
        ansatz(2, 1, [0.0])


def test_ansatz_has_entangling_chain():
    circuit = ansatz(3, 2, [0.1] * 12)
    from qlin.circuit import ControlledNot

    cnots = [g for g in circuit.gates if isinstance(g, ControlledNot)]
    assert [(g.control, g.target) for g in cnots] == [(0, 1), (1, 2)] * 2


# VQE

def test_vqe_identity_hamiltonian():
    backend = CountingBackend()
    hamiltonian = Hamiltonian(((1.0, "I"),))
    history = vqe_trajectory(backend, hamiltonian, 1, 5, 100, RandomSource(0))
    assert [record.energy for record in history] == [1.0] * 5
    assert backend.sessions == 0
    assert vqe(backend, hamiltonian, 1, 5, 100, RandomSource(0)) == 1.0


def test_vqe_single_round_samples_once_per_term():
    backend = CountingBackend(seed=1)
    vqe_trajectory(backend, Hamiltonian(((1.0, "Z"),)), 1, 1, 25, RandomSource(1))
    assert backend.sessions == 25


def test_vqe_finds_low_energy_for_z():
    backend = StateVectorBackend(seed=7)
    energy = vqe(backend, Hamiltonian(((1.0, "Z"),)), 1, 60, 500, RandomSource(7))
    assert energy <= -0.9


def test_random_ansatz_params_range_and_determinism():
    hamiltonian = Hamiltonian(((1.0, "Z"),))
    params = random_ansatz_params(hamiltonian, 6, [], RandomSource(2))
    assert len(params) == 6
    assert all(0 <= value < 2 * math.pi for value in params)
    assert params == random_ansatz_params(hamiltonian, 6, [], RandomSource(2))


@pytest.mark.parametrize("max_iterations", [True, np.bool_(False), 1.5, 2.0, "3"],
                         ids=["bool", "numpy-bool", "float", "integral-float", "str"])
def test_run_rus_refuses_an_iteration_bound_that_is_not_an_int_before_any_device_op(max_iterations):
    backend = CountingBackend(seed=1)
    with pytest.raises(TypeError, match="max_iterations of type"):
        run_rus(backend, max_iterations=max_iterations)
    assert backend.sessions == 0
    assert coin(backend.inner) == coin(StateVectorBackend(seed=1))


@pytest.mark.parametrize("max_iterations", [True, 1.5], ids=["bool", "float"])
def test_rus_refuses_an_iteration_bound_that_is_not_an_int_before_its_ancilla(max_iterations):
    backend = MinimalBackend(seed=1)
    with pytest.raises(TypeError, match="max_iterations of type"):
        execute_with_trace(backend, rus_driver(rus_example_unitary(), identity(1), max_iterations))
    assert backend.log == [("new", 1)]
    assert backend.rand.uniform() == RandomSource(1).uniform()


def test_rus_takes_a_numpy_integer_iteration_bound():
    assert run_rus(StateVectorBackend(seed=3), max_iterations=np.int64(50)) in (0, 1)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Graph(-1, ()), ValueError, "vertex count must be non-negative"),
    (lambda: Hamiltonian(()), ValueError, "a Hamiltonian needs at least one term"),
    (lambda: cut_value(k3(), (0, 1)), ValueError, "cut length must match the vertex count"),
    (lambda: best_cut(k3(), []), ValueError, "no cuts given"),
    (lambda: qaoa_unitary([0.1, 0.2], [0.3], k3()), ParamCountMismatch, "expected 2 parameters, got 1"),
    (lambda: qaoa_trajectory(StateVectorBackend(seed=0), 0, 1, k3(), RandomSource(0)), ValueError,
     "iteration count must be at least 1"),
    (lambda: vqe_trajectory(StateVectorBackend(seed=0), Hamiltonian(((1.0, "Z"),)), 1, 0, 10, RandomSource(0)),
     ValueError, "iteration count must be at least 1"),
    (lambda: encoding_unitary("XQ"), ValueError, "invalid Pauli string 'XQ'"),
], ids=["graph-negative-count", "hamiltonian-no-terms", "cut-wrong-length", "best-cut-no-cuts",
        "qaoa-unitary-angle-counts", "qaoa-trajectory-no-rounds", "vqe-trajectory-no-rounds",
        "encoding-unitary-bad-letter"])
def test_algorithm_refusals_name_their_cause(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error
    assert str(err.value) == message


def _reads_one(state: np.ndarray, n: int, wire: int) -> float:
    """The probability that measuring `wire` (wire 0 the MSB) of an n-wire state gives 1."""
    return float(np.sum(np.abs(state.reshape([2] * n)).take(1, axis=wire) ** 2))


def test_each_pauli_terms_basis_puts_its_eigenvalue_on_the_reported_wire():
    for n in range(1, 5):
        for term in map("".join, itertools.product("IXYZ", repeat=n)):
            if set(term) == {"I"}:
                assert algorithms._encoding_unitary(term) is None
                continue
            basis, wire = algorithms._encoding_unitary(term)
            assert basis == encoding_unitary(term)
            values, vectors = np.linalg.eigh(pauli_matrix(term))
            for value, vector in zip(np.round(values), vectors.T):
                p1 = _reads_one(matrix_of(basis) @ vector, n, wire)
                assert abs(p1 - (value == -1)) < 1e-12, (term, value)
