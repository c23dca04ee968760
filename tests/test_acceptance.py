"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal. Statistical criteria use fixed seeds and are
deterministic end to end.
"""
import contextlib
import functools
import io
import math
import random
import time
from collections import Counter

import numpy as np

from qlin import (
    Graph,
    Hamiltonian,
    RandomSource,
    StateVectorBackend,
    adjoint,
    ansatz,
    apply,
    apply_circuit,
    apply_cnot,
    compose,
    compute_energy_pauli,
    controlled,
    cut_value,
    execute,
    execute_with_trace,
    identity,
    matrix_of,
    measure,
    measure_qubit,
    new_qubits,
    optimise,
    qaoa,
    qprogram,
    rus,
    rus_example_unitary,
    tensor,
    to_bell_basis,
    vqe,
)
from qlin.circuit import Circuit
from qlin.cli import EXIT_OK, main
from qlin.errors import DanglingQubits, DuplicateHandle, UseAfterConsume
from qlin.simulator import QuantumState
from qlin.stdcircuits import h_gate, p_gate, qft

from .oracles import (
    basis_state,
    bit_reversed_dft,
    block_diag_controlled,
    dense_unitary,
    embed_matrix,
    normalise_phase,
    pauli_matrix,
    random_circuit,
)

TOL = 1e-9


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number} {name}: PASS")

        return wrapper

    return deco


def max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@criterion(1, "oracle equivalence on 200 random circuits")
def test_criterion_1_oracle_equivalence():
    rng = random.Random(1001)
    start = time.perf_counter()
    for _ in range(200):
        n = rng.randint(1, 5)
        circuit = random_circuit(rng, n, rng.randint(0, 20))
        state = QuantumState(RandomSource(0))
        state.allocate(range(n))
        for gate in circuit.gates:
            state.apply(range(n), Circuit(n, [gate]))
        want = matrix_of(circuit) @ basis_state(n, 0)
        assert max_dev(state.amplitudes, want) <= TOL
        # matrix_of runs the same kernels, so check against an independent oracle too
        assert max_dev(state.amplitudes, dense_unitary(circuit)[:, 0]) <= TOL
    assert time.perf_counter() - start < 10.0


@criterion(2, "Bell statistics over 20000 shots")
def test_criterion_2_bell_statistics():
    @qprogram
    def shot():
        qs = yield new_qubits(2)
        qs = yield apply_circuit(qs, to_bell_basis())
        bits = yield measure(qs)
        return "".join(map(str, bits))

    backend = StateVectorBackend(seed=202)
    program = shot()
    counts = Counter(execute(backend, program) for _ in range(20000))
    assert set(counts) == {"00", "11"}
    assert abs(counts["00"] / 20000 - 0.5) <= 0.02
    assert abs(counts["11"] / 20000 - 0.5) <= 0.02


@criterion(3, "QFT equals bit-reversed DFT for n in 1..4")
def test_criterion_3_qft_matrices():
    for n in (1, 2, 3, 4):
        assert max_dev(matrix_of(qft(n)), bit_reversed_dft(n)) <= TOL


@criterion(4, "apply reproduces the four wire-vector embeddings")
def test_criterion_4_apply_embeddings():
    big = tensor(h_gate(), tensor(identity(1), p_gate(math.pi)))
    small = to_bell_basis()
    for wires in ([0, 1], [0, 2], [2, 0], [2, 1]):
        got = matrix_of(apply(small, big, wires))
        want = embed_matrix(matrix_of(small), 3, wires) @ matrix_of(big)
        assert max_dev(got, want) <= TOL


@criterion(5, "algebraic laws over random circuits")
def test_criterion_5_algebraic_laws():
    rng = random.Random(1005)
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(0, 12))
        twice = adjoint(adjoint(c))
        assert twice == c
        assert max_dev(matrix_of(twice), matrix_of(c)) <= TOL
    for _ in range(100):
        na, nb = rng.randint(1, 2), rng.randint(1, 2)
        a, c = random_circuit(rng, na, 6), random_circuit(rng, na, 6)
        b, d = random_circuit(rng, nb, 6), random_circuit(rng, nb, 6)
        lhs = matrix_of(compose(tensor(a, b), tensor(c, d)))
        rhs = matrix_of(tensor(compose(a, c), compose(b, d)))
        assert max_dev(lhs, rhs) <= TOL
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 3), rng.randint(0, 10))
        got = matrix_of(controlled(c))
        assert max_dev(got, block_diag_controlled(matrix_of(c))) <= TOL
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(0, 14))
        slimmed = optimise(c)
        assert len(slimmed.gates) <= len(c.gates)
        dev = max_dev(normalise_phase(matrix_of(slimmed)), normalise_phase(matrix_of(c)))
        assert dev <= TOL


def _random_valid_plan(rng: random.Random):
    plan = [("new", rng.randint(1, 3))]
    live = plan[0][1]
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.25 and live <= 4:
            count = rng.randint(1, 2)
            plan.append(("new", count))
            live += count
        elif roll < 0.75 and live >= 1:
            k = rng.randint(1, min(live, 3))
            picks = rng.sample(range(live), k)
            plan.append(("apply", picks, random_circuit(rng, k, rng.randint(1, 5))))
        elif live >= 1:
            k = rng.randint(1, live)
            picks = sorted(rng.sample(range(live), k), reverse=True)
            plan.append(("measure", picks))
            live -= k
    plan.append(("measure_rest", None))
    return plan


@qprogram
def _run_plan(plan):
    live = []
    bits = []
    for op in plan:
        if op[0] == "new":
            handles = yield new_qubits(op[1])
            live.extend(handles)
        elif op[0] == "apply":
            _, picks, circuit = op
            fresh = yield apply_circuit([live[i] for i in picks], circuit)
            for index, handle in zip(picks, fresh):
                live[index] = handle
        elif op[0] == "measure":
            outcome = yield measure([live[i] for i in op[1]])
            bits.extend(outcome)
            for index in op[1]:
                live.pop(index)
        else:
            if live:
                bits.extend((yield measure(live)))
                live = []
    return bits


@criterion(6, "linearity enforcement with no false positives")
def test_criterion_6_linearity():
    backend = StateVectorBackend(seed=606)

    @qprogram
    def reuse():
        q, = yield new_qubits(1)
        fresh = yield apply_circuit([q], h_gate())
        stale = yield apply_circuit([q], h_gate())
        yield measure(fresh + stale)

    try:
        execute(backend, reuse())
        raise AssertionError("handle reuse was not rejected")
    except UseAfterConsume:
        pass

    @qprogram
    def duplicate():
        q, = yield new_qubits(1)
        yield apply_cnot(q, q)

    try:
        execute(backend, duplicate())
        raise AssertionError("duplicate handle was not rejected")
    except DuplicateHandle:
        pass

    @qprogram
    def dangle():
        qs = yield new_qubits(2)
        bit = yield measure_qubit(qs[0])
        return bit

    try:
        execute(backend, dangle())
        raise AssertionError("dangling qubit was not rejected")
    except DanglingQubits:
        pass

    rng = random.Random(1006)
    for _ in range(100):
        program = _run_plan(_random_valid_plan(rng))
        execute(backend, program)  # must not raise


@criterion(7, "repeat-until-success statistics and retry independence")
def test_criterion_7_rus():
    unitary = matrix_of(rus_example_unitary())
    success_block = unitary[0:2, 0:2]
    out = success_block @ basis_state(1, 0)
    p_one = abs(out[1]) ** 2 / float(np.linalg.norm(out) ** 2)

    u_prime = rus_example_unitary()

    @qprogram
    def driver():
        q, = yield new_qubits(1)
        q = yield rus(q, u_prime, identity(1))
        bit = yield measure_qubit(q)
        return bit

    program = driver()
    backend = StateVectorBackend(seed=5)
    buckets: dict[int, list[int]] = {0: [], 1: [], 2: []}
    total = 0
    for _ in range(20000):
        bit, trace = execute_with_trace(backend, program)
        retries = sum(1 for op in trace if op[0] == "new") - 2
        buckets[min(retries, 2)].append(bit)
        total += bit
    assert abs(total / 20000 - p_one) <= 0.02
    for bucket in buckets.values():
        assert len(bucket) > 0
        assert abs(sum(bucket) / len(bucket) - p_one) <= 0.02


@criterion(8, "VQE reaches the Z ground state")
def test_criterion_8_vqe():
    start = time.perf_counter()
    backend = StateVectorBackend(seed=7)
    energy = vqe(backend, Hamiltonian(((1.0, "Z"),)), 1, 60, 2000, RandomSource(7))
    assert energy <= -0.9
    assert time.perf_counter() - start < 60.0


@criterion(9, "QAOA solves the K3 and P4 MAXCUT instances")
def test_criterion_9_qaoa():
    start = time.perf_counter()
    k3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
    cut = qaoa(StateVectorBackend(seed=7), 50, 1, k3, RandomSource(7))
    assert cut_value(k3, cut) == 2
    p4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    cut = qaoa(StateVectorBackend(seed=7), 50, 1, p4, RandomSource(7))
    assert cut_value(p4, cut) == 3
    assert time.perf_counter() - start < 60.0


@criterion(10, "energy estimator converges to the matrix oracle")
def test_criterion_10_estimator():
    rng = random.Random(1010)
    terms = ["ZI", "XI", "ZZ", "XY"]
    for index in range(10):
        prepare = ansatz(2, 1, [rng.uniform(0, 2 * math.pi) for _ in range(4)])
        state = matrix_of(prepare) @ basis_state(2, 0)
        backend = StateVectorBackend(seed=2000 + index)
        for term in terms:
            want = float(np.real(state.conj() @ pauli_matrix(term) @ state))
            got = compute_energy_pauli(backend, prepare, term, 10000)
            assert abs(got - want) <= 0.05


@criterion(11, "seeded CLI commands are byte-identical across runs")
def test_criterion_11_cli_determinism(tmp_path):
    bell = tmp_path / "bell.txt"
    bell.write_text("qubits 2\nH 0\nCNOT 0 1\n")
    k3 = tmp_path / "k3.txt"
    k3.write_text("vertices 3\nedge 0 1\nedge 1 2\nedge 0 2\n")
    ham = tmp_path / "z.txt"
    ham.write_text("1.0 Z\n")
    commands = [
        ["simulate", str(bell), "--shots", "500", "--seed", "11", "--format", "json"],
        ["coin", "--seed", "11", "--format", "json"],
        ["rus", "--seed", "11", "--format", "json"],
        ["vqe", "--ham", str(ham), "--depth", "1", "--k", "4", "--nsamples", "50",
         "--seed", "11", "--format", "json"],
        ["qaoa", "--graph", str(k3), "--k", "4", "--p", "1", "--seed", "11", "--format", "json"],
    ]
    for argv in commands:
        outputs = set()
        for _ in range(3):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(argv)
            assert code == EXIT_OK
            outputs.add(buffer.getvalue())
        assert len(outputs) == 1, f"non-deterministic output for {argv[0]}"
