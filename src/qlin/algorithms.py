"""Algorithm suite over the abstract device: coin, repeat-until-success,
Hamiltonian averaging / VQE, and QAOA for MAXCUT.

Every driver is written against DeviceBackend, so it runs unchanged on any
backend. Randomness used by the classical optimisers is injected as a
RandomSource, separate from the backend's measurement randomness; proposal
strategies are plain callables so better optimisers can be plugged in
without touching the drivers.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .circuit import (
    Circuit,
    ControlledNot,
    GateApp,
    Hadamard,
    Phase,
    _check_gate_count,
    _check_round_count,
    _check_shot_count,
    _checked_count,
    _integer,
    _real,
    _real_angle,
    adjoint,
    identity,
)
from .device import (
    DeviceBackend,
    QubitHandle,
    apply_circuit,
    execute,
    measure_qubit,
    new_qubits,
    qprogram,
)
from .errors import AllIdentityTerm, ArityMismatch, ParamCountMismatch, RusIterationLimit
from .simulator import RandomSource
from .stdcircuits import h_gate

Cut = tuple[int, ...]


@dataclass(frozen=True)
class Graph:
    """Undirected graph for MAXCUT; each edge is stored as (min, max), in sorted
    order, and a duplicate edge, either way round, raises ValueError.

    The vertex count and every endpoint are ints or numpy integers, but no
    bool; any other type raises ValueError."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not _integer(self.vertex_count):
            raise ValueError(f"vertex count of type {type(self.vertex_count).__name__}, not an int")
        if self.vertex_count < 0:
            raise ValueError("vertex count must be non-negative")
        seen = set()
        normalised = []
        for u, v in self.edges:
            if not (_integer(u) and _integer(v)):
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            edge = (min(u, v), max(u, v))
            if edge in seen:
                raise ValueError(f"duplicate edge {edge}")
            seen.add(edge)
            normalised.append(edge)
        object.__setattr__(self, "edges", tuple(sorted(normalised)))


_PAULI_OPS = frozenset("IXYZ")


@dataclass(frozen=True)
class Hamiltonian:
    """Real-weighted sum of Pauli strings, H = sum_i coeff_i * term_i.

    Each coefficient is an int or a float (numpy's too, but no bool), kept
    as a float; any other type raises ValueError."""

    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a Hamiltonian needs at least one term")
        cleaned = []
        # compute_energy adds coeff * <term>, with |<term>| <= 1, in this
        # order from 0.0, so while this sum is finite its energy is too
        weight = 0.0
        for coeff, term in self.terms:
            if not _real(coeff):
                raise ValueError(f"coefficient of type {type(coeff).__name__}, not an int or a float")
            try:
                coeff = float(coeff)
            except OverflowError:  # an int past the largest float
                coeff = math.inf if coeff > 0 else -math.inf
            if not math.isfinite(coeff):
                raise ValueError(f"non-finite coefficient {coeff}")
            weight += abs(coeff)
            if not math.isfinite(weight):
                raise ValueError("the coefficients' absolute values sum past the largest float")
            _check_pauli_str(term)
            if len(term) != len(self.terms[0][1]):
                raise ValueError("all Pauli strings must have the same length")
            if not set(term) <= _PAULI_OPS:
                raise ValueError(f"invalid Pauli string {term!r}")
            cleaned.append((coeff, term))
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def arity(self) -> int:
        return len(self.terms[0][1])

    @functools.cached_property
    def _encodings(self) -> tuple[tuple[Circuit, int] | None, ...]:
        """Each term's measurement plan, `_encoding_unitary(term)`, built once per Hamiltonian."""
        return tuple(_encoding_unitary(term) for _, term in self.terms)


class QaoaRecord(NamedTuple):
    betas: tuple[float, ...]
    gammas: tuple[float, ...]
    cut: Cut


class VqeRecord(NamedTuple):
    params: tuple[float, ...]
    energy: float


# quantum coin (allocate, H, measure)

def coin(backend: DeviceBackend) -> int:
    """Fair coin toss from one qubit in superposition."""
    return int(backend.sample(h_gate(), 1)[0][0])


# repeat-until-success

@functools.cache
def rus_example_unitary() -> Circuit:
    """Two-qubit trial unitary whose success branch is (I + 2iX)-like on the
    data wire and whose failure branch is the identity up to phase; the
    ancilla is wire 0.

    Circuits are immutable, so every call returns one instance, and the
    simulator plans its kernel passes once."""
    return Circuit(2, [
        Hadamard(0),
        Phase(math.pi / 4, 0),
        ControlledNot(0, 1),
        Hadamard(0),
        ControlledNot(0, 1),
        Phase(math.pi / 4, 0),
        Hadamard(0),
    ])


@qprogram
def rus(q: QubitHandle, u_prime: Circuit, e: Circuit, max_iterations: int | None = None):
    """Repeat-until-success protocol on the qubit named by `q`.

    Each round allocates an ancilla, applies `u_prime` to (ancilla, q) and
    measures the ancilla: 0 means success and the data qubit is returned;
    1 means the data qubit holds E|psi>, so adjoint(e) undoes it and the
    round repeats. Terminates with probability 1 whenever success has
    positive probability; `max_iterations`, when given, must be an int of
    at least 1 and bounds the failure rounds.
    """
    if max_iterations is not None:
        _checked_count(max_iterations, "max_iterations", 1)
    undo = adjoint(e)
    failures = 0
    while True:
        anc, = yield new_qubits(1)
        anc, q = yield apply_circuit([anc, q], u_prime)
        bit = yield measure_qubit(anc)
        if not bit:
            return q
        q, = yield apply_circuit([q], undo)
        failures += 1
        if max_iterations is not None and failures >= max_iterations:
            raise RusIterationLimit(max_iterations)


@qprogram
def _rus_driver(u_prime: Circuit, e: Circuit, max_iterations: int | None):
    q, = yield new_qubits(1)
    q = yield rus(q, u_prime, e, max_iterations)
    bit = yield measure_qubit(q)
    return bit


def run_rus(
    backend: DeviceBackend,
    u_prime: Circuit | None = None,
    e: Circuit | None = None,
    max_iterations: int | None = None,
) -> int:
    """Run RUS from |0>, measure the resulting qubit, return the bit.

    `max_iterations`, when given, must be an int of at least 1.
    """
    if max_iterations is not None:
        _checked_count(max_iterations, "max_iterations", 1)
    if u_prime is None:
        u_prime = rus_example_unitary()
    if e is None:
        e = identity(1)
    return execute(backend, _rus_driver(u_prime, e, max_iterations))


# MAXCUT / QAOA

def cut_value(graph: Graph, cut: Sequence[int]) -> int:
    """Number of edges whose endpoints land on opposite sides."""
    if len(cut) != graph.vertex_count:
        raise ValueError("cut length must match the vertex count")
    return sum(1 for u, v in graph.edges if cut[u] != cut[v])


def best_cut(graph: Graph, cuts: Sequence[Sequence[int]]) -> tuple[Cut, int]:
    """Maximum-value cut among `cuts`; ties go to the first occurrence."""
    best: Cut | None = None
    best_value = -1
    for cut in cuts:
        value = cut_value(graph, cut)
        if value > best_value:
            best, best_value = tuple(cut), value
    if best is None:
        raise ValueError("no cuts given")
    return best, best_value


def _check_qaoa(graph: Graph, p: int) -> None:
    """Refuse a p that is not a count, then a p-layer qaoa_unitary whose gates
    pass BUILD_GATE_LIMIT; a layer counts as at least one gate, so the layers
    of an empty graph, and their angles, are bounded too."""
    _checked_count(p, "layer count p", 0)
    n = graph.vertex_count
    _check_gate_count(n + p * max(3 * len(graph.edges) + 3 * n, 1))


def qaoa_unitary(
    betas: Sequence[float], gammas: Sequence[float], graph: Graph
) -> Circuit:
    """QAOA state-preparation circuit for MAXCUT.

    Starts with H on every wire, then per layer: for each edge (u, v) the
    diagonal gadget CNOT(u,v), P(-2*gamma) on v, CNOT(u,v), which phases
    |x> by exp(-2i*gamma*[x_u != x_v]); then the mixer H, P(2*beta), H on
    every wire (an X rotation up to global phase). Raises TooManyGates
    before building when its gates pass BUILD_GATE_LIMIT.
    """
    if len(betas) != len(gammas):
        raise ParamCountMismatch(len(betas), len(gammas))
    _check_qaoa(graph, len(betas))
    n = graph.vertex_count
    gates: list[GateApp] = [Hadamard(w) for w in range(n)]
    for beta, gamma in zip(betas, gammas):
        beta, gamma = _real_angle(beta), _real_angle(gamma)
        for u, v in graph.edges:
            gates += [ControlledNot(u, v), Phase(-2.0 * gamma, v), ControlledNot(u, v)]
        for w in range(n):
            gates += [Hadamard(w), Phase(2.0 * beta, w), Hadamard(w)]
    return Circuit(n, gates)


def random_qaoa_params(
    graph: Graph,
    p: int,
    history: Sequence[QaoaRecord],
    rand: RandomSource,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Default proposal: ignore history, draw beta in [0, pi), gamma in [0, 2*pi)."""
    betas = tuple(rand.uniform() * math.pi for _ in range(p))
    gammas = tuple(rand.uniform() * 2.0 * math.pi for _ in range(p))
    return betas, gammas


QaoaOptimiser = Callable[
    [Graph, int, Sequence[QaoaRecord], RandomSource],
    tuple[Sequence[float], Sequence[float]],
]


def qaoa_trajectory(
    backend: DeviceBackend,
    k: int,
    p: int,
    graph: Graph,
    rand: RandomSource,
    optimiser: QaoaOptimiser = random_qaoa_params,
) -> list[QaoaRecord]:
    """k rounds of propose-parameters, run the circuit once, record the cut.

    Raises TooManyGates or TooManyRounds before the first round when its
    circuit passes BUILD_GATE_LIMIT or k passes ROUND_LIMIT.
    """
    _checked_count(k, "iteration count", 1)
    _check_qaoa(graph, p)
    _check_round_count(k)
    history: list[QaoaRecord] = []
    for _ in range(k):
        betas, gammas = optimiser(graph, p, history, rand)
        circuit = qaoa_unitary(betas, gammas, graph)
        cut = tuple(map(int, backend.sample(circuit, 1)[0]))
        history.append(QaoaRecord(tuple(betas), tuple(gammas), cut))
    return history


def qaoa(
    backend: DeviceBackend,
    k: int,
    p: int,
    graph: Graph,
    rand: RandomSource,
    optimiser: QaoaOptimiser = random_qaoa_params,
) -> Cut:
    """Best cut sampled across k QAOA rounds."""
    history = qaoa_trajectory(backend, k, p, graph, rand, optimiser)
    cut, _ = best_cut(graph, [record.cut for record in history])
    return cut


# Hamiltonian averaging / VQE

def encoding_unitary(term: str) -> Circuit:
    """Measurement-basis change for one Pauli string.

    Per wire: X -> H, Y -> P(-pi/2) then H, Z and I -> nothing; then CNOTs
    from every other non-identity wire onto the first one, so that wire's
    Z-measurement satisfies p0 - p1 = <term>. An all-identity term raises
    AllIdentityTerm: its expectation is 1, with nothing to measure.
    """
    return _measured_encoding(term)[0]


def _measured_encoding(term: str) -> tuple[Circuit, int]:
    """encoding_unitary's circuit and the wire that holds the parity; raises as encoding_unitary does."""
    _check_pauli_str(term)
    encoding = _encoding_unitary(term)
    if encoding is None:
        raise AllIdentityTerm("all-identity term has expectation 1 and needs no circuit")
    return encoding


def _check_pauli_str(term: str) -> None:
    """Refuse a Pauli string that is not a `str`, before len or set would take a list, a tuple or bytes."""
    if not isinstance(term, str):
        raise ValueError(f"invalid Pauli string {term!r}")


def _encoding_unitary(term: str) -> tuple[Circuit, int] | None:
    """encoding_unitary's circuit and the wire that holds the parity, or None for an all-identity term."""
    if not set(term) <= _PAULI_OPS:
        raise ValueError(f"invalid Pauli string {term!r}")
    active = [i for i, op in enumerate(term) if op != "I"]
    if not active:
        return None
    gates: list[GateApp] = []
    for i in active:
        if term[i] == "X":
            gates.append(Hadamard(i))
        elif term[i] == "Y":
            gates += [Phase(-math.pi / 2, i), Hadamard(i)]
    first = active[0]
    gates += [ControlledNot(i, first) for i in active[1:]]
    return Circuit(len(term), gates), first


def _check_estimate(ansatz_circuit: Circuit, arity: int, n_samples: int) -> None:
    """Raise the estimator's errors for terms on `arity` qubits, before any shot."""
    _checked_count(n_samples, "sample count", 1)
    if arity != ansatz_circuit.arity:
        raise ArityMismatch(
            f"term acts on {arity} qubits but the ansatz has arity {ansatz_circuit.arity}"
        )


def _estimates(
    backend: DeviceBackend, ansatz_circuit: Circuit, encodings: Sequence[tuple[Circuit, int]], n_samples: int
) -> list[float]:
    """(#zeros - #ones) / n_samples on the wire of each term's (basis, wire)
    encoding, from shots of the ansatz in that basis.

    Every term's count of ones comes from one `count_ones` call, in term
    order; a term repeated is measured again, with shots of its own.
    """
    ones = backend.count_ones(ansatz_circuit, [basis for basis, _ in encodings], n_samples)
    return [(n_samples - 2 * int(row[wire])) / n_samples for row, (_, wire) in zip(ones, encodings)]


def compute_energy_pauli(
    backend: DeviceBackend, ansatz_circuit: Circuit, term: str, n_samples: int
) -> float:
    """Estimate <psi|term|psi> as (#zeros - #ones) / n_samples."""
    _check_pauli_str(term)
    _check_estimate(ansatz_circuit, len(term), n_samples)
    # refuses a letter outside IXYZ, then an all-identity term
    return _estimates(backend, ansatz_circuit, [_measured_encoding(term)], n_samples)[0]


def compute_energy(
    backend: DeviceBackend,
    ansatz_circuit: Circuit,
    hamiltonian: Hamiltonian,
    n_samples: int,
) -> float:
    """Hamiltonian averaging: sum coeff_i * <term_i>, term by term.

    All-identity terms contribute their coefficient directly, with no device
    executions. The sample count and the ansatz's arity are checked first,
    whatever the terms.
    """
    _check_estimate(ansatz_circuit, hamiltonian.arity, n_samples)
    encodings = hamiltonian._encodings
    estimates = iter(_estimates(backend, ansatz_circuit, list(filter(None, encodings)), n_samples))
    total = 0.0
    for (coeff, _), encoding in zip(hamiltonian.terms, encodings):
        total += coeff * next(estimates) if encoding else coeff
    return total


def _check_ansatz(n: int, depth: int) -> None:
    """Refuse an n or a depth that is not a count, then an ansatz(n, depth, ...)
    whose gates pass BUILD_GATE_LIMIT; a layer counts as at least one gate."""
    _checked_count(n, "ansatz wire count", 0)
    _checked_count(depth, "ansatz depth", 0)
    _check_gate_count(depth * max(5 * n - 1, 1))


def ansatz(n: int, depth: int, params: Sequence[float]) -> Circuit:
    """Hardware-efficient ansatz over {H, P, CNOT}.

    Per layer: on each wire the rotation block H, P(theta), H, P(phi)
    (two angles per wire), then the entangling chain CNOT(i, i+1). Raises
    TooManyGates before building when its gates pass BUILD_GATE_LIMIT, and
    ValueError when depth is negative.
    """
    _check_ansatz(n, depth)
    params = list(params)
    if len(params) != n * depth * 2:
        raise ParamCountMismatch(n * depth * 2, len(params))
    gates: list[GateApp] = []
    angles = iter(params)
    for _ in range(depth):
        for w in range(n):
            theta, phi = next(angles), next(angles)
            gates += [Hadamard(w), Phase(theta, w), Hadamard(w), Phase(phi, w)]
        gates += [ControlledNot(w, w + 1) for w in range(n - 1)]
    return Circuit(n, gates)


def random_ansatz_params(
    hamiltonian: Hamiltonian,
    count: int,
    history: Sequence[VqeRecord],
    rand: RandomSource,
) -> tuple[float, ...]:
    """Default proposal: ignore history, draw every angle uniform in [0, 2*pi)."""
    return tuple(rand.uniform() * 2.0 * math.pi for _ in range(count))


VqeOptimiser = Callable[
    [Hamiltonian, int, Sequence[VqeRecord], RandomSource], Sequence[float]
]


def vqe_trajectory(
    backend: DeviceBackend,
    hamiltonian: Hamiltonian,
    depth: int,
    k: int,
    n_samples: int,
    rand: RandomSource,
    optimiser: VqeOptimiser = random_ansatz_params,
) -> list[VqeRecord]:
    """k rounds of propose-angles, estimate the energy, record the pair.

    Raises TooManyGates, TooManyRounds or TooManyShots before the first
    round when the ansatz passes BUILD_GATE_LIMIT, k passes ROUND_LIMIT, or
    the k * n_samples shots of each measured term pass SHOT_LIMIT.
    """
    _checked_count(k, "iteration count", 1)
    _checked_count(n_samples, "sample count", 1)
    n = hamiltonian.arity
    _check_ansatz(n, depth)
    _check_round_count(k)
    _check_shot_count(k * n_samples * sum(1 for encoding in hamiltonian._encodings if encoding))
    count = n * depth * 2
    history: list[VqeRecord] = []
    for _ in range(k):
        params = tuple(optimiser(hamiltonian, count, history, rand))
        energy = compute_energy(backend, ansatz(n, depth, params), hamiltonian, n_samples)
        history.append(VqeRecord(params, energy))
    return history


def vqe(
    backend: DeviceBackend,
    hamiltonian: Hamiltonian,
    depth: int,
    k: int,
    n_samples: int,
    rand: RandomSource,
    optimiser: VqeOptimiser = random_ansatz_params,
) -> float:
    """Best (lowest) energy observed over k rounds; not guaranteed optimal."""
    history = vqe_trajectory(backend, hamiltonian, depth, k, n_samples, rand, optimiser)
    return min(record.energy for record in history)
