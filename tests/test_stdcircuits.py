"""Standard gates, Bell preparation, and the QFT against the DFT oracle."""
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlin import (
    Circuit,
    Hadamard,
    Phase,
    add_cnot,
    add_h,
    add_p,
    adjoint,
    compose,
    gate_counts,
    identity,
    matrix_of,
)
from qlin import circuit
from qlin.circuit import BUILD_GATE_LIMIT
from qlin.errors import NonFiniteAngle, QlinError, TooManyGates
from qlin.stdcircuits import c_rm, cnot_gate, h_gate, p_gate, qft, rm, t_gate, to_bell_basis

from .oracles import assert_close, basis_state, bit_reversed_dft


def test_standalone_gates():
    assert h_gate() == add_h(identity(1), 0)
    assert p_gate(0.5) == add_p(identity(1), 0.5, 0)
    assert cnot_gate() == add_cnot(identity(2), 0, 1)
    assert t_gate() == p_gate(math.pi / 4)


def test_bell_basis_states():
    u = matrix_of(to_bell_basis())
    assert_close(u @ basis_state(2, 0b00), (basis_state(2, 0b00) + basis_state(2, 0b11)) / math.sqrt(2))
    assert_close(u @ basis_state(2, 0b10), (basis_state(2, 0b00) - basis_state(2, 0b11)) / math.sqrt(2))
    assert dict(gate_counts(to_bell_basis())) == {"H": 1, "CNOT": 1}


def test_rm_angles():
    assert rm(1) == p_gate(math.pi)
    assert rm(2) == p_gate(math.pi / 2)


def _rm_reference(m):
    """2*pi / 2**m by float division; for m past 1023, where 2**m is no
    float, divided by 2**1023 (exact) and then by the rest (rounded once);
    None where that is not finite."""
    try:
        if m > 1023:
            return 2.0 * math.pi / 2**1023 / 2.0 ** min(m - 1023, 1023)
        angle = 2.0 * math.pi / 2**m
    except ZeroDivisionError:
        return None
    return angle if math.isfinite(angle) else None


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-1200, 1200), st.integers(-(2**80), 2**80)))
@example(-5000)
@example(-3000)
@example(2000)
@example(1075)
@example(-1021)
def test_rm_gives_a_circuit_or_a_typed_error_for_every_m(m):
    # the angle is 2*pi scaled by 2^-m: bit for bit the quotient wherever
    # that is finite, 0 far past it, and a negative m whose angle passes the
    # largest float is NonFiniteAngle
    reference = _rm_reference(m)
    for build in (rm, c_rm):
        try:
            built = build(m)
        except (QlinError, ValueError) as err:
            assert isinstance(err, NonFiniteAngle) and reference is None and m < 0
            continue
        angles = [gate.angle for gate in built.gates if isinstance(gate, Phase)]
        assert all(math.isfinite(angle) for angle in angles)
        if build is rm:
            assert angles[0].hex() == reference.hex()


def test_c_rm_block_matrix():
    assert_close(matrix_of(c_rm(2)), np.diag([1, 1, 1, np.exp(1j * math.pi / 2)]))


def test_qft_base_cases():
    assert qft(0) == identity(0)
    assert qft(1) == h_gate()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qft_matches_bit_reversed_dft(n):
    assert_close(matrix_of(qft(n)), bit_reversed_dft(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_qft_unitary_and_uniform(n):
    u = matrix_of(qft(n))
    assert_close(u @ u.conj().T, np.eye(2**n))
    state = u @ basis_state(n, 0)
    assert_close(state, np.full(2**n, 1 / math.sqrt(2**n)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qft_adjoint_inverse(n):
    assert_close(matrix_of(compose(adjoint(qft(n)), qft(n))), np.eye(2**n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_qft_gate_counts(n):
    counts = gate_counts(qft(n))
    blocks = n * (n - 1) // 2
    assert counts["H"] == n
    # each controlled rotation expands to 3 P and 2 CNOT gates
    assert counts["CNOT"] == 2 * blocks
    assert counts["P"] == 3 * blocks


@pytest.mark.parametrize("n", range(11))
def test_qft_equals_c_rm_cascade(n):
    gates = []
    for k in range(n):
        gates.append(Hadamard(k))
        for m in range(2, n - k + 1):
            gates += [g.remap((k + m - 1, k)) for g in c_rm(m).gates]
    assert qft(n) == Circuit(n, gates)


def test_qft_construction_does_not_recurse():
    # a recursive build needs a stack frame per wire and fails here
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        counts = gate_counts(qft(150))
    finally:
        sys.setrecursionlimit(limit)
    assert counts == {"H": 150, "P": 3 * 150 * 149 // 2, "CNOT": 150 * 149}


def test_qft_checks_the_gate_cap_before_building(monkeypatch):
    n = 100_000  # about 2.5e10 gates: building them would exhaust memory
    with pytest.raises(TooManyGates) as caught:
        qft(n)
    assert (caught.value.count, caught.value.limit) == (n + 5 * n * (n - 1) // 2, BUILD_GATE_LIMIT)
    # the checked count is exact: qft(9) builds at a cap of its size, not below
    gates = len(qft(9).gates)
    monkeypatch.setattr(circuit, "BUILD_GATE_LIMIT", gates)
    assert len(qft(9).gates) == gates
    monkeypatch.setattr(circuit, "BUILD_GATE_LIMIT", gates - 1)
    with pytest.raises(TooManyGates):
        qft(9)
