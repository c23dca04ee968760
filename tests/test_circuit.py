"""Circuit construction, algebra, metrics, and reference matrix semantics."""
import math
import random
import re
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlin import (
    Circuit,
    ControlledNot,
    Hadamard,
    Phase,
    add_cnot,
    add_h,
    add_p,
    adjoint,
    apply,
    compose,
    controlled,
    depth,
    draw,
    export_qasm,
    gate_counts,
    identity,
    matrix_of,
    optimise,
    tensor,
)
from qlin.errors import (
    ArityMismatch,
    ArityTooLarge,
    ControlEqualsTarget,
    DuplicateWire,
    NonFiniteAngle,
    NonRealAngle,
    TooManyCells,
    WireOutOfRange,
)
from qlin import circuit as circuit_module
from qlin.circuit import format_angle
from qlin.formats import parse_qasm
from qlin.stdcircuits import h_gate, p_gate, qft, to_bell_basis

from .oracles import (
    H,
    I2,
    assert_close,
    basis_state,
    block_diag_controlled,
    dense_unitary,
    embed_matrix,
    kron_all,
    normalise_phase,
    random_circuit,
)


# constructors

def test_identity_matrices():
    assert matrix_of(identity(0)).shape == (1, 1)
    assert_close(matrix_of(identity(0)), np.array([[1.0]]))
    assert_close(matrix_of(identity(1)), np.eye(2))
    assert_close(matrix_of(identity(2)), np.eye(4))
    assert identity(3).gates == ()


def test_add_h_action_on_basis():
    c = add_h(identity(1), 0)
    assert_close(matrix_of(c) @ basis_state(1, 0), np.array([1, 1]) / math.sqrt(2))
    assert_close(matrix_of(c) @ basis_state(1, 1), np.array([1, -1]) / math.sqrt(2))


def test_add_h_out_of_range():
    with pytest.raises(WireOutOfRange):
        add_h(identity(1), 1)


def test_add_p_special_phases():
    z = matrix_of(add_p(identity(1), math.pi, 0))
    assert_close(z @ basis_state(1, 1), -basis_state(1, 1))
    t = matrix_of(add_p(identity(1), math.pi / 4, 0))
    assert_close(t, np.diag([1, np.exp(1j * math.pi / 4)]))
    assert_close(matrix_of(add_p(identity(1), 0.0, 0)), np.eye(2))


def test_add_cnot_basis_action():
    c = matrix_of(add_cnot(identity(2), 0, 1))
    assert_close(c @ basis_state(2, 0b10), basis_state(2, 0b11))
    assert_close(c @ basis_state(2, 0b01), basis_state(2, 0b01))


def test_add_cnot_control_equals_target():
    with pytest.raises(ControlEqualsTarget):
        add_cnot(identity(2), 1, 1)


def test_direct_construction_is_validated():
    with pytest.raises(WireOutOfRange):
        Circuit(1, (Hadamard(3),))
    with pytest.raises(ControlEqualsTarget):
        Circuit(2, (ControlledNot(0, 0),))


@pytest.mark.parametrize("build, error", [
    (lambda: Circuit(2, [Hadamard(True)]), WireOutOfRange),
    (lambda: Circuit(2, [Phase(0.5, False)]), WireOutOfRange),
    (lambda: Circuit(2, [Hadamard(0.5)]), WireOutOfRange),
    (lambda: Circuit(3, [ControlledNot(0, 1.0)]), WireOutOfRange),
    (lambda: Circuit(3, [ControlledNot(np.bool_(True), 2)]), WireOutOfRange),
    (lambda: Circuit(True), ArityMismatch),
    (lambda: Circuit(2.5), ArityMismatch),
    (lambda: Circuit(2.0, [Hadamard(0)]), ArityMismatch),
    (lambda: apply(h_gate(), identity(3), [1.0]), WireOutOfRange),
    (lambda: apply(identity(1), identity(3), [True]), WireOutOfRange),
], ids=["H-True", "P-False", "H-float", "CNOT-float", "CNOT-numpy-bool", "arity-True", "arity-float",
        "arity-whole-float", "apply-float", "apply-bool-no-gates"])
def test_a_bool_or_non_integer_wire_or_arity_is_refused(build, error):
    # each would otherwise build a circuit that format_circuit and
    # export_qasm write as text the package's own parsers refuse
    with pytest.raises(error):
        build()


def test_numpy_integer_wires_and_arities_are_kept():
    c = Circuit(np.int64(3), [Hadamard(np.int32(1)), ControlledNot(np.uint8(0), np.int16(2))])
    assert matrix_of(c).shape == (8, 8)
    assert apply(h_gate(), identity(3), [np.int64(2)]) == Circuit(3, [Hadamard(2)])
    assert parse_qasm(export_qasm(c)) == Circuit(3, [Hadamard(1), ControlledNot(0, 2)])


def test_tensor_and_controlled_take_numpy_arities_without_wrapping():
    assert tensor(identity(np.uint8(255)), h_gate()) == Circuit(256, [Hadamard(255)])
    assert controlled(identity(np.uint8(255))).arity == 256


def test_an_append_checks_only_its_new_gate(monkeypatch):
    checked = []

    def counting(check):
        def counted(gate, arity):
            checked.append(gate)
            return check(gate, arity)
        return counted

    for kind in (Hadamard, Phase, ControlledNot):
        monkeypatch.setattr(kind, "check", counting(kind.check))
    c = identity(3)
    for k in range(90):
        w = k % 3
        c = add_h(c, w) if w == 0 else add_p(c, 0.1 * k, w) if w == 1 else add_cnot(c, w, (w + 1) % 3)
        assert len(checked) == k + 1
    assert c == Circuit(3, c.gates)


@pytest.mark.parametrize("append, gate", [
    (lambda c: add_h(c, 3), Hadamard(3)),
    (lambda c: add_h(c, -1), Hadamard(-1)),
    (lambda c: add_h(c, True), Hadamard(True)),
    (lambda c: add_p(c, math.nan, 0), Phase(math.nan, 0)),
    (lambda c: add_p(c, 10**400, 0), Phase(10**400, 0)),
    (lambda c: add_p(c, "0.5", 0), Phase("0.5", 0)),
    (lambda c: add_p(c, 0.5, 2.0), Phase(0.5, 2.0)),
    (lambda c: add_cnot(c, 1, 1), ControlledNot(1, 1)),
    (lambda c: add_cnot(c, 0, 5), ControlledNot(0, 5)),
])
def test_a_bad_append_raises_what_the_checked_constructor_raises(append, gate):
    c = Circuit(3, [Hadamard(0), ControlledNot(0, 1)])
    with pytest.raises(Exception) as checked:
        Circuit(3, c.gates + (gate,))
    with pytest.raises(type(checked.value), match=f"^{re.escape(str(checked.value))}$"):
        append(c)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_rejected(angle):
    with pytest.raises(NonFiniteAngle):
        add_p(identity(1), angle, 0)
    with pytest.raises(NonFiniteAngle):
        Circuit(1, (Phase(angle, 0),))


@pytest.mark.parametrize("angle", ["0.5", 1 + 0j, None, True, np.bool_(False), np.complex128(1)],
                         ids=["str", "complex", "None", "bool", "numpy-bool", "numpy-complex"])
def test_an_angle_that_is_not_a_real_number_is_refused_by_type(angle):
    with pytest.raises(NonRealAngle, match=f"type {type(angle).__name__} is not a real number"):
        Circuit(1, [Phase(angle, 0)])


def test_an_int_angle_past_the_largest_float_is_not_finite():
    with pytest.raises(NonFiniteAngle):
        Circuit(1, [Phase(10**400, 0)])


@pytest.mark.parametrize("angle", [3, -1, 0.5, np.float64(0.5), np.float32(0.5), np.float16(-0.25),
                                   np.int64(3), np.uint8(2)])
def test_int_float_and_numpy_real_angles_are_kept(angle):
    c = Circuit(1, [Phase(angle, 0), Phase(angle, 0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # format_angle reads a float first, so numpy has nothing to cast
        assert format_angle(angle) == format_angle(float(angle))
        assert parse_qasm(export_qasm(c)) == Circuit(1, [Phase(float(angle), 0)] * 2)
        assert optimise(c) == Circuit(1, [Phase(2 * float(angle), 0)])
    assert_close(matrix_of(c), np.diag([1, np.exp(2j * float(angle))]))


# compose / tensor / apply

def test_compose_h_h_is_identity():
    assert_close(matrix_of(compose(h_gate(), h_gate())), np.eye(2))


def test_compose_builds_bell_basis():
    c = compose(add_cnot(identity(2), 0, 1), tensor(h_gate(), identity(1)))
    assert c == to_bell_basis()


def test_compose_identity_law():
    c = random_circuit(random.Random(0), 2, 8)
    assert_close(matrix_of(compose(identity(2), c)), matrix_of(c))


def test_compose_arity_mismatch():
    with pytest.raises(ArityMismatch):
        compose(identity(1), identity(2))


def test_tensor_h_with_identity():
    state = matrix_of(tensor(h_gate(), identity(1))) @ basis_state(2, 0)
    want = np.kron(H, I2) @ basis_state(2, 0)
    assert_close(state, want)
    assert_close(state, (basis_state(2, 0b00) + basis_state(2, 0b10)) / math.sqrt(2))


def test_tensor_unit_law():
    c = random_circuit(random.Random(1), 2, 6)
    assert tensor(identity(0), c) == c


def test_tensor_three_factor_example():
    c = tensor(h_gate(), tensor(identity(1), p_gate(math.pi)))
    want = kron_all(H, I2, np.diag([1, np.exp(1j * math.pi)]))
    assert_close(matrix_of(c), want)


def _example_u() -> Circuit:
    return tensor(h_gate(), tensor(identity(1), p_gate(math.pi)))


def test_apply_remaps_gates_structurally():
    applied = apply(to_bell_basis(), _example_u(), [0, 1])
    assert applied.gates[-2:] == (Hadamard(0), ControlledNot(0, 1))
    applied = apply(to_bell_basis(), _example_u(), [2, 0])
    assert applied.gates[-2:] == (Hadamard(2), ControlledNot(2, 0))


@pytest.mark.parametrize("wires", [[0, 1], [0, 2], [2, 0], [2, 1]])
def test_apply_matches_embedding_oracle(wires):
    big = _example_u()
    got = matrix_of(apply(to_bell_basis(), big, wires))
    want = embed_matrix(matrix_of(to_bell_basis()), 3, wires) @ matrix_of(big)
    assert_close(got, want)


def test_apply_canonical_embedding():
    rng = random.Random(2)
    small = random_circuit(rng, 2, 6)
    got = matrix_of(apply(small, identity(4), [0, 1]))
    assert_close(got, np.kron(matrix_of(small), np.eye(4)))


def test_apply_validation():
    with pytest.raises(ArityMismatch):
        apply(to_bell_basis(), identity(3), [0])
    with pytest.raises(WireOutOfRange):
        apply(to_bell_basis(), identity(3), [0, 3])
    with pytest.raises(DuplicateWire):
        apply(to_bell_basis(), identity(3), [1, 1])


# adjoint / controlled

def test_adjoint_simple_gates():
    assert adjoint(h_gate()) == h_gate()
    assert adjoint(p_gate(0.8)) == p_gate(-0.8)


def test_adjoint_inverts_qft():
    c = compose(adjoint(qft(3)), qft(3))
    assert_close(matrix_of(c), np.eye(8))


def test_controlled_x_equivalent_is_cnot():
    x_circuit = add_h(add_p(add_h(identity(1), 0), math.pi, 0), 0)
    assert_close(matrix_of(controlled(x_circuit)), matrix_of(add_cnot(identity(2), 0, 1)))


def test_controlled_identity():
    assert_close(matrix_of(controlled(identity(1))), np.eye(4))


def test_controlled_phase_block():
    alpha = 1.234
    assert_close(matrix_of(controlled(p_gate(alpha))), np.diag([1, 1, 1, np.exp(1j * alpha)]))


# optimise

def test_optimise_cancels_double_h():
    assert optimise(add_h(add_h(identity(1), 0), 0)) == identity(1)


def test_optimise_merges_phases():
    merged = optimise(add_p(add_p(identity(1), 0.3, 0), 0.4, 0))
    assert merged == add_p(identity(1), 0.3 + 0.4, 0)
    assert_close(matrix_of(merged), matrix_of(add_p(add_p(identity(1), 0.3, 0), 0.4, 0)))
    huge = add_p(add_p(identity(1), 1e308, 0), 1e308, 0)
    assert optimise(huge) == huge  # P(inf) is no circuit


def test_optimise_leaves_bell_alone():
    assert optimise(to_bell_basis()) == to_bell_basis()


def test_optimise_cancels_cnot_pair_through_disjoint_wires():
    c = add_cnot(add_h(add_cnot(identity(3), 0, 1), 2), 0, 1)
    assert optimise(c) == add_h(identity(3), 2)


def test_optimise_drops_zero_phase():
    assert optimise(add_p(identity(1), 0.0, 0)) == identity(1)


# metrics

def test_depth_examples():
    assert depth(identity(5)) == 0
    assert depth(to_bell_basis()) == 2
    assert depth(tensor(h_gate(), h_gate())) == 1
    # the cost follows the gates, not the arity
    huge = 10**12
    assert depth(Circuit(huge, [Hadamard(3), ControlledNot(3, huge - 1)])) == 2


def test_gate_counts_bell():
    assert dict(gate_counts(to_bell_basis())) == {"H": 1, "CNOT": 1}


# matrix guard and drawing / export

def test_matrix_arity_guard():
    # a 13-wire matrix would take 1 GiB; the guard must come before it
    tracemalloc.start()
    try:
        with pytest.raises(ArityTooLarge):
            matrix_of(identity(13))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_matrix_of_peak_is_its_result_and_the_half_size_buffer():
    # the identity is updated in place and every pass shares one buffer of
    # half its size; a kernel that copies a half per gate reaches twice the result
    circuit = random_circuit(random.Random(10), 10, 120)
    tracemalloc.start()
    try:
        mat = matrix_of(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * mat.nbytes


def test_matrix_of_bell_state():
    state = matrix_of(to_bell_basis()) @ basis_state(2, 0)
    assert_close(state, (basis_state(2, 0b00) + basis_state(2, 0b11)) / math.sqrt(2))


def test_draw_identity_rows():
    assert draw(identity(2)) == "q0:\nq1:"


def test_draw_bell():
    assert draw(to_bell_basis()) == "q0: -H--o-\nq1: ----X-"


def test_draw_refuses_more_cells_than_its_limit(monkeypatch):
    # a row per wire plus a cell per wire per gate, counted before any row is built
    monkeypatch.setattr(circuit_module, "DRAW_CELL_LIMIT", 12)
    assert draw(Circuit(3, [Hadamard(0)] * 3)).splitlines()[0] == "q0: -H--H--H-"
    with pytest.raises(TooManyCells):
        draw(Circuit(3, [Hadamard(0)] * 4))
    assert draw(identity(12)).count("\n") == 11
    with pytest.raises(TooManyCells):
        draw(identity(13))


def test_export_qasm_bell():
    text = export_qasm(to_bell_basis())
    assert text.splitlines() == [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        "qreg q[2];",
        "h q[0];",
        "cx q[0],q[1];",
    ]
    assert parse_qasm(text) == to_bell_basis()


def test_export_qasm_phase_serialisation():
    text = export_qasm(p_gate(math.pi))
    assert "u1(3.14159265358979) q[0];" in text
    reimported = parse_qasm(text)
    assert_close(matrix_of(reimported), matrix_of(p_gate(math.pi)), tol=1e-9)


def _reparsed_format_angle(angle):
    """The reference rule: 15 digits, unless they read back as infinity from a finite angle."""
    text = f"{angle:.15g}"
    if math.isinf(float(text)) and math.isfinite(angle):
        return repr(angle)
    return text


def _top_doubles():
    top, doubles = math.inf, []
    for _ in range(100):
        top = math.nextafter(top, 0.0)
        doubles += [top, -top]
    return doubles


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])
    | st.sampled_from([*_top_doubles(), 0.0, -0.0, math.inf, -math.inf, math.nan])
)
def test_format_angle_matches_the_reparsing_rule(angle):
    assert format_angle(angle) == _reparsed_format_angle(angle)

circuits = st.builds(
    lambda seed, arity, gates: random_circuit(random.Random(seed), arity, gates),
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.integers(0, 15),
)


def _gate_lists(n: int, angles=st.floats(-2 * math.pi, 2 * math.pi)):
    wire = st.integers(0, n - 1)
    kinds = [
        st.builds(Hadamard, wire),
        st.builds(Phase, angles, wire),
    ]
    if n >= 2:  # a CNOT takes any ordered pair of wires, so both directions occur
        pairs = st.lists(wire, min_size=2, max_size=2, unique=True)
        kinds.append(pairs.map(lambda cw: ControlledNot(*cw)))
    return st.lists(st.one_of(kinds), max_size=40) if n else st.just([])


free_circuits = st.integers(0, 8).flatmap(lambda n: st.builds(Circuit, st.just(n), _gate_lists(n)))

# angles whose sums overflow, absorb small terms, round up to inf within half
# an ulp of the largest float, or sit at the smallest subnormal
_LARGEST = 1.7976931348623157e308
_extreme_angles = st.floats(-2 * math.pi, 2 * math.pi) | st.sampled_from(
    [1e308, -1e308, 1e17, -1e17, 5e-324, -5e-324, _LARGEST, -_LARGEST, 2.0**969, -2.0**969]
)
extreme_circuits = st.integers(0, 8).flatmap(
    lambda n: st.builds(Circuit, st.just(n), _gate_lists(n, _extreme_angles))
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(free_circuits)
def test_matrix_of_matches_dense_oracle(c):
    u = matrix_of(c)
    assert u.shape == (2**c.arity, 2**c.arity)
    assert_close(u, dense_unitary(c))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(circuits)
def test_matrix_is_unitary(c):
    u = matrix_of(c)
    assert_close(u @ u.conj().T, np.eye(2**c.arity))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(circuits)
def test_adjoint_is_involution(c):
    assert adjoint(adjoint(c)) == c


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_interchange_law(seed):
    rng = random.Random(seed)
    na, nb = rng.randint(1, 2), rng.randint(1, 2)
    a, c = (random_circuit(rng, na, 5) for _ in range(2))
    b, d = (random_circuit(rng, nb, 5) for _ in range(2))
    lhs = matrix_of(compose(tensor(a, b), tensor(c, d)))
    rhs = matrix_of(tensor(compose(a, c), compose(b, d)))
    assert_close(lhs, rhs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_apply_generalises_tensor_and_compose(seed):
    rng = random.Random(seed)
    k, n = rng.randint(1, 2), rng.randint(3, 4)
    small = random_circuit(rng, k, 5)
    big = random_circuit(rng, n, 5)
    as_tensor = apply(small, identity(n), list(range(k)))
    assert_close(
        matrix_of(as_tensor), matrix_of(tensor(small, identity(n - k)))
    )
    full = random_circuit(rng, n, 5)
    applied = apply(full, big, list(range(n)))
    assert_close(matrix_of(applied), matrix_of(full) @ matrix_of(big))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(circuits.filter(lambda c: c.arity <= 4))
def test_controlled_is_block_diagonal(c):
    assert_close(matrix_of(controlled(c)), block_diag_controlled(matrix_of(c)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(circuits.filter(lambda c: c.arity <= 4))
def test_optimise_preserves_semantics_and_count(c):
    slimmed = optimise(c)
    assert len(slimmed.gates) <= len(c.gates)
    assert_close(
        normalise_phase(matrix_of(slimmed)), normalise_phase(matrix_of(c))
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(extreme_circuits)
def test_optimise_is_idempotent(c):
    once = optimise(c)
    assert optimise(once) == once


@settings(max_examples=300, deadline=None, derandomize=True)
@given(free_circuits)
def test_optimise_reduces_circuit_then_adjoint_to_identity(c):
    assert optimise(compose(adjoint(c), c)) == identity(c.arity)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(extreme_circuits, extreme_circuits, st.integers(0, 7), st.randoms(use_true_random=False))
def test_every_unchecked_builder_makes_a_circuit_the_constructor_accepts(a, b, n, rng):
    big = tensor(a, b)
    results = [qft(n), optimise(a), compose(a, adjoint(a)), big, adjoint(b), controlled(a),
               apply(b, big, rng.sample(range(big.arity), b.arity))]
    if a.arity:
        results += [add_h(a, rng.randrange(a.arity)), add_p(a, rng.uniform(-7, 7), rng.randrange(a.arity))]
    if a.arity > 1:
        results.append(add_cnot(a, *rng.sample(range(a.arity), 2)))
    for result in results:
        assert type(result) is Circuit
        assert Circuit(result.arity, result.gates) == result


def test_optimise_reduces_long_nested_palindrome_in_one_pass():
    # each pair only meets its partner once the pairs inside it are gone, so
    # a rescan from the first gate would remove one pair per pass
    half = [g for k in range(5000) for g in (Hadamard(0), Phase(0.1 + k * 1e-4, 0))]
    c = Circuit(1, half + [g.inverse() for g in reversed(half)])
    start = time.perf_counter()
    assert optimise(c) == identity(1)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("sign", [1, -1])
def test_optimise_is_idempotent_half_an_ulp_below_inf(sign):
    # the exact sum of all three rounds to inf, but their rounded sums do not
    for angles in ([_LARGEST, 2.0**969, 2.0**969], [2.0**969, 2.0**969, _LARGEST]):
        c = Circuit(1, [Phase(sign * a, 0) for a in angles])
        once = optimise(c)
        assert optimise(once) == once
        assert len(once.gates) <= 2 and all(math.isfinite(g.angle) for g in once.gates)


def test_optimise_cost_follows_the_gates_not_the_arity():
    huge = 10**12
    assert optimise(Circuit(huge, [Hadamard(3), Hadamard(3)])) == Circuit(huge)
    assert optimise(Circuit(huge, [Phase(0.5, huge - 1)])) == Circuit(huge, [Phase(0.5, huge - 1)])
