"""Fused kernel plans: the same action as the gates one at a time and as the dense oracle."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlin import Graph, apply, identity, kernels, matrix_of, qaoa_unitary
from qlin.circuit import Circuit, ControlledNot, Hadamard, Phase
from qlin.kernels import _BLOCK, _SMALL_STATE, apply_plan, plan

from .oracles import assert_close, dense_unitary

# the large angles overflow when two of them are summed (1e308) or cancel
# away a small angle summed between them (1e17)
ANGLES = st.one_of(
    st.sampled_from([0.0, math.pi, -math.pi, math.pi / 2, math.pi / 4]),
    st.sampled_from([1e308, -1e308, 1e17, -1e17]),
    st.floats(-7.0, 7.0, allow_nan=False),
)

# one-wire runs, in time order, whose 2x2 product has zero entries, exactly or
# to rounding: H P(0) H is I, H P(pi) H is X, H H is I and P(pi/2) H P(pi) H
# is X diag(1, i); a kernel that divides by an entry fails on them
ZERO_ENTRY_RUNS = [
    [Hadamard, (Phase, 0.0), Hadamard],
    [Hadamard, (Phase, math.pi), Hadamard],
    [Hadamard, Hadamard],
    [(Phase, math.pi / 2), Hadamard, (Phase, math.pi), Hadamard],
]


@st.composite
def programs(draw, max_wires, min_wires=1):
    """A state of n wires (and maybe a batch axis) and gates on k <= n of them.

    The gates come in blocks that fold: one-wire runs of H and P, runs of
    CNOT and P whose CNOTs need not cancel, QAOA-like CNOT.P.CNOT gadgets
    sharing one angle, and single gates in between.
    """
    n = draw(st.integers(min_wires, max_wires))
    k = draw(st.integers(1, n))
    wires = draw(st.permutations(range(n)))[:k]
    shared = draw(ANGLES)
    angle = st.one_of(st.just(shared), ANGLES)
    wire = st.integers(0, k - 1)
    kinds = ["one-wire", "zero-entry", "single"] + (["cnot-p", "gadgets"] if k > 1 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=8)):
        if kind == "one-wire":
            w = draw(wire)
            for _ in range(draw(st.integers(1, 5))):
                gates.append(Hadamard(w) if draw(st.booleans()) else Phase(draw(angle), w))
        elif kind == "zero-entry":
            w = draw(wire)
            for g in draw(st.sampled_from(ZERO_ENTRY_RUNS)):
                gates.append(g(w) if g is Hadamard else Phase(g[1], w))
        elif kind == "cnot-p":
            for _ in range(draw(st.integers(1, 10))):
                if draw(st.booleans()):
                    c, t = draw(st.permutations(range(k)))[:2]
                    gates.append(ControlledNot(c, t))
                else:
                    gates.append(Phase(draw(angle), draw(wire)))
        elif kind == "gadgets":
            for _ in range(draw(st.integers(1, 6))):
                c, t = draw(st.permutations(range(k)))[:2]
                gates += [ControlledNot(c, t), Phase(shared, t), ControlledNot(c, t)]
        else:
            gate = draw(st.sampled_from(["H", "P", "CNOT"] if k > 1 else ["H", "P"]))
            if gate == "CNOT":
                c, t = draw(st.permutations(range(k)))[:2]
                gates.append(ControlledNot(c, t))
            else:
                gates.append(Hadamard(draw(wire)) if gate == "H" else Phase(draw(angle), draw(wire)))
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = rng.normal(size=(2**n,) + batch) + 1j * rng.normal(size=(2**n,) + batch)
    state /= np.linalg.norm(state)
    return n, k, wires, gates, state


def assert_fused_matches_unfused(program):
    n, k, wires, gates, state = program
    fused, unfused = state.copy(), state.copy()
    apply_plan(fused, plan(gates), wires)
    for gate in gates:
        apply_plan(unfused, plan([gate]), wires)
    assert_close(fused, unfused, tol=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(programs(max_wires=10))
def test_fused_plan_matches_the_gates_one_at_a_time(program):
    assert_fused_matches_unfused(program)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(programs(min_wires=13, max_wires=13))
def test_fused_plan_matches_the_gates_one_at_a_time_on_large_states(program):
    # above the small-state buffer, a 2x2 pass runs in two halves
    assert_fused_matches_unfused(program)


@st.composite
def layers(draw):
    """A state above _SMALL_STATE and layers of one-wire runs on k of its wires.

    The state has 13 or 14 wires and maybe a batch axis. Gate wire j sits on
    state wire wires[j]: consecutive, descending or with gaps. Each layer is
    one run of H and P gates on each of some of the wires, in any order, and
    a CNOT may stand between two layers.
    """
    n = draw(st.integers(13, 14))
    k = draw(st.integers(2, 5))
    # at either end a block spans the first wire (one row, split by columns)
    # or the last (rest 1 without a batch, one product of all the rows); one
    # or two wires short of the last, a block has a rest of 2 or 4
    start = draw(st.one_of(st.sampled_from([0, n - k, n - k - 1, n - k - 2]), st.integers(0, n - k)))
    spacing = draw(st.sampled_from(["consecutive", "descending", "gapped"]))
    if spacing == "consecutive":
        wires = list(range(start, start + k))
    elif spacing == "descending":
        wires = list(range(start + k - 1, start - 1, -1))
    else:
        wires = sorted(draw(st.permutations(range(n)))[:k])
    gates = []
    for _ in range(draw(st.integers(1, 3))):
        for w in draw(st.permutations(range(k)))[: draw(st.integers(2, k))]:
            if draw(st.booleans()):
                for g in draw(st.sampled_from(ZERO_ENTRY_RUNS)):
                    gates.append(g(w) if g is Hadamard else Phase(g[1], w))
            else:
                for _ in range(draw(st.integers(1, 3))):
                    gates.append(Hadamard(w) if draw(st.booleans()) else Phase(draw(ANGLES), w))
        if draw(st.booleans()):
            gates.append(ControlledNot(*draw(st.permutations(range(k)))[:2]))
    batch = draw(st.sampled_from([(), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = rng.normal(size=(2**n,) + batch) + 1j * rng.normal(size=(2**n,) + batch)
    state /= np.linalg.norm(state)
    assert state.size > _SMALL_STATE
    return n, k, wires, gates, state


@settings(max_examples=40, deadline=None, derandomize=True)
@given(layers())
def test_layers_on_large_states_match_the_gates_one_at_a_time(program):
    # above _SMALL_STATE a layer's passes on consecutive state wires run as
    # one dense block; on gapped wires, or alone, each keeps its own kernel
    assert_fused_matches_unfused(program)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(layers())
def test_layers_on_large_states_match_the_dense_oracle(program):
    n, k, wires, gates, state = program
    fused = state.copy()
    apply_plan(fused, plan(gates), wires)
    # the oracle's k-wire unitary, applied with gate wire j on state wire wires[j]
    u = dense_unitary(Circuit(k, gates)).reshape([2] * 2 * k)
    t = np.moveaxis(state.reshape([2] * n + [-1]), wires, range(k))
    expected = np.moveaxis(np.tensordot(u, t, axes=(range(k, 2 * k), range(k))), range(k), wires)
    assert_close(fused, expected.reshape(state.shape), tol=1e-12)


@pytest.mark.parametrize("size, blocks", [(_SMALL_STATE, False), (2 * _SMALL_STATE, True)])
def test_a_layer_runs_dense_blocks_only_above_the_small_state(monkeypatch, size, blocks):
    # the boundary itself: a layer on exactly _SMALL_STATE entries runs each
    # pass on its own, one on twice that runs its consecutive wires as blocks
    calls, dense = [], kernels._dense

    def counting(*args):
        calls.append(args)
        return dense(*args)

    monkeypatch.setattr(kernels, "_dense", counting)
    gates = [g for w in range(_BLOCK) for g in (Hadamard(w), Phase(0.25 * w, w))]
    steps = plan(gates)
    assert [kernel for kernel, _, _ in steps] == [kernels._unitary] * _BLOCK
    state = np.random.default_rng(3).normal(size=size).astype(complex)
    expected = state.copy()
    for gate in gates:
        apply_plan(expected, plan([gate]), range(_BLOCK))
    apply_plan(state, steps, range(_BLOCK))
    assert bool(calls) == blocks
    assert_close(state, expected, tol=1e-12)


def test_one_wire_pass_on_a_large_odd_batch():
    # one wire and an odd batch: the 2x2 runs in pieces of 2049, 2049 and 1 columns
    state = np.random.default_rng(1).normal(size=(2, 4099)).astype(complex)
    gates = [Hadamard(0), Phase(0.3, 0), Hadamard(0)]
    fused, unfused = state.copy(), state.copy()
    apply_plan(fused, plan(gates), [0])
    for gate in gates:
        apply_plan(unfused, plan([gate]), [0])
    assert plan(gates)[0][0].__name__ == "_unitary"
    assert_close(fused, unfused, tol=1e-12)


def _complex_normal(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# A dense block's product may be taken a chunk of the state at a time, as
# `_dense` does, only where each entry comes out as from the whole product.
# With scipy-openblas 0.3.31 (Haswell kernels) that holds for column chunks
# whose widths are multiples of 4, the last one of any width but 1, and for
# row chunks of at least 2 rows. A chunk of one column or one row is a
# matrix-vector product, and column chunks of other widths fall on other
# tiles of the BLAS kernel: both change last digits.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 5), st.sampled_from([1, 2, 3, 8]), st.lists(st.integers(1, 64).map(lambda w: 4 * w), max_size=4),
       st.integers(2, 300), st.integers(0, 2**32 - 1))
def test_matmul_entries_do_not_depend_on_the_column_chunks(k, lead, widths, last, seed):
    m = _complex_normal(seed, (2**k, 2**k))
    x = _complex_normal(seed + 1, (lead, 2**k, sum(widths) + last))
    out = np.empty_like(x)
    edges = np.cumsum([0, *widths, last])
    for start, stop in zip(edges, edges[1:]):
        np.matmul(m, x[..., start:stop], out=out[..., start:stop])
    assert np.array_equal(out, np.matmul(m, x))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 5), st.lists(st.integers(2, 300), min_size=1, max_size=5), st.integers(0, 2**32 - 1))
def test_matmul_entries_do_not_depend_on_the_row_chunks(k, widths, seed):
    # the form `_dense` takes when the block's wires end the state (rest == 1)
    m = _complex_normal(seed, (2**k, 2**k))
    x = _complex_normal(seed + 1, (sum(widths), 2**k, 1))
    out = np.empty_like(x)
    edges = np.cumsum([0, *widths])
    for start, stop in zip(edges, edges[1:]):
        np.matmul(x[start:stop, :, 0], m.T, out=out[start:stop, :, 0])
    assert np.array_equal(out[..., 0], np.matmul(x[..., 0], m.T))


# The pieces `_chunks` cuts, on every power-of-two state of 2**13 to 2**24
# entries and every wire or block position, with apply_plan's buffer of half
# the state. The views are zero-stride, so no state is allocated.
LARGE_SIZES = pytest.mark.parametrize("n", range(13, 25))


def _zero_stride(size):
    return np.broadcast_to(np.zeros(1, dtype=complex), (size,))


def _views(n):
    """The (rows, k, rest) shapes of every 2x2 and dense-block pass on n wires."""
    shapes = [(2**w, 2, 2 ** (n - w - 1)) for w in range(n)]
    shapes += [(2**lo, 2**k, 2 ** (n - lo - k)) for k in range(2, _BLOCK + 1) for lo in range(n - k + 1)]
    return shapes


@LARGE_SIZES
def test_chunks_tile_the_view_in_order_within_the_buffer(n):
    scratch = _zero_stride(2**n // 2)
    index = np.arange(2 ** (n - 1), dtype=np.int32)
    for shape in _views(n):
        rows, k, rest = shape
        # each entry's row and column, so a piece tells where it starts and ends
        row_of = np.broadcast_to(index[:rows, None, None], shape)
        col_of = np.broadcast_to(index[None, None, :rest], shape)
        row, col = 0, 0
        for r, c in zip(kernels._chunks(row_of, scratch), kernels._chunks(col_of, scratch)):
            r0, r1, c0, c1 = r[0, 0, 0], r[-1, 0, 0] + 1, c[0, 0, 0], c[0, 0, -1] + 1
            assert r.shape == c.shape == (r1 - r0, k, c1 - c0) and r.size <= scratch.size
            assert (r0, c0) == (row, col)
            if c1 - c0 == rest:  # whole rows
                row += r1 - r0
            else:  # a piece of one row's columns
                assert r1 - r0 == 1
                row, col = (row + 1, 0) if c1 == rest else (row, c1)
        assert (row, col) == (rows, 0)


def _pieces(monkeypatch, kernel, n, axes, *params):
    """The pieces `kernel` takes from `_chunks` on a zero-stride state of 2**n
    entries, with apply_plan's buffer; the kernel is given none to work on."""
    taken = []
    real = kernels._chunks

    def chunks(v, scratch):
        taken.extend(real(v, scratch))
        return iter(())

    monkeypatch.setattr(kernels, "_chunks", chunks)
    kernel(_zero_stride(2**n), _zero_stride(max(2**n // 2, _SMALL_STATE)), axes, *params)
    monkeypatch.undo()
    return taken


@pytest.mark.parametrize("n", range(1, 25))
def test_a_2x2_runs_in_two_pieces_only_above_the_small_state(monkeypatch, n):
    for w in range(n):
        pieces = _pieces(monkeypatch, kernels._unitary, n, [w], (1, 0, 0, 1))
        assert len(pieces) == (2 if 2**n > _SMALL_STATE else 1)


@LARGE_SIZES
def test_a_dense_block_takes_pieces_whose_matmul_entries_do_not_depend_on_them(monkeypatch, n):
    # the conditions of the two matmul properties above: column pieces of
    # multiples of 4, and row pieces of at least 2 rows when rest == 1
    for k in range(2, _BLOCK + 1):
        for lo in range(n - k + 1):
            rest = 2 ** (n - lo - k)
            for piece in _pieces(monkeypatch, kernels._dense, n, list(range(lo, lo + k)), None):
                if piece.shape[2] < rest:
                    assert piece.shape[2] % 4 == 0
                if rest == 1:
                    assert len(piece) >= 2


@settings(max_examples=100, deadline=None, derandomize=True)
@given(programs(max_wires=6))
def test_fused_plan_matches_the_dense_oracle(program):
    n, k, wires, gates, state = program
    fused = state.copy()
    apply_plan(fused, plan(gates), wires)
    oracle = dense_unitary(apply(Circuit(k, gates), identity(n), wires))
    assert_close(fused, np.tensordot(oracle, state, axes=1), tol=1e-12)


def test_qaoa_plan_is_an_h_layer_then_one_diagonal_and_one_mixer_layer_per_layer():
    graph = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    steps = plan(qaoa_unitary([0.3, 0.5], [0.7, 1.1], graph).gates)
    kinds = [kernel.__name__ for kernel, _, _ in steps]
    assert kinds == ["_hadamard"] * 4 + (["_diagonal"] + ["_unitary"] * 4) * 2
    # each one-wire layer holds one pass per wire: H first, then each mixer's 2x2
    for layer in (steps[0:4], steps[5:9], steps[10:14]):
        assert sorted(wires for _, wires, _ in layer) == [(0,), (1,), (2,), (3,)]


def test_qaoa_circuits_on_one_graph_share_their_parity_counts():
    graph = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)))
    plans = [plan(qaoa_unitary(betas, gammas, graph).gates)
             for betas, gammas in (([0.3, 0.5], [0.7, 1.1]), ([0.2, 0.9], [1.3, 0.4]))]
    counts = [[params[1] for kernel, _, params in steps if kernel.__name__ == "_diagonal"]
              for steps in plans]
    assert len(counts[0]) == len(counts[1]) == 2
    assert all(a is b for a, b in zip(*counts))


def _wide_qaoa_plan():
    """The plan of a p = 2 QAOA circuit on a 3-regular graph of 20 vertices, as in a wide QAOA round."""
    n = 20
    edges = tuple((i, (i + 1) % n) for i in range(n)) + tuple((i, i + 10) for i in range(10))
    return plan(qaoa_unitary([0.3, 0.5], [0.7, 1.1], Graph(n, edges)).gates)


def _stream(steps, n, fresh):
    """The kernel calls apply_plan makes for `steps` on n wires, as (kernel name, state wires)."""
    return [(kernel.__name__, axes) for kernel, axes, _ in kernels._calls(steps, range(n), 2**n, fresh)]


@pytest.mark.parametrize("fresh", [True, False])
def test_the_20_wire_qaoa_stream_is_a_start_then_a_diagonal_and_four_blocks_per_layer(fresh):
    # no state is allocated: the stream needs the state's size only
    blocks = [("_dense", list(range(lo, lo + 5))) for lo in range(0, 20, 5)]
    start = [("_product_start", list(range(20)))] if fresh else blocks
    assert _stream(_wide_qaoa_plan(), 20, fresh) == start + ([("_diagonal", list(range(20)))] + blocks) * 2


@pytest.mark.parametrize("fresh", [True, False])
def test_an_h_layer_runs_per_wire_up_to_the_small_state_and_in_blocks_above(fresh):
    # 12 wires are exactly _SMALL_STATE entries; 13 are the first above them
    steps = plan([Hadamard(w) for w in range(13)])
    assert _stream(steps[:12], 12, fresh) == [("_hadamard", [w]) for w in range(12)]
    blocks = [("_dense", [0, 1, 2, 3, 4]), ("_dense", [5, 6, 7, 8, 9]), ("_dense", [10, 11, 12])]
    assert _stream(steps, 13, fresh) == ([("_product_start", list(range(13)))] if fresh else blocks)


def _qaoa_plan_peak(fresh):
    """The tracemalloc peak of the 20-wire QAOA plan on |0...0>, and the state it leaves."""
    # each layer runs as four 5-wire dense blocks through the scratch buffer
    n = 20
    steps = _wide_qaoa_plan()
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    tracemalloc.start()
    try:
        apply_plan(state, steps, range(n), fresh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    return peak, state


def test_qaoa_plan_on_20_wires_allocates_no_state_sized_temporary():
    peak, _ = _qaoa_plan_peak(fresh=False)
    assert peak <= (2**20 // 2 + 1) * 16 + 64 * 1024


def test_product_start_on_20_wires_allocates_no_state_sized_temporary():
    # the opening H layer's partial products go through the scratch buffer
    # and the state itself, and the floats are the dense blocks'
    peak, state = _qaoa_plan_peak(fresh=True)
    assert peak <= (2**20 // 2 + 1) * 16 + 64 * 1024
    assert np.array_equal(state, _qaoa_plan_peak(fresh=False)[1])


def test_large_angles_neither_overflow_nor_cancel_a_small_one():
    circuits = [
        # the two 1e308 phases of wire 0 sum to inf as angles
        Circuit(2, [Phase(1e308, 0), Phase(1e308, 0), Phase(0.1, 1)]),
        # two gadgets on one mask sharing 1e308: 2e308 in the table
        Circuit(3, [ControlledNot(0, 1), Phase(1e308, 1), ControlledNot(0, 1),
                    ControlledNot(0, 1), Phase(1e308, 1), ControlledNot(0, 1),
                    ControlledNot(1, 2), Phase(1e308, 2), ControlledNot(1, 2)]),
        # 0.5 + 1e17 - 1e17 is 0 as a sum of angles
        Circuit(2, [ControlledNot(0, 1), Phase(0.5, 1), Phase(1e17, 1), Phase(-1e17, 1),
                    ControlledNot(0, 1)]),
    ]
    for circuit in circuits:
        assert_close(matrix_of(circuit), dense_unitary(circuit), tol=1e-12)


def test_plan_keeps_counts_bounded_for_distinct_angle_terms():
    # one run of Pauli-Z exponentials (CNOT ladder, P, inverse ladder) on 16
    # wires, where angle j is shared by the string on every wire but j and
    # the one on j and j + 1: each angle's pair of strings has a shape of its
    # own, so folded, each would need counts on all 16 wires
    n = 16
    gates = []
    for j in range(n):
        for wires in ([w for w in range(n) if w != j], [j, (j + 1) % n]):
            ladder = [ControlledNot(a, b) for a, b in zip(wires, wires[1:])]
            gates += ladder + [Phase(0.1 + 0.01 * j, wires[-1])] + ladder[::-1]
    state = np.random.default_rng(2).normal(size=2**n).astype(complex)
    tracemalloc.start()
    try:
        steps = plan(gates)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # unbounded, the 16 counts of 2**16 bytes held as much as the state
    assert held < state.nbytes / 8
    fused, unfused = state.copy(), state.copy()
    apply_plan(fused, steps, range(n))
    for gate in gates:
        apply_plan(unfused, plan([gate]), range(n))
    assert_close(fused, unfused, tol=1e-12)


def test_apply_plan_refuses_a_state_that_is_not_c_contiguous():
    state = np.zeros((4, 2), dtype=complex)[:, 0]  # a strided view of four amplitudes
    with pytest.raises(ValueError) as err:
        apply_plan(state, plan([Hadamard(0)]), [0])
    assert str(err.value) == "the state must be C-contiguous, since kernels write through views"
