"""The action of each gate kind on a state, written once, and the plan that fuses
a gate sequence into a few in-place passes over it.

A state is a C-contiguous array whose index, read in binary from its most
significant digit, holds one digit per wire, wire 0 first, followed by any
batch index: the simulator passes its amplitude vector, and matrix_of passes
the identity, whose column index is the batch. Every kernel writes through a
reshaped view of that array, so the caller's array is updated in place.

`plan(gates)` turns a gate sequence into a tuple of passes, in the gates' own
wire numbers, and `apply_plan(t, steps, wires)` runs it with a gate's wire k on
wire wires[k] of the state; `Circuit` keeps its plan, so a circuit applied many
times is planned once. Two circuits applied in turn run their own plans,
whose floats may differ in the last digit from their composition's plan, so
paths that must agree bit for bit apply the same circuits in the same order:
the simulator's `count_ones` applies a prep and then a basis, in one session,
as the device's default shots do.
Two kinds of run fold:

- A maximal run of H and P gates on one wire becomes one 2x2 matrix, multiplied
  out with Python complex numbers (on 2x2 arrays numpy costs more than the pass
  it saves) and applied in one pass. A lone H, or a run of Ps only, keeps its
  own cheaper kernel.
- A maximal run of CNOT and P gates is a phase polynomial (Amy, Maslov and
  Mosca, arXiv:1303.2042). Each wire holds the parity of a mask of the run's
  input wires: CNOT(c, t) sets mask[t] ^= mask[c], and P(a) on w multiplies
  the term of mask[w] by exp(ia). The run equals the diagonal
  prod_m term_m ** parity_m(x) followed by the run's CNOTs without its Ps,
  which are replayed only when the masks do not end as the identity. Terms
  are products of phases, not sums of angles, so no angle a circuit accepts
  overflows or cancels away a small one. Single-wire terms keep the phase
  kernel. The other terms that share a phase exp(ia), a in (-pi, pi], become
  one multiply by table[count(x)], with table[k] = exp(iak) and count(x) the
  number of their masks of odd parity on x, so a QAOA cost layer
  exp(-i*gamma*C) is one multiply (Farhi, Goldstone and Gutmann,
  arXiv:1411.4028).

count depends on the masks only, not on the angles. It is built once for
all the plan's runs of one shape (the layers of a QAOA circuit share one) and
kept with the plan, so a circuit simulated again builds none; the last few
built are also shared across plans, so the circuits of a QAOA run on one
graph, which differ in their angles only, build it once. The counts a plan
keeps are bounded: at most 2**width bytes for gates on `width` wires, 1/16 of
a state on them (or 64 KiB, if more); a run whose counts would take them past
that is applied one gate at a time. That happens when many angles each have
masks of a shape of their own on many wires, since each such angle needs
counts of its own.

The plan is flat: each pass is one kernel on the gates' own wires, and
nothing in it depends on the state it will run on. apply_plan alone chooses
how to run it, since it alone knows the state's size and whether the state
is fresh, and it makes every kernel call from one stream, `_calls`, which
yields each call as (kernel, state wires, params). On a state of at most
_SMALL_STATE entries the stream is the passes themselves, in plan order, on
state wires. On a larger one it groups each maximal run of one-wire passes
(H, P or 2x2) on distinct state wires into a layer, such as the opening H
layer or a mixer layer of a QAOA circuit; a repeated wire closes the run.
The wire map is injective, so a circuit applied through it and its
relabelled copy applied directly run the same calls. A layer's passes on up
to _BLOCK consecutive state wires run as one `_dense` block, the Kronecker
product of their 2x2s, multiplied by np.matmul (state-vector gate fusion:
Häner and Steiger, arXiv:1704.01127); a pass with no neighbour keeps its
kernel. When the caller says the state is |0...0>, an opening layer of two
or more passes on a large state is one `_product_start` call: each block
maps |0...0> on its wires to its matrix's first column, so the layer's
result is the outer product of those columns, taken in the order the blocks
run (ascending state wires, the first block the most significant digit),
with |0> on every wire the layer skips. The products are the blocks' own,
in the same order: a real layer (H) gives the passes' floats exactly, and a
complex one agrees to rounding, since np.matmul may round a complex product
differently. The opening H layer of a 20-wire QAOA circuit is then one
write of the state, not four passes.

H, CNOT and the 2x2 act on a (2**w, 2, rest) view, in which [:, b] is the half
where wire w reads b, and a block on the (2**lo, 2**k, rest) view. apply_plan
allocates one scratch buffer of half the state's size (a small state gets up
to 64 KiB) and every pass reuses it; no pass allocates a temporary the size
of the state. `_chunks` alone cuts what a pass stages through it, the 2x2's
two products and a block's product, into pieces: whole rows of the pass's
view while one row fits, else pieces of one row's columns, so a 2x2 on a
large state runs in two. table[count] is gathered into it in pieces of at
most _SMALL_STATE entries, since take converts each piece's counts to intp,
and a product start's partial products alternate between it and the state.
"""
from __future__ import annotations

import cmath
import contextlib
import functools
import itertools
import math
from collections.abc import Iterator, Sequence

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# the scratch buffer has at least this many entries (64 KiB), so a state of up
# to as many runs each 2x2 in one pass: there, splitting it costs more numpy
# calls than the memory it saves is worth
_SMALL_STATE = 4096
# a plan's parity counts hold at most max(2**width, this) bytes, 1/16 of a
# state on its width; a run that would take them past it is not folded
_COUNTS_FLOOR = 1 << 16
# the widest dense block a layer forms on a large state: a 20-wire mixer layer
# took 40, 38 and 62 ms in blocks of 4, 5 and 6 wires, against 157 ms as one
# pass per wire (2-core Xeon, one BLAS thread)
_BLOCK = 5


@contextlib.contextmanager
def _small_ufunc_buffer():
    """Hold numpy's ufunc buffer at 512 entries; restore its size after.

    numpy buffers a product broadcast along a short inner axis (an outer
    product, rows scaled by a column) in pieces of 8192 entries by default,
    256 KiB beside the state; pieces of 512 take the same time. A product by
    a scalar needs no buffer and stays outside: a setbufsize pair costs 2 us.
    """
    size = np.setbufsize(512)
    try:
        yield
    finally:
        np.setbufsize(size)


def _buffer(scratch: np.ndarray, like: np.ndarray) -> np.ndarray:
    """The start of the scratch buffer, shaped like `like`."""
    return scratch[: like.size].reshape(like.shape)


def _chunks(v: np.ndarray, scratch: np.ndarray) -> Iterator[np.ndarray]:
    """Views that cover the (rows, k, rest) view v in order, each of at most scratch.size entries:
    whole rows while one row fits the buffer, else pieces of one row's columns."""
    rows, k, rest = v.shape
    step = scratch.size // (k * rest)
    if step:
        for s in range(0, rows, step):
            yield v[s : s + step]
    else:
        cols = scratch.size // k
        for r, s in itertools.product(range(rows), range(0, rest, cols)):
            yield v[r : r + 1, :, s : s + cols]


def _hadamard(t: np.ndarray, scratch: np.ndarray, axes: Sequence[int]) -> None:
    v = t.reshape(2 ** axes[0], 2, -1)
    x0, x1 = v[:, 0], v[:, 1]
    total = _buffer(scratch, x0)
    np.add(x0, x1, out=total)
    np.subtract(x0, x1, out=x1)
    np.multiply(total, _INV_SQRT2, out=x0)
    x1 *= _INV_SQRT2


def _phase(t: np.ndarray, scratch: np.ndarray, axes: Sequence[int], phase: complex) -> None:
    t.reshape(2 ** axes[0], 2, -1)[:, 1] *= phase


def _unitary(t: np.ndarray, scratch: np.ndarray, axes: Sequence[int], u: tuple) -> None:
    """Multiply wire axes[0] by the 2x2 matrix u = (a, b, c, d), row by row."""
    a, b, c, d = u
    # b*x1 and c*x0 together hold as many entries as their piece
    for piece in _chunks(t.reshape(2 ** axes[0], 2, -1), scratch):
        x0, x1 = piece[:, 0], piece[:, 1]
        bx1 = _buffer(scratch, x0)
        cx0 = _buffer(scratch[x0.size :], x0)
        np.multiply(x1, b, out=bx1)
        np.multiply(x0, c, out=cx0)
        x0 *= a
        x0 += bx1
        x1 *= d
        x1 += cx0


def _cnot(t: np.ndarray, scratch: np.ndarray, axes: Sequence[int]) -> None:
    control, target = axes
    lo, hi = sorted(axes)
    v = t.reshape(2**lo, 2, 2 ** (hi - lo - 1), 2, -1)
    if control < target:
        x10, x11 = v[:, 1, :, 0], v[:, 1, :, 1]
    else:
        x10, x11 = v[:, 0, :, 1], v[:, 1, :, 1]
    # both halves go through the buffer: numpy copies one view of an array
    # into another of the same array through a temporary of its own
    a10, a11 = _buffer(scratch, x10), _buffer(scratch[x10.size :], x11)
    np.copyto(a10, x10)
    np.copyto(a11, x11)
    np.copyto(x10, a11)
    np.copyto(x11, a10)


def _dense(t: np.ndarray, scratch: np.ndarray, axes: Sequence[int], m: np.ndarray) -> None:
    """Multiply the consecutive wires axes[0], axes[0] + 1, ... by the matrix m.

    The first wire is the most significant digit of m's index. The products
    go through the scratch buffer, a piece of the state at a time (see
    _chunks), and are copied back.
    """
    v = t.reshape(2 ** axes[0], 2 ** len(axes), -1)
    for x in _chunks(v, scratch):
        out = _buffer(scratch, x)
        if v.shape[2] == 1:
            # one product of all the rows, not one matrix-vector product each
            np.matmul(x[..., 0], m.T, out=out[..., 0])
        else:
            np.matmul(m, x, out=out)
        np.copyto(x, out)


def _matrix(kernel, params: tuple) -> np.ndarray:
    """The 2x2 matrix of a one-wire pass: the pass run on the identity, its columns the batch."""
    m = np.eye(2, dtype=complex)
    kernel(m.reshape(-1), np.empty(4, dtype=complex), [0], *params)
    return m


def _block_matrix(block: Sequence[tuple], columns: int = 2) -> np.ndarray:
    """The Kronecker product of the 2x2s of the passes of `block`, the first most significant.

    With `columns` = 1 it is the product of their first columns, which is
    the first column of the whole product, entry for entry.
    """
    kernel, _, params = block[0]
    m = _matrix(kernel, params)[:, :columns]
    for kernel, _, params in block[1:]:
        # the Kronecker product, with fewer temporaries than np.kron
        m = (m[:, None, :, None] * _matrix(kernel, params)[:, None, :columns]).reshape(2 * len(m), -1)
    return m


def _product_start(t: np.ndarray, scratch: np.ndarray, axes: Sequence[int], columns: Sequence[np.ndarray]) -> None:
    """Write |0...0> with a layer of one-wire passes on the ascending `axes` applied, as a product state.

    `columns` are the first columns of the layer's blocks, in the order they
    run; see the module docstring. The partial products alternate between
    the scratch buffer and `t`, so that the last one, at most half the
    state, is in the buffer when the full product is written into `t`.
    """
    last = axes[-1]
    # the entries of t where every wire the layer skips, and the rest, read 0
    view = t.reshape([2] * (last + 1) + [-1])[
        tuple(slice(None) if w in axes else 0 for w in range(last + 1)) + (0,)]
    k = columns[-1].size.bit_length() - 1
    with _small_ufunc_buffer():
        product, used = np.ones(1, dtype=t.dtype), 0
        for i, column in enumerate(columns[:-1]):
            size = product.size * column.size
            if (len(columns) - i) % 2:
                used, buffer = size, t[:size]
            else:
                buffer = scratch[:size]
            np.multiply.outer(product, column, out=buffer.reshape(product.size, column.size))
            product = buffer
        t[:used] = 0
        np.multiply(product.reshape([2] * (len(axes) - k) + [1] * k), columns[-1].reshape([2] * k), out=view)


@functools.lru_cache(maxsize=8)
def _parity_counts(k: int, masks: tuple[int, ...]) -> np.ndarray:
    """count(x) on k wires, one axis each: how many masks have odd parity on x.

    Bit p of a mask is wire p. Read-only, since plans that share it keep it.
    The 8 most recently used are kept across plans, so the QAOA circuits of
    one graph, which differ in their angles only, build theirs once; each is
    within the budget of the plan that built it, so together they hold at
    most half a state on the widest plan's wires (or 512 KiB, if more).
    """
    digits = [np.arange(2, dtype=np.uint8).reshape([2 if a == p else 1 for a in range(k)])
              for p in range(k)]
    counts = np.zeros([2] * k, dtype=np.min_scalar_type(len(masks)))
    for mask in masks:
        parity = np.uint8(0)
        for p in range(k):
            if mask >> p & 1:
                parity = parity ^ digits[p]
        counts += parity
    counts.flags.writeable = False
    return counts


def _diagonal(
    t: np.ndarray, scratch: np.ndarray, axes: Sequence[int], table: np.ndarray, counts: np.ndarray
) -> None:
    """Multiply basis state x by table[counts[x]], where counts has one axis per axes[p]."""
    order = sorted(range(len(axes)), key=axes.__getitem__)
    counts = counts.transpose(order)
    ascending = [axes[p] for p in order]
    last = ascending[-1]
    # size-1 axes for the wires counts skips and one for the rest of the index
    spread = [None] * (last + 2)
    for a in ascending:
        spread[a] = slice(None)
    counts = counts[tuple(spread)]
    v = t.reshape([2] * (last + 1) + [-1])
    # take converts its indices to intp, so it gathers pieces of at most
    # _SMALL_STATE counts, each with the bits of the first `fixed` wires set
    fixed = ascending[: max(0, counts.size.bit_length() - _SMALL_STATE.bit_length())]
    for bits in itertools.product((0, 1), repeat=len(fixed)):
        piece = [slice(None)] * (last + 2)
        for a, bit in zip(fixed, bits):
            piece[a] = bit
        piece = tuple(piece)
        phases = _buffer(scratch, counts[piece])
        # mode="clip" writes into `phases` directly; the default buffers a copy
        table.take(counts[piece], out=phases, mode="clip")
        v[piece] *= phases


def _unit(angle: float) -> complex:
    """e^(i*angle), as the phase kernel of one P gate multiplies by it."""
    return complex(math.cos(angle), math.sin(angle))


def _fold_one_wire(run: Sequence) -> tuple:
    """The pass for a run of H and P gates on one wire."""
    wire = (run[0].wires[0],)
    if len(run) == 1 and run[0].name == "H":
        return (_hadamard, wire, ())
    a, b, c, d = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for gate in run:
        if gate.name == "H":
            a, b, c, d = (_INV_SQRT2 * (a + c), _INV_SQRT2 * (b + d),
                          _INV_SQRT2 * (a - c), _INV_SQRT2 * (b - d))
        else:
            phase = _unit(gate.angle)
            c, d = c * phase, d * phase
    if b == c == 0 and a == 1:  # Ps only
        return (_phase, wire, (d,))
    return (_unitary, wire, ((a, b, c, d),))


def _fold_phase_polynomial(run: Sequence, built: dict, budget: int) -> list[tuple]:
    """The passes for a run of CNOT and P gates.

    `built` holds the plan's counts; a run whose new counts would take them
    past `budget` bytes is applied one gate at a time instead.
    """
    masks: dict[int, int] = {}  # wire -> the input wires whose parity it holds
    terms: dict[int, complex] = {}  # mask -> the product of its phases
    cnots = []
    for gate in run:
        if gate.name == "CNOT":
            c, t = gate.control, gate.target
            masks[t] = masks.get(t, 1 << t) ^ masks.get(c, 1 << c)
            cnots.append((_cnot, (c, t), ()))
        else:
            mask = masks.get(gate.wire, 1 << gate.wire)
            # phases, not angles, multiply up: a sum of angles can overflow
            # or cancel away a small one, and a product of phases cannot
            terms[mask] = terms.get(mask, 1.0) * _unit(gate.angle)
    steps = []
    groups: dict[complex, list[int]] = {}
    for mask, phase in terms.items():
        if phase == 1:
            continue
        if mask & (mask - 1) == 0:
            steps.append((_phase, (mask.bit_length() - 1,), (phase,)))
        else:
            groups.setdefault(phase, []).append(mask)
    diagonals = []
    for phase, group in groups.items():
        union = 0
        for mask in group:
            union |= mask
        wires = tuple(w for w in range(union.bit_length()) if union >> w & 1)
        # the masks over positions in `wires`: runs of one shape, such as the
        # layers of a QAOA circuit, share their counts
        key = (len(wires), tuple(sorted(
            sum(1 << p for p, w in enumerate(wires) if mask >> w & 1) for mask in group)))
        # |angle| <= pi, so table's largest angle is finite
        table = np.exp(1j * cmath.phase(phase) * np.arange(len(group) + 1))
        diagonals.append((wires, key, table))
    new = {key for _, key, _ in diagonals if key not in built}
    held = sum(counts.nbytes for counts in built.values())
    held += sum(2**k * np.min_scalar_type(len(m)).itemsize for k, m in new)
    if held > budget:
        return [(_cnot, gate.wires, ()) if gate.name == "CNOT"
                else (_phase, gate.wires, (_unit(gate.angle),)) for gate in run]
    for wires, key, table in diagonals:
        if key not in built:
            built[key] = _parity_counts(*key)
        steps.append((_diagonal, wires, (table, built[key])))
    if any(mask != 1 << w for w, mask in masks.items()):
        steps += cnots
    return steps


def plan(gates: Sequence) -> tuple[tuple, ...]:
    """The passes that apply `gates` in order, in the gates' own wire numbers.

    Each pass is (kernel, wires, params); see the module docstring for how
    runs fold.
    """
    steps: list[tuple] = []
    built: dict = {}
    width = max((w for gate in gates for w in gate.wires), default=-1) + 1
    budget = max(2**width, _COUNTS_FLOOR)
    run: list = []
    wire = None  # the one wire every gate of `run` acts on, if there is one
    has_h = False
    for gate in gates:
        wires, is_h = gate.wires, gate.name == "H"
        on_wire = wire is not None and wires == (wire,)
        # a gate joins the run on the run's one wire, or when neither has an H
        if run and not on_wire and (is_h or has_h):
            steps += _fold(run, wire, built, budget)
            run = []
        if not run:
            wire = wires[0] if len(wires) == 1 else None
            has_h = False
        elif not on_wire:
            wire = None
        has_h = has_h or is_h
        run.append(gate)
    if run:
        steps += _fold(run, wire, built, budget)
    return tuple(steps)


def _fold(run: Sequence, wire: int | None, built: dict, budget: int) -> list[tuple]:
    if wire is not None:
        return [_fold_one_wire(run)]
    return _fold_phase_polynomial(run, built, budget)


_ONE_WIRE = (_hadamard, _unitary, _phase)


def _calls(steps: Sequence[tuple], wires: Sequence[int], size: int, fresh: bool) -> Iterator[tuple]:
    """Every kernel call (kernel, axes, params) apply_plan makes to run `steps` on `size` entries.

    On at most _SMALL_STATE entries they are the passes themselves, on state
    wires. On more, each maximal run of one-wire passes on distinct state
    wires is a layer, in plan order, run as its blocks: runs of up to _BLOCK
    passes on consecutive state wires, in ascending wire order, each a pass
    of its own or a `_dense` multiply by its Kronecker product. On a `fresh`
    state, an opening layer of two or more passes is one `_product_start`
    of its blocks' first columns. See the module docstring.
    """
    passes = ((kernel, [wires[w] for w in step_wires], params) for kernel, step_wires, params in steps)
    if size <= _SMALL_STATE:
        yield from passes
        return
    layer: dict[int, tuple] = {}  # the open layer's passes, by their state wire
    # a pass of no kernel closes the last layer
    for step in itertools.chain(passes, [(None, [None], ())]):
        kernel, axes, _ = step
        if layer and (kernel not in _ONE_WIRE or axes[0] in layer):
            blocks: list[list[int]] = []  # runs of up to _BLOCK consecutive state wires
            for axis in sorted(layer):
                if blocks and axis == blocks[-1][-1] + 1 and len(blocks[-1]) < _BLOCK:
                    blocks[-1].append(axis)
                else:
                    blocks.append([axis])
            if fresh and len(layer) > 1:
                yield _product_start, sorted(layer), ([_block_matrix([layer[a] for a in block], 1)[:, 0]
                                                       for block in blocks],)
            else:
                for block in blocks:
                    if len(block) == 1:
                        yield layer[block[0]]
                    else:
                        yield _dense, block, (_block_matrix([layer[a] for a in block]),)
            layer, fresh = {}, False
        if kernel in _ONE_WIRE:
            layer[axes[0]] = step
        elif kernel:
            yield step
            fresh = False


def apply_plan(t: np.ndarray, steps: Sequence[tuple], wires: Sequence[int], fresh: bool = False) -> None:
    """Run the passes of `plan(...)` on `t`, in place, with a gate's wire k on wires[k].

    It makes the calls of `_calls`, one at a time; see the module docstring.
    `fresh` says that `t` is |0...0>, entry 0 exactly 1 and every other 0,
    so that an opening layer of two or more passes on a large state is
    written by `_product_start`.
    """
    if not t.flags.c_contiguous:
        raise ValueError("the state must be C-contiguous, since kernels write through views")
    if not steps:
        return
    flat = t.reshape(-1)
    # half the state; _chunks cuts a staged product to fit: whole rows, else one row's columns
    scratch = np.empty(max(flat.size // 2, _SMALL_STATE), dtype=t.dtype)
    for kernel, axes, params in _calls(steps, wires, flat.size, fresh):
        kernel(flat, scratch, axes, *params)
        # a block's matrix goes before the next one is built
        del params
