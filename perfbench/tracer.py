"""Spans around the calls into qlin's modules, recorded from outside the package.

`install` replaces every public function of each layer module with a timing
wrapper, in every qlin module that holds a reference to it, so names
imported with `from ... import` are timed where they are looked up. Circuit
construction and the simulator's backend and session classes are wrapped
on the class, so the real `StateVectorBackend` session is timed and a later
backend method (such as a sampling fast path) shows up by name.

Spans are kept in memory; `analyse` turns them into per-layer metrics. A
span's self time is its duration minus the durations of its direct children.
Work that runs inside a generator body of a `qprogram` (for example the RUS
loop of `algorithms.rus`) executes during `device.execute` and cannot be
placed from outside, so it is reported under the device layer and listed in
`MISSING`.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("algorithms", "device", "simulator", "circuit", "stdcircuits", "formats", "cli")

MISSING = (
    "algorithms generator bodies (rus, _energy_sample, _sample_cut) run inside "
    "device.execute and are counted as device self time",
    "QuantumState kernels are not wrapped; they are simulator.apply / simulator.measure time",
)

# Named groups of spans. A group's time and count come from its outermost
# spans, so a builder that calls another builder is not counted twice.
GROUPS = {
    "circuit.build": ("circuit", {"Circuit", "identity", "add_h", "add_p", "add_cnot",
                                  "compose", "tensor", "apply", "adjoint", "controlled"}),
    "circuit.optimise": ("circuit", {"optimise"}),
    "circuit.matrix_of": ("circuit", {"matrix_of"}),
    "circuit.inspect": ("circuit", {"gate_counts", "depth", "draw"}),
    "stdcircuits.qft": ("stdcircuits", {"qft"}),
    "formats.parse": ("formats", {"parse_circuit", "parse_qasm", "parse_graph", "parse_hamiltonian"}),
    "formats.emit": ("formats", {"format_circuit"}),
    "device.execute": ("device", {"execute", "execute_with_trace"}),
    "algorithms.estimate": ("algorithms", {"compute_energy", "compute_energy_pauli"}),
    "algorithms.propose": ("algorithms", {"random_ansatz_params", "random_qaoa_params"}),
    "algorithms.rus": ("algorithms", {"run_rus"}),
    "simulator.session": ("simulator", {"new_session"}),
    "simulator.allocate": ("simulator", {"allocate"}),
    "simulator.apply": ("simulator", {"apply"}),
    "simulator.rename": ("simulator", {"rename"}),
    "simulator.measure": ("simulator", {"measure"}),
    "cli.main": ("cli", {"main"}),
}
_GROUP_OF = {(layer, name): group for group, (layer, names) in GROUPS.items() for name in names}

_AMP_BYTES = 16  # complex128


class Span:
    __slots__ = ("parent", "op", "layer", "name", "start", "end", "info")

    def __init__(self, parent, op, layer, name):
        self.parent = parent
        self.op = op
        self.layer = layer
        self.name = name
        self.start = self.end = 0
        self.info = None


class Tracer:
    """Records spans; `op` marks one benchmark operation as the root span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None
        self._undo: list[tuple[object, str, object]] = []
        self._width: dict[int, int] = {}

    def run_op(self, op_id, fn, *args):
        span = Span(None, op_id, "op", "op")
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        self._op = op_id
        span.start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
            self._op = None

    def _wrap(self, layer, name, fn, info, untraced_under=None):
        """Timing wrapper; calls made directly from a span of layer
        `untraced_under` run unrecorded, inside that span's self time."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if untraced_under and stack and spans[stack[-1]].layer == untraced_under:
                return fn(*args, **kwargs)
            span = Span(stack[-1] if stack else None, self._op, layer, name)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def _replace(self, holder, attr, value):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def install(self, qlin_modules: dict) -> None:
        """Wrap the public functions of `qlin_modules` (layer name -> module)."""
        qlin_namespaces = [m for n, m in sys.modules.items() if n == "qlin" or n.startswith("qlin.")]
        for layer, module in qlin_modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(layer, name, obj, self._info(layer, name))
                for namespace in qlin_namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is obj:
                            self._replace(namespace, attr, wrapper)
        # Construction inside the circuit module's own builders is part of
        # their spans; a Circuit built anywhere else gets a span of its own.
        circuit_cls = qlin_modules["circuit"].Circuit
        self._replace(circuit_cls, "__init__", self._wrap(
            "circuit", "Circuit", circuit_cls.__init__, lambda a, r: len(a[0].gates), "circuit"))
        backend_cls = qlin_modules["simulator"].StateVectorBackend
        session_cls = type(backend_cls(seed=0).new_session())
        for cls in (backend_cls, session_cls):
            for name, obj in list(vars(cls).items()):
                if not name.startswith("_") and inspect.isfunction(obj):
                    self._replace(cls, name, self._wrap(
                        "simulator", name, obj, self._info("simulator", name)))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    def _info(self, layer, name):
        """Per-call counters, taken from arguments and results only."""
        width = self._width
        if layer == "simulator":
            if name == "new_session":
                def info(a, r):
                    width[id(r)] = 0
            elif name == "allocate":
                def info(a, r):
                    width[id(a[0])] = width.get(id(a[0]), 0) + len(a[1])
                    return width[id(a[0])]
            elif name == "measure":
                def info(a, r):
                    width[id(a[0])] = width.get(id(a[0]), 0) - len(a[1])
                    return len(a[1])
            elif name == "apply":
                def info(a, r):
                    amps = 1 << width.get(id(a[0]), 0)
                    kinds = [type(g).__name__ for g in a[2].gates]
                    full = kinds.count("Hadamard")
                    # computed bytes: every amplitude an H touches, half of
                    # them for P and CNOT, each read once and written once
                    touched = full * amps + (len(kinds) - full) * (amps // 2)
                    return (len(kinds), len(kinds) * amps, 2 * _AMP_BYTES * touched)
            else:
                return None
            return info
        if (layer, name) == ("circuit", "optimise"):
            return lambda a, r: len(a[0].gates) - len(r.gates)
        group = _GROUP_OF.get((layer, name))
        if group in ("circuit.build", "stdcircuits.qft"):
            return lambda a, r: len(r.gates)
        if group == "formats.parse":
            return lambda a, r: len(a[0].splitlines())
        if group == "formats.emit":
            return lambda a, r: len(r.encode())
        return None

    def dump(self, path) -> None:
        """Write the spans as JSON lines: index, op, parent, layer, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps([index, s.op, s.parent, s.layer, s.name, s.start, s.end]) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def analyse(spans: list[Span], untraced_wall_ns: int) -> tuple[dict, list[list]]:
    """Per-layer metrics (per op) and the per-layer table for one traced run."""
    ops = [s for s in spans if s.layer == "op"]
    n_ops = max(len(ops), 1)
    op_wall = sum(s.end - s.start for s in ops)
    own = self_times(spans)

    # ancestor keys (layers and groups) of each span, shared when unchanged
    ancestors: list[frozenset] = []
    for s in spans:
        if s.parent is None:
            ancestors.append(frozenset())
            continue
        p = spans[s.parent]
        keys = {p.layer, _GROUP_OF.get((p.layer, p.name))}
        base = ancestors[s.parent]
        ancestors.append(base if keys <= base else base | keys)

    layer_count = dict.fromkeys(LAYERS, 0)
    layer_total = dict.fromkeys(LAYERS, 0)
    layer_self = dict.fromkeys(LAYERS, 0)
    g_count = dict.fromkeys(GROUPS, 0)
    g_time = dict.fromkeys(GROUPS, 0)
    g_info = dict.fromkeys(GROUPS, 0)
    amps = bytes_moved = measured_in_rus = peak_width = device_ops = 0
    for s, anc, self_ns in zip(spans, ancestors, own):
        if s.layer not in layer_count:
            continue
        dur = s.end - s.start
        layer_count[s.layer] += 1
        layer_self[s.layer] += self_ns
        if s.layer not in anc:
            layer_total[s.layer] += dur
        group = _GROUP_OF.get((s.layer, s.name))
        if group is None or group in anc:
            continue
        g_count[group] += 1
        g_time[group] += dur
        if group == "simulator.apply" and s.info:
            g_info[group] += s.info[0]
            amps += s.info[1]
            bytes_moved += s.info[2]
        elif isinstance(s.info, int):
            g_info[group] += s.info
        if group == "simulator.allocate" and s.info:
            peak_width = max(peak_width, s.info)
        if group == "simulator.measure" and "algorithms.rus" in anc:
            measured_in_rus += s.info or 0
        if group in ("simulator.allocate", "simulator.apply", "simulator.measure") and "device.execute" in anc:
            device_ops += 1

    rus_runs = g_count["algorithms.rus"]
    rus_rounds = measured_in_rus - rus_runs  # each run ends by measuring its data qubit

    def per_op(ns):
        return ns / 1e9 / n_ops

    m = {
        "simulator.apply_s": per_op(g_time["simulator.apply"]),
        "simulator.gates_applied": g_info["simulator.apply"] / n_ops,
        "simulator.ns_per_amp": g_time["simulator.apply"] / amps if amps else 0.0,
        "simulator.bytes_moved_computed": bytes_moved / n_ops,
        "simulator.allocate_s": per_op(g_time["simulator.allocate"]),
        "simulator.measure_s": per_op(g_time["simulator.measure"]),
        "simulator.rename_s": per_op(g_time["simulator.rename"]),
        "simulator.sessions": g_count["simulator.session"] / n_ops,
        "simulator.measurements": g_info["simulator.measure"] / n_ops,
        "simulator.peak_state_bytes": float(_AMP_BYTES << peak_width) if peak_width else 0.0,
        "device.execute_calls": g_count["device.execute"] / n_ops,
        "device.execute_s": per_op(g_time["device.execute"]),
        "device.ops": device_ops / n_ops,
        "algorithms.estimate_calls": sum(
            1 for s in spans if s.layer == "algorithms" and s.name == "compute_energy_pauli") / n_ops,
        "algorithms.estimate_s": per_op(g_time["algorithms.estimate"]),
        "algorithms.propose_s": per_op(g_time["algorithms.propose"]),
        "algorithms.rus_rounds_per_run": rus_rounds / rus_runs if rus_runs else 0.0,
        "algorithms.rus_success_ratio": rus_runs / rus_rounds if rus_rounds else 0.0,
        "circuit.build_calls": g_count["circuit.build"] / n_ops,
        "circuit.build_s": per_op(g_time["circuit.build"]),
        "circuit.gates_built": g_info["circuit.build"] / n_ops,
        "circuit.optimise_s": per_op(g_time["circuit.optimise"]),
        "circuit.gates_removed": g_info["circuit.optimise"] / n_ops,
        "circuit.matrix_of_calls": g_count["circuit.matrix_of"] / n_ops,
        "circuit.matrix_of_s": per_op(g_time["circuit.matrix_of"]),
        "circuit.inspect_s": per_op(g_time["circuit.inspect"]),
        "stdcircuits.qft_s": per_op(g_time["stdcircuits.qft"]),
        "stdcircuits.qft_gates": g_info["stdcircuits.qft"] / n_ops,
        "formats.parse_s": per_op(g_time["formats.parse"]),
        "formats.lines_parsed": g_info["formats.parse"] / n_ops,
        "formats.emit_s": per_op(g_time["formats.emit"]),
        "formats.bytes_emitted": g_info["formats.emit"] / n_ops,
        "cli.main_calls": g_count["cli.main"] / n_ops,
        "trace.overhead_ratio": op_wall / untraced_wall_ns if untraced_wall_ns else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_op(layer_self[layer])
        m[f"{layer}.self_share"] = layer_self[layer] / op_wall if op_wall else 0.0

    table = [[layer, layer_count[layer], layer_total[layer] / 1e9, layer_self[layer] / 1e9,
              layer_self[layer] / op_wall if op_wall else 0.0] for layer in LAYERS]
    bench_self = sum(t for s, t in zip(spans, own) if s.layer == "op")
    table.append(["(benchmark)", len(ops), op_wall / 1e9, bench_self / 1e9,
                  bench_self / op_wall if op_wall else 0.0])
    return m, table
