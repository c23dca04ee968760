"""Command-line front end.

Commands: simulate, stats, draw, export-qasm, optimise, qft, coin, rus, vqe,
qaoa. Circuit files may be in the native format or the OpenQASM subset
emitted by export-qasm (sniffed from the header). Exit codes: 0 success,
1 usage, 2 parse or unreadable input, 3 runtime or unwritable output; every
error is a single stderr line starting with E_USAGE, E_PARSE or E_RUNTIME.

Stochastic commands take --seed; with --format json a seed is required so
repeated runs are byte-identical.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .algorithms import (
    best_cut,
    coin,
    cut_value,
    qaoa_trajectory,
    run_rus,
    vqe_trajectory,
)
from .circuit import (
    GATE_KINDS,
    Circuit,
    _check_shot_count,
    depth,
    draw,
    export_qasm,
    format_angle,
    gate_counts,
    optimise,
)
from .errors import CapacityExceeded, ParseError
from .formats import format_circuit, parse_circuit, parse_graph, parse_hamiltonian, parse_qasm
from .simulator import RandomSource, StateVectorBackend, derive_seed
from .stdcircuits import qft

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _InputError(Exception):
    """An input file that could not be read or decoded; its text is the cause's."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache  # the parser keeps no state between parse_args calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="qlin", description="Quantum circuit toolkit and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def stochastic(p):
        p.add_argument("--seed", type=int, default=None, help="RNG seed (required with --format json)")
        p.add_argument("--format", choices=["text", "json"], default="text")

    def pure(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("simulate", help="run a circuit and print the outcome histogram")
    p.add_argument("circuit", help="circuit file (native or OpenQASM)")
    p.add_argument("--shots", type=int, default=1024)
    stochastic(p)

    for name, desc in [
        ("stats", "print depth and gate counts"),
        ("draw", "render a circuit as text"),
        ("export-qasm", "emit OpenQASM 2.0"),
        ("optimise", "peephole-optimise a circuit"),
    ]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("circuit")
        pure(p)

    p = sub.add_parser("qft", help="emit the quantum Fourier transform circuit")
    p.add_argument("--n", type=int, required=True, help="wire count")
    pure(p)

    p = sub.add_parser("coin", help="toss the quantum coin")
    stochastic(p)

    p = sub.add_parser("rus", help="repeat-until-success demo, printing the final bit")
    p.add_argument("--max-iter", type=int, default=None)
    stochastic(p)

    p = sub.add_parser("vqe", help="variational eigensolver over a Pauli Hamiltonian")
    p.add_argument("--ham", required=True, help="Hamiltonian file")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--nsamples", type=int, default=1000)
    stochastic(p)

    p = sub.add_parser("qaoa", help="QAOA for MAXCUT on a graph file")
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--k", type=int, default=50)
    stochastic(p)

    return parser


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _load_circuit(path: str) -> Circuit:
    text = _read(path)
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "//")):
            continue
        if stripped.startswith("OPENQASM"):
            return parse_qasm(text)
        break
    return parse_circuit(text)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte order mark is dropped
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise _InputError(err) from err


def _emit(args, text_lines, json_obj) -> None:
    """Write the one output form asked for: `json_obj` as one JSON line, or the
    lines `text_lines()` returns; the text is built only when it is written."""
    if args.format == "json":  # json_obj is a tree the command built, so it has no cycle to check for
        lines = [json.dumps(json_obj, sort_keys=True, check_circular=False)]
    else:
        lines = text_lines()
    try:
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        sys.stdout.flush()  # so a failed write raises here, not at interpreter exit
    except OSError:
        if sys.stdout is sys.__stdout__:  # or the output left in its buffer fails again at exit
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise


def _circuit_json(circuit: Circuit) -> dict:
    # a gate is the tuple (name, *params, *wires), which json writes as that list
    return {"qubits": circuit.arity, "gates": circuit.gates}


def _resolve_seed(args) -> int:
    if args.seed is not None:
        _check(args.seed >= 0, "--seed must be non-negative")
        return args.seed
    _check(args.format != "json", "--seed is required with --format json")
    return random.randrange(2**62)


def _cmd_simulate(args) -> None:
    _check(args.shots >= 1, "--shots must be at least 1")
    _check_shot_count(args.shots)
    circuit = _load_circuit(args.circuit)
    counts = StateVectorBackend(seed=_resolve_seed(args)).counts(circuit, args.shots)
    width = circuit.arity  # sorted keys give the order of sorted bit strings of one width
    spec = f"0{width}b"  # built once: the keys can number in the hundreds of thousands
    histogram = {format(key, spec) if width else "": n for key, n in sorted(counts.items())}
    _emit(args, lambda: [f"{outcome} {n} {n / args.shots:.4f}" for outcome, n in histogram.items()], histogram)


def _cmd_stats(args) -> None:
    circuit = _load_circuit(args.circuit)
    counts = gate_counts(circuit)
    layers = depth(circuit)
    _emit(args, lambda: [
        f"qubits {circuit.arity}",
        f"gates {len(circuit.gates)}",
        f"depth {layers}",
        *(f"{kind.name} {counts[kind.name]}" for kind in GATE_KINDS if counts[kind.name]),
    ], {
        "qubits": circuit.arity,
        "gates": len(circuit.gates),
        "depth": layers,
        "counts": dict(counts),
    })


def _cmd_draw(args) -> None:
    circuit = _load_circuit(args.circuit)
    rendered = draw(circuit)
    _emit(args, lambda: [rendered] if rendered else [], {"rows": rendered.splitlines()})


def _cmd_export_qasm(args) -> None:
    circuit = _load_circuit(args.circuit)
    qasm = export_qasm(circuit)
    _emit(args, lambda: [qasm.rstrip("\n")], {"qasm": qasm})


def _cmd_optimise(args) -> None:
    circuit = _load_circuit(args.circuit)
    slimmed = optimise(circuit)
    before, after = gate_counts(circuit), gate_counts(slimmed)
    _emit(args, lambda: [
        f"# gates before {sum(before.values())} after {sum(after.values())}",
        format_circuit(slimmed).rstrip("\n"),
    ], {
        "before": dict(before),
        "after": dict(after),
        "circuit": _circuit_json(slimmed),
    })


def _cmd_qft(args) -> None:
    _check(args.n >= 0, "--n must be non-negative")
    circuit = qft(args.n)
    _emit(args, lambda: [format_circuit(circuit).rstrip("\n")], _circuit_json(circuit))


def _cmd_coin(args) -> None:
    seed = _resolve_seed(args)
    bit = coin(StateVectorBackend(seed=seed))
    _emit(args, lambda: [str(bit)], {"bit": bit, "seed": seed})


def _cmd_rus(args) -> None:
    seed = _resolve_seed(args)
    _check(args.max_iter is None or args.max_iter >= 1, "--max-iter must be at least 1")
    bit = run_rus(StateVectorBackend(seed=seed), max_iterations=args.max_iter)
    _emit(args, lambda: [str(bit)], {"bit": bit, "seed": seed})


def _cmd_vqe(args) -> None:
    _check(args.k >= 1, "--k must be at least 1")
    _check(args.nsamples >= 1, "--nsamples must be at least 1")
    _check(args.depth >= 0, "--depth must be non-negative")
    hamiltonian = parse_hamiltonian(_read(args.ham))
    seed = _resolve_seed(args)
    backend = StateVectorBackend(seed=derive_seed(seed, 0))
    rand = RandomSource(derive_seed(seed, 1))
    history = vqe_trajectory(backend, hamiltonian, args.depth, args.k, args.nsamples, rand)
    best = min(history, key=lambda record: record.energy)
    _emit(args, lambda: [
        f"best_energy {format_angle(best.energy)}",
        " ".join(["params", *map(format_angle, best.params)]),
    ], {
        "best_energy": best.energy,
        "best_params": list(best.params),
        "history": [{"params": list(r.params), "energy": r.energy} for r in history],
        "seed": seed,
    })


def _cmd_qaoa(args) -> None:
    _check(args.k >= 1, "--k must be at least 1")
    _check(args.p >= 0, "--p must be non-negative")
    graph = parse_graph(_read(args.graph))
    seed = _resolve_seed(args)
    backend = StateVectorBackend(seed=derive_seed(seed, 0))
    if graph.vertex_count > backend.max_qubits:  # before building any circuit
        raise CapacityExceeded(graph.vertex_count, backend.max_qubits)
    rand = RandomSource(derive_seed(seed, 1))
    history = qaoa_trajectory(backend, args.k, args.p, graph, rand)
    cut, value = best_cut(graph, [record.cut for record in history])
    bits = "".join(str(b) for b in cut)
    _emit(args, lambda: [f"cut {bits}", f"value {value}"], {
        "best_cut": bits,
        "best_value": value,
        "history": [
            {
                "betas": list(r.betas),
                "gammas": list(r.gammas),
                "cut": "".join(str(b) for b in r.cut),
                "value": cut_value(graph, r.cut),
            }
            for r in history
        ],
        "seed": seed,
    })


_COMMANDS = {
    "simulate": _cmd_simulate,
    "stats": _cmd_stats,
    "draw": _cmd_draw,
    "export-qasm": _cmd_export_qasm,
    "optimise": _cmd_optimise,
    "qft": _cmd_qft,
    "coin": _cmd_coin,
    "rus": _cmd_rus,
    "vqe": _cmd_vqe,
    "qaoa": _cmd_qaoa,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _COMMANDS[args.command](args)
        return EXIT_OK
    except _UsageError as err:
        print(f"E_USAGE: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, _InputError) as err:
        print(f"E_PARSE: {err}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as err:  # QlinError, a failed write or an internal failure: one line, no traceback
        message = " ".join(str(err).splitlines())
        print(f"E_RUNTIME: {type(err).__name__}: {message}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
