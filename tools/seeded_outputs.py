"""Write the seeded outputs of this checkout, one file per command.

Usage: python tools/seeded_outputs.py <outdir>

Writes fixed inputs (a circuit, its OpenQASM export, a circuit with
comments, tabs, CRLF line ends and `pi` angles, a QASM file with several
statements on a line, a Hamiltonian and two graphs) to <outdir>/inputs, then saves the stdout of each
`--format json --seed 7` CLI run and of each demo under <outdir>, and
`estimator.json`: `compute_energy_pauli` results for fixed seeds over random
ansatze (n <= 6), covering every term of an H2-shaped Hamiltonian,
`counts.json`: the `count_ones` rows, every wire's ones, of the same cases,
`energy.json`: `compute_energy` of whole Hamiltonians over the same ansatze
and over other preps, up to 17 qubits, and
`measure-order.json`: the bits of seeded programs on 3 to 6 qubits that
measure one wire at a time in a shuffled order and allocate again after a
measurement, as RUS does. `build.json` names the numpy version and BLAS
that computed them, since floats may differ between builds. Everything
runs in this process: the CLI through `qlin.cli.main`, the demos through
`runpy`, on the sources of the checkout the script sits in (`src/` and
`demos/` next to `tools/`).

tests/seeded_outputs holds these outputs, and tests/test_seeded_outputs.py
checks that the code still writes them byte for byte. After a change that
means to alter a seeded output, rewrite the fixture with

    python tools/seeded_outputs.py tests/seeded_outputs

and name the files that changed, with their reason. To compare with the
parent commit instead, copy this script into a checkout of it, run it
there and here, and compare:

    git archive <parent> --prefix=parent/ | tar -x -C /tmp
    mkdir -p /tmp/parent/tools && cp tools/seeded_outputs.py /tmp/parent/tools/
    python /tmp/parent/tools/seeded_outputs.py /tmp/out-parent
    python tools/seeded_outputs.py /tmp/out-change
    diff -r /tmp/out-parent /tmp/out-change

Commands run inside <outdir>/inputs and name their inputs relative to it, so
no output depends on where <outdir> is. A command that exits non-zero stops
the script.
"""
from __future__ import annotations

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CIRCUIT = """\
qubits 4
H 0
CNOT 0 1
P pi/4 1
H 2
P -3*pi/8 2
CNOT 2 3
H 3
H 3
CNOT 1 2
P 0.25 0
P 0.5 0
H 1
"""

# every line is read by the line regex or the general reader, or both in turn
MIXED = (
    "# comments, tabs, CRLF line ends and angle expressions\r\n"
    "qubits 3\r\n"
    "H 0   # a comment after a gate\r\n"
    "\tCNOT\t0\t1\r\n"
    "P pi/2 1\r\n"
    "P -0.75 2 # a literal\r\n"
    "\r\n"
    "  H\t2\t\r\n"
    "P 3*pi/4 0\r\n"
    "CNOT 1 2#\r\n"
    "P .5e-1 2\r\n"
    "P 1 1\r\n"
    "H 002\r\n"
)

STATEMENTS_QASM = """\
OPENQASM 2.0; include "qelib1.inc";
qreg q[3];
h q[0]; cx q[0],q[1]; // two statements
u1(pi/2) q[1]; p(-0.25) q[2];
  h q[2] ;
cx q[1], q[2];// a comment
u1( 0.125 )q[0];
p(-pi/8) q[1]
"""

HAMILTONIAN = """\
-0.5 III
0.25 ZZI
-0.4 XIX
0.3 IYZ
0.1 YXY
"""

GRAPH = """\
vertices 6
edge 0 1
edge 1 2
edge 2 3
edge 3 4
edge 4 5
edge 5 0
edge 0 3
"""

# 3-regular on 14 vertices (a Moebius ladder): its 2**14 amplitudes are more
# than the kernels' small-state size, so its layers run as dense blocks
GRAPH_14 = ("vertices 14\n" + "".join(f"edge {i} {(i + 1) % 14}\n" for i in range(14))
            + "".join(f"edge {i} {i + 7}\n" for i in range(7)))

SEEDED = ["--seed", "7", "--format", "json"]

# output file name -> CLI arguments, run inside inputs/
COMMANDS = {
    "simulate.json": ["simulate", "circuit.txt", "--shots", "500", *SEEDED],
    "simulate-qasm.json": ["simulate", "circuit.qasm", "--shots", "500", *SEEDED],
    # more shots than one sample batch (2**16), so the batch boundary shows
    "simulate-70000.json": ["simulate", "circuit.txt", "--shots", "70000", *SEEDED],
    "stats.json": ["stats", "circuit.txt", "--format", "json"],
    "draw.json": ["draw", "circuit.txt", "--format", "json"],
    "optimise.json": ["optimise", "circuit.txt", "--format", "json"],
    "qft-8.json": ["qft", "--n", "8", "--format", "json"],
    "simulate-mixed.json": ["simulate", "mixed.txt", "--shots", "500", *SEEDED],
    "optimise-mixed.json": ["optimise", "mixed.txt", "--format", "json"],
    "simulate-statements-qasm.json": ["simulate", "statements.qasm", "--shots", "500", *SEEDED],
    "optimise-statements-qasm.json": ["optimise", "statements.qasm", "--format", "json"],
    "coin.json": ["coin", *SEEDED],
    "rus.json": ["rus", *SEEDED],
    "vqe.json": ["vqe", "--ham", "ham.txt", "--depth", "1", "--k", "8", "--nsamples", "200", *SEEDED],
    "qaoa.json": ["qaoa", "--graph", "graph.txt", "--p", "2", "--k", "20", *SEEDED],
    "qaoa-14.json": ["qaoa", "--graph", "graph-14.txt", "--p", "2", "--k", "5", *SEEDED],
}


# Run ahead of ESTIMATOR and ENERGY: the estimator cases, random ansatze on
# up to 6 qubits with a seed and a sample count.
CASES = """\
import json, random
from qlin import (Circuit, ControlledNot, Hadamard, Hamiltonian, Phase, RandomSource,
                  StateVectorBackend, ansatz, coin, compute_energy, compute_energy_pauli,
                  encoding_unitary)

H2_TERMS = ["ZIII", "IZII", "IIZI", "IIIZ", "ZZII", "IIZZ", "ZIIZ", "XXYY", "YYXX"]

def estimator_cases():
    rng = random.Random(20211118)
    for case in range(24):
        n = 4 if case < 6 else rng.randint(1, 6)
        depth = rng.randint(0, 3)
        params = [rng.uniform(0.0, 6.3) for _ in range(2 * n * depth)]
        if n == 4 and case < 6:
            terms = H2_TERMS
        else:
            terms = ["".join(rng.choice("IXYZ") for _ in range(n)) for _ in range(4)]
            terms = [t for t in terms if set(t) != {"I"}] or ["Z" * n]
        seed, n_samples = rng.getrandbits(62), rng.choice([1, 7, 100, 500])
        yield n, depth, params, terms, seed, n_samples
"""


# Estimates on one backend per case, term by term, then the next coin on that
# backend (its random stream's position).
ESTIMATOR = CASES + """
cases = []
for n, depth, params, terms, seed, n_samples in estimator_cases():
    backend = StateVectorBackend(seed=seed)
    prepare = ansatz(n, depth, params)
    energies = [compute_energy_pauli(backend, prepare, t, n_samples) for t in terms]
    cases.append({"n": n, "depth": depth, "params": params, "seed": seed, "n_samples": n_samples,
                  "terms": terms, "energies": energies, "next_coin": coin(backend)})
print(json.dumps(cases, indent=1))
"""


# The ones on every wire that one `count_ones` call gives for the estimator
# cases' terms, then the next coin: the wires no term reads are pinned too.
COUNTS = CASES + """
cases = []
for n, depth, params, terms, seed, n_samples in estimator_cases():
    backend = StateVectorBackend(seed=seed)
    bases = [encoding_unitary(t) for t in terms]
    counts = backend.count_ones(ansatz(n, depth, params), bases, n_samples).tolist()
    cases.append({"terms": terms, "counts": counts, "next_coin": coin(backend)})
print(json.dumps(cases, indent=1))
"""


# `compute_energy` of a whole Hamiltonian, an identity term and the measured
# terms, then the next coin: over the estimator cases, and over preps that are
# not ansatze, whose last gates would fold with a basis's first in one plan: a
# last run of gates on one wire, a phase polynomial with single-wire terms, no
# gates at all, and 13 qubits, where a layer of one-wire passes runs as dense
# blocks; and last, an ansatz on 17 qubits, past 2**16 amplitudes.
ENERGY = CASES + """
def hamiltonian(rng, n, terms):
    return Hamiltonian(((rng.uniform(-1, 1), "I" * n),) + tuple((rng.uniform(-1, 1), t) for t in terms))

def one_wire_run_last(rng, n):
    tail = [Hadamard(n - 1), Phase(rng.uniform(-6.3, 6.3), n - 1), Hadamard(n - 1)]
    return Circuit(n, ansatz(n, 1, [rng.uniform(0, 6.3) for _ in range(2 * n)]).gates + tuple(tail))

def phase_polynomial_last(rng, n):
    gates = [Hadamard(w) for w in range(n)] + [ControlledNot(w, w + 1) for w in range(n - 1)]
    gates += [Phase(rng.uniform(-6.3, 6.3), w) for w in (0, n - 1, 0)]
    return Circuit(n, gates)

def layer_last(rng, n):
    gates = ansatz(n, 1, [rng.uniform(0, 6.3) for _ in range(2 * n)]).gates
    return Circuit(n, gates + tuple(Hadamard(w) for w in range(n)))

rng = random.Random(20261019)
cases = []
preps = [(n, terms, seed, n_samples, ansatz(n, depth, params))
         for n, depth, params, terms, seed, n_samples in estimator_cases()]
for build, n in [(one_wire_run_last, 3), (one_wire_run_last, 5), (phase_polynomial_last, 4),
                 (phase_polynomial_last, 6), (lambda rng, n: ansatz(n, 0, []), 4),
                 (lambda rng, n: ansatz(n, 1, [rng.uniform(0, 6.3) for _ in range(2 * n)]), 13),
                 (layer_last, 13)]:
    terms = ["".join(rng.choice("IXYZ") for _ in range(n)) for _ in range(5)]
    terms = [t for t in terms if set(t) != {"I"}] + ["Y" * n, "X" * (n - 1) + "Y"]
    preps.append((n, terms, rng.getrandbits(62), rng.choice([7, 100, 500]), build(rng, n)))
wide = random.Random(20261020)  # its own stream, so the cases above keep theirs
terms = ["".join(wide.choice("IXYZ") for _ in range(17)) for _ in range(3)] + ["Z" * 17]
preps.append((17, terms, wide.getrandbits(62), 100, ansatz(17, 1, [wide.uniform(0, 6.3) for _ in range(34)])))
for n, terms, seed, n_samples, prepare in preps:
    backend = StateVectorBackend(seed=seed)
    h = hamiltonian(rng, n, terms)
    energy = compute_energy(backend, prepare, h, n_samples)
    cases.append({"n": n, "gates": len(prepare.gates), "seed": seed, "n_samples": n_samples,
                  "terms": [list(term) for term in h.terms], "energy": energy, "next_coin": coin(backend)})
print(json.dumps(cases, indent=1))
"""


# Random states measured one qubit per operation in a shuffled order, so
# every wire position, first, middle and last, is measured mid-state; a fresh
# qubit joins the survivors after the first measurements.
# Then the next coin on that backend (its random stream's position).
MEASURE_ORDER = """\
import json, random
from qlin import (Circuit, ControlledNot, Hadamard, Phase, StateVectorBackend, apply_circuit, coin,
                  execute, measure, new_qubits, qprogram)

def random_circuit(rng, n, count):
    gates = []
    for _ in range(count):
        kind = rng.choice("HPC" if n > 1 else "HP")
        if kind == "H":
            gates.append(Hadamard(rng.randrange(n)))
        elif kind == "P":
            gates.append(Phase(rng.uniform(-6.3, 6.3), rng.randrange(n)))
        else:
            gates.append(ControlledNot(*rng.sample(range(n), 2)))
    return Circuit(n, gates)

@qprogram
def program(prepare, first, again, last):
    qs = yield new_qubits(prepare.arity)
    qs = yield apply_circuit(qs, prepare)
    bits = []
    for k in first:
        bits += (yield measure([qs[k]]))
    kept = [qs[k] for k in range(len(qs)) if k not in first]
    fresh = yield new_qubits(1)
    qs = yield apply_circuit(fresh + kept, again)
    for k in last:
        bits += (yield measure([qs[k]]))
    return bits

rng = random.Random(20261018)
cases = []
for case in range(30):
    n = rng.randint(3, 6)
    order = rng.sample(range(n), n)
    first = order[:rng.randint(1, n - 1)]
    prepare = random_circuit(rng, n, 6 * n)
    again = random_circuit(rng, n - len(first) + 1, 4 * n)
    last = rng.sample(range(again.arity), again.arity)
    seed, runs = rng.getrandbits(62), rng.choice([1, 5, 40])
    backend = StateVectorBackend(seed=seed)
    bits = [execute(backend, program(prepare, first, again, last)) for _ in range(runs)]
    cases.append({"n": n, "first": first, "last": last, "seed": seed, "bits": bits,
                  "next_coin": coin(backend)})
print(json.dumps(cases, indent=1))
"""


def _stdout(run, *args, **kwargs) -> str:
    """What `run(*args, **kwargs)` prints to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run(*args, **kwargs)
    return out.getvalue()


def _cli(argv: list[str]) -> str:
    """The stdout of `qlin <argv>`, which must exit 0."""
    from qlin import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qlin {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def build() -> dict[str, str]:
    """The numpy version and BLAS that the outputs are computed with."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def write_outputs(out: Path) -> None:
    """Write the inputs and every seeded output under `out`."""
    out = out.resolve()  # the commands run inside out/inputs
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "circuit.txt").write_text(CIRCUIT)
    (inputs / "mixed.txt").write_text(MIXED, newline="")  # keep its CRLF line ends
    (inputs / "statements.qasm").write_text(STATEMENTS_QASM)
    (inputs / "ham.txt").write_text(HAMILTONIAN)
    (inputs / "graph.txt").write_text(GRAPH)
    (inputs / "graph-14.txt").write_text(GRAPH_14)
    with contextlib.chdir(inputs):
        (inputs / "circuit.qasm").write_text(_cli(["export-qasm", "circuit.txt"]))
        for name, args in COMMANDS.items():
            (out / name).write_text(_cli(args))
        for name, script in [("estimator.json", ESTIMATOR), ("counts.json", COUNTS),
                             ("energy.json", ENERGY), ("measure-order.json", MEASURE_ORDER)]:
            (out / name).write_text(_stdout(exec, script, {"__name__": "__main__"}))
        for demo in sorted((ROOT / "demos").glob("*.py")):
            printed = _stdout(runpy.run_path, str(demo), run_name="__main__")
            (out / f"demo-{demo.stem}.txt").write_text(printed)
    (out / "build.json").write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    write_outputs(Path(argv[0]))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
