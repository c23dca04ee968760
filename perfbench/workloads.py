"""The four benchmark workloads: inputs from the seed, one op, output checks.

Each workload writes its generated inputs (Hamiltonian, graph or circuit
files) and hands qlin only those. Library entry points are looked up on
their module at call time, so the tracer's wrappers see every call.

`check` runs after the timed phase and returns one verdict per op. A
statistical check that fails marks every op of the run as failed. The
checks depend on distributions, not on the seeded outcome stream, and each
states its false-alarm rate.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from qlin import algorithms, circuit, cli, formats, simulator

import oracle

SIGMAS = 5.0  # two-sided normal tail beyond 5 sigma: 5.7e-7 per check
CHI2_Z = 4.753  # standard normal upper tail of 1e-6


class Failed:
    """Output slot of an op that raised."""

    def __init__(self, err: BaseException):
        self.error = f"{type(err).__name__}: {err}"

    def __eq__(self, other):
        return isinstance(other, Failed) and other.error == self.error


def _rng(seed: int, name: str, salt: int = 0) -> random.Random:
    return random.Random(f"{name}/{seed}/{salt}")


def _regular3_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform-ish simple 3-regular graph by the pairing model with restarts."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, len(points), 2)}
        if len(edges) == len(points) // 2 and all(u != v for u, v in edges):
            return sorted(edges)


def _write_graph(path: Path, n: int, edges) -> None:
    path.write_text(f"vertices {n}\n" + "".join(f"edge {u} {v}\n" for u, v in edges))


def _cut_value(edges, cut) -> int:
    return sum(1 for u, v in edges if cut[u] != cut[v])


class VqeShots:
    """One round of vqe_trajectory, as `qlin vqe` runs it."""

    name = "vqe-shots"
    calibration = "small-numpy"  # see calibrate.py
    DEPTH = 2
    NSAMPLES = 1000
    # H2-shaped: identity, single Z, ZZ, and the XXYY / YYXX exchange terms
    TERMS = ("IIII", "ZIII", "IZII", "IIZI", "IIIZ", "ZZII", "IIZZ", "ZIIZ", "XXYY", "YYXX")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = _rng(seed, self.name)
        lines = [f"{rng.uniform(-1.0, -0.5)!r} IIII"]
        lines += [f"{rng.uniform(-0.3, 0.3)!r} {t}" for t in self.TERMS[1:8]]
        lines += [f"{rng.uniform(0.02, 0.2)!r} {t}" for t in self.TERMS[8:]]
        path = workdir / "h2like.ham"
        path.write_text("\n".join(lines) + "\n")
        self.hamiltonian = formats.parse_hamiltonian(path.read_text())
        active = sum(1 for _, t in self.hamiltonian.terms if set(t) != {"I"})
        self.units = {"shots_per_s": active * self.NSAMPLES}

    def new_state(self, salt: int = 0):
        rng = _rng(self.seed, self.name, salt + 1)
        return (simulator.StateVectorBackend(seed=rng.getrandbits(62)),
                simulator.RandomSource(rng.getrandbits(62)))

    def op(self, state):
        backend, rand = state
        (record,) = algorithms.vqe_trajectory(
            backend, self.hamiltonian, self.DEPTH, 1, self.NSAMPLES, rand,
            optimiser=algorithms.random_ansatz_params)
        return tuple(record.params), record.energy

    def check(self, outputs) -> list[bool]:
        """|E - <psi|H|psi>| <= 5 sigma of the shot estimator, per round."""
        n = self.hamiltonian.arity
        coeffs = [c for c, _ in self.hamiltonian.terms]
        terms = [t for _, t in self.hamiltonian.terms]
        verdicts = []
        for out in outputs:
            if isinstance(out, Failed):
                verdicts.append(False)
                continue
            params, energy = out
            psi = circuit.matrix_of(algorithms.ansatz(n, self.DEPTH, params))[:, 0]
            expect = oracle.pauli_expectations(psi, terms)
            exact = sum(c * e for c, e in zip(coeffs, expect))
            var = sum(c * c * (1.0 - e * e) / self.NSAMPLES
                      for c, e, t in zip(coeffs, expect, terms) if set(t) != {"I"})
            verdicts.append(abs(energy - exact) <= SIGMAS * math.sqrt(max(var, 0.0)) + 1e-9)
        return verdicts


class QaoaWide:
    """One round of qaoa_trajectory plus best_cut, as `qlin qaoa` runs it."""

    name = "qaoa-wide"
    calibration = "stream"  # see calibrate.py
    VERTICES = 20
    P = 2
    CHI2_VERTICES = 6
    CHI2_SAMPLES = 1000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = _rng(seed, self.name)
        path = workdir / "regular3.graph"
        _write_graph(path, self.VERTICES, _regular3_edges(self.VERTICES, rng))
        self.graph = formats.parse_graph(path.read_text())
        small = workdir / "regular3_small.graph"
        _write_graph(small, self.CHI2_VERTICES, _regular3_edges(self.CHI2_VERTICES, rng))
        self.small_graph = formats.parse_graph(small.read_text())
        self.fixed = (tuple(rng.uniform(0, math.pi) for _ in range(self.P)),
                      tuple(rng.uniform(0, 2 * math.pi) for _ in range(self.P)))
        n, e = self.VERTICES, len(self.graph.edges)
        self.units = {"gates_per_s": n + self.P * (3 * e + 3 * n)}

    def new_state(self, salt: int = 0):
        rng = _rng(self.seed, self.name, salt + 1)
        return (simulator.StateVectorBackend(seed=rng.getrandbits(62)),
                simulator.RandomSource(rng.getrandbits(62)))

    def op(self, state):
        backend, rand = state
        history = algorithms.qaoa_trajectory(
            backend, 1, self.P, self.graph, rand, optimiser=algorithms.random_qaoa_params)
        cut, value = algorithms.best_cut(self.graph, [r.cut for r in history])
        return tuple(cut), value

    def check(self, outputs) -> list[bool]:
        """Every cut value recounted; a chi-squared test of the sampler
        against matrix_of's Born distribution at false-alarm rate ~1e-6."""
        edges = self.graph.edges
        verdicts = [
            not isinstance(out, Failed)
            and len(out[0]) == self.VERTICES
            and set(out[0]) <= {0, 1}
            and out[1] == _cut_value(edges, out[0])
            for out in outputs
        ]
        return verdicts if self._born_rule_holds() else [False] * len(verdicts)

    def _born_rule_holds(self) -> bool:
        betas, gammas = self.fixed
        state = self.new_state(salt=100)
        history = algorithms.qaoa_trajectory(
            state[0], self.CHI2_SAMPLES, self.P, self.small_graph, state[1],
            optimiser=lambda graph, p, hist, rand: (betas, gammas))
        unitary = circuit.matrix_of(algorithms.qaoa_unitary(betas, gammas, self.small_graph))
        probs = np.abs(unitary[:, 0]) ** 2
        counts = [0] * len(probs)
        for record in history:
            counts[int("".join(map(str, record.cut)), 2)] += 1
        stat, df = oracle.chi2_statistic(counts, list(probs), self.CHI2_SAMPLES)
        return stat <= oracle.chi2_upper_quantile(df, CHI2_Z)


class RusAdaptive:
    """One run_rus call with the default unitary, as `qlin rus` runs it."""

    name = "rus-adaptive"
    calibration = "small-numpy"  # see calibrate.py

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.units = {}

    def new_state(self, salt: int = 0):
        return simulator.StateVectorBackend(seed=_rng(self.seed, self.name, salt + 1).getrandbits(62))

    def op(self, backend):
        return algorithms.run_rus(backend)

    def check(self, outputs) -> list[bool]:
        """Bits only, and P(bit=1) within 5 sigma of the success-branch value."""
        verdicts = [out in (0, 1) for out in outputs]
        bits = [out for out, ok in zip(outputs, verdicts) if ok]
        if not bits:
            return verdicts
        p = self.expected_p1()
        sigma = math.sqrt(p * (1.0 - p) / len(bits))
        if abs(sum(bits) / len(bits) - p) > SIGMAS * sigma + 1e-12:
            return [False] * len(verdicts)
        return verdicts

    @staticmethod
    def expected_p1() -> float:
        """P(bit=1) after RUS from |0>: success branch <0|_anc U, failure
        branch <1|_anc U followed by adjoint(identity), summed over rounds."""
        u = circuit.matrix_of(algorithms.rus_example_unitary())
        success, failure = u[0:2, 0:2], u[2:4, 0:2]
        psi = np.array([1.0, 0.0], dtype=complex)
        weight, p1 = 1.0, 0.0
        for _ in range(200):
            out = success @ psi
            p_success = float(np.vdot(out, out).real)
            if p_success > 0.0:
                p1 += weight * abs(out[1]) ** 2
            weight *= 1.0 - p_success
            fail = failure @ psi
            if weight < 1e-15 or np.vdot(fail, fail).real == 0.0:
                break
            psi = fail / np.linalg.norm(fail)
        return p1


class CircuitToolchain:
    """One pass of CLI commands over a generated circuit file, plus matrix_of."""

    name = "circuit-toolchain"
    calibration = "pure-python"  # see calibrate.py
    WIRES = 12
    SINGLES = {"H": 500, "P": 500, "CNOT": 400}
    PAIRS = {"H": 100, "P": 100, "CNOT": 100}  # adjacent pairs optimise can cancel or merge
    QFT_N = 64
    SMALL_WIRES = 8
    SMALL_GATES = 120

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, self.name)
        self.gates = self._generate(rng)
        self.native = workdir / "toolchain.qc"
        self.native.write_text(self._native(self.WIRES, self.gates))
        self.qasm = workdir / "toolchain.qasm"
        small = workdir / "small.qc"
        small_gates = [self._random_gate(rng, self.SMALL_WIRES, rng.choice(("H", "P", "CNOT")))
                       for _ in range(self.SMALL_GATES)]
        small.write_text(self._native(self.SMALL_WIRES, small_gates))
        self.small = formats.parse_circuit(small.read_text())
        self.small_unitary = oracle.unitary(self.SMALL_WIRES, small_gates)
        self.probe_states = oracle.random_states(self.WIRES, 4, rng)
        self.probe_images = oracle.apply_gates(self.probe_states, self.WIRES, self.gates)
        self.qft_inputs = [rng.getrandbits(self.QFT_N) for _ in range(3)]
        self.counts = {k: self.SINGLES[k] + 2 * self.PAIRS[k] for k in self.SINGLES}
        self.depth = self._depth(self.gates)
        self.units = {"gates_per_s": 4 * len(self.gates) + self.SMALL_GATES}
        self._verified: dict[str, bool] = {}

    @staticmethod
    def _random_gate(rng, wires, kind):
        if kind == "H":
            return ("H", rng.randrange(wires))
        if kind == "P":
            return ("P", rng.uniform(-math.pi, math.pi), rng.randrange(wires))
        c, t = rng.sample(range(wires), 2)
        return ("CNOT", c, t)

    def _generate(self, rng) -> list[tuple]:
        blocks = [[self._random_gate(rng, self.WIRES, k)]
                  for k, count in self.SINGLES.items() for _ in range(count)]
        for kind, count in self.PAIRS.items():
            for i in range(count):
                first = self._random_gate(rng, self.WIRES, kind)
                if kind == "P":
                    # half cancel to P(0), half merge into one P
                    angle = -first[1] if i % 2 else rng.uniform(-math.pi, math.pi)
                    blocks.append([first, ("P", angle, first[2])])
                else:
                    blocks.append([first, first])
        rng.shuffle(blocks)
        return [g for block in blocks for g in block]

    @staticmethod
    def _native(wires, gates) -> str:
        lines = [f"qubits {wires}"]
        for g in gates:
            lines.append(f"P {g[1]!r} {g[2]}" if g[0] == "P" else " ".join(map(str, g)))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _depth(gates) -> int:
        frontier: dict[int, int] = {}
        for g in gates:
            wires = g[1:] if g[0] == "CNOT" else g[-1:]
            step = 1 + max(frontier.get(w, 0) for w in wires)
            frontier.update((w, step) for w in wires)
        return max(frontier.values(), default=0)

    def new_state(self, salt: int = 0):
        return None

    @staticmethod
    def _cli(*argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*argv, "--format", "json"])
        if code != 0:
            raise RuntimeError(f"qlin {' '.join(argv)} exited with {code}")
        return out.getvalue()

    def op(self, state):
        native = str(self.native)
        outputs = {
            "stats": self._cli("stats", native),
            "optimise": self._cli("optimise", native),
            "export": self._cli("export-qasm", native),
        }
        self.qasm.write_text(json.loads(outputs["export"])["qasm"])
        outputs["stats_qasm"] = self._cli("stats", str(self.qasm))
        outputs["qft"] = self._cli("qft", "--n", str(self.QFT_N))
        outputs["matrix"] = circuit.matrix_of(self.small)
        return outputs

    def check(self, outputs) -> list[bool]:
        """Stats equal the generator's counts; optimise keeps the unitary
        (on four random states) and adds no gate; the QFT output equals the
        bit-reversed DFT on random basis inputs; matrix_of equals the
        benchmark's own unitary. These are exact or tolerance checks with no
        false alarms."""
        return [not isinstance(out, Failed) and self._check_one(out) for out in outputs]

    def _check_one(self, out) -> bool:
        expected_stats = {"qubits": self.WIRES, "gates": len(self.gates),
                          "depth": self.depth, "counts": self.counts}
        if json.loads(out["stats"]) != expected_stats:
            return False
        if json.loads(out["stats_qasm"]) != expected_stats:
            return False
        if not np.allclose(out["matrix"], self.small_unitary, atol=1e-9):
            return False
        return self._verify("optimise", out["optimise"]) and self._verify("qft", out["qft"])

    def _verify(self, kind: str, text: str) -> bool:
        """Full check of one output text; identical texts are checked once."""
        key = kind + text
        if key not in self._verified:
            data = json.loads(text)
            if kind == "optimise":
                gates = [tuple(g) for g in data["circuit"]["gates"]]
                images = oracle.apply_gates(self.probe_states, self.WIRES, gates)
                ok = (data["before"] == self.counts
                      and sum(data["after"].values()) == len(gates) <= len(self.gates)
                      and np.allclose(images, self.probe_images, atol=1e-8))
            else:
                gates = [tuple(g) for g in data["gates"]]
                ok = data["qubits"] == self.QFT_N and all(
                    oracle.qft_product_state_error(self.QFT_N, gates, x) < 1e-9
                    for x in self.qft_inputs)
            self._verified[key] = ok
        return self._verified[key]


WORKLOADS = {w.name: w for w in (VqeShots, QaoaWide, CircuitToolchain, RusAdaptive)}
