"""CLI behaviour: outputs, exit codes, determinism, format round-trips."""
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qlin
from qlin import StateVectorBackend, algorithms, cli, errors, simulator
from qlin.circuit import BUILD_GATE_LIMIT, DRAW_CELL_LIMIT, ROUND_LIMIT, SHOT_LIMIT
from qlin.cli import EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, EXIT_USAGE, main
from qlin.formats import format_circuit, parse_circuit
from qlin.simulator import _SHOT_BATCH

from .oracles import random_circuit

BELL = "qubits 2\nH 0\nCNOT 0 1\n"
K3 = "vertices 3\nedge 0 1\nedge 1 2\nedge 0 2\n"
HAM_Z = "1.0 Z\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def circuit_file(tmp_path, text=BELL, name="circuit.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_simulate_bell_histogram(tmp_path, capsys):
    path = circuit_file(tmp_path)
    code, out, _ = run(capsys, ["simulate", path, "--shots", "10000", "--seed", "7", "--format", "json"])
    assert code == EXIT_OK
    counts = json.loads(out)
    assert set(counts) == {"00", "11"}
    assert sum(counts.values()) == 10000
    assert 0.48 <= counts["00"] / 10000 <= 0.52


def test_simulate_counts_one_seeded_sample_stream_in_batches(tmp_path, capsys, monkeypatch):
    batches = []

    class SampleOnlyBackend(StateVectorBackend):
        def new_session(self):
            raise AssertionError("simulate takes its shots from sample")

        def sample(self, circuit, shots):
            batches.append(shots)
            return super().sample(circuit, shots)

    monkeypatch.setattr(cli, "StateVectorBackend", SampleOnlyBackend)
    shots = _SHOT_BATCH + 1000
    argv = ["simulate", circuit_file(tmp_path), "--shots", str(shots), "--seed", "3", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert batches == [_SHOT_BATCH, 1000]
    drawn = StateVectorBackend(seed=3).sample(parse_circuit(BELL), shots)
    assert json.loads(out) == Counter("".join(map(str, bits)) for bits in drawn)


def test_simulate_takes_its_shots_from_an_overriding_sample(tmp_path, capsys, monkeypatch):
    class PatternBackend(StateVectorBackend):
        def sample(self, circuit, shots):
            return [[s % 2, int(s % 3 == 0)] for s in range(shots)]

    monkeypatch.setattr(cli, "StateVectorBackend", PatternBackend)
    argv = ["simulate", circuit_file(tmp_path), "--shots", "12", "--seed", "3", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert json.loads(out) == {"01": 2, "00": 4, "11": 2, "10": 4}


def test_simulate_memory_does_not_grow_with_shots(tmp_path, capsys):
    # holding a batch while the next one is drawn would raise the peak once
    # there are more than two batches
    path = circuit_file(tmp_path, "qubits 8\n" + "".join(f"H {w}\n" for w in range(8)))
    peaks = []
    for shots in (10**5, 4 * 10**5):
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, ["simulate", path, "--shots", str(shots), "--seed", "1"])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
    assert peaks[1] <= 1.01 * peaks[0]


def test_simulate_identity_circuit(tmp_path, capsys):
    path = circuit_file(tmp_path, "qubits 1\n")
    code, out, _ = run(capsys, ["simulate", path, "--shots", "64", "--seed", "1", "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out) == {"0": 64}


def test_simulate_text_output(tmp_path, capsys):
    path = circuit_file(tmp_path, "qubits 1\n")
    code, out, _ = run(capsys, ["simulate", path, "--shots", "8", "--seed", "1"])
    assert code == EXIT_OK
    assert out == "0 8 1.0000\n"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 6), st.integers(0, 12), st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 2**63))
def test_simulate_prints_the_histogram_of_one_sample_stream(tmp_path_factory, arity, gates, shape, shots, seed):
    # batches of 7 shots, so most runs count several batches; 0 wires is the
    # empty string as the one outcome
    text = format_circuit(random_circuit(random.Random(shape), arity, gates))
    path = tmp_path_factory.getbasetemp() / "histogram.txt"
    path.write_text(text)
    drawn = StateVectorBackend(seed=seed).sample(parse_circuit(text), shots)
    want = Counter("".join(map(str, bits)) for bits in drawn.tolist())
    lines = "".join(f"{bits} {n} {n / shots:.4f}\n" for bits, n in sorted(want.items()))
    argv = ["simulate", str(path), "--shots", str(shots), "--seed", str(seed)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_SHOT_BATCH", 7)
        assert run_quietly([*argv, "--format", "json"]) == (EXIT_OK, json.dumps(want, sort_keys=True) + "\n", "")
        assert run_quietly(argv) == (EXIT_OK, lines, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["coin", "--seed", "5", "--format", "json"],
        ["rus", "--seed", "5", "--format", "json"],
        ["vqe", "--ham", "HAM", "--depth", "1", "--k", "4", "--nsamples", "40", "--seed", "5", "--format", "json"],
        ["qaoa", "--graph", "GRAPH", "--k", "4", "--p", "1", "--seed", "5", "--format", "json"],
        ["simulate", "CIRCUIT", "--shots", "200", "--seed", "5", "--format", "json"],
    ],
)
def test_seeded_json_commands_are_byte_identical(tmp_path, capsys, argv):
    ham = circuit_file(tmp_path, HAM_Z, "h.txt")
    graph = circuit_file(tmp_path, K3, "g.txt")
    circuit = circuit_file(tmp_path)
    argv = [
        {"HAM": ham, "GRAPH": graph, "CIRCUIT": circuit}.get(token, token) for token in argv
    ]
    outputs = set()
    for _ in range(3):
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        outputs.add(out)
    assert len(outputs) == 1


def test_qft_n1_is_single_h(capsys):
    code, out, _ = run(capsys, ["qft", "--n", "1"])
    assert code == EXIT_OK
    assert out == "qubits 1\nH 0\n"


def test_stats_bell(tmp_path, capsys):
    code, out, _ = run(capsys, ["stats", circuit_file(tmp_path)])
    assert code == EXIT_OK
    assert out.splitlines() == ["qubits 2", "gates 2", "depth 2", "H 1", "CNOT 1"]


def test_draw_bell(tmp_path, capsys):
    code, out, _ = run(capsys, ["draw", circuit_file(tmp_path)])
    assert code == EXIT_OK
    assert out == "q0: -H--o-\nq1: ----X-\n"


def test_draw_refuses_ten_million_wires_before_any_row(tmp_path, capsys):
    # one row per wire would take about 2 GB
    path = circuit_file(tmp_path, "qubits 10000000\nH 0\n")
    code, out, err = run(capsys, ["draw", path])
    assert code == EXIT_RUNTIME and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("E_RUNTIME: TooManyCells: ")
    assert err.rstrip("\n").endswith(f"limit of {DRAW_CELL_LIMIT}")


def test_optimise_reports_counts(tmp_path, capsys):
    path = circuit_file(tmp_path, "qubits 1\nH 0\nH 0\nP 0.3 0\nP 0.4 0\n")
    code, out, _ = run(capsys, ["optimise", path])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "# gates before 4 after 1"
    assert lines[1] == "qubits 1"
    assert lines[2].startswith("P 0.7")


def test_native_text_is_rendered_only_for_text_output(tmp_path, capsys, monkeypatch):
    # under --format json, qft and optimise print their JSON and never render
    # the native text that --format text prints
    path = circuit_file(tmp_path, format_circuit(random_circuit(random.Random(3), 4, 40)))
    commands = [["qft", "--n", "5"], ["optimise", path]]
    expected = [run(capsys, [*argv, "--format", "json"]) for argv in commands]
    assert [code for code, _, _ in expected] == [EXIT_OK, EXIT_OK]

    def refuse(circuit):
        raise AssertionError("native text rendered for --format json")

    monkeypatch.setattr(cli, "format_circuit", refuse)
    assert [run(capsys, [*argv, "--format", "json"]) for argv in commands] == expected
    rendered = []

    def counting(circuit):
        rendered.append(circuit)
        return format_circuit(circuit)

    monkeypatch.setattr(cli, "format_circuit", counting)
    assert [run(capsys, [*argv, "--format", "text"])[0] for argv in commands] == [EXIT_OK, EXIT_OK]
    assert len(rendered) == 2


def test_qasm_round_trip_same_histogram(tmp_path, capsys):
    native = circuit_file(tmp_path)
    code, qasm, _ = run(capsys, ["export-qasm", native])
    assert code == EXIT_OK
    qasm_path = tmp_path / "circuit.qasm"
    qasm_path.write_text(qasm)
    args = ["--shots", "2000", "--seed", "11", "--format", "json"]
    _, native_out, _ = run(capsys, ["simulate", native, *args])
    _, qasm_out, _ = run(capsys, ["simulate", str(qasm_path), *args])
    assert native_out == qasm_out


def test_usage_errors(tmp_path, capsys):
    path = circuit_file(tmp_path)
    code, _, err = run(capsys, ["simulate", path, "--shots", "0", "--seed", "1"])
    assert code == EXIT_USAGE and err.startswith("E_USAGE")
    code, _, err = run(capsys, ["coin", "--format", "json"])
    assert code == EXIT_USAGE and "--seed is required" in err
    code, _, err = run(capsys, ["bogus-command"])
    assert code == EXIT_USAGE


def test_parse_errors(tmp_path, capsys):
    path = circuit_file(tmp_path, "qubits 1\nCNOT 0 0\n")
    code, _, err = run(capsys, ["simulate", path, "--seed", "1"])
    assert code == EXIT_PARSE and err.startswith("E_PARSE: line 2")
    code, _, err = run(capsys, ["simulate", str(tmp_path / "missing.txt"), "--seed", "1"])
    assert code == EXIT_PARSE
    for name, text in [
        ("inf.txt", "qubits 1\nH 0\nP 1e309 0\n"),
        ("inf.qasm", "OPENQASM 2.0;\nqreg q[1];\nu1(1e309) q[0];\n"),
    ]:
        code, _, err = run(capsys, ["simulate", circuit_file(tmp_path, text, name), "--seed", "1"])
        assert code == EXIT_PARSE
        assert err.startswith("E_PARSE: line 3") and len(err.splitlines()) == 1
    # '²' passes str.isdigit but not int(); deep angle expressions overflow the
    # evaluator; an integer angle of 400 nines overflows a float; str.upper
    # turns 'ı' into the Pauli letter 'I' and 'ß' into 'SS'
    for command, text, line in [
        ("simulate", "qubits 1\nP " + "9" * 400 + " 0\n", 2),
        ("simulate", "qubits 1\nH ²\n", 2),
        ("simulate", "qubits ²\n", 1),
        ("simulate", "OPENQASM 2.0;\nqreg q[²];\n", 2),
        ("qaoa --graph", "vertices ²\n", 1),
        ("vqe --ham", "1.0 ız\n", 1),
        ("vqe --ham", "0.5 ßZ\n", 1),
        # float() reads '1_0' as 10 and 'infinity' as inf; a coefficient is a literal
        ("vqe --ham", "0.5 ZZ\n1_0 ZI\n", 2),
        ("vqe --ham", "infinity ZZ\n", 1),
        ("simulate", "qubits 1\nP " + "+".join(["1"] * 1500) + " 0\n", 2),
        ("simulate", "qubits 1\nP " + "-" * 50000 + "1 0\n", 2),
    ]:
        path = circuit_file(tmp_path, text, "input.txt")
        code, _, err = run(capsys, [*command.split(), path, "--seed", "1"])
        assert code == EXIT_PARSE
        assert err.startswith(f"E_PARSE: line {line}:") and len(err.splitlines()) == 1
    # int() reads the Arabic-Indic digit '٣' as 3, but an index is ASCII
    code, _, err = run(capsys, ["stats", circuit_file(tmp_path, "qubits ٣\n", "input.txt")])
    assert code == EXIT_PARSE
    assert err.startswith("E_PARSE: line 1:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["simulate", "vqe --ham", "qaoa --graph"])
def test_an_input_that_cannot_be_read_is_a_parse_error(tmp_path, capsys, command):
    # bytes that are not UTF-8, a directory or a missing file: reading the
    # input failed, so E_PARSE with the reader's own text
    undecodable = tmp_path / "input.txt"
    undecodable.write_bytes(b"\xff\xfe")
    missing = tmp_path / "missing.txt"
    for path, text in [
        (undecodable, "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (tmp_path, f"[Errno 21] Is a directory: '{tmp_path}'"),
        (missing, f"[Errno 2] No such file or directory: '{missing}'"),
    ]:
        code, out, err = run(capsys, [*command.split(), str(path), "--seed", "1"])
        assert (code, out, err) == (EXIT_PARSE, "", f"E_PARSE: {text}\n")


@pytest.mark.parametrize("argv, text", [
    (["stats"], BELL),
    (["stats"], "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"),
    (["qaoa", "--k", "3", "--seed", "1", "--graph"], K3),
    (["vqe", "--k", "3", "--nsamples", "10", "--seed", "1", "--ham"], HAM_Z),
], ids=["native", "qasm", "graph", "hamiltonian"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys, argv, text):
    # an editor may save UTF-8 with a BOM; the file then reads as without it
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    expected = run(capsys, [*argv, str(plain), "--format", "json"])
    assert expected[0] == EXIT_OK
    assert run(capsys, [*argv, str(marked), "--format", "json"]) == expected


def test_backend_option_is_gone(capsys):
    code, _, err = run(capsys, ["coin", "--seed", "1", "--backend", "sim"])
    assert code == EXIT_USAGE and err.startswith("E_USAGE:")


def test_runtime_error_exit_code(capsys):
    # the first seed whose first RUS round fails trips the --max-iter guard
    seed = next(s for s in range(100) if _rus_fails_its_first_round(s))
    code, _, err = run(capsys, ["rus", "--seed", str(seed), "--max-iter", "1"])
    assert code == EXIT_RUNTIME
    assert err.startswith("E_RUNTIME: RusIterationLimit")


def _rus_fails_its_first_round(seed):
    try:
        algorithms.run_rus(StateVectorBackend(seed=seed), max_iterations=1)
    except errors.RusIterationLimit:
        return True
    return False


@pytest.mark.parametrize(
    "error, line",
    [
        (RuntimeError("boom\non two lines"), "E_RUNTIME: RuntimeError: boom on two lines"),
        (RecursionError("maximum recursion depth exceeded"),
         "E_RUNTIME: RecursionError: maximum recursion depth exceeded"),
    ],
)
def test_internal_failure_is_one_runtime_line(monkeypatch, capsys, error, line):
    def fail(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "coin", fail)
    code, out, err = run(capsys, ["coin", "--seed", "1"])
    assert code == EXIT_RUNTIME
    assert out == ""
    assert err.splitlines() == [line]


def test_qaoa_checks_the_qubit_cap_before_building_a_circuit(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a circuit was built for a graph over the cap")

    monkeypatch.setattr(algorithms, "qaoa_unitary", never)
    graph = circuit_file(tmp_path, "vertices 25\n", "g.txt")
    code, out, err = run(capsys, ["qaoa", "--graph", graph, "--seed", "1"])
    assert code == EXIT_RUNTIME and out == ""
    assert err.splitlines() == [
        "E_RUNTIME: CapacityExceeded: 25 qubits requested but the backend is capped at 24"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["qft", "--n", "100000"],
        ["vqe", "--ham", "HAM", "--depth", str(10**9), "--seed", "1"],
        ["qaoa", "--graph", "K3", "--p", str(10**9), "--seed", "1"],
        ["qaoa", "--graph", "EMPTY", "--p", str(10**9), "--seed", "1"],
    ],
)
def test_builders_refuse_too_many_gates_before_any_work(tmp_path, capsys, argv):
    # each would build billions of gates or angles before failing
    files = {
        "HAM": circuit_file(tmp_path, HAM_Z, "ham.txt"),
        "K3": circuit_file(tmp_path, K3, "k3.txt"),
        "EMPTY": circuit_file(tmp_path, "vertices 0\n", "empty.txt"),
    }
    code, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
    assert code == EXIT_RUNTIME and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("E_RUNTIME: TooManyGates: ")
    assert err.rstrip("\n").endswith(f"limit of {BUILD_GATE_LIMIT}")


@pytest.mark.parametrize(
    "argv, error, limit",
    [
        (["simulate", "BELL", "--shots", str(2**62)], "TooManyShots", SHOT_LIMIT),
        (["vqe", "--ham", "HAM", "--nsamples", str(10**12)], "TooManyShots", SHOT_LIMIT),
        (["vqe", "--ham", "HAM", "--k", str(10**12)], "TooManyRounds", ROUND_LIMIT),
        (["qaoa", "--graph", "K3", "--k", str(10**12)], "TooManyRounds", ROUND_LIMIT),
    ],
)
def test_stochastic_commands_refuse_too_much_work_before_any(
    tmp_path, capsys, monkeypatch, argv, error, limit
):
    # each would run for years before failing
    def never(*args):
        raise AssertionError("work began past a cap")

    for owner, name in [(StateVectorBackend, "sample"), (algorithms, "ansatz"), (algorithms, "qaoa_unitary")]:
        monkeypatch.setattr(owner, name, never)
    files = {
        "BELL": circuit_file(tmp_path),
        "HAM": circuit_file(tmp_path, HAM_Z, "ham.txt"),
        "K3": circuit_file(tmp_path, K3, "k3.txt"),
    }
    code, out, err = run(capsys, [files.get(arg, arg) for arg in argv] + ["--seed", "1"])
    assert code == EXIT_RUNTIME and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"E_RUNTIME: {error}: ")
    assert err.rstrip("\n").endswith(f"limit of {limit}")


def test_coin_text_output(capsys):
    code, out, _ = run(capsys, ["coin", "--seed", "7"])
    assert code == EXIT_OK
    assert out.strip() in {"0", "1"}


def test_vqe_reaches_ground_state(tmp_path, capsys):
    ham = circuit_file(tmp_path, HAM_Z, "h.txt")
    code, out, _ = run(
        capsys,
        ["vqe", "--ham", ham, "--depth", "1", "--k", "60", "--nsamples", "500",
         "--seed", "7", "--format", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["best_energy"] <= -0.9
    assert len(payload["history"]) == 60


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_vqe_refuses_coefficients_whose_sum_overflows(tmp_path, capsys, fmt):
    # each coefficient is finite, but an energy could reach 2e308 = inf, which
    # JSON cannot hold; the line that takes the sum past a float is named
    ham = circuit_file(tmp_path, "0.5 Z\n1e308 I\n1e308 Z\n-1.0 Z\n", "h.txt")
    code, out, err = run(capsys, ["vqe", "--ham", ham, "--seed", "1", "--format", fmt])
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("E_PARSE: line 3:") and len(err.splitlines()) == 1


def _refuse_constant(name):
    raise ValueError(f"not JSON: {name}")


_COEFFICIENTS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e308, -1e308, 1.7976931348623157e308, 9e307, 1e-320])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_COEFFICIENTS, st.sampled_from(["II", "ZI", "XY", "ZZ"])), min_size=1, max_size=4),
       st.sampled_from(["0", "1"]), st.integers(0, 2**32))
@example([(1e308, "II"), (1e308, "II")], "0", 1)
@example([(1e308, "ZZ"), (1e308, "XY")], "1", 1)
def test_vqe_json_output_is_json_for_every_accepted_hamiltonian(tmp_path_factory, terms, depth, seed):
    # Python's json writes a float past the largest as Infinity, which no
    # JSON parser need accept: an accepted Hamiltonian's energies stay finite
    path = tmp_path_factory.getbasetemp() / "overflow.ham"
    path.write_text("".join(f"{coeff!r} {term}\n" for coeff, term in terms))
    argv = ["vqe", "--ham", str(path), "--depth", depth, "--k", "2", "--nsamples", "3", "--seed", str(seed),
            "--format", "json"]
    code, out, err = run_quietly(argv)
    if code == EXIT_OK:
        payload = json.loads(out, parse_constant=_refuse_constant)
        assert all(math.isfinite(record["energy"]) for record in payload["history"])
        return
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("E_PARSE: line ") and len(err.splitlines()) == 1


def test_python_m_qlin_runs_the_cli(capsys):
    # an uninstalled checkout has no `qlin` script on PATH, only the package
    src = os.path.dirname(os.path.dirname(qlin.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "qlin", "qft", "--n", "2"],
                          capture_output=True, text=True, env=env, timeout=60)
    code, out, err = run(capsys, ["qft", "--n", "2"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err) == (EXIT_OK, out, "")


def _python_m_qlin(*argv):
    """`python -m qlin *argv` as a child's argv and environment, its stdout buffered as by default."""
    src = os.path.dirname(os.path.dirname(qlin.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)  # so output can be left for the interpreter to flush at exit
    return [sys.executable, "-m", "qlin", *argv], env


def test_a_failed_write_to_stdout_is_one_runtime_line():
    # the reader closes the pipe after one line of about 2 MB, far more than
    # the pipe holds, so a write fails
    argv, env = _python_m_qlin("qft", "--n", "200")
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert first == b"qubits 200\n"
    assert (code, err) == (EXIT_RUNTIME, "E_RUNTIME: BrokenPipeError: [Errno 32] Broken pipe\n")
    # a short output into a pipe closed before the child starts would sit in
    # stdout's buffer; it must not fail a second time when the interpreter
    # flushes stdout at exit
    argv, env = _python_m_qlin("qft", "--n", "2")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_RUNTIME, "E_RUNTIME: BrokenPipeError: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("depth, params", [("0", 0), ("1", 2)])
def test_vqe_text_output(tmp_path, capsys, depth, params):
    # the params line is the word and one field per parameter, with no
    # trailing space when the ansatz has none
    ham = circuit_file(tmp_path, HAM_Z, "h.txt")
    code, out, _ = run(capsys, ["vqe", "--ham", ham, "--depth", depth, "--k", "2", "--nsamples", "10", "--seed", "3"])
    assert code == EXIT_OK
    best, line = out.splitlines()
    assert best.startswith("best_energy ")
    assert line == line.strip() and line.split(" ")[0] == "params" and len(line.split(" ")) == params + 1


def test_qaoa_solves_k3(tmp_path, capsys):
    graph = circuit_file(tmp_path, K3, "g.txt")
    code, out, _ = run(
        capsys,
        ["qaoa", "--graph", graph, "--k", "50", "--p", "1", "--seed", "7", "--format", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["best_value"] == 2
    assert len(payload["history"]) == 50


# CLI contract over generated input, for the pure subcommands only: simulate,
# coin, rus, vqe and qaoa take --shots, --nsamples or --k, which have no cap
# yet, so an extreme value there would run for hours instead of failing.
_ANGLES = ["0", "pi/4", "-3*pi/8", "-1e300"]
_BAD_HEADERS = ["-1", "x", ""]
# malformed gates: bad wires or angles, an unknown kind, missing operands
_BAD_GATES = [
    ("H", "-1"), ("H", str(2**63)), ("H", "1.0"), ("CNOT", "0", "0"), ("X", "0"), ("H",),
    ("P", "1e309", "0"), ("P", "nan", "0"), ("P", "2**9999", "0"), ("P", "pi*", "0"),
]


@st.composite
def circuit_texts(draw):
    """A native or QASM circuit file, valid or with one malformed line."""
    size = draw(st.sampled_from([0, 1, 3, 2**63]))
    wires = st.integers(0, min(size, 3) - 1).map(str)
    kinds = [
        st.tuples(st.just("H"), wires),
        st.tuples(st.just("P"), st.sampled_from(_ANGLES), wires),
    ]
    if size > 1:
        kinds.append(st.tuples(st.just("CNOT"), wires, wires).filter(lambda g: g[1] != g[2]))
    gates = draw(st.lists(st.one_of(kinds), max_size=6)) if size else []
    flaw = draw(st.sampled_from(["none", "header", "gate", "text"]))
    if flaw == "text":
        return draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=40))
    if flaw == "header":
        size = draw(st.sampled_from(_BAD_HEADERS))
    if flaw == "gate":
        gates.insert(draw(st.integers(0, len(gates))), draw(st.sampled_from(_BAD_GATES)))
    if draw(st.booleans()):
        return "".join(f"{line}\n" for line in [f"qubits {size}", *map(" ".join, gates)])
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{size}];"]
    for name, *args in gates:
        angle = f"({args.pop(0)})" if name == "P" else ""
        operands = ",".join(f"q[{wire}]" for wire in args)
        lines.append(f"{dict(H='h', P='u1', CNOT='cx').get(name, 'x')}{angle} {operands};")
    return "\n".join(lines) + "\n"


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_PREFIXES = {EXIT_USAGE: "E_USAGE: ", EXIT_PARSE: "E_PARSE: ", EXIT_RUNTIME: "E_RUNTIME: "}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(["stats", "draw", "export-qasm", "optimise", "qft"]),
    circuit_texts(),
    st.sampled_from([-1, 0, 1, 5, 2**63]),
    st.sampled_from(["text", "json"]),
)
def test_pure_commands_keep_the_cli_contract(tmp_path_factory, command, text, n, fmt):
    path = tmp_path_factory.getbasetemp() / "contract.txt"
    path.write_text(text, encoding="utf-8")
    operand = ["--n", str(n)] if command == "qft" else [str(path)]
    argv = [command, *operand, "--format", fmt]
    code, out, err = first = run_quietly(argv)
    assert run_quietly(argv) == first
    assert code == EXIT_OK or code in _PREFIXES
    if code == EXIT_OK:
        assert err == ""
        return
    assert out == ""
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith(_PREFIXES[code])
    if code == EXIT_RUNTIME:  # a typed error, not an internal failure
        kind = getattr(errors, err.split(": ")[1], None)
        assert isinstance(kind, type) and issubclass(kind, errors.QlinError), err


# valid inputs first, then malformed ones
_HAMILTONIANS = st.sampled_from(["1.0 Z\n", "0.5 ZZ\n-0.25 XI\n", "2.0 II\n"]) | st.sampled_from(
    ["1.0 Q\n", "x ZZ\n", "1.0 Z\n1.0 ZZ\n", ""])
_GRAPHS = st.sampled_from([K3, "vertices 0\n", "vertices 2\nedge 0 1\n"]) | st.sampled_from(
    ["vertices 2\nedge 0 0\n", "vertices 3\nedge 0 5\n", "edge\n"])
# each command's input file and numeric options; --seed goes with all of them
_OPERANDS = {"simulate": ["FILE"], "coin": [], "rus": [], "vqe": ["--ham", "FILE"], "qaoa": ["--graph", "FILE"]}
_OPTIONS = {"simulate": ["--shots"], "coin": [], "rus": ["--max-iter"], "vqe": ["--depth", "--k", "--nsamples"],
            "qaoa": ["--p", "--k"]}
_GOOD = {"--shots": ["1", "5"], "--max-iter": ["1", "3"], "--depth": ["0", "1"], "--k": ["1", "3"],
         "--nsamples": ["1", "20"], "--p": ["0", "1"], "--seed": ["0", "7", str(2**63)]}
# below the minimum, or past a cap
_BAD = {"--shots": ["-1", "0", str(2**63)], "--max-iter": ["-1", "0"], "--depth": ["-1", str(2**63)],
        "--k": ["-1", "0", str(2**63)], "--nsamples": ["-1", "0", str(2**63)], "--p": ["-1", str(2**63)],
        "--seed": ["-1", None]}


@st.composite
def stochastic_runs(draw):
    """A stochastic command's arguments, naming its input file FILE, and that file's text.

    Every option is small and valid but for at most one, which is below its
    minimum or past a cap, or a missing seed.
    """
    command = draw(st.sampled_from(["simulate", "coin", "rus", "vqe", "vqe", "qaoa", "qaoa"]))
    options = [*_OPTIONS[command], "--seed"]
    spoilt = draw(st.sampled_from([None, None, *options]))
    argv = [command, *_OPERANDS[command]]
    for option in options:
        value = draw(st.sampled_from((_BAD if option == spoilt else _GOOD)[option]))
        argv += [] if value is None else [option, value]
    argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    texts = {"simulate": circuit_texts(), "vqe": _HAMILTONIANS, "qaoa": _GRAPHS}
    return argv, draw(texts.get(command, st.just("")))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stochastic_runs())
# a width the backend refuses before any array is sized from it
@example((["simulate", "FILE", "--shots", "5", "--seed", "7", "--format", "text"], "qubits 1000000000000\n"))
def test_stochastic_commands_keep_the_cli_contract(tmp_path_factory, run_and_text):
    argv, text = run_and_text
    path = tmp_path_factory.getbasetemp() / "stochastic.txt"
    path.write_text(text, encoding="utf-8")
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    code, out, err = first = run_quietly(argv)
    if "--seed" in argv:  # and so with --format json, or it fails alike twice
        assert run_quietly(argv) == first
    assert code == EXIT_OK or code in _PREFIXES
    if code == EXIT_OK:
        assert err == "" and out.endswith("\n")
        return
    assert out == ""
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith(_PREFIXES[code])
    if code == EXIT_RUNTIME:  # a typed error, not an internal failure
        kind = getattr(errors, err.split(": ")[1], None)
        assert isinstance(kind, type) and issubclass(kind, errors.QlinError), err
