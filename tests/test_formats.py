"""Text formats: native circuit files, the OpenQASM subset, graphs, Hamiltonians."""
import math
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlin import (
    Circuit,
    ControlledNot,
    Graph,
    Hadamard,
    Hamiltonian,
    Phase,
    export_qasm,
    matrix_of,
    to_bell_basis,
)
from qlin import formats
from qlin.errors import CircuitError, ParseError
from qlin.formats import (
    format_circuit,
    parse_circuit,
    parse_graph,
    parse_angle,
    parse_hamiltonian,
    parse_qasm,
)
from qlin.circuit import format_angle
from qlin.stdcircuits import p_gate, qft

from .oracles import assert_close
from .oracles import parse_angle as ast_parse_angle


@st.composite
def circuits(draw):
    """Any valid circuit on 1-5 wires; angles are finite floats of any size."""
    n = draw(st.integers(1, 5))
    wire = st.integers(0, n - 1)
    angle = st.floats(allow_nan=False, allow_infinity=False)
    kinds = [st.builds(Hadamard, wire), st.builds(Phase, angle, wire)]
    if n > 1:
        pair = st.lists(wire, min_size=2, max_size=2, unique=True)
        kinds.append(pair.map(lambda cw: ControlledNot(*cw)))
    return Circuit(n, draw(st.lists(st.one_of(kinds), max_size=20)))


def assert_same_up_to_angle_digits(parsed, original):
    """Same kinds and wires; angles agree to format_angle's 15 significant digits."""
    assert parsed.arity == original.arity
    assert [type(g) for g in parsed.gates] == [type(g) for g in original.gates]
    for got, want in zip(parsed.gates, original.gates):
        assert got.wires == want.wires
        assert got.params == pytest.approx(want.params, rel=1e-14, abs=0.0)


def test_parse_circuit_bell():
    assert parse_circuit("qubits 2\nH 0\nCNOT 0 1") == to_bell_basis()


def test_parse_circuit_comments_and_whitespace():
    text = "# a bell pair\n\n  qubits   2\nH 0   # superpose\n\tCNOT  0  1\n"
    assert parse_circuit(text) == to_bell_basis()


def test_parse_circuit_angle_expressions():
    circuit = parse_circuit("qubits 1\nP pi/2 0")
    assert circuit.gates[0].angle == pytest.approx(math.pi / 2)
    circuit = parse_circuit("qubits 1\nP -3*pi/4 0")
    assert circuit.gates[0].angle == pytest.approx(-3 * math.pi / 4)


@pytest.mark.parametrize("angle", ["True", "False", "pi*True", "-False", "1+True"])
def test_parse_angle_rejects_booleans(angle):
    # bool is an int, but True is not an angle in either format
    with pytest.raises(ParseError) as err:
        parse_circuit(f"qubits 1\nH 0\nP {angle} 0")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_qasm(f'OPENQASM 2.0;\nqreg q[1];\nu1({angle}) q[0];')
    assert err.value.line == 3


def test_parse_circuit_error_lines():
    with pytest.raises(ParseError) as err:
        parse_circuit("qubits 1\nCNOT 0 0")
    assert err.value.line == 2
    assert "control and target" in err.value.reason

    with pytest.raises(ParseError) as err:
        parse_circuit("qubits 1\nH 3")
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse_circuit("wires 2")
    assert err.value.line == 1

    with pytest.raises(ParseError):
        parse_circuit("")

    with pytest.raises(ParseError) as err:
        parse_circuit("qubits 1\nH 0\nSWAP 0 1")
    assert err.value.line == 3

    with pytest.raises(ParseError) as err:
        parse_circuit("qubits 1\nH 0\nP 1e309 0\nH 0")
    assert err.value.line == 3
    assert "not finite" in err.value.reason

    # str.isdigit accepts '²', which int() rejects; 400 nines overflow a float
    for text, line in [
        ("qubits ²", 1),
        ("qubits 1\nH ²", 2),
        ("qubits 2\nCNOT 0 ²", 2),
        ("qubits 1\nP " + "9" * 400 + " 0", 2),
    ]:
        with pytest.raises(ParseError) as err:
            parse_circuit(text)
        assert err.value.line == line


@settings(max_examples=150, deadline=None, derandomize=True)
@given(circuits())
@example(to_bell_basis())
def test_native_round_trip_structural(circuit):
    assert_same_up_to_angle_digits(parse_circuit(format_circuit(circuit)), circuit)


def test_native_round_trip_semantics_with_angles():
    circuit = qft(3)
    reparsed = parse_circuit(format_circuit(circuit))
    assert_close(matrix_of(reparsed), matrix_of(circuit))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(circuits())
@example(qft(3))
def test_qasm_round_trip(circuit):
    assert_same_up_to_angle_digits(parse_qasm(export_qasm(circuit)), circuit)


def test_qasm_accepts_pi_and_p_alias():
    text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\np(pi/4) q[0];\n'
    assert_close(matrix_of(parse_qasm(text)), matrix_of(p_gate(math.pi / 4)))


def test_qasm_errors():
    with pytest.raises(ParseError) as err:
        parse_qasm('OPENQASM 2.0;\nqreg q[1];\ncz q[0],q[0];')
    assert err.value.line == 3
    with pytest.raises(ParseError):
        parse_qasm("h q[0];")  # gate before qreg
    with pytest.raises(ParseError) as err:
        parse_qasm('OPENQASM 2.0;\nqreg q[1];\nh q[4];')
    assert "register size" in err.value.reason
    with pytest.raises(ParseError) as err:
        parse_qasm('OPENQASM 2.0;\nqreg q[1];\nh q[0];\nu1(1e309) q[0];\nh q[0];')
    assert err.value.line == 4
    assert "not finite" in err.value.reason
    for text, line in [
        ("OPENQASM 2.0;\nqreg q[²];", 2),
        ("OPENQASM 2.0;\nqreg q[3];\nh q[²];", 3),
        ("OPENQASM 2.0;\nqreg q[1];\nu1(" + "9" * 400 + ") q[0];", 3),
    ]:
        with pytest.raises(ParseError) as err:
            parse_qasm(text)
        assert err.value.line == line


def test_parse_graph():
    graph = parse_graph("vertices 3\nedge 0 1\nedge 1 2 # back\nedge 0 2")
    assert graph == Graph(3, ((0, 1), (1, 2), (0, 2)))


def test_parse_graph_errors():
    with pytest.raises(ParseError) as err:
        parse_graph("vertices 2\nedge 0 0")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_graph("vertices 2\nedge 0 1\nedge 1 0")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        parse_graph("")
    for text, line in [("vertices ²", 1), ("vertices 3\nedge 0 1\nedge ² 2", 3)]:
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.line == line


def test_parse_hamiltonian():
    hamiltonian = parse_hamiltonian("0.5 ZZ\n-0.25 XI # transverse\n")
    assert hamiltonian == Hamiltonian(((0.5, "ZZ"), (-0.25, "XI")))
    assert hamiltonian.arity == 2


@pytest.mark.parametrize("token", ["1_0", "1e1_0", "inf", "nan", "infinity", "-inf", "NaN", "0x10", "1e", "-", "+-1"])
def test_a_coefficient_is_a_signed_literal(token):
    # float() reads the first seven; a coefficient is the angles' literal with an optional sign
    with pytest.raises(ParseError) as err:
        parse_hamiltonian(f"0.5 ZZ\n{token} ZI\n")
    assert (err.value.line, err.value.reason) == (2, f"bad coefficient {token!r}")


@pytest.mark.parametrize("token, value", [("12", 12.0), ("-1.5", -1.5), ("+.5", 0.5), ("5.", 5.0), ("1e-3", 1e-3),
                                          ("-2E+2", -200.0), ("01", 1.0)])
def test_a_signed_literal_is_a_coefficient(token, value):
    assert parse_hamiltonian(f"{token} Z\n") == Hamiltonian(((value, "Z"),))


def test_parse_hamiltonian_errors():
    with pytest.raises(ParseError) as err:
        parse_hamiltonian("0.5 ZZ\n0.5 Z")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_hamiltonian("abc ZZ")
    with pytest.raises(ParseError):
        parse_hamiltonian("1.0 ZQ")
    with pytest.raises(ParseError):
        parse_hamiltonian("# nothing\n")


# Pauli letters in either case, letters that str.upper turns into them or
# into several letters, and any character a term may hold (no space or '#')
_TERM_CHARACTERS = st.sampled_from("IXYZixyzıßſQ") | st.characters(blacklist_categories=("Z", "C"),
                                                                   blacklist_characters="#")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(_TERM_CHARACTERS, min_size=1))
@example("ız")
@example("ßZ")
def test_parse_hamiltonian_accepts_only_ascii_pauli_letters(term):
    # either case of I, X, Y and Z, and nothing that only upper-cases to them
    if term.isascii() and set(term.upper()) <= set("IXYZ"):
        assert parse_hamiltonian(f"1.0 {term}\n") == Hamiltonian(((1.0, term.upper()),))
        return
    with pytest.raises(ParseError) as err:
        parse_hamiltonian(f"1.0 {term}\n")
    assert (err.value.line, err.value.reason) == (1, f"invalid Pauli string {term!r}")


@pytest.mark.parametrize(
    "text", ["+".join(["1"] * 1500), "-" * 50000 + "1"], ids=["long-sum", "many-signs"]
)
def test_parse_angle_too_deep_is_a_parse_error(text):
    # a long sum overflows the evaluator's recursion; many signs overflow ast.parse
    with pytest.raises(ParseError) as err:
        parse_circuit(f"qubits 1\nH 0\nP {text} 0")
    assert err.value.line == 3


def test_parse_angle_does_not_depend_on_the_callers_stack():
    text = "+".join(["1"] * 900)

    def deeper(frames):
        return parse_angle(text, 1) if frames == 0 else deeper(frames - 1)

    assert parse_angle(text, 1) == 900.0
    assert deeper(200) == 900.0


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ANGLE_ATOMS = st.one_of(
    _FINITE.map(format_angle),
    _FINITE.map(repr),
    st.sampled_from(["pi", "0", "00", "01", "1", "9" * 400, ".5", "5.", "1e-3", "1E+3", "0e5"]),
    st.text("0123456789", min_size=1, max_size=25),
)
_GAPS = st.sampled_from(["", "", " ", "\t", " \t "])


def _angle_expressions(atoms):
    """Documented-grammar text: signs, parentheses and + - * / over `atoms`."""
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, _GAPS, st.sampled_from("+-*/"), _GAPS, inner).map("".join),
            st.tuples(st.sampled_from("+-"), _GAPS, inner).map("".join),
            st.tuples(st.just("("), _GAPS, inner, _GAPS, st.just(")")).map("".join),
        ),
        max_leaves=12,
    )


@st.composite
def _near_the_cap(draw):
    """A run of signs before a chain of one precedence level, about 1000 operators
    in all; the signs and the chain nest as deep as they count."""
    signs = draw(st.integers(0, 1010))
    terms = draw(st.integers(max(1, 990 - signs), max(1, 1012 - signs)))
    level, rng = draw(st.sampled_from(["+-", "*/"])), draw(st.randoms(use_true_random=False))
    text = "".join(rng.choice("+-") for _ in range(signs)) + rng.choice(["1", "pi", "2.5"])
    return text + "".join(rng.choice(level) + rng.choice(["1", "pi", "2.5"]) for _ in range(terms - 1))


def _read(parse, text):
    """repr of the float read (exact, with the sign of zero and nan), or the ParseError."""
    try:
        return repr(parse(text, 7))
    except ParseError as err:
        return (err.line, err.reason)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_angle_expressions(_ANGLE_ATOMS))
@example("(" * 199 + "pi" + ")" * 199)
@example("1/0")
@example("1e308*10-1e308*10")
@example("-0.0*1")
@example("-0.0")
@example("+.5")
@example("-5.")
@example("1e999")
@example("-1e999")
@example("1E+3")
@example("-007")
@example("+00")
@example("- 2.5")
@example("+-1.5")
@example(" -2.5\t")
def test_parse_angle_matches_the_ast_reader_on_the_documented_grammar(text):
    # the same floats, to the bit, or the same error, for every text both may read
    assert _read(parse_angle, text) == _read(ast_parse_angle, text)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_near_the_cap())
@example("+".join(["1"] * 1001))
@example("+".join(["1"] * 1002))
@example("-" * 1000 + "1")
@example("-" * 1001 + "1")
def test_parse_angle_matches_the_ast_reader_near_the_cap(text):
    assert _read(parse_angle, text) == _read(ast_parse_angle, text)


@pytest.mark.parametrize("text", ["ｐｉ", "𝐩𝐢/2", "0x10", "0o7", "0b11", "1_0", "pi#x", "1\x0c+1"])
def test_parse_angle_rejects_python_forms_outside_the_grammar(text):
    # Python's parser reads each of these (as pi, 16, 7, 3, 10, pi and 2)
    with pytest.raises(ParseError) as err:
        parse_angle(text, 4)
    assert (err.value.line, err.value.reason) == (4, f"bad angle {text!r}")


# (parser, text with a `{}` for one number or index, the line it sits on)
_NUMBER_SLOTS = [
    (parse_circuit, "qubits {}\nH 0\n", 1),
    (parse_circuit, "qubits 3\nH {}\n", 2),
    (parse_circuit, "qubits 3\nH 0\nCNOT {} 1\n", 3),
    (parse_circuit, "qubits 3\nH 0\nCNOT 0 {}\n", 3),
    (parse_circuit, "qubits 3\nP {} 0\n", 2),
    (parse_circuit, "qubits 3\nP 1 {}\n", 2),
    (parse_qasm, "OPENQASM 2.0;\nqreg q[{}];\n", 2),
    (parse_qasm, "OPENQASM 2.0;\nqreg q[3];\nh q[{}];\n", 3),
    (parse_qasm, "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[{}];\n", 4),
    (parse_qasm, "OPENQASM 2.0;\nqreg q[3];\nu1({}) q[0];\n", 3),
    (parse_graph, "vertices {}\n", 1),
    (parse_graph, "vertices 3\nedge {} 1\n", 2),
    (parse_graph, "vertices 3\nedge 0 1\nedge 0 {}\n", 3),
    (parse_hamiltonian, "0.5 ZZ\n{} ZI\n", 2),
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(_NUMBER_SLOTS),
    st.text("0123456789", max_size=2),
    st.characters(whitelist_categories=("Nd",)).filter(lambda c: not c.isascii()),
    st.text("0123456789", max_size=2),
)
@example((parse_circuit, "qubits {}\nH 0\n", 1), "", "٣", "")
@example((parse_hamiltonian, "0.5 ZZ\n{} ZI\n", 2), "", "٣", "")
def test_a_non_ascii_digit_is_a_parse_error_in_every_number(slot, before, digit, after):
    # int() and float() read any Unicode decimal digit; the formats read ASCII only
    parse, template, line = slot
    token = before + digit + after
    with pytest.raises(ParseError) as err:
        parse(template.format(token))
    assert err.value.line == line
    assert token in err.value.reason
    if parse is parse_hamiltonian:
        assert err.value.reason == f"bad coefficient {token!r}"


def _first_bad_prefix(make, items):
    """Reference: grow the input one line at a time, as a streaming parser would."""
    for count in range(1, len(items) + 1):
        try:
            make(items[:count])
        except (ValueError, CircuitError) as err:
            return count, str(err)
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=25),
)
def test_parse_graph_reports_first_bad_line(count, edges):
    text = f"vertices {count}\n" + "".join(f"edge {u} {v}\n" for u, v in edges)
    expected = _first_bad_prefix(lambda prefix: Graph(count, tuple(prefix)), edges)
    if expected is None:
        assert parse_graph(text) == Graph(count, tuple(edges))
        return
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert (err.value.line, err.value.reason) == (expected[0] + 1, expected[1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["0.5", "-1.0", "1e999", "inf", "nan"]),
            st.text("IXYZQ", min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_parse_hamiltonian_reports_first_bad_line(terms):
    # a coefficient outside the grammar ('inf', 'nan') is refused as its line
    # is read; '1e999' reads as inf and reaches Hamiltonian's own refusal
    text = "".join(f"{coeff} {term}\n" for coeff, term in terms)
    unread = [(line, f"bad coefficient {coeff!r}") for line, (coeff, _) in enumerate(terms, start=1)
              if coeff in ("inf", "nan")]
    if unread:
        with pytest.raises(ParseError) as err:
            parse_hamiltonian(text)
        assert (err.value.line, err.value.reason) == unread[0]
        return
    terms = [(float(coeff), term) for coeff, term in terms]
    expected = _first_bad_prefix(lambda prefix: Hamiltonian(tuple(prefix)), terms)
    if expected is None:
        assert parse_hamiltonian(text) == Hamiltonian(tuple(terms))
        return
    with pytest.raises(ParseError) as err:
        parse_hamiltonian(text)
    assert (err.value.line, err.value.reason) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.lists(
        st.one_of(
            st.builds(lambda w: ("H", w), st.integers(0, 4)),
            st.builds(lambda c, t: ("CNOT", c, t), st.integers(0, 4), st.integers(0, 4)),
        ),
        max_size=25,
    ),
)
def test_parse_circuit_reports_first_bad_line(arity, lines):
    gates = [Hadamard(*f[1:]) if f[0] == "H" else ControlledNot(*f[1:]) for f in lines]
    text = f"qubits {arity}\n" + "".join(" ".join(map(str, f)) + "\n" for f in lines)
    expected = _first_bad_prefix(lambda prefix: Circuit(arity, prefix), gates)
    if expected is None:
        assert parse_circuit(text) == Circuit(arity, gates)
        return
    with pytest.raises(ParseError) as err:
        parse_circuit(text)
    assert (err.value.line, err.value.reason) == (expected[0] + 1, expected[1])


# Line mutations for the matched-line property: each keeps, breaks or moves a
# line between the line regexes and the general reader.
_NEVER = re.compile(r"(?!)")
_LAST_INDEX = r"([0-9]+)(\]?;?)$"
_ANGLE = r"(?<=^P )\S+|(?<=\()[^)]*(?=\))"
_MUTATIONS = [
    lambda line: line.replace(" ", "\t"),
    lambda line: line.replace(" ", " \t "),
    lambda line: f" \t{line}\t ",
    lambda line: line + " # note",
    lambda line: line + "#",
    lambda line: line + " // note",
    lambda line: line + "//",
    lambda line: line.replace(" ", "\xa0", 1),
    lambda line: line.replace(" ", "\x0b", 1),
    lambda line: re.sub("[0-9]", "٣", line, count=1),
    lambda line: re.sub(_LAST_INDEX, r"00\1\2", line),
    lambda line: re.sub(_LAST_INDEX, r"7\2", line),
    lambda line: re.sub(_LAST_INDEX, r"123456789012345678901\2", line),
    lambda line: re.sub(_ANGLE, "1", line),
    lambda line: re.sub(_ANGLE, "01", line),
    lambda line: re.sub(_ANGLE, "1e400", line),
    lambda line: re.sub(_ANGLE, "-1e-400", line),
    lambda line: re.sub(_ANGLE, "+.5e1", line),
    lambda line: re.sub(_ANGLE, "pi/2", line),
    lambda line: re.sub(_ANGLE, "1.5.", line),
    lambda line: line.rstrip(";"),
    lambda line: line.lower(),
    lambda line: "CNOT 1 1",
    lambda line: "cx q[1],q[1];",
    lambda line: "P 1 0",
    lambda line: "h q[0]; cx q[0], q[1]; u1( -0.5 )q[1];",
    lambda line: "",
]
_NEWLINES = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", " "])


@st.composite
def _mutated_texts(draw, render):
    lines = render(draw(circuits())).splitlines()
    for i in sorted(draw(st.lists(st.integers(0, len(lines) - 1), max_size=4)), reverse=True):
        mutation = draw(st.sampled_from(_MUTATIONS))
        lines[i] = mutation(lines[i])
        if draw(st.booleans()) and i + 1 < len(lines):  # several statements on one line
            lines[i : i + 2] = [lines[i] + " " + lines[i + 1]]
    return "".join(line + draw(_NEWLINES) for line in lines)


def _outcome(parse, text):
    """What parse(text) gives: the circuit's repr, or the type and text of what it raised."""
    try:
        return repr(parse(text))
    except Exception as err:  # a ParseError, or whatever the general reader lets through
        return type(err), str(err)


def _general_outcome(parse, text):
    """_outcome with the line regexes never matching, so the general reader reads every line."""
    with mock.patch.object(formats, "_NATIVE_LINE", _NEVER), \
            mock.patch.object(formats, "_qasm_line", lambda register: _NEVER):
        return _outcome(parse, text)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_mutated_texts(format_circuit), _mutated_texts(export_qasm)))
@example("qubits 2\r\nH 0 # a\r\n\tCNOT\t0 1\x0cP pi/2 1\nP 1 0\nP 1e400 0\n")
@example("qubits 2\nCNOT 1 1\nH 00\nH 2\nP 01 0\n")
@example("OPENQASM 2.0;\nqreg q[1];\nu1(01) q[0];\n")
@example('OPENQASM 2.0; include "qelib1.inc";\nqreg q[2];\nh q[0]; cx q[0],q[1];\nu1(0.5) q[1];\n')
@example("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[2];\n")
@example("OPENQASM 2.0;\nqreg q[2];\nh q[" + "9" * 5000 + "];\n")
def test_a_matched_line_reads_as_the_general_reader_reads_it(text):
    parse = parse_qasm if text.startswith("OPENQASM") else parse_circuit
    assert _outcome(parse, text) == _general_outcome(parse, text)


_DIGITS = "9" * 5000  # an index past the 4300 digits int() reads from a str


@pytest.mark.parametrize("parse, text, line", [
    (parse_circuit, f"qubits {_DIGITS}\nH 0\n", 1),
    (parse_circuit, f"qubits 2\nH {_DIGITS}\n", 2),
    (parse_circuit, f"qubits 2\nH 0\nP 0.5 {_DIGITS}\n", 3),
    (parse_circuit, f"qubits 2\nCNOT 0 {_DIGITS}\n", 2),
    (parse_circuit, f"qubits 2\nP pi/2 {_DIGITS}\n", 2),
    (parse_qasm, f"OPENQASM 2.0;\nqreg q[2];\nh q[{_DIGITS}];\n", 3),
    (parse_qasm, f"OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[{_DIGITS}];\n", 3),
    (parse_qasm, f"OPENQASM 2.0;\nqreg q[{_DIGITS}];\n", 2),
    (parse_graph, f"vertices 3\nedge 0 {_DIGITS}\n", 2),
], ids=["header", "H", "P", "CNOT", "P-expression", "qasm-h", "qasm-cx", "qreg", "edge"])
def test_an_index_of_too_many_digits_is_a_parse_error_on_its_line(parse, text, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert _outcome(parse, text) == _general_outcome(parse, text)


@pytest.mark.parametrize("circuit", [to_bell_basis(), qft(4), Circuit(1, [Phase(-1e-300, 0), Phase(1e300, 0)])])
def test_every_gate_line_that_the_writers_emit_is_matched(circuit):
    native = format_circuit(circuit).splitlines()[1:]
    assert all(formats._NATIVE_LINE.fullmatch(line) for line in native)
    qasm = export_qasm(circuit).splitlines()[3:]
    assert all(formats._qasm_line("q").fullmatch(line) for line in qasm)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.from_regex(formats._FLOAT, fullmatch=True))
@example("-0.0")
@example("1e999")
@example("-1e999")
def test_parse_angle_reads_every_literal_the_line_regexes_read_as_float_does(text):
    # a line that the regexes miss reaches parse_angle: its float must be the one the match would give
    assert repr(parse_angle(text, 1)) == repr(float(text))


@pytest.mark.parametrize("parse, text, line, reason", [
    (lambda text: parse_angle(text, 1), "1)", 1, "bad angle '1)'"),
    (parse_qasm, "OPENQASM 2.0;\nqreg q[1];\nqreg r[1];", 3, "only one qreg is supported"),
    (parse_qasm, "OPENQASM 2.0;\nqreg q[2];\ncx q[0];", 3, "cx expects 0 angle(s) and 2 qubit(s): 'cx q[0]'"),
    (parse_qasm, "OPENQASM 2.0;\ninclude \"qelib1.inc\";", 1, "no qreg declaration found"),
    (parse_graph, "vertices 2\nedge 0", 2, "expected `edge <u> <v>`, got 'edge 0'"),
    (parse_hamiltonian, "1.0 ZZ\n0.5 Z X", 2, "expected `<coeff> <paulistring>`, got '0.5 Z X'"),
], ids=["angle-unmatched-paren", "qasm-two-qregs", "qasm-cx-one-qubit", "qasm-no-qreg", "graph-short-edge",
        "hamiltonian-three-fields"])
def test_format_refusals_name_their_line_and_cause(parse, text, line, reason):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.reason) == (line, reason)
