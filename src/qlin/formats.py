"""Text formats: the native circuit format, an OpenQASM 2.0 importer for the
subset this package emits, and the graph / Hamiltonian files used by the
algorithm drivers. All parse errors carry 1-based line numbers.

Native circuit format:
    qubits <n>
    H <j>
    P <angle> <j>
    CNOT <c> <t>
with `#` comments and free whitespace.

An angle, in both circuit formats, is ASCII decimal literals (`12`, `1.5`,
`.5`, `5.`, `1e-3`) and `pi` under unary `+`/`-`, parentheses and the
left-associative operators `+ - * /` (`*` and `/` binding tighter), with
spaces or tabs between tokens; e.g. `pi/2`, `-3*pi/4`. A literal of digits
alone follows Python's integer rules. Any other character is an error, and
so are more than 1000 operators and parentheses in one angle. Every number
and index in these formats is ASCII.

A signed literal that is not digits alone (`0.785398163397448`, `-1e-05`,
what export-qasm and format_angle write) is read by float() in one step,
with the same float the evaluator gives it, to the bit.

A circuit line that is one `H`, `P <such a literal>` or `CNOT` gate (one
`h`, `u1`/`p` or `cx` statement in QASM, on in-range indices), with spaces,
tabs and a comment, is read by one regex match; the general reader takes
every other line and alone raises ParseError.
"""
from __future__ import annotations

import math
import operator
import re

from .algorithms import _PAULI_OPS, Graph, Hamiltonian
from .circuit import GATE_KINDS, Circuit, ControlledNot, GateApp, Hadamard, Phase, format_angle
from .errors import CircuitError, ParseError


# an ASCII decimal literal: 12, 1.5, .5, 5. or 1e-3
_LITERAL = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# spaces or tabs, then a literal or pi, or else any one character
_ANGLE_TOKEN = re.compile(rf"[ \t]*(?:({_LITERAL}|pi)|(.))", re.DOTALL)
# a literal with an optional sign: a Hamiltonian coefficient, or an angle float() reads
_COEFFICIENT = re.compile(rf"[+-]?{_LITERAL}")
# a signed literal that is not digits alone: the angles parse_angle reads by float()
_FLOAT = r"[+-]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+)"
# one native gate line; its groups are H's wire, P's angle and wire, CNOT's wires
_NATIVE_LINE = re.compile(
    rf"[ \t]*(?:H[ \t]+([0-9]+)|P[ \t]+({_FLOAT})[ \t]+([0-9]+)|CNOT[ \t]+([0-9]+)[ \t]+([0-9]+))[ \t]*(?:#.*)?"
)
_SIGN, _OPEN = 3, 0  # the precedences of unary + and - (above every binary operator's) and of "("
_PREFIXES = {"+": (_SIGN, operator.pos), "-": (_SIGN, operator.neg), "(": (_OPEN, None)}
_BINARY_OPS = {
    "+": (1, operator.add), "-": (1, operator.sub), "*": (2, operator.mul), "/": (2, operator.truediv),
}
_MAX_ANGLE_OPS = 1000


def _reduce(values: list[float], pending: list[tuple], floor: int) -> None:
    """Apply the pending operators whose precedence passes `floor`, innermost first."""
    while pending[-1][0] > floor:
        precedence, function = pending.pop()
        right = values.pop()
        values.append(function(right) if precedence == _SIGN else function(values.pop(), right))


def parse_angle(text: str, line: int) -> float:
    """Evaluate an angle in the grammar of the module docstring.

    A signed literal that is not digits alone is read by float() in one
    step. Any other text is evaluated: its tokens move onto a stack of
    values and one of pending (precedence, function) operators. Past
    _MAX_ANGLE_OPS operators and parentheses the angle nests too deeply.
    """
    text = text.strip()
    if _COEFFICIENT.fullmatch(text) and not text.lstrip("+-").isdigit():
        # a signed literal, as format_angle writes it: float() rounds it as the
        # evaluator does, and a sign is exact, so the float is the same
        return float(text)
    values, pending = [], [(-1, None)]  # the bottom of `pending` is never reduced
    want_operand, operators = True, 0
    try:
        for token, symbol in (match.groups() for match in _ANGLE_TOKEN.finditer(text)):
            if want_operand and token is not None:
                value = math.pi if token == "pi" else float(token)
                if token.isdigit() and (value == math.inf or value and token[0] == "0"):
                    raise ValueError(token)  # digits alone follow Python's int rules
                values.append(value)
            elif want_operand and symbol in _PREFIXES:
                pending.append(_PREFIXES[symbol])
            elif not want_operand and symbol in _BINARY_OPS:
                _reduce(values, pending, _BINARY_OPS[symbol][0] - 1)  # left-associative
                pending.append(_BINARY_OPS[symbol])
            elif not want_operand and symbol == ")":
                _reduce(values, pending, _OPEN)
                if pending.pop()[0] != _OPEN:
                    raise ValueError(symbol)
            else:
                raise ValueError(token or symbol)
            want_operand = symbol not in (None, ")")
            operators += token is None
            if operators > _MAX_ANGLE_OPS:
                raise ParseError(line, "angle expression nests too deeply")
        if not want_operand:
            _reduce(values, pending, _OPEN)
        if want_operand or len(pending) > 1:  # a missing operand or an unclosed "("
            raise ValueError(text)
        return values[0]
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, f"bad angle {text!r}") from None


def _significant_lines(numbered, comment: str):
    """The (number, line) pairs of `numbered` whose line holds more than a comment, stripped."""
    for number, raw in numbered:
        stripped = raw.split(comment, 1)[0].strip()
        if stripped:
            yield number, stripped


def _gate(match) -> GateApp:
    """The gate of a line that _NATIVE_LINE or a _qasm_line matched."""
    h, angle, wire, control, target = match.groups()
    if h is not None:
        return Hadamard(int(h))
    if angle is not None:
        return Phase(float(angle), int(wire))
    return ControlledNot(int(control), int(target))


def _qasm_line(register: str):
    """The regex of one `h`, `u1`/`p` or `cx` statement on `register`, with _NATIVE_LINE's groups."""
    q = rf"{register}\[([0-9]+)\]"
    return re.compile(
        rf"[ \t]*(?:h[ \t]+{q}|(?:u1|p)[ \t]*\([ \t]*({_FLOAT})[ \t]*\)[ \t]*{q}|cx[ \t]+{q}[ \t]*,[ \t]*{q})"
        r"[ \t]*;[ \t]*(?://.*)?"
    )


def _index(token: str, line: int, message: str) -> int:
    """Read a non-negative index of ASCII digits, or raise ParseError(line, message).

    str.isdecimal alone would also pass digits such as '٣' that int() reads;
    str.isdigit would also pass characters such as '²' that int() rejects.
    """
    if not (token.isascii() and token.isdecimal()):
        raise ParseError(line, message)
    return int(token)


def _header(lines, keyword: str) -> int:
    """Read the `<keyword> <n>` line that opens a native circuit or graph file."""
    try:
        number, header = next(lines)
    except StopIteration:
        raise ParseError(1, f"empty file: expected `{keyword} <n>`") from None
    message = f"expected `{keyword} <n>`, got {header!r}"
    fields = header.split()
    if len(fields) != 2 or fields[0] != keyword:
        raise ParseError(number, message)
    return _index(fields[1], number, message)


def _construct(make, items: list, numbers: list[int]):
    """Build make(items) once; if the input is invalid, report its first bad line.

    Validity is monotone in the prefix length (a prefix that fails stays
    failing), so a binary search finds the shortest failing prefix; its last
    item is the first bad line and its error is the one reported.
    """
    try:
        return make(items)
    except (ValueError, CircuitError) as err:
        error = err
    good, bad = 0, len(items)  # items[:bad] fails; items[:good] is taken to pass
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            make(items[:mid])
            good = mid
        except (ValueError, CircuitError) as err:
            bad, error = mid, err
    raise ParseError(numbers[bad - 1], str(error)) from None


_NATIVE_KINDS = {kind.name: kind for kind in GATE_KINDS}
_QASM_KINDS = {spelling: kind for kind in GATE_KINDS for spelling in kind.qasm}


def parse_circuit(text: str) -> Circuit:
    """Parse the native circuit format into a validated Circuit."""
    numbered = enumerate(text.splitlines(), start=1)
    arity = _header(_significant_lines(numbered, "#"), "qubits")
    gates, numbers = [], []
    for number, raw in numbered:  # the lines after the header
        match = _NATIVE_LINE.fullmatch(raw)
        if match:
            gates.append(_gate(match))
            numbers.append(number)
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, *args = line.split()
        kind = _NATIVE_KINDS.get(name)
        if kind is None or len(args) != kind.n_params + kind.n_wires:
            raise ParseError(number, f"unrecognised gate line {line!r}")
        params = [parse_angle(arg, number) for arg in args[: kind.n_params]]
        wires = [
            _index(arg, number, f"expected a wire index, got {arg!r}")
            for arg in args[kind.n_params :]
        ]
        gates.append(kind(*params, *wires))
        numbers.append(number)
    return _construct(lambda prefix: Circuit(arity, prefix), gates, numbers)


def format_circuit(c: Circuit) -> str:
    """Render a circuit in the native format (inverse of parse_circuit)."""
    lines = [f"qubits {c.arity}"]
    for gate in c.gates:
        lines.append(" ".join([gate.name, *map(format_angle, gate.params), *map(str, gate.wires)]))
    return "\n".join(lines) + "\n"


def _parse_qasm_qubit(token: str, register: str, size: int, line: int) -> int:
    token = token.strip()
    if not (token.startswith(f"{register}[") and token.endswith("]")):
        raise ParseError(line, f"expected {register}[<index>], got {token!r}")
    value = _index(token[len(register) + 1 : -1], line, f"bad qubit index in {token!r}")
    if value >= size:
        raise ParseError(line, f"qubit {token} exceeds register size {size}")
    return value


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset produced by export_qasm (h, u1/p, cx)."""
    register: str | None = None
    size, fast = 0, None
    gates, numbers = [], []
    for number, raw in enumerate(text.splitlines(), start=1):
        match = fast and fast.fullmatch(raw)
        gate = match and _gate(match)
        if gate and max(gate.wires) < size:  # else the general reader reports the index
            gates.append(gate)
            numbers.append(number)
            continue
        line = raw.split("//", 1)[0]
        for statement in filter(None, (s.strip() for s in line.split(";"))):
            head = statement.split(None, 1)[0]
            if head == "OPENQASM" or head == "include":
                continue
            if head == "qreg":
                if register is not None:
                    raise ParseError(number, "only one qreg is supported")
                declaration = statement[len("qreg") :].strip()
                name, _, rest = declaration.partition("[")
                message = f"bad qreg declaration {statement!r}"
                if not rest.endswith("]"):
                    raise ParseError(number, message)
                register, size = name.strip(), _index(rest[:-1], number, message)
                if register.isascii() and register.isidentifier():  # a name such as `a,b` is split by ","
                    fast = _qasm_line(register)
                continue
            if register is None:
                raise ParseError(number, "gate before qreg declaration")
            name = head.split("(", 1)[0]
            kind = _QASM_KINDS.get(name)
            if kind is None:
                raise ParseError(number, f"unsupported statement {statement!r}")
            operands = statement[len(name) :].strip()
            args = []
            if operands.startswith("("):
                inside, _, operands = operands[1:].partition(")")
                args = inside.split(",")
            operands = operands.split(",")
            if len(args) != kind.n_params or len(operands) != kind.n_wires:
                raise ParseError(
                    number,
                    f"{name} expects {kind.n_params} angle(s) and {kind.n_wires} qubit(s): "
                    f"{statement!r}",
                )
            params = [parse_angle(arg, number) for arg in args]
            wires = [_parse_qasm_qubit(op, register, size, number) for op in operands]
            gates.append(kind(*params, *wires))
            numbers.append(number)
    if register is None:
        raise ParseError(1, "no qreg declaration found")
    return _construct(lambda prefix: Circuit(size, prefix), gates, numbers)


def parse_graph(text: str) -> Graph:
    """Parse `vertices <n>` followed by `edge <u> <v>` lines."""
    lines = _significant_lines(enumerate(text.splitlines(), start=1), "#")
    count = _header(lines, "vertices")
    edges, numbers = [], []
    for number, line in lines:
        message = f"expected `edge <u> <v>`, got {line!r}"
        fields = line.split()
        if len(fields) != 3 or fields[0] != "edge":
            raise ParseError(number, message)
        edges.append((_index(fields[1], number, message), _index(fields[2], number, message)))
        numbers.append(number)
    return _construct(lambda prefix: Graph(count, tuple(prefix)), edges, numbers)


def parse_hamiltonian(text: str) -> Hamiltonian:
    """Parse one `<coeff> <paulistring>` term per line; the letters IXYZ may be lower case."""
    terms, numbers = [], []
    for number, line in _significant_lines(enumerate(text.splitlines(), start=1), "#"):
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(number, f"expected `<coeff> <paulistring>`, got {line!r}")
        # float() alone would also read '٣', '1_0', 'inf' and 'nan'
        if not _COEFFICIENT.fullmatch(fields[0]):
            raise ParseError(number, f"bad coefficient {fields[0]!r}")
        coeff = float(fields[0])
        term = fields[1]  # only ASCII folds: str.upper turns 'ı' into 'I' and 'ß' into 'SS'
        terms.append((coeff, term.upper() if term.isascii() and set(term.upper()) <= _PAULI_OPS else term))
        numbers.append(number)
    if not terms:
        raise ParseError(1, "empty file: expected at least one term")
    return _construct(lambda prefix: Hamiltonian(tuple(prefix)), terms, numbers)
