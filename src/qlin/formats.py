"""Text formats: the native circuit format, an OpenQASM 2.0 importer for the
subset this package emits, and the graph / Hamiltonian files used by the
algorithm drivers. All parse errors carry 1-based line numbers.

Native circuit format:
    qubits <n>
    H <j>
    P <angle> <j>
    CNOT <c> <t>
with `#` comments and free whitespace. Angles accept float literals or
simple expressions over `pi` (e.g. `pi/2`, `-3*pi/4`).
"""
from __future__ import annotations

import ast
import math
import operator

from .algorithms import _PAULI_OPS, Graph, Hamiltonian
from .circuit import GATE_KINDS, Circuit, format_angle
from .errors import CircuitError, ParseError


_BINARY_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_MAX_ANGLE_DEPTH = 1000


def _eval_angle_node(root: ast.expr) -> float:
    """Evaluate an angle expression tree with an explicit stack, left to right.

    Nesting deeper than _MAX_ANGLE_DEPTH raises RecursionError wherever the
    caller sits on the interpreter's stack.
    """
    values: list[float] = []
    todo: list[tuple[ast.AST, int]] = [(root, 0)]  # (node, depth); depth -1: apply the operator
    while todo:
        node, depth = todo.pop()
        if depth < 0:
            if type(node) in _UNARY_OPS:
                values.append(_UNARY_OPS[type(node)](values.pop()))
            else:
                right = values.pop()
                values.append(_BINARY_OPS[type(node)](values.pop(), right))
        elif depth > _MAX_ANGLE_DEPTH:
            raise RecursionError("angle expression nests too deeply")
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):  # not bool
            values.append(float(node.value))
        elif isinstance(node, ast.Name) and node.id == "pi":
            values.append(math.pi)
        elif isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
            todo += [(node.op, -1), (node.operand, depth + 1)]
        elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            todo += [(node.op, -1), (node.right, depth + 1), (node.left, depth + 1)]
        else:
            raise ValueError("unsupported angle expression")
    return values.pop()


def parse_angle(text: str, line: int) -> float:
    """Evaluate an angle literal or a +-*/ expression over `pi`."""
    try:
        return _eval_angle_node(ast.parse(text.strip(), mode="eval").body)
    # OverflowError: an integer literal too large for a float
    except (SyntaxError, ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(line, f"bad angle {text.strip()!r}") from None
    except (RecursionError, MemoryError):  # the evaluator's depth cap or ast.parse's limit
        raise ParseError(line, "angle expression nests too deeply") from None


def _significant_lines(text: str, comment: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split(comment, 1)[0].strip()
        if stripped:
            yield number, stripped


def _index(token: str, line: int, message: str) -> int:
    """Read a non-negative decimal index, or raise ParseError(line, message).

    str.isdecimal accepts exactly the digit strings int() reads; str.isdigit
    would also pass characters such as '²' that int() rejects.
    """
    if not token.isdecimal():
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
    lines = _significant_lines(text, "#")
    arity = _header(lines, "qubits")
    gates, numbers = [], []
    for number, line in lines:
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
    size = 0
    gates, numbers = [], []
    for number, line in _significant_lines(text, "//"):
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
    lines = _significant_lines(text, "#")
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
    for number, line in _significant_lines(text, "#"):
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(number, f"expected `<coeff> <paulistring>`, got {line!r}")
        try:
            coeff = float(fields[0])
        except ValueError:
            raise ParseError(number, f"bad coefficient {fields[0]!r}") from None
        term = fields[1]  # only ASCII folds: str.upper turns 'ı' into 'I' and 'ß' into 'SS'
        terms.append((coeff, term.upper() if term.isascii() and set(term.upper()) <= _PAULI_OPS else term))
        numbers.append(number)
    if not terms:
        raise ParseError(1, "empty file: expected at least one term")
    return _construct(lambda prefix: Hamiltonian(tuple(prefix)), terms, numbers)
