"""Exception taxonomy shared across the package.

Circuit constructors validate eagerly, so a Circuit that exists is always
well-formed; the errors below are the only way construction can fail. Device
errors enforce the single-use handle discipline at runtime.
"""
from __future__ import annotations


class QlinError(Exception):
    """Base class for all errors raised by this package."""


# circuit construction

class CircuitError(QlinError):
    pass


class WireOutOfRange(CircuitError):
    def __init__(self, wire: int, arity: int):
        super().__init__(f"wire {wire} out of range for arity {arity}")
        self.wire = wire
        self.arity = arity


class ControlEqualsTarget(CircuitError):
    def __init__(self, wire: int):
        super().__init__(f"CNOT control and target are both wire {wire}")
        self.wire = wire


class NonFiniteAngle(CircuitError):
    def __init__(self, angle: float):
        super().__init__(f"phase angle {angle} is not finite")
        self.angle = angle


class NonRealAngle(CircuitError):
    def __init__(self, angle: object):
        super().__init__(f"phase angle of type {type(angle).__name__} is not a real number")
        self.angle = angle


class ArityMismatch(CircuitError):
    pass


class DuplicateWire(CircuitError):
    def __init__(self, wire: int):
        super().__init__(f"wire {wire} appears more than once")
        self.wire = wire


class ArityTooLarge(CircuitError):
    def __init__(self, arity: int, limit: int):
        super().__init__(f"arity {arity} exceeds the dense-matrix limit of {limit}")
        self.arity = arity
        self.limit = limit


class TooManyGates(CircuitError):
    def __init__(self, count: int, limit: int):
        super().__init__(f"{count} gates exceed the circuit builders' limit of {limit}")
        self.count = count
        self.limit = limit


class TooManyCells(CircuitError):
    def __init__(self, count: int, limit: int):
        super().__init__(f"drawing {count} cells exceeds draw's limit of {limit}")
        self.count = count
        self.limit = limit


# device / execution

class DeviceError(QlinError):
    pass


class UseAfterConsume(DeviceError):
    pass


class DuplicateHandle(DeviceError):
    pass


class DanglingQubits(DeviceError):
    def __init__(self, count: int):
        super().__init__(f"{count} qubit(s) still live when the program returned")
        self.count = count


class CapacityExceeded(DeviceError):
    def __init__(self, requested: int, limit: int):
        super().__init__(f"{requested} qubits requested but the backend is capped at {limit}")
        self.requested = requested
        self.limit = limit


# algorithms

class TooManyShots(QlinError):
    def __init__(self, count: int, limit: int):
        super().__init__(f"{count} shots exceed the limit of {limit}")
        self.count = count
        self.limit = limit


class TooManyRounds(QlinError):
    def __init__(self, count: int, limit: int):
        super().__init__(f"{count} optimiser rounds exceed the limit of {limit}")
        self.count = count
        self.limit = limit


class ParamCountMismatch(QlinError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"expected {expected} parameters, got {got}")
        self.expected = expected
        self.got = got


class AllIdentityTerm(QlinError):
    pass


class RusIterationLimit(QlinError):
    def __init__(self, limit: int):
        super().__init__(f"repeat-until-success gave up after {limit} failed rounds")
        self.limit = limit


# file parsing

class ParseError(QlinError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason
