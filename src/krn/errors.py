"""Exception hierarchy shared by every engine module."""


class KrnError(Exception):
    """Base class for all engine errors."""


# node / property bookkeeping

class UnknownNode(KrnError):
    pass


class UnknownProperty(KrnError):
    pass


class DuplicatePropertyName(KrnError):
    pass


class InvalidName(KrnError):
    pass


class BipartiteViolation(KrnError):
    pass


# labels

class BadLanguageTag(KrnError):
    pass


class NoLabel(KrnError):
    pass


# scripts

class ScriptParseError(KrnError):
    def __init__(self, message: str, line: int, column: int, expected: str | None = None):
        super().__init__(f"{message} at line {line}, column {column}")
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected


class ScriptRuntimeError(KrnError):
    pass


class UnboundRole(ScriptRuntimeError):
    pass


class TypeMismatch(ScriptRuntimeError):
    pass


class DivisionByZero(TypeMismatch):
    """Division by zero is treated as a type-level fault, never as infinity."""


class BudgetExhausted(ScriptRuntimeError):
    pass


class UnknownScript(KrnError):
    pass


# store

class FormatError(KrnError):
    """A `.krn` file the store cannot read or text it cannot write; line is
    None when the fault is the file as a whole rather than one of its lines."""

    def __init__(self, message: str, line: int | None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.message = message
        self.line = line


class EvictionBlocked(KrnError):
    pass


# reasoning

class BoundaryViolation(KrnError):
    pass


class AmbiguousEndpoints(KrnError):
    pass


class NotCollapsed(KrnError):
    pass


class NodeCollapsed(KrnError):
    """The node is held inside a collapsed subnet, not in the net itself."""


class UnknownConcept(KrnError):
    pass


# agent

class MalformedCondition(KrnError):
    pass


# simulation

class BatchError(KrnError):
    """Raised by batch execution; keeps the change sets that did complete."""

    def __init__(self, index: int, cause: KrnError, completed: list):
        super().__init__(f"batch failed at index {index}: {cause}")
        self.index = index
        self.cause = cause
        self.completed = completed


# command front end

class CommandError(KrnError):
    pass
