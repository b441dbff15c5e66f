"""Exception hierarchy shared by all modules, and the JSON decoding step
and value tests every document reader uses."""

import json


class CarefulSynthError(Exception):
    """Base class for all errors raised by this package."""


class DocumentSyntaxError(CarefulSynthError):
    """Malformed input document (JSON or LTL), with position information."""


class DocumentSemanticError(CarefulSynthError):
    """Well-formed document violating a model invariant (dangling state,
    missing successor, dimension mismatch, unknown atom, ...)."""


class LtlSyntaxError(DocumentSyntaxError):
    def __init__(self, message, position):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class UnknownAtomError(CarefulSynthError):
    """A formula references an atom outside the declared alphabet."""


class CostOverflowError(CarefulSynthError):
    """A cumulative cost left the signed 64-bit range."""


class BudgetExceededError(CarefulSynthError):
    """A configurable size budget (state count, product size, BFS
    configurations) was exhausted before an answer was found."""


class UnderflowError(CarefulSynthError):
    """Lifting a history drove some resource component below zero."""

    def __init__(self, message, prefix):
        super().__init__(message)
        self.prefix = prefix


class UnsupportedObjectiveError(CarefulSynthError):
    """The objective is outside the solvable fragments and no deterministic
    parity automaton was supplied for it."""


class MalformedProfileError(CarefulSynthError):
    """A strategy-profile certificate is structurally broken."""


def load_json(text: str):
    """Decode a document; bad JSON becomes a DocumentSyntaxError that gives
    its line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e


def is_int(v) -> bool:
    """A JSON integer: `true` and `2.0` are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def string_list(v, what: str) -> list:
    """`v` if it is a JSON list of strings: a string is not read as its
    characters."""
    if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
        raise DocumentSemanticError(f"{what} must be a list of strings, got {v!r}")
    return v
