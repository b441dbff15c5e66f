"""Exception hierarchy shared by all modules, and the JSON decoding step
and shape checks every document reader uses."""

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


_KINDS = {int: ("an integer", "integers"), str: ("a string", "strings"),
          list: ("a list", "lists"), dict: ("an object", "objects")}


def _has(v, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(v, list) and all(_has(x, kind[0]) for x in v)
    return is_int(v) if kind is int else isinstance(v, kind)


def _name(kind, plural=False) -> str:
    if isinstance(kind, list):
        return ("lists of " if plural else "a list of ") + _name(kind[0], plural=True)
    return _KINDS[kind][plural]


def expect(v, kind, what: str):
    """`v` if it has the JSON shape `kind`, else a DocumentSemanticError
    naming `what`. A kind is `int` (a JSON integer), `str`, `list`, `dict`,
    or `[k]` for a list of values of kind `k`; a string is never read as a
    list of its characters."""
    if not _has(v, kind):
        raise DocumentSemanticError(f"{what} must be {_name(kind)}, got {v!r}")
    return v


_REQUIRED = object()


def member(doc, key: str, kind, what: str, default=_REQUIRED):
    """`doc[key]`, checked by `expect`, where `doc` must be an object. An
    absent member reads as `default` and is an error without one; with the
    default `None`, a `null` member reads as absent too."""
    if not isinstance(doc, dict):
        raise DocumentSemanticError(f"{what} must be read from an object, got {doc!r}")
    v = doc.get(key, default)
    if v is _REQUIRED:
        raise DocumentSemanticError(f"missing {what}")
    return v if v is default else expect(v, kind, what)
