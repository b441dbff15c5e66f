"""Exception hierarchy shared by all modules, the JSON decoding step and
shape checks every document reader uses, and the one JSON encoder."""

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
    """A size budget was exhausted before an answer was found: the state
    budget of `unfold` or of the certificate checker, or the cap on an LTL
    formula's closure."""


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


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for k, v in pairs:
        if k in doc:
            raise DocumentSyntaxError(f"repeated key {k!r}")
        doc[k] = v
    return doc


def load_json(text: str):
    """Decode a document; bad JSON (with its line and column), nesting too
    deep, an over-long integer or a repeated key is a DocumentSyntaxError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise DocumentSyntaxError("document nested too deeply to decode") from None
    except ValueError:  # the limit on integer string conversion
        raise DocumentSyntaxError("integer too long to decode") from None


def dump_json(doc) -> str:
    """Every document's text: indented by 2, non-ASCII written raw, then a newline."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def is_int(v) -> bool:
    """A JSON integer: `true` and `2.0` are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def natural(text: str, what: str) -> int:
    """The natural number `text` writes as `str` does, in at most 640 digits,
    which `int` reads under any limit. Other text, though `int` reads "03",
    "+3", " 3", "1_0" and "٣", is a DocumentSemanticError naming `what`: in
    every document and option, a number has one spelling."""
    if not (text.isascii() and text.isdigit() and len(text) <= 640
            and (text[0] != "0" or text == "0")):
        raise DocumentSemanticError(f"{what} must be a natural number in ASCII digits, "
                                    f"with no sign or leading zero, got {text!r}")
    return int(text)


_KINDS = {int: ("an integer", "integers"), str: ("a string", "strings"),
          list: ("a list", "lists"), dict: ("an object", "objects")}


def _has(v, kind) -> bool:
    if kind.__class__ is not list:
        return isinstance(v, kind) and v.__class__ is not bool
    if not isinstance(v, list):
        return False
    inner = kind[0]
    if inner.__class__ is list:
        for x in v:
            if not _has(x, inner):
                return False
        return True
    # a flat kind: one loop; `bool` only ever passes `isinstance(x, int)`
    for x in v:
        if not isinstance(x, inner) or x.__class__ is bool:
            return False
    return True


def _name(kind, plural=False) -> str:
    if isinstance(kind, list):
        return ("lists of " if plural else "a list of ") + _name(kind[0], plural=True)
    return _KINDS[kind][plural]


def expect(v, kind, what: str):
    """`v` if it has the JSON shape `kind`, else a DocumentSemanticError
    naming `what`. A kind is `int` (a JSON integer), `str`, `list`, `dict`,
    or `[k]` for a list of values of kind `k`; a string is never read as a
    list of its characters, and `bool` is never an integer. The message
    names `what` and shows the whole value, whichever element is wrong."""
    if not _has(v, kind):
        raise DocumentSemanticError(f"{what} must be {_name(kind)}, got {v!r}")
    return v


_REQUIRED = object()


def member(doc, key: str, kind, what: str, default=_REQUIRED):
    """`doc[key]`, checked by `expect`, where `doc` must be an object. An
    absent member reads as `default` and is an error without one; with the
    default `None`, a `null` member reads as absent too.

    The document readers read their members in document order, so the
    first defect of a document is the one reported. A reader that checks
    members in bulk first (`arena.parse_arena`) calls `member` only once a
    check failed, in the same order, so the first defect and its message
    are unchanged."""
    if not isinstance(doc, dict):
        raise DocumentSemanticError(f"{what} must be read from an object, got {doc!r}")
    v = doc.get(key, default)
    if v is _REQUIRED:
        raise DocumentSemanticError(f"missing {what}")
    return v if v is default else expect(v, kind, what)
