"""LTL formulas: parsing, evaluation on ultimately periodic words, Büchi
translation by a tableau built on the fly from its initial states, and
syntactic fragment classification.

Concrete syntax: atoms are identifiers; operators ``!``, ``&``, ``|``,
``X``, ``U``, ``F``, ``G``; parentheses. Precedence, tightest first:
unary (``!``, ``X``, ``F``, ``G``), then ``U`` (right-associative),
then ``&``, then ``|``. ``F``/``G`` are sugar (F phi = true U phi,
G phi = !F !phi). The dual operator R exists only internally, for
negation normal form. A parsed formula nests at most MAX_NESTING levels.
"""

import re
from functools import cache
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .errors import BudgetExceededError, LtlSyntaxError, UnknownAtomError


# ---------------------------------------------------------------------------
# Syntax trees


class Formula(tuple):
    """A syntax-tree node: the tuple of its class and its fields, the
    fields named by the `fields` its class declares. Equality and hash are
    the tuple's, so a node equals only a node of its own class with equal
    fields (`F p` is not `G p`, nor the bare tuple `(p,)`)."""

    __slots__ = ()

    def __init_subclass__(cls, fields: str):
        super().__init_subclass__()
        cls._fields = tuple(fields.split())
        for k, name in enumerate(cls._fields, start=1):
            setattr(cls, name, property(itemgetter(k)))

    def __new__(cls, *fields):
        return tuple.__new__(cls, (cls, *fields))

    def __getnewargs__(self):
        return self[1:]

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self[1:]))
        return f"{type(self).__name__}({fields})"

    def __str__(self):
        return formula_to_str(self)


class Lit(Formula, fields="value"):
    __slots__ = ()


class Atom(Formula, fields="name"):
    __slots__ = ()


class Not(Formula, fields="sub"):
    __slots__ = ()


class And(Formula, fields="left right"):
    __slots__ = ()


class Or(Formula, fields="left right"):
    __slots__ = ()


class Next(Formula, fields="sub"):
    __slots__ = ()


class Until(Formula, fields="left right"):
    __slots__ = ()


class Release(Formula, fields="left right"):
    # Internal only: produced by nnf(), not accepted by the parser.
    __slots__ = ()


class Eventually(Formula, fields="sub"):
    __slots__ = ()


class Always(Formula, fields="sub"):
    __slots__ = ()


TRUE = Lit(True)
FALSE = Lit(False)


def atoms_of(phi: Formula) -> frozenset[str]:
    out: set[str] = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            out.add(f.name)
        stack.extend(_children(f))
    return frozenset(out)


def _children(f: Formula) -> tuple[Formula, ...]:
    # an operator node is its class followed by its operands
    return () if isinstance(f, (Lit, Atom)) else f[1:]


def is_temporal_free(phi: Formula) -> bool:
    temporal = (Next, Until, Release, Eventually, Always)
    return not isinstance(phi, temporal) and all(map(is_temporal_free, _children(phi)))


def eval_bool(phi: Formula, letter: frozenset[str] | set[str]) -> bool:
    """Evaluate a temporal-operator-free formula on one atom set."""
    if isinstance(phi, Lit):
        return phi.value
    if isinstance(phi, Atom):
        return phi.name in letter
    if isinstance(phi, Not):
        return not eval_bool(phi.sub, letter)
    if isinstance(phi, And):
        return eval_bool(phi.left, letter) and eval_bool(phi.right, letter)
    if isinstance(phi, Or):
        return eval_bool(phi.left, letter) or eval_bool(phi.right, letter)
    raise ValueError(f"not a boolean formula: {phi}")


# ---------------------------------------------------------------------------
# Concrete syntax


_SYMBOL = {
    Not: "!", Next: "X", Eventually: "F", Always: "G", And: "&", Or: "|", Until: "U", Release: "R"
}


def formula_to_str(phi: Formula) -> str:
    """Canonical, fully parenthesized rendering; parses back to the same tree."""
    if isinstance(phi, Lit):
        return "true" if phi.value else "false"
    if isinstance(phi, Atom):
        return phi.name
    symbol = _SYMBOL.get(type(phi))
    if symbol is None:
        raise TypeError(f"unknown node {phi!r}")
    parts = [formula_to_str(g) for g in _children(phi)]
    parts.insert(len(parts) - 1, symbol)  # prefix to one operand, infix to two
    return f"({' '.join(parts)})"


_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[!&|()])")

_UNARY = {"!": Not, "X": Next, "F": Eventually, "G": Always}

# Every token but these is an atom's name.
_KEYWORDS = {*_UNARY, "U", "&", "|", "(", ")", "true", "false"}

# Deepest nesting parse_ltl accepts, counted both in the text (operators and
# parentheses the parser descends into) and in the tree it returns, so that
# parsing and every recursive walk of a formula stay far below Python's
# recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens: list[tuple[Optional[str], int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                break
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        rest = text[pos:].strip()
        if rest:
            raise LtlSyntaxError(f"unexpected character {rest[0]!r}", text.index(rest[0], pos))
        self.tokens.append((None, len(text)))  # the end of input
        self.i = 0
        self.depth = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def take(self) -> None:
        self.i += 1

    def nested(self, parse) -> Formula:
        if self.depth == MAX_NESTING:
            raise LtlSyntaxError(f"formula nested deeper than {MAX_NESTING} levels", self.pos())
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

    def parse(self) -> Formula:
        f = self.parse_or()
        if self.peek() is not None:
            raise LtlSyntaxError(f"trailing input {self.peek()!r}", self.pos())
        return f

    def chain(self, op: str, node, operand) -> Formula:
        f = operand()
        while self.peek() == op:
            self.take()
            f = node(f, operand())
        return f

    def parse_or(self) -> Formula:
        return self.chain("|", Or, self.parse_and)

    def parse_and(self) -> Formula:
        return self.chain("&", And, self.parse_until)

    def parse_until(self) -> Formula:
        f = self.parse_unary()
        if self.peek() == "U":
            self.take()
            return Until(f, self.nested(self.parse_until))  # right-associative
        return f

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise LtlSyntaxError("unexpected end of input", self.pos())
        if tok in _UNARY:
            self.take()
            return _UNARY[tok](self.nested(self.parse_unary))
        if tok == "(":
            self.take()
            f = self.nested(self.parse_or)
            if self.peek() != ")":
                raise LtlSyntaxError("expected ')'", self.pos())
            self.take()
            return f
        if tok in ("true", "false"):
            self.take()
            return Lit(tok == "true")
        if tok not in _KEYWORDS:
            self.take()
            return Atom(tok)
        raise LtlSyntaxError(f"unexpected token {tok!r}", self.pos())


def parse_ltl(text: str) -> Formula:
    f = _Parser(text).parse()
    # `&` and `|` chains nest to the left without the parser descending
    stack = [(f, 0)]
    while stack:
        g, level = stack.pop()
        if level > MAX_NESTING:
            raise LtlSyntaxError(f"formula nested deeper than {MAX_NESTING} levels", 0)
        stack.extend((h, level + 1) for h in _children(g))
    return f


# ---------------------------------------------------------------------------
# Negation normal form


def nnf(phi: Formula) -> Formula:
    return _nnf(phi, positive=True)


# Each operator's dual: !(a op b) is (!a dual !b), and !X a is X !a.
_DUAL = {And: Or, Or: And, Next: Next, Until: Release, Release: Until}


def _nnf(phi: Formula, positive: bool) -> Formula:
    if isinstance(phi, Lit):
        return Lit(phi.value == positive)
    if isinstance(phi, Atom):
        return phi if positive else Not(phi)
    if isinstance(phi, Not):
        return _nnf(phi.sub, not positive)
    if isinstance(phi, Eventually):
        phi = Until(TRUE, phi.sub)
    elif isinstance(phi, Always):
        phi = Release(FALSE, phi.sub)
    op = type(phi)
    if op not in _DUAL:
        raise TypeError(f"unknown node {phi!r}")
    return (op if positive else _DUAL[op])(*[_nnf(g, positive) for g in _children(phi)])


# ---------------------------------------------------------------------------
# Evaluation on ultimately periodic words


def eval_on_lasso(
    phi: Formula,
    stem: Iterable[frozenset[str] | set[str]],
    loop: Iterable[frozenset[str] | set[str]],
    atoms: Optional[Iterable[str]] = None,
) -> bool:
    """Decide stem . loop^omega |= phi.

    The word is given as label sets per position. When ``atoms`` is
    supplied, formula atoms outside it raise UnknownAtomError.

    Each subformula's set of positions is one int, bit i for position i,
    and each operator is a few word-wide int operations on those ints; the
    successor of the last position is the loop head. `U` and `F` grow
    their least fixpoint from no position, `R` and `G` shrink their
    greatest from every position, each by at least one position a round,
    so a temporal operator takes at most one round per position and one
    more that repeats.
    """
    stem = [frozenset(x) for x in stem]
    word = stem + [frozenset(x) for x in loop]
    nloop = len(word) - len(stem)
    if nloop <= 0:
        raise ValueError("loop must be nonempty")
    if atoms is not None:
        alphabet = frozenset(atoms)
        missing = atoms_of(phi) - alphabet
        if missing:
            raise UnknownAtomError(f"unknown atom(s): {', '.join(sorted(missing))}")

    last = len(word) - 1
    back = len(stem)  # successor of the last position
    full = (1 << len(word)) - 1

    def nxt(s: int) -> int:
        # the positions whose successor is in s
        return s >> 1 | (s >> back & 1) << last

    def mask(f: Formula) -> int:
        if isinstance(f, Lit):
            r = full if f.value else 0
        elif isinstance(f, Atom):
            r = int("".join("1" if f.name in x else "0" for x in reversed(word)), 2)
        elif isinstance(f, Not):
            r = full ^ mask(f.sub)
        elif isinstance(f, And):
            r = mask(f.left) & mask(f.right)
        elif isinstance(f, Or):
            r = mask(f.left) | mask(f.right)
        elif isinstance(f, Next):
            r = nxt(mask(f.sub))
        elif isinstance(f, (Until, Eventually)):
            a, b = (mask(f.left), mask(f.right)) if isinstance(f, Until) else (full, mask(f.sub))
            r = 0  # a U b: least fixpoint of X = b | (a & next X)
            while (x := b | a & nxt(r)) != r:
                r = x
        elif isinstance(f, (Release, Always)):
            a, b = (mask(f.left), mask(f.right)) if isinstance(f, Release) else (0, mask(f.sub))
            r = full  # a R b: greatest fixpoint of X = b & (a | next X)
            while (x := b & (a | nxt(r))) != r:
                r = x
        else:
            raise TypeError(f"unknown node {f!r}")
        return r

    return bool(mask(phi) & 1)


# ---------------------------------------------------------------------------
# Nondeterministic Büchi automata


class NBA(NamedTuple):
    """State s reads a letter that holds every atom of its guard's first
    set and none of its second, then moves to any state of `succ[s]`."""

    n_states: int
    initial: frozenset[int]
    guards: tuple[tuple[frozenset[str], frozenset[str]], ...]  # state -> (must hold, must not)
    succ: tuple[tuple[int, ...], ...]  # state -> its successors
    accepting: frozenset[int]

    def reads(self, s: int, letter: frozenset[str]) -> bool:
        pos, neg = self.guards[s]
        return pos <= letter and not neg & letter


_CLOSURE_CAP = 20  # a state is a consistent subset of the closure: up to 2^cap


def to_nba(phi: Formula) -> NBA:
    """On-the-fly tableau translation (Gerth, Peled, Vardi and Wolper,
    1995); language equals the set of words satisfying phi.

    A state is a locally consistent subset of the closure of nnf(phi) (the
    subformulas that hold at the current position), paired with the
    degeneralization counter over its `U` members. Its guard is the letter
    of its atoms; its successors are the consistent sets that meet its
    obligations for the next position. States are built breadth-first from
    the initial ones, so only reachable states exist. Size is exponential
    in |phi| in the worst case."""
    cl = _closure(nnf(phi))
    index = {g: k for k, g in enumerate(cl)}
    kids = [[index[h] for h in _children(g)] for g in cl]
    atoms = [k for k, g in enumerate(cl) if isinstance(g, Atom)]
    untils = [k for k, g in enumerate(cl) if isinstance(g, Until)]

    def options(k: int, s: int) -> tuple[bool, ...]:
        # memberships of cl[k] that local consistency leaves to a set s
        # that already decides cl[k]'s subformulas
        g, below = cl[k], [bool(s >> i & 1) for i in kids[k]]
        if isinstance(g, Lit):
            return (g.value,)
        if isinstance(g, Not):
            return (not below[0],)
        if isinstance(g, And):
            return (all(below),)
        if isinstance(g, Or):
            return (any(below),)
        if isinstance(g, Until):  # forced by its right side, open on its left alone
            return (True,) if below[1] else (False, True) if below[0] else (False,)
        if isinstance(g, Release):  # the dual
            return (False,) if not below[1] else (True,) if below[0] else (False, True)
        return (False, True)  # Atom, Next

    def consistent(fixed: dict[int, bool]) -> list[int]:
        # every locally consistent set, as a bitmask over cl, that agrees
        # with `fixed`; each member is decided after its subformulas
        sets = [0]
        for k in range(len(cl)):
            sets = [s | v << k for s in sets for v in options(k, s) if fixed.get(k, v) == v]
        return sets

    @cache
    def successors(s: int) -> list[int]:
        # each X g fixes g; each open U or R member fixes itself
        fixed: dict[int, bool] = {}
        for k, g in enumerate(cl):
            if isinstance(g, Next):
                target = kids[k][0]
            elif isinstance(g, (Until, Release)) and len(options(k, s)) == 2:
                target = k
            else:
                continue
            if fixed.setdefault(target, bool(s >> k & 1)) != bool(s >> k & 1):
                return []
        return consistent(fixed)

    states = [(s, 0) for s in consistent({len(cl) - 1: True})]  # the root is listed last
    initial = frozenset(range(len(states)))
    number = {q: n for n, q in enumerate(states)}
    guards, succ, accepting = [], [], set()
    for n, (s, i) in enumerate(states):  # the list grows while it is read
        # the counter waits on U member untils[i]: absent, or its right side holds
        done = not untils or not s >> untils[i] & 1 or bool(s >> kids[untils[i]][1] & 1)
        if done and i == 0:
            accepting.add(n)
        after = (i + 1) % len(untils) if untils and done else i
        guards.append((frozenset(cl[k].name for k in atoms if s >> k & 1),
                       frozenset(cl[k].name for k in atoms if not s >> k & 1)))
        out = []
        for s2 in successors(s):
            q = (s2, after)
            if q not in number:
                number[q] = len(states)
                states.append(q)
            out.append(number[q])
        succ.append(tuple(out))
    return NBA(len(states), initial, tuple(guards), tuple(succ), frozenset(accepting))


def _closure(f: Formula) -> list[Formula]:
    """The distinct subformulas of f, each listed after its own; raises
    BudgetExceededError as soon as there are more than _CLOSURE_CAP."""
    seen: dict[Formula, None] = {}

    def walk(g):
        if g in seen:
            return
        for h in _children(g):
            walk(h)
        seen[g] = None
        if len(seen) > _CLOSURE_CAP:
            raise BudgetExceededError(f"formula closure has more than {_CLOSURE_CAP} members")

    walk(f)
    return list(seen)


# ---------------------------------------------------------------------------
# Fragment classification


class FragmentClass(NamedTuple):
    kind: str  # "reach" | "safe" | "buchi" | "cobuchi" | "general"
    beta: Optional[Formula] = None

    REACH = "reach"
    SAFE = "safe"
    BUCHI = "buchi"
    COBUCHI = "cobuchi"
    GENERAL = "general"


_SHAPES = {
    "F": FragmentClass.REACH,
    "G": FragmentClass.SAFE,
    "GF": FragmentClass.BUCHI,
    "FG": FragmentClass.COBUCHI,
}


def classify_fragment(phi: Formula) -> FragmentClass:
    """Syntactic classification of nnf(phi), in which F beta is `true U
    beta` and G beta is `false R beta`; sound but not complete (semantic
    equivalents of a fragment may land in General)."""
    g, shape = nnf(phi), ""
    if isinstance(g, Lit):
        # constants are position-independent: true = Safe(true), false = Safe(false)
        return FragmentClass(FragmentClass.SAFE, g)
    while len(shape) < 2:
        if isinstance(g, Until) and g.left == TRUE:
            shape += "F"
        elif isinstance(g, Release) and g.left == FALSE:
            shape += "G"
        else:
            break
        g = g.right
    kind = _SHAPES.get(shape)
    if kind is None or not is_temporal_free(g):
        return FragmentClass(FragmentClass.GENERAL)
    return FragmentClass(kind, g)
