"""LTL formulas: parsing, evaluation on ultimately periodic words, Büchi
translation, and syntactic fragment classification.

Concrete syntax: atoms are identifiers; operators ``!``, ``&``, ``|``,
``X``, ``U``, ``F``, ``G``; parentheses. Precedence, tightest first:
unary (``!``, ``X``, ``F``, ``G``), then ``U`` (right-associative),
then ``&``, then ``|``. ``F``/``G`` are sugar (F phi = true U phi,
G phi = !F !phi). The dual operator R exists only internally, for
negation normal form.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BudgetExceededError, LtlSyntaxError, UnknownAtomError


# ---------------------------------------------------------------------------
# Syntax trees


class Formula:
    __slots__ = ()

    def __str__(self):
        return formula_to_str(self)


@dataclass(frozen=True)
class Lit(Formula):
    value: bool


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    sub: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    # Internal only: produced by nnf(), not accepted by the parser.
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    sub: Formula


@dataclass(frozen=True)
class Always(Formula):
    sub: Formula


TRUE = Lit(True)
FALSE = Lit(False)


def atoms_of(phi: Formula) -> frozenset[str]:
    out: set[str] = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            out.add(f.name)
        elif isinstance(f, (Not, Next, Eventually, Always)):
            stack.append(f.sub)
        elif isinstance(f, (And, Or, Until, Release)):
            stack.append(f.left)
            stack.append(f.right)
    return frozenset(out)


def is_temporal_free(phi: Formula) -> bool:
    if isinstance(phi, (Lit, Atom)):
        return True
    if isinstance(phi, Not):
        return is_temporal_free(phi.sub)
    if isinstance(phi, (And, Or)):
        return is_temporal_free(phi.left) and is_temporal_free(phi.right)
    return False


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


def formula_to_str(phi: Formula) -> str:
    """Canonical, fully parenthesized rendering; parses back to the same tree."""
    if isinstance(phi, Lit):
        return "true" if phi.value else "false"
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, Not):
        return f"(! {formula_to_str(phi.sub)})"
    if isinstance(phi, Next):
        return f"(X {formula_to_str(phi.sub)})"
    if isinstance(phi, Eventually):
        return f"(F {formula_to_str(phi.sub)})"
    if isinstance(phi, Always):
        return f"(G {formula_to_str(phi.sub)})"
    if isinstance(phi, And):
        return f"({formula_to_str(phi.left)} & {formula_to_str(phi.right)})"
    if isinstance(phi, Or):
        return f"({formula_to_str(phi.left)} | {formula_to_str(phi.right)})"
    if isinstance(phi, Until):
        return f"({formula_to_str(phi.left)} U {formula_to_str(phi.right)})"
    if isinstance(phi, Release):
        return f"({formula_to_str(phi.left)} R {formula_to_str(phi.right)})"
    raise TypeError(f"unknown node {phi!r}")


_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([!&|()]))")

_UNARY = {"X": Next, "F": Eventually, "G": Always}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                break
            tok = m.group(1) or m.group(2)
            self.tokens.append((tok, m.start(1) if m.group(1) else m.start(2)))
            pos = m.end()
        rest = text[pos:].strip()
        if rest:
            raise LtlSyntaxError(f"unexpected character {rest[0]!r}", text.index(rest[0], pos))
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise LtlSyntaxError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.parse_or()
        if self.peek() is not None:
            raise LtlSyntaxError(f"trailing input {self.peek()!r}", self.pos())
        return f

    def parse_or(self) -> Formula:
        f = self.parse_and()
        while self.peek() == "|":
            self.take()
            f = Or(f, self.parse_and())
        return f

    def parse_and(self) -> Formula:
        f = self.parse_until()
        while self.peek() == "&":
            self.take()
            f = And(f, self.parse_until())
        return f

    def parse_until(self) -> Formula:
        f = self.parse_unary()
        if self.peek() == "U":
            self.take()
            return Until(f, self.parse_until())  # right-associative
        return f

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise LtlSyntaxError("unexpected end of input", len(self.text))
        if tok == "!":
            self.take()
            return Not(self.parse_unary())
        if tok in _UNARY:
            self.take()
            return _UNARY[tok](self.parse_unary())
        if tok == "(":
            self.take()
            f = self.parse_or()
            if self.peek() != ")":
                raise LtlSyntaxError("expected ')'", self.pos())
            self.take()
            return f
        if tok == "true":
            self.take()
            return TRUE
        if tok == "false":
            self.take()
            return FALSE
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok) and tok not in ("U",):
            self.take()
            return Atom(tok)
        raise LtlSyntaxError(f"unexpected token {tok!r}", self.pos())


def parse_ltl(text: str) -> Formula:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Negation normal form


def nnf(phi: Formula) -> Formula:
    return _nnf(phi, positive=True)


def _nnf(phi: Formula, positive: bool) -> Formula:
    if isinstance(phi, Lit):
        return Lit(phi.value == positive)
    if isinstance(phi, Atom):
        return phi if positive else Not(phi)
    if isinstance(phi, Not):
        return _nnf(phi.sub, not positive)
    if isinstance(phi, And):
        l, r = _nnf(phi.left, positive), _nnf(phi.right, positive)
        return And(l, r) if positive else Or(l, r)
    if isinstance(phi, Or):
        l, r = _nnf(phi.left, positive), _nnf(phi.right, positive)
        return Or(l, r) if positive else And(l, r)
    if isinstance(phi, Next):
        return Next(_nnf(phi.sub, positive))
    if isinstance(phi, Until):
        l, r = _nnf(phi.left, positive), _nnf(phi.right, positive)
        return Until(l, r) if positive else Release(l, r)
    if isinstance(phi, Release):
        l, r = _nnf(phi.left, positive), _nnf(phi.right, positive)
        return Release(l, r) if positive else Until(l, r)
    if isinstance(phi, Eventually):
        sub = _nnf(phi.sub, positive)
        return Until(TRUE, sub) if positive else Release(FALSE, sub)
    if isinstance(phi, Always):
        sub = _nnf(phi.sub, positive)
        return Release(FALSE, sub) if positive else Until(TRUE, sub)
    raise TypeError(f"unknown node {phi!r}")


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

    n = len(word)
    back = n - nloop  # successor of the last position

    def nxt(i: int) -> int:
        return i + 1 if i + 1 < n else back

    allpos = frozenset(range(n))
    memo: dict[Formula, frozenset[int]] = {}

    def sets(f: Formula) -> frozenset[int]:
        if f in memo:
            return memo[f]
        if isinstance(f, Lit):
            r = allpos if f.value else frozenset()
        elif isinstance(f, Atom):
            r = frozenset(i for i in range(n) if f.name in word[i])
        elif isinstance(f, Not):
            r = allpos - sets(f.sub)
        elif isinstance(f, And):
            r = sets(f.left) & sets(f.right)
        elif isinstance(f, Or):
            r = sets(f.left) | sets(f.right)
        elif isinstance(f, Next):
            s = sets(f.sub)
            r = frozenset(i for i in range(n) if nxt(i) in s)
        elif isinstance(f, (Until, Eventually)):
            if isinstance(f, Until):
                a, b = sets(f.left), sets(f.right)
            else:
                a, b = allpos, sets(f.sub)
            r = _lfp(n, nxt, a, b)
        elif isinstance(f, (Release, Always)):
            if isinstance(f, Release):
                a, b = sets(f.left), sets(f.right)
            else:
                a, b = frozenset(), sets(f.sub)
            r = _gfp(n, nxt, a, b)
        else:
            raise TypeError(f"unknown node {f!r}")
        memo[f] = r
        return r

    return 0 in sets(phi)


def _lfp(n, nxt, a, b):
    # a U b: least fixpoint of X = b | (a & next X)
    x: frozenset[int] = frozenset()
    while True:
        nx = frozenset(i for i in range(n) if i in b or (i in a and nxt(i) in x))
        if nx == x:
            return x
        x = nx


def _gfp(n, nxt, a, b):
    # a R b: greatest fixpoint of X = b & (a | next X)
    x = frozenset(range(n))
    while True:
        nx = frozenset(i for i in range(n) if i in b and (i in a or nxt(i) in x))
        if nx == x:
            return x
        x = nx


# ---------------------------------------------------------------------------
# Nondeterministic Büchi automata


@dataclass(frozen=True)
class NbaTransition:
    pos: frozenset[str]  # atoms that must hold
    neg: frozenset[str]  # atoms that must not hold
    dst: int


@dataclass(frozen=True)
class NBA:
    n_states: int
    initial: frozenset[int]
    transitions: tuple[tuple[NbaTransition, ...], ...]  # indexed by source
    accepting: frozenset[int]


def guard_matches(tr: NbaTransition, letter: frozenset[str]) -> bool:
    return tr.pos <= letter and not (tr.neg & letter)


_CLOSURE_CAP = 20  # subsets are enumerated explicitly


def to_nba(phi: Formula) -> NBA:
    """Declarative tableau translation; language equals the set of words
    satisfying phi. Size is exponential in |phi| in the worst case."""
    f = nnf(phi)
    cl = _closure(f)
    if len(cl) > _CLOSURE_CAP:
        raise BudgetExceededError(
            f"formula closure has {len(cl)} members (cap {_CLOSURE_CAP})"
        )
    atom_nodes = [g for g in cl if isinstance(g, Atom)]
    untils = [g for g in cl if isinstance(g, Until)]

    states = [s for s in _subsets(cl) if _locally_consistent(s, cl)]
    index = {s: k for k, s in enumerate(states)}
    initial = frozenset(index[s] for s in states if f in s)

    def guard(s):
        p = frozenset(a.name for a in atom_nodes if a in s)
        ng = frozenset(a.name for a in atom_nodes if a not in s)
        return p, ng

    trans: list[list[NbaTransition]] = [[] for _ in states]
    for s in states:
        p, ng = guard(s)
        for s2 in states:
            if _transition_ok(s, s2, cl):
                trans[index[s]].append(NbaTransition(p, ng, index[s2]))

    acc_sets = [
        frozenset(index[s] for s in states if g not in s or g.right in s)
        for g in untils
    ]
    nba = NBA(len(states), initial, tuple(tuple(t) for t in trans), frozenset(range(len(states))))
    return _reachable_part(_degeneralize(nba, acc_sets))


def _closure(f: Formula) -> list[Formula]:
    seen: list[Formula] = []

    def walk(g):
        if g in seen:
            return
        seen.append(g)
        if isinstance(g, (Not, Next)):
            walk(g.sub)
        elif isinstance(g, (And, Or, Until, Release)):
            walk(g.left)
            walk(g.right)

    walk(f)
    return seen


def _subsets(cl):
    for r in range(len(cl) + 1):
        for combo in itertools.combinations(cl, r):
            yield frozenset(combo)


def _locally_consistent(s, cl) -> bool:
    for g in cl:
        if isinstance(g, Lit):
            if g.value != (g in s):
                return False
        elif isinstance(g, Not):
            if (g in s) == (g.sub in s):
                return False
        elif isinstance(g, And):
            if (g in s) != (g.left in s and g.right in s):
                return False
        elif isinstance(g, Or):
            if (g in s) != (g.left in s or g.right in s):
                return False
        elif isinstance(g, Until):
            if g.right in s and g not in s:
                return False
            if g in s and g.right not in s and g.left not in s:
                return False
        elif isinstance(g, Release):
            if g in s and g.right not in s:
                return False
            if g.left in s and g.right in s and g not in s:
                return False
    return True


def _transition_ok(s, s2, cl) -> bool:
    for g in cl:
        if isinstance(g, Next):
            if (g in s) != (g.sub in s2):
                return False
        elif isinstance(g, Until):
            want = g.right in s or (g.left in s and g in s2)
            if (g in s) != want:
                return False
        elif isinstance(g, Release):
            want = g.right in s and (g.left in s or g in s2)
            if (g in s) != want:
                return False
    return True


def _degeneralize(nba: NBA, acc_sets: list[frozenset[int]]) -> NBA:
    if not acc_sets:
        return nba
    m = len(acc_sets)
    if m == 1:
        return NBA(nba.n_states, nba.initial, nba.transitions, acc_sets[0])
    # counter construction: layer advances when the current layer's set is hit
    idx: dict[tuple[int, int], int] = {}
    for q in range(nba.n_states):
        for i in range(m):
            idx[(q, i)] = len(idx)
    trans: list[list[NbaTransition]] = [[] for _ in range(len(idx))]
    for q in range(nba.n_states):
        for i in range(m):
            ni = (i + 1) % m if q in acc_sets[i] else i
            for tr in nba.transitions[q]:
                trans[idx[(q, i)]].append(NbaTransition(tr.pos, tr.neg, idx[(tr.dst, ni)]))
    initial = frozenset(idx[(q, 0)] for q in nba.initial)
    accepting = frozenset(idx[(q, 0)] for q in acc_sets[0])
    return NBA(len(idx), initial, tuple(tuple(t) for t in trans), accepting)


def _reachable_part(nba: NBA) -> NBA:
    seen = set(nba.initial)
    stack = list(nba.initial)
    while stack:
        q = stack.pop()
        for tr in nba.transitions[q]:
            if tr.dst not in seen:
                seen.add(tr.dst)
                stack.append(tr.dst)
    order = sorted(seen)
    remap = {q: k for k, q in enumerate(order)}
    trans = tuple(
        tuple(NbaTransition(tr.pos, tr.neg, remap[tr.dst]) for tr in nba.transitions[q])
        for q in order
    )
    return NBA(
        len(order),
        frozenset(remap[q] for q in nba.initial),
        trans,
        frozenset(remap[q] for q in nba.accepting if q in seen),
    )


# ---------------------------------------------------------------------------
# Fragment classification


@dataclass(frozen=True)
class FragmentClass:
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
