"""Bounded unfolding: the product of arena states with saturated resource
vectors, plus the absorbing underflow sink.

Only the fraction reachable from (initial, 0, ..., 0) is materialized; the
full product is never allocated. Its states are numbered once, in the
order the breadth-first search finds them, and every later layer reads
successors and owners by those numbers.
The same loop unfolds the arena's product with objective automata
(`Product`, after Vardi and Wolper, LICS 1986): the arena is the product
with none.
"""

from __future__ import annotations

from math import prod
from operator import add, floordiv
from typing import NamedTuple, Optional, Sequence, Union

from . import arena as arena_mod
from . import ltl
from .arena import Arena, History, RESERVED_ATOM
from .errors import BudgetExceededError, DocumentSemanticError, UnderflowError


class _BotState:
    """Singleton identity of the underflow sink."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOT"


BOT = _BotState()

UState = Union[tuple[str, tuple[int, ...]], _BotState]

DEFAULT_STATE_BUDGET = 10**7


def render_ustate(us: UState) -> str:
    if us is BOT:
        return "BOT"
    s, c = us
    return f"{s}@{','.join(str(v) for v in c)}"


def parse_ustate(text: str) -> UState:
    if text == "BOT":
        return BOT
    if "@" not in text:
        raise DocumentSemanticError(f"bad unfolded state id {text!r}")
    s, _, vec = text.rpartition("@")
    try:
        c = tuple(int(v) for v in vec.split(","))
    except ValueError:
        raise DocumentSemanticError(f"bad unfolded state id {text!r}") from None
    return (s, c)


class UnfoldedArena(NamedTuple):
    """The reachable unfolding, numbered: id k names `states[k]`, node
    `at[k]` of `graph` with credit `states[k][1]`, in the order `unfold`
    finds them from the initial one, 0, with the sink last, and `succ` and
    `owner` are lists over the ids."""

    base: Arena
    bounds: tuple[int, ...]
    states: tuple[UState, ...]
    succ: list[list[int]]  # in `step` order
    owner: list[int]  # the sink's is fixed at 1
    clipped: bool = False  # some reachable step saturated a resource
    graph: Optional[Product] = None
    at: Optional[list[int]] = None  # without the sink

    def system_objective(self) -> ltl.Formula:
        return ltl.And(self.base.system_objective, AVOID_BOT)

    def letters(self) -> list[frozenset[str]]:
        """Each id's letter, read off its base state: `{bot}` at the sink."""
        return [frozenset({RESERVED_ATOM}) if s is BOT else self.base.labels[s[0]]
                for s in self.states]


class Product(NamedTuple):
    """The arena in product with `components` (`zerosum.Tracker`s, a system
    component first, whose `step` lists states): node p is arena state
    `state[p]` with each component's state after its letter, `qs[p]`,
    numbered in the order `product` finds them from the initial node, 0:
    as the arena (`is_arena`) when each state has one node, since the
    search then takes the arena's steps. A failed step is the edge ~e to
    `failures[e]`, (target, error), which `unfold` raises where a reached
    node takes it without underflow."""

    base: Arena
    components: tuple
    state: list[str]
    qs: list[tuple]
    succ: list[list[int]]
    failures: list[tuple[str, Exception]]

    @property
    def is_arena(self) -> bool:
        """One node per arena state it reaches and no failed step: the arena."""
        return not self.failures and len(set(self.state)) == len(self.state)


def product(a: Arena, trackers: Sequence, system=None) -> Product:
    """The part of `a` in product with `system`, if given, and `trackers`
    reachable from its initial state, numbered breadth-first. Tuples of
    component states are interned, and each one's transition on a letter
    is computed once."""
    components = tuple(trackers) if system is None else (system, *trackers)
    labels, steps, skip = a.labels, [t.step for t in trackers], system is not None
    qids: dict = {}  # component states -> their index
    qstates: list = []  # index -> component states
    table: list = []  # index -> letter -> the indices after it, or the error of a step

    def after(j, y):
        qs = qstates[j]
        try:
            rest = tuple([step(q, y) for step, q in zip(steps, qs[skip:])])
            heads = [(q, *rest) for q in system.step(qs[0], y)] if skip else [rest]
        except DocumentSemanticError as e:
            table[j][y] = e
            return e
        for h in heads:
            if h not in qids:
                qids[h] = len(qstates)
                qstates.append(h)
                table.append({})
        table[j][y] = nxt = [qids[h] for h in heads]
        return nxt

    qstates.append(tuple(c.initial for c in components))
    table.append({})
    first = after(0, labels[a.initial])
    if first.__class__ is not list:
        raise first
    nodes = [(a.initial, first[0])]  # one: a system component reads a first letter alone
    ids = {nodes[0]: 0}
    succ, failures = [], []
    for s, j in nodes:  # breadth-first: the list grows while it is read
        out = []
        for t in a.succ[s]:
            nxt = table[j].get(labels[t])
            if nxt is None:
                nxt = after(j, labels[t])
            if nxt.__class__ is not list:
                out.append(~len(failures))
                failures.append((t, nxt))
                continue
            for i in nxt:
                k = ids.setdefault((t, i), len(nodes))
                if k == len(nodes):
                    nodes.append((t, i))
                out.append(k)
        succ.append(out)
    return Product(a, components, [s for s, _ in nodes], [qstates[j] for _, j in nodes], succ,
                   failures)


AVOID_BOT = ltl.Always(ltl.Not(ltl.Atom(RESERVED_ATOM)))


def checked_bounds(a: Arena, bounds: Sequence[int]) -> tuple[int, ...]:
    """`bounds` as a tuple, refused unless it has one nonnegative
    capacity per resource."""
    b = tuple(bounds)
    if len(b) != a.dimensions or any(v < 0 for v in b):
        raise DocumentSemanticError(
            f"bounds must be {a.dimensions} nonnegative components, got {b}"
        )
    return b


def credit_after(c: tuple, w: tuple, bounds: tuple) -> Optional[tuple]:
    """The saturated credit after an edge of cost `w` from credit `c`, or None
    when it goes below zero."""
    c2 = tuple(map(min, map(add, c, w), bounds))
    return c2 if min(c2, default=0) >= 0 else None


def step(a: Arena, bounds: tuple[int, ...], us: UState) -> tuple[UState, ...]:
    """The successors of `us` in the unfolding under validated `bounds`, in
    `a.successors` order with BOT last."""
    if us is BOT:
        return (BOT,)
    s, c = us
    edges = a.edges
    out: list[UState] = []
    to_bot = False
    for s2 in a.successors(s):
        c2 = credit_after(c, edges[(s, s2)], bounds)
        if c2 is None:
            to_bot = True
        else:
            out.append((s2, c2))
    if to_bot:
        out.append(BOT)
    return tuple(out)


def unfold(
    g: Union[Arena, Product], bounds: Sequence[int], max_states: int = DEFAULT_STATE_BUDGET
) -> UnfoldedArena:
    """Breadth-first construction of the reachable bounded unfolding of a
    product, or of an arena (its product with nothing), as `step` reads it.
    A node (p, c) is keyed by p times the number of credits plus c in mixed
    radix over the capacities, a sum of per-component key parts, each
    computed once per digit reached: nothing grows with the capacities.
    Nodes are numbered as found, from the product's initial node, 0, and
    the sink after them all; an owner is read off its product node's. A
    failed step has a negative key."""
    g = product(g, ()) if isinstance(g, Arena) else g
    a, state = g.base, g.state
    b = checked_bounds(a, bounds)
    place = [prod(v + 1 for v in b[i + 1:]) for i in range(len(b))]
    width = prod(v + 1 for v in b)
    costs = list(dict.fromkeys(a.edges.values()))
    cost_id = {w: k for k, w in enumerate(costs)}
    cost_of = {s: {t: cost_id[a.edges[s, t]] for t in ts} for s, ts in a.succ.items()}
    failures = g.failures
    moves = [[(x * width, cs[state[x] if x >= 0 else failures[~x][0]]) for x in out]
             for cs, out in zip(map(cost_of.__getitem__, state), g.succ)]
    # parts[w][i]: component i's key part -> its key part after cost w, or
    # -width when it goes below zero, so that the sum is negative
    parts = [[_KeyParts(p, wi, v * p, width) for p, wi, v in zip(place, w, b)] for w in costs]
    credits = {0: (0,) * a.dimensions}  # credit key -> its key parts
    after: dict = {}  # credit key -> cost index -> credit key after, or < 0
    found = [0]  # the key of (the initial node, no credit)
    index = {0: 0}
    succ: list[list[int]] = []
    to_sink: list[list[int]] = []  # the lists that end at the sink, there as -1
    sink, getpart = False, _KeyParts.__getitem__
    for key in found:  # breadth-first: the list grows while it is read
        p, c = divmod(key, width)
        row = after.get(c)
        if row is None:
            row = after[c] = [None] * len(costs)
        out = []
        to_bot = False
        for base, w in moves[p]:
            c2 = row[w]
            if c2 is None:
                c2parts = tuple(map(getpart, parts[w], credits[c]))
                c2 = row[w] = sum(c2parts)
                if c2 >= 0:
                    credits[c2] = c2parts
            if c2 < 0:
                to_bot = True
                continue
            nxt = base + c2
            k = index.get(nxt)
            if k is None:
                if nxt < 0:
                    raise failures[~(nxt // width)][1]
                k = index[nxt] = len(found)
                found.append(nxt)
            out.append(k)
        if to_bot:
            out.append(-1)
            to_sink.append(out)
            sink = True
        succ.append(out)
        if len(found) + sink > max_states:
            raise BudgetExceededError(f"unfolding exceeds the state budget of {max_states}")
    n = len(found)
    for out in to_sink:
        out[-1] = n
    for c, ps in credits.items():  # key parts -> credit vector
        credits[c] = tuple(map(floordiv, ps, place))
    at = [key // width for key in found]
    states = [(state[p], credits[key % width]) for p, key in zip(at, found)]
    return UnfoldedArena(
        a, b, tuple(states) + (BOT,) * sink, succ + [[n]] * sink,
        list(map(list(map(a.owner.__getitem__, state)).__getitem__, at)) + [1] * sink,
        any(t.saturated for row in parts for t in row), g, at,
    )


class _KeyParts(dict):
    """One component's key part before a cost -> its key part after, filled
    as parts are reached: the credit `v` at `place` becomes min(v + cost,
    bound), or -width below zero. `saturated` records whether a filled
    entry exceeded the bound, which is whether some step from a reached
    credit with that cost saturated the component."""

    def __init__(self, place: int, cost: int, top: int, width: int):
        super().__init__()
        self.place, self.cost, self.top, self.width = place, cost, top, width
        self.saturated = False

    def __missing__(self, part: int) -> int:
        raw = part + self.cost * self.place
        if raw > self.top:
            self.saturated, raw = True, self.top
        self[part] = after = raw if raw >= 0 else -self.width
        return after


def lift(a: Arena, bounds: tuple[int, ...], h: History) -> list[UState]:
    """The unfolded image of a history `h` that `validate_history` accepts,
    under validated `bounds`: the one replay of a path in the bounded
    semantics. Errors at the first prefix that drives a resource component
    negative."""
    out: list[UState] = [(h[0], (0,) * a.dimensions)]
    for i, (x, y) in enumerate(zip(h, h[1:])):
        c, w = out[-1][1], a.edges[(x, y)]
        c2 = credit_after(c, w, bounds)
        if c2 is None:
            bad = min(j for j, v in enumerate(map(add, c, w)) if v < 0)
            raise UnderflowError(
                f"resource {bad + 1} goes below zero after prefix {list(h[: i + 2])}",
                prefix=tuple(h[: i + 2]),
            )
        out.append((y, c2))
    return out


def unfolded_to_arena(u: UnfoldedArena) -> Arena:
    """Render the unfolding in the ordinary arena data model (zero costs);
    used by serialization and DOT export."""
    zero = (0,) * u.base.dimensions
    names = [render_ustate(s) for s in u.states]
    return arena_mod.build_arena(
        players=u.base.players,
        dimensions=u.base.dimensions,
        states=names,
        owner=dict(zip(names, u.owner)),
        initial=names[0],
        edges={(names[k], names[j]): zero for k in range(len(names)) for j in u.succ[k]},
        atoms=sorted(u.base.atoms | {RESERVED_ATOM}),
        labels={name: sorted(labs) for name, labs in zip(names, u.letters())},
        system_objective=u.system_objective(),
        player_objectives=u.base.player_objectives,
        bounds=None,
        allow_reserved_atom=True,
    )


def to_dot(u: UnfoldedArena) -> str:
    """GraphViz rendering; state shape encodes the owning player."""
    names = [render_ustate(s) for s in u.states]
    lines = ["digraph unfolding {"]
    for k, (name, letter) in enumerate(zip(names, u.letters())):
        labs = ",".join(sorted(letter))
        label = name if not labs else f"{name}\\n{{{labs}}}"
        shape = "doublecircle" if k == 0 else "ellipse"
        lines.append(
            f'  "{name}" [label="{label}", shape={shape}, '
            f'xlabel="P{u.owner[k]}"];'
        )
    for k, name in enumerate(names):
        for j in u.succ[k]:
            lines.append(f'  "{name}" -> "{names[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
