"""Bounded unfolding: the product of arena states with saturated resource
vectors, plus the absorbing underflow sink.

Only the fraction reachable from (initial, 0, ..., 0) is materialized; the
full product is never allocated. Its states are numbered once, and every
later layer reads successors, owners and labels by those numbers.
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
    """The reachable unfolding, numbered: id k names `states[k]`, in natural
    tuple order with the sink last, and `succ`, `owner` and `labels` are
    lists over the ids."""

    base: Arena
    bounds: tuple[int, ...]
    initial: int
    states: tuple[UState, ...]
    succ: list[list[int]]  # in `step` order
    owner: list[int]  # the sink's is fixed at 1
    labels: list[frozenset[str]]
    clipped: bool = False  # some reachable step saturated a resource

    def system_objective(self) -> ltl.Formula:
        return ltl.And(self.base.system_objective, AVOID_BOT)


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


def credit_after(c: tuple, w: tuple, bounds: tuple) -> tuple[Optional[tuple], bool]:
    """The saturated credit after an edge of cost `w` from credit `c`, or None
    when it goes below zero, and whether the edge saturated a resource."""
    raw = tuple(map(add, c, w))
    c2 = tuple(map(min, raw, bounds))
    return (c2 if min(c2, default=0) >= 0 else None), c2 != raw


def step(a: Arena, bounds: tuple[int, ...], us: UState) -> tuple[tuple[UState, ...], bool]:
    """The successors of `us` in the unfolding under validated `bounds`, in
    `a.successors` order with BOT last, and whether some edge out of `us`
    saturated a resource."""
    if us is BOT:
        return (BOT,), False
    s, c = us
    edges = a.edges
    out: list[UState] = []
    to_bot = clipped = False
    for s2 in a.successors(s):
        c2, saturated = credit_after(c, edges[(s, s2)], bounds)
        clipped = clipped or saturated
        if c2 is None:
            to_bot = True
        else:
            out.append((s2, c2))
    if to_bot:
        out.append(BOT)
    return tuple(out), clipped


def unfold(
    a: Arena, bounds: Sequence[int], max_states: int = DEFAULT_STATE_BUDGET
) -> UnfoldedArena:
    """Breadth-first construction of the reachable bounded unfolding, as
    `step` reads it. A state (s, c) is keyed by one integer in its natural
    tuple order: s's place among the sorted base states, then c in mixed
    radix over the capacities, the sum of one key part per component. The
    saturating step runs once per (credit, cost) pair, as a sum of the key
    parts after each component's cost, each part computed once per digit
    reached; nothing grows with the capacities. States are numbered as
    found, the sink as -1, and renumbered at the end in key order, the sink
    last."""
    b = checked_bounds(a, bounds)
    names = sorted(a.states)
    place = [prod(v + 1 for v in b[i + 1:]) for i in range(len(b))]
    width = prod(v + 1 for v in b)
    costs = list(dict.fromkeys(a.edges.values()))
    where = {s: k * width for k, s in enumerate(names)}
    cost_id = {w: k for k, w in enumerate(costs)}
    moves = [[(where[t], cost_id[a.edges[(s, t)]]) for t in a.successors(s)] for s in names]
    # parts[w][i]: component i's key part -> its key part after cost w, or
    # -width when it goes below zero, so that the sum is negative
    parts = [[_KeyParts(p, wi, v * p, width) for p, wi, v in zip(place, w, b)] for w in costs]
    credits = {0: (0,) * a.dimensions}  # credit key -> its key parts
    after: dict = {}  # credit key * len(costs) + cost index -> credit key after, or < 0
    found = [where[a.initial]]
    index = {found[0]: 0}
    succ: list[list[int]] = []
    m, sink, getpart = len(costs), False, _KeyParts.__getitem__
    for key in found:  # breadth-first: the list grows while it is read
        s, c = divmod(key, width)
        out = []
        to_bot = False
        for base, w in moves[s]:
            c2 = after.get(c * m + w)
            if c2 is None:
                c2parts = tuple(map(getpart, parts[w], credits[c]))
                c2 = after[c * m + w] = sum(c2parts)
                if c2 >= 0:
                    credits[c2] = c2parts
            if c2 < 0:
                to_bot = True
                continue
            k = index.get(base + c2)
            if k is None:
                k = index[base + c2] = len(found)
                found.append(base + c2)
            out.append(k)
        if to_bot:
            out.append(-1)
            sink = True
        succ.append(out)
        if len(found) + sink > max_states:
            raise BudgetExceededError(f"unfolding exceeds the state budget of {max_states}")
    n = len(found)
    order = sorted(range(n), key=found.__getitem__)
    rank = [n] * (n + 1)  # rank[-1] is the sink's id
    for new, old in enumerate(order):
        rank[old] = new
    for c, ps in credits.items():  # key parts -> credit vector
        credits[c] = tuple(map(floordiv, ps, place))
    states = [(names[found[k] // width], credits[found[k] % width]) for k in order]
    return UnfoldedArena(
        a, b, rank[0], tuple(states) + (BOT,) * sink,
        [[rank[j] for j in succ[k]] for k in order] + [[n]] * sink,
        [a.owner[s] for s, _ in states] + [1] * sink,
        [a.labels[s] for s, _ in states] + [frozenset({RESERVED_ATOM})] * sink,
        any(t.saturated for row in parts for t in row),
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
        c2, _ = credit_after(c, w, bounds)
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
        initial=names[u.initial],
        edges={(names[k], names[j]): zero for k in range(len(names)) for j in u.succ[k]},
        atoms=sorted(u.base.atoms | {RESERVED_ATOM}),
        labels={name: sorted(labs) for name, labs in zip(names, u.labels)},
        system_objective=u.system_objective(),
        player_objectives=u.base.player_objectives,
        bounds=None,
        allow_reserved_atom=True,
    )


def to_dot(u: UnfoldedArena) -> str:
    """GraphViz rendering; state shape encodes the owning player."""
    names = [render_ustate(s) for s in u.states]
    lines = ["digraph unfolding {"]
    for k, name in enumerate(names):
        labs = ",".join(sorted(u.labels[k]))
        label = name if not labs else f"{name}\\n{{{labs}}}"
        shape = "doublecircle" if k == u.initial else "ellipse"
        lines.append(
            f'  "{name}" [label="{label}", shape={shape}, '
            f'xlabel="P{u.owner[k]}"];'
        )
    for k, name in enumerate(names):
        for j in u.succ[k]:
            lines.append(f'  "{name}" -> "{names[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
