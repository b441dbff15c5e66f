"""Bounded unfolding: the product of arena states with saturated resource
vectors, plus the absorbing underflow sink.

Only the fraction reachable from (initial, 0, ..., 0) is materialized; the
full product is never allocated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import add
from typing import Sequence, Union

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


def saturating_add(
    c: Sequence[int], w: Sequence[int], bounds: Sequence[int]
) -> tuple[int, ...]:
    """Componentwise min(c_i + w_i, B_i); results may be negative (the
    caller decides sink routing)."""
    return tuple(min(ci + wi, bi) for ci, wi, bi in zip(c, w, bounds))


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


@dataclass(frozen=True)
class UnfoldedArena:
    base: Arena
    bounds: tuple[int, ...]
    initial: UState
    states: tuple[UState, ...]  # reachable only; deterministic order
    succ: dict[UState, tuple[UState, ...]] = field(repr=False)
    clipped: bool = False  # some reachable step saturated a resource

    def owner(self, us: UState) -> int:
        if us is BOT:
            return 1  # the sink is a sink; ownership is irrelevant but fixed
        return self.base.owner[us[0]]

    def labels(self, us: UState) -> frozenset[str]:
        if us is BOT:
            return frozenset({RESERVED_ATOM})
        return self.base.labels[us[0]]

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


def step(a: Arena, bounds: tuple[int, ...], us: UState) -> tuple[tuple[UState, ...], bool]:
    """The successors of `us` in the unfolding under validated `bounds`, in
    `a.successors` order with BOT last, and whether some edge out of `us`
    saturated a resource."""
    if us is BOT:
        return (BOT,), False
    s, c = us
    out: list[UState] = []
    to_bot = clipped = False
    for s2 in a.successors(s):
        raw = tuple(map(add, c, a.edges[(s, s2)]))
        c2 = tuple(map(min, raw, bounds))
        clipped = clipped or c2 != raw
        if min(c2, default=0) >= 0:
            out.append((s2, c2))
        else:
            to_bot = True
    if to_bot:
        out.append(BOT)
    return tuple(out), clipped


def unfold(
    a: Arena, bounds: Sequence[int], max_states: int = DEFAULT_STATE_BUDGET
) -> UnfoldedArena:
    """Breadth-first construction of the reachable bounded unfolding."""
    b = checked_bounds(a, bounds)
    init: UState = (a.initial, (0,) * a.dimensions)
    succ: dict[UState, tuple[UState, ...]] = {}
    queue: deque[UState] = deque([init])
    seen: set[UState] = {init}
    clipped = False
    while queue:
        us = queue.popleft()
        out, saturated = step(a, b, us)
        succ[us] = out
        clipped = clipped or saturated
        for us2 in out:
            if us2 not in seen:
                seen.add(us2)
                if len(seen) > max_states:
                    raise BudgetExceededError(
                        f"unfolding exceeds the state budget of {max_states}"
                    )
                queue.append(us2)
    # natural tuple order, the sink last: successors are already in it
    states = sorted(seen - {BOT})
    if BOT in seen:
        states.append(BOT)
    return UnfoldedArena(
        base=a,
        bounds=b,
        initial=init,
        states=tuple(states),
        succ=succ,
        clipped=clipped,
    )


def lift(a: Arena, bounds: tuple[int, ...], h: History) -> list[UState]:
    """The unfolded image of a history `h` that `validate_history` accepts,
    under validated `bounds`: the one replay of a path in the bounded
    semantics. Errors at the first prefix that drives a resource component
    negative."""
    c = (0,) * a.dimensions
    out: list[UState] = [(h[0], c)]
    for i, (x, y) in enumerate(zip(h, h[1:])):
        c = saturating_add(c, a.edges[(x, y)], bounds)
        if any(v < 0 for v in c):
            bad = min(j for j, v in enumerate(c) if v < 0)
            raise UnderflowError(
                f"resource {bad + 1} goes below zero after prefix {list(h[: i + 2])}",
                prefix=tuple(h[: i + 2]),
            )
        out.append((y, c))
    return out


def unfolded_to_arena(u: UnfoldedArena) -> Arena:
    """Render the unfolding in the ordinary arena data model (zero costs);
    used by serialization and DOT export."""
    zero = (0,) * u.base.dimensions
    edges = {
        (render_ustate(x), render_ustate(y)): zero
        for x in u.states
        for y in u.succ[x]
    }
    return arena_mod.build_arena(
        players=u.base.players,
        dimensions=u.base.dimensions,
        states=[render_ustate(s) for s in u.states],
        owner={render_ustate(s): u.owner(s) for s in u.states},
        initial=render_ustate(u.initial),
        edges=edges,
        atoms=sorted(u.base.atoms | {RESERVED_ATOM}),
        labels={render_ustate(s): sorted(u.labels(s)) for s in u.states},
        system_objective=u.system_objective(),
        player_objectives=u.base.player_objectives,
        bounds=None,
        allow_reserved_atom=True,
    )


def to_dot(u: UnfoldedArena) -> str:
    """GraphViz rendering; state shape encodes the owning player."""
    lines = ["digraph unfolding {"]
    for s in u.states:
        name = render_ustate(s)
        labs = ",".join(sorted(u.labels(s)))
        label = name if not labs else f"{name}\\n{{{labs}}}"
        shape = "doublecircle" if s == u.initial else "ellipse"
        lines.append(
            f'  "{name}" [label="{label}", shape={shape}, '
            f'xlabel="P{u.owner(s)}"];'
        )
    for s in u.states:
        for t in u.succ[s]:
            lines.append(f'  "{render_ustate(s)}" -> "{render_ustate(t)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
