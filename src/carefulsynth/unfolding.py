"""Bounded unfolding: the product of arena states with saturated resource
vectors, plus the absorbing underflow sink.

Only the fraction reachable from (initial, 0, ..., 0) is materialized; the
full product is never allocated. Its states are numbered once, in the
order the breadth-first search finds them, and every later layer reads
successors and owners by those numbers. `unfold` steps a credit by the
sum of two columns over the arena's distinct costs, one per half of its
digits, each summed once from columns built per digit, with markers for
the steps that saturate or go below zero. A set of credits can also be
one int, bit k set when the credit of key k is in it, and an edge's
pre-image is then a few shifts and masks (`pre_image`), which the
punishment regions use.
The same loop unfolds the arena's product with objective automata
(`Product`, after Vardi and Wolper, LICS 1986): the arena is the product
with none.
"""

from collections.abc import Sequence
from math import prod
from operator import add
from typing import NamedTuple, Optional, Union

from . import ltl
from .arena import BOT, DEFAULT_STATE_BUDGET, Arena, RESERVED_ATOM, checked_bounds, render_ustate
from .errors import BudgetExceededError, DocumentSemanticError


class _States(Sequence):
    """`UnfoldedArena.states`, read-only: id k decoded from `keys[k]` as it is read, the
    sink last, with `radix[i]` credits over resources i on. It equals a tuple."""

    def __init__(self, state: list[str], keys: list[int], bounds: tuple[int, ...], sink: bool):
        self.state, self.keys, self.sink = state, keys, sink
        self.radix = [prod(v + 1 for v in bounds[i:]) for i in range(len(bounds) + 1)]

    def __len__(self):
        return len(self.keys) + self.sink

    def __getitem__(self, k):
        j = range(len(self))[k]  # an index checked and made positive, or a slice's indices
        if j.__class__ is range:
            return tuple(map(self.__getitem__, j))
        if j == len(self.keys):
            return BOT
        key, radix = self.keys[j], self.radix
        return self.state[key // radix[0]], tuple([key % q // r for q, r in zip(radix, radix[1:])])

    def __eq__(self, other):
        return isinstance(other, (tuple, _States)) and tuple(self) == tuple(other)

    def __repr__(self):
        return repr(tuple(self))


class UnfoldedArena(NamedTuple):
    """The reachable unfolding, numbered: id k names `states[k]`, node
    `at[k]` of `graph` with credit `states[k][1]`, in the order `unfold`
    finds them from the initial one, 0, with the sink last, and `succ` and
    `owner` are lists over the ids. `keys[k]` is `at[k]` times the number
    of credits plus the credit's key, its digits in mixed radix over the
    capacities, the last resource's lowest."""

    base: Arena
    bounds: tuple[int, ...]
    states: _States
    succ: list[list[int]]  # in `step` order
    owner: list[int]  # the sink's is fixed at 1
    clipped: bool = False  # some reachable step saturated a resource: a marked sum
    graph: "Optional[Product]" = None
    at: Optional[list[int]] = None  # without the sink
    keys: Optional[list[int]] = None  # without the sink

    def letters(self) -> list[frozenset[str]]:
        """Each id's letter, read off its base state: `{bot}` at the sink."""
        return [frozenset({RESERVED_ATOM}) if s is BOT else self.base.labels[s[0]]
                for s in self.states]


class Product(NamedTuple):
    """The arena in product with `components` (`certificate.Tracker`s, a system
    component first, whose `step` lists states): node p is arena state
    `state[p]` with each component's state after its letter, `qs[p]`,
    numbered in the order `product` finds them from the initial node, 0:
    as the arena when each state has one node, since the search then takes
    the arena's steps. A failed step is the edge ~e to `failures[e]`,
    (target, error), which `unfold` raises where a reached node takes it
    without underflow."""

    base: Arena
    components: tuple
    state: list[str]
    qs: list[tuple]
    succ: list[list[int]]
    failures: list[tuple[str, Exception]]


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


def pre_image_steps(w: tuple, bounds: tuple) -> list[tuple]:
    """The steps of `pre_image` for an edge of cost `w` under the
    capacities `bounds`. A credit's key has its digits in mixed radix over
    the capacities, the last resource's lowest, and a set of credits is an
    int whose bit k is set when the credit of key k is in it. There is one
    step per resource that `w` changes, (shift, keep, top, copies): a loss
    of m keeps the digits from m up, shifted up by m places; a gain of m
    keeps the digits up to b_i - m, shifted down, and copies the digit
    b_i, `top`, onto the digits b_i - m + 1 ... b_i that saturate into it."""
    out, width = [], prod(v + 1 for v in bounds)
    q = width
    for wi, top in zip(w, bounds):
        q //= top + 1  # the place of this resource's digit
        if wi:
            every = ((1 << width) - 1) // ((1 << q * (top + 1)) - 1)  # each block's lowest bit
            lo, hi = (-wi, top) if wi < 0 else (0, top - wi)
            keep = ((1 << (hi - lo + 1) * q) - 1 << lo * q) * every if lo <= hi else 0
            out.append((-wi * q, keep, ((1 << q) - 1 << top * q) * every,
                        range(0, min(wi, top + 1) * q, q)))
    return out


def pre_image(credits: int, steps: list[tuple]) -> int:
    """The credits from which an edge whose cost has the `pre_image_steps`
    `steps` leads into the set `credits` without going below zero: the set
    is mapped one resource at a time."""
    for shift, keep, top, copies in steps:
        if shift > 0:  # a loss: the credit before is `shift` keys higher
            credits = credits << shift & keep
        else:  # a gain: lower, or any digit that saturates into `top`
            high = credits & top
            credits = credits >> -shift & keep
            for c in copies:
                credits |= high >> c
    return credits


def unfold(
    g: Union[Arena, Product], bounds: Sequence[int], max_states: int = DEFAULT_STATE_BUDGET
) -> UnfoldedArena:
    """Breadth-first construction of the reachable bounded unfolding of a
    product, or of an arena (its product with nothing), as `arena.step` reads it.
    A node (p, c) is keyed by p times the number of credits plus c in mixed
    radix over the capacities. The key of the credit after an edge is the
    sum of its cost's entries in two columns over the arena's distinct
    costs, one per half of the credit's digits (the first all zeros at one
    resource), each the sum of one column per (component, digit). A credit
    keeps its pair in one dict, so a node costs one lookup and a step the
    same at any number of resources; halves and columns are built the first
    time they are reached, so nothing grows with the capacities. In a
    column, a component that saturates adds `width` and one that goes below
    zero `(d + 1) * width`, so a sum below `width` is the key itself and
    only the others are read further, to set `clipped` or to go to the
    sink. Nodes are numbered as found, from the product's initial node, 0,
    the sink after them all, and their keys kept (`UnfoldedArena.keys`),
    which `states` decodes an id at a time; an owner is read off its
    product node's. A failed step has a negative key."""
    g = product(g, ()) if isinstance(g, Arena) else g
    a, state = g.base, g.state
    b = checked_bounds(a.dimensions, bounds)
    place = [prod(v + 1 for v in b[i + 1:]) for i in range(len(b))]
    width = prod(v + 1 for v in b)
    costs = list(dict.fromkeys(a.edges.values()))
    cost_id = {w: k for k, w in enumerate(costs)}
    cost_of = {s: {t: cost_id[a.edges[s, t]] for t in ts} for s, ts in a.succ.items()}
    failures = g.failures
    moves = [[(x * width, cs[state[x] if x >= 0 else failures[~x][0]]) for x in out]
             for cs, out in zip(map(cost_of.__getitem__, state), g.succ)]
    below = (len(b) + 1) * width  # no sum of saturation marks reaches it
    columns: list[dict] = [{} for _ in b]  # component -> digit -> its part of each entry
    cut = len(b) // 2
    low = prod(v + 1 for v in b[cut:])  # a credit key is a multiple of `low` plus one below it
    highs, lows = {}, {}  # either part of a credit key -> its columns summed

    def half(table: dict, ids: range, part: int) -> list:
        """The columns of part `part`'s digits over components `ids` summed, kept in `table`."""
        total = None
        for i in ids:
            v = part // place[i] % (b[i] + 1)
            col = columns[i].get(v)
            if col is None:
                q, top = place[i], b[i]
                col = columns[i][v] = [below if t < 0 else t * q if t <= top else top * q + width
                                       for t in [v + w[i] for w in costs]]
            total = col if total is None else list(map(add, total, col))
        return table.setdefault(part, total or [0] * len(costs))

    credits: dict = {}  # credit key -> its two parts' columns summed
    found = [0]  # the key of (the initial node, no credit)
    index = {0: 0}
    succ: list[list[int]] = []
    to_sink: list[list[int]] = []  # the lists that end at the sink, there as -1
    sink = clipped = False
    for key in found:  # breadth-first: the list grows while it is read
        p, c = divmod(key, width)
        got = credits.get(c)
        if got is None:
            lo = c % low
            high = highs.get(c - lo) or half(highs, range(cut), c - lo)
            tail = lows.get(lo) or half(lows, range(cut, len(b)), lo)
            got = credits[c] = high, tail
        high, tail = got
        out = []
        to_bot = False
        for base, w in moves[p]:
            c2 = high[w] + tail[w]
            if c2 >= width:  # marked: some component saturates or goes below zero
                clipped = clipped or c2 % below >= width
                if c2 >= below:
                    to_bot = True
                    continue
                c2 %= width
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
    del credits, highs, lows, columns, index  # freed before the per-id lists are built
    at = [key // width for key in found]
    return UnfoldedArena(
        a, b, _States(state, found, b, sink), succ + [[n]] * sink,
        list(map(list(map(a.owner.__getitem__, state)).__getitem__, at)) + [1] * sink,
        clipped, g, at, found,
    )


def unfolded_to_arena(u: UnfoldedArena) -> Arena:
    """The arena's unfolding as an Arena record with zero costs, the sink
    labelled `bot` and `G !bot` added to the system objective, sorted as
    `build_arena` sorts; unchecked, since the unfolding of a valid arena is
    valid. For serialization."""
    zero = (0,) * u.base.dimensions
    names = [render_ustate(s) for s in u.states]
    succ = {name: tuple(sorted(names[j] for j in out)) for name, out in zip(names, u.succ)}
    return Arena(
        players=u.base.players,
        dimensions=u.base.dimensions,
        states=tuple(sorted(names)),
        owner=dict(zip(names, u.owner)),
        initial=names[0],
        edges={(s, t): zero for s, targets in succ.items() for t in targets},
        atoms=u.base.atoms | {RESERVED_ATOM},
        labels=dict(zip(names, u.letters())),
        system_objective=ltl.And(u.base.system_objective,
                                 ltl.Always(ltl.Not(ltl.Atom(RESERVED_ATOM)))),
        player_objectives=u.base.player_objectives,
        bounds=None,
        succ=succ,
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
