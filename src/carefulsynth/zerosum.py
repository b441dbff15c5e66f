"""Two-player zero-sum solving on numbered parity games: attractors,
Zielonka's parity algorithm, objective trackers, and the per-player
punishment regions used by the equilibrium characterization. Every objective
becomes a deterministic parity tracker (a flag for `F`, `G`, `G F` and
`F G`, or a supplied parity automaton); a punishment region is the product
of the unfolding with that tracker, numbered and solved by Zielonka's
algorithm, or by one attractor when it is a reachability game: priorities
1 and 2 only, and no edge from priority 2 to priority 1, as in an `F`
game whose targets are absorbing and have no edge into the underflow
sink. Its nodes (k, q) pair the id of an unfolded state with the
tracker state after reading it, and are numbered so that the start node
(k, the state after k's letter alone) has id k (`GameNodes`); the winning
region and the punishment table are kept on those ids. When a fragment
tracker is closed on the arena's edges (`closed`), that product is the
unfolding itself, every id is an unfolded state's, and no node is listed.

The deviating player is the protagonist; everyone else is merged into one
adversarial coalition. Underflow sinks are absorbing and losing for the
protagonist: carefulness is imposed structurally, not as a side condition.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from itertools import chain
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Optional

from . import ltl
from .arena import Arena, RESERVED_ATOM
from .errors import (
    DocumentSemanticError, UnsupportedObjectiveError, expect, is_int, load_json, member,
)
from .ltl import FragmentClass
from .unfolding import BOT, UnfoldedArena

# The largest priority a parity game or automaton may use: Zielonka's
# recursion depth grows with it.
MAX_PRIORITY = 16


class ZeroSumGame:
    """A parity game on the ids 0..n-1, lists indexed by id: the protagonist
    wins a play iff its top priority seen infinitely often is even. The
    `succ` lists are read-only: `tracker_product` shares them with the
    unfolding it was built from, and a game that is the unfolding itself
    shares its predecessor lists `pred` too."""

    def __init__(
        self,
        succ: list[list[int]],
        is_protagonist: list[bool],
        priority: list[int],
        pred: Optional[list[list[int]]] = None,
    ):
        self.succ = succ
        self.is_protagonist = is_protagonist
        self.priority = priority
        if pred is not None:
            self.pred = pred

    @property
    def states(self) -> range:
        return range(len(self.succ))

    @cached_property
    def pred(self) -> list[list[int]]:  # built when an attractor first needs it
        return predecessors(self.succ)


def predecessors(succ: list[list[int]]) -> list[list[int]]:
    """The predecessor lists of the successor lists `succ`."""
    pred: list[list[int]] = [[] for _ in succ]
    for s, out in enumerate(succ):
        for t in out:
            pred[t].append(s)
    return pred


class WinningRegions(NamedTuple):
    protagonist: frozenset[int]
    antagonist: frozenset[int]
    protagonist_strategy: dict[int, int]  # protagonist-owned states in its region
    antagonist_strategy: dict[int, int]  # coalition-owned states in its region


# ---------------------------------------------------------------------------
# Attractor


def attractor(
    g: ZeroSumGame,
    target: Iterable[int],
    *,
    for_protagonist: bool,
    within: Optional[set[int]] = None,
) -> tuple[set[int], dict[int, int]]:
    """Least fixpoint inside `within` containing `target`: the attracting
    side's states with one successor inside, the other side's states with
    all their successors in `within` inside. The strategy picks a
    rank-decreasing edge. The frontier is seeded in id order, so ties
    between targets do not depend on hashing. Without `within` the fixpoint
    is over the whole game: no state is tested for membership, and the
    other side's state counts down from its number of successors."""
    attr = set(target) if within is None else within.intersection(target)
    succ, pred, mine = g.succ, g.pred, g.is_protagonist
    strategy: dict[int, int] = {}
    degree: dict[int, int] = {}  # successors in `within` not yet attracted
    frontier = sorted(attr)
    while frontier:
        new_frontier = []
        for t in frontier:
            for s in pred[t]:
                if s in attr or within is not None and s not in within:
                    continue
                if mine[s] == for_protagonist:
                    attr.add(s)
                    strategy[s] = t
                    new_frontier.append(s)
                    continue
                left = degree.get(s)
                if left is None:
                    if within is None:
                        left = len(succ[s])
                    else:
                        left = 0
                        for x in succ[s]:
                            if x in within:
                                left += 1
                degree[s] = left - 1
                if left == 1:
                    attr.add(s)
                    new_frontier.append(s)
        frontier = new_frontier
    return attr, strategy


def _escape_strategy(g, region, owned_side):
    """For `owned_side`-owned states inside `region` (which is closed for
    that side), pick a successor staying in `region`."""
    succ, mine, out = g.succ, g.is_protagonist, {}
    for s in region:
        if mine[s] == owned_side:
            for t in succ[s]:
                if t in region:
                    out[s] = t
                    break
    return out


# ---------------------------------------------------------------------------
# Parity (Zielonka)


def solve_parity(g: ZeroSumGame) -> WinningRegions:
    """Zielonka's algorithm on the whole game."""
    top = max(g.priority, default=0)
    if top > MAX_PRIORITY:
        raise DocumentSemanticError(
            f"priority {top} exceeds the configured bound {MAX_PRIORITY}"
        )
    w0, s0, w1, s1 = _zielonka(g, set(g.states))
    return WinningRegions(frozenset(w0), frozenset(w1), s0, s1)


def _zielonka(g: ZeroSumGame, domain: set[int]):
    """Solve the subgame on `domain`, a set of states that each keep a
    successor inside. Returns (protagonist region, its strategy, coalition
    region, its strategy). Recursion drops the top priority each time, so
    its depth stays at most MAX_PRIORITY + 1; the regions the opponent of
    the top priority's owner wins are peeled off in a loop. The loop stops
    once a peel leaves exactly the attractor `a_region` of the top: the next
    round would compute the same attractor and strategy there and solve an
    empty subgame, so the regions and strategies are those it would
    return, with no strategy from that subgame."""
    if not domain:
        return set(), {}, set(), {}
    priority = g.priority
    present = {priority[s] for s in domain}
    p = max(present)
    j_is_pro = p % 2 == 0
    if all(q % 2 == p % 2 for q in present):
        # every play inside is won by the owner of p's parity
        wj, sj, wo, so = domain, _escape_strategy(g, domain, j_is_pro), set(), {}
    else:
        wo, so = set(), {}
        while True:
            top = {s for s in domain if priority[s] == p}
            a_region, tau = attractor(g, top, for_protagonist=j_is_pro, within=domain)
            w0p, s0p, w1p, s1p = _zielonka(g, domain - a_region)
            sjp, wop, sop = (s0p, w1p, s1p) if j_is_pro else (s1p, w0p, s0p)
            if not wop:
                break
            b_region, tau2 = attractor(g, wop, for_protagonist=not j_is_pro, within=domain)
            wo |= b_region
            so.update(sop)
            so.update(tau2)
            domain = domain - b_region
            if domain == a_region:  # the next round would repeat this one's attractor
                sjp = {}
                break
        wj = domain
        sj = dict(sjp)
        sj.update(tau)
        for s in top:
            if g.is_protagonist[s] == j_is_pro and s not in sj:
                sj[s] = next(t for t in g.succ[s] if t in domain)
    if j_is_pro:
        return wj, sj, wo, so
    return wo, so, wj, sj


# ---------------------------------------------------------------------------
# Deterministic parity automata (user-supplied, for general-LTL objectives)


class DpaTransition(NamedTuple):
    src: str
    pos: frozenset[str]
    neg: frozenset[str]
    dst: str


class ParityAutomaton(NamedTuple):
    states: tuple[str, ...]
    initial: str
    priority: Mapping[str, int]
    transitions: tuple[DpaTransition, ...]


def parse_dpa(text: str) -> ParityAutomaton:
    doc = expect(load_json(text), dict, "parity automaton document")
    states = tuple(member(doc, "states", [str], "states"))
    initial = member(doc, "initial", str, "initial state")
    priority = member(doc, "priorities", dict, "priorities")
    transitions = tuple(
        DpaTransition(
            member(t, "src", str, "transition source"),
            frozenset(member(t, "pos", [str], "pos", [])),
            frozenset(member(t, "neg", [str], "neg", [])),
            member(t, "dst", str, "transition target"),
        )
        for t in member(doc, "transitions", [dict], "transitions")
    )
    if initial not in states:
        raise DocumentSemanticError(f"initial state {initial!r} unknown")
    if any("|" in q for q in states):
        # a punishment-table key ends in |q; the checker splits at the last |
        raise DocumentSemanticError(f"state names must not contain '|', got {states!r}")
    if not all(is_int(p) and 0 <= p <= MAX_PRIORITY for p in priority.values()):
        raise DocumentSemanticError(
            f"priorities must be integers from 0 to {MAX_PRIORITY}, got {priority!r}"
        )
    if set(priority) != set(states):
        raise DocumentSemanticError("priority map must cover exactly the states")
    for t in transitions:
        if t.src not in states or t.dst not in states:
            raise DocumentSemanticError(f"dangling transition {t}")
    return ParityAutomaton(states, initial, priority, transitions)


def dpa_step(dpa: ParityAutomaton, q: str, letter: frozenset[str]) -> str:
    matches = [
        t.dst
        for t in dpa.transitions
        if t.src == q and t.pos <= letter and not (t.neg & letter)
    ]
    if not matches:
        raise DocumentSemanticError(
            f"parity automaton has no transition from {q!r} on {sorted(letter)}"
        )
    if len(set(matches)) > 1:
        raise DocumentSemanticError(
            f"parity automaton is nondeterministic at {q!r} on {sorted(letter)}"
        )
    return matches[0]


# ---------------------------------------------------------------------------
# Objective trackers


class Tracker(NamedTuple):
    """A deterministic parity automaton over letters: a run reads a word
    from `initial` through `step(q, letter)` and is won iff the maximum
    `priority` of its states seen infinitely often is even. Pairing each
    position with the state before its letter or after it shifts the run by
    one and does not change that maximum. `fragment` marks a fragment
    objective's flag tracker, whose `step` reads any letter; a supplied
    automaton need only be complete over the letters its runs meet."""

    initial: Hashable
    step: Callable[[Hashable, frozenset], Hashable]
    priority: Callable[[Hashable], int]
    fragment: bool = False


def objective_tracker(
    objective: ltl.Formula, dpa: Optional[ParityAutomaton] = None
) -> Tracker:
    """A supplied parity automaton as given. A fragment objective's state is
    one flag about beta: seen (F), failed (G), held at the last letter (G F,
    F G)."""
    if dpa is not None:
        return Tracker(dpa.initial, partial(dpa_step, dpa), dpa.priority.__getitem__)
    frag = ltl.classify_fragment(objective)
    if frag.kind == FragmentClass.GENERAL:
        raise UnsupportedObjectiveError(
            f"objective {objective} is outside the solvable fragments; "
            "supply a deterministic parity automaton"
        )
    holds = cache(partial(ltl.eval_bool, frag.beta))
    if frag.kind == FragmentClass.REACH:
        step, priority = (lambda seen, x: seen or holds(x)), (lambda seen: 2 if seen else 1)
    elif frag.kind == FragmentClass.SAFE:
        step, priority = (lambda bad, x: bad or not holds(x)), (lambda bad: 1 if bad else 2)
    else:
        good = 2 if frag.kind == FragmentClass.BUCHI else 0
        step, priority = (lambda _, x: holds(x)), (lambda held: good if held else 1)
    return Tracker(False, step, priority, fragment=True)


def closed(a: Arena, tracker: Tracker, sink: bool) -> bool:
    """Whether `tracker` is closed on the edges of arena `a`: for every edge
    (x, y), reading y's letter from the state after x's letter alone gives
    the state after y's letter alone; with `sink`, the same holds on every
    edge into the underflow sink, from each state with an edge of negative
    cost, and on the sink's self-loop. In the unfolding's product with a
    closed tracker, every node reached from the nodes (k, the state after
    k's letter alone) is one of them, so the product is the unfolding
    itself. Only a fragment tracker is tested, because the test steps it
    on letter pairs that the unfolding may never meet."""
    if not tracker.fragment:
        return False
    step, labels = tracker.step, a.labels
    start = {x: step(tracker.initial, x) for x in dict.fromkeys(labels.values())}
    if any(step(start[labels[x]], labels[y]) != start[labels[y]] for x, y in a.edges):
        return False
    if not sink:
        return True
    bot = frozenset({RESERVED_ATOM})
    q = step(tracker.initial, bot)
    return step(q, bot) == q and all(
        step(start[labels[x]], bot) == q for (x, _), w in a.edges.items() if min(w, default=0) < 0
    )


class GameNodes:
    """The nodes (k, q) of a punishment game by id, q the tracker state
    after reading unfolded state k: the start node (k, the state after k's
    letter alone, `start[labels[k]]`) is id k, and the nodes past the start
    nodes, from id len(labels) on, are listed in `extra` and looked up in
    `ids`. The start nodes are never listed, so a closed game lists no
    node; `nodes[j]` reads node j and `nodes.id(k, q)` its id."""

    __slots__ = ("labels", "start", "extra", "ids")

    def __init__(self, labels: list, start: dict, extra: list, ids: dict):
        self.labels, self.start, self.extra, self.ids = labels, start, extra, ids

    def __len__(self) -> int:
        return len(self.labels) + len(self.extra)

    def __getitem__(self, j: int) -> tuple:
        n = len(self.labels)
        return (j, self.start[self.labels[j]]) if j < n else self.extra[j - n]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def id(self, k: int, q) -> Optional[int]:
        """The id of node (k, q), or None when the game has no such node."""
        return k if q == self.start[self.labels[k]] else self.ids.get((k, q))


def tracker_product(
    u: UnfoldedArena, player: int, tracker: Tracker, pred: Optional[list] = None
) -> tuple[GameNodes, ZeroSumGame]:
    """`player`'s punishment game: the part of the unfolding x tracker
    reachable from every state's start node (k, the tracker state after
    reading state k), numbered breadth-first from the start nodes in id
    order, so start node k has id k. Returns the nodes by id and the game
    on the ids. The sink gets priority 1, so carefulness stays losing.

    When the tracker is closed on the base arena's edges and the sink's
    (see `closed`), the start nodes are all the nodes: the game's `succ`
    is `u.succ` itself, each node's priority is read once per letter, no
    node is listed, and the game's predecessor lists are `pred`, a list
    the caller keeps for `u`, filled here if it is empty, so that every
    closed game on one unfolding shares one (without `pred`, the game
    builds its own). Otherwise the game is built node by node: a node
    carries the tracker state after its own letter, so a tracker whose
    state is the current letter's verdict (G F, F G) adds no nodes. Where
    every successor of a node is a start node, its successor list is
    `u.succ`'s own list, shared and never written; only a node whose
    tracker state leads elsewhere gets a list of its own, and only nodes
    past the start nodes are listed and looked up by (k, q). A node's
    tracker is stepped only on its successors' letters, and the priority
    is read once per tracker state."""
    labels, u_succ, owner, states = u.labels, u.succ, u.owner, u.states
    if closed(u.base, tracker, states[-1] is BOT):
        after = {x: tracker.step(tracker.initial, x) for x in dict.fromkeys(labels)}
        priority = {x: tracker.priority(q) for x, q in after.items()}
        if states[-1] is BOT:  # the only state with the sink's letter
            priority[labels[-1]] = 1
        if pred is not None and not pred:
            pred += predecessors(u_succ)
        game = ZeroSumGame(
            u_succ, [o == player for o in owner], [priority[x] for x in labels], pred
        )
        return GameNodes(labels, after, [], {}), game
    step, priority = cache(tracker.step), cache(tracker.priority)
    after = {x: step(tracker.initial, x) for x in dict.fromkeys(labels)}
    start = [after[x] for x in labels]
    n, extra, ids = len(labels), [], {}  # the nodes past the start nodes
    succ = []
    for s, q in chain(enumerate(start), extra):  # breadth-first: `extra` grows while read
        out = []
        for t in u_succ[s]:
            qt = step(q, labels[t])
            if qt == start[t]:
                out.append(t)
                continue
            j = ids.get((t, qt))
            if j is None:
                j = ids[(t, qt)] = n + len(extra)
                extra.append((t, qt))
            out.append(j)
        succ.append(u_succ[s] if out == u_succ[s] else out)
    game = ZeroSumGame(
        succ=succ,
        is_protagonist=[o == player for o in owner] + [owner[s] == player for s, _ in extra],
        priority=[1 if states[s] is BOT else priority(q)
                  for s, q in chain(enumerate(start), extra)],
    )
    return GameNodes(labels, after, extra, ids), game


# ---------------------------------------------------------------------------
# Punishment regions


class PunishRegions(NamedTuple):
    """A player's punishment game, solved on the ids of the nodes (k, q) of
    the unfolding in product with its objective's tracker, q the tracker
    state after reading state k; `nodes` maps an id to its node and back
    (start node k is id k, see `GameNodes`). `win` holds the ids of the
    nodes from which the player, alone, carefully meets its objective.
    `punishment` maps the id of each coalition-owned node the coalition
    wins to the id of the unfolded state it moves to there."""

    win: frozenset[int]
    punishment: dict[int, int]
    nodes: GameNodes


def _reachability_targets(g: ZeroSumGame) -> Optional[list[int]]:
    """The nodes of priority 2 when `g` is a reachability game for the
    protagonist, else None. It is one when every priority is 1 or 2 and no
    node of priority 2 has a successor of priority 1: a play that meets
    priority 2 then keeps it, and every other play sees only priority 1.
    An `F` game is one once its targets are absorbing and none has an edge
    into the underflow sink, which keeps priority 1."""
    priority = g.priority
    if not {1, 2}.issuperset(priority):
        return None
    targets = [s for s, p in enumerate(priority) if p == 2]
    absorbing = set(targets).issuperset(chain.from_iterable(map(g.succ.__getitem__, targets)))
    return targets if absorbing else None


def punish_region(
    u: UnfoldedArena, player: int, tracker: Tracker, pred: Optional[list] = None
) -> PunishRegions:
    """Where can `player`, alone against the coalition, achieve the
    objective that `tracker` reads while staying careful, given the tracker
    state its history has reached? An outcome on which the player loses
    must not visit a node it owns in this region. Every objective is one
    parity game: the unfolding in product with the tracker, whose coalition
    strategy is the punishment table. A reachability game (see
    `_reachability_targets`) is solved by one attractor to its targets over
    the whole game, and the coalition moves from each of its nodes outside
    to the first successor outside; that is what Zielonka's algorithm
    returns there, after one round. Every other game is solved by
    Zielonka's algorithm. Both stay on the game's ids; on a closed game,
    where every id is an unfolded state's, the table is that strategy
    itself."""
    nodes, game = tracker_product(u, player, tracker, pred)
    targets = _reachability_targets(game)
    if targets is None:
        regions = solve_parity(game)
        win, table = regions.protagonist, regions.antagonist_strategy
    else:
        won, _ = attractor(game, targets, for_protagonist=True)
        win = frozenset(won)
        table = _escape_strategy(game, set(game.states).difference(won), False)
    if nodes.extra:  # a move into a node past the start nodes enters its state
        n, extra = len(nodes.labels), nodes.extra
        table = {j: t if t < n else extra[t - n][0] for j, t in table.items()}
    return PunishRegions(win, table, nodes)
