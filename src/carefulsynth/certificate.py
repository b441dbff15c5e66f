"""The certificate checker's trusted base: the objective trackers, the
parity-automaton reader, the certificate document and `check_certificate`,
which checks a strategy profile against the arena alone. It imports only
`errors`, `_graphs`, `ltl` and `arena`, so it holds no game solver, no
witness search and no `unfold` (a certifying algorithm's checker, after
McConnell, Mehlhorn, Näher and Schweitzer, 2011). `solve` builds its
trackers here too: with the SCC kernel they are all the checker shares
with the solver (README, step 4).
"""

from collections import deque
from functools import partial
from typing import Callable, Hashable, Mapping, NamedTuple, Optional, Sequence

from . import ltl
from ._graphs import strongly_connected_components
from .arena import (
    BOT, DEFAULT_STATE_BUDGET, Arena, Lasso, UState, checked_bounds, lift, parse_ustate,
    render_ustate, step, validate_history,
)
from .errors import (
    BudgetExceededError,
    DocumentSemanticError,
    MalformedProfileError,
    UnderflowError,
    UnsupportedObjectiveError,
    expect,
    is_int,
    load_json,
    member,
    natural,
)
from .ltl import FragmentClass

# The largest priority a parity game or automaton may use: Zielonka's
# recursion depth grows with it.
MAX_PRIORITY = 16


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
    if len(set(states)) != len(states):
        raise DocumentSemanticError("duplicate state names")
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
    one and does not change that maximum. A supplied automaton need only be
    complete over the letters its runs meet (see `unfolding.Product`)."""

    initial: Hashable
    step: Callable[[Hashable, frozenset], Hashable]
    priority: Callable[[Hashable], int]


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
    holds = _Filled(partial(ltl.eval_bool, frag.beta))  # letter -> whether beta holds
    if frag.kind == FragmentClass.REACH:
        step, priority = (lambda seen, x: seen or holds[x]), (lambda seen: 2 if seen else 1)
    elif frag.kind == FragmentClass.SAFE:
        step, priority = (lambda bad, x: bad or not holds[x]), (lambda bad: 1 if bad else 2)
    else:
        good = 2 if frag.kind == FragmentClass.BUCHI else 0
        step, priority = (lambda _, x: holds[x]), (lambda held: good if held else 1)
    return Tracker(False, step, priority)


class _Filled(dict):
    """A map whose value at a key is `fill(key)`, computed and stored at the
    key's first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def player_tracker(a: Arena, player: int, dpas: Mapping[int, ParityAutomaton]) -> Tracker:
    """`player`'s objective tracker, its automaton in `dpas` if given: the one
    refusal of an unsupported objective, naming the player, for both solve
    and check."""
    try:
        return objective_tracker(a.objective_of(player), dpas.get(player))
    except UnsupportedObjectiveError as e:
        raise UnsupportedObjectiveError(f"unsupported objective: player {player}: {e}") from None


# ---------------------------------------------------------------------------
# Certificate documents


class StrategyProfile(NamedTuple):
    """Finite-memory equilibrium certificate: the on-path lasso plus one
    punishment table per player, activated at that player's first
    deviation. A table is keyed by the node (unfolded state, the player's
    tracker state after reading it, written by `str`) and names the
    successor the coalition takes there. It covers the nodes the player's
    deviations reach; a winner, with no reason to deviate, has none."""

    outcome: Lasso  # base-arena projection, with resource trace
    winners: frozenset[int]
    punishment: Mapping[int, Mapping]  # player -> (state, str(tracker state)) -> successor


def _render_key(key) -> str:
    s, q = key
    return f"{render_ustate(s)}|{q}"


def profile_to_document(profile: StrategyProfile) -> dict:
    return {
        "outcome": {
            "stem": list(profile.outcome.stem),
            "loop": list(profile.outcome.loop),
            "trace": [list(v) for v in profile.outcome.trace],
        },
        "winners": sorted(profile.winners),
        "punishment": {
            str(i): {
                _render_key(k): render_ustate(v)
                for k, v in sorted(table.items(), key=lambda kv: _render_key(kv[0]))
            }
            for i, table in sorted(profile.punishment.items())
        },
    }


def parse_profile(text: str) -> StrategyProfile:
    doc = expect(load_json(text), dict, "profile document")
    if member(doc, "status", str, "status", "solution") != "solution":
        raise DocumentSemanticError("a certificate's status must be 'solution'")
    member(doc, "bounds", [int], "bounds", None)  # read, though --bounds decides
    outcome = member(doc, "outcome", dict, "outcome")
    stem = tuple(member(outcome, "stem", [str], "outcome stem"))
    loop = tuple(member(outcome, "loop", [str], "outcome loop"))
    trace = tuple(map(tuple, member(outcome, "trace", [[int]], "outcome trace")))
    winners = member(doc, "winners", [int], "winners")
    if len(set(winners)) < len(winners):
        raise DocumentSemanticError(f"duplicate winners {winners!r}")
    punishment = {}
    for i_str, table in member(doc, "punishment", dict, "punishment", {}).items():
        i = natural(i_str, "a punishment key")  # "03" or "٣" would name player 3 again
        entries = {}
        for k, v in expect(table, dict, f"punishment table of {i_str}").items():
            state, bar, q = k.rpartition("|")
            if not bar:
                raise DocumentSemanticError(f"punishment key {k!r} has no '|'")
            try:
                entries[(parse_ustate(state), q)] = parse_ustate(expect(v, str, "punishment entry"))
            except DocumentSemanticError as e:
                raise DocumentSemanticError(
                    f"punishment table of {i_str}, key {k!r}: {e}") from None
        punishment[i] = entries
    return StrategyProfile(
        outcome=Lasso(stem=stem, loop=loop, trace=trace),
        winners=frozenset(winners),
        punishment=punishment,
    )


# ---------------------------------------------------------------------------
# Certificate checking


def check_certificate(
    a: Arena,
    bounds: Sequence[int],
    profile: StrategyProfile,
    dpas: Optional[Mapping[int, ParityAutomaton]] = None,
    max_states: int = DEFAULT_STATE_BUDGET,
) -> list[str]:
    """Check every clause of the solution definition against the arena
    alone: the outcome replays in the unfolding, meets the system objective
    and names its winners; every punishment entry is an edge out of a state
    reachable from the initial one; and no loser has a careful profitable
    deviation against the others following its table, decided exactly by
    an emptiness check on a one-player graph, so a table needs entries only
    where a deviation reaches, as `solve` writes it. The unfolding is never
    built: a state is stepped when a deviation or the search for a table
    entry's state first reads its successors, and BudgetExceededError is
    raised before more than `max_states` states are stepped. Returns a list
    of violations; empty means the certificate is valid."""
    dpas = dict(dpas or {})
    violations: list[str] = []
    u = _SteppedUnfolding(a, checked_bounds(a.dimensions, bounds), max_states)
    players = range(1, a.players + 1)
    trackers = [player_tracker(a, i, dpas) for i in players]

    try:
        stem, loop = _replay(u, profile.outcome)
    except MalformedProfileError as e:
        return [str(e)]

    stem_labels = [a.labels[s] for s, _ in stem]
    loop_labels = [a.labels[s] for s, _ in loop]
    if not ltl.eval_on_lasso(a.system_objective, stem_labels, loop_labels, atoms=a.atoms):
        violations.append("outcome does not satisfy the system objective")

    for what, named in [("winner", profile.winners), ("punishment table of", profile.punishment)]:
        violations += [f"{what} {i}: not a player" for i in sorted(named) if i not in players]
    for i, tracker in zip(players, trackers):
        if i in dpas:
            satisfied = tracker_accepts(tracker, stem_labels, loop_labels)
        else:
            satisfied = ltl.eval_on_lasso(
                a.objective_of(i), stem_labels, loop_labels, atoms=a.atoms
            )
        if satisfied != (i in profile.winners):
            violations.append(
                f"player {i}: declared {'winner' if i in profile.winners else 'loser'}, "
                f"outcome says otherwise"
            )
        table = profile.punishment.get(i)
        if table is None:
            violations.append(f"player {i}: missing punishment table")
            continue
        for key, value in table.items():
            s = key[0]
            if not u.reachable(s) or value not in u.successors(s):
                violations.append(
                    f"player {i}: punishment entry {key!r} -> {value!r} is not an edge"
                )
                break
        if not satisfied:
            violations.extend(_deviation_faults(u, i, tracker, table, stem, loop))
    return violations


def run_lasso(tracker: Tracker, stem: Sequence, loop: Sequence) -> tuple[list, int]:
    """Run `tracker` over the letters stem . loop^k until its state at the
    loop head repeats. Returns the state after each visited position's
    letter and the index where the settled cycle starts."""
    q = tracker.initial
    qs = []
    for letter in stem:
        q = tracker.step(q, letter)
        qs.append(q)
    heads: dict = {}
    while q not in heads:
        heads[q] = len(qs)
        for letter in loop:
            q = tracker.step(q, letter)
            qs.append(q)
    return qs, heads[q]


def tracker_accepts(tracker: Tracker, stem: Sequence, loop: Sequence) -> bool:
    qs, cycle = run_lasso(tracker, stem, loop)
    return max(map(tracker.priority, qs[cycle:])) % 2 == 0


class _SteppedUnfolding:
    """The unfolding as the checker reads it: a state is stepped the first
    time its successors are read, and the search for states reachable from
    the initial one runs only as far as a query needs, resuming where it
    stopped. At most `max_states` states are stepped, all of them in the
    unfolding."""

    def __init__(self, a: Arena, bounds: tuple[int, ...], max_states: int):
        self.base, self.bounds, self.max_states = a, bounds, max_states
        self.initial = (a.initial, (0,) * a.dimensions)
        self.stepped: dict = {}
        self.reached = {self.initial}
        self.frontier = deque([self.initial])

    def successors(self, us: UState) -> tuple[UState, ...]:
        out = self.stepped.get(us)
        if out is None:
            if len(self.stepped) >= self.max_states:
                raise BudgetExceededError(
                    f"unfolding exceeds the state budget of {self.max_states}"
                )
            out = self.stepped[us] = step(self.base, self.bounds, us)
        return out

    def reachable(self, us) -> bool:
        while us not in self.reached and self.frontier:
            for t in self.successors(self.frontier.popleft()):
                if t not in self.reached:
                    self.reached.add(t)
                    self.frontier.append(t)
        return us in self.reached


def _replay(u: _SteppedUnfolding, outcome: Lasso) -> tuple[tuple, tuple]:
    """Lift stem + loop + the loop's head into the unfolding and verify lasso
    shape, sink-freeness, resource stability and the cached trace."""
    stem, loop = list(outcome.stem), list(outcome.loop)
    if not stem or not loop:
        raise MalformedProfileError("outcome stem and loop must be nonempty")
    path = stem + loop + loop[:1]
    try:
        validate_history(u.base, path)
        ustates = lift(u.base, u.bounds, path)
    except UnderflowError as e:
        raise MalformedProfileError(f"outcome depletes a resource: {e}") from None
    except DocumentSemanticError as e:
        raise MalformedProfileError(f"outcome is not a lasso in the arena: {e}") from None
    head, n = len(stem), len(stem) + len(loop)
    if ustates[head] != ustates[n]:
        raise MalformedProfileError(
            "loop is not resource-stable: repeating it changes the resource vector"
        )
    if outcome.trace is not None and tuple(outcome.trace) != tuple(c for _, c in ustates[:n]):
        raise MalformedProfileError("cached resource trace does not match recomputation")
    return tuple(ustates[:head]), tuple(ustates[head:n])


def _deviation_faults(u: _SteppedUnfolding, player, tracker, table, stem, loop) -> list[str]:
    """Explore the nodes (unfolded state, tracker state after reading it)
    from every way `player` can leave the outcome: it takes any sink-free
    successor at its own states, the coalition follows `table` at the node,
    its tracker state written by `str`. A reachable cycle whose top
    priority is even is a careful profitable deviation."""
    owner, labels = u.base.owner, u.base.labels
    qs, _ = run_lasso(tracker, [labels[s] for s, _ in stem], [labels[s] for s, _ in loop])
    path = stem + loop * (len(qs) // len(loop) + 1)  # long enough to index k + 1
    origin: dict = {}  # node -> the outcome position its deviation left from
    for k, q in enumerate(qs):
        if owner[path[k][0]] == player:
            for t in u.successors(path[k]):
                if t is not BOT and t != path[k + 1]:
                    origin.setdefault((t, tracker.step(q, labels[t[0]])), path[k])

    succ: dict = {}
    stack = list(origin)
    while stack:
        node = stack.pop()
        s, q = node
        moves = u.successors(s)
        if owner[s[0]] != player:
            t = table.get((s, str(q)))
            if t not in moves:
                return [
                    f"player {player}: a deviation from {render_ustate(origin[node])} "
                    f"reaches {render_ustate(s)}, where the punishment table has no edge"
                ]
            moves = (t,)
        succ[node] = [(t, tracker.step(q, labels[t[0]])) for t in moves if t is not BOT]
        for nxt in succ[node]:
            if nxt not in origin:
                origin[nxt] = origin[node]
                stack.append(nxt)

    nodes = list(succ)  # numbered in the order found, for the SCC kernel
    priority = [tracker.priority(q) for _, q in nodes]
    evens = sorted({x for x in priority if x % 2 == 0})
    if evens:
        ids = {node: j for j, node in enumerate(nodes)}
        lists = [[ids[t] for t in succ[node]] for node in nodes]
    for p in evens:
        low = [j for j, x in enumerate(priority) if x <= p]
        won = {
            j
            for comp in strongly_connected_components(low, lists)
            if any(priority[x] == p for x in comp)
            for j in comp
        }
        if won:  # name the first found, independent of set order
            return [
                f"player {player}: careful profitable deviation from "
                f"{render_ustate(origin[nodes[min(won)]])}"
            ]
    return []
