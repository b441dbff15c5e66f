"""Game arenas: multi-player turn-based graphs with d-dimensional integer
edge costs, atomic-proposition labels, per-player LTL objectives, and an
optional capacity vector.

The textual format is UTF-8 JSON; serialization is canonical (states and
edges sorted lexicographically), so round-trips are byte-stable.
"""

from itertools import chain
from operator import add
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from . import ltl
from .errors import (
    CostOverflowError, DocumentSemanticError, dump_json, expect, is_int, load_json, member,
)

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

RESERVED_ATOM = "bot"  # claimed by the unfolding's sink state

# The most players an arena may have: `synthesis.solve` may try all 2^players
# winner sets. Beside `zerosum.MAX_PRIORITY`, the other size cap on documents.
MAX_PLAYERS = 16


class Arena(NamedTuple):
    players: int
    dimensions: int
    states: tuple[str, ...]  # sorted
    owner: Mapping[str, int]
    initial: str
    edges: Mapping[tuple[str, str], tuple[int, ...]]  # (src, dst) -> cost
    atoms: frozenset[str]
    labels: Mapping[str, frozenset[str]]
    system_objective: ltl.Formula
    player_objectives: tuple[ltl.Formula, ...]  # index i-1 for player i
    bounds: Optional[tuple[int, ...]]
    succ: Mapping[str, tuple[str, ...]]

    def objective_of(self, player: int) -> ltl.Formula:
        return self.player_objectives[player - 1]


def build_arena(
    *,
    players: int,
    dimensions: int,
    states: Sequence[str],
    owner: Mapping[str, int],
    initial: str,
    edges: Mapping[tuple[str, str], Sequence[int]],
    atoms: Sequence[str],
    labels: Mapping[str, Sequence[str]],
    system_objective: ltl.Formula,
    player_objectives: Sequence[ltl.Formula],
    bounds: Optional[Sequence[int]] = None,
) -> Arena:
    """Validate and construct an Arena; raises DocumentSemanticError on any
    invariant violation, on a cost that is not a list of integers first."""
    if not all(isinstance(c, (list, tuple)) and all(map(is_int, c)) for c in edges.values()):
        _checked_edges(edges, set(states), dimensions)  # raises at the first bad edge
    return _build_arena(players, dimensions, states, owner, initial, edges, atoms, labels,
                        system_objective, player_objectives, bounds)


def _build_arena(players, dimensions, states, owner, initial, edges, atoms, labels,
                 system_objective, player_objectives, bounds) -> Arena:
    """`build_arena` on costs known to be lists of integers."""
    _check_players(players)
    if not is_int(dimensions) or dimensions < 1:
        raise DocumentSemanticError(f"dimensions must be a positive integer, got {dimensions!r}")

    state_list = list(states)
    stateset = set(state_list)
    if len(stateset) != len(state_list):
        raise DocumentSemanticError("duplicate state ids")
    if not state_list:
        raise DocumentSemanticError("arena has no states")

    atomset = frozenset(atoms)
    if len(atomset) != len(list(atoms)):
        raise DocumentSemanticError("duplicate atoms")
    if RESERVED_ATOM in atomset:
        raise DocumentSemanticError(f"atom name {RESERVED_ATOM!r} is reserved")

    if set(owner) != stateset:
        raise DocumentSemanticError("owner map must cover exactly the states")
    for s, p in owner.items():
        if not is_int(p) or not 1 <= p <= players:
            raise DocumentSemanticError(f"state {s!r}: owner {p!r} not in 1..{players}")

    if initial not in stateset:
        raise DocumentSemanticError(f"initial state {initial!r} is not a state")

    lab = {s: frozenset(labels.get(s, ())) for s in state_list}
    if not atomset.issuperset(chain.from_iterable(lab.values())):
        for s, ls in lab.items():
            bad = ls - atomset
            if bad:
                raise DocumentSemanticError(f"state {s!r}: unknown atom(s) {sorted(bad)}")

    # all edges at once; one by one only to name the first bad edge
    costs = list(edges.values())  # lists of integers
    if (stateset.issuperset(chain.from_iterable(edges)) and _typed(costs, {list, tuple})
            and set(map(len, costs)) <= {dimensions} and _i64(chain.from_iterable(costs))):
        edge_map = dict(zip(edges, map(tuple, costs)))
    else:
        edge_map = _checked_edges(edges, stateset, dimensions)

    targets: dict[str, list[str]] = {s: [] for s in state_list}
    for src, dst in sorted(edge_map):
        targets[src].append(dst)
    succ = {s: tuple(ds) for s, ds in targets.items()}
    for s in state_list:
        if not succ[s]:
            raise DocumentSemanticError(f"state without successor: {s!r}")

    b = None if bounds is None else checked_bounds(dimensions, bounds)

    objs = tuple(player_objectives)
    if len(objs) != players:
        raise DocumentSemanticError(
            f"expected {players} player objectives, got {len(objs)}"
        )
    for name, f in [("system", system_objective)] + [
        (f"player {i + 1}", g) for i, g in enumerate(objs)
    ]:
        bad = ltl.atoms_of(f) - atomset
        if bad:
            raise DocumentSemanticError(
                f"{name} objective uses unknown atom(s) {sorted(bad)}"
            )

    return Arena(
        players=players,
        dimensions=dimensions,
        states=tuple(sorted(state_list)),
        owner=dict(owner),
        initial=initial,
        edges=edge_map,
        atoms=atomset,
        labels=lab,
        system_objective=system_objective,
        player_objectives=objs,
        bounds=b,
        succ=succ,
    )


def checked_bounds(dimensions: int, bounds: Sequence[int]) -> tuple[int, ...]:
    """`bounds` as a tuple, refused unless it has one capacity per resource,
    each an integer from 0 to 2^63 - 1: the one rule for the capacities of
    a document, of an option and of every call that takes them."""
    b = tuple(bounds)
    if len(b) != dimensions or not all(is_int(v) and 0 <= v <= I64_MAX for v in b):
        raise DocumentSemanticError(
            f"bounds must be {dimensions} nonnegative components below 2**63, got {b}"
        )
    return b


def _checked_edges(edges, stateset, dimensions) -> dict[tuple[str, str], tuple[int, ...]]:
    """`build_arena`'s edge map, checked edge by edge in order: the first
    bad edge raises."""
    edge_map = {}
    for (src, dst), cost in edges.items():
        if src not in stateset or dst not in stateset:
            raise DocumentSemanticError(f"edge ({src!r}, {dst!r}): dangling endpoint")
        if not isinstance(cost, (list, tuple)):
            raise DocumentSemanticError(
                f"edge ({src!r}, {dst!r}): cost must be a list of integers, got {cost!r}"
            )
        c = tuple(cost)
        if len(c) != dimensions:
            raise DocumentSemanticError(
                f"edge ({src!r}, {dst!r}): cost has {len(c)} components, expected {dimensions}"
            )
        for v in c:
            if not is_int(v) or not I64_MIN <= v <= I64_MAX:
                raise DocumentSemanticError(
                    f"edge ({src!r}, {dst!r}): cost component {v!r} not a 64-bit integer"
                )
        edge_map[(src, dst)] = c
    return edge_map


def _check_players(players) -> None:
    if not is_int(players) or not 1 <= players <= MAX_PLAYERS:
        raise DocumentSemanticError(
            f"players must be an integer from 1 to {MAX_PLAYERS}, got {players!r}"
        )


# ---------------------------------------------------------------------------
# Document format


def parse_arena(text: str) -> Arena:
    """Read an arena document. Raises the error of its first defect in
    document order, with the message `errors.member` gives for that member.
    The members of the states and of the edges are checked inline, by exact
    type; only when a check fails, or an edge repeats, are they read again
    one by one through `member`, which raises for the first wrong one."""
    doc = expect(load_json(text), dict, "arena document")
    players = member(doc, "players", int, "players")
    _check_players(players)  # before any loop over the players
    items = member(doc, "states", [dict], "states")
    states, owners, label_lists = [], [], []
    for item in items:
        sid, p, ls = item.get("id"), item.get("owner"), item.get("labels", [])
        if sid.__class__ is not str or p.__class__ is not int or ls.__class__ is not list:
            break
        states.append(sid)
        owners.append(p)
        label_lists.append(ls)
    if len(states) == len(items) and _typed(chain.from_iterable(label_lists), {str}):
        owner, labels = dict(zip(states, owners)), dict(zip(states, label_lists))
    else:
        states, owner, labels = _read_states(items)

    items = member(doc, "edges", [dict], "edges")
    edges = {}
    for item in items:
        src, dst, cost = item.get("src"), item.get("dst"), item.get("cost")
        if src.__class__ is not str or dst.__class__ is not str or cost.__class__ is not list:
            break
        edges[(src, dst)] = cost
    # short after a failed check or a repeated edge
    if len(edges) < len(items) or not _typed(chain.from_iterable(edges.values()), {int}):
        edges = _read_edges(items)

    objectives = member(doc, "objectives", dict, "objectives")
    per_player = member(objectives, "players", dict, "player objectives", {})
    player_objs = []
    for i in range(1, players + 1):
        src = member(per_player, str(i), str, f"player {i} objective", None)
        player_objs.append(ltl.TRUE if src is None else ltl.parse_ltl(src))
    extra = set(per_player) - {str(i) for i in range(1, players + 1)}
    if extra:
        raise DocumentSemanticError(f"objectives for unknown player(s): {sorted(extra)}")

    return _build_arena(
        players, member(doc, "dimensions", int, "dimensions"), states, owner,
        member(doc, "initial", str, "initial state"), edges, member(doc, "atoms", [str], "atoms"),
        labels, ltl.parse_ltl(member(objectives, "system", str, "system objective")),
        player_objs, member(doc, "bounds", [int], "bounds", None),
    )


def _typed(values, types: set) -> bool:
    """Every value's exact type is in `types`. As in `errors.expect`, `bool`
    is not `int`; unlike it, no subclass passes, so False only sends the
    caller to its one-by-one checks."""
    return set(map(type, values)) <= types


def _i64(values) -> bool:
    """Every value, an integer, is in the signed 64-bit range."""
    values = list(values)
    return not values or I64_MIN <= min(values) and max(values) <= I64_MAX


def _read_states(items):
    """The states read member by member, in order: the first wrong member
    raises."""
    states, owner, labels = [], {}, {}
    for item in items:
        sid = member(item, "id", str, "state id")
        states.append(sid)
        owner[sid] = member(item, "owner", int, f"owner of {sid!r}")
        labels[sid] = member(item, "labels", [str], f"labels of {sid!r}", [])
    return states, owner, labels


def _read_edges(items):
    """The edges read member by member, in order: the first wrong member or
    repeated edge raises."""
    edges = {}
    for item in items:
        key = (member(item, "src", str, "edge source"), member(item, "dst", str, "edge target"))
        if key in edges:
            raise DocumentSemanticError(f"duplicate edge {key!r}")
        edges[key] = member(item, "cost", [int], f"cost of edge {key!r}")
    return edges


def arena_to_document(arena: Arena) -> dict:
    doc: dict = {
        "players": arena.players,
        "dimensions": arena.dimensions,
    }
    if arena.bounds is not None:
        doc["bounds"] = list(arena.bounds)
    doc["atoms"] = sorted(arena.atoms)
    doc["states"] = [
        {"id": s, "owner": arena.owner[s], "labels": sorted(arena.labels[s])}
        for s in arena.states
    ]
    doc["initial"] = arena.initial
    doc["edges"] = [
        {"src": src, "dst": dst, "cost": list(arena.edges[(src, dst)])}
        for (src, dst) in sorted(arena.edges)
    ]
    doc["objectives"] = {
        "system": ltl.formula_to_str(arena.system_objective),
        "players": {
            str(i): ltl.formula_to_str(arena.player_objectives[i - 1])
            for i in range(1, arena.players + 1)
        },
    }
    return doc


def serialize_arena(arena: Arena) -> str:
    return dump_json(arena_to_document(arena))


# ---------------------------------------------------------------------------
# Histories, lassos, cost arithmetic


History = Sequence[str]


class Lasso(NamedTuple):
    """Finite representation stem . loop^omega of an ultimately periodic
    play. The optional trace is the resource vector at each position of
    stem + first loop traversal in the bounded unfolding; the certificate
    checker verifies it, `validate_lasso` does not read it."""

    stem: tuple[str, ...]
    loop: tuple[str, ...]
    trace: Optional[tuple[tuple[int, ...], ...]] = None


def validate_history(arena: Arena, h: History) -> None:
    if not h:
        raise DocumentSemanticError("history is empty")
    if h[0] != arena.initial:
        raise DocumentSemanticError(
            f"history starts at {h[0]!r}, expected initial {arena.initial!r}"
        )
    for a, b in zip(h, h[1:]):
        if (a, b) not in arena.edges:
            raise DocumentSemanticError(f"({a!r}, {b!r}) is not an edge")


def validate_lasso(arena: Arena, l: Lasso) -> None:
    """Structure only: the stem is a history, the loop is nonempty, and
    the loop closes through edges."""
    validate_history(arena, l.stem)
    if not l.loop:
        raise DocumentSemanticError("lasso loop is empty")
    validate_history(arena, [*l.stem, *l.loop, l.loop[0]])


def cumulative_costs(arena: Arena, path: History) -> Iterator[tuple[int, ...]]:
    """The unbounded, non-saturating cost of each prefix of `path`, a path
    of edges: the k-th vector sums its first k edges. Raises
    CostOverflowError at the first sum that leaves 64 bits."""
    acc = (0,) * arena.dimensions
    yield acc
    for x, y in zip(path, path[1:]):
        acc = tuple(map(add, acc, arena.edges[(x, y)]))
        for i, v in enumerate(acc):
            if not I64_MIN <= v <= I64_MAX:
                raise CostOverflowError(f"cumulative cost overflows 64 bits in component {i + 1}")
        yield acc


def multi_energy_check_unbounded(arena: Arena, l: Lasso) -> bool:
    """True iff every prefix of stem . loop^omega of a lasso that
    `validate_lasso` accepts has componentwise nonnegative cumulative cost
    (arena bounds are ignored). Exact: no prefix through one loop traversal
    and its closing edge goes negative, and the loop's net cost, the
    closing vector minus the vector at the loop head, is nonnegative."""
    head = None
    for k, acc in enumerate(cumulative_costs(arena, list(l.stem) + list(l.loop) + [l.loop[0]])):
        if min(acc) < 0:
            return False
        if k == len(l.stem):
            head = acc
    return all(x <= y for x, y in zip(head, acc))
