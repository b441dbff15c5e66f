"""Small graph utilities shared by the automata and synthesis code."""

from __future__ import annotations

from collections import Counter, deque
from functools import reduce
from itertools import chain, compress
from operator import or_
from typing import Callable, Collection, Hashable, Iterable, Optional, Sequence


def strongly_connected_components(
    nodes: Collection[int], succ: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The strongly connected components that hold a cycle (two nodes or
    more, or one with a self-loop) of the graph on the ids
    0..len(succ)-1 whose successor lists are `succ`, restricted to the ids
    in `nodes`; successors outside them are ignored. Iterative Tarjan, with
    its marks in lists indexed by id."""
    inside = bytearray(len(succ))  # 1 for a node of `nodes` whose component is not out
    for v in nodes:
        inside[v] = 1
    index = [0] * len(succ)  # 1 + the order a node was reached in, 0 before
    low = [0] * len(succ)
    count = 0
    stack: list[int] = []
    comps: list[list[int]] = []

    for root in nodes:
        if index[root]:
            continue
        count += 1
        index[root] = low[root] = count
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if not inside[w]:  # outside, or its component is out
                    continue
                if not index[w]:
                    count += 1
                    index[w] = low[w] = count
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                lv = low[v]
                if work and lv < low[work[-1][0]]:
                    low[work[-1][0]] = lv
                if lv == index[v]:
                    w = stack.pop()
                    inside[w] = 0
                    if w == v:  # one node: a component only with a self-loop
                        if v in succ[v]:
                            comps.append([v])
                        continue
                    comp = [w]
                    while w != v:
                        w = stack.pop()
                        inside[w] = 0
                        comp.append(w)
                    comps.append(comp)
    return comps


def ids_in_sccs_with(
    succ: Sequence[Sequence[int]], bits: Sequence[int], bit: int, at: Sequence[int]
) -> Sequence[int]:
    """The ids k whose node at[k] of the graph `succ` lies in a strongly
    connected component with a cycle and a node whose `bits` have `bit`
    set, in increasing order, or every id when every node has it set. A
    negative successor, a failed step, is no edge. Either way the ids form
    a union of the SCCs of a graph on the ids whose edges `at` maps onto
    edges of `succ`."""
    if all(b & bit for b in bits):
        return range(len(at))
    if min(chain.from_iterable(succ), default=0) < 0:
        succ = [[x for x in out if x >= 0] for out in succ]
    keep = [False] * len(succ)
    for comp in strongly_connected_components(range(len(succ)), succ):
        if any(bits[v] & bit for v in comp):
            for v in comp:
                keep[v] = True
    return list(compress(range(len(at)), map(keep.__getitem__, at)))


def folded(comps: Iterable[Sequence[int]], at: Sequence[int], bits: Sequence[int]) -> list[int]:
    """For each component, the `bits` of the images under `at` of its
    nodes or-ed together, each distinct image read once."""
    return [bits[at[comp[0]]] if len(comp) == 1
            else reduce(or_, map(bits.__getitem__, set(map(at.__getitem__, comp))))
            for comp in comps]


def number(comps: Sequence[Sequence[int]], size: int) -> list[int]:
    """A list over the ids below `size`: the index in `comps` of the
    component that holds each, -1 outside them."""
    index = [-1] * size
    for j, comp in enumerate(comps):
        for v in comp:
            index[v] = j
    return index


def restricted(
    seen: Collection[int],
    comps: Sequence[Sequence[int]],
    index: Sequence[int],
    succ: Sequence[Sequence[int]],
    keep: Callable[[int], bool],
) -> list[Sequence[int]]:
    """The SCCs that hold a cycle of the graph `succ` restricted to the
    nodes in `seen`, inside the components `comps` that `keep` holds for,
    SCCs of the whole graph that `index` numbers: one wholly in `seen`
    stays whole, and the nodes in `seen` of the others are split again in
    one pass."""
    whole, split = [], []
    for j, count in Counter(map(index.__getitem__, seen)).items():
        if j >= 0 and keep(j):
            (whole if count == len(comps[j]) else split).append(comps[j])
    if split:
        whole += strongly_connected_components([v for c in split for v in c if v in seen], succ)
    return whole


def breadth_first(succ: Sequence[Sequence[int]], avoid: Collection[int]) -> dict:
    """A breadth-first search of the graph `succ` from node 0, which is not
    in `avoid`, that never enters `avoid`: each node it finds -> the node it
    was first found from (None at 0), in the order found."""
    parent: dict = {0: None}
    order = [0]
    for v in order:  # the list grows while it is read
        for w in succ[v]:
            if w not in parent and w not in avoid:
                parent[w] = v
                order.append(w)
    return parent


def path_to(parent: dict, v) -> list:
    """The path along `parent`'s links from their root, whose link is None,
    to `v`."""
    path = [v]
    while (v := parent[v]) is not None:
        path.append(v)
    path.reverse()
    return path


def shortest_path(
    sources: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[Hashable]],
    is_target: Callable[[Hashable], bool],
    allowed: Optional[Callable[[Hashable], bool]] = None,
) -> Optional[list[Hashable]]:
    """BFS shortest path from any source to any target, inclusive of both
    endpoints. Deterministic given deterministic successor order."""
    parent: dict[Hashable, Optional[Hashable]] = {}
    queue: deque = deque()
    for s in sources:
        if allowed is not None and not allowed(s):
            continue
        if s not in parent:
            parent[s] = None
            queue.append(s)
    while queue:
        v = queue.popleft()
        if is_target(v):
            return path_to(parent, v)
        for w in successors(v):
            if allowed is not None and not allowed(w):
                continue
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return None
