"""Small graph utilities shared by the automata and synthesis code."""

from __future__ import annotations

from collections import deque
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
            path = [v]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            path.reverse()
            return path
        for w in successors(v):
            if allowed is not None and not allowed(w):
                continue
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return None
