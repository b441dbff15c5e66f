"""Small graph utilities shared by the automata and synthesis code."""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Callable, Hashable, Iterable, Optional


def strongly_connected_components(
    nodes: Iterable[Hashable], successors: Callable[[Hashable], Iterable[Hashable]]
) -> list[list[Hashable]]:
    """Iterative Tarjan. Only nodes in `nodes` are visited; successors
    outside the set are ignored. A set is used as given, not copied."""
    nodeset = nodes if isinstance(nodes, AbstractSet) else set(nodes)
    done = len(nodeset)  # the index of a node once its component is out
    index: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    stack: list[Hashable] = []
    comps: list[list[Hashable]] = []

    for root in nodeset:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(successors(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in nodeset:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(successors(w))))
                    break
                if index[w] < low[v]:  # never true once w's component is out
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        comp.append(w)
                        if w == v:
                            break
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
