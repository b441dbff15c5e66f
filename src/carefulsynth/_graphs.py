"""The graph kernel that two layers run: the SCC pass, shared by the
certificate checker and the solver, and `path_to`, shared by the witness
search and the reduction. The witness search's own graph passes live in
`synthesis`, beside their one caller."""

from __future__ import annotations

from typing import Collection, Sequence


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


def path_to(parent: dict, v) -> list:
    """The path along `parent`'s links from their root, whose link is None,
    to `v`."""
    path = [v]
    while (v := parent[v]) is not None:
        path.append(v)
    path.reverse()
    return path
