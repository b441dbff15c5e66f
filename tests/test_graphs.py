import random
from collections import deque

import pytest

from carefulsynth._graphs import (
    breadth_first,
    ids_in_sccs_with,
    number,
    path_to,
    shortest_path,
    strongly_connected_components,
)

from genutils import scc_partition


def _random_digraph(rng: random.Random):
    """A node set, a few nodes outside it, and successor lists over both,
    with self-loops and duplicate edges left in."""
    n = rng.randrange(1, 25)
    outside = list(range(n, n + rng.randrange(0, 4)))
    everything = list(range(n)) + outside
    density = rng.choice((0.05, 0.15, 0.4))
    succ = {}
    for v in everything:
        out = [w for w in everything if rng.random() < density]
        if rng.random() < 0.3:
            out.append(v)
        out += rng.choices(out, k=len(out) // 2) if out else []
        rng.shuffle(out)
        succ[v] = out
    return list(range(n)), succ


@pytest.mark.parametrize("shape", [set, list, dict.fromkeys])
def test_sccs_are_the_mutual_reachability_classes(shape):
    # the kernel reads successor lists indexed by id and returns the
    # components that hold a cycle: two nodes or more, or a self-loop
    for seed in range(300):
        rng = random.Random(seed)
        nodes, succ = _random_digraph(rng)
        lists = [succ[v] for v in range(len(succ))]
        comps = strongly_connected_components(shape(nodes), lists)
        assert sorted(map(len, comps)) == sorted(map(len, map(set, comps))), seed
        cyclic = [c for c in scc_partition(nodes, succ)
                  if len(c) > 1 or any(v in succ[v] for v in c)]
        assert set(map(frozenset, comps)) == set(map(frozenset, cyclic)), seed
        # any subset of the ids, not only a prefix
        some = [v for v in succ if rng.random() < 0.6]
        comps = strongly_connected_components(shape(some), lists)
        cyclic = [c for c in scc_partition(some, succ)
                  if len(c) > 1 or any(v in succ[v] for v in c)]
        assert set(map(frozenset, comps)) == set(map(frozenset, cyclic)), seed


def _distances(sources, succ, allowed):
    dist = {s: 0 for s in sources if allowed(s)}
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        for w in succ[v]:
            if w not in dist and allowed(w):
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


@pytest.mark.parametrize("restricted", [False, True])
def test_shortest_path_is_a_shortest_allowed_path(restricted):
    found = 0
    for seed in range(300):
        rng = random.Random(seed)
        nodes, succ = _random_digraph(rng)
        everything = list(succ)
        sources = rng.choices(everything, k=rng.randrange(1, 4))
        targets = set(rng.choices(everything, k=rng.randrange(1, 4)))
        banned = {v for v in everything if restricted and rng.random() < 0.3}
        allowed = (lambda v: v not in banned) if restricted else None
        path = shortest_path(sources, succ.__getitem__, targets.__contains__, allowed=allowed)
        dist = _distances(sources, succ, lambda v: v not in banned)
        reachable = [dist[t] for t in targets if t in dist]
        if not reachable:
            assert path is None, seed
            continue
        found += 1
        assert path[0] in sources and path[-1] in targets, seed
        assert all(w in succ[v] for v, w in zip(path, path[1:])), seed
        assert not banned & set(path), seed
        assert len(path) - 1 == min(reachable), seed
    assert found >= 100


def _cyclic_classes(nodes, succ) -> set:
    return {frozenset(c) for c in scc_partition(nodes, succ)
            if len(c) > 1 or any(v in succ[v] for v in c)}


def test_ids_in_sccs_with_the_bit_are_those_of_cyclic_classes():
    # a negative successor is a failed step, no edge, and must not be read
    # as an index from the end; when every node has the bit, every id counts
    shapes = {"some": 0, "none": 0, "every": 0}
    for seed in range(300):
        rng = random.Random(seed)
        nodes, succ = _random_digraph(rng)
        n = len(succ)
        lists = [succ[v] + [~rng.randrange(3) for _ in range(rng.randrange(2))] for v in range(n)]
        bits = [rng.choice((2, 3)) if seed % 4 == 0 else rng.randrange(4) for _ in range(n)]
        at = [rng.randrange(n) for _ in range(rng.randrange(40))]
        got = ids_in_sccs_with(lists, bits, 2, at)
        if all(b & 2 for b in bits):
            assert got == range(len(at)), seed
            shapes["every"] += 1
            continue
        cyclic = set().union(*[c for c in _cyclic_classes(range(n), succ)
                               if any(bits[v] & 2 for v in c)])
        assert got == [k for k, p in enumerate(at) if p in cyclic], seed
        shapes["some" if got else "none"] += 1
    assert min(shapes.values()) >= 20, shapes


def test_number_maps_each_node_to_its_component():
    for seed in range(300):
        rng = random.Random(seed)
        nodes, succ = _random_digraph(rng)
        lists = [succ[v] for v in range(len(succ))]
        comps = strongly_connected_components(nodes, lists)
        index = number(comps, len(lists))
        assert all(index[v] == j for j, c in enumerate(comps) for v in c), seed
        assert index.count(-1) == len(lists) - sum(map(len, comps)), seed


def test_breadth_first_links_are_shortest_paths():
    # the first node of the search's order that is a target ends the path
    # `shortest_path` returns
    found = 0
    for seed in range(300):
        rng = random.Random(seed)
        nodes, succ = _random_digraph(rng)
        lists = [succ[v] for v in range(len(succ))]
        avoid = {v for v in range(1, len(lists)) if rng.random() < 0.3}
        parent = breadth_first(lists, avoid)
        allowed = (lambda v: v not in avoid)
        assert set(parent) == set(_distances([0], succ, allowed)), seed
        assert list(parent)[0] == 0 and not avoid & set(parent), seed
        targets = {v for v in parent if rng.random() < 0.3}
        first = next(filter(targets.__contains__, parent), None)
        got = None if first is None else path_to(parent, first)
        assert got == shortest_path([0], succ.__getitem__, targets.__contains__, allowed), seed
        found += got is not None and len(got) > 1
    assert found >= 80, found
