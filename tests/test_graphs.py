import random
from collections import deque

import pytest

from carefulsynth._graphs import shortest_path, strongly_connected_components

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
