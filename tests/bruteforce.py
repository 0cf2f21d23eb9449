"""Independent brute-force oracles used to freeze expected test values.

Deliberately separate from the package's search code: plain dict+deque
BFS over the raw neighbor functions, so the two routes can disagree.
"""

from collections import deque


def bfs_distances(neighbors, start, max_r):
    """vertex -> distance for everything within max_r of start."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if dist[v] == max_r:
            continue
        for u in neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def bfs_ball(neighbors, start, r):
    return set(bfs_distances(neighbors, start, r))


def bfs_sphere(neighbors, start, r):
    return {v for v, d in bfs_distances(neighbors, start, r).items() if d == r}


def induced_component(neighbors, allowed, start):
    """Vertices reachable from start inside the `allowed` vertex set."""
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in neighbors(v):
            if u in allowed and u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def all_in_one_component(neighbors, allowed, targets):
    targets = list(targets)
    comp = induced_component(neighbors, allowed, targets[0])
    return all(t in comp for t in targets)


def grid_ball_size(r):
    """Closed form for the square grid: 2r^2 + 2r + 1."""
    return 2 * r * r + 2 * r + 1


def tree_depth(v):
    return len(v)


def tree_meet_depth(u, v):
    d = 0
    for a, b in zip(u, v):
        if a != b:
            break
        d += 1
    return d


def tree_distance(u, v):
    """depth(u) + depth(v) - 2*depth(meet) in any tree coded by child words."""
    return tree_depth(u) + tree_depth(v) - 2 * tree_meet_depth(u, v)
