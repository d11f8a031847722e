"""Configuration-path generation (Section VI).

Configuration messages ride the ordinary network (one extra bit marks
them), following static paths fixed at hardware-generation time. The
problem: find ``p`` directed walks, starting at nodes the control core
can reach, that together visit every configurable node, minimizing the
longest walk (configuration time is dominated by it). The lower bound
for ``n`` nodes and ``p`` paths is ``ceil(n / p)``.

Approach (as in the paper): grow initial paths spanning-tree style, then
iteratively cut a node from the longest path and splice it into a nearby
shorter path until the maximum length converges.
"""

from repro.errors import HwGenError
from repro.utils.bits import ceil_div


def _adjacency(adg):
    """Directed adjacency over all components (every unit forwards
    configuration messages)."""
    neighbors = {name: set() for name in adg.node_names()}
    for link in adg.links():
        neighbors[link.src].add(link.dst)
    return {name: sorted(peers) for name, peers in neighbors.items()}


def _shortest_hops(adjacency, src):
    """BFS hop counts from ``src``."""
    distance = {src: 0}
    frontier = [src]
    while frontier:
        next_frontier = []
        for name in frontier:
            for peer in adjacency[name]:
                if peer not in distance:
                    distance[peer] = distance[name] + 1
                    next_frontier.append(peer)
        frontier = next_frontier
    return distance


def _bfs_path(adjacency, src, targets):
    """Shortest directed path from ``src`` to the nearest of ``targets``.

    Returns the node list excluding ``src`` (empty if src is a target),
    or None when unreachable.
    """
    if src in targets:
        return []
    parent = {src: None}
    frontier = [src]
    while frontier:
        next_frontier = []
        for name in frontier:
            for peer in adjacency[name]:
                if peer in parent:
                    continue
                parent[peer] = name
                if peer in targets:
                    path = [peer]
                    back = name
                    while back != src:
                        path.append(back)
                        back = parent[back]
                    path.reverse()
                    return path
                next_frontier.append(peer)
        frontier = next_frontier
    return None


def generate_config_paths(adg, num_paths, max_rounds=200):
    """Generate ``num_paths`` configuration walks covering every node.

    Returns a list of node-name lists (walks may revisit nodes used as
    through-hops). Raises :class:`HwGenError` if some node is unreachable
    from the control core.
    """
    adjacency = _adjacency(adg)
    core = adg.control_core()
    seed = core.name if core is not None else adg.node_names()[0]
    members = [n for n in adg.node_names() if n != seed]
    if not members:
        return [[seed]]

    reachable = _shortest_hops(adjacency, seed)
    unreachable = [n for n in members if n not in reachable]
    if unreachable:
        raise HwGenError(
            "nodes unreachable by configuration messages: "
            f"{sorted(unreachable)[:5]}"
        )

    num_paths = max(1, min(num_paths, len(members)))

    # --- Construction: grow p walks simultaneously, always extending the
    # currently shortest walk toward its nearest uncovered node; every
    # node a walk passes through counts as covered (it observes the
    # config words going by). This is the balanced spanning-tree-style
    # initialization.
    remaining = set(members)
    walks = [{"nodes": [], "position": seed} for _ in range(num_paths)]
    if core is None:
        # The seed is itself a configurable node: it heads the first walk.
        walks[0]["nodes"].append(seed)
    while remaining:
        walk = min(walks, key=lambda w: len(w["nodes"]))
        hop = _bfs_path(adjacency, walk["position"], remaining)
        if hop is None:
            raise HwGenError(
                "cannot extend configuration walk from "
                f"{walk['position']!r}"
            )
        walk["nodes"].extend(hop)
        walk["position"] = hop[-1]
        remaining -= set(hop)
    paths = [w["nodes"] for w in walks if w["nodes"]]

    # --- Iterative improvement: cut the longest walk's tail target and
    # re-home it to the walk that absorbs it most cheaply.
    for _ in range(max_rounds):
        if not _improve_once(adjacency, seed, paths):
            break
    return paths


def _improve_once(adjacency, seed, paths):
    """Cut exclusively-covered nodes off the longest walk's tail and
    splice them into the walk that absorbs them most cheaply; keep the
    move only if the maximum length strictly decreases."""
    longest_index = max(range(len(paths)), key=lambda i: len(paths[i]))
    longest = paths[longest_index]
    current_max = len(longest)
    if current_max <= 1 or len(paths) == 1:
        return False
    covered_by_others = set()
    for index, path in enumerate(paths):
        if index != longest_index:
            covered_by_others.update(path)

    # Find the longest removable tail: all its exclusive nodes must be
    # re-homed; shared nodes just disappear.
    for cut in range(1, current_max):
        tail = longest[current_max - cut:]
        orphans = [n for n in tail if n not in covered_by_others
                   and n not in longest[:current_max - cut]]
        if not orphans:
            paths[longest_index] = longest[:current_max - cut]
            return True
        if cut > 1:
            break  # only consider single-segment rehoming beyond free cuts
        # Re-home the orphan(s) to the cheapest other walk.
        best = None
        for other_index, other in enumerate(paths):
            if other_index == longest_index or not other:
                continue
            extension = []
            position = other[-1]
            feasible = True
            for orphan in orphans:
                hop = _bfs_path(adjacency, position, {orphan})
                if hop is None:
                    feasible = False
                    break
                extension.extend(hop)
                position = orphan
            if not feasible:
                continue
            grown = len(other) + len(extension)
            shrunk = current_max - cut
            new_max = max(
                [len(p) for i, p in enumerate(paths)
                 if i not in (longest_index, other_index)]
                + [grown, shrunk]
            )
            if new_max < current_max and (best is None or new_max < best[0]):
                best = (new_max, other_index, extension)
        if best is not None:
            _, other_index, extension = best
            paths[longest_index] = longest[:current_max - cut]
            paths[other_index] = paths[other_index] + extension
            return True
    return False


def ideal_longest_path(node_count, num_paths):
    """The paper's lower bound: ceil(n / p)."""
    return ceil_div(node_count, num_paths)


def longest_path_length(paths):
    return max(len(path) for path in paths)


def config_cycles(adg, num_paths=3, word_bits=64):
    """Configuration time estimate: the longest path is traversed one hop
    per cycle, delivering one config word per node visit."""
    paths = generate_config_paths(adg, num_paths)
    return longest_path_length(paths)


def coverage(paths, adg):
    """Which configurable nodes the paths cover (for validation)."""
    seen = set()
    for path in paths:
        seen.update(path)
    core = adg.control_core()
    needed = set(adg.node_names())
    if core is not None:
        needed.discard(core.name)
    return needed - seen
