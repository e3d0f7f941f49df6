"""Directed road-network model and the graph primitives everything else uses.

Nodes are population centers (origins), healthcare facilities (destinations)
or plain intersections (transshipment nodes).  Arcs carry travel times in
minutes; flood-vulnerable arcs additionally carry a mitigation cost and are
unusable unless upgraded.

Every search takes the roads it may not use as one set of closed arc ids:
``net.vulnerable_ids`` for the flooded network, the empty default for the
fully repaired one, ``net.vulnerable_ids - bought`` for a plan, and
``frozenset((aid,))`` for one road closed.  Every origin-to-facility fact
is read off reverse tables (``facility_times``): ``facility_ranking`` is
an origin's nearest-first list of facilities, and ``canonical_walk`` is
the one route walk, which says whether it backed out of a dead end.
``close_arcs`` closes more roads in a finished reverse table by repairing
it, not searching it again, whether the table was built with nothing
closed (closure ranking) or with a closed set of its own (a
branch-and-bound child's tables from its parent's); the tight-arc rule it
rests on also tells which closures need no repair
(``_closures_that_matter``).  ``cut_nodes`` of ``undirected_adjacency`` are
the network's articulation points, and ``bare_sides`` and
``bare_components`` are the one side-component finder, for prune's
technique 1 and the component mask.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping

#: absolute tolerance for travel-time / distance comparisons
DIST_TOL = 1e-9


class NetworkError(ValueError):
    """Structural problem in network data."""


class NodeKind(str, Enum):
    ORIGIN = "origin"
    TRANSSHIPMENT = "transshipment"
    DESTINATION = "destination"


@dataclass(frozen=True)
class RoadNode:
    """A network node.

    ``residents`` and ``weight`` are only meaningful on origins; ``capacity``
    only on destinations (infinite means uncapacitated).  Raw file attributes
    (beds, coordinates, pre-selection resident counts) live in ``meta``.
    """

    id: str
    kind: NodeKind = NodeKind.TRANSSHIPMENT
    residents: float = 0.0
    capacity: float = math.inf
    weight: float = 0.0
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise NetworkError("node with empty id")
        if self.residents < 0:
            raise NetworkError(f"node {self.id!r}: negative residents")
        if self.weight < 0:
            raise NetworkError(f"node {self.id!r}: negative weight")
        if self.capacity < 0:
            raise NetworkError(f"node {self.id!r}: negative capacity")
        if self.residents > 0 and self.kind is not NodeKind.ORIGIN:
            raise NetworkError(f"node {self.id!r}: residents on non-origin")
        if self.weight > 0 and self.kind is not NodeKind.ORIGIN:
            raise NetworkError(f"node {self.id!r}: weight on non-origin")
        if math.isfinite(self.capacity) and self.kind is not NodeKind.DESTINATION:
            raise NetworkError(f"node {self.id!r}: finite capacity on non-destination")


@dataclass(frozen=True)
class RoadArc:
    """A directed arc.  ``travel_time`` is in minutes.

    Vulnerable arcs are flooded out unless bought at ``mitigation_cost``
    dollars; non-vulnerable arcs must carry cost 0.  ``segment_id`` groups the
    two directions of a two-way road (defaults to the arc's own id).
    """

    id: str
    tail: str
    head: str
    travel_time: float
    vulnerable: bool = False
    mitigation_cost: float = 0.0
    segment_id: str | None = None
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise NetworkError("arc with empty id")
        if self.travel_time < 0 or not math.isfinite(self.travel_time):
            raise NetworkError(f"arc {self.id!r}: bad travel time {self.travel_time!r}")
        if self.mitigation_cost < 0:
            raise NetworkError(f"arc {self.id!r}: negative mitigation cost")
        if not self.vulnerable and self.mitigation_cost != 0:
            raise NetworkError(f"arc {self.id!r}: cost on non-vulnerable arc")

    @property
    def segment(self) -> str:
        return self.segment_id if self.segment_id is not None else self.id


class Network:
    """Immutable directed multigraph with deterministic (sorted-id) iteration."""

    __slots__ = ("nodes", "arcs", "vulnerable_ids", "_out", "_in")

    def __init__(self, nodes: Iterable[RoadNode], arcs: Iterable[RoadArc]):
        self.nodes: dict[str, RoadNode] = {}
        for n in sorted(nodes, key=lambda n: n.id):
            if n.id in self.nodes:
                raise NetworkError(f"duplicate node id {n.id!r}")
            self.nodes[n.id] = n
        self.arcs: dict[str, RoadArc] = {}
        out: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        inc: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        for a in sorted(arcs, key=lambda a: a.id):
            if a.id in self.arcs:
                raise NetworkError(f"duplicate arc id {a.id!r}")
            if a.tail not in self.nodes or a.head not in self.nodes:
                raise NetworkError(f"arc {a.id!r}: unknown endpoint")
            self.arcs[a.id] = a
            out[a.tail].append(a.id)
            inc[a.head].append(a.id)
        self.vulnerable_ids = frozenset(a.id for a in self.arcs.values()
                                        if a.vulnerable)
        self._out = {nid: tuple(ids) for nid, ids in out.items()}
        self._in = {nid: tuple(ids) for nid, ids in inc.items()}

    # -- deterministic accessors -------------------------------------------

    def out_arcs(self, node_id: str) -> tuple[str, ...]:
        if node_id not in self._out:
            raise NetworkError(f"unknown node {node_id!r}")
        return self._out[node_id]

    def in_arcs(self, node_id: str) -> tuple[str, ...]:
        if node_id not in self._in:
            raise NetworkError(f"unknown node {node_id!r}")
        return self._in[node_id]

    def origins(self) -> list[RoadNode]:
        return [n for n in self.nodes.values() if n.kind is NodeKind.ORIGIN]

    def destinations(self) -> list[RoadNode]:
        return [n for n in self.nodes.values() if n.kind is NodeKind.DESTINATION]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.nodes

    def __repr__(self) -> str:
        return (f"Network({len(self.nodes)} nodes, {len(self.arcs)} arcs, "
                f"{len(self.vulnerable_ids)} vulnerable)")


# -- shortest paths ---------------------------------------------------------


def dijkstra(net: Network, sources: Iterable[str],
             closed: frozenset[str] = frozenset(),
             reverse: bool = False,
             labels: Mapping[str, float] | None = None) -> dict[str, float]:
    """Settled travel times from the nearest of ``sources`` over open arcs.

    The one shortest-path kernel.  Forward it gives times *from* the
    sources; with ``reverse`` it walks arcs backward, giving times *to* the
    nearest source.  Arcs whose ids are in ``closed`` (default: none) are
    skipped.  Returns ``{node_id: minutes}`` in settling order; unreachable
    nodes are absent.

    The seeded form, with ``labels``, resumes a finished search instead of
    starting one (``close_arcs`` uses it).  Each source starts at its
    label rather than at 0, and every labelled node keeps its label unless
    it is offered one smaller by more than ``DIST_TOL``; only unlabelled
    nodes are free to be relabelled.  The result then holds the sources
    and the nodes the search settled from them.
    """
    heap: list[tuple[float, str]] = []
    if labels is None:
        best: dict[str, float] = {}
        for s in sorted(set(sources)):
            if s not in net:
                raise NetworkError(f"unknown node {s!r}")
            best[s] = 0.0
            heap.append((0.0, s))
    else:
        best = dict(labels)
        heap = [(best[s], s) for s in sources]
    heapq.heapify(heap)
    incident = net._in if reverse else net._out
    arcs = net.arcs
    settled: dict[str, float] = {}
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = d
        for aid in incident[u]:
            if aid in closed:
                continue
            arc = arcs[aid]
            v = arc.tail if reverse else arc.head
            nd = d + arc.travel_time
            if nd < best.get(v, math.inf) - DIST_TOL:
                best[v] = nd
                heapq.heappush(heap, (nd, v))
    return settled


def shortest_paths(net: Network, source: str,
                   closed: frozenset[str] = frozenset()) -> dict[str, float]:
    """Dijkstra travel times from ``source`` over the arcs not in ``closed``.

    Returns ``{node_id: minutes}``; unreachable nodes are absent.
    """
    return dijkstra(net, (source,), closed)


def facility_times(net: Network, closed: frozenset[str] = frozenset(),
                   ) -> dict[str, dict[str, float]]:
    """Travel times to every facility: ``{facility_id: {node_id: minutes}}``.

    One reverse search per facility, in id order, over the arcs not in
    ``closed``; nodes that cannot reach a facility are absent from its
    table.  Every stage that needs origin-to-facility times reads them from
    this table.
    """
    return {d.id: dijkstra(net, (d.id,), closed, reverse=True)
            for d in net.destinations()}


def facility_ranking(tables: Mapping[str, Mapping[str, float]],
                     origin: str) -> list[tuple[float, str]]:
    """The facilities ``origin`` reaches in ``tables`` (``facility_times``'
    shape), as (minutes, facility) pairs, nearest first and ties by id;
    empty if it reaches none."""
    return sorted((t[origin], d) for d, t in tables.items() if origin in t)


def _closures_that_matter(net: Network, table: Mapping[str, float],
                          origin_ids: Iterable[str]) -> frozenset[str]:
    """The arcs whose closure can change an origin's time in ``table``.

    ``table`` is a reverse search (times *to* its sources).  An arc is kept
    when it is tight, ``travel_time + table[head] - table[tail] <=
    2*DIST_TOL``, and its tail is reached from some origin along tight arcs;
    one forward walk finds them all.  Closing any other arc leaves every
    origin's time bit-identical, so its ``close_arcs`` repair can be
    skipped:

    * a looser arc's offer never settles its tail, and never blocks the
      offer that does in the kernel's ``< best - DIST_TOL`` test, as long
      as no node is offered a staircase of times, each within DIST_TOL of
      the last, that spans more than 2*DIST_TOL (nanominute steps);
    * a tight arc that no origin reaches along tight arcs can move only
      times that no origin's shortest path visits.
    """
    seen = {o for o in origin_ids if o in table}
    stack = list(seen)
    matter: set[str] = set()
    while stack:
        u = stack.pop()
        at_u = table[u]
        for aid in net.out_arcs(u):
            arc = net.arcs[aid]
            at_head = table.get(arc.head)
            if at_head is None or \
                    arc.travel_time + at_head - at_u > 2 * DIST_TOL:
                continue
            matter.add(aid)
            if arc.head not in seen:
                seen.add(arc.head)
                stack.append(arc.head)
    return frozenset(matter)


def close_arcs(net: Network, table: Mapping[str, float],
               sources: Iterable[str], arcs: Iterable[str],
               closed: frozenset[str] = frozenset(),
               ) -> dict[str, float | None]:
    """The labels of a reverse table that change when ``arcs`` close too.

    ``table`` is ``dijkstra(net, sources, closed, reverse=True)``: by
    default nothing is closed yet.  Returns ``{node_id: minutes}`` for just
    the nodes whose time moves, with None for a node that no longer
    reaches a source; applied to ``table`` it equals ``dijkstra(net,
    sources, closed | frozenset(arcs), reverse=True)`` to the last bit.
    This is a dynamic shortest-path repair (Ramalingam & Reps,
    J. Algorithms 21, 1996):

    * only the affected nodes can move: the tail of each newly closed arc
      that is tight in ``table`` (``travel_time + table[head] -
      table[tail] <= 2*DIST_TOL``, the slack ``_closures_that_matter``
      explains) and every node that reaches one of those tails along tight
      open arcs.  Sources stay at 0 and are never affected.  The set is
      wider than the subtree under the closed arcs, because a closed arc
      off the tree can still have blocked a later offer within DIST_TOL;
      an arc in ``closed`` blocked nothing, so the walk skips it;
    * the kernel then relabels them, seeded with the unchanged label of
      every other node that has an arc into the set open after the
      closure, under the same ``< best - DIST_TOL`` rule and ``(time,
      id)`` heap order as a fresh search.

    A label can fall, by less than DIST_TOL: a closed arc may have carried
    the offer that kept a slightly smaller one out.
    """
    arcs_by_id, incoming, outgoing = net.arcs, net._in, net._out
    shut = frozenset(arcs) - closed
    affected: set[str] = set()
    for aid in shut:
        arc = arcs_by_id[aid]
        at_tail = table.get(arc.tail)
        at_head = table.get(arc.head)
        if at_tail is not None and at_head is not None and \
                arc.travel_time + at_head - at_tail <= 2 * DIST_TOL:
            affected.add(arc.tail)
    stack = list(affected)
    while stack:
        v = stack.pop()
        at_v = table[v]
        for aid in incoming[v]:
            arc = arcs_by_id[aid]
            u = arc.tail
            if u in affected:
                continue
            at_u = table.get(u)
            if at_u is not None and \
                    arc.travel_time + at_v - at_u <= 2 * DIST_TOL and \
                    aid not in closed:
                affected.add(u)
                stack.append(u)
    affected.difference_update(sources)
    if not affected:
        return {}
    shut |= closed
    seeds: set[str] = set()
    for v in affected:
        for aid in outgoing[v]:
            u = arcs_by_id[aid].head
            if u not in affected and u in table and aid not in shut:
                seeds.add(u)
    labels = dict(table)
    for v in affected:
        del labels[v]
    settled = dijkstra(net, seeds, shut, reverse=True, labels=labels)
    return {v: settled.get(v) for v in affected
            if settled.get(v) != table[v]}


def canonical_walk(net: Network, source: str, target: str,
                   closed: frozenset[str], dist_to_target: Mapping[str, float],
                   ) -> tuple[tuple[str, ...], bool] | None:
    """The deterministic shortest route from ``source`` to ``target`` over
    the arcs not in ``closed``: (arc ids, whether it backed out of a dead
    end), or None if ``source`` cannot reach ``target``.

    ``dist_to_target`` is the reverse search from the target over the same
    closed set (``dijkstra(net, (target,), closed, reverse=True)``, or its
    entry in ``facility_times``), so one search serves every source; the
    route's minutes are ``dist_to_target[source]``.  The walk is a
    depth-first search from the source over tight arcs (arcs that stay on
    some shortest path), smallest arc id first, that backs out of dead
    ends.  Dead ends arise only on zero-time cycles; without them this is
    the greedy smallest-id walk and returns the lexicographically smallest
    arc-id sequence among equally short paths.
    """
    if source not in dist_to_target:
        return None
    path: list[str] = []
    stack = [(source, iter(net.out_arcs(source)))]
    visited = {source}
    backed = False
    while stack[-1][0] != target:
        u, exits = stack[-1]
        remaining = dist_to_target[u]
        for aid in exits:
            if aid in closed:
                continue
            arc = net.arcs[aid]
            dv = dist_to_target.get(arc.head)
            if dv is None or arc.head in visited:
                continue
            if abs(arc.travel_time + dv - remaining) <= DIST_TOL:
                path.append(aid)
                stack.append((arc.head, iter(net.out_arcs(arc.head))))
                visited.add(arc.head)
                break
        else:  # every tight exit leads back into the search: back out
            stack.pop()
            if not path:  # pragma: no cover - the search tree reaches t
                raise NetworkError(
                    f"no tight path from {source!r} to {target!r}")
            path.pop()
            backed = True
    return tuple(path), backed


# -- connectivity structure -------------------------------------------------


def undirected_adjacency(net: Network) -> dict[str, set[str]]:
    """Neighbour sets, loops dropped; ``net`` needs only ``nodes`` and ``arcs``."""
    adj: dict[str, set[str]] = {nid: set() for nid in net.nodes}
    for arc in net.arcs.values():
        if arc.tail != arc.head:
            adj[arc.tail].add(arc.head)
            adj[arc.head].add(arc.tail)
    return adj


def cut_nodes(adj: Mapping[str, AbstractSet[str]]) -> set[str]:
    """Cut nodes of an undirected adjacency (iterative Tarjan); of
    ``undirected_adjacency(net)``, the network's articulation points."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    parent: dict[str, str | None] = {}
    aps: set[str] = set()
    counter = 0
    for root in sorted(adj):
        if root in index:
            continue
        parent[root] = None
        stack: list[tuple[str, Iterator[str]]] = []
        index[root] = low[root] = counter
        counter += 1
        stack.append((root, iter(adj[root])))
        root_children = 0
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if v not in index:
                    parent[v] = u
                    if u == root:
                        root_children += 1
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append((v, iter(adj[v])))
                    advanced = True
                    break
                elif v != parent[u]:
                    low[u] = min(low[u], index[v])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if p != root and low[u] >= index[p]:
                        aps.add(p)
        if root_children >= 2:
            aps.add(root)
    return aps


def bare_components(adj: Mapping[str, AbstractSet[str]],
                    bare: Callable[[str], bool]) -> list[set[str]]:
    """The components of ``adj`` whose every node is ``bare``.

    They come back in the order of their first node in ``adj``.
    """
    seen: set[str] = set()

    def flood(starts: list[str]) -> set[str]:
        comp = set(starts)
        seen.update(starts)
        while starts:
            for v in adj[starts.pop()] - seen:
                seen.add(v)
                comp.add(v)
                starts.append(v)
        return comp

    flood([n for n in adj if not bare(n)])
    return [flood([n]) for n in adj if n not in seen]


def bare_sides(neighbors: Callable[[str], AbstractSet[str]], j: str,
               bare: Callable[[str], bool]) -> list[set[str]]:
    """The sides of ``j`` whose every node is ``bare``, if ``j`` is a cut node.

    A side is a component of the graph minus ``j`` that holds a neighbour
    of ``j``; sides come back sorted by their smallest node id.  A search
    from each neighbour stops at the first node that is not bare or was
    seen by an earlier stopped search; one that runs out of nodes has found
    a bare side.
    """
    nbrs = neighbors(j)
    reached: set[str] = set()  # the nodes of stopped searches
    sides: list[set[str]] = []
    for u in sorted(nbrs):
        if u in reached or any(u in s for s in sides):
            continue
        comp, stack = {j, u}, [u]
        while stack:
            x = stack.pop()
            if x in reached or not bare(x):
                reached |= comp
                break
            for v in neighbors(x) - comp:
                comp.add(v)
                stack.append(v)
        else:
            comp.remove(j)
            sides.append(comp)
    if not sides or nbrs <= sides[0]:  # j cuts nothing off
        return []
    return sorted(sides, key=min)
