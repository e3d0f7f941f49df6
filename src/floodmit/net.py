"""Directed road-network model and the graph primitives everything else uses.

Nodes are population centers (origins), healthcare facilities (destinations)
or plain intersections (transshipment nodes).  Arcs carry travel times in
minutes; flood-vulnerable arcs additionally carry a mitigation cost and are
unusable unless upgraded.

A `Network` is checked records; its graph is its index.  Every search runs
on numbers, not ids: ``net.index()`` is a `GraphIndex`, built on first use
and kept with the network (which is immutable), that numbers nodes and arcs
in sorted-id order.  Each node lists its out- and in-arcs as
``(arc number, other end, minutes)`` records in arc-id order, so the
kernel's ``(time, node number)`` heap breaks every tie as a
``(time, node id)`` heap would.  A table is a list indexed by node number,
``inf`` where a node is unreached.  Every caller works in numbers and
turns them back into ids only in what it returns (the solver's
branch-and-bound numbers its purchase units in id order too, so ids appear
only in its `Solution`); ``shortest_paths`` is the one id-keyed search.

Every search takes the roads it may not use as one set of closed arc
numbers: the vulnerable arcs for the flooded network, the empty default
for the fully repaired one, the vulnerable arcs not bought for a plan, and
one arc for one road closed.  Every origin-to-facility fact is read off
the reverse tables of ``GraphIndex.facility_times``: ``facility_ranking``
is an origin's nearest-first list of facilities, and ``canonical_walk`` is
the one route walk, which says whether it backed out of a dead end.
``close_arcs`` closes more roads in a finished reverse table by repairing
it, not searching it again, whether the table was built with nothing
closed (closure ranking) or with a closed set of its own (a
branch-and-bound child's tables from its parent's); the tight-arc rule it
rests on also tells which closures need no repair
(``closures_that_matter``).

Where only the nearest facility matters, one table serves instead of one
per facility.  ``nearest_times`` is a single reverse search from every
facility at once: each node's minutes to its nearest facility, and its
owner, the facility ``facility_ranking`` ranks first (least minutes, ties
by number), which it reaches by exact offers.  The kernel's DIST_TOL rule
settles a near tie between two facilities by which offer came first, so
where two owners' offers come within 2*DIST_TOL of one node without an
exact tie, the table is contested and given up (None); otherwise its
minutes equal the least per-facility label bit for bit, as the tests check
on random towns with snapped times.
``close_nearest`` repairs it as ``close_arcs`` does, owners included, and
``canonical_walk`` walks it to an origin's owner.

One depth-first search, ``cut_nodes``, gives an undirected adjacency's cut
nodes (of ``undirected_adjacency``, the network's articulation points) and
its components whose every node is bare; with ``bare_sides`` it is the one
side-component finder, for prune's technique 1 and the component mask.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import (AbstractSet, Callable, Collection, Iterable, Mapping,
                    Sequence)

#: absolute tolerance for travel-time / distance comparisons
DIST_TOL = 1e-9

_INF = math.inf
_BY_ID = attrgetter("id")
_TAIL, _HEAD = attrgetter("tail"), attrgetter("head")
_MINUTES, _KIND = attrgetter("travel_time"), attrgetter("kind")


class NetworkError(ValueError):
    """Structural problem in network data."""


class NodeKind(str, Enum):
    ORIGIN = "origin"
    TRANSSHIPMENT = "transshipment"
    DESTINATION = "destination"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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

    def __init__(self, id: str, tail: str, head: str, travel_time: float,
                 vulnerable: bool = False, mitigation_cost: float = 0.0,
                 segment_id: str | None = None,
                 meta: Mapping[str, object] | None = None) -> None:
        # written out: the generated one looks up object.__setattr__ per
        # field, then calls __post_init__; ingest builds one per road
        if not id:
            raise NetworkError("arc with empty id")
        if travel_time < 0 or not math.isfinite(travel_time):
            raise NetworkError(f"arc {id!r}: bad travel time {travel_time!r}")
        if mitigation_cost < 0:
            raise NetworkError(f"arc {id!r}: negative mitigation cost")
        if not vulnerable and mitigation_cost != 0:
            raise NetworkError(f"arc {id!r}: cost on non-vulnerable arc")
        put = object.__setattr__
        put(self, "id", id)
        put(self, "tail", tail)
        put(self, "head", head)
        put(self, "travel_time", travel_time)
        put(self, "vulnerable", vulnerable)
        put(self, "mitigation_cost", mitigation_cost)
        put(self, "segment_id", segment_id)
        put(self, "meta", {} if meta is None else meta)

    @property
    def segment(self) -> str:
        return self.segment_id if self.segment_id is not None else self.id


class Network:
    """A directed multigraph as checked records, ``nodes`` and ``arcs`` by
    id in id order; its graph is its index, which ``out_arcs`` and
    ``in_arcs`` read."""

    __slots__ = ("nodes", "arcs", "vulnerable_ids", "_index")

    def __init__(self, nodes: Iterable[RoadNode], arcs: Iterable[RoadArc]):
        node_list = sorted(nodes, key=_BY_ID)
        self.nodes: dict[str, RoadNode] = {n.id: n for n in node_list}
        if len(self.nodes) != len(node_list):
            repeat = next(b.id for a, b in zip(node_list, node_list[1:])
                          if a.id == b.id)
            raise NetworkError(f"duplicate node id {repeat!r}")
        arc_list = sorted(arcs, key=_BY_ID)
        self.arcs: dict[str, RoadArc] = {a.id: a for a in arc_list}
        known, prev = self.nodes, None
        for a in arc_list:  # the first fault in id order is reported
            if a.id == prev:
                raise NetworkError(f"duplicate arc id {a.id!r}")
            if a.tail not in known or a.head not in known:
                raise NetworkError(f"arc {a.id!r}: unknown endpoint")
            prev = a.id
        self.vulnerable_ids = frozenset(a.id for a in arc_list if a.vulnerable)
        self._index: GraphIndex | None = None

    # -- deterministic accessors -------------------------------------------

    def out_arcs(self, node_id: str) -> tuple[str, ...]:
        """The ids of the arcs out of ``node_id``, in id order."""
        g = self.index()
        (u,) = g.nodes_of((node_id,))
        return tuple([g.arc_ids[a] for a, _, _ in g.out[u]])

    def in_arcs(self, node_id: str) -> tuple[str, ...]:
        """The ids of the arcs into ``node_id``, in id order."""
        g = self.index()
        (u,) = g.nodes_of((node_id,))
        return tuple([g.arc_ids[a] for a, _, _ in g.inc[u]])

    def origins(self) -> list[RoadNode]:
        return [n for n in self.nodes.values() if n.kind is NodeKind.ORIGIN]

    def destinations(self) -> list[RoadNode]:
        return [n for n in self.nodes.values() if n.kind is NodeKind.DESTINATION]

    def index(self) -> GraphIndex:
        """The network's numbering for the search kernels, built on the
        first call."""
        if self._index is None:
            self._index = GraphIndex(self)
        return self._index

    def __repr__(self) -> str:
        return (f"Network({len(self.nodes)} nodes, {len(self.arcs)} arcs, "
                f"{len(self.vulnerable_ids)} vulnerable)")


# -- shortest paths ---------------------------------------------------------

#: one arc as a node lists it: (arc number, the arc's other end, minutes)
ArcRecord = tuple[int, int, float]


class GraphIndex:
    """A network numbered for the search kernels; ``net.index()`` builds it.

    Node and arc numbers follow sorted-id order: ``node_ids[i]`` is node
    ``i`` and ``node_no`` maps back, likewise ``arc_ids`` and ``arc_no``.
    Per arc number, ``tail``, ``head`` and ``minutes``; per node number,
    ``out`` and ``inc`` list its out- and in-arcs as `ArcRecord` tuples
    in arc-id order.  ``origins`` and ``dests`` are the origins' and
    facilities' numbers, in id order.  Tables are lists indexed by node
    number, ``inf`` where a node is unreached; closed sets hold arc numbers.
    """

    __slots__ = ("node_ids", "node_no", "arc_ids", "arc_no", "tail", "head",
                 "minutes", "out", "inc", "origins", "dests")

    def __init__(self, net: Network) -> None:
        self.node_ids = node_ids = tuple(net.nodes)
        self.node_no = node_no = dict(zip(node_ids, range(len(node_ids))))
        self.arc_ids = tuple(net.arcs)
        numbers = range(len(self.arc_ids))
        self.arc_no = dict(zip(self.arc_ids, numbers))
        arcs = net.arcs.values()
        self.tail = list(map(node_no.__getitem__, map(_TAIL, arcs)))
        self.head = list(map(node_no.__getitem__, map(_HEAD, arcs)))
        self.minutes = list(map(_MINUTES, arcs))
        self.out = _grouped(self.tail, zip(numbers, self.head, self.minutes),
                            len(node_ids))
        self.inc = _grouped(self.head, zip(numbers, self.tail, self.minutes),
                            len(node_ids))
        kinds = list(map(_KIND, net.nodes.values()))
        origin, dest = NodeKind.ORIGIN, NodeKind.DESTINATION
        self.origins = tuple([i for i, kind in enumerate(kinds)
                              if kind is origin])
        self.dests = tuple([i for i, kind in enumerate(kinds) if kind is dest])

    # -- ids at the boundary -----------------------------------------------

    def nodes_of(self, node_ids: Iterable[str]) -> list[int]:
        """Node numbers; an unknown id is a `NetworkError`."""
        try:
            return [self.node_no[nid] for nid in node_ids]
        except KeyError as exc:
            raise NetworkError(f"unknown node {exc.args[0]!r}") from None

    def arcs_of(self, arc_ids: Iterable[str]) -> frozenset[int]:
        """Arc numbers; an id the network lacks is dropped, as no search
        could use that arc."""
        arc_no = self.arc_no
        return frozenset([arc_no[aid] for aid in arc_ids if aid in arc_no])

    # -- the kernels --------------------------------------------------------

    def dijkstra(self, sources: Iterable[int],
                 closed: AbstractSet[int] = frozenset(),
                 reverse: bool = False,
                 labels: list[float] | None = None,
                 ) -> tuple[list[float], list[int]]:
        """Travel times from the nearest of ``sources`` over open arcs,
        and the nodes in the order they settled.

        The one shortest-path loop.  Forward it gives times *from* the
        sources; with ``reverse`` it walks arcs backward, giving times *to*
        the nearest source.  Arcs in ``closed`` are skipped.  The heap
        holds ``(time, node number)`` pairs, so ties break by node id.

        The seeded form, with ``labels``, resumes a finished search instead
        of starting one (``close_arcs`` uses it); ``labels`` is updated in
        place and returned.  Each source starts at its label rather than
        at 0, and every labelled node keeps its label unless it is offered
        one smaller by more than ``DIST_TOL``; only unlabelled (``inf``)
        nodes are free to be relabelled.  The settling order then holds the
        sources and the nodes the search settled from them.
        """
        starts = set(sources)
        if labels is None:
            best = [_INF] * len(self.node_ids)
            for s in starts:
                best[s] = 0.0
        else:
            best = labels
        heap = [(best[s], s) for s in starts]
        heapq.heapify(heap)
        adjacent = self.inc if reverse else self.out
        push, pop = heapq.heappush, heapq.heappop
        order: list[int] = []
        while heap:
            d, u = pop(heap)
            if d > best[u]:
                continue  # a stale entry: u settled at its smaller label
            order.append(u)
            for a, v, t in adjacent[u]:
                if a in closed:
                    continue
                nd = d + t
                if nd < best[v] - DIST_TOL:
                    best[v] = nd
                    push(heap, (nd, v))
        return best, order

    def facility_times(self, closed: AbstractSet[int] = frozenset(),
                       ) -> dict[int, list[float]]:
        """One reverse table per facility, in id order, over the arcs not
        in ``closed``."""
        return {d: self.dijkstra((d,), closed, reverse=True)[0]
                for d in self.dests}

    @staticmethod
    def facility_ranking(tables: Mapping[int, Sequence[float]],
                         origin: int) -> list[tuple[float, int]]:
        """The facilities ``origin`` reaches in ``tables``, as (minutes,
        facility) pairs, nearest first and ties by id; empty if none."""
        return sorted((t[origin], d) for d, t in tables.items()
                      if t[origin] < _INF)

    def closures_that_matter(self, table: Sequence[float],
                             origins: Iterable[int]) -> frozenset[int]:
        """The arcs whose closure can change an origin's time in ``table``.

        ``table`` is a reverse search (times *to* its sources).  An arc is
        kept when it is tight, ``minutes + table[head] - table[tail] <=
        2*DIST_TOL``, and its tail is reached from some origin along tight
        arcs; one forward walk finds them all.  Closing any other arc leaves
        every origin's time bit-identical, so its ``close_arcs`` repair can
        be skipped:

        * a looser arc's offer never settles its tail, and never blocks the
          offer that does in the kernel's ``< best - DIST_TOL`` test, as
          long as no node is offered a staircase of times, each within
          DIST_TOL of the last, that spans more than 2*DIST_TOL (nanominute
          steps);
        * a tight arc that no origin reaches along tight arcs can move only
          times that no origin's shortest path visits.
        """
        seen = {o for o in origins if table[o] < _INF}
        stack = list(seen)
        out = self.out
        matter: set[int] = set()
        while stack:
            u = stack.pop()
            at_u = table[u]
            for a, v, t in out[u]:
                if t + table[v] - at_u > 2 * DIST_TOL:
                    continue  # loose, or v unreached
                matter.add(a)
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return frozenset(matter)

    def close_arcs(self, table: Sequence[float], sources: Iterable[int],
                   arcs: Iterable[int], closed: AbstractSet[int] = frozenset(),
                   ) -> dict[int, float]:
        """The labels of a reverse table that change when ``arcs`` close too.

        ``table`` is ``self.dijkstra(sources, closed, reverse=True)[0]``: by
        default nothing is closed yet.  Returns ``{node: minutes}`` for just
        the nodes whose time moves, ``inf`` for a node that no longer
        reaches a source; applied to ``table`` it equals ``dijkstra(sources,
        closed | arcs, reverse=True)`` to the last bit.  This is a dynamic
        shortest-path repair (Ramalingam & Reps, J. Algorithms 21, 1996):

        * only the affected nodes can move: the tail of each newly closed
          arc that is tight in ``table`` (``minutes + table[head] -
          table[tail] <= 2*DIST_TOL``, the slack ``closures_that_matter``
          explains) and every node that reaches one of those tails along
          tight open arcs.  Sources stay at 0 and are never affected.  The
          set is wider than the subtree under the closed arcs, because a
          closed arc off the tree can still have blocked a later offer
          within DIST_TOL; an arc in ``closed`` blocked nothing, so the walk
          skips it;
        * the kernel then relabels them, seeded with the unchanged label of
          every other node that has an arc into the set open after the
          closure, under the same ``< best - DIST_TOL`` rule and heap order
          as a fresh search.

        A label can fall, by less than DIST_TOL: a closed arc may have
        carried the offer that kept a slightly smaller one out.
        """
        found = self._relabel(table, sources, arcs, closed)
        if found is None:
            return {}
        affected, labels, _, _ = found
        return {v: labels[v] for v in affected if labels[v] != table[v]}

    def _relabel(self, table: Sequence[float], sources: Iterable[int],
                 arcs: Iterable[int], closed: AbstractSet[int],
                 ) -> tuple[set[int], list[float], list[int],
                            frozenset[int]] | None:
        """``close_arcs``'s repair: (the affected nodes, the table with
        them relabelled, the settling order of the seeded search, the arcs
        closed after the closure), or None if no node is affected."""
        tail, head, minutes = self.tail, self.head, self.minutes
        shut = frozenset(arcs) - closed
        affected: set[int] = set()
        for a in shut:
            at_tail = table[tail[a]]
            if at_tail < _INF and \
                    minutes[a] + table[head[a]] - at_tail <= 2 * DIST_TOL:
                affected.add(tail[a])
        stack = list(affected)
        inc = self.inc
        while stack:
            v = stack.pop()
            at_v = table[v]
            for a, u, t in inc[v]:
                if u in affected:
                    continue
                at_u = table[u]
                if at_u < _INF and t + at_v - at_u <= 2 * DIST_TOL and \
                        a not in closed:
                    affected.add(u)
                    stack.append(u)
        affected.difference_update(sources)
        if not affected:
            return None
        shut |= closed
        out = self.out
        seeds = {u for v in affected for a, u, _ in out[v]
                 if u not in affected and table[u] < _INF and a not in shut}
        labels = list(table)
        for v in affected:
            labels[v] = _INF
        labels, order = self.dijkstra(seeds, shut, reverse=True, labels=labels)
        return affected, labels, order, shut

    # -- the nearest-facility table ------------------------------------------

    def nearest_times(self, closed: AbstractSet[int] = frozenset(),
                      ) -> tuple[list[float], list[int]] | None:
        """The nearest-facility table over the arcs not in ``closed``:
        (minutes, owner), or None where two facilities contest a node.

        One reverse search from every facility gives each node its minutes
        to the nearest one, and `_claim` gives it its owner: the facility
        ``facility_ranking`` would rank first (least minutes, then least
        number), ``-1`` where no facility is reached.  The table is the
        graph Voronoi partition of the nodes by nearest facility (Erwig,
        *Networks* 36(3), 2000)."""
        minutes, order = self.dijkstra(self.dests, closed, reverse=True)
        owner = [-1] * len(minutes)
        for d in self.dests:
            owner[d] = d
        if not self._claim(minutes, owner, order, closed):
            return None
        return minutes, owner

    def close_nearest(self, minutes: Sequence[float], owner: Sequence[int],
                      arcs: Iterable[int], closed: AbstractSet[int] = frozenset(),
                      ) -> tuple[dict[int, float], dict[int, int]] | None:
        """``close_arcs`` for a nearest-facility table, owners included:
        (the minutes that move, the owners that change), or None where two
        facilities contest a node after the closure.

        ``(minutes, owner)`` is ``nearest_times(closed)``; applied to it the
        result equals ``nearest_times(closed | arcs)``.  Only the nodes
        ``close_arcs`` relabels can change owner: every other node keeps
        its label and every exact offer it had.  So `_claim` names their
        owners, and the arcs into them from the other nodes are checked for
        a contest too."""
        found = self._relabel(minutes, self.dests, arcs, closed)
        if found is None:
            return {}, {}
        affected, labels, order, shut = found
        owners = list(owner)
        for v in affected:
            owners[v] = -1
        if not self._claim(labels, owners, [v for v in order if v in affected],
                           shut):
            return None
        inc = self.inc
        for v in affected:
            at_v, mine = labels[v], owners[v]
            for a, x, t in inc[v]:
                if x in affected or a in shut:
                    continue
                offer, at_x = at_v + t, labels[x]
                if offer <= at_x + 2 * DIST_TOL and owners[x] != mine and (
                        offer != at_x or mine < owners[x]):
                    return None
        return ({v: labels[v] for v in affected if labels[v] != minutes[v]},
                {v: owners[v] for v in affected if owners[v] != owner[v]})

    def _claim(self, table: Sequence[float], owner: list[int],
               nodes: Iterable[int], closed: AbstractSet[int]) -> bool:
        """Name the owner of each of ``nodes`` whose owner is ``-1``, in
        ``nodes`` order (the order they settled in ``table``'s reverse
        search), and tell whether the owners are uncontested.

        An open arc ``v -> u`` offers ``v`` the time ``table[u] + minutes``.
        A node's owner is the least owner among the nodes that offer it
        exactly its label (the node that labelled it is one), and a
        facility owns itself.  So an exact offer over a zero-time arc from
        a node named later lowers ``v``'s owner, and every owner named
        through ``v``.  An offer within 2*DIST_TOL of ``v``'s label from
        another owner contests ``v``, unless it is an exact tie that ``v``'s
        owner wins: it could have gone the other way in one facility's own
        search.  Without a contest the table's minutes equal the least
        per-facility label, bit for bit on every town the tests try, and the
        owner is the facility of the least label, ties by number."""
        out = self.out
        tol = 2 * DIST_TOL
        near: list[tuple[int, int, float]] = []  # offers judged at the end
        later: list[tuple[int, int]] = []  # exact offers from unnamed nodes
        for v in nodes:
            at_v = table[v]
            edge = at_v + tol
            # the first near offer, and the list of all of them once there
            # are two: most nodes have one, from the node that labelled them
            first, more = -1, None
            for a, u, t in out[v]:
                if table[u] + t <= edge and a not in closed:
                    offer = table[u] + t
                    if first < 0:
                        first, first_offer = u, offer
                    elif more is None:
                        more = [(first, first_offer), (u, offer)]
                    else:
                        more.append((u, offer))
            mine = owner[v]
            if more is None:
                if first < 0:
                    continue  # a source no arc offers anything near
                if mine < 0:  # the one offer labelled v
                    owner[v] = owner[first]
                    continue
                more = [(first, first_offer)]
            for u, offer in more:
                if offer != at_v or owner[v] >= 0:  # or v is a facility
                    near.append((v, u, offer))
                elif owner[u] < 0:  # u settles later
                    later.append((v, u))
                elif mine < 0 or owner[u] < mine:
                    mine = owner[u]
            owner[v] = mine
        stack = [(v, owner[u]) for v, u in later]
        while stack:
            v, d = stack.pop()
            if d < owner[v] and v not in self.dests:
                owner[v] = d
                stack.extend((x, d) for a, x, t in self.inc[v]
                             if table[v] + t == table[x] and a not in closed)
        return all(owner[u] == owner[v]
                   or (offer == table[v] and owner[u] > owner[v])
                   for v, u, offer in near)

    def canonical_walk(self, source: int, target: int,
                       closed: AbstractSet[int],
                       dist_to_target: Sequence[float],
                       owner: Sequence[int] | None = None,
                       ) -> tuple[tuple[int, ...], bool] | None:
        """The deterministic shortest route from ``source`` to ``target``
        over the arcs not in ``closed``: (arc numbers, whether it backed out
        of a dead end), or None if ``source`` cannot reach ``target``.

        ``dist_to_target`` is the reverse table from the target over the
        same closed set (``dijkstra((target,), closed, reverse=True)[0]``,
        or its entry in ``facility_times``), so one search serves every
        source; the route's minutes are ``dist_to_target[source]``.  The
        walk is a depth-first search from the source over tight arcs (arcs
        that stay on some shortest path), smallest arc id first, that backs
        out of dead ends.  Dead ends arise only on zero-time cycles; without
        them this is the greedy smallest-id walk and returns the
        lexicographically smallest arc-id sequence among equally short
        paths.

        An uncontested nearest-facility table (``nearest_times``) serves
        too, with the source's owner as the target and the table's owners
        as ``owner``.  The walk then skips an exit into a node another
        facility owns: every node it reaches has an owner no smaller than
        the target, so that node does not reach the target at its label.
        The route, and whether it backed out, are the owner's own table's.
        """
        if dist_to_target[source] == _INF:
            return None
        out = self.out
        path: list[int] = []
        stack = [(source, iter(out[source]))]
        visited = {source}
        backed = False
        while stack[-1][0] != target:
            u, exits = stack[-1]
            remaining = dist_to_target[u]
            for a, v, t in exits:
                if a in closed or v in visited:
                    continue
                if abs(t + dist_to_target[v] - remaining) <= DIST_TOL and (
                        owner is None or owner[v] == target):
                    path.append(a)
                    stack.append((v, iter(out[v])))
                    visited.add(v)
                    break
            else:  # every tight exit leads back into the search: back out
                stack.pop()
                if not path:  # pragma: no cover - the search tree reaches t
                    raise NetworkError(
                        f"no tight path from {self.node_ids[source]!r} to "
                        f"{self.node_ids[target]!r}")
                path.pop()
                backed = True
        return tuple(path), backed


def _grouped(keys: Iterable[int], records: Iterable[ArcRecord],
             n: int) -> tuple[tuple[ArcRecord, ...], ...]:
    """``records`` grouped by their ``keys`` (numbers below ``n``), each
    group in record order."""
    groups: list[list[ArcRecord]] = [[] for _ in range(n)]
    for k, record in zip(keys, records):
        groups[k].append(record)
    return tuple(map(tuple, groups))


def shortest_paths(net: Network, source: str,
                   closed: Collection[str] = frozenset()) -> dict[str, float]:
    """Travel times from ``source`` over the arcs whose ids are not in
    ``closed``: ``{node_id: minutes}`` in settling order, unreachable nodes
    absent.  The one id-keyed search (``GraphIndex.dijkstra``); an unknown
    ``source`` is a `NetworkError`."""
    g = net.index()
    best, order = g.dijkstra(g.nodes_of((source,)), g.arcs_of(closed))
    ids = g.node_ids
    return {ids[u]: best[u] for u in order}


# -- connectivity structure -------------------------------------------------


def undirected_adjacency(net: Network) -> dict[str, set[str]]:
    """Neighbour sets, loops dropped; ``net`` needs only ``nodes`` and ``arcs``."""
    adj: dict[str, set[str]] = {nid: set() for nid in net.nodes}
    for arc in net.arcs.values():
        if arc.tail != arc.head:
            adj[arc.tail].add(arc.head)
            adj[arc.head].add(arc.tail)
    return adj


def cut_nodes(adj: Mapping[str, Iterable[str]], bare: Callable[[str], bool],
              ) -> tuple[set[str], list[set[str]]]:
    """The cut nodes of an undirected adjacency, and its components whose
    every node is ``bare``, from one depth-first search.

    Of ``undirected_adjacency(net)``, the cut nodes are the network's
    articulation points.  The search is Tarjan's iterative one (Hopcroft &
    Tarjan, CACM 16(6), 1973): a node other than a root is a cut node when
    a child's subtree reaches no node found before the node itself, a root
    when it has two children.  The components come back sorted by their
    smallest node.
    """
    found: dict[str, int] = {}  # node -> the order the search found it in
    order: list[str] = []  # the nodes in that order
    low: list[int] = []  # by that order
    cuts: set[str] = set()
    comps: list[set[str]] = []
    for root in sorted(adj):
        if root in found:
            continue
        start = found[root] = len(order)
        order.append(root)
        low.append(start)
        stack = [(root, start, iter(adj[root]))]
        children = 0
        while stack:
            u, at_u, exits = stack[-1]
            low_u = low[at_u]
            for v in exits:
                at_v = found.get(v)
                if at_v is None:
                    at_v = found[v] = len(order)
                    order.append(v)
                    low.append(at_v)
                    stack.append((v, at_v, iter(adj[v])))
                    break
                # the edge back to u's parent lowers low_u to no less than
                # the parent's number, which passes the same tests
                if at_v < low_u:
                    low_u = at_v
            else:
                stack.pop()
                if stack:
                    p, at_p, _ = stack[-1]
                    if low_u < low[at_p]:
                        low[at_p] = low_u
                    if at_p == start:
                        children += 1
                    elif low_u >= at_p:
                        cuts.add(p)
            low[at_u] = low_u
        if children >= 2:
            cuts.add(root)
        comp = order[start:]
        if all(map(bare, comp)):
            comps.append(set(comp))
    return cuts, comps


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
